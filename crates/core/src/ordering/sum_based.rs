//! Sum-based ordering (paper §3.3) — the paper's contribution.
//!
//! The index of a path is determined by three nested partitions of the
//! domain:
//!
//! 1. **length** — shorter paths first (`sumn = |L|^n` positions per
//!    block);
//! 2. **summed rank** — within a length block, paths are grouped by the
//!    sum of their label ranks, ascending; group sizes come from
//!    Formula 3 ([`crate::combinatorics::dist`]);
//! 3. **combination, then permutation** — within a summed-rank group,
//!    rank multisets are enumerated in Formula 4 order
//!    ([`crate::combinatorics::integer_partitions`]), and the distinct
//!    permutations of each multiset in ascending lexicographic order
//!    (Algorithm 1 / Formula 5).
//!
//! Under cardinality ranking, a low summed rank means "composed of
//! low-frequency labels", so — to the extent that path selectivity is
//! monotone in its labels' frequencies — the resulting sequence is
//! approximately sorted by selectivity, which is exactly what a V-optimal
//! histogram wants.
//!
//! Unranking is the paper's Algorithm 2. Ranking (needed at estimation
//! time) is the inverse, not spelled out in the paper; it mirrors the same
//! three stages. Stage 3 never lists a group's partitions: a
//! [`PartitionRanker`] computes a multiset's Formula 4 offset from at
//! most `k` subtree counts over a binomial table, and inverts it with one
//! binary search per distinct rank. An ordering holds that table and the
//! cumulative group sizes — `O(k² · |L|)` memory — and no process-wide
//! state, so every build starts equally cold and frees everything it
//! used.

use phe_graph::LabelId;

use crate::combinatorics::{
    multiset_permutation_rank, multiset_permutation_unrank, PartitionRanker,
};
use crate::domain::PathDomain;
use crate::ordering::DomainOrdering;
use crate::path::{LabelPath, MAX_K};
use crate::ranking::LabelRanking;

/// Sum-based ordering over a ranking rule (the paper pairs it with
/// cardinality ranking).
#[derive(Debug)]
pub struct SumBasedOrdering {
    domain: PathDomain,
    ranking: LabelRanking,
    /// `cum_dist[m][i]` = Σ of the first `i` group sizes of length-`m`
    /// paths (groups ordered by summed rank `sr = m, m+1, …`): stage 2
    /// becomes one subtraction when ranking and one binary search when
    /// unranking.
    cum_dist: Vec<Vec<u64>>,
    /// Stage 3: Formula 4 offsets over ranks in `[1, |L|]`.
    partitions: PartitionRanker,
}

impl SumBasedOrdering {
    /// Creates the ordering.
    pub fn new(domain: PathDomain, ranking: LabelRanking) -> SumBasedOrdering {
        assert_eq!(
            ranking.len(),
            domain.label_count(),
            "ranking over {} labels but domain over {}",
            ranking.len(),
            domain.label_count()
        );
        let n = domain.label_count();
        let k = domain.max_len();
        let partitions = PartitionRanker::new(n as u64, k);
        let mut cum_dist: Vec<Vec<u64>> = vec![Vec::new(); k + 1];
        for (m, row) in cum_dist.iter_mut().enumerate().skip(1) {
            row.reserve(m * n - m + 2);
            row.push(0);
            let mut acc = 0u64;
            for sr in m..=m * n {
                acc += partitions.group_size(sr as u64, m);
                row.push(acc);
            }
        }
        SumBasedOrdering {
            domain,
            ranking,
            cum_dist,
            partitions,
        }
    }

    /// The ranking rule in use.
    pub fn ranking(&self) -> &LabelRanking {
        &self.ranking
    }

    /// The summed rank of a path — Table 1 of the paper.
    pub fn summed_rank(&self, path: &LabelPath) -> u32 {
        path.iter().map(|l| self.ranking.rank(l)).sum()
    }

    /// Algorithm 2 (`unranking_in_sumbased`); `None` only for an index
    /// outside the domain.
    fn locate(&self, index: u64) -> Option<LabelPath> {
        if index >= self.domain.size() {
            return None;
        }
        let (m, mut rem) = self.domain.length_of_index(index);

        // Stage 2: find the summed-rank group by binary search over the
        // cumulative group sizes (the paper's Algorithm 2 scans linearly;
        // both orders are equivalent). `row[0] = 0 ≤ rem`, so g ≥ 0.
        let row = &self.cum_dist[m];
        let g = row.partition_point(|&c| c <= rem) - 1;
        rem -= row[g];
        let sr = (m + g) as u64;

        // Stage 3: the combination in closed form, then the permutation
        // inside it.
        let mut sorted = [0u32; MAX_K];
        let rem = self.partitions.multiset_at(sr, rem, &mut sorted[..m])?;
        let mut ranks = [0u32; MAX_K];
        multiset_permutation_unrank(rem, &sorted[..m], &mut ranks[..m])?;
        let mut labels = [LabelId(0); MAX_K];
        for (label, &r) in labels.iter_mut().zip(&ranks[..m]) {
            *label = self.ranking.unrank(r);
        }
        Some(LabelPath::new(&labels[..m]))
    }
}

impl DomainOrdering for SumBasedOrdering {
    fn name(&self) -> &'static str {
        "sum-based"
    }

    fn domain(&self) -> &PathDomain {
        &self.domain
    }

    fn reuse_key(&self) -> Option<Vec<u32>> {
        Some(self.ranking.rank_sequence())
    }

    /// The inverse of Algorithm 2: stage offsets are *added* instead of
    /// subtracted.
    fn index_of(&self, path: &LabelPath) -> u64 {
        let m = path.len();
        let mut ranks = [0u32; MAX_K];
        let mut sr = 0u64;
        for (slot, l) in ranks.iter_mut().zip(path.iter()) {
            *slot = self.ranking.rank(l);
            sr += *slot as u64;
        }
        let ranks = &ranks[..m];

        // Stage 1: length block.
        let mut index = self.domain.offset_of_length(m);
        // Stage 2: all smaller summed-rank groups, via the cumulative table.
        index += self.cum_dist[m][(sr as usize) - m];
        // Stage 3: our combination's offset in the group, then the
        // permutation's rank inside the combination.
        let mut sorted = [0u32; MAX_K];
        sorted[..m].copy_from_slice(ranks);
        let sorted = &mut sorted[..m];
        sorted.sort_unstable();
        index + self.partitions.offset_of(sorted) + multiset_permutation_rank(ranks)
    }

    fn path_at(&self, index: u64) -> LabelPath {
        // LINT-ALLOW(panic): `DomainOrdering::path_at` documents the panic for an index outside the domain.
        self.locate(index).expect("index outside the domain")
    }

    /// The binomial table and the cumulative group sizes.
    fn size_bytes(&self) -> usize {
        let cum: usize = self.cum_dist.iter().map(Vec::len).sum();
        self.partitions.size_bytes() + cum * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinatorics::{dist, integer_partitions, nop};

    fn card_ranking() -> LabelRanking {
        LabelRanking::cardinality_from_frequencies(&[20, 100, 80])
    }

    #[test]
    fn round_trip_exhaustive_small() {
        let d = PathDomain::new(3, 3);
        let o = SumBasedOrdering::new(d, card_ranking());
        for i in 0..d.size() {
            let p = o.path_at(i);
            assert_eq!(o.index_of(&p), i, "round trip at {i} ({p})");
        }
    }

    #[test]
    fn round_trip_paper_scale_spot_checks() {
        // 6 labels, k = 4 (1554 paths): full round trip.
        let d = PathDomain::new(6, 4);
        let o = SumBasedOrdering::new(
            d,
            LabelRanking::cardinality_from_frequencies(&[40, 10, 60, 20, 50, 30]),
        );
        for i in 0..d.size() {
            let p = o.path_at(i);
            assert_eq!(o.index_of(&p), i, "round trip at {i} ({p})");
        }
    }

    #[test]
    fn summed_ranks_are_monotone_over_the_ordering() {
        // Within a length block, the summed rank never decreases as the
        // index grows — that is the stage-2 grouping.
        let d = PathDomain::new(4, 3);
        let o = SumBasedOrdering::new(d, LabelRanking::cardinality_from_frequencies(&[7, 1, 9, 3]));
        for m in 1..=3usize {
            let lo = d.offset_of_length(m);
            let hi = lo + d.length_block(m);
            let mut last = 0u32;
            for i in lo..hi {
                let sum = o.summed_rank(&o.path_at(i));
                assert!(sum >= last, "sum dropped from {last} to {sum} at {i}");
                last = sum;
            }
        }
    }

    #[test]
    fn closed_form_offsets_match_the_partition_oracle() {
        // Every (m, sr) group: offsets are the running Σ nop over the
        // earlier entries of `integer_partitions`, and every position of
        // the group unranks to its partition and permutation rank.
        for (n, k) in [(1usize, 8usize), (2, 8), (3, 5), (6, 4), (33, 2)] {
            let ranker = PartitionRanker::new(n as u64, k);
            for m in 1..=k {
                for sr in m as u64..=(m * n) as u64 {
                    let mut offset = 0u64;
                    for p in integer_partitions(sr, m, n as u64) {
                        assert_eq!(ranker.offset_of(&p), offset, "n = {n}, {p:?}");
                        for j in 0..nop(&p) {
                            let mut out = vec![0; m];
                            assert_eq!(ranker.multiset_at(sr, offset + j, &mut out), Some(j));
                            assert_eq!(out, p, "n = {n}, position {}", offset + j);
                        }
                        offset += nop(&p);
                    }
                    assert_eq!(ranker.group_size(sr, m), offset, "n = {n}, ({m}, {sr})");
                    assert_eq!(offset, dist(sr, m, n), "n = {n}, ({m}, {sr})");
                    let mut out = vec![0; m];
                    assert_eq!(ranker.multiset_at(sr, offset, &mut out), None);
                }
            }
        }
    }

    #[test]
    fn large_alphabet_round_trips_in_small_tables() {
        let n = 4096usize;
        let d = PathDomain::new(n, 2);
        let frequencies: Vec<u64> = (0..n as u64).map(|l| (l * 7919) % 1009).collect();
        let o = SumBasedOrdering::new(d, LabelRanking::cardinality_from_frequencies(&frequencies));
        assert!(o.size_bytes() < 1 << 20, "{} bytes", o.size_bytes());
        for i in (0..d.size()).step_by(3331).chain([d.size() - 1]) {
            let p = o.path_at(i);
            assert_eq!(o.index_of(&p), i, "round trip at {i} ({p})");
        }
    }

    #[test]
    fn single_labels_sort_by_rank() {
        let d = PathDomain::new(3, 2);
        let o = SumBasedOrdering::new(d, card_ranking());
        // Ranks: "1"(id0)→1, "3"(id2)→2, "2"(id1)→3.
        assert_eq!(o.path_at(0), LabelPath::single(LabelId(0)));
        assert_eq!(o.path_at(1), LabelPath::single(LabelId(2)));
        assert_eq!(o.path_at(2), LabelPath::single(LabelId(1)));
    }
}
