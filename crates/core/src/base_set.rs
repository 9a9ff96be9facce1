//! Base-label-set framework and the `B = L²` sum-based extension.
//!
//! The paper (§3.1, §5) defines orderings over a *base label set*
//! `B ⊆ L≤2` with a *splitting rule* decomposing every path into pieces
//! from `B`, and names richer base sets — "e.g., those built over richer
//! base sets such as L2, towards capturing correlations between label
//! paths" — as the primary future-work direction. This module implements
//! that extension:
//!
//! * [`greedy_split`] — the paper's greedy splitting rule: always cut the
//!   longest piece that is in `B` (so `4/4/3/3/6 → 4/4, 3/3, 6`);
//! * [`SumBasedL2Ordering`] — sum-based ordering where the summed rank is
//!   taken over the *pieces*, with pairs ranked by their true 2-path
//!   selectivity `f(l1/l2)` (from the catalog) and singles by `f(l)`.
//!
//! Because pair pieces carry the actual joint frequency of two adjacent
//! labels, this ordering sees label correlations that the `B = L`
//! sum-based ordering is blind to — exactly what the paper conjectures
//! will help on real data. The `ablation_base_sets` binary measures it.
//!
//! Index layout (length-major like all orderings here): within the
//! length-`m` block, where `m = 2j + odd`,
//!
//! 1. by total summed piece rank `sr = Σ rank(pairᵢ) + rank(single)`;
//! 2. within a sum group, by the single's rank (odd `m` only — greedy
//!    splitting pins the single to the last position);
//! 3. by the pair-rank multiset in Formula 4 order, then by multiset
//!    permutation rank (Algorithm 1), as in plain sum-based ordering.

use phe_graph::LabelId;
use phe_pathenum::SparseCatalog;

use crate::combinatorics::{
    dist_table, multiset_permutation_rank, multiset_permutation_unrank, PartitionRanker,
};
use crate::domain::PathDomain;
use crate::ordering::DomainOrdering;
use crate::path::{LabelPath, MAX_K};
use crate::ranking::LabelRanking;

/// One piece of a greedy decomposition over `B = L²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece {
    /// A length-2 piece `l1/l2`.
    Pair(LabelId, LabelId),
    /// A length-1 piece.
    Single(LabelId),
}

/// The paper's greedy splitting rule for `B = L²`: cut length-2 pieces
/// left to right; a path of odd length ends with a single.
pub fn greedy_split(path: &LabelPath) -> Vec<Piece> {
    let mut out = Vec::with_capacity(path.len().div_ceil(2));
    let slice = path.as_slice();
    let mut i = 0usize;
    while i + 1 < slice.len() {
        out.push(Piece::Pair(LabelId(slice[i]), LabelId(slice[i + 1])));
        i += 2;
    }
    if i < slice.len() {
        out.push(Piece::Single(LabelId(slice[i])));
    }
    out
}

/// Sum-based ordering over the base set `B = L²`.
#[derive(Debug)]
pub struct SumBasedL2Ordering {
    domain: PathDomain,
    /// Ranking of single labels by `f(l)` ascending, `[1, n]`.
    single_ranking: LabelRanking,
    /// Ranking of pairs by `f(l1/l2)` ascending, `[1, n²]`; pair
    /// `(l1, l2)` is keyed as the pseudo-label `l1·n + l2`.
    pair_ranking: LabelRanking,
    /// `dist_pairs[j][s]` = #length-`j` pair-rank sequences summing to `s`.
    dist_pairs: Vec<Vec<u64>>,
    /// Stage 3: Formula 4 offsets over pair ranks in `[1, n²]`.
    pairs: PartitionRanker,
}

impl SumBasedL2Ordering {
    /// Builds the ordering from a sparse catalog, which supplies both
    /// `f(l)` and `f(l1/l2)`; the `n + n²` frequency lookups are binary
    /// searches over the realized entries.
    ///
    /// # Panics
    /// Panics if the catalog was computed with `k < 2` (for a domain with
    /// `k ≥ 2`), or if the label alphabet exceeds 256 (pair pseudo-labels
    /// must fit `u16`).
    pub fn from_sparse(domain: PathDomain, catalog: &SparseCatalog) -> SumBasedL2Ordering {
        let n = domain.label_count();
        assert!(n <= 256, "L2 base set needs |L| ≤ 256, got {n}");
        assert_eq!(
            catalog.encoding().label_count(),
            n,
            "catalog alphabet does not match the domain"
        );
        let single_freqs: Vec<u64> = (0..n as u16)
            .map(|l| catalog.selectivity(&[LabelId(l)]))
            .collect();
        // A k = 1 domain never decomposes into pairs: the ordering
        // degenerates to cardinality-ranked singles and any pair ranking
        // works. Otherwise the catalog must supply real 2-path counts.
        let mut pair_freqs = vec![0u64; n * n];
        if domain.max_len() >= 2 {
            assert!(
                catalog.encoding().max_len() >= 2,
                "catalog must cover paths of length ≥ 2 to rank pairs"
            );
            for l1 in 0..n as u16 {
                for l2 in 0..n as u16 {
                    pair_freqs[(l1 as usize) * n + l2 as usize] =
                        catalog.selectivity(&[LabelId(l1), LabelId(l2)]);
                }
            }
        }
        SumBasedL2Ordering::from_frequencies(domain, &single_freqs, &pair_freqs)
    }

    /// Builds from explicit frequencies (`pair_freqs[l1·n + l2]`).
    pub fn from_frequencies(
        domain: PathDomain,
        single_freqs: &[u64],
        pair_freqs: &[u64],
    ) -> SumBasedL2Ordering {
        let n = domain.label_count();
        assert_eq!(single_freqs.len(), n);
        assert_eq!(pair_freqs.len(), n * n);
        let single_ranking = LabelRanking::cardinality_from_frequencies(single_freqs);
        let pair_ranking = LabelRanking::cardinality_from_frequencies(pair_freqs);
        let j_max = domain.max_len() / 2;
        let dist_pairs = dist_table(j_max, n * n);
        SumBasedL2Ordering {
            domain,
            single_ranking,
            pair_ranking,
            dist_pairs,
            pairs: PartitionRanker::new((n * n) as u64, j_max),
        }
    }

    /// The summed piece rank of a path (the stage-2 grouping key).
    pub fn summed_rank(&self, path: &LabelPath) -> u64 {
        let n = self.domain.label_count() as u16;
        greedy_split(path)
            .iter()
            .map(|piece| match piece {
                Piece::Pair(l1, l2) => self.pair_ranking.rank(LabelId(l1.0 * n + l2.0)) as u64,
                Piece::Single(l) => self.single_ranking.rank(*l) as u64,
            })
            .sum()
    }

    fn pair_rank(&self, l1: u16, l2: u16) -> u64 {
        let n = self.domain.label_count() as u16;
        self.pair_ranking.rank(LabelId(l1 * n + l2)) as u64
    }

    /// Number of paths of length `m` whose summed piece rank is `sr`.
    fn group_size(&self, m: usize, sr: u64) -> u64 {
        let n = self.domain.label_count() as u64;
        let j = m / 2;
        if m.is_multiple_of(2) {
            self.dist_at(j, sr)
        } else {
            (1..=n.min(sr)).map(|ss| self.dist_at(j, sr - ss)).sum()
        }
    }

    #[inline]
    fn dist_at(&self, j: usize, s: u64) -> u64 {
        self.dist_pairs
            .get(j)
            .and_then(|row| row.get(s as usize))
            .copied()
            .unwrap_or(0)
    }

    fn sum_bounds(&self, m: usize) -> (u64, u64) {
        let n = self.domain.label_count() as u64;
        let j = (m / 2) as u64;
        let a = n * n;
        if m.is_multiple_of(2) {
            (j, j * a)
        } else {
            (j + 1, j * a + n)
        }
    }

    /// The path at `index`; `None` only for an index outside the domain.
    fn locate(&self, index: u64) -> Option<LabelPath> {
        if index >= self.domain.size() {
            return None;
        }
        let (m, mut rem) = self.domain.length_of_index(index);
        let n = self.domain.label_count() as u64;
        let j = m / 2;
        let odd = m % 2 == 1;

        // Stage 2: total sum group.
        let (min_sum, max_sum) = self.sum_bounds(m);
        let mut sr = min_sum;
        while sr <= max_sum {
            let block = self.group_size(m, sr);
            if rem < block {
                break;
            }
            rem -= block;
            sr += 1;
        }
        debug_assert!(sr <= max_sum, "index beyond the last sum group");

        // Stage 2b: single rank (odd m).
        let mut single_rank = 0u64;
        if odd {
            single_rank = 1;
            while single_rank <= n {
                let block = self.dist_at(j, sr - single_rank);
                if rem < block {
                    break;
                }
                rem -= block;
                single_rank += 1;
            }
            debug_assert!(single_rank <= n, "single rank out of range");
        }

        // Stage 3: pair combination + permutation.
        let mut sorted = [0u32; MAX_K / 2];
        let rem = self
            .pairs
            .multiset_at(sr - single_rank, rem, &mut sorted[..j])?;
        let mut pair_ranks = [0u32; MAX_K / 2];
        multiset_permutation_unrank(rem, &sorted[..j], &mut pair_ranks[..j])?;

        // Reassemble the label path from pieces.
        let n16 = self.domain.label_count() as u16;
        let mut labels = Vec::with_capacity(m);
        for &r in &pair_ranks[..j] {
            let code = self.pair_ranking.unrank(r).0;
            labels.push(LabelId(code / n16));
            labels.push(LabelId(code % n16));
        }
        if odd {
            labels.push(self.single_ranking.unrank(single_rank as u32));
        }
        Some(LabelPath::new(&labels))
    }
}

impl DomainOrdering for SumBasedL2Ordering {
    fn name(&self) -> &'static str {
        "sum-based-L2"
    }

    fn domain(&self) -> &PathDomain {
        &self.domain
    }

    fn reuse_key(&self) -> Option<Vec<u32>> {
        let mut key = self.single_ranking.rank_sequence();
        key.extend(self.pair_ranking.rank_sequence());
        Some(key)
    }

    fn index_of(&self, path: &LabelPath) -> u64 {
        let m = path.len();
        let j = m / 2;
        let odd = m % 2 == 1;
        let slice = path.as_slice();
        let pair_ranks: Vec<u32> = (0..j)
            .map(|i| self.pair_rank(slice[2 * i], slice[2 * i + 1]) as u32)
            .collect();
        let single_rank = if odd {
            self.single_ranking.rank(LabelId(slice[m - 1])) as u64
        } else {
            0
        };
        let sr: u64 = pair_ranks.iter().map(|&r| r as u64).sum::<u64>() + single_rank;

        // Stage 1: length block.
        let mut index = self.domain.offset_of_length(m);
        // Stage 2: smaller total sums.
        let (min_sum, _) = self.sum_bounds(m);
        for s in min_sum..sr {
            index += self.group_size(m, s);
        }
        // Stage 2b (odd m): smaller single ranks within the sum group.
        if odd {
            for ss in 1..single_rank {
                index += self.dist_at(j, sr - ss);
            }
        }
        // Stage 3: pair-rank combinations before ours, then permutation.
        let mut sorted = pair_ranks.clone();
        sorted.sort_unstable();
        index + self.pairs.offset_of(&sorted) + multiset_permutation_rank(&pair_ranks)
    }

    fn path_at(&self, index: u64) -> LabelPath {
        // LINT-ALLOW(panic): `DomainOrdering::path_at` documents the panic for an index outside the domain.
        self.locate(index).expect("index outside the domain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }

    #[test]
    fn greedy_split_matches_paper_example() {
        // "4/4/3/3/6" → "4/4", "3/3", "6" (labels as ids 3,3,2,2,5).
        let path = LabelPath::new(&[l(3), l(3), l(2), l(2), l(5)]);
        let pieces = greedy_split(&path);
        assert_eq!(
            pieces,
            vec![
                Piece::Pair(l(3), l(3)),
                Piece::Pair(l(2), l(2)),
                Piece::Single(l(5)),
            ]
        );
    }

    #[test]
    fn greedy_split_even_length() {
        let path = LabelPath::new(&[l(0), l(1), l(2), l(0)]);
        assert_eq!(
            greedy_split(&path),
            vec![Piece::Pair(l(0), l(1)), Piece::Pair(l(2), l(0))]
        );
    }

    fn toy_ordering(k: usize) -> SumBasedL2Ordering {
        // 3 labels; singles 20/100/80; pair frequencies chosen non-uniform
        // and non-multiplicative (correlated).
        let domain = PathDomain::new(3, k);
        let singles = [20u64, 100, 80];
        let pairs = [
            5u64, 40, 0, // 0/0, 0/1, 0/2
            90, 10, 30, // 1/0, 1/1, 1/2
            2, 60, 25, // 2/0, 2/1, 2/2
        ];
        SumBasedL2Ordering::from_frequencies(domain, &singles, &pairs)
    }

    #[test]
    fn round_trip_exhaustive() {
        for k in 1..=4usize {
            let o = toy_ordering(k);
            for i in 0..o.domain_size() {
                let p = o.path_at(i);
                assert_eq!(o.index_of(&p), i, "k={k}, round trip at {i} ({p})");
            }
        }
    }

    #[test]
    fn sums_monotone_within_length_blocks() {
        let o = toy_ordering(4);
        let d = *o.domain();
        for m in 1..=4usize {
            let lo = d.offset_of_length(m);
            let hi = lo + d.length_block(m);
            let mut last = 0u64;
            for i in lo..hi {
                let sum = o.summed_rank(&o.path_at(i));
                assert!(sum >= last, "sum dropped from {last} to {sum} at index {i}");
                last = sum;
            }
        }
    }

    #[test]
    fn pairs_sort_by_true_pair_frequency() {
        let o = toy_ordering(2);
        let d = *o.domain();
        // The length-2 block enumerates pairs by ascending f(l1/l2).
        let lo = d.offset_of_length(2);
        let freqs = |p: &LabelPath| {
            let pairs = [5u64, 40, 0, 90, 10, 30, 2, 60, 25];
            pairs[(p.label(0).0 * 3 + p.label(1).0) as usize]
        };
        let mut last = 0u64;
        for i in lo..lo + 9 {
            let f = freqs(&o.path_at(i));
            assert!(f >= last, "pair frequency dropped at index {i}");
            last = f;
        }
    }

    #[test]
    fn from_sparse_uses_true_two_path_counts() {
        use phe_graph::GraphBuilder;
        // 0 -a-> 1 -b-> 2 and 0 -b-> 1: f(a)=1, f(b)=2, f(a/b)=1, others 0.
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "b", 2);
        b.add_edge_named(0, "b", 1);
        let g = b.build();
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        let domain = PathDomain::new(2, 2);
        let o = SumBasedL2Ordering::from_sparse(domain, &catalog);
        // Round trip still holds.
        for i in 0..o.domain_size() {
            assert_eq!(o.index_of(&o.path_at(i)), i);
        }
        // Pair selectivities: f(a/a)=0, f(b/a)=0, f(a/b)=1, f(b/b)=1
        // (b/b chains 0-b->1-b->2). The two f=0 pairs sort first, then the
        // two f=1 pairs (tie broken by pair code: a/b before b/b).
        let ab = LabelPath::new(&[l(0), l(1)]);
        let bb = LabelPath::new(&[l(1), l(1)]);
        let block_lo = domain.offset_of_length(2);
        assert_eq!(o.index_of(&ab), block_lo + 2, "a/b after the zero pairs");
        assert_eq!(o.index_of(&bb), block_lo + 3, "b/b last");
    }
}
