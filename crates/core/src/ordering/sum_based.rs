//! Sum-based ordering (paper §3.3) — the paper's contribution.
//!
//! The index of a path is determined by three nested partitions of the
//! domain:
//!
//! 1. **length** — shorter paths first (`sumn = |L|^n` positions per
//!    block);
//! 2. **summed rank** — within a length block, paths are grouped by the
//!    sum of their label ranks, ascending; group sizes come from
//!    [`crate::combinatorics::dist`] (Formula 3);
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
//! three stages. Both are `O(poly(k) · |groups|)`; the per-`(m, sr)`
//! partition lists are memoized **process-wide** for all alphabets
//! (see [`shared_groups`] — repeated builds, e.g. incremental delta
//! re-derivations and snapshot restores, pay the partition enumeration
//! once per group ever; small alphabets additionally pin their groups in
//! a lock-free per-ordering table; disable with
//! [`SumBasedOrdering::with_cache`] to measure the uncached cost — that
//! switch is what the Table 4 timing ablation uses).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::combinatorics::{
    dist_table, integer_partitions, multiset_permutation_rank, multiset_permutation_unrank, nop,
    Partition,
};
use crate::domain::PathDomain;
use crate::ordering::DomainOrdering;
use crate::path::LabelPath;
use crate::ranking::LabelRanking;

/// A fast, non-cryptographic hasher for the packed multiset keys.
///
/// The keys are already well-mixed bit patterns under our control (no
/// HashDoS exposure), so a single multiply-xor round beats SipHash by a
/// wide margin in the estimation hot path.
#[derive(Default, Clone)]
struct PackHasher(u64);

impl std::hash::Hasher for PackHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (not used by u128 keys).
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut h = lo ^ hi.rotate_left(32) ^ self.0;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.0 = h ^ (h >> 32);
    }
}

type PackBuild = std::hash::BuildHasherDefault<PackHasher>;

/// Precomputed index for one `(m, sr)` group: the partitions in
/// Formula 4 order, their cumulative permutation-count offsets, and a
/// multiset → offset map for O(1) ranking.
#[derive(Debug)]
struct GroupIndex {
    /// Partitions in enumeration order.
    partitions: Vec<Partition>,
    /// `offsets[i]` = Σ nop(partitions[..i]); one extra entry holds the
    /// group total.
    offsets: Vec<u64>,
    /// Packed sorted-rank multiset → its offset in the group.
    by_multiset: HashMap<u128, u64, PackBuild>,
}

impl GroupIndex {
    fn new(partitions: Vec<Partition>) -> GroupIndex {
        let mut offsets = Vec::with_capacity(partitions.len() + 1);
        let mut by_multiset =
            HashMap::with_capacity_and_hasher(partitions.len(), PackBuild::default());
        let mut acc = 0u64;
        for p in &partitions {
            offsets.push(acc);
            by_multiset.insert(pack_multiset(p), acc);
            acc += nop(p);
        }
        offsets.push(acc);
        GroupIndex {
            partitions,
            offsets,
            by_multiset,
        }
    }
}

/// Packs a sorted rank multiset (≤ 8 ranks, each < 2¹⁶) into a `u128` key.
#[inline]
fn pack_multiset(sorted: &[u32]) -> u128 {
    let mut key = 0u128;
    for &r in sorted {
        key = (key << 16) | r as u128;
    }
    key
}

/// Group storage: precomputed flat table for small alphabets (no locks in
/// the hot path), process-wide memoization for large ones, or fully
/// uncached for the Table 4 timing ablation.
#[derive(Debug)]
enum Groups {
    /// `table[(m − 1) · (k·n + 1) + sr]`, rows for every reachable group.
    Eager(Vec<Option<Arc<GroupIndex>>>),
    /// Consult [`shared_groups`], keyed `(n, m, sr)`.
    Shared,
    Uncached,
}

/// The process-wide `(n, m, sr) → GroupIndex` memo behind
/// [`Groups::Shared`] and the [`Groups::Eager`] table fill. A partition
/// group depends only on those three values, so every sum-based ordering
/// in the process can share one memo — which is what keeps repeated
/// builds cheap: a serving system that re-derives its ordering per
/// incremental delta (or per background rebuild, or per snapshot
/// restore) pays the Formula 4 partition enumeration once per group
/// *ever*, not once per build.
type SharedGroupMap = RwLock<HashMap<(u16, u8, u32), Arc<GroupIndex>>>;

/// Bound on the process-wide memo. One `(|L|, k)` configuration needs at
/// most `k · (k·(|L| − 1) + 1)` groups (a few thousand at `|L| = 64,
/// k = 6`), so steady-state serving never hits this; it only trips when
/// many *different* large alphabets pass through one process, and then
/// the map is cleared wholesale — an epoch eviction that keeps memory
/// bounded at the cost of one re-warm (outstanding `Arc`s stay valid).
const SHARED_GROUP_CAP: usize = 1 << 14;

fn shared_groups() -> &'static SharedGroupMap {
    static GROUPS: std::sync::OnceLock<SharedGroupMap> = std::sync::OnceLock::new();
    GROUPS.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The `(n, m, sr)` group from [`shared_groups`], enumerating and
/// inserting it on a miss.
fn shared_group(n: u64, m: usize, sr: u64) -> Arc<GroupIndex> {
    let cache = shared_groups();
    let key = (n as u16, m as u8, sr as u32);
    if let Some(hit) = cache.read().get(&key) {
        return Arc::clone(hit);
    }
    let computed = Arc::new(GroupIndex::new(integer_partitions(sr, m, n)));
    let mut cache = cache.write();
    if cache.len() >= SHARED_GROUP_CAP {
        cache.clear();
    }
    Arc::clone(cache.entry(key).or_insert(computed))
}

/// Alphabets up to this size get the eagerly filled group table (total
/// partition count stays small); larger alphabets look groups up lazily.
const EAGER_LIMIT: usize = 32;

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
    groups: Groups,
}

impl SumBasedOrdering {
    /// Creates the ordering with partition memoization enabled.
    pub fn new(domain: PathDomain, ranking: LabelRanking) -> SumBasedOrdering {
        assert_eq!(
            ranking.len(),
            domain.label_count(),
            "ranking over {} labels but domain over {}",
            ranking.len(),
            domain.label_count()
        );
        let dist = dist_table(domain.max_len(), domain.label_count());
        let n = domain.label_count();
        let k = domain.max_len();
        let mut cum_dist: Vec<Vec<u64>> = vec![Vec::new(); k + 1];
        for m in 1..=k {
            let mut row = Vec::with_capacity(m * n - m + 2);
            row.push(0);
            let mut acc = 0u64;
            for &d in &dist[m][m..=(m * n)] {
                acc += d;
                row.push(acc);
            }
            cum_dist[m] = row;
        }
        let groups = if n <= EAGER_LIMIT {
            // Filled from the process-wide memo: an alphabet seen before
            // costs k²·|L| `Arc` clones, not a partition enumeration.
            let row = k * n + 1;
            let mut table = vec![None; k * row];
            for m in 1..=k {
                for sr in m..=(m * n) {
                    table[(m - 1) * row + sr] = Some(shared_group(n as u64, m, sr as u64));
                }
            }
            Groups::Eager(table)
        } else {
            Groups::Shared
        };
        SumBasedOrdering {
            domain,
            ranking,
            cum_dist,
            groups,
        }
    }

    /// Enables or disables group precomputation/memoization (for timing
    /// ablations: the uncached variant pays the full Formula 4 partition
    /// enumeration on every call, which is the cost model the paper's
    /// Table 4 discussion assumes).
    pub fn with_cache(mut self, enabled: bool) -> SumBasedOrdering {
        if !enabled {
            self.groups = Groups::Uncached;
        } else if matches!(self.groups, Groups::Uncached) {
            self.groups = Groups::Shared;
        }
        self
    }

    /// The ranking rule in use.
    pub fn ranking(&self) -> &LabelRanking {
        &self.ranking
    }

    /// The summed rank of a path — Table 1 of the paper.
    pub fn summed_rank(&self, path: &LabelPath) -> u32 {
        path.iter().map(|l| self.ranking.rank(l)).sum()
    }

    fn group(&self, sr: u64, m: usize) -> GroupHandle<'_> {
        let n = self.domain.label_count() as u64;
        match &self.groups {
            Groups::Eager(table) => {
                let row = self.domain.max_len() * n as usize + 1;
                GroupHandle::Borrowed(
                    table[(m - 1) * row + sr as usize]
                        .as_ref()
                        .expect("(m, sr) group outside the reachable range"),
                )
            }
            Groups::Shared => GroupHandle::Owned(shared_group(n, m, sr)),
            Groups::Uncached => {
                GroupHandle::Owned(Arc::new(GroupIndex::new(integer_partitions(sr, m, n))))
            }
        }
    }
}

/// Borrowed-or-owned access to a [`GroupIndex`]: the eager table hands
/// out references (no refcount traffic in the hot path); the lazy and
/// uncached variants hand out owned `Arc`s.
enum GroupHandle<'a> {
    Borrowed(&'a GroupIndex),
    Owned(Arc<GroupIndex>),
}

impl std::ops::Deref for GroupHandle<'_> {
    type Target = GroupIndex;

    #[inline]
    fn deref(&self) -> &GroupIndex {
        match self {
            GroupHandle::Borrowed(g) => g,
            GroupHandle::Owned(g) => g,
        }
    }
}

impl DomainOrdering for SumBasedOrdering {
    fn name(&self) -> &'static str {
        "sum-based"
    }

    fn domain(&self) -> &PathDomain {
        &self.domain
    }

    /// The inverse of Algorithm 2: stage offsets are *added* instead of
    /// subtracted.
    fn reuse_key(&self) -> Option<Vec<u32>> {
        Some(self.ranking.rank_sequence())
    }

    fn index_of(&self, path: &LabelPath) -> u64 {
        let m = path.len();
        let mut ranks = [0u32; crate::path::MAX_K];
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
        // Stage 3: our combination's offset in the group (hash lookup on
        // the cached path; linear Formula-4 scan when uncached), then the
        // permutation's rank inside the combination.
        let mut sorted = [0u32; crate::path::MAX_K];
        sorted[..m].copy_from_slice(ranks);
        let sorted = &mut sorted[..m];
        sorted.sort_unstable();
        let group = self.group(sr, m);
        let offset = group
            .by_multiset
            .get(&pack_multiset(sorted))
            .copied()
            .expect("every rank multiset with sum sr is a partition of sr");
        index + offset + multiset_permutation_rank(ranks)
    }

    /// Algorithm 2 (`unranking_in_sumbased`).
    fn path_at(&self, index: u64) -> LabelPath {
        let (m, mut rem) = self.domain.length_of_index(index);
        let n = self.domain.label_count() as u64;

        // Stage 2: find the summed-rank group by binary search over the
        // cumulative group sizes (the paper's Algorithm 2 scans linearly;
        // both orders are equivalent).
        let row = &self.cum_dist[m];
        let g = row.partition_point(|&c| c <= rem) - 1;
        rem -= row[g];
        let sr = (m + g) as u64;
        debug_assert!(sr <= m as u64 * n, "index beyond the last group");

        // Stage 3: find the combination by binary search over cumulative
        // permutation counts, then unrank the permutation inside it.
        let group = self.group(sr, m);
        let pos = group.offsets.partition_point(|&o| o <= rem) - 1;
        debug_assert!(pos < group.partitions.len(), "stage-2 residual too large");
        let p = &group.partitions[pos];
        rem -= group.offsets[pos];
        let perm = multiset_permutation_unrank(rem, p).expect("rank within nop(p) by construction");
        let labels: Vec<phe_graph::LabelId> =
            perm.iter().map(|&r| self.ranking.unrank(r)).collect();
        LabelPath::new(&labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_graph::LabelId;

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
    fn cache_and_uncached_agree() {
        // Both sides of EAGER_LIMIT: the eager table (n = 3, n = 32) and
        // the lazy shared lookup (n = 33).
        for (n, k) in [(3, 3), (EAGER_LIMIT, 2), (EAGER_LIMIT + 1, 2)] {
            let d = PathDomain::new(n, k);
            let frequencies: Vec<u64> = (0..n as u64).map(|l| (l * 37) % 11 + l).collect();
            let ranking = || LabelRanking::cardinality_from_frequencies(&frequencies);
            let cached = SumBasedOrdering::new(d, ranking());
            let uncached = SumBasedOrdering::new(d, ranking()).with_cache(false);
            assert_eq!(matches!(cached.groups, Groups::Eager(_)), n <= EAGER_LIMIT);
            for i in 0..d.size() {
                let path = uncached.path_at(i);
                assert_eq!(cached.path_at(i), path, "n = {n}, index {i}");
                assert_eq!(cached.index_of(&path), uncached.index_of(&path));
            }
        }
    }

    #[test]
    fn eager_tables_share_the_process_wide_groups() {
        let d = PathDomain::new(5, 3);
        let ranking = || LabelRanking::cardinality_from_frequencies(&[9, 4, 7, 1, 3]);
        let (a, b) = (
            SumBasedOrdering::new(d, ranking()),
            SumBasedOrdering::new(d, ranking()),
        );
        let (Groups::Eager(a), Groups::Eager(b)) = (&a.groups, &b.groups) else {
            panic!("n = 5 is under EAGER_LIMIT");
        };
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            match (x, y) {
                (Some(x), Some(y)) => assert!(Arc::ptr_eq(x, y), "group rebuilt, not shared"),
                (None, None) => {}
                _ => panic!("tables cover different groups"),
            }
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
