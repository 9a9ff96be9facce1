//! V-optimal histogram construction: minimize the total within-bucket
//! sum of squared errors (SSE), i.e. frequency variance — the histogram
//! family used throughout the paper's evaluation.
//!
//! Three modes trade optimality for construction cost:
//!
//! * [`VOptimalMode::Exact`] — the classic `O(N²β)` dynamic program
//!   (Jagadish et al., VLDB'98). Guaranteed optimal; only practical for
//!   domains up to a few thousand values, which is why it is gated by a
//!   configurable size limit.
//! * [`VOptimalMode::GreedyMerge`] — bottom-up agglomerative merging:
//!   start from singleton buckets and repeatedly merge the adjacent pair
//!   with the smallest SSE increase. Not optimal, but close in practice
//!   (the `ablation_voptimal` binary quantifies the gap). Zero runs and
//!   other equal-value runs collapse without touching their indexes, and
//!   the remaining `≤ 2·nnz + 1` segments merge through an indexed heap
//!   that holds one entry per segment, so the cost is `O(nnz log nnz)`
//!   however large the domain.
//! * [`VOptimalMode::MaxDiff`] — place the `β − 1` boundaries at the
//!   largest adjacent differences. Cheapest, crudest: `O(nnz log nnz)`.
//!
//! Every mode reads [`SparsePrefix`] range statistics, which equal the
//! textbook dense prefix sums bit for bit.

use crate::builder::{check_inputs, histogram_from_ends, HistogramBuilder};
use crate::error::HistogramError;
use crate::histogram::Histogram;
use crate::sparse::{SparseFrequencies, SparsePrefix};

/// Construction mode for [`VOptimal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VOptimalMode {
    /// Exact dynamic programming; errors out above `limit` domain values.
    Exact {
        /// Largest domain size the DP will accept.
        limit: usize,
    },
    /// Bottom-up greedy merging (default).
    #[default]
    GreedyMerge,
    /// Max-diff boundary placement.
    MaxDiff,
}

/// V-optimal histogram builder.
#[derive(Debug, Clone, Copy, Default)]
pub struct VOptimal {
    /// Which construction algorithm to run.
    pub mode: VOptimalMode,
}

impl VOptimal {
    /// Exact DP with the default 8192-value limit.
    pub fn exact() -> VOptimal {
        VOptimal {
            mode: VOptimalMode::Exact { limit: 8192 },
        }
    }

    /// Greedy bottom-up merging (paper-scale default).
    pub fn greedy() -> VOptimal {
        VOptimal {
            mode: VOptimalMode::GreedyMerge,
        }
    }

    /// Max-diff boundary heuristic.
    pub fn maxdiff() -> VOptimal {
        VOptimal {
            mode: VOptimalMode::MaxDiff,
        }
    }
}

impl HistogramBuilder for VOptimal {
    fn name(&self) -> &'static str {
        match self.mode {
            VOptimalMode::Exact { .. } => "v-optimal-exact",
            VOptimalMode::GreedyMerge => "v-optimal-greedy",
            VOptimalMode::MaxDiff => "v-optimal-maxdiff",
        }
    }

    fn build(
        &self,
        data: &SparseFrequencies<'_>,
        beta: usize,
    ) -> Result<Histogram, HistogramError> {
        let beta = check_inputs(data, beta)?;
        let ends = match self.mode {
            VOptimalMode::Exact { limit } => {
                let n = data.domain_size();
                if n > limit as u64 {
                    return Err(HistogramError::ExactTooLarge {
                        domain: n as usize,
                        limit,
                    });
                }
                exact_dp_ends(data, beta)
            }
            VOptimalMode::GreedyMerge => greedy_merge_ends_sparse(data, beta),
            VOptimalMode::MaxDiff => maxdiff_ends(data, beta),
        };
        Ok(histogram_from_ends(data, &ends))
    }
}

/// Exact `O(N²β)` dynamic program over a domain within the DP limit.
/// Returns inclusive bucket end indexes.
///
/// The entry rank of every position is computed once, so each SSE read
/// is the same two prefix subtractions the textbook dense DP performs.
#[allow(clippy::needless_range_loop)] // DP recurrences read clearer with indices
fn exact_dp_ends(data: &SparseFrequencies<'_>, beta: usize) -> Vec<u64> {
    let n = data.domain_size() as usize;
    let prefix = SparsePrefix::new(data);
    let ranks: Vec<usize> = (0..=n as u64).map(|i| prefix.rank(i)).collect();
    let range_sse =
        |lo: usize, hi: usize| prefix.range_sse_at(lo as u64, hi as u64, ranks[lo], ranks[hi + 1]);
    // dp[i] = min SSE of partitioning data[0..i] into the current number of
    // buckets; cut[j][i] = best position of the previous boundary.
    let mut prev = vec![0.0f64; n + 1];
    for i in 1..=n {
        prev[i] = range_sse(0, i - 1);
    }
    let mut cuts: Vec<Vec<u32>> = Vec::with_capacity(beta.saturating_sub(1));
    let mut cur = vec![0.0f64; n + 1];
    for j in 2..=beta {
        let mut cut_row = vec![0u32; n + 1];
        // With j buckets we need at least j values.
        for i in j..=n {
            let mut best = f64::INFINITY;
            let mut best_x = j - 1;
            // Last bucket covers x..i-1 (0-based), x ranges over [j-1, i-1].
            for x in (j - 1)..i {
                let cost = prev[x] + range_sse(x, i - 1);
                if cost < best {
                    best = cost;
                    best_x = x;
                }
            }
            cur[i] = best;
            cut_row[i] = best_x as u32;
        }
        cuts.push(cut_row);
        std::mem::swap(&mut prev, &mut cur);
    }
    // Backtrack boundaries.
    let mut ends = vec![0u64; beta];
    ends[beta - 1] = n as u64 - 1;
    let mut i = n;
    for j in (2..=beta).rev() {
        let x = cuts[j - 2][i] as usize;
        ends[j - 2] = x as u64 - 1;
        i = x;
    }
    ends
}

/// Greedy bottom-up merging over sparse runs — zero indexes are never
/// touched. Returns inclusive bucket end indexes.
///
/// The textbook greedy starts from `N` singleton buckets and repeatedly
/// pops the cheapest adjacent merge. The key structural fact: a merge costs
/// exactly `0.0` precisely when the two segments carry the same constant
/// value (zero runs always do; the SSE terms are exact integers there),
/// positive costs sort strictly after `0.0` under `total_cmp`, and ties at
/// `0.0` pop in ascending leader order. So the dense heap performs the
/// first `N − β` merges *inside maximal equal-value runs, left to right,
/// folding each run into its leader one element at a time* — computable in
/// O(runs) without a heap. Only if the budget outlives all equal-value
/// merges does a real heap phase start, and by then the segmentation is
/// the equal-value runs (≤ 2·nnz + 1 of them), over which we replay the
/// identical heap algorithm with [`SparsePrefix`] supplying bit-identical
/// SSE values. The replay's heap is indexed ([`MergeHeap`]): each merge
/// deletes or re-keys the three entries it changes in place, where the
/// textbook heap pushes fresh pairs and skips the stale ones on pop.
///
/// The phase split equals the all-singletons heap whenever the
/// squared-frequency prefix sums are exact in `f64` (`Σ f² < 2⁵³`); past
/// that it is simply the algorithm's (deterministic) definition. The
/// `oracle` integration test pins it to the textbook heap.
fn greedy_merge_ends_sparse(data: &SparseFrequencies<'_>, beta: usize) -> Vec<u64> {
    let n = data.domain_size();
    if beta as u64 >= n {
        return (0..n).collect();
    }
    let runs = data.equal_value_runs();
    let needed = n - beta as u64;
    let zero_cost_merges = n - runs.len() as u64;

    if needed <= zero_cost_merges {
        // Phase 1 only: collapse runs left to right until β segments
        // remain. A partially collapsed run is its leader (grown by
        // `budget` elements) followed by untouched singletons.
        let mut ends = Vec::with_capacity(beta);
        let mut budget = needed;
        for &(lo, hi) in &runs {
            let len = hi - lo + 1;
            if budget >= len - 1 {
                budget -= len - 1;
                ends.push(hi);
            } else {
                ends.push(lo + budget);
                for i in lo + budget + 1..=hi {
                    ends.push(i);
                }
                budget = 0;
            }
        }
        debug_assert_eq!(ends.len(), beta);
        return ends;
    }

    // Phase 2: all equal-value runs have collapsed; replay the dense heap
    // over the run segmentation. Leaders keep their domain index as the
    // heap tie-break key, exactly as in the dense arena. Every segment
    // carries its entry-rank span `[rank_lo, rank_hi)` so SSE reads are
    // plain prefix-array subtractions — no binary search in the loop.
    let prefix = SparsePrefix::new(data);
    struct Seg {
        lo: u64,
        hi: u64,
        /// Entry ranks spanning `[lo, hi]`: `rank(lo) .. rank(hi + 1)`.
        rank_lo: u32,
        rank_hi: u32,
        sse: f64,
    }
    let mut segs: Vec<Seg> = Vec::with_capacity(runs.len());
    let mut rank = 0usize;
    let mut entry_walk = data.cursor().peekable();
    for &(lo, hi) in &runs {
        let rank_lo = rank;
        while entry_walk.next_if(|&(index, _)| index <= hi).is_some() {
            rank += 1;
        }
        segs.push(Seg {
            lo,
            hi,
            rank_lo: rank_lo as u32,
            rank_hi: rank as u32,
            // The dense arena recomputes SSE only on merge; a run that
            // was never merged (singleton) still holds its initial 0.0.
            sse: if lo == hi {
                0.0
            } else {
                prefix.range_sse_at(lo, hi, rank_lo, rank)
            },
        });
    }
    let r = segs.len();
    const NONE: usize = usize::MAX;
    let mut next: Vec<usize> = (0..r)
        .map(|i| if i + 1 < r { i + 1 } else { NONE })
        .collect();
    let mut prev_l: Vec<usize> = (0..r).map(|i| if i > 0 { i - 1 } else { NONE }).collect();

    // The heap holds one entry per segment with a right neighbour, keyed
    // by (merge cost, arena index). The dense algorithm tie-breaks equal
    // costs by leader domain index; segments are created in ascending
    // `lo` order, so arena order and `lo` order coincide. The dense heap
    // also has exactly one live pair per leader (its others are stale), so
    // popping the least live key here makes every merge decision it does.
    let merge_cost = |segs: &[Seg], l: usize, r: usize, prefix: &SparsePrefix| {
        prefix.range_sse_at(
            segs[l].lo,
            segs[r].hi,
            segs[l].rank_lo as usize,
            segs[r].rank_hi as usize,
        ) - segs[l].sse
            - segs[r].sse
    };
    let mut heap = MergeHeap::new((0..r - 1).map(|l| merge_cost(&segs, l, l + 1, &prefix)));

    let mut alive = r;
    while alive > beta {
        // While more than β ≥ 1 segments are alive, some segment has a
        // right neighbour, hence an entry.
        let Some(l) = heap.peek() else { break };
        let right = next[l];
        segs[l].hi = segs[right].hi;
        segs[l].rank_hi = segs[right].rank_hi;
        segs[l].sse = prefix.range_sse_at(
            segs[l].lo,
            segs[l].hi,
            segs[l].rank_lo as usize,
            segs[l].rank_hi as usize,
        );
        let rn = next[right];
        next[l] = rn;
        alive -= 1;
        if rn == NONE {
            heap.remove(l);
        } else {
            heap.remove(right);
            prev_l[rn] = l;
            heap.update(l, merge_cost(&segs, l, rn, &prefix));
        }
        let lp = prev_l[l];
        if lp != NONE {
            heap.update(lp, merge_cost(&segs, lp, l, &prefix));
        }
    }

    let mut ends = Vec::with_capacity(beta);
    let mut i = 0usize;
    loop {
        ends.push(segs[i].hi);
        i = next[i];
        if i == NONE {
            break;
        }
    }
    debug_assert_eq!(ends.len(), beta);
    ends
}

/// An indexed binary min-heap of merge candidates, one entry per left
/// segment: `pos[l]` locates segment `l`'s entry, so a merge re-keys or
/// deletes entries in place and the heap never holds a stale one. Entries
/// order by `(cost, leader)`, cost under `total_cmp`.
struct MergeHeap {
    /// `(cost, leader)` in heap order.
    entries: Vec<(f64, u32)>,
    /// Heap position of each leader's entry; [`MergeHeap::ABSENT`] once
    /// deleted.
    pos: Vec<u32>,
}

impl MergeHeap {
    const ABSENT: u32 = u32::MAX;

    /// A heap holding leader `l` with the `l`-th cost, heapified in one
    /// `O(n)` pass.
    fn new(costs: impl Iterator<Item = f64>) -> MergeHeap {
        let entries: Vec<(f64, u32)> = costs.enumerate().map(|(l, c)| (c, l as u32)).collect();
        let pos = (0..entries.len() as u32).collect();
        let mut heap = MergeHeap { entries, pos };
        for i in (0..heap.entries.len() / 2).rev() {
            heap.sift_down(i);
        }
        heap
    }

    /// The leader with the least `(cost, leader)` key.
    fn peek(&self) -> Option<usize> {
        self.entries.first().map(|&(_, l)| l as usize)
    }

    /// Sets `leader`'s cost, which must be in the heap.
    fn update(&mut self, leader: usize, cost: f64) {
        let i = self.pos[leader] as usize;
        debug_assert!(i < self.entries.len(), "leader {leader} has no entry");
        self.entries[i].0 = cost;
        self.restore(i);
    }

    /// Deletes `leader`'s entry, if it has one.
    fn remove(&mut self, leader: usize) {
        let i = self.pos[leader];
        if i == Self::ABSENT {
            return;
        }
        let i = i as usize;
        self.pos[leader] = Self::ABSENT;
        let last = self.entries.len() - 1;
        if i != last {
            self.entries.swap(i, last);
            self.entries.pop();
            self.pos[self.entries[i].1 as usize] = i as u32;
            self.restore(i);
        } else {
            self.entries.pop();
        }
    }

    fn less(a: (f64, u32), b: (f64, u32)) -> bool {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).is_lt()
    }

    /// Moves the entry at `i` up or down to its place.
    fn restore(&mut self, i: usize) {
        if i > 0 && Self::less(self.entries[i], self.entries[(i - 1) / 2]) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let moving = self.entries[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::less(moving, self.entries[parent]) {
                break;
            }
            self.entries[i] = self.entries[parent];
            self.pos[self.entries[i].1 as usize] = i as u32;
            i = parent;
        }
        self.entries[i] = moving;
        self.pos[moving.1 as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        let moving = self.entries[i];
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && Self::less(self.entries[right], self.entries[left]) {
                right
            } else {
                left
            };
            if !Self::less(self.entries[child], moving) {
                break;
            }
            self.entries[i] = self.entries[child];
            self.pos[self.entries[i].1 as usize] = i as u32;
            i = child;
        }
        self.entries[i] = moving;
        self.pos[moving.1 as usize] = i as u32;
    }
}

/// Max-diff boundaries: the `β − 1` largest adjacent differences, ties
/// toward earlier positions. Non-zero adjacent differences exist only
/// next to entries (O(nnz) candidates); if the budget outlives them, the
/// tie-break fills in zero-diff boundaries at the smallest positions,
/// which we enumerate directly. Returns inclusive bucket end indexes.
fn maxdiff_ends(data: &SparseFrequencies<'_>, beta: usize) -> Vec<u64> {
    let n = data.domain_size();
    if beta as u64 >= n {
        return (0..n).collect();
    }
    // Candidate boundary positions: only p with v[p] ≠ v[p+1], which
    // requires p or p+1 to be an entry index — one windowed cursor pass
    // (previous entry + lookahead) covers every such pair:
    //   * p = index − 1 when the previous entry is not adjacent (the left
    //     neighbour is an implicit zero);
    //   * p = index against the right neighbour (the next entry when
    //     adjacent, zero otherwise).
    // Adjacent entry pairs appear once (the left entry's p = index rule);
    // positions emerge strictly increasing, so no sort/dedup is needed.
    let mut diffs: Vec<(u64, u64)> = Vec::with_capacity(2 * data.nnz());
    let mut walk = data.cursor().peekable();
    let mut previous: Option<u64> = None;
    while let Some((index, value)) = walk.next() {
        if index > 0 && previous != Some(index - 1) && value > 0 {
            diffs.push((value, index - 1));
        }
        if index + 1 < n {
            let right = match walk.peek() {
                Some(&(next, next_value)) if next == index + 1 => next_value,
                _ => 0,
            };
            let d = value.abs_diff(right);
            if d > 0 {
                diffs.push((d, index));
            }
        }
        previous = Some(index);
    }
    diffs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

    let want = beta - 1;
    let mut ends: Vec<u64> = diffs.iter().take(want).map(|&(_, p)| p).collect();
    if ends.len() < want {
        // A full sort would put all zero-diff pairs after, ordered by
        // position: take the smallest positions (valid boundaries are
        // `0..n-1`) not already used by a non-zero diff (all of which
        // were taken, since want ≥ |diffs|).
        let mut taken: Vec<u64> = ends.clone();
        taken.sort_unstable();
        let missing = want - ends.len();
        ends.extend(crate::sparse::absent_indexes(taken, n - 1).take(missing));
        debug_assert_eq!(ends.len(), want, "ran out of boundary positions");
    }
    ends.push(n - 1);
    ends.sort_unstable();
    ends.dedup();
    debug_assert_eq!(ends.len(), beta);
    ends
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EquiWidth, HistogramBuilder};
    use crate::PointEstimator;

    fn dense(data: &[u64]) -> SparseFrequencies<'_> {
        SparseFrequencies::dense(data)
    }

    #[test]
    fn exact_finds_obvious_clusters() {
        let data = [1u64, 1, 1, 50, 50, 50, 9, 9, 9];
        let h = VOptimal::exact().build(&dense(&data), 3).unwrap();
        assert_eq!(h.bucket_count(), 3);
        assert!(h.sse(&data) < 1e-9, "clusters are exactly representable");
        assert_eq!(h.estimate(0), 1.0);
        assert_eq!(h.estimate(4), 50.0);
        assert_eq!(h.estimate(8), 9.0);
    }

    #[test]
    fn greedy_finds_obvious_clusters() {
        let data = [1u64, 1, 1, 50, 50, 50, 9, 9, 9];
        let h = VOptimal::greedy().build(&dense(&data), 3).unwrap();
        assert!(h.sse(&data) < 1e-9);
    }

    #[test]
    fn maxdiff_finds_obvious_clusters() {
        let data = [1u64, 1, 1, 50, 50, 50, 9, 9, 9];
        let h = VOptimal::maxdiff().build(&dense(&data), 3).unwrap();
        assert!(h.sse(&data) < 1e-9);
    }

    #[test]
    fn exact_is_no_worse_than_others() {
        // Pseudo-random data; exact must lower-bound every other builder.
        let mut x = 123456789u64;
        let data: Vec<u64> = (0..80)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 1000
            })
            .collect();
        for beta in [2usize, 5, 10, 20] {
            let exact = VOptimal::exact()
                .build(&dense(&data), beta)
                .unwrap()
                .sse(&data);
            for other in [
                &VOptimal::greedy() as &dyn HistogramBuilder,
                &VOptimal::maxdiff(),
                &EquiWidth,
            ] {
                let sse = other.build(&dense(&data), beta).unwrap().sse(&data);
                assert!(
                    exact <= sse + 1e-6,
                    "exact {exact} > {} {sse} at beta {beta}",
                    other.name()
                );
            }
        }
    }

    #[test]
    fn exact_limit_enforced() {
        let data = vec![0u64; 100];
        let b = VOptimal {
            mode: VOptimalMode::Exact { limit: 50 },
        };
        assert!(matches!(
            b.build(&dense(&data), 4),
            Err(HistogramError::ExactTooLarge {
                domain: 100,
                limit: 50
            })
        ));
    }

    #[test]
    fn all_modes_reach_exact_beta() {
        let data: Vec<u64> = (0..40).map(|i| (i * 7 % 13) as u64).collect();
        for beta in [1usize, 2, 7, 39, 40, 100] {
            for b in [
                &VOptimal::exact() as &dyn HistogramBuilder,
                &VOptimal::greedy(),
                &VOptimal::maxdiff(),
            ] {
                let h = b.build(&dense(&data), beta).unwrap();
                assert_eq!(h.bucket_count(), beta.min(40), "{} beta={beta}", b.name());
                h.validate().unwrap();
            }
        }
    }

    #[test]
    fn greedy_matches_exact_on_small_inputs() {
        // Greedy is not optimal in general, but on tiny inputs with clear
        // structure it should match; this guards against regressions that
        // break the merge bookkeeping entirely.
        let data = [10u64, 10, 0, 0, 10, 10];
        let e = VOptimal::exact()
            .build(&dense(&data), 3)
            .unwrap()
            .sse(&data);
        let g = VOptimal::greedy()
            .build(&dense(&data), 3)
            .unwrap()
            .sse(&data);
        assert!((e - g).abs() < 1e-9, "exact {e}, greedy {g}");
    }

    #[test]
    fn single_value_domain() {
        let data = [42u64];
        for b in [
            &VOptimal::exact() as &dyn HistogramBuilder,
            &VOptimal::greedy(),
            &VOptimal::maxdiff(),
        ] {
            let h = b.build(&dense(&data), 3).unwrap();
            assert_eq!(h.bucket_count(), 1);
            assert_eq!(h.estimate(0), 42.0);
        }
    }

    #[test]
    fn default_mode_is_greedy() {
        assert_eq!(VOptimal::default().mode, VOptimalMode::GreedyMerge);
    }

    #[test]
    fn sparse_greedy_skips_huge_zero_runs() {
        // A domain far past the materialization limit: entries cluster at
        // the ends, the middle is one giant implicit zero run.
        let n: u64 = 1 << 32;
        let entries: Vec<(u64, u64)> = vec![(0, 10), (1, 12), (2, 11), (n - 2, 90), (n - 1, 95)];
        let s = SparseFrequencies::new(&entries, n).unwrap();
        let h = VOptimal::greedy().build(&s, 3).unwrap();
        assert_eq!(h.bucket_count(), 3);
        h.validate().unwrap();
        assert_eq!(h.total_sum(), 218);
        // The exact DP must refuse this size rather than allocate.
        assert!(matches!(
            VOptimal::exact().build(&s, 3),
            Err(HistogramError::ExactTooLarge { .. })
        ));
    }
}
