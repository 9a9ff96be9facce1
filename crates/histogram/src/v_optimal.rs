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
//!   the remaining `≤ 2·nnz + 1` segments merge through an indexed 4-ary
//!   heap that holds one integer key per segment, so the cost is
//!   `O(nnz log nnz)` however large the domain.
//! * [`VOptimalMode::MaxDiff`] — place the `β − 1` boundaries at the
//!   largest adjacent differences. Cheapest, crudest: `O(nnz log nnz)`.
//!
//! Every mode reads [`SparsePrefix`] range statistics, which equal the
//! textbook dense prefix sums bit for bit.

use crate::builder::{check_inputs, histogram_from_ends, HistogramBuilder};
use crate::error::HistogramError;
use crate::histogram::Histogram;
use crate::sparse::{SparseFrequencies, SparsePrefix, ValueRun};

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
        let n = data.domain_size();
        if let VOptimalMode::Exact { limit } = self.mode {
            if n > limit as u64 {
                return Err(HistogramError::ExactTooLarge {
                    domain: n as usize,
                    limit,
                });
            }
        }
        // One prefix pass serves both the boundary search and the buckets.
        let prefix = SparsePrefix::new(data);
        let ends = match self.mode {
            VOptimalMode::Exact { .. } => exact_dp_ends(&prefix, n, beta),
            VOptimalMode::GreedyMerge => greedy_merge_ends_sparse(&prefix, n, beta),
            VOptimalMode::MaxDiff => maxdiff_ends(data, beta),
        };
        Ok(histogram_from_ends(&prefix, n, &ends))
    }
}

/// Exact `O(N²β)` dynamic program over a domain within the DP limit.
/// Returns inclusive bucket end indexes.
///
/// The entry rank of every position is computed once, so each SSE read
/// is the same two prefix subtractions the textbook dense DP performs.
#[allow(clippy::needless_range_loop)] // DP recurrences read clearer with indices
fn exact_dp_ends(prefix: &SparsePrefix, n: u64, beta: usize) -> Vec<u64> {
    let n = n as usize;
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
/// identical heap algorithm with the caller's [`SparsePrefix`] supplying
/// bit-identical SSE values. The replay's heap is indexed ([`MergeHeap`]):
/// each merge deletes or re-keys the three entries it changes in place,
/// where the textbook heap pushes fresh pairs and skips the stale ones on
/// pop.
///
/// The phase split equals the all-singletons heap whenever the
/// squared-frequency prefix sums are exact in `f64` (`Σ f² < 2⁵³`); past
/// that it is simply the algorithm's (deterministic) definition. The
/// `oracle` integration test pins it to the textbook heap.
fn greedy_merge_ends_sparse(prefix: &SparsePrefix, n: u64, beta: usize) -> Vec<u64> {
    if beta as u64 >= n {
        return (0..n).collect();
    }
    let runs = prefix.equal_value_runs(n);
    let needed = n - beta as u64;
    let zero_cost_merges = n - runs.len() as u64;

    if needed <= zero_cost_merges {
        // Phase 1 only: collapse runs left to right until β segments
        // remain. A partially collapsed run is its leader (grown by
        // `budget` elements) followed by untouched singletons.
        let mut ends = Vec::with_capacity(beta);
        let mut budget = needed;
        for &ValueRun { lo, hi, .. } in &runs {
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
    struct Seg {
        lo: u64,
        hi: u64,
        /// Entry ranks spanning `[lo, hi]`: `rank(lo) .. rank(hi + 1)`.
        rank_lo: u32,
        rank_hi: u32,
        sse: f64,
    }
    let mut segs: Vec<Seg> = runs
        .iter()
        .map(|run| Seg {
            lo: run.lo,
            hi: run.hi,
            rank_lo: run.rank_lo as u32,
            rank_hi: run.rank_hi as u32,
            // The dense arena recomputes SSE only on merge; a run that
            // was never merged (singleton) still holds its initial 0.0.
            sse: if run.lo == run.hi {
                0.0
            } else {
                prefix.range_sse_at(run.lo, run.hi, run.rank_lo, run.rank_hi)
            },
        })
        .collect();
    // Segments are linked by `u32` arena index; `NONE` ends a list. There
    // are at most `2·nnz + 1` of them, and entry ranks are `u32` already.
    const NONE: u32 = u32::MAX;
    let r = segs.len() as u32;
    debug_assert!(segs.len() < NONE as usize, "segment arena outgrows u32");
    let mut next: Vec<u32> = (1..=r).map(|i| if i < r { i } else { NONE }).collect();
    let mut prev: Vec<u32> = (0..r).map(|i| if i > 0 { i - 1 } else { NONE }).collect();

    // The heap holds one entry per segment with a right neighbour, keyed
    // by (merge cost, arena index). The dense algorithm tie-breaks equal
    // costs by leader domain index; segments are created in ascending
    // `lo` order, so arena order and `lo` order coincide. The dense heap
    // also has exactly one live pair per leader (its others are stale), so
    // popping the least live key here makes every merge decision it does.
    let merge_cost = |segs: &[Seg], l: u32, r: u32| {
        let (left, right) = (&segs[l as usize], &segs[r as usize]);
        prefix.range_sse_at(
            left.lo,
            right.hi,
            left.rank_lo as usize,
            right.rank_hi as usize,
        ) - left.sse
            - right.sse
    };
    let mut heap = MergeHeap::new((0..r - 1).map(|l| merge_cost(&segs, l, l + 1)));

    let mut alive = segs.len();
    while alive > beta {
        // While more than β ≥ 1 segments are alive, some segment has a
        // right neighbour, hence an entry.
        let Some(l) = heap.peek() else { break };
        let right = next[l as usize];
        let (hi, rank_hi) = (segs[right as usize].hi, segs[right as usize].rank_hi);
        let seg = &mut segs[l as usize];
        seg.hi = hi;
        seg.rank_hi = rank_hi;
        seg.sse = prefix.range_sse_at(seg.lo, hi, seg.rank_lo as usize, rank_hi as usize);
        let rn = next[right as usize];
        next[l as usize] = rn;
        alive -= 1;
        if rn == NONE {
            heap.remove(l);
        } else {
            heap.remove(right);
            prev[rn as usize] = l;
            heap.update(l, merge_cost(&segs, l, rn));
        }
        let lp = prev[l as usize];
        if lp != NONE {
            heap.update(lp, merge_cost(&segs, lp, l));
        }
    }

    let mut ends = Vec::with_capacity(beta);
    let mut i = 0u32;
    while i != NONE {
        ends.push(segs[i as usize].hi);
        i = next[i as usize];
    }
    debug_assert_eq!(ends.len(), beta);
    ends
}

/// An indexed 4-ary min-heap of merge candidates, one entry per left
/// segment: `pos[l]` locates segment `l`'s entry, so a merge re-keys or
/// deletes entries in place and the heap never holds a stale one.
///
/// Each entry is a single integer, [`MergeHeap::key`]: the cost's
/// `total_cmp` order image above the leader. Plain integer compares then
/// order entries by `(cost, leader)`, with no float compare and no
/// tie-break branch. Four children per node halve a binary heap's depth,
/// and the children a sift compares sit side by side in memory.
struct MergeHeap {
    /// Keys in heap order.
    keys: Vec<u128>,
    /// Heap position of each leader's key; [`MergeHeap::ABSENT`] once
    /// deleted.
    pos: Vec<u32>,
}

impl MergeHeap {
    const ABSENT: u32 = u32::MAX;
    const ARITY: usize = 4;

    /// The key of `leader`'s merge at `cost`: the cost's bits with every
    /// bit of a negative flipped and only the sign bit of a non-negative
    /// one, which maps `f64::total_cmp` order (`−0.0 < +0.0`, NaNs at the
    /// ends) onto unsigned order, then the leader in the low 32 bits.
    fn key(cost: f64, leader: u32) -> u128 {
        let bits = cost.to_bits();
        let negative = ((bits as i64) >> 63) as u64;
        let ordered = bits ^ (negative | (1 << 63));
        (u128::from(ordered) << 32) | u128::from(leader)
    }

    /// The leader a key belongs to.
    fn leader(key: u128) -> u32 {
        key as u32
    }

    /// A heap holding leader `l` with the `l`-th cost, heapified in one
    /// `O(n)` pass.
    fn new(costs: impl Iterator<Item = f64>) -> MergeHeap {
        let keys: Vec<u128> = costs
            .zip(0u32..)
            .map(|(cost, leader)| Self::key(cost, leader))
            .collect();
        let pos = (0..keys.len() as u32).collect();
        let mut heap = MergeHeap { keys, pos };
        // Exactly the nodes with a child: `ARITY·i + 1 < len`.
        let parents = heap.keys.len().saturating_sub(1).div_ceil(Self::ARITY);
        for i in (0..parents).rev() {
            heap.sift_down(i);
        }
        heap
    }

    /// The leader with the least `(cost, leader)` key.
    fn peek(&self) -> Option<u32> {
        self.keys.first().map(|&key| Self::leader(key))
    }

    /// Sets `leader`'s cost, which must be in the heap.
    fn update(&mut self, leader: u32, cost: f64) {
        let i = self.pos[leader as usize] as usize;
        debug_assert!(i < self.keys.len(), "leader {leader} has no entry");
        self.keys[i] = Self::key(cost, leader);
        self.restore(i);
    }

    /// Deletes `leader`'s entry, if it has one.
    fn remove(&mut self, leader: u32) {
        let i = self.pos[leader as usize];
        if i == Self::ABSENT {
            return;
        }
        let i = i as usize;
        self.pos[leader as usize] = Self::ABSENT;
        let last = self.keys.len() - 1;
        if i != last {
            self.keys.swap(i, last);
            self.keys.pop();
            self.pos[Self::leader(self.keys[i]) as usize] = i as u32;
            self.restore(i);
        } else {
            self.keys.pop();
        }
    }

    /// Moves the entry at `i` up or down to its place.
    fn restore(&mut self, i: usize) {
        if i > 0 && self.keys[i] < self.keys[(i - 1) / Self::ARITY] {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let moving = self.keys[i];
        while i > 0 {
            let parent = (i - 1) / Self::ARITY;
            let above = self.keys[parent];
            if moving > above {
                break;
            }
            self.keys[i] = above;
            self.pos[Self::leader(above) as usize] = i as u32;
            i = parent;
        }
        self.keys[i] = moving;
        self.pos[Self::leader(moving) as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        let moving = self.keys[i];
        loop {
            let first = Self::ARITY * i + 1;
            if first >= n {
                break;
            }
            let child = match self.keys.get(first..first + Self::ARITY) {
                // A full node: a branch-free tournament of its children.
                Some(&[k0, k1, k2, k3]) => {
                    let lo = usize::from(k1 < k0);
                    let hi = 2 + usize::from(k3 < k2);
                    let pick = [lo, hi];
                    let keys = [k0, k1, k2, k3];
                    first + pick[usize::from(keys[hi] < keys[lo])]
                }
                // The last, partial node.
                _ => (first..n).min_by_key(|&c| self.keys[c]).unwrap_or(first),
            };
            let least = self.keys[child];
            if least > moving {
                break;
            }
            self.keys[i] = least;
            self.pos[Self::leader(least) as usize] = i as u32;
            i = child;
        }
        self.keys[i] = moving;
        self.pos[Self::leader(moving) as usize] = i as u32;
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

    /// The merge heap's integer keys must order exactly as
    /// `(cost.total_cmp, leader)`, through every kind of `f64` a merge
    /// cost can take, across a scrambled batch of updates and removals.
    #[test]
    fn merge_heap_pops_in_total_cmp_then_leader_order() {
        let palette = [
            0.0,
            -0.0,
            // Negative rounding residues of an SSE difference.
            -1e-12,
            -f64::EPSILON,
            -3.0e-300,
            // Subnormals of both signs.
            f64::from_bits(1),
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 8.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            -f64::MAX,
            // Equal costs under many leaders.
            1.5,
            1.5,
            1.5,
            42.0,
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        // Fixed anchors hold the palette forwards and then backwards, so
        // every pair of costs also meets under both leader orders; the
        // leaders after them are scrambled.
        let anchors = 2 * palette.len();
        let leaders = anchors + 97;
        let mut live: Vec<Option<f64>> = palette
            .iter()
            .chain(palette.iter().rev())
            .map(|&cost| Some(cost))
            .collect();
        live.extend((anchors..leaders).map(|_| Some(palette[draw(palette.len())])));
        let mut heap = MergeHeap::new(live.iter().map(|cost| cost.unwrap_or(0.0)));
        for _ in 0..600 {
            let leader = anchors + draw(leaders - anchors);
            if draw(4) == 0 {
                heap.remove(leader as u32);
                live[leader] = None;
            } else if live[leader].is_some() {
                let cost = palette[draw(palette.len())];
                heap.update(leader as u32, cost);
                live[leader] = Some(cost);
            }
        }
        let mut reference: Vec<(f64, u32)> = live
            .iter()
            .enumerate()
            .filter_map(|(leader, cost)| cost.map(|cost| (cost, leader as u32)))
            .collect();
        reference.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut popped = Vec::new();
        while let Some(leader) = heap.peek() {
            popped.push(leader);
            heap.remove(leader);
        }
        let want: Vec<u32> = reference.iter().map(|&(_, leader)| leader).collect();
        assert_eq!(popped, want);
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
