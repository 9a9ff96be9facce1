//! Counting and enumeration machinery behind sum-based ordering.
//!
//! Implements the paper's Formulas 3–5 and Algorithm 1:
//!
//! * [`dist`] — how many rank sequences of length `m` over ranks
//!   `[1, n]` sum to `sr` (Formula 3, inclusion–exclusion; also a DP
//!   variant used for precomputed tables and as a cross-check);
//! * [`PartitionRanker`] — Formula 4 in closed form: the offset of a rank
//!   multiset inside its `(m, sr)` group, and the inverse, from a small
//!   binomial table and at most `m` subtree counts, with no partition
//!   list held anywhere;
//! * [`integer_partitions`] — the multisets of ranks with a given sum, in
//!   the exact enumeration order induced by Formula 4 (most-max-parts
//!   last; the order that makes the paper's Table 2 come out). It is the
//!   oracle the closed form is tested against;
//! * [`nop`] — the number of distinct permutations of a rank multiset
//!   (Formula 5);
//! * [`multiset_permutation_unrank`] / [`multiset_permutation_rank`] —
//!   Algorithm 1 and its inverse: the bijection between `[0, nop(C))` and
//!   the distinct permutations of `C` in ascending lexicographic order.
//!
//! All counts fit `u64` for the sizes this workspace targets
//! (`n ≤ 4096`, `m ≤ 8`). [`dist`]'s inclusion–exclusion terms use `i128`
//! intermediates; [`PartitionRanker`] runs the same sums modulo 2⁶⁴,
//! which is exact because every count it returns fits `u64`.

use crate::path::MAX_K;

/// Binomial coefficient `C(n, k)` in `i128` (0 when `k > n`).
pub fn binomial(n: u64, k: u64) -> i128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut num: i128 = 1;
    for i in 0..k {
        num = num * (n - i) as i128 / (i + 1) as i128;
    }
    num
}

/// Formula 3: the number of length-`m` rank sequences over `[1, n]`
/// summing to `sr`, by inclusion–exclusion:
///
/// `dist(sr, m, n) = Σ_j (−1)^j · C(m, j) · C(sr − j·n − 1, m − 1)`.
pub fn dist(sr: u64, m: usize, n: usize) -> u64 {
    if m == 0 {
        return u64::from(sr == 0);
    }
    if sr < m as u64 || sr > (m * n) as u64 {
        return 0;
    }
    let mut total: i128 = 0;
    for j in 0..=m as u64 {
        let inner = sr as i128 - (j * n as u64) as i128 - 1;
        if inner < (m as i128) - 1 {
            // C(inner, m-1) = 0 once the argument drops below m-1;
            // all later terms vanish too.
            break;
        }
        let term = binomial(m as u64, j) * binomial(inner as u64, (m - 1) as u64);
        if j.is_multiple_of(2) {
            total += term;
        } else {
            total -= term;
        }
    }
    debug_assert!(total >= 0, "dist({sr},{m},{n}) went negative: {total}");
    total as u64
}

/// The same count by dynamic programming — used to precompute whole
/// tables in `O(k²n²)` and as an independent cross-check of Formula 3.
pub fn dist_table(k: usize, n: usize) -> Vec<Vec<u64>> {
    // table[m][sr], m in 0..=k, sr in 0..=k*n.
    let max_sr = k * n;
    let mut table = vec![vec![0u64; max_sr + 1]; k + 1];
    table[0][0] = 1;
    for m in 1..=k {
        for sr in m..=(m * n).min(max_sr) {
            let mut acc = 0u64;
            for r in 1..=n.min(sr) {
                acc += table[m - 1][sr - r];
            }
            table[m][sr] = acc;
        }
    }
    table
}

/// A rank multiset (integer partition with bounded parts), stored sorted
/// ascending.
pub type Partition = Vec<u32>;

/// Formula 4: all partitions of `v` into exactly `m` parts, each in
/// `[1, b]`, in the paper's enumeration order: recurse on the number `i`
/// of parts equal to the current maximum `b`, `i = 0` first.
///
/// For the paper's Table 2 this puts `{2,2}` before `{1,3}` within the
/// `(m=2, sr=4)` group, matching the published ordering.
pub fn integer_partitions(v: u64, m: usize, b: u64) -> Vec<Partition> {
    let mut out = Vec::new();
    let mut scratch = Vec::with_capacity(m);
    partitions_rec(v, m, b, &mut scratch, &mut out);
    out
}

fn partitions_rec(v: u64, m: usize, b: u64, suffix: &mut Vec<u32>, out: &mut Vec<Partition>) {
    if m == 0 {
        if v == 0 {
            let mut p: Partition = suffix.clone();
            p.reverse(); // suffix holds the large parts; emit ascending.
            out.push(p);
        }
        return;
    }
    if b == 0 || v < m as u64 || v > m as u64 * b {
        return;
    }
    let max_i = (v / b).min(m as u64);
    for i in 0..=max_i {
        for _ in 0..i {
            suffix.push(b as u32);
        }
        partitions_rec(v - i * b, m - i as usize, b - 1, suffix, out);
        for _ in 0..i {
            suffix.pop();
        }
    }
}

/// Formula 5: the number of distinct permutations of the multiset `C`:
/// `|C|! / Π dᵢ!` where `dᵢ` counts occurrences of value `i`.
pub fn nop(partition: &[u32]) -> u64 {
    let m = partition.len() as u64;
    let mut result = factorial(m);
    let mut i = 0usize;
    while i < partition.len() {
        let mut j = i;
        while j < partition.len() && partition[j] == partition[i] {
            j += 1;
        }
        result /= factorial((j - i) as u64);
        i = j;
    }
    result
}

fn factorial(n: u64) -> u64 {
    (1..=n).product::<u64>().max(1)
}

/// Distinct values of a small sorted multiset with their counts, on the
/// stack. Paths have at most [`MAX_K`] elements.
struct CountedMultiset {
    values: [u32; MAX_K],
    counts: [u8; MAX_K],
    distinct: usize,
}

impl CountedMultiset {
    fn from_sorted(sorted: &[u32]) -> CountedMultiset {
        debug_assert!(sorted.len() <= MAX_K, "multiset longer than MAX_K");
        debug_assert!(
            sorted.windows(2).all(|w| w[0] <= w[1]),
            "input must be sorted"
        );
        let mut set = CountedMultiset {
            values: [0; MAX_K],
            counts: [0; MAX_K],
            distinct: 0,
        };
        for &v in sorted {
            if set.distinct > 0 && set.values[set.distinct - 1] == v {
                set.counts[set.distinct - 1] += 1;
            } else {
                set.values[set.distinct] = v;
                set.counts[set.distinct] = 1;
                set.distinct += 1;
            }
        }
        set
    }
}

const FACTORIALS: [u64; MAX_K + 1] = [1, 1, 2, 6, 24, 120, 720, 5040, 40320];

/// `SMALL_BINOM[x][y] = C(x, y)` for `x ≤ MAX_K`: Formula 4 subtree
/// counts without division.
const SMALL_BINOM: [[u64; MAX_K + 1]; MAX_K + 1] = {
    let mut table = [[0u64; MAX_K + 1]; MAX_K + 1];
    let mut x = 0;
    while x <= MAX_K {
        table[x][0] = 1;
        let mut y = 1;
        while y <= x {
            table[x][y] = table[x - 1][y - 1] + table[x - 1][y];
            y += 1;
        }
        x += 1;
    }
    table
};

/// Algorithm 1: writes the `index`-th distinct permutation of the sorted
/// multiset `sorted` in ascending lexicographic order into `out`, or
/// returns `None` if `index ≥ nop(sorted)` or `out` is not as long as
/// `sorted`.
///
/// Implemented iteratively and allocation-free (the paper presents it
/// recursively). With `perms = nop(remaining)` and `t` values left, the
/// permutations starting with value `u` form a block of
/// `perms · count(u) / t`; each position skips whole blocks in ascending
/// value order, then `perms` becomes the chosen block.
pub fn multiset_permutation_unrank(mut index: u64, sorted: &[u32], out: &mut [u32]) -> Option<()> {
    let mut perms = nop(sorted);
    if index >= perms || out.len() != sorted.len() {
        return None;
    }
    let mut set = CountedMultiset::from_sorted(sorted);
    for (remaining, slot) in (1..=sorted.len() as u64).rev().zip(out.iter_mut()) {
        let mut i = 0usize;
        loop {
            let block = perms * u64::from(set.counts[i]) / remaining;
            if index < block {
                perms = block;
                break;
            }
            index -= block;
            i += 1;
        }
        *slot = set.values[i];
        set.counts[i] -= 1;
    }
    Some(())
}

/// Inverse of Algorithm 1: the ascending-lexicographic rank of `sequence`
/// among the distinct permutations of its own multiset. Allocation-free;
/// this is the estimation-time hot path of both sum-based orderings.
///
/// With `t` values left at a position, `less` of them smaller than the
/// one placed there and `same` equal to it, the rank gains
/// `nop(remaining) · less / t`, and the next position's `nop` is
/// `nop(remaining) · same / t`. Writing `nop(remaining) / t` as
/// `(t − 1)! · removed / D`, with `D = Π c!` over the whole multiset and
/// `removed` the product of the `same` counts so far, every term shares
/// the denominator `D`, so the sum takes one division at the end.
pub fn multiset_permutation_rank(sequence: &[u32]) -> u64 {
    let (mut scaled, mut removed) = (0u64, 1u64);
    for (p, &v) in sequence.iter().enumerate() {
        let (mut less, mut same) = (0u64, 0u64);
        for &u in &sequence[p..] {
            less += u64::from(u < v);
            same += u64::from(u == v);
        }
        scaled += less * FACTORIALS[sequence.len() - p - 1] * removed;
        removed *= same;
    }
    scaled / removed
}

/// Closed-form Formula 4 rank and unrank: the bijection between the rank
/// multisets of one `(parts, sum)` group — `parts ≤ max_parts` values in
/// `[1, bound]` summing to `sum` — and the prefix sums of their `nop`
/// counts in [`integer_partitions`] order.
///
/// The enumeration walks values `b = bound, bound − 1, …, 1` and at each
/// one picks `i`, the number of parts equal to `b`, `i = 0` first. With
/// counts `c_{b'}` already fixed above `b`, `r` parts still free and `v`
/// their sum, the subtree that takes exactly `i` copies of `b` covers
///
/// `m! / (Π_{b'>b} c_{b'}! · i! · (r − i)!) · dist(v − i·b, r − i, b − 1)`
///
/// paths (`dist` is Formula 3 with the part bound lowered to `b − 1`).
/// A multiset's offset is the sum of its earlier siblings' subtrees: at
/// most `m` terms. Unranking descends the same tree; `dist` is
/// non-decreasing in its bound, so the next value taken is found by
/// binary search.
///
/// `dist` reads a binomial table `C(x, y)`, `x < max_parts · bound`,
/// `y < max_parts`, in exact integer arithmetic: `O(max_parts² · bound)`
/// memory (11 KB at 56 labels, `k = 5`) and no enumeration.
/// [`integer_partitions`] and [`nop`] remain as the test oracle.
#[derive(Debug)]
pub struct PartitionRanker {
    bound: u64,
    max_parts: usize,
    /// `binom[x · max_parts + y] = C(x, y) mod 2⁶⁴` (exact where it
    /// matters: see `dist`).
    binom: Vec<u64>,
}

impl PartitionRanker {
    /// The ranker for up to `max_parts` parts in `[1, bound]`.
    ///
    /// # Panics
    /// Panics if `max_parts > MAX_K`, or if a group can hold more than
    /// `u64::MAX` sequences (`bound^max_parts` overflows `u64`).
    pub fn new(bound: u64, max_parts: usize) -> PartitionRanker {
        assert!(
            max_parts <= MAX_K,
            "{max_parts} parts exceed MAX_K = {MAX_K}"
        );
        assert!(
            bound.checked_pow(max_parts as u32).is_some(),
            "groups of {max_parts} parts in [1, {bound}] overflow u64"
        );
        let rows = max_parts * bound as usize;
        let mut binom = vec![0u64; rows * max_parts];
        for x in 0..rows {
            binom[x * max_parts] = 1;
            for y in 1..max_parts.min(x + 1) {
                binom[x * max_parts + y] =
                    binom[(x - 1) * max_parts + y - 1].wrapping_add(binom[(x - 1) * max_parts + y]);
            }
        }
        PartitionRanker {
            bound,
            max_parts,
            binom,
        }
    }

    /// Bytes of the binomial table.
    pub fn size_bytes(&self) -> usize {
        self.binom.len() * std::mem::size_of::<u64>()
    }

    /// Formula 3: the number of `parts`-long sequences over `[1, bound]`
    /// summing to `sum` — the size of the `(parts, sum)` group.
    pub fn group_size(&self, sum: u64, parts: usize) -> u64 {
        self.dist(sum, parts, self.bound)
    }

    /// Formula 3 with part bound `b ≤ bound`, by inclusion–exclusion
    /// over the table, in exact integer arithmetic modulo 2⁶⁴. Binomials
    /// and terms can pass 2⁶⁴ (`C(2039, 7)` at `bound = 255`, 8 parts),
    /// but the result is a count below `bound^r ≤ u64::MAX` (checked in
    /// `new`), so its residue modulo 2⁶⁴ is the count itself.
    fn dist(&self, s: u64, r: usize, b: u64) -> u64 {
        if r == 0 {
            return u64::from(s == 0);
        }
        if s < r as u64 || s > r as u64 * b {
            return 0;
        }
        let mut total = 0u64;
        let mut top = s; // s − j·b
        for (j, &choose) in SMALL_BINOM[r][..=r].iter().enumerate() {
            // C(top − 1, r − 1) vanishes once top < r, and so do all
            // later terms.
            if top < r as u64 {
                break;
            }
            let term = choose.wrapping_mul(self.binom[(top - 1) as usize * self.max_parts + r - 1]);
            total = if j % 2 == 0 {
                total.wrapping_add(term)
            } else {
                total.wrapping_sub(term)
            };
            top = top.saturating_sub(b);
        }
        total
    }

    /// Sequences under the subtree that fixes `i` more copies of the
    /// current value, leaving `free − i` parts summing to `rest` in
    /// `[1, below]`. `prefix = m! / (Π c! · free!)` is the multinomial
    /// over the counts fixed so far, so the subtree's arrangements number
    /// `prefix · C(free, i)` times `dist` of what is left.
    #[inline]
    fn subtree(&self, prefix: u64, free: usize, i: usize, rest: u64, below: u64) -> u64 {
        prefix * SMALL_BINOM[free][i] * self.dist(rest, free - i, below)
    }

    /// The offset of the sorted rank multiset `sorted` inside its
    /// `(sorted.len(), Σ sorted)` group: `Σ nop` over the multisets
    /// [`integer_partitions`] lists before it.
    pub fn offset_of(&self, sorted: &[u32]) -> u64 {
        debug_assert!(sorted.len() <= self.max_parts, "more parts than max_parts");
        let mut rest: u64 = sorted.iter().map(|&x| u64::from(x)).sum();
        let (mut free, mut prefix, mut offset) = (sorted.len(), 1u64, 0u64);
        // The `free` smallest parts are `sorted[..free]`; take the largest
        // value's run off the top each round.
        while free > 0 {
            let b = u64::from(sorted[free - 1]);
            let count = sorted[..free]
                .iter()
                .rev()
                .take_while(|&&x| u64::from(x) == b)
                .count();
            for i in 0..count {
                offset += self.subtree(prefix, free, i, rest - i as u64 * b, b - 1);
            }
            rest -= count as u64 * b;
            prefix *= SMALL_BINOM[free][count];
            free -= count;
        }
        offset
    }

    /// The inverse of [`PartitionRanker::offset_of`]: writes into `out`
    /// (ascending) the multiset of `out.len()` parts summing to `sum`
    /// whose `nop` permutations hold group position `rem`, and returns
    /// `rem`'s rank among those permutations. `None` when
    /// `rem ≥ group_size(sum, out.len())`.
    pub fn multiset_at(&self, sum: u64, mut rem: u64, out: &mut [u32]) -> Option<u64> {
        let (mut rest, mut free, mut prefix, mut top) = (sum, out.len(), 1u64, self.bound);
        while free > 0 {
            // The largest value b ≤ top whose i = 0 subtree (no part equal
            // to b) ends at or before `rem`. Any b up to the mean part,
            // `⌈rest / free⌉`, qualifies: parts below it cannot reach
            // `rest`, so that subtree is empty. Any b above
            // `rest − (free − 1)` does not, or `rem` is past the group.
            let mut lo = rest.div_ceil(free as u64).max(1);
            let mut hi = top.min((rest + 1).saturating_sub(free as u64));
            if lo > hi {
                return None;
            }
            while lo < hi {
                let mid = lo + (hi - lo).div_ceil(2);
                if self.subtree(prefix, free, 0, rest, mid - 1) <= rem {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            let b = lo;
            let mut i = 0usize;
            loop {
                if i > free || i as u64 * b > rest {
                    return None;
                }
                let block = self.subtree(prefix, free, i, rest - i as u64 * b, b - 1);
                if rem < block {
                    break;
                }
                rem -= block;
                i += 1;
            }
            out[free - i..free].fill(b as u32);
            rest -= i as u64 * b;
            prefix *= SMALL_BINOM[free][i];
            free -= i;
            top = b - 1;
        }
        (rest == 0).then_some(rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(3, 4), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn dist_matches_brute_force() {
        for n in 1..=5usize {
            for m in 1..=4usize {
                for sr in 0..=(m * n + 2) as u64 {
                    let brute = brute_force_dist(sr, m, n);
                    assert_eq!(dist(sr, m, n), brute, "dist({sr},{m},{n})");
                }
            }
        }
    }

    fn brute_force_dist(sr: u64, m: usize, n: usize) -> u64 {
        fn rec(sr: i64, m: usize, n: usize) -> u64 {
            if m == 0 {
                return u64::from(sr == 0);
            }
            (1..=n as i64).map(|r| rec(sr - r, m - 1, n)).sum()
        }
        rec(sr as i64, m, n)
    }

    #[test]
    fn dist_table_matches_formula() {
        let table = dist_table(4, 6);
        for (m, row) in table.iter().enumerate().skip(1) {
            for sr in 0..=24u64 {
                assert_eq!(row[sr as usize], dist(sr, m, 6), "({m},{sr})");
            }
        }
    }

    #[test]
    fn dist_paper_example() {
        // m=2, n=3: sums 2..6 count 1,2,3,2,1 — all 9 pairs.
        let counts: Vec<u64> = (2..=6).map(|sr| dist(sr, 2, 3)).collect();
        assert_eq!(counts, vec![1, 2, 3, 2, 1]);
        assert_eq!(counts.iter().sum::<u64>(), 9);
    }

    #[test]
    fn partitions_paper_order() {
        // Table 2's (m=2, sr=4) group over n=3: {2,2} before {1,3}.
        let p = integer_partitions(4, 2, 3);
        assert_eq!(p, vec![vec![2, 2], vec![1, 3]]);
    }

    #[test]
    fn partitions_cover_dist() {
        // Σ nop over partitions of (sr, m) must equal dist(sr, m, n).
        for n in 1..=5u64 {
            for m in 1..=4usize {
                for sr in m as u64..=(m as u64 * n) {
                    let parts = integer_partitions(sr, m, n);
                    let total: u64 = parts.iter().map(|p| nop(p)).sum();
                    assert_eq!(total, dist(sr, m, n as usize), "({sr},{m},{n})");
                    // Every partition is sorted, within bounds, sums right.
                    for p in &parts {
                        assert!(p.windows(2).all(|w| w[0] <= w[1]), "{p:?} not sorted");
                        assert!(p.iter().all(|&x| x >= 1 && x as u64 <= n));
                        assert_eq!(p.iter().map(|&x| x as u64).sum::<u64>(), sr);
                    }
                    // No duplicates in the enumeration.
                    let mut dedup = parts.clone();
                    dedup.sort();
                    dedup.dedup();
                    assert_eq!(dedup.len(), parts.len());
                }
            }
        }
    }

    #[test]
    fn nop_formula5() {
        assert_eq!(nop(&[]), 1);
        assert_eq!(nop(&[3]), 1);
        assert_eq!(nop(&[1, 2]), 2);
        assert_eq!(nop(&[2, 2]), 1);
        assert_eq!(nop(&[1, 1, 2]), 3);
        assert_eq!(nop(&[1, 2, 3, 4]), 24);
        assert_eq!(nop(&[1, 1, 2, 2]), 6);
    }

    fn unrank(index: u64, sorted: &[u32]) -> Option<Vec<u32>> {
        let mut out = vec![0; sorted.len()];
        multiset_permutation_unrank(index, sorted, &mut out).map(|()| out)
    }

    #[test]
    fn unrank_enumerates_lexicographically() {
        let c = [1u32, 1, 2, 3];
        let total = nop(&c);
        assert_eq!(total, 12);
        let mut perms: Vec<Vec<u32>> = Vec::new();
        for i in 0..total {
            perms.push(unrank(i, &c).unwrap());
        }
        // Strictly increasing lexicographic order.
        for w in perms.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
        // First and last are the sorted and reverse-sorted sequences.
        assert_eq!(perms[0], vec![1, 1, 2, 3]);
        assert_eq!(perms[11], vec![3, 2, 1, 1]);
        // Out of range.
        assert!(unrank(12, &c).is_none());
    }

    #[test]
    fn rank_inverts_unrank() {
        let c = [1u32, 2, 2, 4, 4];
        for i in 0..nop(&c) {
            let p = unrank(i, &c).unwrap();
            assert_eq!(multiset_permutation_rank(&p), i, "at {i} ({p:?})");
        }
    }

    #[test]
    fn rank_of_distinct_values_is_factorial_rank() {
        // For all-distinct values this is plain permutation ranking.
        assert_eq!(multiset_permutation_rank(&[1, 2, 3]), 0);
        assert_eq!(multiset_permutation_rank(&[3, 2, 1]), 5);
        assert_eq!(multiset_permutation_rank(&[2, 1, 3]), 2);
    }

    #[test]
    fn ranker_is_exact_where_binomials_pass_u64() {
        // 8 parts in [1, 255]: every group holds fewer than 2⁶⁴
        // sequences, but its inclusion–exclusion terms do not.
        let ranker = PartitionRanker::new(255, 8);
        assert!(binomial(8 * 255 - 1, 7) > u64::MAX as i128);
        for sum in [8, 600, 1020, 1024, 1500, 2039, 2040] {
            assert_eq!(ranker.group_size(sum, 8), dist(sum, 8, 255), "sum {sum}");
        }
        let sorted = [3u32, 77, 77, 128, 200, 254, 255, 255];
        let sum = sorted.iter().map(|&r| r as u64).sum();
        let last = ranker.offset_of(&sorted) + nop(&sorted) - 1;
        let mut out = [0u32; 8];
        assert_eq!(
            ranker.multiset_at(sum, last, &mut out),
            Some(nop(&sorted) - 1)
        );
        assert_eq!(out, sorted);
    }

    #[test]
    fn partitions_edge_cases() {
        assert_eq!(integer_partitions(0, 0, 5), vec![Vec::<u32>::new()]);
        assert!(integer_partitions(1, 0, 5).is_empty());
        assert!(integer_partitions(7, 2, 3).is_empty()); // above m*b
        assert!(integer_partitions(1, 2, 3).is_empty()); // below m
        assert_eq!(integer_partitions(6, 2, 3), vec![vec![3, 3]]);
    }
}
