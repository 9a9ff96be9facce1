//! Every builder, run over a dense sequence through
//! `SparseFrequencies::dense`, returns exactly the buckets of a textbook
//! implementation written over plain `&[u64]`; and on small domains the
//! exact V-optimal DP reaches the minimum SSE over every partition.
//!
//! The oracles are deliberately the obvious algorithms: they touch every
//! index, zeros included, and share no code with the crate.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use phe_histogram::{
    Bucket, EndBiasedHistogram, EquiDepth, EquiWidth, HistogramBuilder, PointEstimator,
    SparseFrequencies, VOptimal,
};
use proptest::prelude::*;

/// Textbook prefix sums over every index.
struct Prefix {
    sum: Vec<u64>,
    sq: Vec<f64>,
}

impl Prefix {
    fn new(data: &[u64]) -> Prefix {
        let mut sum = vec![0u64];
        let mut sq = vec![0.0f64];
        for &v in data {
            sum.push(sum[sum.len() - 1] + v);
            sq.push(sq[sq.len() - 1] + (v as f64) * (v as f64));
        }
        Prefix { sum, sq }
    }

    /// SSE of `data[lo..=hi]` around its mean: `Σ f² − (Σ f)² / n`,
    /// clamped at zero.
    fn sse(&self, lo: usize, hi: usize) -> f64 {
        let n = (hi - lo + 1) as f64;
        let s = (self.sum[hi + 1] - self.sum[lo]) as f64;
        let q = self.sq[hi + 1] - self.sq[lo];
        (q - s * s / n).max(0.0)
    }
}

/// Buckets ending at the inclusive `ends`, statistics by direct scan.
fn buckets_from_ends(data: &[u64], ends: &[usize]) -> Vec<Bucket> {
    let mut lo = 0;
    ends.iter()
        .map(|&hi| {
            let slice = &data[lo..=hi];
            let bucket = Bucket {
                lo,
                hi,
                sum: slice.iter().sum(),
                min: *slice.iter().min().unwrap(),
                max: *slice.iter().max().unwrap(),
            };
            lo = hi + 1;
            bucket
        })
        .collect()
}

/// Bucket `i` covers `⌊N·i/β⌋ .. ⌊N·(i+1)/β⌋ − 1`.
fn equi_width(data: &[u64], beta: usize) -> Vec<usize> {
    let (n, beta) = (data.len(), beta.min(data.len()));
    (1..=beta).map(|i| n * i / beta - 1).collect()
}

/// The dense equi-depth scan: close bucket `b` at the first index whose
/// running sum reaches `(b+1)/β` of the mass, keeping enough indexes for
/// the buckets still to come.
fn equi_depth(data: &[u64], beta: usize) -> Vec<usize> {
    let (n, beta) = (data.len(), beta.min(data.len()));
    let total: u64 = data.iter().sum();
    if total == 0 {
        return equi_width(data, beta);
    }
    let mut ends = Vec::new();
    let mut acc = 0u64;
    for (i, &v) in data.iter().enumerate() {
        acc += v;
        let closed = ends.len();
        if closed == beta - 1 {
            break;
        }
        let remaining_values = n - i - 1;
        let remaining_buckets = beta - closed - 1;
        let threshold = ((closed as u128 + 1) * total as u128 / beta as u128) as u64;
        let must_close = remaining_values == remaining_buckets;
        let wants_close = acc >= threshold && remaining_values >= remaining_buckets;
        if must_close || wants_close {
            ends.push(i);
        }
    }
    ends.push(n - 1);
    ends
}

/// Boundaries after the `β − 1` largest adjacent differences, ties toward
/// earlier positions.
fn max_diff(data: &[u64], beta: usize) -> Vec<usize> {
    let (n, beta) = (data.len(), beta.min(data.len()));
    let mut diffs: Vec<(u64, usize)> = data
        .windows(2)
        .enumerate()
        .map(|(i, w)| (w[0].abs_diff(w[1]), i))
        .collect();
    diffs.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut ends: Vec<usize> = diffs[..beta - 1].iter().map(|&(_, i)| i).collect();
    ends.push(n - 1);
    ends.sort_unstable();
    ends
}

/// `f64` ordered by `total_cmp`, for the heap.
#[derive(Clone, Copy, PartialEq)]
struct Total(f64);

impl Eq for Total {}

impl PartialOrd for Total {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Total {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Greedy bottom-up merging from all singletons: repeatedly merge the
/// adjacent pair whose SSE grows least, ties to the lower leader index.
/// Segments are named by their leader (first index); stale heap entries
/// are recognized by version counters.
fn greedy(data: &[u64], beta: usize) -> Vec<usize> {
    let (n, beta) = (data.len(), beta.min(data.len()));
    let prefix = Prefix::new(data);
    let mut hi: Vec<usize> = (0..n).collect();
    let mut sse = vec![0.0f64; n];
    let mut version = vec![0u32; n];
    let mut next: Vec<Option<usize>> = (0..n).map(|i| (i + 1 < n).then_some(i + 1)).collect();
    let mut prev: Vec<Option<usize>> = (0..n).map(|i| i.checked_sub(1)).collect();
    let mut alive = vec![true; n];
    let mut heap = BinaryHeap::new();
    let key = |l: usize, r: usize, hi: &[usize], sse: &[f64], version: &[u32]| {
        let cost = prefix.sse(l, hi[r]) - sse[l] - sse[r];
        Reverse((Total(cost), l, version[l], version[r]))
    };
    for l in 0..n.saturating_sub(1) {
        heap.push(key(l, l + 1, &hi, &sse, &version));
    }
    let mut segments = n;
    while segments > beta {
        let Reverse((_, l, vl, vr)) = heap.pop().unwrap();
        let Some(r) = next[l] else { continue };
        if !alive[l] || version[l] != vl || version[r] != vr {
            continue;
        }
        hi[l] = hi[r];
        sse[l] = prefix.sse(l, hi[l]);
        version[l] += 1;
        alive[r] = false;
        next[l] = next[r];
        segments -= 1;
        if let Some(rn) = next[l] {
            prev[rn] = Some(l);
            heap.push(key(l, rn, &hi, &sse, &version));
        }
        if let Some(lp) = prev[l] {
            heap.push(key(lp, l, &hi, &sse, &version));
        }
    }
    let mut ends = Vec::new();
    let mut leader = Some(0);
    while let Some(l) = leader {
        ends.push(hi[l]);
        leader = next[l];
    }
    ends
}

/// End-biased by a full sort: the `β − 1` highest frequencies (ties to
/// the lower index) exact, every other index the mean of the rest.
fn end_biased(data: &[u64], beta: usize) -> (usize, f64, Vec<f64>) {
    let singles = (beta - 1).min(data.len());
    let mut order: Vec<usize> = (0..data.len()).collect();
    order.sort_by(|&a, &b| data[b].cmp(&data[a]).then(a.cmp(&b)));
    let mut exact = vec![false; data.len()];
    for &i in &order[..singles] {
        exact[i] = true;
    }
    let rest: Vec<u64> = (0..data.len())
        .filter(|&i| !exact[i])
        .map(|i| data[i])
        .collect();
    let rest_mean = if rest.is_empty() {
        0.0
    } else {
        rest.iter().sum::<u64>() as f64 / rest.len() as f64
    };
    let estimates = (0..data.len())
        .map(|i| if exact[i] { data[i] as f64 } else { rest_mean })
        .collect();
    (singles, rest_mean, estimates)
}

/// Frequency sequences from dense to ≥ 90% zeros, over small and large
/// value alphabets (small ones make long equal-value runs). Values stay
/// below 10⁴ and lengths below 300, so `Σ f² < 2⁵³` — and every square
/// sum the SSE formula forms is exact, the regime in which the greedy
/// docs promise the textbook heap's merge order.
fn arb_frequencies() -> impl Strategy<Value = Vec<u64>> {
    (
        prop::sample::select(vec![0u64, 50, 90, 97, 100]),
        prop::sample::select(vec![3u64, 100, 10_000]),
    )
        .prop_flat_map(|(zero_percent, ceiling)| {
            prop::collection::vec((0u64..100, 1..ceiling), 1..300).prop_map(move |cells| {
                cells
                    .into_iter()
                    .map(|(roll, v)| if roll < zero_percent { 0 } else { v })
                    .collect::<Vec<u64>>()
            })
        })
}

/// A deep heap: 20,000 cells over {0, 1, 2, 3} leave about 15,000
/// equal-value runs, so the greedy's heap phase deletes and re-keys
/// entries far from the root, and the tiny alphabet makes many merge
/// costs exactly equal, so leader tie-breaks decide the order. β runs
/// from one bucket to one merge short of the run segmentation.
#[test]
fn greedy_matches_its_oracle_on_a_deep_heap() {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let data: Vec<u64> = (0..20_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % 4
        })
        .collect();
    let runs = 1 + data.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(runs > 10_000, "{runs} runs");
    let view = SparseFrequencies::dense(&data);
    for beta in [1, 2, 256, runs - 1] {
        let built = VOptimal::greedy().build(&view, beta).unwrap();
        let expected = buckets_from_ends(&data, &greedy(&data, beta));
        assert!(
            built.buckets() == expected.as_slice(),
            "greedy diverged from its oracle at β = {beta}"
        );
    }
}

type Oracle = fn(&[u64], usize) -> Vec<usize>;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn every_builder_matches_its_oracle(data in arb_frequencies(), beta in 1usize..48) {
        let view = SparseFrequencies::dense(&data);
        let cases: [(&dyn HistogramBuilder, Oracle); 4] = [
            (&EquiWidth, equi_width),
            (&EquiDepth, equi_depth),
            (&VOptimal::maxdiff(), max_diff),
            (&VOptimal::greedy(), greedy),
        ];
        for beta in [beta, data.len(), data.len() + 3] {
            for (builder, oracle) in cases {
                let built = builder.build(&view, beta).unwrap();
                let expected = buckets_from_ends(&data, &oracle(&data, beta));
                prop_assert_eq!(
                    built.buckets(),
                    expected.as_slice(),
                    "{} diverged at β = {} on {:?}",
                    builder.name(),
                    beta,
                    data
                );
            }
            let built = EndBiasedHistogram::build(&view, beta).unwrap();
            let (singles, rest_mean, estimates) = end_biased(&data, beta);
            prop_assert_eq!(built.exact_count(), singles);
            prop_assert_eq!(built.rest_mean().to_bits(), rest_mean.to_bits());
            for (i, &e) in estimates.iter().enumerate() {
                prop_assert_eq!(built.estimate(i).to_bits(), e.to_bits(), "end-biased at {}", i);
            }
        }
    }

    #[test]
    fn exact_dp_reaches_the_brute_force_minimum(
        data in prop::collection::vec((0u64..3, 0u64..20), 1..13).prop_map(|cells| {
            cells.into_iter().map(|(roll, v)| if roll == 0 { 0 } else { v }).collect::<Vec<u64>>()
        }),
        beta in 1usize..13,
    ) {
        let n = data.len();
        let beta = beta.min(n);
        let prefix = Prefix::new(&data);
        // Cost of a partition given by its inclusive ends, summed left to
        // right like the DP's recurrence.
        let cost = |ends: &[usize]| {
            let mut lo = 0;
            let mut total = 0.0;
            for &hi in ends {
                total += prefix.sse(lo, hi);
                lo = hi + 1;
            }
            total
        };
        // Every choice of β − 1 cut positions among the N − 1 gaps.
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << (n - 1)) {
            if mask.count_ones() as usize != beta - 1 {
                continue;
            }
            let mut ends: Vec<usize> = (0..n - 1).filter(|&i| mask & (1 << i) != 0).collect();
            ends.push(n - 1);
            best = best.min(cost(&ends));
        }
        let built = VOptimal::exact().build(&SparseFrequencies::dense(&data), beta).unwrap();
        let ends: Vec<usize> = built.buckets().iter().map(|b| b.hi).collect();
        prop_assert_eq!(ends.len(), beta);
        prop_assert_eq!(cost(&ends), best, "{:?} at β = {}", data, beta);
    }
}
