//! Property tests for histogram construction and estimation invariants.

use phe_histogram::builder::{EquiDepth, EquiWidth, HistogramBuilder, VOptimal};
use phe_histogram::{error_rate, EndBiasedHistogram, Histogram, PointEstimator, SparseFrequencies};
use proptest::prelude::*;

fn arb_data() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..10_000, 1..300)
}

fn all_builders() -> Vec<Box<dyn HistogramBuilder>> {
    vec![
        Box::new(EquiWidth),
        Box::new(EquiDepth),
        Box::new(VOptimal::exact()),
        Box::new(VOptimal::greedy()),
        Box::new(VOptimal::maxdiff()),
    ]
}

fn check_partition(
    h: &Histogram,
    data: &[u64],
    beta: usize,
    name: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(h.validate().is_ok(), "{name}: {:?}", h.validate());
    prop_assert_eq!(
        h.bucket_count(),
        beta.min(data.len()),
        "{} bucket count",
        name
    );
    // Bucket stats are consistent with the data.
    for b in h.buckets() {
        let slice = &data[b.lo..=b.hi];
        prop_assert_eq!(b.sum, slice.iter().sum::<u64>(), "{} sum", name);
        prop_assert_eq!(b.min, *slice.iter().min().unwrap(), "{} min", name);
        prop_assert_eq!(b.max, *slice.iter().max().unwrap(), "{} max", name);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builders_produce_valid_partitions(data in arb_data(), beta in 1usize..40) {
        for b in all_builders() {
            let h = b.build(&SparseFrequencies::dense(&data), beta).unwrap();
            check_partition(&h, &data, beta, b.name())?;
        }
    }

    #[test]
    fn estimates_bounded_by_bucket_min_max(data in arb_data(), beta in 1usize..20) {
        for b in all_builders() {
            let h = b.build(&SparseFrequencies::dense(&data), beta).unwrap();
            for i in 0..data.len() {
                let e = h.estimate(i);
                let bucket = h.bucket_of(i);
                prop_assert!(
                    e >= bucket.min as f64 - 1e-9 && e <= bucket.max as f64 + 1e-9,
                    "{}: estimate {e} outside [{}, {}]",
                    b.name(), bucket.min, bucket.max
                );
            }
        }
    }

    #[test]
    fn exact_voptimal_sse_lower_bounds_all(data in prop::collection::vec(0u64..1000, 2..80), beta in 1usize..12) {
        let exact = VOptimal::exact().build(&SparseFrequencies::dense(&data), beta).unwrap().sse(&data);
        for b in all_builders() {
            let sse = b.build(&SparseFrequencies::dense(&data), beta).unwrap().sse(&data);
            prop_assert!(exact <= sse + 1e-6, "{}: exact {exact} > {sse}", b.name());
        }
    }

    #[test]
    fn more_buckets_never_hurt_exact(data in prop::collection::vec(0u64..1000, 2..60)) {
        let mut last = f64::INFINITY;
        for beta in [1usize, 2, 4, 8, 16] {
            let sse = VOptimal::exact().build(&SparseFrequencies::dense(&data), beta).unwrap().sse(&data);
            prop_assert!(sse <= last + 1e-6, "sse grew from {last} to {sse} at beta {beta}");
            last = sse;
        }
    }

    #[test]
    fn full_range_estimate_equals_total(data in arb_data(), beta in 1usize..20) {
        for b in all_builders() {
            let h = b.build(&SparseFrequencies::dense(&data), beta).unwrap();
            let total: u64 = data.iter().sum();
            let est = h.estimate_range(0, data.len() - 1);
            prop_assert!(
                (est - total as f64).abs() < 1e-6 * (total as f64).max(1.0) + 1e-6,
                "{}: range estimate {est} vs total {total}", b.name()
            );
        }
    }

    #[test]
    fn singleton_buckets_are_exact(data in prop::collection::vec(0u64..1000, 1..50)) {
        for b in all_builders() {
            let h = b.build(&SparseFrequencies::dense(&data), data.len()).unwrap();
            for (i, &v) in data.iter().enumerate() {
                prop_assert_eq!(h.estimate(i), v as f64, "{} index {}", b.name(), i);
            }
            prop_assert!(h.sse(&data) < 1e-9);
        }
    }

    #[test]
    fn error_rate_always_bounded(e in 0.0f64..1e9, f in 0u64..1_000_000_000) {
        let r = error_rate(e, f);
        prop_assert!((-1.0..=1.0).contains(&r), "err({e},{f}) = {r}");
    }

    #[test]
    fn end_biased_exact_on_heavy_hitters(data in prop::collection::vec(0u64..1000, 1..100), beta in 1usize..20) {
        let h = EndBiasedHistogram::build(&SparseFrequencies::dense(&data), beta).unwrap();
        // The exact_count largest values are estimated exactly.
        let mut order: Vec<usize> = (0..data.len()).collect();
        order.sort_by(|&a, &b| data[b].cmp(&data[a]).then(a.cmp(&b)));
        for &i in order.iter().take(h.exact_count()) {
            prop_assert_eq!(h.estimate(i), data[i] as f64);
        }
    }

    #[test]
    fn greedy_within_factor_of_exact_on_small(data in prop::collection::vec(0u64..100, 4..40), beta in 2usize..6) {
        // Greedy merging is a heuristic; sanity-bound how far off it can
        // drift on small instances (loose factor — this is a tripwire for
        // catastrophic regressions, not a quality guarantee).
        let exact = VOptimal::exact().build(&SparseFrequencies::dense(&data), beta).unwrap().sse(&data);
        let greedy = VOptimal::greedy().build(&SparseFrequencies::dense(&data), beta).unwrap().sse(&data);
        prop_assert!(greedy <= exact * 3.0 + 1e-6, "greedy {greedy} vs exact {exact}");
    }
}
