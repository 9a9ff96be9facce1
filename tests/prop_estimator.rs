//! Property tests at the whole-system level: for arbitrary graphs and
//! configurations, the estimator upholds its contract.

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::graph::{GraphBuilder, LabelId, VertexId};
use proptest::prelude::*;

/// Every path of the estimator's domain with its exact count, read from
/// the retained sparse catalog.
fn domain(est: &PathSelectivityEstimator) -> Vec<(Vec<LabelId>, u64)> {
    let catalog = est.sparse_catalog().expect("retained");
    (0..catalog.len())
        .map(|index| {
            (
                catalog.encoding().decode(index),
                catalog.selectivity_at(index as u64),
            )
        })
        .collect()
}

fn arb_graph() -> impl Strategy<Value = phe::graph::Graph> {
    (
        2u16..4,
        prop::collection::vec((0u32..20, 0u16..4, 0u32..20), 1..120),
    )
        .prop_map(|(labels, edges)| {
            let mut b = GraphBuilder::with_numeric_labels(20, labels);
            for (s, l, t) in edges {
                b.add_edge(VertexId(s), LabelId(l % labels), VertexId(t));
            }
            b.build()
        })
}

fn arb_config() -> impl Strategy<Value = (usize, usize, OrderingKind, HistogramKind)> {
    (
        1usize..4,
        1usize..40,
        prop::sample::select(OrderingKind::ALL.to_vec()),
        prop::sample::select(vec![
            HistogramKind::EquiWidth,
            HistogramKind::EquiDepth,
            HistogramKind::VOptimalGreedy,
            HistogramKind::VOptimalMaxDiff,
            HistogramKind::EndBiased,
        ]),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn estimates_are_finite_and_nonnegative(g in arb_graph(), (k, beta, ordering, histogram) in arb_config()) {
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig { k, beta, ordering, histogram, threads: 1, retain_sparse: true },
        ).unwrap();
        // Walk the whole domain through the public API.
        for (path, truth) in domain(&est) {
            let e = est.estimate(&path);
            prop_assert!(e.is_finite() && e >= 0.0, "estimate {e} for {path:?}");
            let err = est.error(&path).expect("retained");
            prop_assert!((-1.0..=1.0).contains(&err), "err {err}");
            // Formula 6 consistency with the separately computed truth.
            if e == truth as f64 {
                prop_assert_eq!(err, 0.0);
            }
        }
    }

    #[test]
    fn estimate_mass_is_conserved_for_bucket_histograms(g in arb_graph(), k in 1usize..4, beta in 1usize..30) {
        // Bucketed histograms preserve total mass: summing estimates over
        // the whole domain reproduces the catalog's total mass (each
        // bucket contributes count × mean = sum).
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k,
                beta,
                ordering: OrderingKind::SumBased,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: true,
            },
        ).unwrap();
        let total_estimate: f64 = domain(&est)
            .iter()
            .map(|(path, _)| est.estimate(path))
            .sum();
        let total_truth = est.sparse_catalog().expect("retained").total_mass() as f64;
        prop_assert!(
            (total_estimate - total_truth).abs() <= 1e-6 * total_truth.max(1.0) + 1e-3,
            "mass drifted: {total_estimate} vs {total_truth}"
        );
    }

    #[test]
    fn snapshots_round_trip_for_arbitrary_graphs(g in arb_graph(), (k, beta, ordering, histogram) in arb_config()) {
        prop_assume!(ordering != OrderingKind::Ideal);
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig { k, beta, ordering, histogram, threads: 1, retain_sparse: true },
        ).unwrap();
        let restored = est.snapshot().unwrap().restore().unwrap();
        for (path, _) in domain(&est) {
            prop_assert_eq!(est.estimate(&path), restored.estimate_labels(&path));
        }
    }
}
