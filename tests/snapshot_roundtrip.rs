//! Estimator snapshots survive a full JSON round trip and restore to
//! bit-identical estimates — the "ship statistics to the optimizer"
//! workflow.

use phe::core::snapshot::EstimatorSnapshot;
use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::datasets::{dbpedia_like_scaled, moreno_health_like_scaled};
use phe::graph::LabelId;

fn build(
    graph: &phe::graph::Graph,
    ordering: OrderingKind,
    histogram: HistogramKind,
) -> PathSelectivityEstimator {
    PathSelectivityEstimator::build(
        graph,
        EstimatorConfig {
            k: 3,
            beta: 24,
            ordering,
            histogram,
            threads: 1,
            retain_sparse: false,
        },
    )
    .unwrap()
}

#[test]
fn json_round_trip_preserves_every_estimate() {
    let graph = moreno_health_like_scaled(0.05, 21);
    for ordering in OrderingKind::ALL {
        for histogram in [HistogramKind::VOptimalGreedy, HistogramKind::EndBiased] {
            let est = build(&graph, ordering, histogram);
            let snapshot = est.snapshot().unwrap();
            let json = serde_json::to_string(&snapshot).unwrap();
            let back: EstimatorSnapshot = serde_json::from_str(&json).unwrap();
            let restored = back.restore().unwrap();
            // Every path in the domain estimates identically.
            let encoding = phe::pathenum::PathEncoding::new(graph.label_count(), 3);
            for path in (0..est.domain_size()).map(|index| encoding.decode(index)) {
                let want = est.estimate(&path);
                let got = restored.estimate_labels(&path);
                assert_eq!(
                    want,
                    got,
                    "{}/{}: path {path:?}",
                    ordering.name(),
                    histogram.name()
                );
            }
        }
    }
}

#[test]
fn snapshot_is_much_smaller_than_the_catalog() {
    let graph = dbpedia_like_scaled(0.01, 3);
    let est = PathSelectivityEstimator::build(
        &graph,
        EstimatorConfig {
            k: 4,
            beta: 64,
            ordering: OrderingKind::SumBased,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 1,
            retain_sparse: false,
        },
    )
    .unwrap();
    let snapshot = est.snapshot().unwrap();
    let raw_table_bytes = est.domain_size() * 8;
    assert!(
        snapshot.retained_bytes() * 4 < raw_table_bytes,
        "snapshot {} bytes vs raw table {} bytes",
        snapshot.retained_bytes(),
        raw_table_bytes
    );
}

#[test]
fn restored_estimator_resolves_label_names() {
    let graph = moreno_health_like_scaled(0.05, 9);
    let est = build(
        &graph,
        OrderingKind::SumBased,
        HistogramKind::VOptimalGreedy,
    );
    let snapshot = est.snapshot().unwrap();
    // Label names are carried in the snapshot, so a restored estimator's
    // host can rebuild a name → id mapping without the original graph.
    assert_eq!(snapshot.label_names.len(), graph.label_count());
    for (i, name) in snapshot.label_names.iter().enumerate() {
        assert_eq!(graph.labels().get(name), Some(LabelId(i as u16)));
    }
}

#[test]
fn tampered_json_is_rejected_not_trusted() {
    let graph = moreno_health_like_scaled(0.05, 4);
    let est = build(
        &graph,
        OrderingKind::SumBasedL2,
        HistogramKind::VOptimalGreedy,
    );
    let snapshot = est.snapshot().unwrap();
    let mut json: serde_json::Value = serde_json::to_value(&snapshot).unwrap();
    // Drop a label frequency: lengths no longer match the names.
    json["label_frequencies"].as_array_mut().unwrap().pop();
    let back: EstimatorSnapshot = serde_json::from_value(json).unwrap();
    assert!(back.restore().is_err());
}
