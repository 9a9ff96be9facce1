//! End-to-end integration: dataset generation → catalog → ordering →
//! histogram → estimation, across the public `phe` API.

use phe::core::eval::evaluate_configuration;
use phe::core::ordering::OrderingKind;
use phe::core::{EstimatorConfig, HistogramKind, PathSelectivityEstimator};
use phe::datasets::{self, LabelDistribution};
use phe::graph::LabelId;
use phe::pathenum::SparseCatalog;

/// Every (ordering, histogram) configuration builds and produces finite,
/// non-negative estimates over the whole domain on every paper dataset
/// (reduced scale).
#[test]
fn every_configuration_builds_on_every_dataset() {
    for dataset in datasets::paper_datasets(0.01, 11) {
        let graph = &dataset.graph;
        let k = 2;
        let sparse = SparseCatalog::compute(graph, k).unwrap();
        for ordering in OrderingKind::ALL {
            for histogram in [
                HistogramKind::EquiWidth,
                HistogramKind::EquiDepth,
                HistogramKind::VOptimalGreedy,
                HistogramKind::VOptimalMaxDiff,
            ] {
                let built = ordering.build_sparse(graph, &sparse, k);
                let report = evaluate_configuration(&sparse, built.as_ref(), histogram, 8)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{}/{}/{}: {e}",
                            dataset.name,
                            ordering.name(),
                            histogram.name()
                        )
                    });
                assert!(
                    report.mean_abs_error_rate.is_finite()
                        && (0.0..=1.0).contains(&report.mean_abs_error_rate),
                    "{}/{}/{}: error rate {}",
                    dataset.name,
                    ordering.name(),
                    histogram.name(),
                    report.mean_abs_error_rate
                );
            }
        }
    }
}

/// The paper's headline result end-to-end: on a skewed, independently
/// labeled synthetic graph, sum-based ordering beats every native
/// ordering at an equal (tight) bucket budget.
#[test]
fn sum_based_wins_on_skewed_synthetic_data() {
    let graph = datasets::erdos_renyi(120, 2400, 5, LabelDistribution::Zipf { exponent: 1.1 }, 99);
    let k = 3;
    let sparse = SparseCatalog::compute(&graph, k).unwrap();
    let beta = sparse.len() / 32;
    let error_of = |kind: OrderingKind| {
        let ordering = kind.build_sparse(&graph, &sparse, k);
        evaluate_configuration(
            &sparse,
            ordering.as_ref(),
            HistogramKind::VOptimalGreedy,
            beta,
        )
        .unwrap()
        .mean_abs_error_rate
    };
    let sum_based = error_of(OrderingKind::SumBased);
    for native in [
        OrderingKind::NumAlph,
        OrderingKind::NumCard,
        OrderingKind::LexAlph,
        OrderingKind::LexCard,
    ] {
        let native_err = error_of(native);
        assert!(
            sum_based < native_err,
            "sum-based ({sum_based:.4}) should beat {} ({native_err:.4})",
            native.name()
        );
    }
}

/// Estimator builds are deterministic for a fixed seed and configuration.
#[test]
fn estimates_are_deterministic() {
    let build = || {
        let graph = datasets::moreno_health_like_scaled(0.05, 7);
        PathSelectivityEstimator::build(
            &graph,
            EstimatorConfig {
                k: 3,
                beta: 16,
                ordering: OrderingKind::SumBased,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 2, // parallel catalog must not break determinism
                retain_sparse: true,
            },
        )
        .unwrap()
    };
    let a = build();
    let b = build();
    for l1 in 0..6u16 {
        for l2 in 0..6u16 {
            let path = [LabelId(l1), LabelId(l2)];
            assert_eq!(a.estimate(&path), b.estimate(&path), "path {l1}/{l2}");
            assert_eq!(a.exact(&path), b.exact(&path));
        }
    }
}

/// The retained catalog agrees with an independently computed one, and
/// estimates of a full-budget histogram reproduce it exactly over the
/// whole domain.
#[test]
fn full_budget_estimator_is_an_oracle() {
    let graph = datasets::snap_er_scaled(0.005, 3);
    let k = 2;
    let est = PathSelectivityEstimator::build(
        &graph,
        EstimatorConfig {
            k,
            beta: usize::MAX,
            ordering: OrderingKind::LexCard,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 1,
            retain_sparse: true,
        },
    )
    .unwrap();
    let reference = SparseCatalog::compute_parallel(&graph, k, 2).unwrap();
    assert_eq!(est.sparse_catalog(), Some(&reference));
    for index in 0..reference.len() {
        let path = reference.encoding().decode(index);
        let truth = reference.selectivity_at(index as u64);
        assert_eq!(
            est.estimate(&path),
            truth as f64,
            "path {path:?} should be exact at full budget"
        );
    }
}

/// Larger bucket budgets never make whole-domain accuracy worse
/// (V-optimal greedy, any ordering) on a real-ish workload.
#[test]
fn accuracy_improves_with_budget_end_to_end() {
    let graph = datasets::dbpedia_like_scaled(0.01, 5);
    let k = 3;
    let sparse = SparseCatalog::compute(&graph, k).unwrap();
    for kind in [OrderingKind::NumCard, OrderingKind::SumBased] {
        let ordering = kind.build_sparse(&graph, &sparse, k);
        let mut last = f64::INFINITY;
        for beta in [4usize, 16, 64, 256] {
            let err = evaluate_configuration(
                &sparse,
                ordering.as_ref(),
                HistogramKind::VOptimalGreedy,
                beta,
            )
            .unwrap()
            .mean_abs_error_rate;
            assert!(
                err <= last + 0.02,
                "{}: error went {last:.4} -> {err:.4} at beta {beta}",
                kind.name()
            );
            last = err;
        }
    }
}
