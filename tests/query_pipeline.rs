//! Cross-crate integration of the query engine: parsing, optimizing with
//! histogram-backed estimates, executing, and comparing plan quality
//! across estimators.

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::datasets::dbpedia_like_scaled;
use phe::pathenum::{PathRelation, SparseCatalog};
use phe::query::{
    execute, optimize, CardinalityEstimator, ExactOracle, HistogramEstimator, IndependenceBaseline,
};

/// Whatever the estimator, the optimizer's plan must compute the correct
/// answer — estimates may only change the cost, never the result.
#[test]
fn all_estimators_produce_correct_answers() {
    let graph = dbpedia_like_scaled(0.01, 13);
    let k = 4;
    let catalog = SparseCatalog::compute_parallel(&graph, k, 2).unwrap();
    let estimator = PathSelectivityEstimator::from_sparse_catalog(
        &graph,
        catalog.clone(),
        EstimatorConfig {
            k,
            beta: 32,
            ordering: OrderingKind::SumBased,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 1,
            retain_sparse: false,
        },
        std::time::Duration::ZERO,
    )
    .unwrap();

    let oracle = ExactOracle::new(&catalog);
    let histogram = HistogramEstimator::new(&estimator);
    let independence = IndependenceBaseline::from_graph(&graph);
    let estimators: [&dyn CardinalityEstimator; 3] = [&oracle, &histogram, &independence];

    let query: Vec<phe::graph::LabelId> = (0..4u16).map(phe::graph::LabelId).collect();
    let reference: Vec<(u32, u32)> = PathRelation::evaluate(&graph, &query)
        .iter_pairs()
        .collect();
    for est in estimators {
        let plan = optimize(&query, est);
        let report = execute(&graph, &plan);
        let got: Vec<(u32, u32)> = report.result.iter_pairs().collect();
        assert_eq!(got, reference, "estimator {} broke the answer", est.name());
        // The plan's estimated root cardinality is the estimator's value
        // for the full query.
        assert!((plan.estimated() - est.estimate(&query)).abs() < 1e-9);
    }
}

/// The exact oracle's chosen plan is never beaten in actual cost by the
/// plans other estimators choose (on the matrix-chain plan space, exact
/// intermediate knowledge is optimal for this cost model).
#[test]
fn oracle_plans_lower_bound_other_estimators() {
    let graph = dbpedia_like_scaled(0.008, 29);
    let k = 3;
    let catalog = SparseCatalog::compute_parallel(&graph, k, 2).unwrap();
    let estimator = PathSelectivityEstimator::from_sparse_catalog(
        &graph,
        catalog.clone(),
        EstimatorConfig {
            k,
            beta: 16,
            ordering: OrderingKind::SumBased,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 1,
            retain_sparse: false,
        },
        std::time::Duration::ZERO,
    )
    .unwrap();
    let oracle = ExactOracle::new(&catalog);
    let histogram = HistogramEstimator::new(&estimator);
    let independence = IndependenceBaseline::from_graph(&graph);

    let labels = graph.label_count() as u16;
    for a in 0..labels.min(4) {
        for b in 0..labels.min(4) {
            for c in 0..labels.min(4) {
                let query = vec![
                    phe::graph::LabelId(a),
                    phe::graph::LabelId(b),
                    phe::graph::LabelId(c),
                ];
                if catalog.selectivity(&query) == 0 {
                    continue;
                }
                let oracle_cost = execute(&graph, &optimize(&query, &oracle)).actual_cost();
                for est in [&histogram as &dyn CardinalityEstimator, &independence] {
                    let cost = execute(&graph, &optimize(&query, est)).actual_cost();
                    assert!(
                        oracle_cost <= cost,
                        "query {a}/{b}/{c}: oracle {oracle_cost} beaten by {} {cost}",
                        est.name()
                    );
                }
            }
        }
    }
}
