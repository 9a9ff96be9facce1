//! The downstream payoff: path selectivity estimates driving a join-order
//! optimizer — the scenario the paper's introduction motivates.
//!
//! Builds a knowledge-graph-like dataset, plans the same path query with
//! three estimators (independence baseline, histogram, exact oracle), and
//! executes every plan to show the actual intermediate sizes each choice
//! causes.
//!
//! ```text
//! cargo run --release --example query_optimizer
//! ```

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::datasets::dbpedia_like_scaled;
use phe::pathenum::SparseCatalog;
use phe::query::{
    execute, optimize, CardinalityEstimator, ExactOracle, HistogramEstimator, IndependenceBaseline,
};

fn main() {
    let graph = dbpedia_like_scaled(0.03, 7);
    println!(
        "knowledge graph: {} entities, {} facts, {} predicates",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    let k = 4;
    let catalog = SparseCatalog::compute_parallel(&graph, k, 0).expect("domain fits u48");
    let estimator = PathSelectivityEstimator::from_sparse_catalog(
        &graph,
        catalog.clone(),
        EstimatorConfig {
            k,
            beta: catalog.len() / 32,
            ordering: OrderingKind::SumBased,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 0,
            retain_sparse: false,
        },
        std::time::Duration::ZERO,
    )
    .expect("estimator");

    // A 4-step chain query across predicates 0..3 (think
    // birthPlace/country/capital/mayor).
    let query: Vec<phe::graph::LabelId> = (0..4u16).map(phe::graph::LabelId).collect();
    println!(
        "query: {}\n",
        query
            .iter()
            .map(|l| format!("p{}", l.0))
            .collect::<Vec<_>>()
            .join("/")
    );

    let oracle = ExactOracle::new(&catalog);
    let histogram = HistogramEstimator::new(&estimator);
    let independence = IndependenceBaseline::from_graph(&graph);
    let estimators: [(&str, &dyn CardinalityEstimator); 3] = [
        ("independence assumption", &independence),
        ("sum-based histogram", &histogram),
        ("exact oracle", &oracle),
    ];

    for (name, est) in estimators {
        let plan = optimize(&query, est);
        let report = execute(&graph, &plan);
        println!("--- {name} ---");
        print!("{}", plan.explain());
        println!(
            "estimated cost {:.0}, ACTUAL intermediate pairs {}, answer {} pairs\n",
            plan.estimated_cost(),
            report.actual_cost(),
            report.result.pair_count()
        );
    }

    println!(
        "The oracle's plan is the floor; the closer an estimator's actual cost\n\
         lands to it, the better its selectivity estimates served the optimizer."
    );
}
