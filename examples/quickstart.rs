//! Quickstart: build a graph, build an estimator, ask it questions.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::graph::GraphBuilder;
use phe::query::parse_path;

fn main() {
    // A small social graph: people know/follow/like each other.
    let mut b = GraphBuilder::new();
    let edges = [
        (0, "knows", 1),
        (0, "knows", 2),
        (1, "knows", 3),
        (2, "follows", 3),
        (3, "likes", 4),
        (1, "likes", 4),
        (4, "follows", 0),
        (2, "knows", 4),
        (4, "knows", 5),
        (5, "likes", 0),
    ];
    for (s, l, t) in edges {
        b.add_edge_named(s, l, t);
    }
    let graph = b.build();
    println!(
        "graph: {} vertices, {} edges, {} labels",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    // Build the estimator: sum-based domain ordering (the paper's novel
    // method) over a V-optimal histogram with a tiny budget.
    let estimator = PathSelectivityEstimator::build(
        &graph,
        EstimatorConfig {
            k: 3,
            beta: 8,
            ordering: OrderingKind::SumBased,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 1,
            // Keeps the counts, for ground truth and the accuracy report.
            retain_sparse: true,
        },
    )
    .expect("estimator");
    println!(
        "domain: {} label paths of length ≤ {}, {} histogram buckets\n",
        estimator.domain_size(),
        estimator.config().k,
        estimator.config().beta,
    );

    // Estimate vs truth for some path queries.
    for expr in ["knows", "knows/likes", "knows/knows/likes", "likes/follows"] {
        let path = parse_path(&graph, expr).expect("known labels");
        let estimate = estimator.estimate(&path);
        let exact = estimator.exact(&path).expect("retained");
        let err = estimator.error(&path).expect("retained");
        println!("{expr:<20} estimate {estimate:>6.2}   true {exact:>3}   err {err:+.3}");
    }

    // The whole-domain accuracy report (one Figure 2 data point).
    let report = estimator.accuracy_report().expect("retained");
    println!(
        "\nwhole-domain accuracy: mean |err| = {:.4}, median q-error = {:.3} over {} paths",
        report.mean_abs_error_rate, report.median_q_error, report.count
    );
}
