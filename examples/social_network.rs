//! Domain ordering on a realistic workload: friend-recommendation paths
//! over a Forest Fire social graph (the kind of analytics query the
//! paper's introduction motivates).
//!
//! Compares the accuracy of every ordering method at a fixed histogram
//! budget, then drills into the queries an optimizer would actually ask
//! about ("friend of friend", "friend's follower", …).
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use phe::core::eval::evaluate_configuration;
use phe::core::ordering::OrderingKind;
use phe::core::{EstimatorConfig, HistogramKind, PathSelectivityEstimator};
use phe::datasets::{forest_fire, ForestFireParams, LabelDistribution};
use phe::pathenum::SparseCatalog;

fn main() {
    // A 2 000-person social network; labels skewed like real platforms:
    // follows ≫ likes > knows > blocks.
    let graph = forest_fire(
        2000,
        5,
        ForestFireParams {
            forward_p: 0.3,
            backward_r: 0.35,
            max_burn: 150,
        },
        LabelDistribution::Zipf { exponent: 1.0 },
        2024,
    );
    println!(
        "social graph: {} people, {} edges, labels: follows/likes/knows/blocks/mutes",
        graph.vertex_count(),
        graph.edge_count()
    );

    let k = 4;
    let sparse = SparseCatalog::compute(&graph, k).expect("domain fits u48");
    let beta = sparse.len() / 16;
    println!(
        "domain: {} label paths (k = {k}), histogram budget β = {beta}\n",
        sparse.len()
    );

    println!(
        "{:<14} {:>12} {:>14}",
        "ordering", "mean |err|", "median q-error"
    );
    for kind in OrderingKind::ALL {
        let ordering = kind.build_sparse(&graph, &sparse, k);
        let report = evaluate_configuration(
            &sparse,
            ordering.as_ref(),
            HistogramKind::VOptimalGreedy,
            beta,
        )
        .expect("non-empty domain");
        println!(
            "{:<14} {:>12.4} {:>14.3}",
            kind.name(),
            report.mean_abs_error_rate,
            report.median_q_error
        );
    }

    // The optimizer's-eye view: specific recommendation queries.
    let estimator = PathSelectivityEstimator::build(
        &graph,
        EstimatorConfig {
            k,
            beta,
            ordering: OrderingKind::SumBased,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 0,
            retain_sparse: true,
        },
    )
    .expect("estimator");
    let names = ["0", "1", "2", "3", "4"]; // follows, likes, knows, blocks, mutes
    let queries = [
        (vec![0, 0], "follows/follows (friend-of-friend)"),
        (vec![0, 1], "follows/likes (what friends like)"),
        (vec![2, 0], "knows/follows"),
        (vec![3, 0], "blocks/follows (rare prefix)"),
    ];
    println!(
        "\n{:<38} {:>10} {:>8} {:>8}",
        "query", "estimate", "true", "err"
    );
    for (ids, desc) in &queries {
        let path: Vec<phe::graph::LabelId> = ids
            .iter()
            .map(|&i| graph.labels().get(names[i]).expect("label"))
            .collect();
        println!(
            "{desc:<38} {:>10.1} {:>8} {:>+8.3}",
            estimator.estimate(&path),
            estimator.exact(&path).expect("retained"),
            estimator.error(&path).expect("retained")
        );
    }
    println!(
        "\nmemory: histogram retains {} bytes vs {} catalog entries × 8 bytes",
        estimator.histogram().size_bytes(),
        estimator.domain_size()
    );
}
