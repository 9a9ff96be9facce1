//! Figure 1, live: renders the label-path frequency distribution of a
//! Moreno-like graph and an equi-width histogram over it as ASCII bars,
//! under two different domain orderings — making *visible* why ordering
//! decides histogram quality.
//!
//! ```text
//! cargo run --release --example histogram_viz
//! ```

use phe::core::ordering::OrderingKind;
use phe::datasets::moreno_health_like_scaled;
use phe::histogram::builder::{EquiWidth, HistogramBuilder};
use phe::histogram::{PointEstimator, SparseFrequencies};
use phe::pathenum::SparseCatalog;

const WIDTH: usize = 56;

fn bar(value: f64, max: f64) -> String {
    let filled = ((value / max) * WIDTH as f64).round() as usize;
    "█".repeat(filled.min(WIDTH))
}

fn main() {
    let graph = moreno_health_like_scaled(0.25, 42);
    let k = 2; // small domain so the plot fits a terminal
    let sparse = SparseCatalog::compute(&graph, k).expect("domain fits u48");
    let beta = 6;

    for kind in [OrderingKind::NumAlph, OrderingKind::SumBased] {
        let ordering = kind.build_sparse(&graph, &sparse, k);
        // The plot shows every index, so unrank each one.
        let ordered: Vec<u64> = (0..ordering.domain_size())
            .map(|i| sparse.selectivity(ordering.path_at(i).as_label_ids()))
            .collect();
        let histogram = EquiWidth
            .build(&SparseFrequencies::dense(&ordered), beta)
            .expect("non-empty");
        let max = *ordered.iter().max().expect("non-empty") as f64;

        println!("\n== {} ordering, equi-width β = {beta} ==\n", kind.name());
        println!(
            "{:>5} {:>10} {:>10}  distribution (█ = truth, estimate marked ▕)",
            "idx", "f", "est"
        );
        for (i, &f) in ordered.iter().enumerate() {
            let est = histogram.estimate(i);
            let est_pos = ((est / max) * WIDTH as f64).round() as usize;
            let mut line = bar(f as f64, max);
            // Pad to the estimate marker.
            while line.chars().count() < est_pos {
                line.push(' ');
            }
            line.push('▕');
            println!("{i:>5} {f:>10} {est:>10.1}  {line}");
        }

        // Aggregate quality under this ordering.
        let sse = histogram.sse(&ordered);
        println!("\nSSE of this bucketing: {sse:.0}");
    }

    println!(
        "\nSame data, same bucket budget — the sum-based ordering sorts the\n\
         domain towards monotonicity, so equal-width buckets cut it where it\n\
         is flat. That is the entire idea of the paper."
    );
}
