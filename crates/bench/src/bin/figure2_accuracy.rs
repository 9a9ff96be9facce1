//! Reproduces the paper's **Figure 2**: mean error rate of estimation for
//! each domain ordering on a V-optimal `k`-path histogram, across the four
//! datasets, for varying `k` and β.
//!
//! One output table per dataset; rows are `(k, β)` configurations and
//! columns the five ordering methods (plus the future-work `sum-based-L2`
//! extension as an extra column). The error metric is the mean of
//! `|err(ℓ)|` over *every* path in the domain, with `err` as in the
//! paper's Formula 6.
//!
//! Expected shape vs the paper: sum-based has the lowest error almost
//! everywhere, with the largest margins on the synthetic datasets
//! (SNAP-ER/SNAP-FF) at small β; on the correlated "real-like" datasets
//! the gap narrows (the paper attributes this to edge-label cardinality
//! correlations, which rank-sum composition cannot see — and which the
//! L2 extension partially recovers).

use phe_bench::{beta_sweep, emit, timed, RunConfig};
use phe_core::eval::evaluate_configuration;
use phe_core::ordering::OrderingKind;
use phe_core::HistogramKind;
use phe_pathenum::SparseCatalog;

fn main() {
    let config = RunConfig::from_args();
    let k_max = config.k();
    let k_values: Vec<usize> = (2..=k_max).collect();
    let datasets = config.datasets();

    let orderings: Vec<OrderingKind> = OrderingKind::ALL.to_vec();
    let mut headers: Vec<&str> = vec!["k", "β"];
    headers.extend(orderings.iter().map(|o| o.name()));

    for dataset in &datasets {
        let graph = &dataset.graph;
        let mut rows = Vec::new();
        for &k in &k_values {
            let (catalog, secs) =
                timed(|| SparseCatalog::compute_parallel(graph, k, 0).expect("domain fits u48"));
            eprintln!(
                "{}: catalog of {} paths in {secs:.1}s",
                dataset.name,
                catalog.len()
            );
            let built: Vec<_> = orderings
                .iter()
                .map(|kind| kind.build_sparse(graph, &catalog, k))
                .collect();
            for &beta in &beta_sweep(catalog.len(), 6) {
                if beta < 2 {
                    continue;
                }
                let mut row = vec![k.to_string(), beta.to_string()];
                for ordering in &built {
                    let report = evaluate_configuration(
                        &catalog,
                        ordering.as_ref(),
                        HistogramKind::VOptimalGreedy,
                        beta,
                    )
                    .expect("non-empty domain");
                    row.push(format!("{:.4}", report.mean_abs_error_rate));
                }
                rows.push(row);
            }
        }
        emit(
            &format!(
                "Figure 2 — mean |err| on V-optimal histograms, {} ({} vertices, {} edges)",
                dataset.name,
                graph.vertex_count(),
                graph.edge_count()
            ),
            &headers,
            &rows,
            config.csv,
        );

        // Per-dataset summary: how often each ordering wins.
        let mut wins = vec![0usize; orderings.len()];
        for row in &rows {
            let errs: Vec<f64> = row[2..].iter().map(|c| c.parse().unwrap()).collect();
            let best = errs.iter().cloned().fold(f64::INFINITY, f64::min);
            for (i, &e) in errs.iter().enumerate() {
                if (e - best).abs() < 1e-9 {
                    wins[i] += 1;
                }
            }
        }
        println!("\nwins per ordering (lowest error, ties shared):");
        for (kind, w) in orderings.iter().zip(&wins) {
            println!("  {:<14} {w}/{}", kind.name(), rows.len());
        }
    }
}
