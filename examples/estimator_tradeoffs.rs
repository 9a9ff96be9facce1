//! The estimator design space in one table: exact catalog vs histogram
//! (this paper) vs sampling — build cost, retained memory, per-query
//! latency, and accuracy, measured on the same workload.
//!
//! ```text
//! cargo run --release --example estimator_tradeoffs
//! ```

use std::time::Instant;

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::datasets::moreno_health_like_scaled;
use phe::histogram::{mean_abs_error_rate, PointEstimator};
use phe::pathenum::{SamplingConfig, SamplingEstimator, SparseCatalog};
use phe::query::stratified_workload;

fn main() {
    let graph = moreno_health_like_scaled(0.5, 123);
    let k = 4;
    println!(
        "dataset: Moreno-like at half scale — {} vertices, {} edges, k = {k}\n",
        graph.vertex_count(),
        graph.edge_count()
    );

    // Ground truth + a stratified query workload.
    let t = Instant::now();
    let catalog = SparseCatalog::compute_parallel(&graph, k, 0).expect("domain fits u48");
    let catalog_build = t.elapsed();
    let workload = stratified_workload(&catalog, k, 64, 7);
    let truths: Vec<u64> = workload
        .queries
        .iter()
        .map(|q| catalog.selectivity(q))
        .collect();
    println!(
        "workload: {} stratified length-{k} queries (selectivity {} .. {})\n",
        workload.queries.len(),
        truths.iter().min().unwrap(),
        truths.iter().max().unwrap()
    );

    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>12}",
        "estimator", "build", "memory", "ns/query", "mean |err|"
    );

    // 1. Exact catalog: perfect but stores every realized path.
    {
        let t = Instant::now();
        let mut acc = 0.0;
        for q in &workload.queries {
            acc += catalog.selectivity(q) as f64;
        }
        std::hint::black_box(acc);
        let per_query = t.elapsed().as_nanos() as f64 / workload.queries.len() as f64;
        println!(
            "{:<26} {:>9.2}s {:>11}B {:>12.0} {:>12.4}",
            "exact catalog",
            catalog_build.as_secs_f64(),
            catalog.size_bytes(),
            per_query,
            0.0
        );
    }

    // 2. Histograms under two orderings (the paper's subject).
    for ordering in [OrderingKind::NumAlph, OrderingKind::SumBased] {
        let t = Instant::now();
        let est = PathSelectivityEstimator::from_sparse_catalog(
            &graph,
            catalog.clone(),
            EstimatorConfig {
                k,
                beta: catalog.len() / 64,
                ordering,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 0,
                retain_sparse: false,
            },
            catalog_build,
        )
        .expect("estimator");
        let build = t.elapsed() + catalog_build;
        let estimates: Vec<f64> = workload.queries.iter().map(|q| est.estimate(q)).collect();
        let t = Instant::now();
        let mut acc = 0.0;
        for q in &workload.queries {
            acc += est.estimate(q);
        }
        std::hint::black_box(acc);
        let per_query = t.elapsed().as_nanos() as f64 / workload.queries.len() as f64;
        println!(
            "{:<26} {:>9.2}s {:>11}B {:>12.0} {:>12.4}",
            format!("histogram/{}", ordering.name()),
            build.as_secs_f64(),
            est.histogram().histogram().size_bytes(),
            per_query,
            mean_abs_error_rate(&estimates, &truths)
        );
    }

    // 3. Sampling: no build, no memory, per-query traversal.
    for sample_size in [32usize, 256] {
        let est = SamplingEstimator::new(
            &graph,
            SamplingConfig {
                sample_size,
                seed: 99,
            },
        );
        let estimates: Vec<f64> = workload.queries.iter().map(|q| est.estimate(q)).collect();
        let t = Instant::now();
        let mut acc = 0.0;
        for q in &workload.queries {
            acc += est.estimate(q);
        }
        std::hint::black_box(acc);
        let per_query = t.elapsed().as_nanos() as f64 / workload.queries.len() as f64;
        println!(
            "{:<26} {:>9.2}s {:>11}B {:>12.0} {:>12.4}",
            format!("sampling-{sample_size}"),
            0.0,
            0,
            per_query,
            mean_abs_error_rate(&estimates, &truths)
        );
    }

    println!(
        "\nThe paper lives in the middle row: histograms pay the catalog build\n\
         once, retain kilobytes, and answer in nanoseconds — and the domain\n\
         ordering decides how much accuracy survives the compression."
    );
}
