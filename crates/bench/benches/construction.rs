//! Histogram construction cost per builder — supports the Ablation A
//! discussion (exact DP vs greedy merge vs the cheap heuristics).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phe_core::ordering::OrderingKind;
use phe_histogram::builder::{EquiDepth, EquiWidth, HistogramBuilder, VOptimal};
use phe_histogram::SparseFrequencies;
use phe_pathenum::SparseCatalog;

fn bench_construction(c: &mut Criterion) {
    let graph = phe_datasets::moreno_health_like_scaled(0.25, 42);
    let k = 4;
    let sparse = SparseCatalog::compute(&graph, k).unwrap();
    let ordering = OrderingKind::SumBased.build_sparse(&graph, &sparse, k);
    let ordered: Vec<u64> = (0..ordering.domain_size())
        .map(|i| sparse.selectivity(ordering.path_at(i).as_label_ids()))
        .collect();
    let beta = ordered.len() / 16;
    let view = SparseFrequencies::dense(&ordered);

    let builders: Vec<(&str, Box<dyn HistogramBuilder>)> = vec![
        ("equi-width", Box::new(EquiWidth)),
        ("equi-depth", Box::new(EquiDepth)),
        ("v-optimal-greedy", Box::new(VOptimal::greedy())),
        ("v-optimal-maxdiff", Box::new(VOptimal::maxdiff())),
        ("v-optimal-exact", Box::new(VOptimal::exact())),
    ];

    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    for (name, builder) in &builders {
        group.bench_function(BenchmarkId::from_parameter(*name), |b| {
            b.iter(|| builder.build(&view, beta).unwrap().bucket_count())
        });
    }

    // The greedy's heap phase alone: 120k cells over a six-value alphabet
    // leave about 94k equal-value runs, so the indexed merge heap does
    // nearly all of the work.
    let mut x = 42u64;
    let cells: Vec<u64> = (0..120_000)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let roll = (x >> 33) % 8;
            if roll < 3 {
                0
            } else {
                roll * 5
            }
        })
        .collect();
    let runs = 1 + cells.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(runs >= 50_000, "{runs} runs");
    let view = SparseFrequencies::dense(&cells);
    let greedy = VOptimal::greedy();
    group.bench_function(
        BenchmarkId::from_parameter("v-optimal-greedy-phase2"),
        |b| b.iter(|| greedy.build(&view, 256).unwrap().bucket_count()),
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_construction
}
criterion_main!(benches);
