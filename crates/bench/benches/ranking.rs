//! Micro-benchmarks of the ranking (`index_of`) and unranking
//! (`path_at`) bijections per ordering — the primitive costs behind both
//! Table 4 (ranking at estimation time) and histogram construction
//! (unranking |Lk| times).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phe_core::ordering::OrderingKind;
use phe_core::LabelPath;
use phe_pathenum::SparseCatalog;

fn bench_ranking(c: &mut Criterion) {
    let graph = phe_datasets::moreno_health_like_scaled(0.25, 42);
    let k = 4;
    let catalog = SparseCatalog::compute(&graph, k).unwrap();
    let n = catalog.len() as u64;

    let queries: Vec<LabelPath> = (0..n)
        .step_by(11)
        .map(|i| LabelPath::new(&catalog.encoding().decode(i as usize)))
        .collect();

    let mut rank_group = c.benchmark_group("index_of");
    rank_group.sample_size(20);
    for kind in OrderingKind::ALL {
        let ordering = kind.build_sparse(&graph, &catalog, k);
        rank_group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for q in &queries {
                    acc = acc.wrapping_add(ordering.index_of(q));
                }
                acc
            })
        });
    }
    rank_group.finish();

    let mut unrank_group = c.benchmark_group("path_at");
    unrank_group.sample_size(20);
    for kind in OrderingKind::ALL {
        let ordering = kind.build_sparse(&graph, &catalog, k);
        unrank_group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for i in (0..n).step_by(11) {
                    acc += ordering.path_at(i).len();
                }
                acc
            })
        });
    }
    unrank_group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_ranking
}
criterion_main!(benches);
