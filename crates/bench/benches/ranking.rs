//! Micro-benchmarks of the ranking (`index_of`) and unranking
//! (`path_at`) bijections per ordering — the primitive costs behind both
//! Table 4 (ranking at estimation time) and histogram construction
//! (unranking |Lk| times) — plus the sum-based ordering over a 56-label,
//! k = 5 alphabet, where Formula 4 groups hold millions of partitions,
//! with the bulk remap (`ordered_entries`) a build's order stage runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phe_core::ordering::OrderingKind;
use phe_core::LabelPath;
use phe_datasets::schema::{narrow_chained_schema, schema_graph};
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

    // A chained ring of 56 labels × 80 edges over 1,500 vertices: a
    // 5.6e8-path domain with tens of thousands of realized paths.
    let graph = schema_graph(1500, &narrow_chained_schema(56, 56 * 80, 0.08), 42);
    let k = 5;
    let catalog = SparseCatalog::compute(&graph, k).unwrap();
    let ordering = OrderingKind::SumBased.build_sparse(&graph, &catalog, k);
    let queries: Vec<LabelPath> = catalog
        .iter()
        .step_by(11)
        .map(|(index, _)| ordering.domain().canonical_path(index))
        .collect();
    let positions: Vec<u64> = queries.iter().map(|q| ordering.index_of(q)).collect();

    let mut large = c.benchmark_group("sum-based-56-labels-k5");
    large.sample_size(20);
    large.bench_function(BenchmarkId::from_parameter("index_of"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for q in &queries {
                acc = acc.wrapping_add(ordering.index_of(q));
            }
            acc
        })
    });
    large.bench_function(BenchmarkId::from_parameter("path_at"), |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for &i in &positions {
                acc += ordering.path_at(i).len();
            }
            acc
        })
    });
    large.bench_function(BenchmarkId::from_parameter("ordered_entries"), |b| {
        b.iter(|| ordering.ordered_entries(&mut catalog.iter()).len())
    });
    large.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_ranking
}
criterion_main!(benches);
