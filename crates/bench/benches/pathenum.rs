//! Catalog computation strategies (Ablation C): the shared-prefix trie
//! walk vs independent per-path evaluation vs the source-partitioned
//! parallel variant, on a near-complete follow matrix (Erdős–Rényi: every
//! label can follow every other, so follow pruning rarely fires) and on a
//! follow-sparse chained schema (each label is followed by a few
//! neighbours, so pruning skips most compositions), plus a chained
//! schema with about 8 successors per label for the fused leaf pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phe_datasets::schema::{narrow_chained_schema, schema_graph};
use phe_datasets::{erdos_renyi, LabelDistribution};
use phe_pathenum::{naive, SparseCatalog};

fn bench_catalog(c: &mut Criterion) {
    let graph = erdos_renyi(200, 1200, 4, LabelDistribution::Uniform, 42);
    let k = 3;

    let mut group = c.benchmark_group("catalog");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("trie-dfs"), |b| {
        b.iter(|| SparseCatalog::compute(&graph, k).unwrap().total_mass())
    });
    group.bench_function(BenchmarkId::from_parameter("naive-per-path"), |b| {
        b.iter(|| naive::compute_catalog_naive(&graph, k).total_mass())
    });
    group.bench_function(BenchmarkId::from_parameter("parallel-2"), |b| {
        b.iter(|| {
            SparseCatalog::compute_parallel(&graph, k, 2)
                .unwrap()
                .total_mass()
        })
    });
    group.finish();

    // 16 labels, k = 4: a 70k-path domain of which a few thousand are
    // realized. The naive oracle is left out — it evaluates every one.
    let chained = schema_graph(600, &narrow_chained_schema(16, 16 * 80, 0.08), 42);
    let k = 4;
    let mut group = c.benchmark_group("catalog-follow-sparse");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("trie-dfs"), |b| {
        b.iter(|| SparseCatalog::compute(&chained, k).unwrap().total_mass())
    });
    group.bench_function(BenchmarkId::from_parameter("parallel-2"), |b| {
        b.iter(|| {
            SparseCatalog::compute_parallel(&chained, k, 2)
                .unwrap()
                .total_mass()
        })
    });
    group.finish();

    // The leaf pass: 32 labels whose follow windows hold about 8
    // successors each (8.3 on average at this seed), so every depth-(k − 1) relation fans out to ~8
    // leaf labels counted in one fused pass over its targets' out-edges.
    let fanout = schema_graph(1500, &narrow_chained_schema(32, 32 * 80, 0.16), 42);
    let k = 4;
    let mut group = c.benchmark_group("catalog-leaf-fanout");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("trie-dfs"), |b| {
        b.iter(|| SparseCatalog::compute(&fanout, k).unwrap().total_mass())
    });
    group.finish();

    // Relation composition in isolation.
    let mut compose = c.benchmark_group("compose");
    compose.sample_size(20);
    let rel = phe_pathenum::PathRelation::from_label(&graph, phe_graph::LabelId(0));
    compose.bench_function(BenchmarkId::from_parameter("one-step"), |b| {
        let mut scratch = phe_graph::FixedBitSet::new(graph.vertex_count());
        b.iter(|| {
            rel.compose(&graph, phe_graph::LabelId(1), &mut scratch)
                .pair_count()
        })
    });
    compose.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_catalog
}
criterion_main!(benches);
