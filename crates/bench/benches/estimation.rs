//! Criterion counterpart of the paper's Table 4: per-estimate latency
//! under each ordering method, V-optimal (greedy) histogram.
//!
//! The paper's claim to verify: sum-based estimation is measurably slower
//! than the native orderings (≈ +20% in their Java implementation),
//! because its ranking function runs the three-stage group search instead
//! of an O(k) positional computation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phe_core::eval::sparse_ordered_frequencies;
use phe_core::ordering::OrderingKind;
use phe_core::{HistogramKind, LabelPath};
use phe_histogram::PointEstimator;
use phe_pathenum::SparseCatalog;

fn bench_estimation(c: &mut Criterion) {
    let graph = phe_datasets::moreno_health_like_scaled(0.25, 42);
    let k = 4;
    let sparse = SparseCatalog::compute(&graph, k).unwrap();
    let n = sparse.len();
    let beta = n / 8;

    // A fixed batch of query paths spread over the domain.
    let queries: Vec<LabelPath> = (0..n)
        .step_by(7)
        .map(|i| LabelPath::new(&sparse.encoding().decode(i)))
        .collect();

    let mut group = c.benchmark_group("estimation");
    group.sample_size(20);
    for kind in OrderingKind::ALL {
        let ordering = kind.build_sparse(&graph, &sparse, k);
        let runs = sparse_ordered_frequencies(&sparse, ordering.as_ref());
        let histogram = HistogramKind::VOptimalGreedy
            .build_from_runs(&runs, ordering.domain_size(), beta)
            .unwrap();
        group.bench_function(BenchmarkId::from_parameter(kind.name()), |b| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for q in &queries {
                    acc += histogram.estimate(ordering.index_of(q) as usize);
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200));
    targets = bench_estimation
}
criterion_main!(benches);
