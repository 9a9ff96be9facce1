//! Serving-path benchmarks for `phe-service`: what batching and the LRU
//! estimate cache buy at the request level.
//!
//! Measured at the protocol-line layer (`Request::parse` → registry →
//! validate → batch estimate → response writer), i.e. everything a
//! request costs except the socket, so the numbers isolate the serving
//! subsystem:
//!
//! * `request/single-path` vs `request/batch-256`: per-request cost when a
//!   request carries 1 vs 256 paths — the amortization batching exists
//!   for. Per-path throughput for the batch is the reported time ÷ 256;
//!   the acceptance target is batched ≥ 5× single-request per-path
//!   throughput on a warm cache.
//! * `cache/warm` vs `cache/cold`: per-batch estimate latency when every
//!   lookup hits the sharded LRU vs when a deliberately tiny cache forces
//!   every lookup through the sum-based three-stage unranking + histogram
//!   walk (plus insert/evict).
//! * `tcp/single-path` vs `tcp/batch-256`: the same comparison over a
//!   real loopback connection — the configuration `phe serve` actually
//!   runs, where each request additionally pays two syscall round trips.
//!   This is where batching's amortization dominates.
//!
//! Connection-*scale* serving (1 → 512 concurrent connections, the
//! event loop vs thread-pool race, and the in-bin throughput/latency
//! acceptance gates) lives in the `serving_scale` binary
//! (`src/bin/serving_scale.rs`), which CI runs and collects into the
//! `BENCH_serving_scale.json` artifact.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use phe_core::{EstimatorConfig, HistogramKind, LabelPath, OrderingKind, PathSelectivityEstimator};
use phe_datasets::{erdos_renyi, LabelDistribution};
use phe_graph::LabelId;
use phe_service::metrics::Op;
use phe_service::protocol::{write_ok, PathStep, Request};
use phe_service::{
    EstimatorRegistry, ServableEstimator, Server, ServerConfig, ServiceClient, ServiceMetrics,
};

const LABELS: u16 = 5;
const K: usize = 4;
const BATCH: usize = 256;

fn build_servable() -> ServableEstimator {
    let g = erdos_renyi(
        120,
        1_500,
        LABELS,
        LabelDistribution::Zipf { exponent: 1.0 },
        42,
    );
    ServableEstimator::from_estimator(
        PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: K,
                beta: 64,
                ordering: OrderingKind::SumBased,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: false,
            },
        )
        .unwrap(),
    )
}

fn registry_with_cache(cache_capacity: usize) -> Arc<EstimatorRegistry> {
    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(
        metrics.cache_counters(),
        cache_capacity,
    ));
    registry.register("main", build_servable());
    registry
}

/// A fixed batch of paths spread over the k ≤ 4 domain.
fn query_paths() -> Vec<LabelPath> {
    let mut paths = Vec::with_capacity(BATCH);
    let mut i = 0u64;
    while paths.len() < BATCH {
        let len = 1 + (i % K as u64) as usize;
        let labels: Vec<LabelId> = (0..len)
            .map(|j| LabelId(((i * 7 + j as u64 * 13) % LABELS as u64) as u16))
            .collect();
        paths.push(LabelPath::new(&labels));
        i += 1;
    }
    paths
}

/// One full request at the protocol layer: parse, dispatch, serialize.
fn serve_line(registry: &EstimatorRegistry, line: &str) -> usize {
    let Ok(Request::Estimate { estimator, paths }) = Request::parse(line) else {
        panic!("bench request must parse");
    };
    let generation = registry.get(&estimator).expect("estimator registered");
    let servable = generation.estimator();
    let id_paths: Vec<Vec<LabelId>> = paths
        .iter()
        .map(|steps| {
            steps
                .iter()
                .map(|s| match s {
                    PathStep::Id(id) => LabelId(*id),
                    PathStep::Name(n) => servable.resolve(n).unwrap(),
                })
                .collect()
        })
        .collect();
    let estimates = generation.estimate_id_batch(&id_paths).unwrap();
    // Write the response exactly like the server's estimate handler.
    let mut response = String::new();
    write_ok(&mut response, |o| {
        o.field("version", generation.version())
            .array("estimates", |a| {
                for &e in &estimates {
                    a.item(e);
                }
            });
    });
    response.len()
}

/// [`serve_line`] plus exactly the per-request metrics the real server
/// records: the op counter lookup and the request/latency observation.
fn serve_line_instrumented(
    registry: &EstimatorRegistry,
    metrics: &ServiceMetrics,
    line: &str,
) -> usize {
    let t0 = std::time::Instant::now();
    metrics.record_op(Op::Estimate);
    let len = serve_line(registry, line);
    metrics.record_request(BATCH, t0.elapsed(), true);
    len
}

fn request_line(paths: &[LabelPath]) -> String {
    Request::Estimate {
        estimator: "main".to_owned(),
        paths: paths
            .iter()
            .map(|p| p.as_label_ids().iter().map(|l| PathStep::Id(l.0)).collect())
            .collect(),
    }
    .to_line()
}

fn bench_batching(c: &mut Criterion) {
    let registry = registry_with_cache(64 * 1024);
    let paths = query_paths();

    // Warm the cache with every path the requests will ask for.
    registry.get("main").unwrap().estimate_batch(&paths);

    let single_lines: Vec<String> = paths
        .iter()
        .map(|p| request_line(std::slice::from_ref(p)))
        .collect();
    let batch_line = request_line(&paths);

    let mut group = c.benchmark_group("request");
    group.sample_size(30);
    // Per-path cost when each path is its own request.
    group.bench_function("single-path", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % single_lines.len();
            serve_line(&registry, &single_lines[i])
        })
    });
    // One request carrying all 256 paths; ÷ 256 for per-path cost.
    group.bench_function("batch-256", |b| {
        b.iter(|| serve_line(&registry, &batch_line))
    });
    group.finish();
}

fn bench_tcp(c: &mut Criterion) {
    let registry = registry_with_cache(64 * 1024);
    let metrics = Arc::new(ServiceMetrics::new());
    let paths = query_paths();
    registry.get("main").unwrap().estimate_batch(&paths);

    let server = Server::start(
        Arc::clone(&registry),
        metrics,
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            allow_load: false,
            ..ServerConfig::default()
        },
    )
    .expect("bench server starts");
    let mut client = ServiceClient::connect(server.local_addr()).expect("bench client connects");

    let single: Vec<Vec<PathStep>> = vec![paths[0]
        .as_label_ids()
        .iter()
        .map(|l| PathStep::Id(l.0))
        .collect()];
    let batch: Vec<Vec<PathStep>> = paths
        .iter()
        .map(|p| p.as_label_ids().iter().map(|l| PathStep::Id(l.0)).collect())
        .collect();

    let mut group = c.benchmark_group("tcp");
    group.sample_size(20);
    group.bench_function("single-path", |b| {
        b.iter(|| client.estimate("main", single.clone()).unwrap())
    });
    group.bench_function("batch-256", |b| {
        b.iter(|| client.estimate("main", batch.clone()).unwrap())
    });
    group.finish();

    drop(client);
    server.shutdown();
}

fn bench_cache(c: &mut Criterion) {
    let paths = query_paths();

    let mut group = c.benchmark_group("cache");
    group.sample_size(30);

    // Cold: a cache far smaller than the batch's distinct-path set keeps
    // evicting, so essentially every lookup misses and runs the real
    // estimator (plus insert/evict — the worst case a swap-fresh cache
    // pays).
    let cold = registry_with_cache(16);
    let cold_generation = cold.get("main").unwrap();
    group.bench_function("cold-per-batch-256", |b| {
        b.iter(|| cold_generation.estimate_batch(&paths))
    });

    // Warm: same batch against a large pre-warmed cache — pure LRU hits.
    let warm = registry_with_cache(64 * 1024);
    let warm_generation = warm.get("main").unwrap();
    warm_generation.estimate_batch(&paths);
    group.bench_function("warm-per-batch-256", |b| {
        b.iter(|| warm_generation.estimate_batch(&paths))
    });
    group.finish();
}

/// Acceptance gate, not a measurement: the metrics instrumentation on
/// the batch-256 serving path must cost ≤ 2% over an uninstrumented
/// twin. The instrumented path records what the real server records per
/// request (op counter, request/path counters, latency histogram) — a
/// registry lookup plus a handful of relaxed atomic adds against a
/// batch worth hundreds of microseconds. Interleaved min-of-N keeps the
/// comparison robust to scheduler noise: the minimum of many short runs
/// converges on the true cost of each variant.
fn assert_instrumentation_overhead(_c: &mut Criterion) {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    let registry = registry_with_cache(64 * 1024);
    let metrics = ServiceMetrics::new();
    let paths = query_paths();
    registry.get("main").unwrap().estimate_batch(&paths);
    let line = request_line(&paths);

    for _ in 0..5 {
        black_box(serve_line(&registry, &line));
        black_box(serve_line_instrumented(&registry, &metrics, &line));
    }

    const ROUNDS: usize = 60;
    const ITERS: usize = 8;
    let mut best_plain = Duration::MAX;
    let mut best_instrumented = Duration::MAX;
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            black_box(serve_line(&registry, &line));
        }
        best_plain = best_plain.min(t0.elapsed());
        let t0 = Instant::now();
        for _ in 0..ITERS {
            black_box(serve_line_instrumented(&registry, &metrics, &line));
        }
        best_instrumented = best_instrumented.min(t0.elapsed());
    }

    let overhead = best_instrumented.as_secs_f64() / best_plain.as_secs_f64().max(1e-12) - 1.0;
    println!(
        "instrumentation overhead on batch-256: {:+.3}% \
         (plain {:.1} us, instrumented {:.1} us per {ITERS}-iter round)",
        overhead * 100.0,
        best_plain.as_secs_f64() * 1e6,
        best_instrumented.as_secs_f64() * 1e6,
    );
    assert!(
        overhead <= 0.02,
        "instrumentation costs {:.2}% on the batch-256 serving path (budget 2%)",
        overhead * 100.0
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1000));
    targets = bench_batching, bench_tcp, bench_cache, assert_instrumentation_overhead
}
criterion_main!(benches);
