//! Connection-scale stress and admission-control suite for the
//! readiness-driven event-loop server. The contracts under test:
//!
//! * **scale** — 512+ concurrent connections (mostly idle, some active)
//!   served with zero dropped responses for admitted requests, even
//!   while a snapshot hot-swap lands mid-flight; every batch stays
//!   single-generation-consistent;
//! * **capacity** — a connect past `max_connections` receives one
//!   structured `overloaded` line (`reason = "capacity"`), then EOF;
//! * **quota** — concurrent requests past the per-client in-flight
//!   quota are refused with `reason = "quota"`, never silently dropped;
//! * **shedding** — under dispatch-queue pressure expensive ops are
//!   refused with `reason = "shed"` while cheap observability ops
//!   (`ping`) keep answering.
//!
//! All refusal paths are also asserted through the Prometheus
//! exposition (`phe_connections_open`, `phe_admission_total{outcome}`).

#![cfg(unix)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::datasets::{erdos_renyi, LabelDistribution};
use phe::graph::{GraphDelta, LabelId};
use phe::service::protocol::{MaintenanceAction, PathStep, Request};
use phe::service::registry::MaintenanceState;
use phe::service::{
    ClientError, EstimatorRegistry, FailAction, FailPoint, Gate, MaintenanceConfig,
    MaintenanceCoordinator, ServableEstimator, Server, ServerConfig, ServiceClient, ServiceMetrics,
};

const LABELS: u16 = 4;
const K: usize = 3;

fn build_servable(beta: usize, ordering: OrderingKind) -> ServableEstimator {
    let g = erdos_renyi(
        60,
        480,
        LABELS,
        LabelDistribution::Zipf { exponent: 1.0 },
        23,
    );
    ServableEstimator::from_estimator(
        PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: K,
                beta,
                ordering,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: false,
            },
        )
        .unwrap(),
    )
}

fn batch_paths() -> Vec<Vec<LabelId>> {
    let mut paths = Vec::new();
    for l1 in 0..LABELS {
        paths.push(vec![LabelId(l1)]);
        for l2 in 0..LABELS {
            paths.push(vec![LabelId(l1), LabelId(l2)]);
        }
    }
    paths
}

fn expected_estimates(est: &ServableEstimator) -> Vec<f64> {
    batch_paths()
        .iter()
        .map(|p| est.estimate_labels(p).unwrap())
        .collect()
}

fn wire_paths() -> Vec<Vec<PathStep>> {
    batch_paths()
        .iter()
        .map(|p| p.iter().map(|l| PathStep::Id(l.0)).collect())
        .collect()
}

/// A batch big enough to route to the dispatch workers (the inline
/// threshold is 4096 paths).
fn heavy_paths(n: usize) -> Vec<Vec<PathStep>> {
    (0..n)
        .map(|i| vec![PathStep::Id((i % LABELS as usize) as u16), PathStep::Id(0)])
        .collect()
}

fn exposition_value(metrics: &ServiceMetrics, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let samples =
        phe::obs::parse_exposition(&metrics.render_prometheus()).expect("exposition parses");
    samples
        .iter()
        .find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|s| s.value)
}

/// 512 idle connections held open while 64 active clients hammer
/// batched estimates across a mid-flight hot swap: nothing admitted may
/// drop or error, every batch stays single-generation-consistent, and
/// the open-connection gauge reflects the full set.
#[test]
fn five_hundred_twelve_connections_with_mid_flight_hot_swap() {
    const IDLE: usize = 512;
    const ACTIVE: usize = 64;
    const REQUESTS_PER_CLIENT: usize = 20;

    let v1 = build_servable(4, OrderingKind::SumBased);
    let v2 = build_servable(48, OrderingKind::NumCard);
    let expected_v1 = expected_estimates(&v1);
    let expected_v2 = expected_estimates(&v2);
    assert_ne!(expected_v1, expected_v2);

    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 4096));
    registry.register("main", v1);
    let server = Server::start(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            allow_load: false,
            shards: 2,
            max_connections: 2048,
            // Every client here shares 127.0.0.1, so the per-peer quota
            // must not see the whole test as one throttled client.
            max_inflight_per_client: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Hold the idle majority open for the whole run.
    let idles: Vec<std::net::TcpStream> = (0..IDLE)
        .map(|i| std::net::TcpStream::connect(addr).unwrap_or_else(|e| panic!("idle {i}: {e}")))
        .collect();
    // The acceptor counts a connection when it accepts it; give it until
    // a deadline to drain the backlog, then the gauge must cover at
    // least the idle set.
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.open_connections() < IDLE as u64 {
        assert!(
            Instant::now() < deadline,
            "acceptor stalled at {} of {IDLE} connections",
            metrics.open_connections()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        exposition_value(&metrics, "phe_connections_open", &[]).unwrap_or(0.0) >= IDLE as f64,
        "phe_connections_open must cover the idle set"
    );

    let paths = wire_paths();
    let v1_batches = Arc::new(AtomicU64::new(0));
    let v2_batches = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_id in 0..ACTIVE {
            let paths = paths.clone();
            let expected_v1 = expected_v1.clone();
            let expected_v2 = expected_v2.clone();
            let v1_batches = Arc::clone(&v1_batches);
            let v2_batches = Arc::clone(&v2_batches);
            handles.push(scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("active client connects");
                let mut last_version = 0u64;
                for request in 0..REQUESTS_PER_CLIENT {
                    let batch = client.estimate("main", paths.clone()).unwrap_or_else(|e| {
                        panic!("client {client_id} request {request} failed: {e}")
                    });
                    assert!(batch.version >= last_version);
                    last_version = batch.version;
                    let expected = match batch.version {
                        1 => &expected_v1,
                        2 => &expected_v2,
                        v => panic!("unexpected version {v}"),
                    };
                    assert_eq!(
                        &batch.estimates, expected,
                        "client {client_id} request {request}: batch mixes generations"
                    );
                    match batch.version {
                        1 => v1_batches.fetch_add(1, Ordering::Relaxed),
                        _ => v2_batches.fetch_add(1, Ordering::Relaxed),
                    };
                }
            }));
        }

        // Hot-swap mid-flight, once the clients are demonstrably going.
        let deadline = Instant::now() + Duration::from_secs(30);
        while v1_batches.load(Ordering::Relaxed) < ACTIVE as u64 {
            assert!(
                Instant::now() < deadline,
                "clients made no progress — check for client-thread panics"
            );
            std::thread::yield_now();
        }
        assert_eq!(registry.register("main", v2), 2);

        for handle in handles {
            handle.join().expect("client thread panicked");
        }
    });

    assert!(v1_batches.load(Ordering::Relaxed) > 0, "v1 never served");
    assert!(
        v2_batches.load(Ordering::Relaxed) > 0,
        "swap landed after all traffic — not mid-flight"
    );

    let report = metrics.report();
    assert_eq!(report.errors, 0, "no admitted request may fail");
    assert_eq!(report.requests, (ACTIVE * REQUESTS_PER_CLIENT) as u64);
    assert_eq!(
        exposition_value(&metrics, "phe_admission_total", &[("outcome", "admitted")]),
        Some((ACTIVE * REQUESTS_PER_CLIENT) as f64)
    );
    assert_eq!(
        exposition_value(&metrics, "phe_admission_total", &[("outcome", "refused")]),
        Some(0.0)
    );

    drop(idles);
    server.shutdown();
}

/// A connect past `max_connections` is told why — one structured
/// `overloaded` line with `reason = "capacity"` — and then hung up on.
#[test]
fn connect_past_capacity_gets_structured_refusal_then_eof() {
    use std::io::{BufRead, BufReader, Read};

    const CAP: usize = 8;
    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 1024));
    registry.register("main", build_servable(8, OrderingKind::SumBased));
    let server = Server::start(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            allow_load: false,
            max_connections: CAP,
            max_inflight_per_client: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    // Fill the cap; a ping roundtrip proves each was accepted (the
    // capacity gauge counts at accept, not at connect).
    let mut residents: Vec<ServiceClient> = (0..CAP)
        .map(|i| ServiceClient::connect(addr).unwrap_or_else(|e| panic!("resident {i}: {e}")))
        .collect();
    for client in &mut residents {
        client.ping().expect("resident ping");
    }

    let over = std::net::TcpStream::connect(addr).expect("over-cap connect");
    over.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut reader = BufReader::new(over);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal line");
    let value: serde_json::Value = serde_json::from_str(line.trim()).expect("refusal parses");
    assert_eq!(value.get("ok"), Some(&serde_json::Value::Bool(false)));
    assert_eq!(
        value.get("overloaded"),
        Some(&serde_json::Value::Bool(true))
    );
    assert_eq!(
        value.get("reason").and_then(serde_json::Value::as_str),
        Some("capacity")
    );
    let mut rest = Vec::new();
    let n = reader.read_to_end(&mut rest).expect("EOF after refusal");
    assert_eq!(n, 0, "refused connection must close after its one line");

    assert_eq!(
        exposition_value(&metrics, "phe_admission_total", &[("outcome", "refused")]),
        Some(1.0)
    );
    // The residents were never disturbed.
    for client in &mut residents {
        client.ping().expect("resident ping after refusal");
    }
    drop(residents);
    server.shutdown();
}

/// A registry + coordinator serving one maintained slot ("main") with a
/// single queued churn batch, so a forced `maintenance compact` has a
/// counting pass that a fail-point gate can park inside the dispatch
/// worker — the deterministic way to keep the worker (and its quota
/// ticket / dispatch-queue slot) provably occupied with no timing
/// window.
fn maintained_slot() -> (
    Arc<ServiceMetrics>,
    Arc<EstimatorRegistry>,
    Arc<MaintenanceCoordinator>,
) {
    let graph = erdos_renyi(
        60,
        480,
        LABELS,
        LabelDistribution::Zipf { exponent: 1.0 },
        23,
    );
    let estimator = PathSelectivityEstimator::build(
        &graph,
        EstimatorConfig {
            k: K,
            beta: 8,
            threads: 1,
            retain_sparse: true,
            ..EstimatorConfig::default()
        },
    )
    .expect("base build");
    let servable = ServableEstimator::from_snapshot(&estimator.snapshot().expect("snapshot"))
        .expect("servable from snapshot");
    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 4096));
    let version = registry.register_if_version_maintained(
        "main",
        servable,
        0,
        Some(MaintenanceState {
            graph: graph.clone(),
            estimator,
        }),
    );
    assert_eq!(version, Some(1));
    let coordinator = MaintenanceCoordinator::new(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        MaintenanceConfig {
            publish_interval: Duration::from_secs(3600), // compacted by hand
            ..MaintenanceConfig::default()
        },
    );
    // One queued batch so the compaction has a counting pass to park in.
    let mut delta = GraphDelta::new();
    let (s, t) = graph
        .forward_csr(LabelId(0))
        .iter_edges()
        .next()
        .expect("graph has label-0 edges");
    delta.remove(s, LabelId(0), t);
    coordinator.enqueue("main", delta).expect("enqueue");
    (metrics, registry, coordinator)
}

/// The request that parks on the gate: a forced compaction of the
/// maintained slot, dispatched to a worker like any heavy op.
fn compact_request() -> Request {
    Request::Maintenance {
        name: "main".to_owned(),
        action: MaintenanceAction::Compact,
    }
}

/// Requests past the per-client in-flight quota are refused with
/// `reason = "quota"` — deterministically, with no timing window: the
/// single dispatch worker is parked mid-compaction on a fail-point gate
/// (holding one quota ticket), a queued heavy estimate holds the
/// second, so a third request from the same peer *must* be refused.
/// Once the gate releases, both occupiers complete and the quota
/// recovers.
#[test]
fn per_client_quota_refuses_excess_inflight_requests() {
    const QUOTA: usize = 2;
    const PATHS: usize = 8000; // > inline threshold ⇒ dispatch workers

    let (metrics, registry, coordinator) = maintained_slot();
    let gate = Gate::new();
    coordinator
        .failure_plan()
        .inject(FailPoint::BeforeCount, FailAction::Hold(Arc::clone(&gate)));

    let server = Server::start_with(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        Arc::clone(&coordinator),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            allow_load: true, // `maintenance compact` is a mutating op
            shards: 1,
            max_inflight_per_client: QUOTA,
            // Keep the shed trigger out of this test's way.
            shed_queue_depth: 64,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        // Ticket 1: the compaction parks on the gate inside the worker.
        let compact = scope.spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("compact client connects");
            client
                .roundtrip(&compact_request())
                .expect("parked compaction completes after release");
        });
        gate.wait_arrived(); // the worker now provably holds ticket 1

        // Ticket 2: a heavy estimate queues behind the parked worker.
        let heavy = scope.spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("heavy client connects");
            let batch = client
                .estimate("main", heavy_paths(PATHS))
                .expect("queued estimate completes after release");
            assert_eq!(batch.estimates.len(), PATHS);
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.dispatch_depth() < 2 {
            assert!(Instant::now() < deadline, "heavy estimate never queued");
            std::thread::sleep(Duration::from_millis(1));
        }

        // Both tickets are pinned — the prober *must* be refused.
        let mut prober = ServiceClient::connect(addr).expect("prober connects");
        match prober.estimate("main", wire_paths()) {
            Err(ClientError::Overloaded(reason)) => assert_eq!(reason, "quota"),
            Err(other) => panic!("expected a quota refusal, got error {other}"),
            Ok(_) => panic!("expected a quota refusal, got a successful batch"),
        }
        assert_eq!(
            exposition_value(&metrics, "phe_admission_total", &[("outcome", "refused")]),
            Some(1.0)
        );

        gate.release();
        compact.join().expect("compact thread");
        heavy.join().expect("heavy thread");

        // Tickets released: the same prober is admitted again.
        let batch = prober
            .estimate("main", wire_paths())
            .expect("quota recovers after tickets release");
        assert_eq!(batch.estimates.len(), batch_paths().len());
    });
    server.shutdown();
}

/// Under dispatch-queue pressure expensive ops are shed with
/// `reason = "shed"` while `ping` — deliberately unsheddable — keeps
/// answering, so an overloaded server stays observable. Deterministic
/// like the quota test: the worker is parked on a fail-point gate
/// (depth 1), a queued heavy estimate raises the depth past the shed
/// threshold of 1, so the prober's heavy request *must* be shed — and a
/// concurrent `ping` must still answer.
#[test]
fn queue_pressure_sheds_heavy_ops_but_answers_ping() {
    const PATHS: usize = 8000; // > inline threshold ⇒ dispatch workers

    let (metrics, registry, coordinator) = maintained_slot();
    let gate = Gate::new();
    coordinator
        .failure_plan()
        .inject(FailPoint::BeforeCount, FailAction::Hold(Arc::clone(&gate)));

    let server = Server::start_with(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        Arc::clone(&coordinator),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            allow_load: true, // `maintenance compact` is a mutating op
            shards: 1,
            // Keep the quota out of this test's way.
            max_inflight_per_client: 1024,
            // Shed as soon as more than one job waits behind the worker.
            shed_queue_depth: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        // Depth 1: the compaction parks on the gate inside the worker.
        let compact = scope.spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("compact client connects");
            client
                .roundtrip(&compact_request())
                .expect("parked compaction completes after release");
        });
        gate.wait_arrived();

        // Depth 2: a heavy estimate queues behind the parked worker —
        // its own shed check ran at depth 1, at the threshold but not
        // past it, so it was admitted.
        let heavy = scope.spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("heavy client connects");
            let batch = client
                .estimate("main", heavy_paths(PATHS))
                .expect("queued estimate completes after release");
            assert_eq!(batch.estimates.len(), PATHS);
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.dispatch_depth() < 2 {
            assert!(Instant::now() < deadline, "heavy estimate never queued");
            std::thread::sleep(Duration::from_millis(1));
        }

        // Depth 2 > threshold 1 — the prober's heavy request *must* be
        // shed, while its pings keep answering through the overload.
        let mut prober = ServiceClient::connect(addr).expect("prober connects");
        prober.ping().expect("ping before the shed probe");
        match prober.estimate("main", heavy_paths(PATHS)) {
            Err(ClientError::Overloaded(reason)) => assert_eq!(reason, "shed"),
            Err(other) => panic!("expected a shed refusal, got error {other}"),
            Ok(_) => panic!("expected a shed refusal, got a successful batch"),
        }
        prober.ping().expect("ping while overloaded");
        assert_eq!(
            exposition_value(&metrics, "phe_admission_total", &[("outcome", "shed")]),
            Some(1.0)
        );

        gate.release();
        compact.join().expect("compact thread");
        heavy.join().expect("heavy thread");

        // Shedding never cost the queue its consistency: once the
        // pressure is gone, the same prober's heavy request completes.
        let batch = prober
            .estimate("main", heavy_paths(PATHS))
            .expect("post-pressure estimate");
        assert_eq!(batch.estimates.len(), PATHS);
    });
    server.shutdown();
}
