//! Concurrent serving under snapshot hot-swap: several client threads fire
//! batched estimate requests over TCP while the main thread swaps the
//! estimator mid-flight. The contract under test:
//!
//! * **zero failed requests** — a swap never drops or errors a request;
//! * **batch consistency** — every batch is answered entirely by one
//!   generation (all estimates match that generation's expected values,
//!   never a mix);
//! * **monotone visibility** — a connection never sees the version go
//!   backwards, and after the swap completes new requests see v2.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::datasets::{erdos_renyi, LabelDistribution};
use phe::graph::{GraphDelta, LabelId};
use phe::service::protocol::PathStep;
use phe::service::{
    EstimatorRegistry, ServableEstimator, Server, ServerConfig, ServiceClient, ServiceMetrics,
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

/// The fixed query batch every request asks for.
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

/// One plain-HTTP scrape of the metrics endpoint; panics unless the
/// endpoint answers 200 with a body.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    use std::io::{BufRead, Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    write!(
        stream,
        "GET /metrics HTTP/1.1\r\nHost: phe\r\nConnection: close\r\n\r\n"
    )
    .expect("send scrape request");
    let mut reader = std::io::BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    assert!(line.starts_with("HTTP/1.1 200"), "scrape failed: {line}");
    loop {
        line.clear();
        reader.read_line(&mut line).expect("header line");
        if line == "\r\n" || line.is_empty() {
            break;
        }
    }
    let mut body = String::new();
    reader.read_to_string(&mut body).expect("scrape body");
    body
}

#[test]
fn concurrent_batches_survive_hot_swap() {
    // Two deliberately different estimator generations: different β and
    // ordering ⇒ different estimates for at least some paths.
    let v1 = build_servable(4, OrderingKind::SumBased);
    let v2 = build_servable(48, OrderingKind::NumCard);
    let expected_v1 = expected_estimates(&v1);
    let expected_v2 = expected_estimates(&v2);
    assert_ne!(
        expected_v1, expected_v2,
        "test needs distinguishable generations"
    );

    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 4096));
    registry.register("main", v1);

    let server = Server::start(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(), // ephemeral port
            workers: 8,
            allow_load: false,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 120;

    let wire_paths: Vec<Vec<PathStep>> = batch_paths()
        .iter()
        .map(|p| p.iter().map(|l| PathStep::Id(l.0)).collect())
        .collect();

    let v1_batches = Arc::new(AtomicU64::new(0));
    let v2_batches = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_id in 0..CLIENTS {
            let wire_paths = wire_paths.clone();
            let expected_v1 = expected_v1.clone();
            let expected_v2 = expected_v2.clone();
            let v1_batches = Arc::clone(&v1_batches);
            let v2_batches = Arc::clone(&v2_batches);
            handles.push(scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("client connects");
                let mut last_version = 0u64;
                for request in 0..REQUESTS_PER_CLIENT {
                    let batch = client
                        .estimate("main", wire_paths.clone())
                        .unwrap_or_else(|e| {
                            panic!("client {client_id} request {request} failed: {e}")
                        });
                    // Monotone visibility per connection.
                    assert!(
                        batch.version >= last_version,
                        "client {client_id}: version went {last_version} -> {}",
                        batch.version
                    );
                    last_version = batch.version;
                    // Batch consistency: entirely one generation's answers.
                    let expected = match batch.version {
                        1 => &expected_v1,
                        2 => &expected_v2,
                        v => panic!("client {client_id}: unexpected version {v}"),
                    };
                    assert_eq!(
                        &batch.estimates, expected,
                        "client {client_id} request {request}: batch mixes generations \
                         (version {})",
                        batch.version
                    );
                    match batch.version {
                        1 => v1_batches.fetch_add(1, Ordering::Relaxed),
                        _ => v2_batches.fetch_add(1, Ordering::Relaxed),
                    };
                }
            }));
        }

        // Let the clients get going, then hot-swap mid-flight. `v2` was
        // built up front, so the swap window is microseconds — rebuilding
        // here could let fast clients drain all traffic first.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while v1_batches.load(Ordering::Relaxed) < (CLIENTS * 5) as u64 {
            // A deadline keeps an early client panic (which only surfaces
            // at join, after this loop) from turning into a test hang.
            assert!(
                std::time::Instant::now() < deadline,
                "clients made no progress — check for client-thread panics"
            );
            std::thread::yield_now();
        }
        let version = registry.register("main", v2);
        metrics.record_swap();
        assert_eq!(version, 2);

        for handle in handles {
            handle.join().expect("client thread panicked");
        }
    });

    // Post-swap, a fresh request must see v2.
    let mut client = ServiceClient::connect(addr).expect("post-swap connect");
    let batch = client
        .estimate("main", wire_paths.clone())
        .expect("post-swap estimate");
    assert_eq!(batch.version, 2);
    assert_eq!(batch.estimates, expected_v2);

    // The swap happened mid-flight: both generations actually served.
    assert!(
        v1_batches.load(Ordering::Relaxed) > 0,
        "no batch served by v1"
    );
    assert!(
        v2_batches.load(Ordering::Relaxed) > 0,
        "swap landed after all traffic — not mid-flight"
    );

    let report = metrics.report();
    assert_eq!(report.errors, 0, "no request may fail during a swap");
    assert_eq!(
        report.requests,
        (CLIENTS * REQUESTS_PER_CLIENT) as u64 + 1,
        "every request was answered exactly once"
    );
    // The fixed batch repeats, so the cache must be doing real work.
    assert!(
        report.cache_hits > 0,
        "repeated identical batches should hit the cache"
    );

    // The scrape endpoint reads the same registry atomics as the report:
    // spin it up, scrape it over HTTP, and fail on any exposition the
    // Prometheus text parser rejects or that disagrees with the report.
    let render = Arc::clone(&metrics);
    let mut endpoint =
        phe::obs::http::serve_metrics("127.0.0.1:0", Arc::new(move || render.render_prometheus()))
            .expect("metrics endpoint starts");
    let body = scrape_metrics(endpoint.local_addr());
    let samples = phe::obs::parse_exposition(&body).expect("scrape output must parse");
    let value = |name: &str, labels: &[(&str, &str)]| {
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|s| s.value)
    };
    assert_eq!(
        value("phe_requests_total", &[]),
        Some(report.requests as f64)
    );
    assert_eq!(value("phe_swaps_total", &[]), Some(1.0));
    assert_eq!(
        value("phe_request_duration_seconds_count", &[]),
        Some(report.requests as f64)
    );
    assert_eq!(
        value(
            "phe_cache_requests_total",
            &[("cache", "estimate"), ("outcome", "hit")]
        ),
        Some(report.cache_hits as f64)
    );
    endpoint.shutdown();

    server.shutdown();
}

/// A small valid churn batch against `graph`: existing edges removed,
/// fresh same-label endpoint recombinations inserted. Each batch drawn
/// from the same base composes validly with the others in any order (a
/// removal names an edge present in the base, an insertion an absent
/// one, so no cross-batch insert/remove pair can collide).
fn churn(graph: &phe::graph::Graph, seed: u64, removals: usize, insertions: usize) -> GraphDelta {
    use phe::graph::VertexId;
    let mut x = seed | 1;
    let mut step = |m: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % m as u64) as usize
    };
    let mut edges: Vec<(u32, u16, u32)> = Vec::new();
    for label in 0..graph.label_count() as u16 {
        for (s, t) in graph.forward_csr(LabelId(label)).iter_edges() {
            edges.push((s.0, label, t.0));
        }
    }
    let mut delta = GraphDelta::new();
    let mut removed = std::collections::HashSet::new();
    let mut attempts = 0;
    while removed.len() < removals && attempts < removals * 200 {
        attempts += 1;
        let (s, l, t) = edges[step(edges.len())];
        if removed.insert((s, l, t)) {
            delta.remove(VertexId(s), LabelId(l), VertexId(t));
        }
    }
    let mut added = std::collections::HashSet::new();
    let mut attempts = 0;
    while added.len() < insertions && attempts < insertions * 200 {
        attempts += 1;
        let (s, l, _) = edges[step(edges.len())];
        let (_, l2, t) = edges[step(edges.len())];
        if l != l2
            || graph.has_edge(VertexId(s), LabelId(l), VertexId(t))
            || removed.contains(&(s, l, t))
        {
            continue;
        }
        if added.insert((s, l, t)) {
            delta.insert(VertexId(s), LabelId(l), VertexId(t));
        }
    }
    assert!(!delta.is_empty(), "churn produced an empty batch");
    delta
}

/// Concurrent `delta` ops racing an **in-flight publish**: the
/// maintenance worker is parked just before the compare-and-swap of a
/// publish whose drift gauge it will report (fault gate), wire clients
/// enqueue fresh batches and hammer `estimate_id_batch` across that
/// publish, and every response must stay single-generation-consistent (a
/// batch with each path asked twice must answer both copies identically,
/// and equal versions must answer identically across the whole run).
#[test]
fn concurrent_deltas_during_inflight_drift_rebuild() {
    use phe::graph::delta::write_changes_path;
    use phe::service::protocol::Request;
    use phe::service::registry::MaintenanceState;
    use phe::service::{FailAction, FailPoint, Gate, MaintenanceConfig, MaintenanceCoordinator};
    use serde_json::Value;

    let dir = std::env::temp_dir()
        .join("phe_service_concurrent")
        .join("inflight_publish");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let g0 = erdos_renyi(
        80,
        640,
        LABELS,
        LabelDistribution::Zipf { exponent: 1.0 },
        41,
    );
    let maintained_config = EstimatorConfig {
        k: K,
        beta: 8,
        ordering: OrderingKind::SumBased,
        histogram: HistogramKind::VOptimalGreedy,
        threads: 1,
        retain_sparse: true,
    };
    let estimator = PathSelectivityEstimator::build(&g0, maintained_config).expect("base build");
    let servable = ServableEstimator::from_snapshot(&estimator.snapshot().expect("snapshot"))
        .expect("servable");
    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 4096));
    assert_eq!(
        registry.register_if_version_maintained(
            "main",
            servable,
            0,
            Some(MaintenanceState {
                graph: g0.clone(),
                estimator,
            }),
        ),
        Some(1)
    );
    let coordinator = MaintenanceCoordinator::new(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        MaintenanceConfig {
            publish_interval: std::time::Duration::from_secs(3600), // ticked by hand
            ..MaintenanceConfig::default()
        },
    );
    let server = Server::start_with(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        Arc::clone(&coordinator),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 8,
            allow_load: true,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    let send_delta = |path: &std::path::Path| {
        let mut client = ServiceClient::connect(addr).expect("delta client connects");
        let response = client
            .roundtrip(&Request::Delta {
                name: "main".to_owned(),
                changes: path.display().to_string(),
            })
            .expect("delta op");
        assert_eq!(
            response.get("status").and_then(Value::as_str),
            Some("queued"),
            "maintained delta ops must queue: {response:?}"
        );
    };

    // Batch 1's publish parks at the gate with v2 still unpublished.
    let driver = churn(&g0, 1009, 6, 6);
    let driver_path = dir.join("driver.tsv");
    write_changes_path(&driver, &g0, &driver_path).expect("write driver");
    send_delta(&driver_path);
    let g1 = g0.apply_delta(&driver).expect("driver applies");

    let gate = Gate::new();
    coordinator
        .failure_plan()
        .inject(FailPoint::BeforeCas, FailAction::Hold(Arc::clone(&gate)));
    let worker = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run_slot("main"))
    };
    gate.wait_arrived();
    assert_eq!(
        registry.get("main").unwrap().version(),
        1,
        "nothing publishes before the compare-and-swap"
    );

    // Wire batches valid against g1 (the parked publish holds the
    // single-flight mark and will pop only batch 1, so they queue
    // behind it and ride the next pass).
    const WIRE_BATCHES: usize = 6;
    let batch_files: Vec<std::path::PathBuf> = (0..WIRE_BATCHES)
        .map(|i| {
            let delta = churn(&g1, 2003 + i as u64 * 7919, 4, 4);
            let path = dir.join(format!("batch{i}.tsv"));
            write_changes_path(&delta, &g1, &path).expect("write batch");
            path
        })
        .collect();

    let wire_paths: Vec<Vec<PathStep>> = batch_paths()
        .iter()
        .map(|p| p.iter().map(|l| PathStep::Id(l.0)).collect())
        .collect();
    // Each path asked twice in one request: a torn response shows up as
    // the two copies disagreeing.
    let half = wire_paths.len();
    let doubled: Vec<Vec<PathStep>> = wire_paths
        .iter()
        .chain(wire_paths.iter())
        .cloned()
        .collect();
    let by_version: Arc<std::sync::Mutex<std::collections::HashMap<u64, Vec<f64>>>> =
        Arc::new(std::sync::Mutex::new(std::collections::HashMap::new()));
    let released = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Estimate hammer: runs across the parked window, the release,
        // the parked publish, and the drain below.
        let mut estimate_handles = Vec::new();
        for client_id in 0..3 {
            let doubled = doubled.clone();
            let by_version = Arc::clone(&by_version);
            let released = Arc::clone(&released);
            estimate_handles.push(scope.spawn(move || {
                let mut client = ServiceClient::connect(addr).expect("estimate client");
                let mut last_version = 0u64;
                let mut request = 0usize;
                // Keep hammering until well after the gate released.
                while !released.load(Ordering::Relaxed) || !request.is_multiple_of(16) {
                    request += 1;
                    let batch = client
                        .estimate("main", doubled.clone())
                        .unwrap_or_else(|e| {
                            panic!("client {client_id} request {request} failed: {e}")
                        });
                    assert!(
                        batch.version >= last_version,
                        "client {client_id}: version went {last_version} -> {}",
                        batch.version
                    );
                    last_version = batch.version;
                    let (first, second) = batch.estimates.split_at(half);
                    assert_eq!(
                        first, second,
                        "client {client_id} request {request}: torn batch at v{}",
                        batch.version
                    );
                    let mut seen = by_version.lock().unwrap();
                    match seen.get(&batch.version) {
                        Some(expected) => assert_eq!(
                            expected, &batch.estimates,
                            "v{} answered two different ways",
                            batch.version
                        ),
                        None => {
                            seen.insert(batch.version, batch.estimates.clone());
                        }
                    }
                }
            }));
        }

        // Concurrent delta ops, all guaranteed to land while the publish
        // is in flight: the gate is released only after every enqueue
        // returned.
        let mut delta_handles = Vec::new();
        for chunk in batch_files.chunks(2) {
            delta_handles.push(scope.spawn(move || {
                for path in chunk {
                    send_delta(path);
                }
            }));
        }
        for handle in delta_handles {
            handle.join().expect("delta thread");
        }
        assert_eq!(coordinator.status("main").queued, 1 + WIRE_BATCHES);
        assert_eq!(
            registry.get("main").unwrap().version(),
            1,
            "nothing may publish while the parked publish holds the slot"
        );

        gate.release();
        let outcome = worker.join().expect("worker joins");
        assert_eq!(
            outcome,
            phe::service::RunOutcome::Published {
                version: 2,
                batches: 1,
                rebuilt: None,
            }
        );
        // The parked publish reported the touched-path accuracy gauge of
        // the statistics it installed.
        let drift = registry
            .maintenance("main")
            .expect("maintained")
            .estimator
            .drift()
            .copied()
            .expect("a publish samples drift");
        let gauge = format!("phe_drift_sampled_paths{{slot=\"main\"}} {}", drift.sampled);
        assert!(
            metrics.render_prometheus().contains(&gauge),
            "missing {gauge}"
        );
        // Drain the batches queued during the parked publish in one
        // compacted pass.
        let outcome = coordinator.run_slot("main");
        assert_eq!(
            outcome,
            phe::service::RunOutcome::Published {
                version: 3,
                batches: WIRE_BATCHES,
                rebuilt: None,
            }
        );
        released.store(true, Ordering::Relaxed);
        for handle in estimate_handles {
            handle.join().expect("estimate thread");
        }
    });

    // Exactly-once accounting: every batch enqueued over the wire was
    // compacted into a publish, none lost, none replayed.
    let status = coordinator.status("main");
    assert_eq!(
        (
            status.queued,
            status.enqueued,
            status.compacted,
            status.purged
        ),
        (0, 1 + WIRE_BATCHES as u64, 1 + WIRE_BATCHES as u64, 0)
    );

    // Lineage consistency: the maintained catalog equals a recount of
    // the final graph (driver + every wire batch, in any order — the
    // batches are pairwise compose-safe by construction).
    let wire_deltas: Vec<GraphDelta> = batch_files
        .iter()
        .map(|path| phe::graph::delta::read_changes_path(path, &g1).expect("reread batch"))
        .collect();
    let final_graph = g1
        .apply_delta(&GraphDelta::compose(&wire_deltas))
        .expect("composed wire batches apply");
    let state = registry.maintenance("main").expect("still maintained");
    let reference =
        PathSelectivityEstimator::build(&final_graph, maintained_config).expect("recount");
    assert_eq!(
        state
            .estimator
            .sparse_catalog()
            .expect("maintained catalog"),
        reference.sparse_catalog().expect("reference catalog"),
        "maintained catalog diverged from a recount of the final graph"
    );

    // A fresh request sees the drained generation.
    let mut client = ServiceClient::connect(addr).expect("final client");
    assert_eq!(client.estimate("main", wire_paths).unwrap().version, 3);
    assert_eq!(
        metrics.report().errors,
        0,
        "no request may fail mid-publish"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_shutdown_with_open_idle_connection() {
    let registry = Arc::new(EstimatorRegistry::with_default_counters());
    registry.register("main", build_servable(8, OrderingKind::SumBased));
    let server = Server::start(
        registry,
        Arc::new(ServiceMetrics::new()),
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            allow_load: false,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    // An idle connection must not wedge — or even delay — shutdown: the
    // event loop wakes on its shutdown pipes immediately, well under the
    // old thread pool's ~250 ms read-timeout poll.
    let idle = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    // Let the acceptor hand the connection to a shard first.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let t0 = std::time::Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < std::time::Duration::from_millis(250),
        "shutdown took {:?}",
        t0.elapsed()
    );
    drop(idle);
}
