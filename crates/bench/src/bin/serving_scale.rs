//! `serving_scale` — connection-scale serving throughput, asserted
//! in-bin.
//!
//! Two measurements of the event-loop server over a warm-cache estimate
//! workload on loopback:
//!
//! 1. **Connection sweep**: driven closed-loop at 1 → 512 concurrent
//!    connections, reporting µs/request and aggregate qps per point — the
//!    scaling curve the readiness-driven server exists for.
//! 2. **256-connection open-loop drive**: 256 fixed-rate clients at
//!    100 req/s each, one request in flight per connection. A
//!    closed-loop drive on a small machine is CPU-bound on the estimator;
//!    the open-loop drive instead asks whether every connection is
//!    served at its offered rate. Gate: the server completes **≥ 90%**
//!    of the requests offered (256 clients × 100 req/s × window).
//!
//! Single-connection latency is tracked by the `serve-hot` workload of
//! `phebench` (its `lat_p50_ms`), not here.
//!
//! Output: an aligned table plus one JSON line per measurement
//! (`"bench": "serving_scale" | "serving_scale_gate"`), collected by CI
//! into the `BENCH_serving_scale.json` artifact.

use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use phe_bench::{emit, RunConfig, Scale};
use phe_core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe_datasets::{erdos_renyi, LabelDistribution};
use phe_graph::LabelId;
use phe_service::protocol::{PathStep, Request};
use phe_service::{EstimatorRegistry, ServableEstimator, Server, ServerConfig, ServiceMetrics};
use serde_json::{Number, Value};

const LABELS: u16 = 5;
const K: usize = 4;
/// Paths per request in the connection-scale drives: small enough that
/// connection handling, not estimation, dominates.
const SWEEP_BATCH: usize = 16;
/// The open-loop gate: the share of offered requests that must complete.
const MIN_COMPLETED_FRAC: f64 = 0.9;

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

fn registry_with_warm_cache() -> Arc<EstimatorRegistry> {
    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 64 * 1024));
    registry.register("main", build_servable());
    // Warm the LRU with every path any request below will ask.
    let generation = registry.get("main").unwrap();
    let warm: Vec<Vec<LabelId>> = (0..SWEEP_BATCH).map(query_path).collect();
    generation.estimate_id_batch(&warm).unwrap();
    registry
}

fn query_path(i: usize) -> Vec<LabelId> {
    let len = 1 + i % K;
    (0..len)
        .map(|j| LabelId(((i * 7 + j * 13) % LABELS as usize) as u16))
        .collect()
}

fn request_line(batch: usize) -> String {
    Request::Estimate {
        estimator: "main".to_owned(),
        paths: (0..batch)
            .map(|i| query_path(i).iter().map(|l| PathStep::Id(l.0)).collect())
            .collect(),
    }
    .to_line()
}

/// The server configuration both drives run under: two CPU workers,
/// headroom everywhere else (every client shares 127.0.0.1, so the
/// per-peer quota must not see the whole drive as one throttled
/// client).
fn drive_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        allow_load: false,
        shards: 2,
        max_connections: 2048,
        max_inflight_per_client: 8192,
        ..ServerConfig::default()
    }
}

/// What one request attempt came back with.
enum Outcome {
    /// An `"ok":true` response line.
    Served,
    /// An `"ok":false` line — e.g. an admission refusal.
    Refused,
    /// No response within the read timeout.
    TimedOut,
}

/// One blocking NDJSON round trip: sends `line`, reads one response line.
fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    line: &str,
) -> std::io::Result<Outcome> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )),
        Ok(_) if response.contains("\"ok\":true") => Ok(Outcome::Served),
        Ok(_) => Ok(Outcome::Refused),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Ok(Outcome::TimedOut)
        }
        Err(e) => Err(e),
    }
}

fn connect(
    addr: std::net::SocketAddr,
    read_timeout: Duration,
) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("bench client connects");
    stream
        .set_read_timeout(Some(read_timeout))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    let writer = stream.try_clone().expect("clone stream");
    (BufReader::new(stream), writer)
}

/// Closed-loop drive: `connections` clients each fire
/// `total / connections` requests back to back; returns wall seconds.
fn closed_loop(addr: std::net::SocketAddr, connections: usize, total: usize) -> f64 {
    let line = Arc::new(request_line(SWEEP_BATCH));
    let per_client = total / connections;
    let barrier = Arc::new(Barrier::new(connections + 1));
    // The scope joins every client before returning, so elapsed-at-exit
    // is the wall time for the whole drive.
    let t0 = std::thread::scope(|scope| {
        for _ in 0..connections {
            let line = Arc::clone(&line);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                let (mut reader, mut writer) = connect(addr, Duration::from_secs(30));
                barrier.wait(); // everyone connected
                barrier.wait(); // clock started
                for _ in 0..per_client {
                    assert!(
                        matches!(
                            roundtrip(&mut reader, &mut writer, &line)
                                .expect("closed-loop roundtrip"),
                            Outcome::Served
                        ),
                        "closed-loop request refused or timed out"
                    );
                }
            });
        }
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        t0
    });
    t0.elapsed().as_secs_f64()
}

/// Open-loop drive: `connections` clients each pace requests at
/// `interval` for `window`, never sending a new request before the
/// previous response arrived (one in flight per connection, like a real
/// optimizer client), giving up on a connection whose response does not
/// arrive within the window. Returns completed requests.
fn open_loop(
    addr: std::net::SocketAddr,
    connections: usize,
    interval: Duration,
    window: Duration,
) -> u64 {
    let line = Arc::new(request_line(SWEEP_BATCH));
    let completed = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(connections));
    std::thread::scope(|scope| {
        for _ in 0..connections {
            let line = Arc::clone(&line);
            let completed = Arc::clone(&completed);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                // The read timeout doubles as the give-up horizon for a
                // stranded connection.
                let (mut reader, mut writer) = connect(addr, window);
                barrier.wait();
                let start = Instant::now();
                let mut tick = 0u32;
                loop {
                    let due = start + interval * tick;
                    let now = Instant::now();
                    if now >= start + window {
                        break;
                    }
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    match roundtrip(&mut reader, &mut writer, &line) {
                        Ok(Outcome::Served) => {
                            if Instant::now() < start + window {
                                // ORDERING: statistics counter read only
                                // after scope join (which synchronizes).
                                completed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // Refused, stranded past the window, or hung up
                        // on: this connection stops completing — exactly
                        // the shortfall the gate measures.
                        Ok(Outcome::Refused) | Ok(Outcome::TimedOut) | Err(_) => break,
                    }
                    tick += 1;
                }
            });
        }
    });
    // ORDERING: thread::scope joined every incrementing worker above.
    completed.load(Ordering::Relaxed)
}

fn main() {
    let config = RunConfig::from_args();
    let (sweep, drive_connections, window) = match config.scale {
        Scale::Ci => (
            vec![1usize, 4, 16, 64, 256, 512],
            256usize,
            Duration::from_millis(1500),
        ),
        Scale::Paper => (
            vec![1, 4, 16, 64, 256, 512, 1024],
            256,
            Duration::from_secs(5),
        ),
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_lines: Vec<String> = Vec::new();

    // ---- 1. connection sweep (event loop, closed loop) ----------------
    let registry = registry_with_warm_cache();
    let metrics = Arc::new(ServiceMetrics::new());
    let server = Server::start(Arc::clone(&registry), Arc::clone(&metrics), drive_config())
        .expect("event-loop server starts");
    let addr = server.local_addr();
    for &connections in &sweep {
        let total = 2048usize.max(connections * 4) / connections * connections;
        let secs = closed_loop(addr, connections, total);
        let qps = total as f64 / secs.max(1e-9);
        let us_per_request = secs * 1e6 / total as f64;
        rows.push(vec![
            format!("sweep:{connections}"),
            total.to_string(),
            format!("{us_per_request:.1}"),
            format!("{qps:.0}"),
        ]);
        json_lines.push(
            serde_json::to_string(&Value::Object(vec![
                ("bench".into(), Value::string("serving_scale")),
                (
                    "connections".into(),
                    Value::Number(Number::PosInt(connections as u64)),
                ),
                (
                    "requests".into(),
                    Value::Number(Number::PosInt(total as u64)),
                ),
                (
                    "us_per_request".into(),
                    Value::Number(Number::Float(us_per_request)),
                ),
                ("qps".into(), Value::Number(Number::Float(qps))),
            ]))
            .expect("flat object"),
        );
    }
    server.shutdown();

    // ---- 2. 256-connection open-loop drive -----------------------------
    // ~100 req/s per client; completions are what count.
    let interval = Duration::from_millis(10);
    let server = Server::start(
        registry_with_warm_cache(),
        Arc::new(ServiceMetrics::new()),
        drive_config(),
    )
    .expect("event-loop server starts");
    let completed = open_loop(server.local_addr(), drive_connections, interval, window);
    server.shutdown();

    let offered = drive_connections as u64 * (window.as_nanos() / interval.as_nanos()) as u64;
    let completed_frac = completed as f64 / offered as f64;
    let qps = completed as f64 / window.as_secs_f64();
    assert!(
        completed_frac >= MIN_COMPLETED_FRAC,
        "the event loop must complete ≥ {:.0}% of the requests offered at \
         {drive_connections} connections, got {:.1}% ({completed} of {offered})",
        MIN_COMPLETED_FRAC * 100.0,
        completed_frac * 100.0
    );
    rows.push(vec![
        format!("open-loop:{drive_connections}"),
        format!("{completed} of {offered}"),
        String::new(),
        format!("{qps:.0}"),
    ]);
    json_lines.push(
        serde_json::to_string(&Value::Object(vec![
            ("bench".into(), Value::string("serving_scale_gate")),
            (
                "connections".into(),
                Value::Number(Number::PosInt(drive_connections as u64)),
            ),
            ("offered".into(), Value::Number(Number::PosInt(offered))),
            ("completed".into(), Value::Number(Number::PosInt(completed))),
            (
                "completed_frac".into(),
                Value::Number(Number::Float(completed_frac)),
            ),
            ("qps".into(), Value::Number(Number::Float(qps))),
        ]))
        .expect("flat object"),
    );

    emit(
        "Connection-scale serving (event loop)",
        &["what", "requests | conns", "µs/request", "qps"],
        &rows,
        config.csv,
    );
    println!("\n--- JSON ---");
    for line in &json_lines {
        println!("{line}");
    }
}
