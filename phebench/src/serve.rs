//! The serving workloads, `serve-hot` and `serve-expr`: closed-loop
//! NDJSON load over loopback TCP against an in-process event-loop server,
//! plus the in-process twin every answer is checked against.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use phe_core::snapshot::EstimatorSnapshot;
use phe_core::{EstimatorConfig, LabelPath, PathSelectivityEstimator};
use phe_graph::{Graph, LabelId};
use phe_histogram::AccuracyReport;
use phe_query::ExpandOptions;
use phe_service::protocol::{ok_response, PathStep, Request};
use phe_service::registry::MaintenanceState;
use phe_service::{
    EstimatorRegistry, ServableEstimator, Server, ServerConfig, ServiceMetrics, ServingEstimator,
};
use serde_json::{Number, Value};

use crate::inputs::{self, stream, Draw, GraphShape, Requests};
use crate::rng::Rng;
use crate::stats::{self, Sample};
use crate::trace::{LayerRow, LayerTable, Tracer};
use crate::workload::{self, Outcome, RunOpts, Values};

/// The slot every workload serves from.
pub const SLOT: &str = "default";
/// Load connections, one thread each: the machine's two cores.
pub const CONNECTIONS: usize = 2;
/// Request lines pre-generated per connection (the stream cycles).
const LINES_PER_CONNECTION: usize = 8192;
/// Requests whose answers are compared bit for bit with the twin.
const VERIFY_REQUESTS: usize = 1000;
/// Request lines the traced run replays through each layer.
const REPLAY_REQUESTS: usize = 2000;

/// The graph and statistics every serving workload shares.
pub struct ServeShape {
    /// The graph.
    pub graph: GraphShape,
    /// Maximum path length.
    pub k: usize,
    /// Histogram buckets.
    pub beta: usize,
}

impl ServeShape {
    /// `narrow_chained` 32 labels × 640 edges over 6,000 vertices, k = 4,
    /// β = 256 (a tiny variant under `--smoke`).
    pub fn for_run(opts: &RunOpts) -> ServeShape {
        if opts.smoke {
            ServeShape {
                graph: GraphShape {
                    labels: 8,
                    edges_per_label: 60,
                    vertices: 400,
                    width: 0.15,
                },
                k: 3,
                beta: 32,
            }
        } else {
            ServeShape {
                graph: GraphShape {
                    labels: 32,
                    edges_per_label: 640,
                    vertices: 6000,
                    width: 0.08,
                },
                k: 4,
                beta: 256,
            }
        }
    }

    /// The estimator configuration: one build thread, the background
    /// rebuild default, and the sparse catalog retained so the base can be
    /// maintained.
    pub fn config(&self) -> EstimatorConfig {
        EstimatorConfig {
            k: self.k,
            beta: self.beta,
            threads: 1,
            retain_sparse: true,
            ..EstimatorConfig::default()
        }
    }
}

/// A running server over freshly built statistics, with its in-process
/// twin.
pub struct Deployment {
    /// The graph the statistics were built from.
    pub graph: Graph,
    /// Its label names, by id.
    pub label_names: Vec<String>,
    /// Every realized path with its exact count.
    pub realized: Vec<(Vec<LabelId>, u64)>,
    /// The estimator configuration.
    pub config: EstimatorConfig,
    /// The serving registry.
    pub registry: Arc<EstimatorRegistry>,
    /// The server's metrics (its cache counters are the registry's).
    pub metrics: Arc<ServiceMetrics>,
    /// The server.
    pub server: Server,
    /// The statistics restored separately, with caches of its own: what
    /// served answers must equal.
    pub twin: Arc<ServingEstimator>,
    /// The statistics as shipped, for more fresh twins.
    pub snapshot: EstimatorSnapshot,
}

impl Deployment {
    /// Generates the graph, builds the statistics, registers them and
    /// starts the server. A `maintained` slot keeps the graph and the
    /// sparse catalog so deltas can be published into it.
    pub fn start(shape: &ServeShape, seed: u64, maintained: bool) -> Deployment {
        let graph = inputs::chained_graph(shape.graph, seed);
        let config = shape.config();
        let estimator = PathSelectivityEstimator::build(&graph, config).expect("base build");
        let realized = estimator
            .sparse_catalog()
            .expect("retain_sparse keeps the catalog")
            .iter_nonzero()
            .collect();
        let snapshot = estimator.snapshot().expect("sum-based statistics snapshot");
        let label_names = snapshot.label_names.clone();
        let metrics = Arc::new(ServiceMetrics::new());
        let registry = Arc::new(EstimatorRegistry::new(
            metrics.cache_counters(),
            EstimatorRegistry::DEFAULT_CACHE_CAPACITY,
        ));
        if maintained {
            let servable = ServableEstimator::from_snapshot(&snapshot).expect("restore");
            registry
                .register_if_version_maintained(
                    SLOT,
                    servable,
                    0,
                    Some(MaintenanceState {
                        graph: graph.clone(),
                        estimator,
                    }),
                )
                .expect("fresh slot");
        } else {
            registry.register(SLOT, ServableEstimator::from_estimator(estimator));
        }
        let server = Server::start(
            Arc::clone(&registry),
            Arc::clone(&metrics),
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 2,
                allow_load: false,
                shards: 1,
                // Admission limits sit far above what the load drives, so
                // nothing is refused or shed.
                max_connections: 64,
                max_inflight_per_client: 64,
                shed_queue_depth: 1 << 20,
                shed_p99: None,
            },
        )
        .expect("bind loopback");
        let twin = fresh_twin(&snapshot);
        Deployment {
            graph,
            label_names,
            realized,
            config,
            registry,
            metrics,
            server,
            twin,
            snapshot,
        }
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops the server and joins its threads.
    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// A freshly restored generation with cold caches of its own.
pub fn fresh_twin(snapshot: &EstimatorSnapshot) -> Arc<ServingEstimator> {
    let registry = EstimatorRegistry::with_default_counters();
    registry.register(
        SLOT,
        ServableEstimator::from_snapshot(snapshot).expect("restore"),
    );
    registry.get(SLOT).expect("just registered")
}

/// What one closed loop saw.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Round trips completed inside the measured window.
    pub samples: Vec<Sample>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests answered with an error line or not answered.
    pub failed: u64,
    /// Bytes sent inside the window, newlines included.
    pub request_bytes: u64,
    /// Bytes received inside the window, newlines included.
    pub response_bytes: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
}

/// Opens a client connection.
fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// A closed loop on one connection: send a line, wait for its answer,
/// send the next. Runs until `end` or until `stop` is raised; round trips
/// starting at or after `window` are measured (earlier ones warm up).
pub fn closed_loop(
    addr: SocketAddr,
    lines: &[String],
    window: Instant,
    end: Instant,
    stop: &AtomicBool,
    tracer: &mut Tracer,
    op_base: u64,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let (mut writer, mut reader) = match connect(addr) {
        Ok(pair) => pair,
        Err(e) => {
            stats.attempted = 1;
            stats.failed = 1;
            stats.first_error = Some(format!("connect: {e}"));
            return stats;
        }
    };
    let wire: Vec<Vec<u8>> = lines
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    let mut response = Vec::with_capacity(4096);
    let mut i = 0usize;
    // ORDERING: a stop flag only; the writer's results travel through the
    // scope join, not through this flag.
    while !stop.load(Ordering::Relaxed) {
        let start = Instant::now();
        if start >= end {
            break;
        }
        let line = &wire[i % wire.len()];
        stats.attempted += 1;
        response.clear();
        let sent = writer.write_all(line);
        let received = sent.and_then(|()| reader.read_until(b'\n', &mut response));
        let done = Instant::now();
        let ok = matches!(received, Ok(n) if n > 0) && response.starts_with(b"{\"ok\":true");
        if !ok {
            stats.failed += 1;
            if stats.first_error.is_none() {
                stats.first_error = Some(match &received {
                    Err(e) => format!("i/o: {e}"),
                    Ok(_) => String::from_utf8_lossy(&response).trim().to_owned(),
                });
            }
            if received.is_err() || response.is_empty() {
                break;
            }
        } else if start >= window {
            let busy = done - start;
            stats.samples.push(Sample {
                at: (done - window).as_secs_f64(),
                ms: busy.as_secs_f64() * 1e3,
            });
            stats.request_bytes += line.len() as u64;
            stats.response_bytes += response.len() as u64;
            tracer.record(
                "client.request",
                op_base + i as u64,
                start,
                busy.as_nanos() as u64,
            );
        }
        i += 1;
    }
    stats
}

/// Runs one closed loop per stream (one connection each) through the
/// warm-up and the measured window, calling `at_window_open` as the
/// window opens; returns the per-connection stats.
pub fn drive(
    addr: SocketAddr,
    streams: &[Requests],
    opts: &RunOpts,
    tracer: &mut Tracer,
    at_window_open: impl FnOnce(),
) -> Vec<LoopStats> {
    let window = Instant::now() + opts.warmup();
    let end = window + opts.window();
    let stop = AtomicBool::new(false);
    let mut loops = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, requests)| {
                let stop = &stop;
                let enabled = tracer.enabled();
                scope.spawn(move || {
                    let mut local = Tracer::new(enabled);
                    let stats = closed_loop(
                        addr,
                        &requests.lines,
                        window,
                        end,
                        stop,
                        &mut local,
                        (c as u64) << 40,
                    );
                    (stats, local)
                })
            })
            .collect();
        std::thread::sleep(window.saturating_duration_since(Instant::now()));
        at_window_open();
        for handle in handles {
            let (stats, local) = handle.join().expect("load thread panicked");
            tracer.absorb(local);
            loops.push(stats);
        }
    });
    loops
}

/// Sends `lines` one at a time on a fresh connection, checks each answer
/// with `check` (line index, parsed response), and records the attempts,
/// the failures and the check in `out`.
fn verify(
    out: &mut Outcome,
    addr: SocketAddr,
    lines: &[String],
    check: impl Fn(usize, &Value) -> Result<(), String>,
) {
    let (mut failed, mut first) = (0u64, None);
    match connect(addr) {
        Ok((mut writer, mut reader)) => {
            for (i, line) in lines.iter().enumerate() {
                let mut response = String::new();
                let result = writer
                    .write_all(format!("{line}\n").as_bytes())
                    .and_then(|()| reader.read_line(&mut response))
                    .map_err(|e| format!("i/o: {e}"))
                    .and_then(|_| {
                        serde_json::from_str::<Value>(response.trim()).map_err(|e| format!("{e}"))
                    })
                    .and_then(|value| check(i, &value));
                if let Err(e) = result {
                    failed += 1;
                    first.get_or_insert(format!("request {i}: {e}"));
                }
            }
        }
        Err(e) => {
            failed = lines.len() as u64;
            first = Some(format!("connect: {e}"));
        }
    }
    out.attempted += lines.len() as u64;
    out.failed += failed;
    out.check(
        format!(
            "{} TCP answers equal the in-process twin bit for bit",
            lines.len()
        ),
        failed == 0,
    );
    if let Some(e) = first {
        out.note(format!("answer check: {e}"));
    }
}

/// The `estimates` of an `estimate` answer, checked bit for bit.
fn estimates_match(value: &Value, expected: &[f64]) -> Result<(), String> {
    let got: Vec<f64> = value
        .get("estimates")
        .and_then(Value::as_array)
        .ok_or("no estimates in the answer")?
        .iter()
        .map(|v| v.as_f64().ok_or("non-numeric estimate"))
        .collect::<Result<_, _>>()?;
    let same = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("served {got:?}, expected {expected:?}"))
    }
}

/// Latency figures of a set of closed loops.
fn loop_metrics(values: &mut Values, out: &mut Outcome, loops: &[LoopStats], seconds: f64) {
    let samples: Vec<Sample> = loops
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    for (c, l) in loops.iter().enumerate() {
        out.attempted += l.attempted;
        out.failed += l.failed;
        out.note(format!(
            "connection {c}: {} measured round trips, {} sent, {} failed",
            l.samples.len(),
            l.attempted,
            l.failed
        ));
        if let Some(e) = &l.first_error {
            out.note(format!("connection {c}: first failure: {e}"));
        }
    }
    if samples.is_empty() {
        out.check("load produced measured round trips", false);
        return;
    }
    let (p50, p99) = stats::whole_run(&samples);
    out.note(format!(
        "whole window: {} round trips = {:.0}/s, p50 {:.4} ms, p99 {:.4} ms",
        samples.len(),
        samples.len() as f64 / seconds,
        p50,
        p99
    ));
    let quiet = stats::quiet(&samples, seconds);
    out.note(format!(
        "quietest quarter: {} round trips, p50 {:.4} ms, p90 {:.4} ms",
        quiet.quarter_n, quiet.p50, quiet.p90
    ));
    values.insert("lat_p50_ms", quiet.p50);
}

/// Accuracy of estimates against exact counts: mean |err| (Formula 6)
/// and the geometric-mean q-error into `values`, the p95 q-error into
/// `per_layer` (a mean of logs is as steady across seeds as the error
/// rate; a p95 swings with the graph).
pub fn accuracy(values: &mut Values, per_layer: &mut Values, estimates: &[f64], truths: &[u64]) {
    let report = AccuracyReport::evaluate(estimates, truths);
    values.insert("error_rate", report.mean_abs_error_rate);
    per_layer.insert("histogram.q_error_p95", report.p95_q_error);
    let log_sum: f64 = estimates
        .iter()
        .zip(truths)
        .map(|(&e, &t)| phe_histogram::q_error(e, t).ln())
        .sum();
    values.insert("q_error_gmean", (log_sum / estimates.len() as f64).exp());
}

/// Mean time per call of `f` over `items`, ns: one span per chunk of
/// calls, so nanosecond calls are not drowned by clock reads.
fn probe_ns<T>(
    tracer: &mut Tracer,
    name: &'static str,
    items: &[T],
    rounds: usize,
    mut f: impl FnMut(&T),
) -> f64 {
    const CHUNK: usize = 256;
    let before = tracer.totals(name).busy_ns;
    let mut calls = 0u64;
    for _ in 0..rounds {
        for (c, chunk) in items.chunks(CHUNK).enumerate() {
            tracer.span(name, c as u64, |_| {
                for item in chunk {
                    f(item);
                }
            });
            calls += chunk.len() as u64;
        }
    }
    (tracer.totals(name).busy_ns - before) as f64 / calls.max(1) as f64
}

/// Replays request lines through the layers a server runs for them —
/// parse, pin the generation, estimate, serialize — each in its own span,
/// and returns the per-request layer rows (µs).
fn replay_requests(
    tracer: &mut Tracer,
    registry: &EstimatorRegistry,
    lines: &[String],
) -> Vec<LayerRow> {
    let mut middle = "cache.estimate";
    for (i, line) in lines.iter().enumerate() {
        let op = i as u64;
        tracer.span("replay.request", op, |t| {
            let request = t
                .span("protocol.parse", op, |_| Request::parse(line))
                .expect("generated lines parse");
            let generation = t
                .span("registry.pin", op, |_| registry.get(SLOT))
                .expect("slot registered");
            let fields = match request {
                Request::Estimate { paths, .. } => {
                    let ids: Vec<Vec<LabelId>> = paths
                        .iter()
                        .map(|p| {
                            p.iter()
                                .map(|s| match s {
                                    PathStep::Id(id) => LabelId(*id),
                                    PathStep::Name(n) => {
                                        generation.estimator().resolve(n).expect("known label")
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    let estimates = t
                        .span("cache.estimate", op, |_| generation.estimate_id_batch(&ids))
                        .expect("valid paths");
                    vec![
                        (
                            "version".to_owned(),
                            Value::Number(Number::PosInt(generation.version())),
                        ),
                        (
                            "estimates".to_owned(),
                            Value::Array(
                                estimates
                                    .into_iter()
                                    .map(|e| Value::Number(Number::Float(e)))
                                    .collect(),
                            ),
                        ),
                    ]
                }
                Request::EstimateExpr { exprs, .. } => {
                    middle = "query.estimate_expr";
                    let outcomes: Vec<_> = t.span("query.estimate_expr", op, |_| {
                        exprs
                            .iter()
                            .map(|e| {
                                generation
                                    .estimate_expr(e, false)
                                    .expect("valid expression")
                            })
                            .collect()
                    });
                    let rows = outcomes
                        .into_iter()
                        .map(|o| {
                            Value::Object(vec![
                                ("estimate".into(), Value::Number(Number::Float(o.total))),
                                ("paths".into(), Value::Number(Number::PosInt(o.width))),
                                ("pruned".into(), Value::Number(Number::PosInt(o.pruned))),
                                (
                                    "truncated".into(),
                                    Value::Number(Number::PosInt(o.truncated)),
                                ),
                                ("matches_empty".into(), Value::Bool(o.matches_empty)),
                                ("cached".into(), Value::Bool(o.cached)),
                            ])
                        })
                        .collect();
                    vec![
                        (
                            "version".to_owned(),
                            Value::Number(Number::PosInt(generation.version())),
                        ),
                        ("results".to_owned(), Value::Array(rows)),
                    ]
                }
                other => unreachable!("the workloads send no {other:?}"),
            };
            std::hint::black_box(t.span("protocol.serialize", op, |_| ok_response(fields)));
        });
    }
    let n = lines.len().max(1) as f64;
    [
        "protocol.parse",
        "registry.pin",
        middle,
        "protocol.serialize",
    ]
    .iter()
    .map(|name| {
        let agg = tracer.totals(name);
        LayerRow {
            name: (*name).to_owned(),
            busy: agg.busy_ns as f64 / n / 1e3,
            self_time: agg.self_ns as f64 / n / 1e3,
        }
    })
    .collect()
}

/// The serving per-layer figures shared by both serving workloads: the
/// request replay through each layer against the window's mean round trip,
/// line sizes, per-path probes, cache hit rates and stage timers.
fn serving_layers(
    out: &mut Outcome,
    tracer: &mut Tracer,
    dep: &Deployment,
    window: &Window,
    lines: &[String],
    probe_paths: &[LabelPath],
    title: &str,
) {
    let loops = &window.loops;
    let samples: Vec<f64> = loops
        .iter()
        .flat_map(|l| l.samples.iter().map(|s| s.ms * 1e3))
        .collect();
    let n = samples.len().max(1) as f64;
    let request_bytes: u64 = loops.iter().map(|l| l.request_bytes).sum();
    let response_bytes: u64 = loops.iter().map(|l| l.response_bytes).sum();
    // The run's own lines: connection 0's stream, as far as it was sent.
    let sent = loops[0]
        .samples
        .len()
        .clamp(1, REPLAY_REQUESTS.min(lines.len()));
    let rows = replay_requests(tracer, &dep.registry, &lines[..sent]);
    let table = LayerTable::new(title, "us", stats::mean(&samples), rows);
    let values = &mut out.per_layer;
    for row in &table.rows {
        match row.name.as_str() {
            "protocol.parse" => values.insert("protocol.parse_us", row.busy),
            "protocol.serialize" => values.insert("protocol.serialize_us", row.busy),
            "registry.pin" => values.insert("registry.pin_ns", row.busy * 1e3),
            "unattributed" => values.insert("eventloop.transport_us", row.busy),
            _ => None,
        };
    }
    values.insert("protocol.request_bytes", request_bytes as f64 / n);
    values.insert("protocol.response_bytes", response_bytes as f64 / n);
    values.insert("cache.path_hit_rate", window.hit_rates[0]);
    values.insert("cache.expr_hit_rate", window.hit_rates[1]);
    workload::stage_metrics(values, &window.stages.0, &window.stages.1, n as u64);

    // Per-path layer probes over the same paths: a warm per-path cache
    // hit, and the uncached histogram probe underneath it.
    let generation = dep.registry.get(SLOT).expect("slot registered");
    for p in probe_paths {
        generation.estimate(p);
    }
    let lookup = probe_ns(tracer, "cache.lookup", probe_paths, 4, |p| {
        std::hint::black_box(generation.estimate(p));
    });
    let servable = generation.estimator();
    let probe = probe_ns(tracer, "histogram.probe", probe_paths, 4, |p| {
        std::hint::black_box(servable.estimate(p));
    });
    values.insert("cache.lookup_ns", lookup);
    values.insert("histogram.probe_ns", probe);
    out.tables.push(table);
}

/// Hits and misses of the per-path and expression caches.
fn cache_counts(dep: &Deployment) -> [(u64, u64); 2] {
    let counters = dep.metrics.cache_counters();
    let expr = dep
        .registry
        .list()
        .into_iter()
        .find(|row| row.name == SLOT)
        .map_or((0, 0), |row| row.expr_cache);
    [(counters.hits(), counters.misses()), expr]
}

/// What the measured window of a serving workload saw.
struct Window {
    loops: Vec<LoopStats>,
    /// Per-path and expression cache hit rates over the window.
    hit_rates: [f64; 2],
    /// Stage snapshots at the window's open and close.
    stages: (Vec<u64>, Vec<u64>),
}

/// Drives the streams through the warm-up and the window, reading the
/// cache counters and the program's stage timers as the window opens and
/// closes.
fn measure(dep: &Deployment, streams: &[Requests], opts: &RunOpts, tracer: &mut Tracer) -> Window {
    let mut open = None;
    let loops = drive(dep.addr(), streams, opts, tracer, || {
        open = Some((cache_counts(dep), workload::stage_snapshot()));
    });
    let (before, stages_before) = open.expect("the window opened");
    let stages_after = workload::stage_snapshot();
    let after = cache_counts(dep);
    let rate = |(h0, m0): (u64, u64), (h1, m1): (u64, u64)| {
        let (h, m) = (h1 - h0, m1 - m0);
        h as f64 / (h + m).max(1) as f64
    };
    Window {
        loops,
        hit_rates: [rate(before[0], after[0]), rate(before[1], after[1])],
        stages: (stages_before, stages_after),
    }
}

/// One request stream per load connection, and the verification requests,
/// each from its own random stream of the seed.
fn request_streams(
    opts: &RunOpts,
    pool_len: usize,
    per_request: usize,
    draw: Draw,
    render: impl Fn(&[usize]) -> String,
) -> (Vec<Requests>, Requests) {
    let make = |stream, count| {
        let mut rng = Rng::new(opts.seed, stream);
        inputs::requests(pool_len, count, per_request, draw, &mut rng, &render)
    };
    (
        (0..CONNECTIONS)
            .map(|c| make(stream::REQUESTS + c as u64, LINES_PER_CONNECTION))
            .collect(),
        make(stream::VERIFY, VERIFY_REQUESTS),
    )
}

/// The `serve-hot` workload: `estimate` requests of 16 label-id paths
/// drawn Zipf(0.99) from up to 4,096 realized paths. The working set fits
/// the per-path LRU, so estimation is a cache hit and the time goes to
/// the socket, NDJSON framing, JSON parse and serialize, and the event
/// loop.
pub fn serve_hot(opts: &RunOpts) -> Outcome {
    const POOL: usize = 4096;
    const PATHS_PER_REQUEST: usize = 16;
    let shape = ServeShape::for_run(opts);
    let ((dep, pool, streams, checks), setup_s) = workload::timed_setups(
        || {
            let dep = Deployment::start(&shape, opts.seed, false);
            let pool = inputs::path_pool(&dep.realized, POOL, opts.seed);
            let (streams, checks) = request_streams(
                opts,
                pool.len(),
                PATHS_PER_REQUEST,
                Draw::Zipf(0.99),
                |picks| {
                    let paths: Vec<&[LabelId]> = picks
                        .iter()
                        .map(|&i| dep.realized[pool[i]].0.as_slice())
                        .collect();
                    inputs::estimate_line(&paths)
                },
            );
            (dep, pool, streams, checks)
        },
        |(dep, ..)| dep.stop(),
    );
    let mut out = Outcome::default();
    out.note(format!(
        "graph: {} labels, {} vertices, {} edges; {} realized paths (k = {}), pool {}",
        dep.graph.label_count(),
        dep.graph.vertex_count(),
        dep.graph.edge_count(),
        dep.realized.len(),
        shape.k,
        pool.len()
    ));
    let mut tracer = Tracer::new(opts.trace);
    let window = measure(&dep, &streams, opts, &mut tracer);
    out.note(format!(
        "per-path cache hit rate over the window: {:.4}",
        window.hit_rates[0]
    ));
    let mut values = Values::new();
    loop_metrics(&mut values, &mut out, &window.loops, opts.seconds);

    // Answer checks: 1,000 seeded requests over TCP against the twin.
    let expected: Vec<Vec<f64>> = checks
        .items
        .iter()
        .map(|picks| {
            let paths: Vec<Vec<LabelId>> = picks
                .iter()
                .map(|&i| dep.realized[pool[i]].0.clone())
                .collect();
            dep.twin.estimate_id_batch(&paths).expect("valid paths")
        })
        .collect();
    verify(&mut out, dep.addr(), &checks.lines, |i, value| {
        estimates_match(value, &expected[i])
    });

    // Accuracy over the whole pool, against the exact counts.
    let (estimates, truths): (Vec<f64>, Vec<u64>) = pool
        .iter()
        .map(|&i| {
            let (path, count) = &dep.realized[i];
            let estimate = dep.twin.estimator().estimate_labels(path);
            (estimate.expect("valid path"), *count)
        })
        .unzip();
    accuracy(&mut values, &mut out.per_layer, &estimates, &truths);
    values.insert("setup_s", setup_s);

    if opts.trace {
        let probe_paths: Vec<LabelPath> = pool
            .iter()
            .map(|&i| LabelPath::new(&dep.realized[i].0))
            .collect();
        serving_layers(
            &mut out,
            &mut tracer,
            &dep,
            &window,
            &streams[0].lines,
            &probe_paths,
            "serve-hot: request round trip",
        );
        out.tracer = Some(tracer);
    }
    dep.stop();
    values.insert("peak_rss_mb", workload::peak_rss_mb());
    out.end_to_end = values;
    out
}

/// The `serve-expr` workload: `estimate_expr` requests of 8 expressions
/// drawn uniformly from a pool of distinct expressions 16× the expression
/// cache. Parse, expand, prune and histogram probes dominate the server's
/// work — the opposite of `serve-hot`, where transport does.
pub fn serve_expr(opts: &RunOpts) -> Outcome {
    const EXPRS_PER_REQUEST: usize = 8;
    // Larger than the expression cache even under --smoke, so misses (and
    // the expand and estimate stages behind them) always occur.
    let pool_size = if opts.smoke { 2 } else { 16 } * EstimatorRegistry::EXPR_CACHE_CAPACITY;
    let shape = ServeShape::for_run(opts);
    let ((dep, pool, streams, checks), setup_s) = workload::timed_setups(
        || {
            let dep = Deployment::start(&shape, opts.seed, false);
            let pool = inputs::expression_pool(
                &dep.realized,
                &dep.label_names,
                shape.k,
                pool_size,
                opts.seed,
            );
            let (streams, checks) = request_streams(
                opts,
                pool.len(),
                EXPRS_PER_REQUEST,
                Draw::Uniform,
                |picks| {
                    let exprs: Vec<&str> = picks.iter().map(|&i| pool[i].as_str()).collect();
                    inputs::estimate_expr_line(&exprs)
                },
            );
            (dep, pool, streams, checks)
        },
        |(dep, ..)| dep.stop(),
    );
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(opts.trace);
    let window = measure(&dep, &streams, opts, &mut tracer);
    out.note(format!(
        "expression pool: {} distinct normalized expressions ({:.1}x the {}-entry cache); \
         hit rates over the window: expression {:.4}, per-path {:.4}",
        pool.len(),
        pool.len() as f64 / EstimatorRegistry::EXPR_CACHE_CAPACITY as f64,
        EstimatorRegistry::EXPR_CACHE_CAPACITY,
        window.hit_rates[1],
        window.hit_rates[0]
    ));
    let mut values = Values::new();
    loop_metrics(&mut values, &mut out, &window.loops, opts.seconds);

    // Answer checks against the twin, expression by expression: the total
    // bit for bit, and the branch count.
    let twin = &dep.twin;
    let answer = |i: usize| {
        let o = twin
            .estimate_expr(&pool[i], false)
            .expect("valid expression");
        (o.total, o.width)
    };
    let expected: Vec<Vec<(f64, u64)>> = checks
        .items
        .iter()
        .map(|picks| picks.iter().map(|&i| answer(i)).collect())
        .collect();
    verify(&mut out, dep.addr(), &checks.lines, |i, value| {
        let rows = value
            .get("results")
            .and_then(Value::as_array)
            .ok_or("no results in the answer")?;
        let got: Vec<(f64, u64)> = rows
            .iter()
            .map(|r| Some((r.get("estimate")?.as_f64()?, r.get("paths")?.as_u64()?)))
            .collect::<Option<_>>()
            .ok_or("malformed result row")?;
        let same = got.len() == expected[i].len()
            && got
                .iter()
                .zip(&expected[i])
                .all(|(a, b)| a.0.to_bits() == b.0.to_bits() && a.1 == b.1);
        if same {
            Ok(())
        } else {
            Err(format!("served {got:?}, expected {:?}", expected[i]))
        }
    });

    // Accuracy over the checked expressions: an expression's exact count
    // is the sum of its branches' (branches are disjoint label paths).
    let exact: HashMap<&[LabelId], u64> = dep
        .realized
        .iter()
        .map(|(p, c)| (p.as_slice(), *c))
        .collect();
    let follow = twin.estimator().follow().cloned();
    let mut expand = ExpandOptions::new(dep.label_names.len(), shape.k);
    if let Some(f) = follow.as_ref() {
        expand = expand.with_follow(f);
    }
    let checked: std::collections::BTreeSet<usize> =
        checks.items.iter().flatten().copied().collect();
    let mut estimates = Vec::new();
    let mut truths = Vec::new();
    let mut widths = Vec::new();
    let mut pruned = 0u64;
    let mut branch_paths: Vec<LabelPath> = Vec::new();
    for &i in &checked {
        let expr = phe_query::parse_expr(&dep.label_names[..], &pool[i])
            .expect("generated expressions parse")
            .normalize();
        let expansion = expr.expand(&expand).expect("expands");
        let truth = expansion.paths.iter();
        truths.push(
            truth
                .map(|p| exact.get(p.as_label_ids()).copied().unwrap_or(0))
                .sum::<u64>(),
        );
        estimates.push(answer(i).0);
        widths.push(expansion.paths.len() as f64);
        pruned += expansion.pruned;
        if branch_paths.len() < 4096 {
            branch_paths.extend(expansion.paths.iter().copied());
        }
    }
    accuracy(&mut values, &mut out.per_layer, &estimates, &truths);
    values.insert("setup_s", setup_s);
    out.note(format!(
        "checked expressions: {} distinct, {:.1} branches each after pruning",
        widths.len(),
        stats::mean(&widths)
    ));

    if opts.trace {
        serving_layers(
            &mut out,
            &mut tracer,
            &dep,
            &window,
            &streams[0].lines,
            &branch_paths,
            "serve-expr: request round trip",
        );
        // Query-layer probes over the checked expressions: parse and
        // normalize, expand with the follow matrix, and a full
        // `estimate_expr` on a miss (a fresh generation, so every
        // expression is new to its cache).
        let sources: Vec<&str> = checked.iter().map(|&i| pool[i].as_str()).collect();
        let names = &dep.label_names[..];
        let mut parsed = Vec::with_capacity(sources.len());
        for (i, source) in sources.iter().enumerate() {
            parsed.push(tracer.span("query.parse", i as u64, |_| {
                phe_query::parse_expr(names, source)
                    .expect("generated expressions parse")
                    .normalize()
            }));
        }
        for (i, expr) in parsed.iter().enumerate() {
            tracer.span("query.expand", i as u64, |_| {
                std::hint::black_box(expr.expand(&expand).expect("expands"));
            });
        }
        let cold = fresh_twin(&dep.snapshot);
        for (i, source) in sources.iter().enumerate() {
            tracer.span("query.expr", i as u64, |_| {
                std::hint::black_box(cold.estimate_expr(source, false).expect("valid"));
            });
        }
        let per = |name: &str| tracer.totals(name).mean(1e3);
        let branches: f64 = widths.iter().sum();
        let values = &mut out.per_layer;
        values.insert("query.parse_us", per("query.parse"));
        values.insert("query.expand_us", per("query.expand"));
        values.insert("query.expr_us", per("query.expr"));
        values.insert("query.branches_per_expr", stats::mean(&widths));
        values.insert(
            "query.prune_ratio",
            pruned as f64 / (pruned as f64 + branches).max(1.0),
        );
        out.tracer = Some(tracer);
    }
    dep.stop();
    values.insert("peak_rss_mb", workload::peak_rss_mb());
    out.end_to_end = values;
    out
}
