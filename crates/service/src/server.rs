//! Request handling and the server configuration.
//!
//! The protocol logic — dispatch one parsed request against the shared
//! [`EstimatorRegistry`] and render one response line — lives here as
//! `handle_request`; the event loop ([`crate::eventloop`]) parses each
//! line on its shard thread and runs the heavy ops on dispatch workers.
//! Every `delta` goes through the server's [`MaintenanceCoordinator`].
//! Per-request latency, path counts, and errors land in
//! [`ServiceMetrics`]; the CLI prints the report on SIGINT/shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::estimator::ServableEstimator;
use crate::maintenance::{EnqueueError, MaintenanceConfig, MaintenanceCoordinator, SlotStatus};
use crate::metrics::{Op, ServiceMetrics};
use crate::protocol::{
    backpressure_response, error_response, write_metrics, write_ok, MaintenanceAction,
    ObjectWriter, PathStep, Request,
};
use crate::registry::{EstimatorInfo, EstimatorRegistry, ExprOutcome, MaintenanceState};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 ⇒ ephemeral).
    pub addr: String,
    /// Dispatch worker threads for CPU-heavy ops (`rebuild`, large
    /// `estimate` / `estimate_expr` batches).
    pub workers: usize,
    /// Whether `load` requests may read snapshot files from this host.
    pub allow_load: bool,
    /// Event-loop shards multiplexing connections (0 ⇒ pick from core
    /// count).
    pub shards: usize,
    /// Admission: connections past this cap are refused at accept with a
    /// structured `overloaded` line (`reason = "capacity"`), then closed.
    pub max_connections: usize,
    /// Admission: per-peer-address in-flight request quota. A request
    /// arriving while the peer already has this many in flight is refused
    /// with `reason = "quota"`.
    pub max_inflight_per_client: usize,
    /// Load shedding: expensive ops are refused with `reason = "shed"`
    /// while more than this many dispatched requests are queued. This is
    /// the dispatch queue's only bound; the queue allocates per queued
    /// job, so raising it reserves no memory up front.
    pub shed_queue_depth: usize,
    /// Load shedding: expensive ops are refused with `reason = "shed"`
    /// while the recent p99 request latency exceeds this threshold
    /// (`None` disables the latency trigger).
    pub shed_p99: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_owned(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get() * 2)
                .unwrap_or(8),
            allow_load: true,
            shards: 0,
            max_connections: 1024,
            max_inflight_per_client: 64,
            shed_queue_depth: 128,
            shed_p99: None,
        }
    }
}

impl ServerConfig {
    /// The shard count to run with: the configured value, or (when 0) one
    /// shard per two cores, clamped to [1, 4] — connection multiplexing is
    /// readiness-bound, not CPU-bound, so a few shards go a long way.
    pub(crate) fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| (n.get() / 2).clamp(1, 4))
            .unwrap_or(1)
    }
}

/// Answers one parsed request by writing its response line into `out`
/// (no newline); returns `(paths_estimated, ok)`. The event loop parses
/// on its shard thread, classifies, and runs the heavy ops on dispatch
/// workers.
pub(crate) fn handle_request(
    request: Request,
    registry: &Arc<EstimatorRegistry>,
    metrics: &Arc<ServiceMetrics>,
    maintenance: &Arc<MaintenanceCoordinator>,
    allow_load: bool,
    out: &mut String,
) -> (usize, bool) {
    metrics.record_op(match &request {
        Request::Ping => Op::Ping,
        Request::List => Op::List,
        Request::Metrics { .. } => Op::Metrics,
        Request::Estimate { .. } => Op::Estimate,
        Request::EstimateExpr { .. } => Op::EstimateExpr,
        Request::Delta { .. } => Op::Delta,
        Request::Rebuild { .. } => Op::Rebuild,
        Request::Load { .. } => Op::Load,
        Request::Maintenance { .. } => Op::Maintenance,
    });
    match request {
        Request::Ping => {
            write_ok(out, |_| {});
            (0, true)
        }
        Request::List => {
            let rows = registry.list();
            write_ok(out, |o| {
                o.array("estimators", |a| {
                    for info in &rows {
                        let status = maintenance.status(&info.name);
                        a.object(|row| write_list_row(row, info, &status));
                    }
                });
            });
            (0, true)
        }
        Request::Metrics { prometheus: true } => {
            write_ok(out, |o| {
                o.field("exposition", metrics.render_prometheus());
            });
            (0, true)
        }
        Request::Metrics { prometheus: false } => {
            let report = metrics.report();
            write_ok(out, |o| {
                o.object("metrics", |m| write_metrics(m, &report));
            });
            (0, true)
        }
        Request::Estimate { estimator, paths } => {
            let path_count = paths.len();
            match estimate(registry, &estimator, &paths) {
                Ok((version, estimates)) => {
                    write_ok(out, |o| {
                        o.field("version", version).array("estimates", |a| {
                            for &e in &estimates {
                                a.item(e);
                            }
                        });
                    });
                    (path_count, true)
                }
                Err(message) => (path_count, fail(out, &message)),
            }
        }
        Request::EstimateExpr {
            estimator,
            exprs,
            explain,
        } => {
            let expr_count = exprs.len();
            match estimate_exprs(registry, &estimator, &exprs, explain) {
                Ok((version, rows)) => {
                    write_ok(out, |o| {
                        o.field("version", version).array("results", |a| {
                            for (outcome, stages) in &rows {
                                a.object(|row| write_expr_row(row, outcome, stages.as_deref()));
                            }
                        });
                    });
                    (expr_count, true)
                }
                Err(message) => (expr_count, fail(out, &message)),
            }
        }
        Request::Delta { name, changes } => {
            // Delta reads the server's filesystem, like `load`/`rebuild`.
            if !allow_load {
                return (0, fail(out, "delta is disabled on this server"));
            }
            // Parse now (labels resolve against the maintained base — a
            // delta can't introduce labels, so the alphabet is stable
            // across queued batches), queue the batch, and let the
            // maintenance loop's next compacted publish fold it in.
            let Some(state) = registry.maintenance(&name) else {
                let refusal = EnqueueError::NoLineage { slot: name };
                return (0, fail(out, &refusal.to_string()));
            };
            let delta = match phe_graph::delta::read_changes_path(&changes, &state.graph) {
                Ok(delta) => delta,
                Err(e) => return (0, fail(out, &format!("reading {changes}: {e}"))),
            };
            match maintenance.enqueue(&name, delta) {
                Ok(queued) => {
                    write_ok(out, |o| {
                        o.field("status", "queued").field("queued", queued as u64);
                    });
                    (0, true)
                }
                // A full queue is backpressure, not a hard error: the
                // structured marker tells the client to retry after the
                // next compacted publish drains it.
                Err(e @ EnqueueError::QueueFull { .. }) => {
                    out.push_str(&backpressure_response(&e.to_string()));
                    (0, false)
                }
                Err(e) => (0, fail(out, &e.to_string())),
            }
        }
        Request::Rebuild {
            name,
            graph,
            k,
            beta,
            ordering,
            histogram,
            threads,
            maintain,
        } => {
            // Rebuild reads the server's filesystem, like `load`.
            if !allow_load {
                return (0, fail(out, "rebuild is disabled on this server"));
            }
            let Some(ordering) = phe_core::OrderingKind::ALL
                .into_iter()
                .find(|o| o.name() == ordering)
            else {
                return (0, fail(out, &format!("unknown ordering {ordering:?}")));
            };
            let Some(histogram) = phe_core::HistogramKind::ALL
                .into_iter()
                .find(|h| h.name() == histogram)
            else {
                return (0, fail(out, &format!("unknown histogram {histogram:?}")));
            };
            if k == 0 || k > phe_core::MAX_K || beta == 0 {
                return (0, fail(out, &format!("invalid k = {k} or beta = {beta}")));
            }
            if !registry.try_begin_rebuild(&name) {
                return (
                    0,
                    fail(out, &format!("rebuild of {name:?} already in flight")),
                );
            }
            // The version observed now is the publish precondition: if the
            // slot advances while the build runs (e.g. a `load`), the
            // rebuild result is stale and must not stomp it.
            let expected_version = registry.get(&name).map_or(0, |g| g.version());
            spawn_rebuild(
                Arc::clone(registry),
                Arc::clone(metrics),
                name.clone(),
                graph,
                phe_core::EstimatorConfig {
                    k,
                    beta,
                    ordering,
                    histogram,
                    threads,
                    // The sparse catalog is what later deltas merge into.
                    retain_sparse: maintain,
                },
                expected_version,
                maintain,
            );
            write_ok(out, |o| {
                o.field("status", "rebuilding");
            });
            (0, true)
        }
        Request::Load { name, snapshot } => {
            if !allow_load {
                return (0, fail(out, "load is disabled on this server"));
            }
            match load_snapshot(&snapshot) {
                Ok(servable) => {
                    let version = registry.register(&name, servable);
                    if version > 1 {
                        metrics.record_swap();
                    }
                    // `register` invalidated any maintained lineage; the
                    // drift gauges measured that lineage and must not
                    // outlive it in the exposition.
                    metrics.clear_drift(&name);
                    write_ok(out, |o| {
                        o.field("version", version);
                    });
                    (0, true)
                }
                Err(message) => (0, fail(out, &message)),
            }
        }
        Request::Maintenance { name, action } => match action {
            MaintenanceAction::Status => {
                write_maintenance_status(out, maintenance);
                (0, true)
            }
            MaintenanceAction::Compact => {
                if !allow_load {
                    // A forced compaction publishes new statistics —
                    // gate it with the other mutating ops.
                    return (
                        0,
                        fail(out, "maintenance compact is disabled on this server"),
                    );
                }
                let outcome = maintenance.run_slot(&name);
                if matches!(
                    outcome,
                    crate::maintenance::RunOutcome::Failed { .. }
                        | crate::maintenance::RunOutcome::NoLineage { .. }
                ) {
                    return (0, fail(out, &outcome.to_string()));
                }
                write_ok(out, |o| {
                    o.field("name", name).field("outcome", outcome.to_string());
                });
                (0, true)
            }
        },
    }
}

/// Writes an error line for `message`; returns `false` for the caller's
/// `ok` flag.
fn fail(out: &mut String, message: &str) -> bool {
    out.push_str(&error_response(message));
    false
}

/// Writes one `list` row: a slot's statistics, lineage and caches, plus
/// its maintenance counters once it has any.
fn write_list_row(row: &mut ObjectWriter<'_>, info: &EstimatorInfo, status: &SlotStatus) {
    row.field("name", &info.name)
        .field("version", info.version)
        .field("k", info.k as u64)
        .field("labels", info.label_count as u64)
        .field("size_bytes", info.size_bytes as u64)
        .field("description", &info.description)
        .field(
            "base_build_id",
            info.lineage.map(|(id, _)| format!("{id:016x}")),
        )
        .field("applied_deltas", info.lineage.map(|(_, deltas)| deltas))
        .field("expr_cache_hits", info.expr_cache.0)
        .field("expr_cache_misses", info.expr_cache.1)
        .field("follow_pruning", info.follow_pruning);
    if let Some(m) = &info.maintained {
        row.field("maintained_catalog_bytes", m.catalog_bytes)
            .field("maintained_plain_bytes", m.plain_bytes)
            .field(
                "maintained_bytes_per_entry",
                m.catalog_bytes as f64 / (m.nonzero_paths as f64).max(1.0),
            );
    }
    if let Some(d) = &info.drift {
        row.field("drift_mean_abs_error", d.mean_abs_error_rate)
            .field("drift_max_q_error", d.max_q_error)
            .field("drift_sampled_paths", d.sampled as u64);
    }
    if *status != SlotStatus::default() {
        row.field("maintenance_queued", status.queued as u64)
            .field("maintenance_compacted", status.compacted)
            .field("maintenance_last_outcome", &status.last_outcome);
    }
}

/// One expression's answer, with the flattened `(depth, stage,
/// duration)` span tree of an explain request.
type ExprRow = (ExprOutcome, Option<Vec<(usize, &'static str, Duration)>>);

/// Writes one `estimate_expr` result row.
fn write_expr_row(
    row: &mut ObjectWriter<'_>,
    outcome: &ExprOutcome,
    stages: Option<&[(usize, &'static str, Duration)]>,
) {
    row.field("estimate", outcome.total)
        .field("paths", outcome.width)
        .field("pruned", outcome.pruned)
        .field("truncated", outcome.truncated)
        .field("matches_empty", outcome.matches_empty)
        .field("cached", outcome.cached);
    if let Some(branches) = &outcome.branches {
        row.array("branches", |a| {
            for (path, estimate) in branches {
                a.array(|pair| {
                    pair.item(path).item(*estimate);
                });
            }
        });
    }
    if let Some(stages) = stages {
        row.array("stages", |a| {
            for &(depth, stage, duration) in stages {
                a.object(|s| {
                    s.field("stage", stage)
                        .field("depth", depth as u64)
                        .field("seconds", duration.as_secs_f64());
                });
            }
        });
    }
}

/// Writes the maintenance loop's interval and per-slot status as the
/// `maintenance` op's `status` response.
fn write_maintenance_status(out: &mut String, coordinator: &MaintenanceCoordinator) {
    let config = coordinator.config();
    let slots = coordinator.status_all();
    write_ok(out, |o| write_maintenance_fields(o, &config, &slots));
}

fn write_maintenance_fields(
    o: &mut ObjectWriter<'_>,
    config: &MaintenanceConfig,
    slots: &[(String, SlotStatus)],
) {
    o.field(
        "publish_interval_ms",
        config.publish_interval.as_millis() as u64,
    )
    .array("slots", |a| {
        for (name, status) in slots {
            a.object(|s| {
                s.field("name", name)
                    .field("queued", status.queued as u64)
                    .field("enqueued", status.enqueued)
                    .field("rejected", status.rejected)
                    .field("compacted", status.compacted)
                    .field("purged", status.purged)
                    .field("last_outcome", &status.last_outcome);
            });
        }
    });
}

fn estimate(
    registry: &EstimatorRegistry,
    name: &str,
    paths: &[Vec<PathStep>],
) -> Result<(u64, Vec<f64>), String> {
    let generation = registry
        .get(name)
        .ok_or_else(|| format!("no estimator {name:?} (try \"list\")"))?;
    let servable = generation.estimator();
    // Every name resolves before any path validates, so the first
    // complaint is the one `estimate_id_batch` would make.
    let mut ids = Vec::with_capacity(paths.iter().map(Vec::len).sum());
    for step in paths.iter().flatten() {
        ids.push(match step {
            PathStep::Name(n) => servable.resolve(n).map_err(|e| e.to_string())?,
            PathStep::Id(id) => phe_graph::LabelId(*id),
        });
    }
    let mut validated = Vec::with_capacity(paths.len());
    let mut rest = ids.as_slice();
    for steps in paths {
        let (path, tail) = rest.split_at(steps.len().min(rest.len()));
        rest = tail;
        validated.push(servable.validate(path).map_err(|e| e.to_string())?);
    }
    Ok((generation.version(), generation.estimate_batch(&validated)))
}

/// Answers a batch of expression strings against one pinned generation.
/// The first failure (parse error, over-wide expansion) aborts the whole
/// batch — matching `estimate`'s all-or-nothing contract.
fn estimate_exprs(
    registry: &EstimatorRegistry,
    name: &str,
    exprs: &[String],
    explain: bool,
) -> Result<(u64, Vec<ExprRow>), String> {
    let generation = registry
        .get(name)
        .ok_or_else(|| format!("no estimator {name:?} (try \"list\")"))?;
    let mut rows = Vec::with_capacity(exprs.len());
    for source in exprs {
        // Explain requests additionally capture the span tree of the
        // answer (parse -> expand -> estimate) so operators see
        // where an expression's time went.
        let (outcome, stages) = if explain {
            let (outcome, roots) =
                phe_obs::span::capture(|| generation.estimate_expr(source, true));
            let flat = roots.iter().flat_map(|root| root.flatten()).collect();
            (outcome, Some(flat))
        } else {
            (generation.estimate_expr(source, false), None)
        };
        let outcome = outcome.map_err(|e| format!("{source:?}: {e}"))?;
        rows.push((outcome, stages));
    }
    Ok((generation.version(), rows))
}

/// Kicks off a detached background rebuild: load the graph, build fresh
/// statistics through the sparse pipeline, and compare-and-swap them into
/// the slot. With `maintain`, the graph and the sparse-retaining
/// estimator ride the swap as the slot's maintenance state, enabling
/// subsequent `delta` ops; without it, the swap invalidates whatever
/// lineage the slot held. A failed CAS means a newer publish landed
/// mid-build; the fresher statistics win and the result is discarded as
/// superseded. Failures — including panics from the build layer (e.g. a
/// graph with no edge labels) — are counted in the metrics and logged to
/// stderr; the requesting connection got its acknowledgement long ago.
/// The caller must already hold the slot's rebuild mark
/// ([`EstimatorRegistry::try_begin_rebuild`]); it is released here on
/// every outcome.
fn spawn_rebuild(
    registry: Arc<EstimatorRegistry>,
    metrics: Arc<ServiceMetrics>,
    name: String,
    graph_path: String,
    config: phe_core::EstimatorConfig,
    expected_version: u64,
    maintain: bool,
) {
    metrics.record_rebuild_started();
    std::thread::spawn(move || {
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<(ServableEstimator, Option<MaintenanceState>), String> {
                let graph = phe_graph::io::read_tsv_path(&graph_path)
                    .map_err(|e| format!("reading {graph_path}: {e}"))?;
                let estimator = phe_core::PathSelectivityEstimator::build(&graph, config)
                    .map_err(|e| format!("building statistics: {e}"))?;
                if !maintain {
                    return Ok((ServableEstimator::from_estimator(estimator), None));
                }
                let servable = ServableEstimator::from_maintained(&estimator)?;
                Ok((servable, Some(MaintenanceState { graph, estimator })))
            },
        ))
        .unwrap_or_else(|panic| Err(panic_message(panic.as_ref()).to_owned()));
        match built {
            Ok((servable, keep)) => {
                match registry.register_if_version_maintained(
                    &name,
                    servable,
                    expected_version,
                    keep,
                ) {
                    Some(version) => {
                        if version > 1 {
                            metrics.record_swap();
                        }
                        // A fresh build starts a new lineage (or none): the
                        // old drift gauges describe dead statistics.
                        metrics.clear_drift(&name);
                    }
                    None => {
                        metrics.record_rebuild_superseded();
                        eprintln!("rebuild of {name:?} superseded by a newer publish; discarded");
                    }
                }
            }
            Err(message) => {
                metrics.record_rebuild_failed();
                eprintln!("rebuild of {name:?} failed: {message}");
            }
        }
        registry.finish_rebuild(&name);
    });
}

/// Best-effort panic payload extraction for the background workers' logs.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("build panicked")
}

/// Reads and restores a snapshot file into a servable estimator.
pub fn load_snapshot(path: &str) -> Result<ServableEstimator, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let snapshot: phe_core::EstimatorSnapshot =
        serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    ServableEstimator::from_snapshot(&snapshot).map_err(|e| e.to_string())
}

// ------------------------------------------------------------------ SIGINT

static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

extern "C" fn sigint_handler(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SIGINT_SEEN.store(true, Ordering::SeqCst);
}

/// Installs a SIGINT handler that flips a flag instead of killing the
/// process, so the serve loop can drain and print its metrics report.
/// Returns a closure polling the flag.
pub fn install_sigint_flag() -> impl Fn() -> bool {
    // `signal(2)` via a direct libc binding: the compat environment has
    // no `libc` crate, and std exposes no signal API. SIGINT = 2 on every
    // unix this builds for.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `sigint_handler` is `extern "C"`, async-signal-safe (one
    // relaxed-free `SeqCst` store, no allocation, no locks), and lives for
    // the whole program; `signal(2)` itself cannot fault.
    unsafe {
        signal(SIGINT, sigint_handler as extern "C" fn(i32) as usize);
    }
    || SIGINT_SEEN.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::MaintenanceConfig;
    use phe_core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
    use phe_datasets::{erdos_renyi, LabelDistribution};
    use serde_json::{Number, Value};
    use std::time::Instant;

    /// Parses and answers one request line, as a shard does.
    fn handle_line(
        line: &str,
        registry: &Arc<EstimatorRegistry>,
        metrics: &Arc<ServiceMetrics>,
        maintenance: &Arc<MaintenanceCoordinator>,
        allow_load: bool,
    ) -> (String, usize, bool) {
        match Request::parse(line) {
            Ok(request) => {
                let mut out = String::new();
                let (paths, ok) = handle_request(
                    request,
                    registry,
                    metrics,
                    maintenance,
                    allow_load,
                    &mut out,
                );
                (out, paths, ok)
            }
            Err(e) => (error_response(&e.to_string()), 0, false),
        }
    }

    /// An apply-on-arrival coordinator (publish interval 0); its ticker
    /// runs only where a test starts it.
    fn coordinator(
        registry: &Arc<EstimatorRegistry>,
        metrics: &Arc<ServiceMetrics>,
    ) -> Arc<MaintenanceCoordinator> {
        MaintenanceCoordinator::new(
            Arc::clone(registry),
            Arc::clone(metrics),
            MaintenanceConfig {
                publish_interval: Duration::ZERO,
                ..MaintenanceConfig::default()
            },
        )
    }

    fn test_registry() -> Arc<EstimatorRegistry> {
        let g = erdos_renyi(40, 240, 3, LabelDistribution::Zipf { exponent: 1.0 }, 11);
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 3,
                beta: 16,
                ordering: OrderingKind::SumBased,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: false,
            },
        )
        .unwrap();
        let registry = Arc::new(EstimatorRegistry::with_default_counters());
        registry.register("default", ServableEstimator::from_estimator(est));
        registry
    }

    #[test]
    fn handle_line_answers_each_op() {
        let registry = test_registry();
        let metrics = Arc::new(ServiceMetrics::new());
        let maintenance = coordinator(&registry, &metrics);

        let (r, _, ok) = handle_line(r#"{"op":"ping"}"#, &registry, &metrics, &maintenance, true);
        assert!(ok && r.contains(r#""ok":true"#), "{r}");

        let (r, paths, ok) = handle_line(
            r#"{"op":"estimate","paths":[[0,1],[2]]}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(ok, "{r}");
        assert_eq!(paths, 2);
        assert!(r.contains("estimates"), "{r}");
        assert!(r.contains(r#""version":1"#), "{r}");

        let (r, _, ok) = handle_line(r#"{"op":"list"}"#, &registry, &metrics, &maintenance, true);
        assert!(ok && r.contains("default"), "{r}");

        let (r, _, ok) = handle_line(
            r#"{"op":"metrics"}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(ok && r.contains("cache_hit_rate"), "{r}");
    }

    #[test]
    fn handle_line_answers_estimate_expr() {
        let registry = test_registry();
        let metrics = Arc::new(ServiceMetrics::new());
        let maintenance = coordinator(&registry, &metrics);

        let (r, exprs, ok) = handle_line(
            r#"{"op":"estimate_expr","exprs":["0|1","0/1?"]}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(ok, "{r}");
        assert_eq!(exprs, 2);
        assert!(r.contains(r#""results""#), "{r}");
        assert!(r.contains(r#""paths":2"#), "{r}");
        assert!(r.contains(r#""cached":false"#), "{r}");

        // Same expression commuted: cache hit.
        let (r, _, ok) = handle_line(
            r#"{"op":"estimate_expr","exprs":["1|0"]}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(ok && r.contains(r#""cached":true"#), "{r}");

        // Explain carries per-branch rows.
        let (r, _, ok) = handle_line(
            r#"{"op":"estimate_expr","exprs":["0|1"],"explain":true}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(ok && r.contains(r#""branches":[["0","#), "{r}");

        // The list op reports the slot's expression-cache counters.
        let (r, _, ok) = handle_line(r#"{"op":"list"}"#, &registry, &metrics, &maintenance, true);
        assert!(ok && r.contains(r#""expr_cache_hits":1"#), "{r}");
        assert!(r.contains(r#""expr_cache_misses""#), "{r}");

        // Errors: bad expression aborts the batch; unknown estimator.
        let (r, _, ok) = handle_line(
            r#"{"op":"estimate_expr","exprs":["0|"]}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(!ok && r.contains("unexpected end"), "{r}");
        let (r, _, ok) = handle_line(
            r#"{"op":"estimate_expr","estimator":"missing","exprs":["0"]}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(!ok && r.contains("missing"), "{r}");
    }

    #[test]
    fn rebuild_hot_swaps_in_the_background() {
        let registry = test_registry();
        let metrics = Arc::new(ServiceMetrics::new());
        let maintenance = coordinator(&registry, &metrics);

        // Write a small graph for the rebuild to read.
        let g = erdos_renyi(30, 150, 3, LabelDistribution::Uniform, 7);
        let dir = std::env::temp_dir().join(format!("phe-rebuild-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.tsv");
        phe_graph::io::write_tsv_path(&g, &path).unwrap();

        let line = format!(
            r#"{{"op":"rebuild","name":"default","graph":{:?},"k":2,"beta":8}}"#,
            path.to_str().unwrap()
        );
        let (r, _, ok) = handle_line(&line, &registry, &metrics, &maintenance, true);
        assert!(ok && r.contains("rebuilding"), "{r}");

        // The swap lands asynchronously; poll the slot version.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let generation = registry.get("default").unwrap();
            if generation.version() == 2 {
                assert_eq!(generation.estimator().k(), 2);
                break;
            }
            assert!(Instant::now() < deadline, "rebuild never landed");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(metrics.report().rebuilds_started, 1);
        assert_eq!(metrics.report().rebuilds_failed, 0);
        assert_eq!(metrics.report().swaps, 1);

        // A bad graph path counts as a failed rebuild, without a response
        // error (the acknowledgement already went out).
        let (r, _, ok) = handle_line(
            r#"{"op":"rebuild","name":"default","graph":"/nonexistent.tsv"}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(ok, "{r}");
        let deadline = Instant::now() + Duration::from_secs(30);
        while metrics.report().rebuilds_failed == 0 {
            assert!(Instant::now() < deadline, "failure never recorded");
            std::thread::sleep(Duration::from_millis(10));
        }

        // A graph file that parses to zero labels panics inside the build
        // layer; the panic is caught, counted as a failure, and the
        // slot's rebuild mark is released for the next attempt.
        let empty = dir.join("empty.tsv");
        std::fs::write(&empty, "# no edges\n").unwrap();
        let empty_line = format!(
            r#"{{"op":"rebuild","name":"default","graph":{:?}}}"#,
            empty.to_str().unwrap()
        );
        let failed_before = metrics.report().rebuilds_failed;
        let (r, _, ok) = handle_line(&empty_line, &registry, &metrics, &maintenance, true);
        assert!(ok, "{r}");
        let deadline = Instant::now() + Duration::from_secs(30);
        while metrics.report().rebuilds_failed == failed_before {
            assert!(Instant::now() < deadline, "panic never recorded");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            registry.try_begin_rebuild("default"),
            "mark must be released after a panicked rebuild"
        );
        // While a slot is marked, further rebuilds are refused.
        let (r, _, ok) = handle_line(&line, &registry, &metrics, &maintenance, true);
        assert!(!ok && r.contains("in flight"), "{r}");
        registry.finish_rebuild("default");

        // Disabled alongside load; bad parameters are synchronous errors.
        let (r, _, ok) = handle_line(&line, &registry, &metrics, &maintenance, false);
        assert!(!ok && r.contains("disabled"), "{r}");
        let (r, _, ok) = handle_line(
            r#"{"op":"rebuild","graph":"/g.tsv","ordering":"nope"}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(!ok && r.contains("unknown ordering"), "{r}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_applies_incrementally_against_maintained_state() {
        let registry = test_registry();
        let metrics = Arc::new(ServiceMetrics::new());
        // Publish interval 0: every queued batch publishes on arrival.
        let maintenance = coordinator(&registry, &metrics);
        let ticker = maintenance.start_ticker();

        let g = erdos_renyi(30, 150, 3, LabelDistribution::Uniform, 7);
        let dir = std::env::temp_dir().join(format!("phe-delta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph_path = dir.join("graph.tsv");
        phe_graph::io::write_tsv_path(&g, &graph_path).unwrap();

        // Without maintained state, delta is refused synchronously.
        let changes_path = dir.join("changes.tsv");
        let delta_line = format!(
            r#"{{"op":"delta","name":"default","changes":{:?}}}"#,
            changes_path.to_str().unwrap()
        );
        let (r, _, ok) = handle_line(&delta_line, &registry, &metrics, &maintenance, true);
        assert!(!ok && r.contains("maintain"), "{r}");
        assert!(
            registry.try_begin_rebuild("default"),
            "mark released after the refusal"
        );
        registry.finish_rebuild("default");

        // Rebuild with maintain: publishes and stores maintenance state.
        let rebuild_line = format!(
            r#"{{"op":"rebuild","name":"default","graph":{:?},"k":2,"beta":8,"maintain":true}}"#,
            graph_path.to_str().unwrap()
        );
        let (r, _, ok) = handle_line(&rebuild_line, &registry, &metrics, &maintenance, true);
        assert!(ok, "{r}");
        let deadline = Instant::now() + Duration::from_secs(30);
        while registry.get("default").unwrap().version() != 2 {
            assert!(
                Instant::now() < deadline,
                "maintaining rebuild never landed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let state = registry.maintenance("default").expect("state stored");
        assert!(state.estimator.sparse_catalog().is_some());

        // Write a changes file: drop one edge, add one fresh edge.
        let (s, lab, t) = g.iter_edges().next().unwrap();
        let name = g.labels().name(lab).unwrap();
        let fresh = (0..g.vertex_count() as u32)
            .flat_map(|a| (0..g.vertex_count() as u32).map(move |b| (a, b)))
            .find(|&(a, b)| !g.has_edge(phe_graph::VertexId(a), lab, phe_graph::VertexId(b)))
            .unwrap();
        std::fs::write(
            &changes_path,
            format!(
                "-\t{}\t{}\t{}\n+\t{}\t{}\t{}\n",
                s.0, name, t.0, fresh.0, name, fresh.1
            ),
        )
        .unwrap();

        // The batch is queued, and the ticker publishes it with no
        // `maintenance compact` op.
        let (r, _, ok) = handle_line(&delta_line, &registry, &metrics, &maintenance, true);
        assert!(ok && r.contains(r#""status":"queued""#), "{r}");
        let deadline = Instant::now() + Duration::from_secs(30);
        while registry.get("default").unwrap().version() != 3 {
            assert!(Instant::now() < deadline, "delta never landed");
            std::thread::sleep(Duration::from_millis(10));
        }

        // The published statistics are bit-identical to a full rebuild on
        // the changed graph, and the maintenance state advanced.
        let state = registry.maintenance("default").expect("state advanced");
        assert_eq!(state.estimator.applied_deltas(), 1);
        let fresh_build =
            PathSelectivityEstimator::build(&state.graph, *state.estimator.config()).unwrap();
        let generation = registry.get("default").unwrap();
        for l1 in 0..3u16 {
            for l2 in 0..3u16 {
                let path = vec![phe_graph::LabelId(l1), phe_graph::LabelId(l2)];
                let got = generation
                    .estimate_id_batch(std::slice::from_ref(&path))
                    .unwrap()[0];
                assert_eq!(got.to_bits(), fresh_build.estimate(&path).to_bits());
            }
        }
        let report = metrics.report();
        assert_eq!((report.deltas_started, report.deltas_failed), (1, 0));

        // Drift was sampled over the touched paths and published on every
        // surface: the registry row, the `list` op, and the Prometheus
        // exposition — all reading the same measurement.
        let row = &registry.list()[0];
        let drift = row.drift.expect("delta publishes a drift report");
        assert!(drift.sampled > 0 && drift.sampled <= drift.touched);
        assert!(
            (0.0..=1.0).contains(&drift.mean_abs_error_rate),
            "{drift:?}"
        );
        assert!(drift.max_q_error >= 1.0, "{drift:?}");
        let (r, _, ok) = handle_line(r#"{"op":"list"}"#, &registry, &metrics, &maintenance, true);
        assert!(ok && r.contains(r#""drift_mean_abs_error""#), "{r}");
        assert!(r.contains(r#""drift_sampled_paths""#), "{r}");
        let exposition = metrics.render_prometheus();
        phe_obs::parse_exposition(&exposition).expect("exposition must parse");
        assert!(
            exposition.contains(r#"phe_drift_mean_abs_error{slot="default"}"#),
            "{exposition}"
        );
        let (r, _, ok) = handle_line(
            r#"{"op":"metrics","format":"prometheus"}"#,
            &registry,
            &metrics,
            &maintenance,
            true,
        );
        assert!(ok && r.contains("phe_drift_sampled_paths"), "{r}");

        // A bad changes path fails synchronously: the file is parsed
        // before the batch is queued, so nothing reaches the loop.
        let bad_line = r#"{"op":"delta","name":"default","changes":"/nonexistent.tsv"}"#;
        let (r, _, ok) = handle_line(bad_line, &registry, &metrics, &maintenance, true);
        assert!(!ok && r.contains("reading /nonexistent.tsv"), "{r}");
        let status = maintenance.status("default");
        assert_eq!(
            (status.queued, status.enqueued, status.compacted),
            (0, 1, 1)
        );
        assert_eq!(metrics.report().deltas_failed, 0);

        // A non-maintaining rebuild publishes statistics not derived from
        // the maintained lineage: the maintenance state is invalidated
        // with the swap, so further deltas are refused until the operator
        // runs a maintaining rebuild again.
        let plain_rebuild = format!(
            r#"{{"op":"rebuild","name":"default","graph":{:?},"k":2,"beta":8}}"#,
            graph_path.to_str().unwrap()
        );
        let (r, _, ok) = handle_line(&plain_rebuild, &registry, &metrics, &maintenance, true);
        assert!(ok, "{r}");
        let deadline = Instant::now() + Duration::from_secs(30);
        while registry.get("default").unwrap().version() != 4 {
            assert!(Instant::now() < deadline, "plain rebuild never landed");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            registry.maintenance("default").is_none(),
            "maintenance state must not survive a non-maintaining publish"
        );
        let (r, _, ok) = handle_line(&delta_line, &registry, &metrics, &maintenance, true);
        assert!(!ok && r.contains("maintain"), "{r}");

        // Disabled alongside load.
        let (r, _, ok) = handle_line(&delta_line, &registry, &metrics, &maintenance, false);
        assert!(!ok && r.contains("disabled"), "{r}");

        maintenance.request_shutdown();
        ticker.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn back_to_back_enqueues_both_publish_on_arrival() {
        let g = erdos_renyi(30, 150, 3, LabelDistribution::Uniform, 13);
        let config = EstimatorConfig {
            k: 2,
            beta: 8,
            threads: 1,
            retain_sparse: true,
            ..EstimatorConfig::default()
        };
        let estimator = PathSelectivityEstimator::build(&g, config).unwrap();
        let registry = Arc::new(EstimatorRegistry::with_default_counters());
        let servable = ServableEstimator::from_maintained(&estimator).unwrap();
        let state = MaintenanceState {
            graph: g.clone(),
            estimator,
        };
        registry.register_if_version_maintained("default", servable, 0, Some(state));
        let metrics = Arc::new(ServiceMetrics::new());
        let maintenance = coordinator(&registry, &metrics);
        let ticker = maintenance.start_ticker();

        // Two batches, each dropping one edge, queued back to back.
        let edges: Vec<_> = g.iter_edges().take(2).collect();
        let mut expected = g.clone();
        for &(s, lab, t) in &edges {
            let mut batch = phe_graph::GraphDelta::new();
            batch.remove(s, lab, t);
            expected = expected.apply_delta(&batch).unwrap();
            maintenance.enqueue("default", batch).unwrap();
        }

        // Whether the ticker folds them into one pass or two, both
        // publish and neither is stranded: the queue drains with no
        // further enqueue.
        let deadline = Instant::now() + Duration::from_secs(30);
        while maintenance.status("default").compacted != 2 {
            assert!(
                Instant::now() < deadline,
                "stranded batch: {:?}",
                maintenance.status("default")
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(maintenance.status("default").queued, 0);
        assert!(registry.get("default").unwrap().version() > 1);
        let state = registry.maintenance("default").unwrap();
        assert!(state.graph.iter_edges().eq(expected.iter_edges()));

        maintenance.request_shutdown();
        ticker.join().unwrap();
    }

    #[test]
    fn shutdown_joins_the_server_owned_ticker_promptly() {
        for publish_interval in [Duration::from_secs(2), Duration::ZERO] {
            let registry = test_registry();
            let metrics = Arc::new(ServiceMetrics::new());
            let maintenance = MaintenanceCoordinator::new(
                Arc::clone(&registry),
                Arc::clone(&metrics),
                MaintenanceConfig {
                    publish_interval,
                    ..MaintenanceConfig::default()
                },
            );
            let server = crate::Server::start_with(
                registry,
                metrics,
                Arc::clone(&maintenance),
                ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    workers: 1,
                    shards: 1,
                    ..ServerConfig::default()
                },
            )
            .unwrap();
            // Let the ticker settle into its wait.
            std::thread::sleep(Duration::from_millis(50));
            let t0 = Instant::now();
            server.shutdown();
            assert!(
                t0.elapsed() < Duration::from_millis(250),
                "{publish_interval:?}: shutdown took {:?}",
                t0.elapsed()
            );
            // Every server thread, the ticker included, has exited and
            // dropped its handle on the coordinator.
            assert_eq!(Arc::strong_count(&maintenance), 1);
        }
    }

    #[test]
    fn hostile_nesting_gets_an_error_row_and_the_server_keeps_serving() {
        let server = crate::Server::start(
            test_registry(),
            Arc::new(ServiceMetrics::new()),
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 1,
                shards: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = crate::ServiceClient::connect(server.local_addr()).unwrap();
        // 200,000 groups around one label: a 400 KB line, far under the
        // request size limit, that must not exhaust a server thread's stack.
        let hostile = format!("{}0{}", "(".repeat(200_000), ")".repeat(200_000));
        match client.estimate_expr("default", &[hostile], false) {
            Err(crate::ClientError::Server(message)) => {
                let head: String = message.chars().take(200).collect();
                assert!(message.contains("nests deeper"), "{head}");
            }
            other => panic!("expected an error row, got {other:?}"),
        }
        let next = client
            .estimate_expr("default", &["0|1".to_owned()], false)
            .unwrap();
        assert_eq!(next.results.len(), 1);
        assert_eq!(next.results[0].paths, 2);
        server.shutdown();
    }

    #[test]
    fn handle_line_reports_errors_without_dying() {
        let registry = test_registry();
        let metrics = Arc::new(ServiceMetrics::new());
        let maintenance = coordinator(&registry, &metrics);
        for bad in [
            "garbage",
            r#"{"op":"estimate","estimator":"missing","paths":[[0]]}"#,
            r#"{"op":"estimate","paths":[[0,0,0,0,0]]}"#,
            r#"{"op":"estimate","paths":[["nope"]]}"#,
            r#"{"op":"load","name":"x","snapshot":"/nonexistent.json"}"#,
        ] {
            let (r, _, ok) = handle_line(bad, &registry, &metrics, &maintenance, true);
            assert!(!ok, "{bad} should fail");
            assert!(r.contains(r#""ok":false"#), "{r}");
        }
        // load disabled
        let (r, _, ok) = handle_line(
            r#"{"op":"load","name":"x","snapshot":"/y.json"}"#,
            &registry,
            &metrics,
            &maintenance,
            false,
        );
        assert!(!ok && r.contains("disabled"), "{r}");
    }

    // ------------------------------------------ response shapes vs oracle

    fn printed(value: Value) -> String {
        serde_json::to_string(&value).unwrap()
    }

    fn int(v: u64) -> Value {
        Value::Number(Number::PosInt(v))
    }

    fn float(v: f64) -> Value {
        Value::Number(Number::Float(v))
    }

    fn opt_string(v: &Option<String>) -> Value {
        v.clone().map_or(Value::Null, Value::string)
    }

    /// Today's `list` row, member for member.
    fn list_row_value(info: &EstimatorInfo, status: &SlotStatus) -> Value {
        let mut row = vec![
            ("name".into(), Value::string(&info.name)),
            ("version".into(), int(info.version)),
            ("k".into(), int(info.k as u64)),
            ("labels".into(), int(info.label_count as u64)),
            ("size_bytes".into(), int(info.size_bytes as u64)),
            ("description".into(), Value::string(&info.description)),
            (
                "base_build_id".into(),
                info.lineage
                    .map_or(Value::Null, |(id, _)| Value::string(format!("{id:016x}"))),
            ),
            (
                "applied_deltas".into(),
                info.lineage.map_or(Value::Null, |(_, deltas)| int(deltas)),
            ),
            ("expr_cache_hits".into(), int(info.expr_cache.0)),
            ("expr_cache_misses".into(), int(info.expr_cache.1)),
            ("follow_pruning".into(), Value::Bool(info.follow_pruning)),
        ];
        if let Some(m) = info.maintained {
            row.push(("maintained_catalog_bytes".into(), int(m.catalog_bytes)));
            row.push(("maintained_plain_bytes".into(), int(m.plain_bytes)));
            row.push((
                "maintained_bytes_per_entry".into(),
                float(m.catalog_bytes as f64 / (m.nonzero_paths as f64).max(1.0)),
            ));
        }
        if let Some(d) = info.drift {
            row.push(("drift_mean_abs_error".into(), float(d.mean_abs_error_rate)));
            row.push(("drift_max_q_error".into(), float(d.max_q_error)));
            row.push(("drift_sampled_paths".into(), int(d.sampled as u64)));
        }
        if *status != SlotStatus::default() {
            row.push(("maintenance_queued".into(), int(status.queued as u64)));
            row.push(("maintenance_compacted".into(), int(status.compacted)));
            row.push((
                "maintenance_last_outcome".into(),
                opt_string(&status.last_outcome),
            ));
        }
        Value::Object(row)
    }

    /// Today's `estimate_expr` result row, member for member.
    fn expr_row_value(
        outcome: &ExprOutcome,
        stages: Option<&[(usize, &'static str, Duration)]>,
    ) -> Value {
        let mut row = vec![
            ("estimate".into(), float(outcome.total)),
            ("paths".into(), int(outcome.width)),
            ("pruned".into(), int(outcome.pruned)),
            ("truncated".into(), int(outcome.truncated)),
            ("matches_empty".into(), Value::Bool(outcome.matches_empty)),
            ("cached".into(), Value::Bool(outcome.cached)),
        ];
        if let Some(branches) = &outcome.branches {
            row.push((
                "branches".into(),
                Value::Array(
                    branches
                        .iter()
                        .map(|(path, e)| Value::Array(vec![Value::string(path), float(*e)]))
                        .collect(),
                ),
            ));
        }
        if let Some(stages) = stages {
            row.push((
                "stages".into(),
                Value::Array(
                    stages
                        .iter()
                        .map(|&(depth, stage, duration)| {
                            Value::Object(vec![
                                ("stage".into(), Value::string(stage)),
                                ("depth".into(), int(depth as u64)),
                                ("seconds".into(), float(duration.as_secs_f64())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Value::Object(row)
    }

    /// Today's `maintenance` status members.
    fn maintenance_value(config: &MaintenanceConfig, slots: &[(String, SlotStatus)]) -> Value {
        let slots = slots
            .iter()
            .map(|(name, status)| {
                Value::Object(vec![
                    ("name".into(), Value::string(name)),
                    ("queued".into(), int(status.queued as u64)),
                    ("enqueued".into(), int(status.enqueued)),
                    ("rejected".into(), int(status.rejected)),
                    ("compacted".into(), int(status.compacted)),
                    ("purged".into(), int(status.purged)),
                    ("last_outcome".into(), opt_string(&status.last_outcome)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("ok".into(), Value::Bool(true)),
            (
                "publish_interval_ms".into(),
                int(config.publish_interval.as_millis() as u64),
            ),
            ("slots".into(), Value::Array(slots)),
        ])
    }

    /// A small deterministic generator for shape inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn int(&mut self) -> u64 {
            let shift = self.next() % 64;
            self.next() >> shift
        }
        fn coin(&mut self) -> bool {
            self.next() & 1 == 0
        }
        fn float(&mut self) -> f64 {
            match self.next() % 4 {
                0 => f64::from_bits(self.next()),
                1 => self.int() as f64,
                2 => [0.0, -0.0, 1e300, 5e-324, f64::NAN, f64::INFINITY][self.next() as usize % 6],
                _ => self.int() as f64 / 1e6,
            }
        }
        fn text(&mut self) -> String {
            const CHARS: [char; 10] = ['a', '"', '\\', '\n', '\u{1}', 'é', '😀', '/', ' ', '9'];
            (0..self.next() % 8)
                .map(|_| CHARS[self.next() as usize % CHARS.len()])
                .collect()
        }
        fn opt_text(&mut self) -> Option<String> {
            self.coin().then(|| self.text())
        }
        fn status(&mut self) -> SlotStatus {
            if self.coin() {
                return SlotStatus::default();
            }
            SlotStatus {
                queued: self.int() as usize,
                enqueued: self.int(),
                rejected: self.int(),
                compacted: self.int(),
                purged: self.int(),
                last_outcome: self.opt_text(),
            }
        }
    }

    fn object_of(write: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
        let mut out = String::new();
        write_ok(&mut out, |o| {
            o.object("x", write);
        });
        out
    }

    fn object_value(value: Value) -> String {
        printed(Value::Object(vec![
            ("ok".into(), Value::Bool(true)),
            ("x".into(), value),
        ]))
    }

    #[test]
    fn list_rows_match_the_oracle() {
        let mut rng = Rng(1);
        for _ in 0..2000 {
            let info = EstimatorInfo {
                name: rng.text(),
                version: rng.int(),
                k: rng.int() as usize,
                label_count: rng.int() as usize,
                size_bytes: rng.int() as usize,
                description: rng.text(),
                lineage: rng.coin().then(|| (rng.next(), rng.int())),
                expr_cache: (rng.int(), rng.int()),
                maintained: rng.coin().then(|| crate::registry::MaintainedFootprint {
                    nonzero_paths: rng.int() % 3,
                    catalog_bytes: rng.int(),
                    plain_bytes: rng.int(),
                }),
                drift: rng.coin().then(|| phe_core::DriftReport {
                    touched: rng.int() as usize,
                    sampled: rng.int() as usize,
                    mean_abs_error_rate: rng.float(),
                    max_q_error: rng.float(),
                }),
                follow_pruning: rng.coin(),
            };
            let status = rng.status();
            assert_eq!(
                object_of(|row| write_list_row(row, &info, &status)),
                object_value(list_row_value(&info, &status))
            );
        }
    }

    #[test]
    fn expr_rows_match_the_oracle() {
        const STAGES: [&str; 3] = ["query.parse", "query.expand", "query.estimate"];
        let mut rng = Rng(2);
        for _ in 0..2000 {
            let outcome = ExprOutcome {
                total: rng.float(),
                width: rng.int(),
                pruned: rng.int(),
                truncated: rng.int(),
                matches_empty: rng.coin(),
                cached: rng.coin(),
                branches: rng.coin().then(|| {
                    (0..rng.next() % 4)
                        .map(|_| (rng.text(), rng.float()))
                        .collect()
                }),
            };
            let stages: Option<Vec<_>> = rng.coin().then(|| {
                (0..rng.next() % 4)
                    .map(|_| {
                        let stage = STAGES[rng.next() as usize % STAGES.len()];
                        (rng.int() as usize, stage, Duration::from_nanos(rng.int()))
                    })
                    .collect()
            });
            assert_eq!(
                object_of(|row| write_expr_row(row, &outcome, stages.as_deref())),
                object_value(expr_row_value(&outcome, stages.as_deref()))
            );
        }
    }

    #[test]
    fn maintenance_status_matches_the_oracle() {
        let mut rng = Rng(3);
        for _ in 0..1000 {
            let config = MaintenanceConfig {
                publish_interval: Duration::from_millis(rng.int() >> 20),
                ..MaintenanceConfig::default()
            };
            let slots: Vec<(String, SlotStatus)> = (0..rng.next() % 4)
                .map(|_| (rng.text(), rng.status()))
                .collect();
            let mut out = String::new();
            write_ok(&mut out, |o| write_maintenance_fields(o, &config, &slots));
            assert_eq!(out, printed(maintenance_value(&config, &slots)));
        }
    }

    /// Sends raw lines over one connection and reads one line back each.
    fn raw_roundtrips(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
        use std::io::{BufRead, BufReader, Write};
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        lines
            .iter()
            .map(|line| {
                writer.write_all(line.as_bytes()).unwrap();
                writer.write_all(b"\n").unwrap();
                let mut response = String::new();
                reader.read_line(&mut response).unwrap();
                assert!(response.ends_with('\n'), "{response}");
                response.pop();
                response
            })
            .collect()
    }

    fn test_server() -> crate::Server {
        crate::Server::start(
            test_registry(),
            Arc::new(ServiceMetrics::new()),
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                workers: 1,
                shards: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn tcp_estimates_are_byte_identical_to_the_value_printer() {
        let server = test_server();
        // A twin registry (same build, cold caches) answers in-process.
        let twin = test_registry();
        let generation = twin.get("default").unwrap();
        let paths: Vec<Vec<phe_graph::LabelId>> = (0..40u16)
            .map(|i| {
                (0..1 + i % 3)
                    .map(|j| phe_graph::LabelId((i + j) % 3))
                    .collect()
            })
            .collect();
        let estimates = generation.estimate_id_batch(&paths).unwrap();
        let exprs = ["0|1", "0/1?", "(0|1|2){1,3}", "./2", "2{2}"];
        let outcomes: Vec<ExprOutcome> = exprs
            .iter()
            .map(|e| generation.estimate_expr(e, false).unwrap())
            .collect();

        let ids = |p: &[phe_graph::LabelId]| {
            p.iter()
                .map(|l| l.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let lines = vec![
            format!(
                r#"{{"op":"estimate","paths":[{}]}}"#,
                paths
                    .iter()
                    .map(|p| format!("[{}]", ids(p)))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
            format!(
                r#"{{ "exprs" : [{}], "op" : "estimate_expr" }}"#,
                exprs
                    .iter()
                    .map(|e| format!("{e:?}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ];
        let expected = [
            printed(Value::Object(vec![
                ("ok".into(), Value::Bool(true)),
                ("version".into(), int(1)),
                (
                    "estimates".into(),
                    Value::Array(estimates.into_iter().map(float).collect()),
                ),
            ])),
            printed(Value::Object(vec![
                ("ok".into(), Value::Bool(true)),
                ("version".into(), int(1)),
                (
                    "results".into(),
                    Value::Array(outcomes.iter().map(|o| expr_row_value(o, None)).collect()),
                ),
            ])),
        ];
        let got = raw_roundtrips(server.local_addr(), &lines);
        assert_eq!(got, expected);
        server.shutdown();
    }

    #[test]
    fn deep_json_nesting_gets_an_error_line_and_the_server_keeps_serving() {
        let server = test_server();
        // 100,000 levels: about 200 KB, far under the request size limit.
        let hostile = format!(
            r#"{{"op":"ping","x":{}{}}}"#,
            "[".repeat(100_000),
            "]".repeat(100_000)
        );
        let got = raw_roundtrips(
            server.local_addr(),
            &[hostile, r#"{"op":"ping"}"#.to_owned()],
        );
        assert!(
            got[0].starts_with(r#"{"ok":false,"error":"invalid JSON: recursion limit"#),
            "{}",
            got[0]
        );
        assert_eq!(got[1], r#"{"ok":true}"#);
        server.shutdown();
    }

    #[test]
    fn an_unaddressable_snapshot_domain_is_refused_and_the_worker_keeps_serving() {
        let dir = std::env::temp_dir().join(format!("phe-wide-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = erdos_renyi(40, 240, 3, LabelDistribution::Zipf { exponent: 1.0 }, 11);
        let config = EstimatorConfig {
            k: 3,
            beta: 16,
            threads: 1,
            ..EstimatorConfig::default()
        };
        let snapshot = PathSelectivityEstimator::build(&g, config)
            .unwrap()
            .snapshot()
            .unwrap();
        let good = dir.join("good.json");
        std::fs::write(&good, serde_json::to_string(&snapshot).unwrap()).unwrap();
        // 64 labels at k = 8: a domain of about 2.9 · 10^14 paths, past
        // the 2^48 the path encoding addresses.
        let wide = phe_core::EstimatorSnapshot {
            label_names: (0..64).map(|i| format!("l{i}")).collect(),
            label_frequencies: vec![1; 64],
            k: 8,
            ..snapshot
        };
        let hostile = dir.join("wide.json");
        std::fs::write(&hostile, serde_json::to_string(&wide).unwrap()).unwrap();
        let load = |path: &std::path::Path| {
            format!(
                r#"{{"op":"load","name":"default","snapshot":"{}"}}"#,
                path.display()
            )
        };

        // One dispatch worker: the refused load must leave it alive.
        let server = test_server();
        let refused = raw_roundtrips(server.local_addr(), &[load(&hostile)]);
        assert!(
            refused[0].starts_with(r#"{"ok":false,"error":"corrupt snapshot: "#)
                && refused[0].contains("too large"),
            "{}",
            refused[0]
        );
        let answered = raw_roundtrips(
            server.local_addr(),
            &[
                load(&good),
                r#"{"op":"estimate_expr","exprs":["0|1"]}"#.to_owned(),
            ],
        );
        assert_eq!(answered[0], r#"{"ok":true,"version":2}"#);
        assert!(
            answered[1].starts_with(r#"{"ok":true,"version":2,"results":["#),
            "{}",
            answered[1]
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lines_are_framed_across_reads_and_batched_writes() {
        use std::io::{BufRead, BufReader, Read, Write};
        let server = test_server();
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut next_line = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        // Three requests in one write, one of them blank-padded.
        writer
            .write_all(b"{\"op\":\"ping\"}\n  \n{\"op\":\"estimate\",\"paths\":[[0]]}\r\n{\"op\":\"nope\"}\n")
            .unwrap();
        assert_eq!(next_line(), "{\"ok\":true}\n");
        assert!(next_line().starts_with(r#"{"ok":true,"version":1,"estimates":["#));
        assert_eq!(
            next_line(),
            "{\"ok\":false,\"error\":\"unknown op \\\"nope\\\"\"}\n"
        );
        // One request in three writes.
        for part in ["{\"op\"", ":\"pi", "ng\"}\n"] {
            writer.write_all(part.as_bytes()).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(next_line(), "{\"ok\":true}\n");
        // A trailing fragment with no newline is answered at EOF.
        writer.write_all(b"{\"op\":\"ping\"}").unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(next_line(), "{\"ok\":true}\n");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "");

        // A line past the 16 MiB cap is refused and the connection closes.
        let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        // One byte past the cap: the server reads all of it before it
        // answers, so it closes without unread bytes (no reset).
        writer.write_all(&vec![b' '; (16 << 20) + 1]).unwrap();
        let mut answer = String::new();
        BufReader::new(stream).read_to_string(&mut answer).unwrap();
        assert_eq!(
            answer,
            "{\"ok\":false,\"error\":\"request line too large\"}\n"
        );
        server.shutdown();
    }
}
