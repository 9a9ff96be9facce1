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

use serde_json::{Number, Value};

use crate::estimator::ServableEstimator;
use crate::maintenance::{EnqueueError, MaintenanceCoordinator};
use crate::metrics::ServiceMetrics;
use crate::protocol::{
    backpressure_response, error_response, metrics_to_value, ok_response, MaintenanceAction,
    PathStep, Request,
};
use crate::registry::{EstimatorRegistry, MaintenanceState};

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
    /// while more than this many dispatched requests are queued.
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

/// Answers one parsed request; returns `(response, paths_estimated, ok)`.
/// The event loop parses on its shard thread, classifies, and runs the
/// heavy ops on dispatch workers.
pub(crate) fn handle_request(
    request: Request,
    registry: &Arc<EstimatorRegistry>,
    metrics: &Arc<ServiceMetrics>,
    maintenance: &Arc<MaintenanceCoordinator>,
    allow_load: bool,
) -> (String, usize, bool) {
    metrics.record_op(match &request {
        Request::Ping => "ping",
        Request::List => "list",
        Request::Metrics { .. } => "metrics",
        Request::Estimate { .. } => "estimate",
        Request::EstimateExpr { .. } => "estimate_expr",
        Request::Delta { .. } => "delta",
        Request::Rebuild { .. } => "rebuild",
        Request::Load { .. } => "load",
        Request::Maintenance { .. } => "maintenance",
    });
    match request {
        Request::Ping => (ok_response(vec![]), 0, true),
        Request::List => {
            let estimators = registry
                .list()
                .into_iter()
                .map(|info| {
                    let slot_name = info.name.clone();
                    let mut row = vec![
                        ("name".into(), Value::string(info.name)),
                        (
                            "version".into(),
                            Value::Number(Number::PosInt(info.version)),
                        ),
                        ("k".into(), Value::Number(Number::PosInt(info.k as u64))),
                        (
                            "labels".into(),
                            Value::Number(Number::PosInt(info.label_count as u64)),
                        ),
                        (
                            "size_bytes".into(),
                            Value::Number(Number::PosInt(info.size_bytes as u64)),
                        ),
                        ("description".into(), Value::string(info.description)),
                        (
                            "base_build_id".into(),
                            info.lineage
                                .map_or(Value::Null, |(id, _)| Value::string(format!("{id:016x}"))),
                        ),
                        (
                            "applied_deltas".into(),
                            info.lineage.map_or(Value::Null, |(_, deltas)| {
                                Value::Number(Number::PosInt(deltas))
                            }),
                        ),
                        (
                            "expr_cache_hits".into(),
                            Value::Number(Number::PosInt(info.expr_cache.0)),
                        ),
                        (
                            "expr_cache_misses".into(),
                            Value::Number(Number::PosInt(info.expr_cache.1)),
                        ),
                        ("follow_pruning".into(), Value::Bool(info.follow_pruning)),
                    ];
                    if let Some(c) = info.catalog {
                        row.push(("catalog_mapped".into(), Value::Bool(c.mapped)));
                        row.push((
                            "catalog_heap_bytes".into(),
                            Value::Number(Number::PosInt(c.heap_bytes)),
                        ));
                        row.push((
                            "catalog_payload_bytes".into(),
                            Value::Number(Number::PosInt(c.payload_bytes)),
                        ));
                        row.push((
                            "catalog_nonzero_paths".into(),
                            Value::Number(Number::PosInt(c.nonzero_paths)),
                        ));
                    }
                    if let Some(m) = info.maintained {
                        row.push((
                            "maintained_catalog_bytes".into(),
                            Value::Number(Number::PosInt(m.catalog_bytes)),
                        ));
                        row.push((
                            "maintained_plain_bytes".into(),
                            Value::Number(Number::PosInt(m.plain_bytes)),
                        ));
                        row.push((
                            "maintained_bytes_per_entry".into(),
                            Value::Number(Number::Float(
                                m.catalog_bytes as f64 / (m.nonzero_paths as f64).max(1.0),
                            )),
                        ));
                    }
                    if let Some(d) = info.drift {
                        row.push((
                            "drift_mean_abs_error".into(),
                            Value::Number(Number::Float(d.mean_abs_error_rate)),
                        ));
                        row.push((
                            "drift_max_q_error".into(),
                            Value::Number(Number::Float(d.max_q_error)),
                        ));
                        row.push((
                            "drift_sampled_paths".into(),
                            Value::Number(Number::PosInt(d.sampled as u64)),
                        ));
                    }
                    let status = maintenance.status(&slot_name);
                    if status != crate::maintenance::SlotStatus::default() {
                        row.push((
                            "maintenance_queued".into(),
                            Value::Number(Number::PosInt(status.queued as u64)),
                        ));
                        row.push((
                            "maintenance_compacted".into(),
                            Value::Number(Number::PosInt(status.compacted)),
                        ));
                        row.push((
                            "maintenance_last_trigger".into(),
                            status.last_trigger.map_or(Value::Null, Value::string),
                        ));
                        row.push((
                            "maintenance_last_outcome".into(),
                            status.last_outcome.map_or(Value::Null, Value::string),
                        ));
                    }
                    Value::Object(row)
                })
                .collect();
            (
                ok_response(vec![("estimators".into(), Value::Array(estimators))]),
                0,
                true,
            )
        }
        Request::Metrics { prometheus } => {
            if prometheus {
                return (
                    ok_response(vec![(
                        "exposition".into(),
                        Value::string(metrics.render_prometheus()),
                    )]),
                    0,
                    true,
                );
            }
            let report = metrics.report();
            (
                ok_response(vec![("metrics".into(), metrics_to_value(&report))]),
                0,
                true,
            )
        }
        Request::Estimate { estimator, paths } => {
            let path_count = paths.len();
            match estimate(registry, &estimator, &paths) {
                Ok((version, estimates)) => (
                    ok_response(vec![
                        ("version".into(), Value::Number(Number::PosInt(version))),
                        (
                            "estimates".into(),
                            Value::Array(
                                estimates
                                    .into_iter()
                                    .map(|e| Value::Number(Number::Float(e)))
                                    .collect(),
                            ),
                        ),
                    ]),
                    path_count,
                    true,
                ),
                Err(message) => (error_response(&message), path_count, false),
            }
        }
        Request::EstimateExpr {
            estimator,
            exprs,
            explain,
        } => {
            let expr_count = exprs.len();
            match estimate_exprs(registry, &estimator, &exprs, explain) {
                Ok((version, results)) => (
                    ok_response(vec![
                        ("version".into(), Value::Number(Number::PosInt(version))),
                        ("results".into(), results),
                    ]),
                    expr_count,
                    true,
                ),
                Err(message) => (error_response(&message), expr_count, false),
            }
        }
        Request::Delta { name, changes } => {
            // Delta reads the server's filesystem, like `load`/`rebuild`.
            if !allow_load {
                return (error_response("delta is disabled on this server"), 0, false);
            }
            // Parse now (labels resolve against the maintained base — a
            // delta can't introduce labels, so the alphabet is stable
            // across queued batches), queue the batch, and let the
            // maintenance loop's next compacted publish fold it in.
            let Some(state) = registry.maintenance(&name) else {
                let refusal = EnqueueError::NoLineage { slot: name };
                return (error_response(&refusal.to_string()), 0, false);
            };
            let delta = match phe_graph::delta::read_changes_path(&changes, &state.graph) {
                Ok(delta) => delta,
                Err(e) => return (error_response(&format!("reading {changes}: {e}")), 0, false),
            };
            match maintenance.enqueue(&name, delta) {
                Ok(queued) => (
                    ok_response(vec![
                        ("status".into(), Value::string("queued")),
                        (
                            "queued".into(),
                            Value::Number(Number::PosInt(queued as u64)),
                        ),
                    ]),
                    0,
                    true,
                ),
                // A full queue is backpressure, not a hard error: the
                // structured marker tells the client to retry after the
                // next compacted publish drains it.
                Err(e @ EnqueueError::QueueFull { .. }) => {
                    (backpressure_response(&e.to_string()), 0, false)
                }
                Err(e) => (error_response(&e.to_string()), 0, false),
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
                return (
                    error_response("rebuild is disabled on this server"),
                    0,
                    false,
                );
            }
            let ordering = match phe_core::OrderingKind::ALL
                .into_iter()
                .find(|o| o.name() == ordering)
            {
                Some(o) => o,
                None => {
                    return (
                        error_response(&format!("unknown ordering {ordering:?}")),
                        0,
                        false,
                    )
                }
            };
            let histogram = match phe_core::HistogramKind::ALL
                .into_iter()
                .find(|h| h.name() == histogram)
            {
                Some(h) => h,
                None => {
                    return (
                        error_response(&format!("unknown histogram {histogram:?}")),
                        0,
                        false,
                    )
                }
            };
            if k == 0 || k > phe_core::MAX_K || beta == 0 {
                return (
                    error_response(&format!("invalid k = {k} or beta = {beta}")),
                    0,
                    false,
                );
            }
            if !registry.try_begin_rebuild(&name) {
                return (
                    error_response(&format!("rebuild of {name:?} already in flight")),
                    0,
                    false,
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
                    retain_catalog: false,
                    // The sparse catalog is what later deltas merge into.
                    retain_sparse: maintain,
                },
                expected_version,
                maintain,
            );
            (
                ok_response(vec![("status".into(), Value::string("rebuilding"))]),
                0,
                true,
            )
        }
        Request::Load { name, snapshot } => {
            if !allow_load {
                return (error_response("load is disabled on this server"), 0, false);
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
                    (
                        ok_response(vec![(
                            "version".into(),
                            Value::Number(Number::PosInt(version)),
                        )]),
                        0,
                        true,
                    )
                }
                Err(message) => (error_response(&message), 0, false),
            }
        }
        Request::Maintenance { name, action } => {
            match action {
                MaintenanceAction::Status => (maintenance_status(maintenance), 0, true),
                MaintenanceAction::Compact => {
                    if !allow_load {
                        // A forced compaction can trigger a full rebuild —
                        // gate it with the other mutating ops.
                        return (
                            error_response("maintenance compact is disabled on this server"),
                            0,
                            false,
                        );
                    }
                    let outcome = maintenance.run_slot(&name);
                    let ok = !matches!(
                        outcome,
                        crate::maintenance::RunOutcome::Failed { .. }
                            | crate::maintenance::RunOutcome::NoLineage { .. }
                    );
                    let response = ok_response(vec![
                        ("name".into(), Value::string(name)),
                        ("outcome".into(), Value::string(outcome.to_string())),
                    ]);
                    if ok {
                        (response, 0, true)
                    } else {
                        (error_response(&outcome.to_string()), 0, false)
                    }
                }
                MaintenanceAction::SetPolicy {
                    max_applied_deltas,
                    drift_scale,
                    drift_mean_threshold,
                    drift_q_threshold,
                } => {
                    if !allow_load {
                        return (
                            error_response("maintenance set-policy is disabled on this server"),
                            0,
                            false,
                        );
                    }
                    let mut policy = maintenance.config().policy;
                    if let Some(n) = max_applied_deltas {
                        policy.max_applied_deltas = n;
                    }
                    if let Some(scale) = drift_scale {
                        policy.drift_scale = scale;
                    }
                    if let (Some(mean), Some(q)) = (drift_mean_threshold, drift_q_threshold) {
                        policy.drift_override = Some(phe_core::DriftThreshold {
                            mean_abs_error_rate: mean,
                            max_q_error: q,
                        });
                    }
                    maintenance.set_policy(policy);
                    (maintenance_status(maintenance), 0, true)
                }
            }
        }
    }
}

/// Renders the maintenance loop's policy, interval, and per-slot status
/// as the `maintenance` op's `status`/`set-policy` response.
fn maintenance_status(coordinator: &MaintenanceCoordinator) -> String {
    let config = coordinator.config();
    let mut policy = vec![
        (
            "max_applied_deltas".into(),
            Value::Number(Number::PosInt(config.policy.max_applied_deltas)),
        ),
        (
            "drift_scale".into(),
            Value::Number(Number::Float(config.policy.drift_scale)),
        ),
    ];
    if let Some(pinned) = config.policy.drift_override {
        policy.push((
            "drift_mean_threshold".into(),
            Value::Number(Number::Float(pinned.mean_abs_error_rate)),
        ));
        policy.push((
            "drift_q_threshold".into(),
            Value::Number(Number::Float(pinned.max_q_error)),
        ));
    }
    let slots = coordinator
        .status_all()
        .into_iter()
        .map(|(name, status)| {
            Value::Object(vec![
                ("name".into(), Value::string(name)),
                (
                    "queued".into(),
                    Value::Number(Number::PosInt(status.queued as u64)),
                ),
                (
                    "enqueued".into(),
                    Value::Number(Number::PosInt(status.enqueued)),
                ),
                (
                    "rejected".into(),
                    Value::Number(Number::PosInt(status.rejected)),
                ),
                (
                    "compacted".into(),
                    Value::Number(Number::PosInt(status.compacted)),
                ),
                (
                    "purged".into(),
                    Value::Number(Number::PosInt(status.purged)),
                ),
                (
                    "last_trigger".into(),
                    status.last_trigger.map_or(Value::Null, Value::string),
                ),
                (
                    "last_outcome".into(),
                    status.last_outcome.map_or(Value::Null, Value::string),
                ),
            ])
        })
        .collect();
    ok_response(vec![
        (
            "publish_interval_ms".into(),
            Value::Number(Number::PosInt(config.publish_interval.as_millis() as u64)),
        ),
        ("policy".into(), Value::Object(policy)),
        ("slots".into(), Value::Array(slots)),
    ])
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
    let mut id_paths = Vec::with_capacity(paths.len());
    for steps in paths {
        let mut ids = Vec::with_capacity(steps.len());
        for step in steps {
            ids.push(match step {
                PathStep::Name(n) => servable.resolve(n).map_err(|e| e.to_string())?,
                PathStep::Id(id) => phe_graph::LabelId(*id),
            });
        }
        id_paths.push(ids);
    }
    let estimates = generation
        .estimate_id_batch(&id_paths)
        .map_err(|e| e.to_string())?;
    Ok((generation.version(), estimates))
}

/// Answers a batch of expression strings against one pinned generation.
/// The first failure (parse error, over-wide expansion) aborts the whole
/// batch — matching `estimate`'s all-or-nothing contract.
fn estimate_exprs(
    registry: &EstimatorRegistry,
    name: &str,
    exprs: &[String],
    explain: bool,
) -> Result<(u64, Value), String> {
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
            (outcome, Some(roots))
        } else {
            (generation.estimate_expr(source, false), None)
        };
        let outcome = outcome.map_err(|e| format!("{source:?}: {e}"))?;
        let mut row = vec![
            (
                "estimate".into(),
                Value::Number(Number::Float(outcome.total)),
            ),
            ("paths".into(), Value::Number(Number::PosInt(outcome.width))),
            (
                "pruned".into(),
                Value::Number(Number::PosInt(outcome.pruned)),
            ),
            (
                "truncated".into(),
                Value::Number(Number::PosInt(outcome.truncated)),
            ),
            ("matches_empty".into(), Value::Bool(outcome.matches_empty)),
            ("cached".into(), Value::Bool(outcome.cached)),
        ];
        if let Some(branches) = outcome.branches {
            row.push((
                "branches".into(),
                Value::Array(
                    branches
                        .into_iter()
                        .map(|(path, estimate)| {
                            Value::Array(vec![
                                Value::string(path),
                                Value::Number(Number::Float(estimate)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(roots) = stages {
            let flat: Vec<Value> = roots
                .iter()
                .flat_map(|root| root.flatten())
                .map(|(depth, stage, duration)| {
                    Value::Object(vec![
                        ("stage".into(), Value::string(stage)),
                        ("depth".into(), Value::Number(Number::PosInt(depth as u64))),
                        (
                            "seconds".into(),
                            Value::Number(Number::Float(duration.as_secs_f64())),
                        ),
                    ])
                })
                .collect();
            row.push(("stages".into(), Value::Array(flat)));
        }
        rows.push(Value::Object(row));
    }
    Ok((generation.version(), Value::Array(rows)))
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
///
/// A v5 snapshot may reference an external `.phc` catalog sidecar
/// (`catalog_file`, written by `phe build --catalog-file`). The reference
/// is resolved **relative to the snapshot file's own directory**, opened
/// through the memory-mapping reader — so the catalog payload stays
/// disk-resident for the life of the slot — cross-checked against the
/// snapshot's dimensions, and attached to the servable estimator for the
/// `list` op's residency columns.
pub fn load_snapshot(path: &str) -> Result<ServableEstimator, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let snapshot: phe_core::EstimatorSnapshot =
        serde_json::from_str(&json).map_err(|e| format!("parsing {path}: {e}"))?;
    let servable = ServableEstimator::from_snapshot(&snapshot).map_err(|e| e.to_string())?;
    let Some(sidecar) = snapshot.catalog_file.as_deref() else {
        return Ok(servable);
    };
    let catalog_path = std::path::Path::new(path).parent().map_or_else(
        || std::path::PathBuf::from(sidecar),
        |dir| dir.join(sidecar),
    );
    let catalog = phe_pathenum::file::open_catalog_file(&catalog_path)
        .map_err(|e| format!("opening catalog {}: {e}", catalog_path.display()))?;
    let encoding = catalog.encoding();
    if encoding.label_count() != snapshot.label_names.len() || encoding.max_len() != snapshot.k {
        return Err(format!(
            "catalog {} covers {} labels at k = {} but the snapshot declares {} at k = {}",
            catalog_path.display(),
            encoding.label_count(),
            encoding.max_len(),
            snapshot.label_names.len(),
            snapshot.k
        ));
    }
    Ok(servable.with_catalog(catalog))
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
    use phe_core::{
        EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator, RebuildPolicy,
    };
    use phe_datasets::{erdos_renyi, LabelDistribution};
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
            Ok(request) => handle_request(request, registry, metrics, maintenance, allow_load),
            Err(e) => (error_response(&e.to_string()), 0, false),
        }
    }

    /// An apply-on-arrival coordinator (publish interval 0) with the
    /// rebuild triggers off, so every publish is the delta's own; its
    /// ticker runs only where a test starts it.
    fn coordinator(
        registry: &Arc<EstimatorRegistry>,
        metrics: &Arc<ServiceMetrics>,
    ) -> Arc<MaintenanceCoordinator> {
        MaintenanceCoordinator::new(
            Arc::clone(registry),
            Arc::clone(metrics),
            MaintenanceConfig {
                publish_interval: Duration::ZERO,
                policy: RebuildPolicy {
                    max_applied_deltas: 0,
                    drift_scale: 0.0,
                    drift_override: None,
                },
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
                retain_catalog: false,
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
    fn load_snapshot_serves_external_catalogs_disk_resident() {
        // Build with a retained sparse catalog, then split the snapshot
        // the disk-resident way: statistics in JSON, catalog in a `.phc`
        // sidecar referenced by relative path.
        let g = erdos_renyi(50, 300, 3, LabelDistribution::Zipf { exponent: 1.0 }, 5);
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 3,
                beta: 16,
                threads: 1,
                retain_sparse: true,
                ..EstimatorConfig::default()
            },
        )
        .unwrap();
        let catalog = est.sparse_catalog().expect("retained").clone();
        let inline = est.snapshot().unwrap();
        let mut external = inline.clone();
        external.sparse_runs = None;
        external.catalog_file = Some("catalog.phc".into());

        let dir = std::env::temp_dir().join(format!("phe-mmap-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot_path = dir.join("snapshot.json");
        std::fs::write(&snapshot_path, serde_json::to_string(&external).unwrap()).unwrap();
        phe_pathenum::file::write_catalog_file(&dir.join("catalog.phc"), &catalog).unwrap();

        let served = load_snapshot(snapshot_path.to_str().unwrap()).unwrap();
        let residency = served.catalog_residency().expect("sidecar attached");
        assert_eq!(residency.nonzero_paths, catalog.nonzero_count() as u64);
        assert_eq!(
            residency.payload_bytes,
            catalog.runs().payload_bytes() as u64
        );

        // Disk-resident answers are bit-identical to the heap route.
        let heap = ServableEstimator::from_snapshot(&inline).unwrap();
        for l1 in 0..3u16 {
            for l2 in 0..3u16 {
                for l3 in 0..3u16 {
                    let path = [
                        phe_graph::LabelId(l1),
                        phe_graph::LabelId(l2),
                        phe_graph::LabelId(l3),
                    ];
                    assert_eq!(
                        served.estimate_labels(&path).unwrap().to_bits(),
                        heap.estimate_labels(&path).unwrap().to_bits()
                    );
                }
            }
        }

        // The list op surfaces the residency columns.
        let registry = Arc::new(EstimatorRegistry::with_default_counters());
        let metrics = Arc::new(ServiceMetrics::new());
        let maintenance = coordinator(&registry, &metrics);
        let line = format!(
            r#"{{"op":"load","name":"disk","snapshot":{:?}}}"#,
            snapshot_path.to_str().unwrap()
        );
        let (r, _, ok) = handle_line(&line, &registry, &metrics, &maintenance, true);
        assert!(ok, "{r}");
        let (r, _, ok) = handle_line(r#"{"op":"list"}"#, &registry, &metrics, &maintenance, true);
        assert!(ok && r.contains(r#""catalog_mapped""#), "{r}");
        assert!(r.contains(r#""follow_pruning":true"#), "{r}");
        assert!(r.contains(r#""catalog_payload_bytes""#), "{r}");

        // A missing sidecar refuses the load; so does a sidecar whose
        // dimensions disagree with the snapshot.
        std::fs::remove_file(dir.join("catalog.phc")).unwrap();
        let err = load_snapshot(snapshot_path.to_str().unwrap())
            .err()
            .unwrap();
        assert!(err.contains("opening catalog"), "{err}");
        let narrow = phe_pathenum::SparseCatalog::compute(&g, 2).unwrap();
        phe_pathenum::file::write_catalog_file(&dir.join("catalog.phc"), &narrow).unwrap();
        let err = load_snapshot(snapshot_path.to_str().unwrap())
            .err()
            .unwrap();
        assert!(err.contains("k = 2"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
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
}
