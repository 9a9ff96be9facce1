//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, over a plain TCP stream —
//! trivially scriptable (`nc`, any language) and cheap to parse. Batched
//! estimation is first-class: a single `estimate` request carries many
//! paths and is answered by one pinned estimator generation.
//!
//! Every response carries `"ok": true` (plus op-specific fields) or
//! `"ok": false` with an `"error"` string. Unknown ops, malformed JSON,
//! and bad field types are per-line errors; the connection stays open.
//!
//! Two structured refusal shapes extend the plain error line:
//!
//! * `{"ok":false,"error":…,"overloaded":true,"reason":…}` — admission
//!   control refused the request (`reason` is `"capacity"` for the
//!   max-connections cap, `"quota"` for the per-client in-flight quota,
//!   `"shed"` for load shedding); back off and retry.
//! * `{"ok":false,"error":…,"backpressure":true}` — the maintenance
//!   delta queue is at its cap; the batch was not enqueued. Retry after
//!   the next compacted publish.
//!
//! ## Op reference
//!
//! | op | fields | answer | notes |
//! |----|--------|--------|-------|
//! | `ping` | — | `{"ok":true}` | liveness probe |
//! | `estimate` | `estimator` (default `"default"`), `paths` | `version`, `estimates` | one pinned generation answers the whole batch |
//! | `estimate_expr` | `estimator` (default `"default"`), `exprs` (expression strings), `explain` (false) | `version`, `results` rows: `estimate`, `paths`, `pruned`, `truncated`, `matches_empty`, `cached`, plus `branches` (`[path, estimate]` pairs) when `explain` | regular path expressions — alternation `(a\|b)`, optional `a?`, repetition `a{m,n}`, wildcard `.`; cached by *normalized* expression, so `(a\|b)c` and `(b\|a)c` share an entry; one pinned generation answers the whole batch. With `k` the estimator's maximum path length: `pruned` counts the distinct prefixes `q = p·l` (`2 ≤ \|q\| ≤ k`) of the expression's words whose `p` the follow matrix allows but whose last step `l` it refutes; `truncated` counts the distinct prefixes of length `k + 1` whose first `k` labels it allows |
//! | `list` | — | `estimators` rows: `name`, `version`, `k`, `labels`, `size_bytes`, `description`, `base_build_id`, `applied_deltas` (lineage; `null` for pre-lineage snapshots), plus `maintained_catalog_bytes` / `maintained_plain_bytes` / `maintained_bytes_per_entry` for slots with maintenance state and `drift_mean_abs_error` / `drift_max_q_error` / `drift_sampled_paths` once a delta has been applied | each row read from a single generation; a climbing `applied_deltas` flags a slot due for a compacting rebuild |
//! | `metrics` | `format` (`"report"`) | `metrics` object, or `exposition` text when `format` is `"prometheus"` | qps, p50/p99, cache hit rate, rebuild + delta counters; the Prometheus form is the same text the `--metrics-addr` scrape endpoint serves |
//! | `load` | `name`, `snapshot` | `version` | restores a snapshot file from the **server's** filesystem and hot-swaps the slot |
//! | `rebuild` | `name`, `graph`, `k` (3), `beta` (64), `ordering` (`"sum-based"`), `histogram` (`"v-optimal-greedy"`), `threads` (1), `maintain` (false) | `{"status":"rebuilding"}` | asynchronous full build from a graph file |
//! | `delta` | `name`, `changes` | `{"status":"queued","queued":n}` | incremental update from a changes file, parsed at once (a bad file is an error line) and queued on the server's maintenance loop for its next compacted publish — on arrival at a zero publish interval |
//! | `maintenance` | `action` (`"status"`), `name` (for `compact`), `max_applied_deltas` / `drift_scale` / `drift_mean_threshold`+`drift_q_threshold` (for `set-policy`) | `status`/`set-policy`: `policy`, `publish_interval_ms`, `slots` rows (`queued`, `enqueued`, `compacted`, `purged`, `last_trigger`, `last_outcome`); `compact`: `outcome` | inspect or steer the server's maintenance loop |
//!
//! ```text
//! → {"op":"ping"}
//! ← {"ok":true}
//! → {"op":"estimate","estimator":"main","paths":[["knows","likes"],[0,1]]}
//! ← {"ok":true,"version":1,"estimates":[123.0,7.5]}
//! → {"op":"estimate_expr","estimator":"main","exprs":["(knows|likes)/knows?"]}
//! ← {"ok":true,"version":1,"results":[{"estimate":130.5,"paths":4,"pruned":0,"truncated":0,"matches_empty":false,"cached":false}]}
//! → {"op":"rebuild","name":"main","graph":"/path/graph.tsv","k":3,"beta":64,"maintain":true}
//! ← {"ok":true,"status":"rebuilding"}
//! → {"op":"delta","name":"main","changes":"/path/changes.tsv"}
//! ← {"ok":true,"status":"queued","queued":1}
//! ```
//!
//! ## Background publishes: `rebuild` and `delta`
//!
//! Both ops answer immediately; a background thread (`rebuild`) or the
//! server's maintenance loop (`delta`) does the work and publishes with a
//! **compare-and-swap** on the slot version, so a result that raced with
//! a newer `load`/`rebuild` is discarded (counted as *superseded* in
//! `metrics`), never published over fresher statistics. Watch the slot's
//! `version` via `list` to observe the swap. One rebuild or maintenance
//! pass per slot at a time; a `rebuild` arriving while one runs is
//! refused with an error.
//!
//! `rebuild` reads a graph TSV and builds fresh statistics through the
//! sparse pipeline. With `"maintain": true` it additionally keeps the
//! graph + sparse catalog as the slot's *maintenance state*, which is
//! what makes `delta` possible.
//!
//! `delta` reads a changes file (`+<TAB>src<TAB>label<TAB>dst` /
//! `-<TAB>src<TAB>label<TAB>dst` lines) against the slot's maintenance
//! state and queues it; the loop composes the queued batches, counts only
//! the touched paths, merges them into the retained sparse catalog, and
//! hot-swaps statistics **bit-identical** to a full rebuild on the
//! changed graph — at a cost proportional to the change. The maintenance
//! state advances with each published pass, so deltas chain. A slot
//! without maintenance state (never rebuilt with `maintain`) refuses the
//! op synchronously, as does an unreadable changes file.
//!
//! Path steps may be label names (strings) or raw label ids (integers);
//! a batch may mix both styles between paths.

use serde_json::{Number, Value};

use crate::metrics::MetricsReport;

/// One step of a requested path: a label name or a raw id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathStep {
    /// Resolve through the estimator's label names.
    Name(String),
    /// Use the id directly.
    Id(u16),
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Batched estimation against a named estimator.
    Estimate {
        /// Registry slot name.
        estimator: String,
        /// The batch of paths.
        paths: Vec<Vec<PathStep>>,
    },
    /// Batched regular-path-expression estimation against a named
    /// estimator. Expression strings use the `phe-query` grammar
    /// (`(a|b)/c?`, `a{1,3}`, `.`); answers are cached per slot under the
    /// normalized expression.
    EstimateExpr {
        /// Registry slot name.
        estimator: String,
        /// The batch of expression strings.
        exprs: Vec<String>,
        /// Include per-branch `(path, estimate)` rows in each result
        /// (bypasses the expression cache).
        explain: bool,
    },
    /// List registered estimators.
    List,
    /// Service metrics snapshot.
    Metrics {
        /// Answer with the Prometheus text exposition (the same surface
        /// the scrape endpoint serves) instead of the JSON report.
        prometheus: bool,
    },
    /// Load (or hot-swap) a snapshot file from the server's filesystem.
    Load {
        /// Registry slot name to publish under.
        name: String,
        /// Path to the snapshot JSON on the server host.
        snapshot: String,
    },
    /// Rebuild a slot's statistics from a graph file on the server's
    /// filesystem, in the background, through the sparse build pipeline;
    /// the finished estimator hot-swaps the slot.
    Rebuild {
        /// Registry slot name to publish under.
        name: String,
        /// Path to the graph TSV on the server host.
        graph: String,
        /// Maximum path length `k`.
        k: usize,
        /// Histogram bucket budget β.
        beta: usize,
        /// Ordering method name (e.g. `"sum-based"`).
        ordering: String,
        /// Histogram family name (e.g. `"v-optimal-greedy"`).
        histogram: String,
        /// Worker threads for the background build. Defaults to 1 so a
        /// rebuild shares the machine with the serving workers instead of
        /// starving them; raise it explicitly when latency can spare the
        /// cores (0 ⇒ all cores).
        threads: usize,
        /// Keep the graph + sparse catalog as the slot's maintenance
        /// state, enabling subsequent `delta` ops. Defaults to `false`
        /// (the state costs `O(|E| + realized paths)` memory).
        maintain: bool,
    },
    /// Apply a changes file to a slot's maintained statistics in the
    /// background: incremental counting over only the touched paths,
    /// merged into the retained sparse catalog, hot-swapped on completion.
    /// Requires an earlier `rebuild` with `"maintain": true`.
    Delta {
        /// Registry slot name to update.
        name: String,
        /// Path to the changes file on the server host.
        changes: String,
    },
    /// Inspect or steer the maintenance loop: queue depths and last
    /// trigger per slot, the rebuild policy, or a forced compaction.
    /// Refused when the server runs without a maintenance loop.
    Maintenance {
        /// Registry slot name (`compact` acts on it; `status` and
        /// `set-policy` are loop-wide).
        name: String,
        /// What to do.
        action: MaintenanceAction,
    },
}

/// The `maintenance` op's sub-command.
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenanceAction {
    /// Report the loop's policy, publish interval, and per-slot queue
    /// depth + counters + last trigger/outcome.
    Status,
    /// Compact the named slot's queue now — one counting pass over the
    /// composed batches, publish, and rebuild-trigger evaluation —
    /// instead of waiting for the next publish interval.
    Compact,
    /// Merge the provided fields into the rebuild policy; absent fields
    /// keep their current values.
    SetPolicy {
        /// Full rebuild once this many deltas are in the lineage
        /// (0 disables the arm).
        max_applied_deltas: Option<u64>,
        /// Multiplier on the Baraud–Birgé drift bound (≤ 0 disables
        /// drift-triggered rebuilds).
        drift_scale: Option<f64>,
        /// Pin the drift threshold explicitly: mean |error| rate arm.
        /// Must be given together with `drift_q_threshold`.
        drift_mean_threshold: Option<f64>,
        /// Pin the drift threshold explicitly: worst q-error arm.
        drift_q_threshold: Option<f64>,
    },
}

/// A protocol-level failure (malformed request line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, ProtocolError> {
        let value: Value =
            serde_json::from_str(line).map_err(|e| err(format!("invalid JSON: {e}")))?;
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing string field \"op\""))?;
        match op {
            "ping" => Ok(Request::Ping),
            "list" => Ok(Request::List),
            "metrics" => match value.get("format") {
                None => Ok(Request::Metrics { prometheus: false }),
                Some(Value::String(f)) if f == "report" => {
                    Ok(Request::Metrics { prometheus: false })
                }
                Some(Value::String(f)) if f == "prometheus" => {
                    Ok(Request::Metrics { prometheus: true })
                }
                Some(other) => Err(err(format!(
                    "field \"format\" must be \"report\" or \"prometheus\", got {other:?}"
                ))),
            },
            "estimate" => {
                let estimator = value
                    .get("estimator")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let paths_value = value
                    .get("paths")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("estimate needs an array field \"paths\""))?;
                let mut paths = Vec::with_capacity(paths_value.len());
                for p in paths_value {
                    let steps_value = p
                        .as_array()
                        .ok_or_else(|| err("each path must be an array of steps"))?;
                    let mut steps = Vec::with_capacity(steps_value.len());
                    for s in steps_value {
                        steps.push(match s {
                            Value::String(name) => PathStep::Name(name.clone()),
                            Value::Number(n) => {
                                let id = n
                                    .as_u64()
                                    .and_then(|v| u16::try_from(v).ok())
                                    .ok_or_else(|| err(format!("label id {n:?} out of range")))?;
                                PathStep::Id(id)
                            }
                            other => {
                                return Err(err(format!(
                                    "path step must be a name or id, got {other:?}"
                                )))
                            }
                        });
                    }
                    paths.push(steps);
                }
                Ok(Request::Estimate { estimator, paths })
            }
            "estimate_expr" => {
                let estimator = value
                    .get("estimator")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let exprs_value = value
                    .get("exprs")
                    .and_then(Value::as_array)
                    .ok_or_else(|| err("estimate_expr needs an array field \"exprs\""))?;
                let mut exprs = Vec::with_capacity(exprs_value.len());
                for e in exprs_value {
                    match e {
                        Value::String(s) => exprs.push(s.clone()),
                        other => {
                            return Err(err(format!(
                                "each expression must be a string, got {other:?}"
                            )))
                        }
                    }
                }
                let explain = match value.get("explain") {
                    None => false,
                    Some(Value::Bool(b)) => *b,
                    Some(other) => {
                        return Err(err(format!(
                            "field \"explain\" must be a boolean, got {other:?}"
                        )))
                    }
                };
                Ok(Request::EstimateExpr {
                    estimator,
                    exprs,
                    explain,
                })
            }
            "load" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let snapshot = value
                    .get("snapshot")
                    .and_then(Value::as_str)
                    .ok_or_else(|| err("load needs a string field \"snapshot\""))?
                    .to_owned();
                Ok(Request::Load { name, snapshot })
            }
            "rebuild" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let graph = value
                    .get("graph")
                    .and_then(Value::as_str)
                    .ok_or_else(|| err("rebuild needs a string field \"graph\""))?
                    .to_owned();
                let uint_field = |field: &str, default: u64| -> Result<usize, ProtocolError> {
                    match value.get(field) {
                        None => Ok(default as usize),
                        Some(Value::Number(n)) => n.as_u64().map(|v| v as usize).ok_or_else(|| {
                            err(format!("field {field:?} must be a non-negative integer"))
                        }),
                        Some(other) => Err(err(format!(
                            "field {field:?} must be a number, got {other:?}"
                        ))),
                    }
                };
                let k = uint_field("k", 3)?;
                let beta = uint_field("beta", 64)?;
                let threads = uint_field("threads", 1)?;
                let ordering = value
                    .get("ordering")
                    .and_then(Value::as_str)
                    .unwrap_or("sum-based")
                    .to_owned();
                let histogram = value
                    .get("histogram")
                    .and_then(Value::as_str)
                    .unwrap_or("v-optimal-greedy")
                    .to_owned();
                let maintain = match value.get("maintain") {
                    None => false,
                    Some(Value::Bool(b)) => *b,
                    Some(other) => {
                        return Err(err(format!(
                            "field \"maintain\" must be a boolean, got {other:?}"
                        )))
                    }
                };
                Ok(Request::Rebuild {
                    name,
                    graph,
                    k,
                    beta,
                    ordering,
                    histogram,
                    threads,
                    maintain,
                })
            }
            "delta" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let changes = value
                    .get("changes")
                    .and_then(Value::as_str)
                    .ok_or_else(|| err("delta needs a string field \"changes\""))?
                    .to_owned();
                Ok(Request::Delta { name, changes })
            }
            "maintenance" => {
                let name = value
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_owned();
                let action = match value.get("action").and_then(Value::as_str) {
                    None | Some("status") => MaintenanceAction::Status,
                    Some("compact") => MaintenanceAction::Compact,
                    Some("set-policy") => {
                        let uint = |field: &str| -> Result<Option<u64>, ProtocolError> {
                            match value.get(field) {
                                None => Ok(None),
                                Some(Value::Number(n)) => n.as_u64().map(Some).ok_or_else(|| {
                                    err(format!("field {field:?} must be a non-negative integer"))
                                }),
                                Some(other) => Err(err(format!(
                                    "field {field:?} must be a number, got {other:?}"
                                ))),
                            }
                        };
                        let float = |field: &str| -> Result<Option<f64>, ProtocolError> {
                            match value.get(field) {
                                None => Ok(None),
                                Some(Value::Number(n)) => Ok(Some(n.as_f64())),
                                Some(other) => Err(err(format!(
                                    "field {field:?} must be a number, got {other:?}"
                                ))),
                            }
                        };
                        let drift_mean_threshold = float("drift_mean_threshold")?;
                        let drift_q_threshold = float("drift_q_threshold")?;
                        if drift_mean_threshold.is_some() != drift_q_threshold.is_some() {
                            return Err(err(
                                "\"drift_mean_threshold\" and \"drift_q_threshold\" must be \
                                 given together",
                            ));
                        }
                        MaintenanceAction::SetPolicy {
                            max_applied_deltas: uint("max_applied_deltas")?,
                            drift_scale: float("drift_scale")?,
                            drift_mean_threshold,
                            drift_q_threshold,
                        }
                    }
                    Some(other) => {
                        return Err(err(format!(
                            "field \"action\" must be \"status\", \"compact\", or \
                             \"set-policy\", got {other:?}"
                        )))
                    }
                };
                Ok(Request::Maintenance { name, action })
            }
            other => Err(err(format!("unknown op {other:?}"))),
        }
    }

    /// Serializes this request to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let value = match self {
            Request::Ping => Value::Object(vec![("op".into(), Value::string("ping"))]),
            Request::List => Value::Object(vec![("op".into(), Value::string("list"))]),
            Request::Metrics { prometheus } => Value::Object(vec![
                ("op".into(), Value::string("metrics")),
                (
                    "format".into(),
                    Value::string(if *prometheus { "prometheus" } else { "report" }),
                ),
            ]),
            Request::Estimate { estimator, paths } => {
                let paths_value = Value::Array(
                    paths
                        .iter()
                        .map(|p| {
                            Value::Array(
                                p.iter()
                                    .map(|s| match s {
                                        PathStep::Name(n) => Value::string(n.clone()),
                                        PathStep::Id(id) => {
                                            Value::Number(Number::PosInt(*id as u64))
                                        }
                                    })
                                    .collect(),
                            )
                        })
                        .collect(),
                );
                Value::Object(vec![
                    ("op".into(), Value::string("estimate")),
                    ("estimator".into(), Value::string(estimator.clone())),
                    ("paths".into(), paths_value),
                ])
            }
            Request::EstimateExpr {
                estimator,
                exprs,
                explain,
            } => Value::Object(vec![
                ("op".into(), Value::string("estimate_expr")),
                ("estimator".into(), Value::string(estimator.clone())),
                (
                    "exprs".into(),
                    Value::Array(exprs.iter().map(|e| Value::string(e.clone())).collect()),
                ),
                ("explain".into(), Value::Bool(*explain)),
            ]),
            Request::Load { name, snapshot } => Value::Object(vec![
                ("op".into(), Value::string("load")),
                ("name".into(), Value::string(name.clone())),
                ("snapshot".into(), Value::string(snapshot.clone())),
            ]),
            Request::Rebuild {
                name,
                graph,
                k,
                beta,
                ordering,
                histogram,
                threads,
                maintain,
            } => Value::Object(vec![
                ("op".into(), Value::string("rebuild")),
                ("name".into(), Value::string(name.clone())),
                ("graph".into(), Value::string(graph.clone())),
                ("k".into(), Value::Number(Number::PosInt(*k as u64))),
                ("beta".into(), Value::Number(Number::PosInt(*beta as u64))),
                ("ordering".into(), Value::string(ordering.clone())),
                ("histogram".into(), Value::string(histogram.clone())),
                (
                    "threads".into(),
                    Value::Number(Number::PosInt(*threads as u64)),
                ),
                ("maintain".into(), Value::Bool(*maintain)),
            ]),
            Request::Delta { name, changes } => Value::Object(vec![
                ("op".into(), Value::string("delta")),
                ("name".into(), Value::string(name.clone())),
                ("changes".into(), Value::string(changes.clone())),
            ]),
            Request::Maintenance { name, action } => {
                let mut fields = vec![
                    ("op".into(), Value::string("maintenance")),
                    ("name".into(), Value::string(name.clone())),
                ];
                match action {
                    MaintenanceAction::Status => {
                        fields.push(("action".into(), Value::string("status")));
                    }
                    MaintenanceAction::Compact => {
                        fields.push(("action".into(), Value::string("compact")));
                    }
                    MaintenanceAction::SetPolicy {
                        max_applied_deltas,
                        drift_scale,
                        drift_mean_threshold,
                        drift_q_threshold,
                    } => {
                        fields.push(("action".into(), Value::string("set-policy")));
                        if let Some(n) = max_applied_deltas {
                            fields.push((
                                "max_applied_deltas".into(),
                                Value::Number(Number::PosInt(*n)),
                            ));
                        }
                        for (key, v) in [
                            ("drift_scale", drift_scale),
                            ("drift_mean_threshold", drift_mean_threshold),
                            ("drift_q_threshold", drift_q_threshold),
                        ] {
                            if let Some(v) = v {
                                fields.push((key.into(), Value::Number(Number::Float(*v))));
                            }
                        }
                    }
                }
                Value::Object(fields)
            }
        };
        to_json_line(&value)
    }
}

/// Serializes a protocol line. The value trees built in this module
/// cannot fail the serializer, but the API admits an error — degrade to
/// a self-describing error line instead of panicking mid-connection.
fn to_json_line(value: &Value) -> String {
    serde_json::to_string(value)
        .unwrap_or_else(|_| "{\"ok\":false,\"error\":\"response serialization failed\"}".to_owned())
}

/// Builds a success response carrying `fields`.
pub fn ok_response(mut fields: Vec<(String, Value)>) -> String {
    let mut all = vec![("ok".to_string(), Value::Bool(true))];
    all.append(&mut fields);
    to_json_line(&Value::Object(all))
}

/// Builds an error response.
pub fn error_response(message: &str) -> String {
    to_json_line(&Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::string(message)),
    ]))
}

/// Builds the structured admission-control refusal: an error line
/// additionally carrying `"overloaded": true` and a machine-readable
/// `"reason"` (`"capacity"`, `"quota"`, or `"shed"`), so clients can
/// distinguish back-off-and-retry from a request that is simply wrong.
pub fn overloaded_response(reason: &str, message: &str) -> String {
    to_json_line(&Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::string(message)),
        ("overloaded".to_string(), Value::Bool(true)),
        ("reason".to_string(), Value::string(reason)),
    ]))
}

/// Builds the structured maintenance backpressure refusal: the delta
/// queue is at its configured cap, so the batch was **not** enqueued.
/// Carries `"backpressure": true`; the client should retry after the
/// next compacted publish drains the queue.
pub fn backpressure_response(message: &str) -> String {
    to_json_line(&Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::string(message)),
        ("backpressure".to_string(), Value::Bool(true)),
    ]))
}

/// Renders a metrics report as a JSON object.
pub fn metrics_to_value(report: &MetricsReport) -> Value {
    Value::Object(vec![
        (
            "uptime_seconds".into(),
            Value::Number(Number::Float(report.uptime.as_secs_f64())),
        ),
        (
            "requests".into(),
            Value::Number(Number::PosInt(report.requests)),
        ),
        ("paths".into(), Value::Number(Number::PosInt(report.paths))),
        (
            "errors".into(),
            Value::Number(Number::PosInt(report.errors)),
        ),
        ("swaps".into(), Value::Number(Number::PosInt(report.swaps))),
        (
            "rebuilds_started".into(),
            Value::Number(Number::PosInt(report.rebuilds_started)),
        ),
        (
            "rebuilds_failed".into(),
            Value::Number(Number::PosInt(report.rebuilds_failed)),
        ),
        (
            "rebuilds_superseded".into(),
            Value::Number(Number::PosInt(report.rebuilds_superseded)),
        ),
        (
            "deltas_started".into(),
            Value::Number(Number::PosInt(report.deltas_started)),
        ),
        (
            "deltas_failed".into(),
            Value::Number(Number::PosInt(report.deltas_failed)),
        ),
        (
            "deltas_superseded".into(),
            Value::Number(Number::PosInt(report.deltas_superseded)),
        ),
        ("qps".into(), Value::Number(Number::Float(report.qps))),
        (
            "p50_us".into(),
            Value::Number(Number::Float(report.p50.as_secs_f64() * 1e6)),
        ),
        (
            "p99_us".into(),
            Value::Number(Number::Float(report.p99.as_secs_f64() * 1e6)),
        ),
        (
            "cache_hits".into(),
            Value::Number(Number::PosInt(report.cache_hits)),
        ),
        (
            "cache_misses".into(),
            Value::Number(Number::PosInt(report.cache_misses)),
        ),
        (
            "cache_hit_rate".into(),
            Value::Number(Number::Float(report.cache_hit_rate)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mixed_name_and_id_paths() {
        let r = Request::parse(
            r#"{"op":"estimate","estimator":"main","paths":[["knows","likes"],[0,1]]}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Estimate {
                estimator: "main".into(),
                paths: vec![
                    vec![
                        PathStep::Name("knows".into()),
                        PathStep::Name("likes".into())
                    ],
                    vec![PathStep::Id(0), PathStep::Id(1)],
                ],
            }
        );
    }

    #[test]
    fn round_trips_through_to_line() {
        let requests = vec![
            Request::Ping,
            Request::List,
            Request::Metrics { prometheus: false },
            Request::Metrics { prometheus: true },
            Request::Estimate {
                estimator: "default".into(),
                paths: vec![vec![PathStep::Name("a".into()), PathStep::Id(3)]],
            },
            Request::EstimateExpr {
                estimator: "main".into(),
                exprs: vec!["(a|b)/c?".into(), "a{1,3}".into()],
                explain: true,
            },
            Request::Load {
                name: "x".into(),
                snapshot: "/tmp/s.json".into(),
            },
            Request::Rebuild {
                name: "x".into(),
                graph: "/tmp/g.tsv".into(),
                k: 4,
                beta: 128,
                ordering: "sum-based".into(),
                histogram: "equi-width".into(),
                threads: 2,
                maintain: true,
            },
            Request::Delta {
                name: "x".into(),
                changes: "/tmp/changes.tsv".into(),
            },
            Request::Maintenance {
                name: "default".into(),
                action: MaintenanceAction::Status,
            },
            Request::Maintenance {
                name: "x".into(),
                action: MaintenanceAction::Compact,
            },
            Request::Maintenance {
                name: "default".into(),
                action: MaintenanceAction::SetPolicy {
                    max_applied_deltas: Some(8),
                    drift_scale: Some(2.5),
                    drift_mean_threshold: Some(0.25),
                    drift_q_threshold: Some(3.5),
                },
            },
            Request::Maintenance {
                name: "default".into(),
                action: MaintenanceAction::SetPolicy {
                    max_applied_deltas: None,
                    drift_scale: Some(0.0),
                    drift_mean_threshold: None,
                    drift_q_threshold: None,
                },
            },
        ];
        for r in requests {
            assert_eq!(Request::parse(&r.to_line()).unwrap(), r);
        }
    }

    #[test]
    fn maintenance_parses_with_defaults_and_errors() {
        let r = Request::parse(r#"{"op":"maintenance"}"#).unwrap();
        assert_eq!(
            r,
            Request::Maintenance {
                name: "default".into(),
                action: MaintenanceAction::Status,
            }
        );
        assert!(Request::parse(r#"{"op":"maintenance","action":"explode"}"#).is_err());
        assert!(Request::parse(
            r#"{"op":"maintenance","action":"set-policy","max_applied_deltas":-1}"#
        )
        .is_err());
        // A pinned drift threshold needs both arms.
        assert!(Request::parse(
            r#"{"op":"maintenance","action":"set-policy","drift_mean_threshold":0.2}"#
        )
        .is_err());
    }

    #[test]
    fn rebuild_defaults_and_errors() {
        let r = Request::parse(r#"{"op":"rebuild","graph":"/g.tsv"}"#).unwrap();
        assert_eq!(
            r,
            Request::Rebuild {
                name: "default".into(),
                graph: "/g.tsv".into(),
                k: 3,
                beta: 64,
                ordering: "sum-based".into(),
                histogram: "v-optimal-greedy".into(),
                threads: 1,
                maintain: false,
            }
        );
        assert!(Request::parse(r#"{"op":"rebuild"}"#).is_err());
        assert!(Request::parse(r#"{"op":"rebuild","graph":"/g","k":"three"}"#).is_err());
        assert!(Request::parse(r#"{"op":"rebuild","graph":"/g","maintain":3}"#).is_err());
    }

    #[test]
    fn delta_parses_with_defaults_and_errors() {
        let r = Request::parse(r#"{"op":"delta","changes":"/c.tsv"}"#).unwrap();
        assert_eq!(
            r,
            Request::Delta {
                name: "default".into(),
                changes: "/c.tsv".into(),
            }
        );
        assert!(Request::parse(r#"{"op":"delta"}"#).is_err());
        assert!(Request::parse(r#"{"op":"delta","changes":7}"#).is_err());
    }

    #[test]
    fn estimator_defaults_to_default() {
        let r = Request::parse(r#"{"op":"estimate","paths":[[1]]}"#).unwrap();
        assert!(matches!(r, Request::Estimate { estimator, .. } if estimator == "default"));
    }

    #[test]
    fn estimate_expr_parses_defaults_and_errors() {
        let r = Request::parse(r#"{"op":"estimate_expr","exprs":["(a|b)/c"]}"#).unwrap();
        assert_eq!(
            r,
            Request::EstimateExpr {
                estimator: "default".into(),
                exprs: vec!["(a|b)/c".into()],
                explain: false,
            }
        );
        assert!(Request::parse(r#"{"op":"estimate_expr"}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate_expr","exprs":[7]}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate_expr","exprs":["a"],"explain":3}"#).is_err());
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"nope"}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate"}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate","paths":[[true]]}"#).is_err());
        assert!(Request::parse(r#"{"op":"estimate","paths":[[99999]]}"#).is_err());
        assert!(Request::parse(r#"{"op":"load"}"#).is_err());
        assert!(Request::parse(r#"{"paths":[[1]]}"#).is_err());
    }

    #[test]
    fn responses_are_single_lines() {
        let ok = ok_response(vec![(
            "estimates".into(),
            Value::Array(vec![Value::Number(Number::Float(1.5))]),
        )]);
        assert!(
            ok.starts_with(r#"{"ok":true"#) && !ok.contains('\n'),
            "{ok}"
        );
        let e = error_response("boom");
        assert!(e.contains(r#""ok":false"#) && e.contains("boom"));
    }

    #[test]
    fn structured_refusals_carry_their_markers() {
        let o = overloaded_response("quota", "client over in-flight quota");
        assert!(o.contains(r#""ok":false"#) && !o.contains('\n'), "{o}");
        assert!(o.contains(r#""overloaded":true"#), "{o}");
        assert!(o.contains(r#""reason":"quota""#), "{o}");
        let b = backpressure_response("delta queue full");
        assert!(b.contains(r#""ok":false"#), "{b}");
        assert!(
            b.contains(r#""backpressure":true"#) && b.contains("full"),
            "{b}"
        );
    }
}
