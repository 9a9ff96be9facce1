//! The metric declarations in `BENCHMARK.json`, the result line every run
//! ends with, and the `--compare` report.
//!
//! `BENCHMARK.json` is the single source of metric names, units,
//! directions and bounds: a run emits exactly the declared metrics, in
//! declared order, and a workload that produces a name the file does not
//! declare is a bug the run refuses to hide.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::{Number, Value};

use crate::stats;
use crate::workload::{Outcome, Values};

/// The declaration file, compiled in.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Everything `BENCHMARK.json` declares that a run needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
}

fn metrics(root: &Value, key: &str) -> Vec<Metric> {
    root.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key:?} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without {f:?}"))
                    .to_owned()
            };
            Metric {
                name: field("name"),
                unit: field("unit"),
                higher_is_better: field("better") == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

/// Parses the compiled-in `BENCHMARK.json`.
pub fn declared() -> Declared {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    Declared {
        workloads: root
            .get("workloads")
            .and_then(Value::as_array)
            .expect("BENCHMARK.json: no workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_owned))
            .collect(),
        end_to_end: metrics(&root, "end_to_end"),
        per_layer: metrics(&root, "per_layer"),
    }
}

/// The declared metrics of one kind, each with its value from `values`.
///
/// End-to-end metrics must all be present. A per-layer metric a workload
/// does not exercise reads 0.
///
/// # Panics
/// When `values` holds a name the declarations do not, or misses an
/// end-to-end metric — a mismatch between code and `BENCHMARK.json`.
pub fn resolve<'a>(
    declared: &'a [Metric],
    values: &Values,
    end_to_end: bool,
) -> Vec<(&'a Metric, f64)> {
    for name in values.keys() {
        assert!(
            declared.iter().any(|m| m.name == *name),
            "metric {name:?} is not declared in BENCHMARK.json"
        );
    }
    declared
        .iter()
        .map(|m| {
            let value = values.get(m.name.as_str()).copied();
            assert!(
                value.is_some() || !end_to_end,
                "end-to-end metric {:?} was not measured",
                m.name
            );
            (m, value.unwrap_or(0.0))
        })
        .collect()
}

/// The run's last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(outcome: &Outcome, metrics: &[(&Metric, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|(m, v)| {
            (
                m.name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Number(Number::Float(*v))),
                    ("unit".into(), Value::string(m.unit.clone())),
                ]),
            )
        })
        .collect();
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.correct())),
        (
            "attempted".into(),
            Value::Number(Number::PosInt(outcome.attempted)),
        ),
        (
            "failed".into(),
            Value::Number(Number::PosInt(outcome.failed)),
        ),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .expect("a flat JSON object serializes")
}

/// Reads a result line back: `(correct, attempted, failed, name → value)`.
pub fn parse_result(line: &str) -> Option<(bool, u64, u64, BTreeMap<String, f64>)> {
    let value: Value = serde_json::from_str(line).ok()?;
    let correct = matches!(value.get("correct"), Some(Value::Bool(true)));
    let attempted = value.get("attempted")?.as_u64()?;
    let failed = value.get("failed")?.as_u64()?;
    let metrics = match value.get("metrics")? {
        Value::Object(entries) => entries
            .iter()
            .map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect::<Option<BTreeMap<_, _>>>()?,
        _ => return None,
    };
    Some((correct, attempted, failed, metrics))
}

/// Renders metric values as an aligned `name value unit` block.
pub fn render_metrics(metrics: &[(&Metric, f64)]) -> String {
    let mut out = String::new();
    for (m, v) in metrics {
        let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, v, m.unit);
    }
    out
}

/// How a metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The old runs' own spread exceeds the bound, and the sets overlap.
    Unresolved,
}

impl Verdict {
    /// The label `--compare` prints.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` runs against `old` runs of a metric with `bound`.
///
/// `delta` is the change of the median as a share of the old median,
/// signed so that positive means worse. When the old runs' interquartile
/// spread is wider than the bound the change cannot be told from noise,
/// unless every new run beats (or trails) every old run.
pub fn judge(old: &[f64], new: &[f64], bound: f64, higher_is_better: bool) -> (f64, f64, Verdict) {
    let (old_median, new_median) = (stats::median(old), stats::median(new));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let delta = if old_median == 0.0 {
        0.0
    } else {
        sign * (new_median - old_median) / old_median.abs()
    };
    let spread = stats::relative_spread(old);
    let worse = |a: f64, b: f64| sign * (a - b) > 0.0;
    let all_better = new.iter().all(|&n| old.iter().all(|&o| worse(o, n)));
    let all_worse = new.iter().all(|&n| old.iter().all(|&o| worse(n, o)));
    let verdict = if spread > bound {
        if all_better {
            Verdict::Improved
        } else if all_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if delta > bound {
        Verdict::Regressed
    } else if delta < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (delta, spread, verdict)
}

/// A summary file of one or more full runs: workload → metric → values.
pub type Summary = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Serializes a summary.
pub fn summary_json(summary: &Summary, seed: u64, seconds: f64) -> String {
    let workloads = summary
        .iter()
        .map(|(w, metrics)| {
            (
                w.clone(),
                Value::Object(
                    metrics
                        .iter()
                        .map(|(m, vs)| {
                            (
                                m.clone(),
                                Value::Array(
                                    vs.iter()
                                        .map(|v| Value::Number(Number::Float(*v)))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            )
        })
        .collect();
    serde_json::to_string_pretty(&Value::Object(vec![
        ("seed".into(), Value::Number(Number::PosInt(seed))),
        ("seconds".into(), Value::Number(Number::Float(seconds))),
        ("workloads".into(), Value::Object(workloads)),
    ]))
    .expect("summary serializes")
}

/// Parses a summary file.
pub fn parse_summary(text: &str) -> Result<Summary, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let Some(Value::Object(workloads)) = root.get("workloads") else {
        return Err("no \"workloads\" object".into());
    };
    workloads
        .iter()
        .map(|(w, metrics)| {
            let Value::Object(metrics) = metrics else {
                return Err(format!("workload {w:?} is not an object"));
            };
            let metrics = metrics
                .iter()
                .map(|(m, vs)| {
                    let values = vs
                        .as_array()
                        .and_then(|a| a.iter().map(Value::as_f64).collect::<Option<Vec<_>>>())
                        .ok_or_else(|| format!("{w}/{m}: not a list of numbers"))?;
                    Ok((m.clone(), values))
                })
                .collect::<Result<_, String>>()?;
            Ok((w.clone(), metrics))
        })
        .collect()
}

/// The `--compare` table: every end-to-end metric of every workload
/// present in both summaries, its change beside its bound, and a verdict.
pub fn compare(old: &Summary, new: &Summary, declared: &Declared) -> (String, bool) {
    let mut out = format!(
        "{:<11} {:<14} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict\n",
        "workload", "metric", "old median", "new median", "change", "bound", "spread"
    );
    let mut regressed = false;
    for (workload, old_metrics) in old {
        let Some(new_metrics) = new.get(workload) else {
            continue;
        };
        for metric in &declared.end_to_end {
            let (Some(o), Some(n)) = (old_metrics.get(&metric.name), new_metrics.get(&metric.name))
            else {
                continue;
            };
            if o.is_empty() || n.is_empty() {
                continue;
            }
            let bound = metric.bound.unwrap_or(0.0);
            let (delta, spread, verdict) = judge(o, n, bound, metric.higher_is_better);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<11} {:<14} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {:>7.1}%  {}",
                workload,
                metric.name,
                stats::median(o),
                stats::median(n),
                100.0 * delta,
                100.0 * bound,
                100.0 * spread,
                verdict.label()
            );
        }
    }
    out.push_str(
        "change: positive = worse; spread: interquartile range of the old runs / median\n",
    );
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_parse_with_bounds_on_every_end_to_end_metric() {
        let d = declared();
        assert!(d.workloads.len() >= 2);
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
    }

    #[test]
    fn verdicts() {
        let old = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(judge(&old, &[100.2; 5], 0.1, false).2, Verdict::Unchanged);
        assert_eq!(judge(&old, &[120.0; 5], 0.1, false).2, Verdict::Regressed);
        assert_eq!(judge(&old, &[80.0; 5], 0.1, false).2, Verdict::Improved);
        // Higher is better: a drop is a regression.
        assert_eq!(judge(&old, &[80.0; 5], 0.1, true).2, Verdict::Regressed);
        // A noisy baseline cannot resolve a small move...
        let noisy = [50.0, 100.0, 150.0, 100.0, 75.0];
        assert_eq!(
            judge(&noisy, &[110.0; 5], 0.1, false).2,
            Verdict::Unresolved
        );
        // ...unless every new run is worse than every old one.
        assert_eq!(judge(&noisy, &[200.0; 5], 0.1, false).2, Verdict::Regressed);
    }

    #[test]
    fn result_lines_round_trip() {
        let d = declared();
        let outcome = Outcome {
            attempted: 7,
            ..Outcome::default()
        };
        // Values are keyed by `'static` names; the declarations own theirs.
        let values: Values = d
            .end_to_end
            .iter()
            .map(|m| (&*Box::leak(m.name.clone().into_boxed_str()), 1.25))
            .collect();
        let resolved = resolve(&d.end_to_end, &values, true);
        let line = result_line(&outcome, &resolved);
        let (correct, attempted, failed, metrics) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!((attempted, failed), (7, 0));
        assert_eq!(metrics.len(), d.end_to_end.len());
        assert!(metrics.values().all(|&v| v == 1.25));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        let d = declared();
        let mut values = Values::new();
        values.insert("no_such_metric", 1.0);
        resolve(&d.per_layer, &values, false);
    }

    #[test]
    fn summaries_round_trip() {
        let mut s = Summary::new();
        s.entry("build".into())
            .or_default()
            .insert("setup_s".into(), vec![1.5, 2.25]);
        let parsed = parse_summary(&summary_json(&s, 42, 10.0)).unwrap();
        assert_eq!(parsed, s);
    }
}
