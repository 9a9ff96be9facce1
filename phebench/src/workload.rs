//! What every workload shares: run options, the outcome it reports, and
//! the set-up and process measurements around it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats;
use crate::trace::{LayerTable, Tracer};

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-expr", "maintain", "build"];

/// How one workload run is configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOpts {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Tiny graphs and short windows: a quick end-to-end check.
    pub smoke: bool,
}

impl RunOpts {
    /// Warm-up before the measured window: a tenth of it, at least 0.2 s.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 10.0).max(0.2))
    }

    /// The measured window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set-ups per run; `setup_s` is their median, so one slow set-up (a cold
/// page cache, a noisy neighbour) does not move it.
pub const SETUP_REPEATS: usize = 5;

/// Metric values by declared name.
pub type Values = BTreeMap<&'static str, f64>;

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: requests, publish passes, builds, and answer
    /// checks.
    pub attempted: u64,
    /// Attempts that failed: error lines, I/O errors, wrong answers,
    /// passes that did not publish.
    pub failed: u64,
    /// Named whole-run checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metric values.
    pub end_to_end: Values,
    /// Per-layer metric values (traced runs).
    pub per_layer: Values,
    /// Per-layer breakdowns of the end-to-end figures (traced runs).
    pub tables: Vec<LayerTable>,
    /// Human-readable lines: sample counts, generator lateness, sizes.
    pub notes: Vec<String>,
    /// The run's spans (traced runs), written out at exit.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records a whole-run check; a failed check also counts as a failed
    /// attempt.
    pub fn check(&mut self, name: impl Into<String>, held: bool) {
        self.attempted += 1;
        if !held {
            self.failed += 1;
        }
        self.checks.push((name.into(), held));
    }

    /// Whether every attempt and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, held)| *held)
    }

    /// Adds a human-readable note.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Runs `make` [`SETUP_REPEATS`] times, handing all but the last result to
/// `discard`; returns the last result and the median set-up seconds.
pub fn timed_setups<T>(mut make: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = kept.take() {
            discard(previous);
        }
        let start = Instant::now();
        kept = Some(make());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        kept.expect("SETUP_REPEATS is at least one"),
        stats::median(&times),
    )
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Summed busy time, ns, of the program's own `phe_stage_duration_seconds`
/// series for `stage` — the in-program stage timers, read from
/// `phe_obs::global()` so outside spans can be cross-checked against them.
fn stage_busy_ns(stage: &'static str) -> u64 {
    phe_obs::global()
        .duration_histogram_with(
            phe_obs::STAGE_HISTOGRAM,
            "Wall time per pipeline stage.",
            &[("stage", stage)],
        )
        .sum()
}

/// The program's existing stage spans, cross-checked per workload.
const STAGES: [&str; 14] = [
    "build",
    "build.count",
    "build.merge",
    "build.order",
    "build.histogram",
    "delta",
    "delta.apply",
    "delta.count",
    "delta.merge",
    "delta.rederive",
    "query.parse",
    "query.expand",
    "query.prune",
    "query.estimate",
];

/// A snapshot of every stage's busy time, to diff across a window.
pub fn stage_snapshot() -> Vec<u64> {
    STAGES.iter().map(|s| stage_busy_ns(s)).collect()
}

/// Per-operation stage busy times (`stage.<name>.busy_ms`) between two
/// [`stage_snapshot`]s.
pub fn stage_metrics(values: &mut Values, before: &[u64], after: &[u64], ops: u64) {
    const NAMES: [&str; 14] = [
        "stage.build.busy_ms",
        "stage.build.count.busy_ms",
        "stage.build.merge.busy_ms",
        "stage.build.order.busy_ms",
        "stage.build.histogram.busy_ms",
        "stage.delta.busy_ms",
        "stage.delta.apply.busy_ms",
        "stage.delta.count.busy_ms",
        "stage.delta.merge.busy_ms",
        "stage.delta.rederive.busy_ms",
        "stage.query.parse.busy_ms",
        "stage.query.expand.busy_ms",
        "stage.query.prune.busy_ms",
        "stage.query.estimate.busy_ms",
    ];
    for ((name, before), after) in NAMES.iter().zip(before).zip(after) {
        let busy = after.saturating_sub(*before);
        values.insert(name, busy as f64 / ops.max(1) as f64 / 1e6);
    }
}
