//! Service-level metrics: request counts, throughput, latency quantiles,
//! cache hit rates, and per-slot accuracy drift — all backed by one
//! [`phe_obs::MetricsRegistry`].
//!
//! Every counter here is a registry handle, so the operator report
//! ([`MetricsReport`] / the SIGINT dump), the `metrics` protocol op, and
//! the Prometheus scrape endpoint read the **same atomics** — the three
//! surfaces cannot disagree. Recording stays lock-free: each handle is a
//! plain relaxed atomic, and latency lands in a log-linear
//! [`LatencyHistogram`] (4 sub-buckets per power of two, quantiles
//! accurate to ≤ 1.25×).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use phe_core::DriftReport;
use phe_obs::{names, Counter, Gauge, MetricsRegistry};

use crate::cache::CacheCounters;

/// Lock-free log-linear latency histogram (moved into `phe-obs`; the
/// service records nanoseconds and reads second-scaled quantiles).
pub use phe_obs::LogHistogram as LatencyHistogram;

const REBUILD_HELP: &str = "Background rebuilds by outcome event.";
const DELTA_HELP: &str = "Background delta applications by outcome event.";
const ADMISSION_HELP: &str =
    "Admission-control decisions: admitted, refused (cap/quota), or shed (overload).";

/// A protocol op, as counted by `phe_ops_total{op}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `ping`
    Ping,
    /// `list`
    List,
    /// `metrics`
    Metrics,
    /// `estimate`
    Estimate,
    /// `estimate_expr`
    EstimateExpr,
    /// `delta`
    Delta,
    /// `rebuild`
    Rebuild,
    /// `load`
    Load,
    /// `maintenance`
    Maintenance,
}

impl Op {
    const COUNT: usize = Op::Maintenance as usize + 1;

    /// The op's wire name: the counter's `op` label.
    fn name(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::List => "list",
            Op::Metrics => "metrics",
            Op::Estimate => "estimate",
            Op::EstimateExpr => "estimate_expr",
            Op::Delta => "delta",
            Op::Rebuild => "rebuild",
            Op::Load => "load",
            Op::Maintenance => "maintenance",
        }
    }
}

/// Shared counters for one serving process.
///
/// [`ServiceMetrics::new`] owns a private registry (handy for tests and
/// embedded use); [`ServiceMetrics::with_registry`] reports into a shared
/// one — `phe serve` passes [`phe_obs::global()`] so span stage
/// histograms, cache counters, and drift gauges all land on the single
/// scrapeable surface.
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    registry: Arc<MetricsRegistry>,
    /// Process uptime, refreshed on every render/report.
    uptime: Arc<Gauge>,
    /// Protocol requests answered (a batch is one request).
    requests: Arc<Counter>,
    /// Individual paths estimated across all batches.
    paths: Arc<Counter>,
    /// Requests rejected with an error.
    errors: Arc<Counter>,
    /// Snapshot hot-swaps performed.
    swaps: Arc<Counter>,
    /// Background rebuilds started.
    rebuilds_started: Arc<Counter>,
    /// Background rebuilds that failed (load/build error).
    rebuilds_failed: Arc<Counter>,
    /// Background rebuilds discarded because a newer publish landed first.
    rebuilds_superseded: Arc<Counter>,
    /// Background incremental delta applications started.
    deltas_started: Arc<Counter>,
    /// Delta applications that failed (changes load / merge error).
    deltas_failed: Arc<Counter>,
    /// Delta applications discarded because a newer publish landed first.
    deltas_superseded: Arc<Counter>,
    /// Per-request wall latency.
    latency: Arc<LatencyHistogram>,
    /// Estimate-cache counters (shared with every cache generation).
    cache: Arc<CacheCounters>,
    /// Currently open protocol connections (event-loop server).
    connections_open: Arc<Gauge>,
    /// Backing count for the open-connections gauge.
    open_count: AtomicU64,
    /// Requests admitted past admission control.
    admission_admitted: Arc<Counter>,
    /// Requests/connections refused (connection cap, per-client quota).
    admission_refused: Arc<Counter>,
    /// Requests shed under overload (queue depth / p99 threshold).
    admission_shed: Arc<Counter>,
    /// CPU-heavy requests queued for the dispatch workers right now.
    dispatch_queue_depth: Arc<Gauge>,
    /// Backing count for the dispatch-queue gauge.
    dispatch_count: AtomicU64,
    /// `phe_ops_total{op}` per [`Op`], registered on the op's first
    /// request so the exposition lists only ops that were seen.
    ops: [OnceLock<Arc<Counter>>; Op::COUNT],
}

impl ServiceMetrics {
    /// Fresh metrics reporting into a private registry, clock started now.
    pub fn new() -> ServiceMetrics {
        ServiceMetrics::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// Metrics reporting into `registry`, clock started now.
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> ServiceMetrics {
        let r = &registry;
        ServiceMetrics {
            started: Instant::now(),
            uptime: r.gauge(
                names::UPTIME_SECONDS,
                "Time since the serving process started.",
            ),
            requests: r.counter(
                names::REQUESTS_TOTAL,
                "Protocol requests answered (a batch is one request).",
            ),
            paths: r.counter(
                names::PATHS_TOTAL,
                "Individual paths estimated across all batches.",
            ),
            errors: r.counter(names::ERRORS_TOTAL, "Requests rejected with an error."),
            swaps: r.counter(names::SWAPS_TOTAL, "Snapshot hot-swaps performed."),
            rebuilds_started: r.counter_with(
                names::REBUILDS_TOTAL,
                REBUILD_HELP,
                &[("event", "started")],
            ),
            rebuilds_failed: r.counter_with(
                names::REBUILDS_TOTAL,
                REBUILD_HELP,
                &[("event", "failed")],
            ),
            rebuilds_superseded: r.counter_with(
                names::REBUILDS_TOTAL,
                REBUILD_HELP,
                &[("event", "superseded")],
            ),
            deltas_started: r.counter_with(
                names::DELTAS_TOTAL,
                DELTA_HELP,
                &[("event", "started")],
            ),
            deltas_failed: r.counter_with(names::DELTAS_TOTAL, DELTA_HELP, &[("event", "failed")]),
            deltas_superseded: r.counter_with(
                names::DELTAS_TOTAL,
                DELTA_HELP,
                &[("event", "superseded")],
            ),
            latency: r
                .duration_histogram(names::REQUEST_DURATION_SECONDS, "Per-request wall latency."),
            cache: Arc::new(CacheCounters::registered(
                r.as_ref(),
                &[("cache", "estimate")],
            )),
            connections_open: r.gauge(
                names::CONNECTIONS_OPEN,
                "Protocol connections currently open.",
            ),
            open_count: AtomicU64::new(0),
            admission_admitted: r.counter_with(
                names::ADMISSION_TOTAL,
                ADMISSION_HELP,
                &[("outcome", "admitted")],
            ),
            admission_refused: r.counter_with(
                names::ADMISSION_TOTAL,
                ADMISSION_HELP,
                &[("outcome", "refused")],
            ),
            admission_shed: r.counter_with(
                names::ADMISSION_TOTAL,
                ADMISSION_HELP,
                &[("outcome", "shed")],
            ),
            dispatch_queue_depth: r.gauge(
                names::DISPATCH_QUEUE_DEPTH,
                "CPU-heavy requests waiting for a dispatch worker.",
            ),
            dispatch_count: AtomicU64::new(0),
            ops: Default::default(),
            registry,
        }
    }

    /// The registry every handle reports into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The cache counters new cache generations should report into.
    pub fn cache_counters(&self) -> Arc<CacheCounters> {
        Arc::clone(&self.cache)
    }

    /// Records one answered request.
    pub fn record_request(&self, paths: usize, latency: Duration, ok: bool) {
        self.requests.inc();
        self.paths.add(paths as u64);
        if !ok {
            self.errors.inc();
        }
        self.latency.record_duration(latency);
    }

    /// Records one request of protocol op `op` (`phe_ops_total{op=…}`):
    /// one atomic add once the op's counter is resolved.
    pub fn record_op(&self, op: Op) {
        self.ops[op as usize]
            .get_or_init(|| {
                self.registry.counter_with(
                    names::OPS_TOTAL,
                    "Protocol requests by operation.",
                    &[("op", op.name())],
                )
            })
            .inc();
    }

    /// Records a snapshot hot-swap.
    pub fn record_swap(&self) {
        self.swaps.inc();
    }

    /// Records a connection opening; returns the new open count
    /// (`phe_connections_open`).
    pub fn connection_opened(&self) -> u64 {
        let now = self.open_count.fetch_add(1, Ordering::AcqRel) + 1;
        self.connections_open.set(now as f64);
        now
    }

    /// Records a connection closing.
    pub fn connection_closed(&self) {
        let mut now = self.open_count.load(Ordering::Acquire);
        // Saturating decrement: a miscounted close must not wrap the gauge.
        while now > 0 {
            match self.open_count.compare_exchange_weak(
                now,
                now - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    now -= 1;
                    break;
                }
                Err(seen) => now = seen,
            }
        }
        self.connections_open.set(now as f64);
    }

    /// Currently open connections.
    pub fn open_connections(&self) -> u64 {
        self.open_count.load(Ordering::Acquire)
    }

    /// Counts an admission-control decision
    /// (`phe_admission_total{outcome=admitted}`).
    pub fn record_admitted(&self) {
        self.admission_admitted.inc();
    }

    /// Counts a refusal — connection cap or per-client quota
    /// (`phe_admission_total{outcome=refused}`).
    pub fn record_refused(&self) {
        self.admission_refused.inc();
    }

    /// Counts a load-shed request
    /// (`phe_admission_total{outcome=shed}`).
    pub fn record_shed(&self) {
        self.admission_shed.inc();
    }

    /// Records a CPU-heavy request entering the dispatch queue; returns
    /// the new depth (`phe_dispatch_queue_depth`).
    pub fn dispatch_enqueued(&self) -> u64 {
        let now = self.dispatch_count.fetch_add(1, Ordering::AcqRel) + 1;
        self.dispatch_queue_depth.set(now as f64);
        now
    }

    /// Records a dispatch worker picking a queued request up.
    pub fn dispatch_dequeued(&self) {
        let now = self.dispatch_count.fetch_sub(1, Ordering::AcqRel) - 1;
        self.dispatch_queue_depth.set(now as f64);
    }

    /// CPU-heavy requests currently waiting for a dispatch worker.
    pub fn dispatch_depth(&self) -> u64 {
        self.dispatch_count.load(Ordering::Acquire)
    }

    /// Records a background rebuild being kicked off.
    pub fn record_rebuild_started(&self) {
        self.rebuilds_started.inc();
    }

    /// Records a background rebuild that did not publish (graph load or
    /// build failure).
    pub fn record_rebuild_failed(&self) {
        self.rebuilds_failed.inc();
    }

    /// Records a background rebuild discarded because the slot advanced
    /// (e.g. a `load`) while it was building.
    pub fn record_rebuild_superseded(&self) {
        self.rebuilds_superseded.inc();
    }

    /// Records a background delta application being kicked off.
    pub fn record_delta_started(&self) {
        self.deltas_started.inc();
    }

    /// Records a delta application that did not publish (changes load,
    /// contract, or merge failure).
    pub fn record_delta_failed(&self) {
        self.deltas_failed.inc();
    }

    /// Records a delta application discarded because the slot advanced
    /// while it was merging.
    pub fn record_delta_superseded(&self) {
        self.deltas_superseded.inc();
    }

    /// Publishes the per-slot touched-path accuracy gauges sampled after
    /// a delta (`phe_drift_*{slot=…}`): the current statistics' error on
    /// the paths the latest delta touched.
    pub fn record_drift(&self, slot: &str, drift: &DriftReport) {
        let labels = [("slot", slot)];
        self.registry
            .gauge_with(
                names::DRIFT_MEAN_ABS_ERROR,
                "Mean absolute error rate (paper's bounded error, [0,1]) of the \
                 current histogram's estimates vs exact counts over the paths \
                 the latest delta touched (sampled).",
                &labels,
            )
            .set(drift.mean_abs_error_rate);
        self.registry
            .gauge_with(
                names::DRIFT_MAX_Q_ERROR,
                "Worst q-error of the current histogram among the sampled paths \
                 the latest delta touched.",
                &labels,
            )
            .set(drift.max_q_error);
        self.registry
            .gauge_with(
                names::DRIFT_SAMPLED_PATHS,
                "Touched paths sampled for the latest accuracy measurement.",
                &labels,
            )
            .set(drift.sampled as f64);
    }

    /// Drops the per-slot drift gauges from the exposition. Called when
    /// a slot's maintenance state is invalidated (a `load`, a
    /// rebuild) — the last sampled drift describes statistics that no
    /// longer serve, and a gauge that cannot be unpublished would keep
    /// reporting it forever.
    pub fn clear_drift(&self, slot: &str) {
        let labels = [("slot", slot)];
        for name in [
            names::DRIFT_MEAN_ABS_ERROR,
            names::DRIFT_MAX_Q_ERROR,
            names::DRIFT_SAMPLED_PATHS,
        ] {
            self.registry.unregister_with(name, &labels);
        }
    }

    /// Publishes the per-slot maintenance queue depth
    /// (`phe_maintenance_queue_depth{slot=…}`).
    pub fn record_maintenance_queue_depth(&self, slot: &str, depth: usize) {
        self.registry
            .gauge_with(
                names::MAINTENANCE_QUEUE_DEPTH,
                "Delta batches queued for the slot's next compacted publish.",
                &[("slot", slot)],
            )
            .set(depth as f64);
    }

    /// Counts a maintenance queue event
    /// (`phe_maintenance_batches_total{event=…}`): `enqueued`,
    /// `compacted` (folded into a published merge), or `purged`
    /// (discarded because the lineage they targeted is gone).
    pub fn record_maintenance_batches(&self, event: &str, n: u64) {
        self.registry
            .counter_with(
                names::MAINTENANCE_BATCHES_TOTAL,
                "Maintenance delta batches by queue event.",
                &[("event", event)],
            )
            .add(n);
    }

    /// Renders the registry in Prometheus text exposition format
    /// (refreshing the uptime gauge first).
    pub fn render_prometheus(&self) -> String {
        self.uptime.set(self.started.elapsed().as_secs_f64());
        self.registry.render()
    }

    /// A point-in-time report.
    pub fn report(&self) -> MetricsReport {
        let elapsed = self.started.elapsed();
        self.uptime.set(elapsed.as_secs_f64());
        let requests = self.requests.get();
        MetricsReport {
            uptime: elapsed,
            requests,
            paths: self.paths.get(),
            errors: self.errors.get(),
            swaps: self.swaps.get(),
            rebuilds_started: self.rebuilds_started.get(),
            rebuilds_failed: self.rebuilds_failed.get(),
            rebuilds_superseded: self.rebuilds_superseded.get(),
            deltas_started: self.deltas_started.get(),
            deltas_failed: self.deltas_failed.get(),
            deltas_superseded: self.deltas_superseded.get(),
            qps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
            p50: self.latency.quantile_duration(0.50),
            p99: self.latency.quantile_duration(0.99),
            mean: self.latency.mean_duration(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_hit_rate: self.cache.hit_rate(),
        }
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// A printable snapshot of [`ServiceMetrics`].
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Time since the metrics were created.
    pub uptime: Duration,
    /// Requests answered.
    pub requests: u64,
    /// Paths estimated.
    pub paths: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Snapshot hot-swaps performed.
    pub swaps: u64,
    /// Background rebuilds started.
    pub rebuilds_started: u64,
    /// Background rebuilds that failed.
    pub rebuilds_failed: u64,
    /// Background rebuilds discarded in favour of a newer publish.
    pub rebuilds_superseded: u64,
    /// Background incremental delta applications started.
    pub deltas_started: u64,
    /// Delta applications that failed.
    pub deltas_failed: u64,
    /// Delta applications discarded in favour of a newer publish.
    pub deltas_superseded: u64,
    /// Requests per second over the whole uptime.
    pub qps: f64,
    /// Median request latency.
    pub p50: Duration,
    /// 99th-percentile request latency.
    pub p99: Duration,
    /// Mean request latency.
    pub mean: Duration,
    /// Cumulative estimate-cache hits.
    pub cache_hits: u64,
    /// Cumulative estimate-cache misses.
    pub cache_misses: u64,
    /// hits / (hits + misses).
    pub cache_hit_rate: f64,
}

impl std::fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "uptime           {:.1}s", self.uptime.as_secs_f64())?;
        writeln!(
            f,
            "requests         {} ({} paths, {} errors, {} swaps)",
            self.requests, self.paths, self.errors, self.swaps
        )?;
        writeln!(
            f,
            "rebuilds         {} started, {} failed, {} superseded",
            self.rebuilds_started, self.rebuilds_failed, self.rebuilds_superseded
        )?;
        writeln!(
            f,
            "deltas           {} started, {} failed, {} superseded",
            self.deltas_started, self.deltas_failed, self.deltas_superseded
        )?;
        writeln!(f, "throughput       {:.1} req/s", self.qps)?;
        writeln!(
            f,
            "latency          p50 {:?}  p99 {:?}  mean {:?}",
            self.p50, self.p99, self.mean
        )?;
        write!(
            f,
            "estimate cache   {:.1}% hit ({} hits / {} misses)",
            self.cache_hit_rate * 100.0,
            self.cache_hits,
            self.cache_misses
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record_duration(Duration::from_micros(10)); // 10_000 ns
        }
        for _ in 0..10 {
            h.record_duration(Duration::from_millis(10)); // 10^7 ns
        }
        // Log-linear buckets: the quantile midpoint is within 1.25× of
        // the recorded value.
        let p50 = h.quantile_duration(0.5).as_nanos() as u64;
        assert!((8_000..=12_500).contains(&p50), "p50 = {p50} ns");
        let p99 = h.quantile_duration(0.99).as_nanos() as u64;
        assert!((8_000_000..=12_500_000).contains(&p99), "p99 = {p99} ns");
        assert!(h.quantile_duration(0.0) <= h.quantile_duration(1.0));
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_duration(0.5), Duration::ZERO);
        assert_eq!(h.mean_duration(), Duration::ZERO);
    }

    #[test]
    fn report_counts_requests_and_errors() {
        let m = ServiceMetrics::new();
        m.record_request(8, Duration::from_micros(5), true);
        m.record_request(1, Duration::from_micros(7), false);
        m.record_swap();
        m.record_rebuild_started();
        m.record_rebuild_failed();
        m.record_delta_started();
        m.record_delta_superseded();
        let r = m.report();
        assert_eq!(r.requests, 2);
        assert_eq!(r.paths, 9);
        assert_eq!(r.errors, 1);
        assert_eq!(r.swaps, 1);
        assert_eq!((r.rebuilds_started, r.rebuilds_failed), (1, 1));
        assert_eq!((r.deltas_started, r.deltas_superseded), (1, 1));
        assert!(r.qps > 0.0);
        let text = r.to_string();
        assert!(text.contains("requests"), "{text}");
        assert!(text.contains("estimate cache"), "{text}");
    }

    #[test]
    fn prometheus_render_parses_and_matches_report() {
        let m = ServiceMetrics::new();
        m.record_request(3, Duration::from_micros(5), true);
        m.record_op(Op::Estimate);
        m.record_op(Op::Estimate);
        m.record_op(Op::List);
        m.record_drift(
            "main",
            &phe_core::DriftReport {
                touched: 100,
                sampled: 50,
                mean_abs_error_rate: 0.125,
                max_q_error: 2.0,
            },
        );
        let text = m.render_prometheus();
        let samples = phe_obs::parse_exposition(&text).expect("exposition must parse");
        let value = |name: &str, label: Option<(&str, &str)>| -> f64 {
            samples
                .iter()
                .find(|s| {
                    s.name == name
                        && label
                            .is_none_or(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
                })
                .unwrap_or_else(|| panic!("missing sample {name} {label:?} in:\n{text}"))
                .value
        };
        assert_eq!(value("phe_requests_total", None), 1.0);
        assert_eq!(value("phe_paths_total", None), 3.0);
        assert_eq!(value("phe_ops_total", Some(("op", "estimate"))), 2.0);
        assert_eq!(value("phe_ops_total", Some(("op", "list"))), 1.0);
        assert_eq!(
            value("phe_drift_mean_abs_error", Some(("slot", "main"))),
            0.125
        );
        assert_eq!(
            value("phe_drift_sampled_paths", Some(("slot", "main"))),
            50.0
        );
        assert_eq!(value("phe_request_duration_seconds_count", None), 1.0);
    }

    #[test]
    fn clear_drift_removes_only_that_slots_gauges() {
        let m = ServiceMetrics::new();
        let report = phe_core::DriftReport {
            touched: 10,
            sampled: 10,
            mean_abs_error_rate: 0.5,
            max_q_error: 4.0,
        };
        m.record_drift("a", &report);
        m.record_drift("b", &report);
        m.record_maintenance_queue_depth("a", 3);
        m.record_maintenance_batches("enqueued", 3);
        m.clear_drift("a");
        let text = m.render_prometheus();
        assert!(
            !text.contains("phe_drift_mean_abs_error{slot=\"a\"}"),
            "{text}"
        );
        assert!(
            text.contains("phe_drift_mean_abs_error{slot=\"b\"}"),
            "{text}"
        );
        assert!(
            text.contains("phe_maintenance_queue_depth{slot=\"a\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("phe_maintenance_batches_total{event=\"enqueued\"} 3"),
            "{text}"
        );
        // Clearing a slot that never reported drift is a no-op.
        m.clear_drift("never");
    }

    #[test]
    fn admission_metrics_reach_the_exposition() {
        let m = ServiceMetrics::new();
        assert_eq!(m.connection_opened(), 1);
        assert_eq!(m.connection_opened(), 2);
        m.connection_closed();
        assert_eq!(m.open_connections(), 1);
        m.connection_closed();
        m.connection_closed(); // saturates instead of wrapping
        assert_eq!(m.open_connections(), 0);
        m.record_admitted();
        m.record_refused();
        m.record_shed();
        m.record_shed();
        assert_eq!(m.dispatch_enqueued(), 1);
        assert_eq!(m.dispatch_enqueued(), 2);
        m.dispatch_dequeued();
        assert_eq!(m.dispatch_depth(), 1);
        let text = m.render_prometheus();
        assert!(text.contains("phe_connections_open 0"), "{text}");
        assert!(
            text.contains("phe_admission_total{outcome=\"admitted\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("phe_admission_total{outcome=\"refused\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("phe_admission_total{outcome=\"shed\"} 2"),
            "{text}"
        );
        assert!(text.contains("phe_dispatch_queue_depth 1"), "{text}");
        phe_obs::parse_exposition(&text).expect("exposition must parse");
    }
}
