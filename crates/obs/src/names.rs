//! The metric-name catalog: every `phe_*` metric family the workspace
//! exposes, as a `pub const`.
//!
//! This module is the single source of truth for metric family names.
//! Instrumentation code must reference these constants instead of
//! spelling the string out; the `metric-catalog` pass of `phe-lint`
//! enforces that, and additionally cross-checks this catalog against
//! the metric table in `docs/ARCHITECTURE.md` — a name added in code
//! without a doc row (or the reverse) fails CI.
//!
//! Keep the constants sorted by name within each section, and keep the
//! doc comment of each constant in sync with the `help` string passed
//! at registration.

// --- request path -----------------------------------------------------

/// Admission-control decisions by `outcome` label: `admitted`,
/// `refused` (connection cap / per-client quota), or `shed` (overload).
pub const ADMISSION_TOTAL: &str = "phe_admission_total";

/// Estimate-cache lookups by `result` label (`hit` / `miss`), with a
/// `cache` label naming the cache instance.
pub const CACHE_REQUESTS_TOTAL: &str = "phe_cache_requests_total";

/// Protocol connections currently open (event-loop server).
pub const CONNECTIONS_OPEN: &str = "phe_connections_open";

/// CPU-heavy requests waiting for a dispatch worker right now.
pub const DISPATCH_QUEUE_DEPTH: &str = "phe_dispatch_queue_depth";

/// Requests rejected with an error.
pub const ERRORS_TOTAL: &str = "phe_errors_total";

/// Protocol requests by operation (`op` label).
pub const OPS_TOTAL: &str = "phe_ops_total";

/// Individual paths estimated across all batches.
pub const PATHS_TOTAL: &str = "phe_paths_total";

/// Per-request wall latency histogram (seconds).
pub const REQUEST_DURATION_SECONDS: &str = "phe_request_duration_seconds";

/// Protocol requests answered (a batch is one request).
pub const REQUESTS_TOTAL: &str = "phe_requests_total";

/// Per-stage pipeline latency histogram (`stage` label); the sink every
/// [`crate::span::stage`] guard reports into.
pub const STAGE_DURATION_SECONDS: &str = "phe_stage_duration_seconds";

/// Time since the serving process started, in seconds.
pub const UPTIME_SECONDS: &str = "phe_uptime_seconds";

// --- catalog maintenance ----------------------------------------------

/// Background delta applications by `event` label: `started`, `failed`,
/// or `superseded`.
pub const DELTAS_TOTAL: &str = "phe_deltas_total";

/// Mean absolute error rate of the current histogram's estimates vs
/// exact counts over the sampled paths the latest delta touched (`slot`
/// label).
pub const DRIFT_MEAN_ABS_ERROR: &str = "phe_drift_mean_abs_error";

/// Worst q-error of the current histogram among the sampled paths the
/// latest delta touched (`slot` label).
pub const DRIFT_MAX_Q_ERROR: &str = "phe_drift_max_q_error";

/// Touched paths sampled for the latest accuracy measurement (`slot`
/// label).
pub const DRIFT_SAMPLED_PATHS: &str = "phe_drift_sampled_paths";

/// Maintenance delta batches by queue `event` label: `enqueued`,
/// `compacted`, or `purged`.
pub const MAINTENANCE_BATCHES_TOTAL: &str = "phe_maintenance_batches_total";

/// Delta batches queued for a slot's next compacted publish
/// (`slot` label).
pub const MAINTENANCE_QUEUE_DEPTH: &str = "phe_maintenance_queue_depth";

/// Background rebuilds by `event` label: `started`, `failed`, or
/// `superseded`.
pub const REBUILDS_TOTAL: &str = "phe_rebuilds_total";

/// Snapshot hot-swaps performed.
pub const SWAPS_TOTAL: &str = "phe_swaps_total";

/// Every family in the catalog, for exhaustiveness checks in tests.
pub const ALL: &[&str] = &[
    ADMISSION_TOTAL,
    CACHE_REQUESTS_TOTAL,
    CONNECTIONS_OPEN,
    DELTAS_TOTAL,
    DISPATCH_QUEUE_DEPTH,
    DRIFT_MAX_Q_ERROR,
    DRIFT_MEAN_ABS_ERROR,
    DRIFT_SAMPLED_PATHS,
    ERRORS_TOTAL,
    MAINTENANCE_BATCHES_TOTAL,
    MAINTENANCE_QUEUE_DEPTH,
    OPS_TOTAL,
    PATHS_TOTAL,
    REBUILDS_TOTAL,
    REQUEST_DURATION_SECONDS,
    REQUESTS_TOTAL,
    STAGE_DURATION_SECONDS,
    SWAPS_TOTAL,
    UPTIME_SECONDS,
];

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn all_is_sorted_unique_and_prefixed() {
        for pair in ALL.windows(2) {
            assert!(pair[0] < pair[1], "{} !< {}", pair[0], pair[1]);
        }
        for name in ALL {
            assert!(name.starts_with("phe_"), "{name}");
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{name}"
            );
        }
    }
}
