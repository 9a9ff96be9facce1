//! Rebuild policy for maintained estimators: when is "merge the delta"
//! no longer good enough and a rebuild — re-deriving the ordering and
//! histogram from scratch — warranted?
//!
//! Two triggers, both cheap to evaluate after every compacted publish:
//!
//! * **Lineage length** — [`RebuildPolicy::max_applied_deltas`]. Every
//!   [`apply_delta`](crate::PathSelectivityEstimator::apply_delta) merge
//!   is bit-identical to a rebuild *of the statistics*, but the snapshot
//!   lineage grows unboundedly and the ordering-reuse fast path degrades
//!   as churn reshuffles label frequencies. Past a threshold, restart
//!   the lineage: re-derive ordering and histogram from the maintained
//!   catalog
//!   ([`from_sparse_catalog`](crate::PathSelectivityEstimator::from_sparse_catalog))
//!   — no recount, since the merged catalog already equals one.
//! * **Accuracy drift** — the [`DriftReport`] sampled after each delta
//!   (PR 6) measures estimate-vs-exact error *on the paths churn
//!   touched*. The threshold it is compared against is not an ad-hoc
//!   constant: Baraud–Birgé's risk bounds for histogram estimators of
//!   Poisson/density intensities (see PAPERS.md) show that a histogram
//!   with `D` cells over `n` observations carries an unavoidable
//!   estimation-error term of order `sqrt(D·(1 + ln(n/D)) / n)` — the
//!   penalty their model-selection criterion charges a `D`-cell
//!   partition. While the partition still *fits* the data, the observed
//!   per-path error rate should stay within a small multiple of that
//!   noise floor; a drift report crossing it is statistical evidence the
//!   bucketing no longer matches the frequency distribution, which is
//!   exactly the "rebuild the ordering + histogram" signal.
//!
//! [`DriftThreshold::baraud_birge`] instantiates the bound with `D = β`
//! (bucket budget) and `n` = realized paths in the catalog;
//! [`RebuildPolicy::trigger`] combines both criteria and names which one
//! fired. The service's maintenance worker evaluates this after every
//! compacted publish and acts on the verdict.

use crate::estimator::DriftReport;

/// Absolute drift levels past which a maintained estimator should be
/// rebuilt. Usually derived from the data via
/// [`DriftThreshold::baraud_birge`]; can also be pinned explicitly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftThreshold {
    /// Rebuild when the sampled mean `|error|` rate exceeds this
    /// (the paper's error-rate metric, bounded in `[0, 1]`).
    pub mean_abs_error_rate: f64,
    /// Rebuild when the sampled worst q-error exceeds this (≥ 1).
    pub max_q_error: f64,
}

impl DriftThreshold {
    /// The Baraud–Birgé-derived threshold for a `beta`-bucket histogram
    /// over `realized_paths` nonzero catalog entries, scaled by `scale`.
    ///
    /// The penalty rate `sqrt(β·(1 + ln(n/β)) / n)` is the
    /// estimation-error order a β-cell irregular partition cannot beat;
    /// `scale` (default 1.0) trades rebuild eagerness against tolerance.
    /// The q-error arm is the multiplicative twin: a mean error rate of
    /// `p` corresponds to a typical under/over-estimate factor around
    /// `1/(1-p)`, so the threshold allows a generous `1 + 8·penalty`
    /// before calling the worst sampled bucket broken.
    pub fn baraud_birge(beta: usize, realized_paths: u64, scale: f64) -> DriftThreshold {
        let n = (realized_paths.max(1)) as f64;
        // More cells than observations means every cell is its own
        // observation; the bound saturates.
        let d = (beta.max(1) as f64).min(n);
        let penalty = (d * (1.0 + (n / d).ln()) / n).sqrt() * scale;
        DriftThreshold {
            mean_abs_error_rate: penalty.min(1.0),
            max_q_error: 1.0 + 8.0 * penalty,
        }
    }

    /// Whether `drift` crosses either arm of the threshold. Empty samples
    /// never trigger — no evidence, no rebuild.
    pub fn exceeded_by(&self, drift: &DriftReport) -> bool {
        drift.sampled > 0
            && (drift.mean_abs_error_rate > self.mean_abs_error_rate
                || drift.max_q_error > self.max_q_error)
    }
}

/// Why a maintained slot was (or would be) fully rebuilt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebuildTrigger {
    /// The delta lineage grew past the policy's length threshold.
    AppliedDeltas {
        /// Deltas folded in since the originating full build.
        applied: u64,
        /// The policy's `max_applied_deltas`.
        threshold: u64,
    },
    /// The sampled drift crossed the (Baraud–Birgé or pinned) threshold.
    Drift {
        /// The report that crossed.
        report: DriftReport,
        /// The threshold it crossed.
        threshold: DriftThreshold,
    },
}

impl RebuildTrigger {
    /// Stable machine-readable trigger kind (metric label / protocol
    /// field): `"applied-deltas"` or `"drift"`.
    pub fn kind(&self) -> &'static str {
        match self {
            RebuildTrigger::AppliedDeltas { .. } => "applied-deltas",
            RebuildTrigger::Drift { .. } => "drift",
        }
    }
}

impl std::fmt::Display for RebuildTrigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebuildTrigger::AppliedDeltas { applied, threshold } => {
                write!(f, "applied-deltas {applied} >= {threshold}")
            }
            RebuildTrigger::Drift { report, threshold } => write!(
                f,
                "drift mean {:.4} / q {:.3} crossed {:.4} / {:.3} over {} sampled paths",
                report.mean_abs_error_rate,
                report.max_q_error,
                threshold.mean_abs_error_rate,
                threshold.max_q_error,
                report.sampled,
            ),
        }
    }
}

/// When a maintained slot should stop merging deltas and rebuild.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebuildPolicy {
    /// Full maintaining rebuild once this many deltas have been folded
    /// into the lineage since the last full build. `0` disables the arm.
    pub max_applied_deltas: u64,
    /// Multiplier on the Baraud–Birgé drift bound; `<= 0` disables
    /// drift-triggered rebuilds.
    pub drift_scale: f64,
    /// Pin the drift threshold explicitly instead of deriving it from
    /// `(β, realized paths)`. `drift_scale` still gates the arm on/off.
    pub drift_override: Option<DriftThreshold>,
}

impl Default for RebuildPolicy {
    /// Rebuild after 64 lineage deltas or a 1× Baraud–Birgé crossing.
    fn default() -> RebuildPolicy {
        RebuildPolicy {
            max_applied_deltas: 64,
            drift_scale: 1.0,
            drift_override: None,
        }
    }
}

impl RebuildPolicy {
    /// The drift threshold this policy applies to a `beta`-bucket
    /// histogram over `realized_paths` entries — the override if pinned,
    /// the scaled Baraud–Birgé bound otherwise, `None` if the arm is
    /// disabled.
    pub fn drift_threshold(&self, beta: usize, realized_paths: u64) -> Option<DriftThreshold> {
        if self.drift_scale <= 0.0 {
            return None;
        }
        Some(self.drift_override.unwrap_or_else(|| {
            DriftThreshold::baraud_birge(beta, realized_paths, self.drift_scale)
        }))
    }

    /// Evaluates both arms against a slot's state; returns the first
    /// trigger that fires (lineage length is checked before drift — it
    /// is the cheaper, more conservative signal).
    pub fn trigger(
        &self,
        applied_deltas: u64,
        drift: Option<&DriftReport>,
        beta: usize,
        realized_paths: u64,
    ) -> Option<RebuildTrigger> {
        if self.max_applied_deltas > 0 && applied_deltas >= self.max_applied_deltas {
            return Some(RebuildTrigger::AppliedDeltas {
                applied: applied_deltas,
                threshold: self.max_applied_deltas,
            });
        }
        let (report, threshold) = (drift?, self.drift_threshold(beta, realized_paths)?);
        threshold
            .exceeded_by(report)
            .then_some(RebuildTrigger::Drift {
                report: *report,
                threshold,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drift(mean: f64, q: f64) -> DriftReport {
        DriftReport {
            touched: 100,
            sampled: 50,
            mean_abs_error_rate: mean,
            max_q_error: q,
        }
    }

    #[test]
    fn baraud_birge_bound_shape() {
        // More data under the same budget → tighter threshold.
        let coarse = DriftThreshold::baraud_birge(64, 1_000, 1.0);
        let fine = DriftThreshold::baraud_birge(64, 100_000, 1.0);
        assert!(fine.mean_abs_error_rate < coarse.mean_abs_error_rate);
        assert!(fine.max_q_error < coarse.max_q_error);
        // More buckets over the same data → looser threshold (each cell
        // sees fewer observations).
        let wide = DriftThreshold::baraud_birge(256, 10_000, 1.0);
        let narrow = DriftThreshold::baraud_birge(16, 10_000, 1.0);
        assert!(wide.mean_abs_error_rate > narrow.mean_abs_error_rate);
        // Saturates instead of exceeding the metric's own range.
        let tiny = DriftThreshold::baraud_birge(1024, 10, 1.0);
        assert!(tiny.mean_abs_error_rate <= 1.0);
        assert!(tiny.max_q_error >= 1.0);
        // Scale moves both arms.
        let strict = DriftThreshold::baraud_birge(64, 10_000, 0.25);
        let lax = DriftThreshold::baraud_birge(64, 10_000, 4.0);
        assert!(strict.mean_abs_error_rate < lax.mean_abs_error_rate);
    }

    #[test]
    fn policy_arms_fire_and_disable() {
        let policy = RebuildPolicy {
            max_applied_deltas: 4,
            drift_scale: 1.0,
            drift_override: Some(DriftThreshold {
                mean_abs_error_rate: 0.2,
                max_q_error: 3.0,
            }),
        };
        // Lineage arm fires first and names its numbers.
        let t = policy.trigger(4, None, 64, 1_000).unwrap();
        assert_eq!(t.kind(), "applied-deltas");
        assert!(t.to_string().contains("4 >= 4"), "{t}");
        // Below the lineage arm, drift decides.
        assert_eq!(policy.trigger(3, None, 64, 1_000), None);
        let calm = drift(0.1, 1.5);
        assert_eq!(policy.trigger(3, Some(&calm), 64, 1_000), None);
        let noisy = drift(0.5, 1.5);
        assert_eq!(
            policy.trigger(3, Some(&noisy), 64, 1_000).unwrap().kind(),
            "drift"
        );
        let skewed = drift(0.1, 9.0);
        assert!(policy.trigger(3, Some(&skewed), 64, 1_000).is_some());
        // An empty sample is no evidence.
        let empty = DriftReport {
            touched: 0,
            sampled: 0,
            mean_abs_error_rate: 0.0,
            max_q_error: 1.0,
        };
        assert_eq!(policy.trigger(3, Some(&empty), 64, 1_000), None);
        // Disabled arms never fire.
        let off = RebuildPolicy {
            max_applied_deltas: 0,
            drift_scale: 0.0,
            drift_override: None,
        };
        assert_eq!(off.trigger(1_000_000, Some(&noisy), 64, 1_000), None);
    }
}
