//! The servable estimator: a restored label-path histogram plus the
//! name → id resolution a remote caller needs, with panic-free
//! validation on every query path.

use std::collections::HashMap;

use phe_core::snapshot::{EstimatorSnapshot, SnapshotError};
use phe_core::{LabelPath, LabelPathHistogram, PathSelectivityEstimator};
use phe_graph::{FollowMatrix, LabelId};

/// Why an estimate request was rejected. The core estimator panics on
/// contract violations (it trusts the optimizer driving it); a service
/// must instead refuse bad input and keep running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimateError {
    /// The path had no steps.
    EmptyPath,
    /// The path exceeds the `k` the statistics were built for.
    TooLong {
        /// Requested path length.
        len: usize,
        /// Maximum supported length.
        k: usize,
    },
    /// A label name not present in the statistics.
    UnknownLabel(String),
    /// A numeric label id out of range.
    UnknownLabelId(u16),
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::EmptyPath => write!(f, "empty label path"),
            EstimateError::TooLong { len, k } => {
                write!(f, "path has {len} steps but the statistics cover k <= {k}")
            }
            EstimateError::UnknownLabel(name) => write!(f, "unknown label {name:?}"),
            EstimateError::UnknownLabelId(id) => write!(f, "unknown label id {id}"),
        }
    }
}

impl std::error::Error for EstimateError {}

/// An immutable, thread-safe estimator ready to answer path-selectivity
/// queries: the retained histogram, plus label-name resolution.
///
/// Build one [`from_snapshot`](ServableEstimator::from_snapshot) (the
/// "ship statistics to the serving tier" workflow) or
/// [`from_estimator`](ServableEstimator::from_estimator) (serve straight
/// out of a build). All methods take `&self`; share it via `Arc` — the
/// registry does exactly that.
pub struct ServableEstimator {
    label_names: Vec<String>,
    by_name: HashMap<String, LabelId>,
    k: usize,
    histogram: LabelPathHistogram,
    /// Human-readable provenance, e.g. `"sum-based/v-optimal-greedy β=64"`.
    description: String,
    /// Delta lineage of the statistics being served: the originating full
    /// build's id and how many incremental deltas were folded in since.
    /// `None` for pre-v3 snapshots, which carry no lineage.
    lineage: Option<(u64, u64)>,
    /// The label-follow matrix, when the source carried one (a live
    /// build, or a v5 snapshot): what [`ServingEstimator`] expansion
    /// pruning uses, so remote `estimate_expr` discards impossible
    /// branches instead of estimating them at zero.
    ///
    /// [`ServingEstimator`]: crate::registry::ServingEstimator
    follow: Option<FollowMatrix>,
}

impl ServableEstimator {
    /// Restores a servable estimator from a snapshot.
    ///
    /// # Errors
    /// Propagates [`SnapshotError`] for corrupt or unsupported snapshots.
    pub fn from_snapshot(snapshot: &EstimatorSnapshot) -> Result<ServableEstimator, SnapshotError> {
        let histogram = snapshot.restore()?;
        let lineage = snapshot.base_build_id.zip(snapshot.applied_deltas);
        let follow = snapshot.restore_follow_matrix()?;
        Ok(Self::from_parts(
            snapshot.label_names.clone(),
            snapshot.k,
            histogram,
            format!(
                "{} β={} (restored snapshot)",
                snapshot.ordering.name(),
                snapshot.beta
            ),
            lineage,
            follow,
        ))
    }

    /// Converts a freshly built estimator, dropping its catalog (the
    /// serving tier retains only the histogram-sized state) but keeping
    /// its follow matrix for expansion pruning.
    pub fn from_estimator(estimator: PathSelectivityEstimator) -> ServableEstimator {
        let lineage = Some((estimator.build_id(), estimator.applied_deltas()));
        let follow = Some(estimator.follow_matrix().clone());
        let (config, label_names, histogram) = estimator.into_serving_parts();
        Self::from_parts(
            label_names,
            config.k,
            histogram,
            format!("{} β={}", config.ordering.name(), config.beta),
            lineage,
            follow,
        )
    }

    /// Derives the servable form of an estimator that must outlive the
    /// publish as a slot's maintenance state, so it is read through its
    /// snapshot instead of consumed. Every maintained publish — rebuild
    /// or compacted delta — derives its statistics here.
    pub(crate) fn from_maintained(
        estimator: &PathSelectivityEstimator,
    ) -> Result<ServableEstimator, String> {
        let snapshot = estimator.snapshot().map_err(|e| e.to_string())?;
        ServableEstimator::from_snapshot(&snapshot).map_err(|e| e.to_string())
    }

    fn from_parts(
        label_names: Vec<String>,
        k: usize,
        histogram: LabelPathHistogram,
        description: String,
        lineage: Option<(u64, u64)>,
        follow: Option<FollowMatrix>,
    ) -> ServableEstimator {
        let by_name = label_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), LabelId(i as u16)))
            .collect();
        ServableEstimator {
            label_names,
            by_name,
            k,
            histogram,
            description,
            lineage,
            follow,
        }
    }

    /// The label-follow matrix these statistics shipped with, when the
    /// source carried one (`None` for pre-v5 snapshots).
    pub fn follow(&self) -> Option<&FollowMatrix> {
        self.follow.as_ref()
    }

    /// The served statistics' delta lineage: `(base_build_id,
    /// applied_deltas)`, or `None` when the source snapshot predates
    /// lineage tracking.
    pub fn lineage(&self) -> Option<(u64, u64)> {
        self.lineage
    }

    /// Maximum supported path length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Provenance string for listings.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Approximate retained **heap** memory of this estimator: histogram
    /// buckets + label-name resolution state + follow bits. This is the
    /// serve-time footprint the `list` op and the shutdown metrics
    /// dump report.
    pub fn size_bytes(&self) -> usize {
        let names: usize = self.label_names.iter().map(String::len).sum();
        // Both name tables hold each label name once (by_name clones the
        // strings), plus the id payloads.
        self.histogram.size_bytes()
            + 2 * names
            + self.by_name.len() * std::mem::size_of::<LabelId>()
            + self.description.len()
            + self.follow.as_ref().map_or(0, |f| f.as_bits().len())
    }

    /// Resolves a label name.
    pub fn resolve(&self, name: &str) -> Result<LabelId, EstimateError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| EstimateError::UnknownLabel(name.to_owned()))
    }

    /// Validates a raw id sequence into a [`LabelPath`].
    pub fn validate(&self, labels: &[LabelId]) -> Result<LabelPath, EstimateError> {
        if labels.is_empty() {
            return Err(EstimateError::EmptyPath);
        }
        if labels.len() > self.k {
            return Err(EstimateError::TooLong {
                len: labels.len(),
                k: self.k,
            });
        }
        for l in labels {
            if l.index() >= self.label_names.len() {
                return Err(EstimateError::UnknownLabelId(l.0));
            }
        }
        Ok(LabelPath::new(labels))
    }

    /// Estimated selectivity for an already-validated path.
    pub fn estimate(&self, path: &LabelPath) -> f64 {
        self.histogram.estimate(path)
    }

    /// Validates and estimates in one step.
    pub fn estimate_labels(&self, labels: &[LabelId]) -> Result<f64, EstimateError> {
        Ok(self.estimate(&self.validate(labels)?))
    }

    /// The name of a label id, `None` when it is outside the alphabet.
    pub fn label_name(&self, label: LabelId) -> Option<&str> {
        self.label_names.get(label.index()).map(String::as_str)
    }

    /// Renders a path as slash-joined label names (for explain output).
    pub fn render_path(&self, path: &LabelPath) -> String {
        phe_query::render_path(path, &|l| self.label_name(l).map(str::to_owned))
    }
}

/// The serving tier parses regular path expressions against the
/// statistics' own label table — no graph required.
impl phe_query::LabelResolver for ServableEstimator {
    fn resolve_label(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }
}

/// Expressions expand over the statistics' alphabet up to `k`, pruned by
/// the follow matrix they shipped with; each branch is one histogram
/// probe. A path the statistics do not cover estimates 0.
impl phe_query::CardinalityEstimator for ServableEstimator {
    fn estimate(&self, path: &[LabelId]) -> f64 {
        self.validate(path)
            .map_or(0.0, |path| self.histogram.estimate(&path))
    }

    fn name(&self) -> &'static str {
        "histogram"
    }

    fn label_count(&self) -> usize {
        self.label_names.len()
    }

    fn max_len(&self) -> usize {
        self.k
    }

    fn follow_matrix(&self) -> Option<&FollowMatrix> {
        self.follow.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_core::{EstimatorConfig, HistogramKind, OrderingKind};
    use phe_datasets::{erdos_renyi, LabelDistribution};
    use phe_query::CardinalityEstimator;

    fn servable() -> ServableEstimator {
        let g = erdos_renyi(50, 300, 3, LabelDistribution::Zipf { exponent: 1.0 }, 5);
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
        ServableEstimator::from_estimator(est)
    }

    #[test]
    fn estimates_match_across_construction_paths() {
        let g = erdos_renyi(50, 300, 3, LabelDistribution::Zipf { exponent: 1.0 }, 5);
        let config = EstimatorConfig {
            k: 3,
            beta: 16,
            ordering: OrderingKind::SumBased,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 1,
            retain_sparse: false,
        };
        let est = PathSelectivityEstimator::build(&g, config).unwrap();
        let snapshot = est.snapshot().unwrap();
        let from_snapshot = ServableEstimator::from_snapshot(&snapshot).unwrap();
        let from_est = ServableEstimator::from_estimator(est);
        for l1 in 0..3u16 {
            for l2 in 0..3u16 {
                let path = [LabelId(l1), LabelId(l2)];
                assert_eq!(
                    from_snapshot.estimate_labels(&path).unwrap(),
                    from_est.estimate_labels(&path).unwrap(),
                );
            }
        }
    }

    #[test]
    fn bad_input_is_refused_not_panicking() {
        let s = servable();
        assert_eq!(s.estimate_labels(&[]), Err(EstimateError::EmptyPath));
        assert_eq!(
            s.estimate_labels(&[LabelId(0); 4]),
            Err(EstimateError::TooLong { len: 4, k: 3 })
        );
        assert_eq!(
            s.estimate_labels(&[LabelId(200)]),
            Err(EstimateError::UnknownLabelId(200))
        );
        assert!(matches!(
            s.resolve("no-such-label"),
            Err(EstimateError::UnknownLabel(_))
        ));
    }

    #[test]
    fn resolves_names_to_ids() {
        let s = servable();
        for i in 0..s.label_count() {
            let name = s.label_names[i].clone();
            assert_eq!(s.resolve(&name).unwrap(), LabelId(i as u16));
        }
    }

    #[test]
    fn follow_matrix_survives_both_construction_paths() {
        let g = erdos_renyi(50, 300, 3, LabelDistribution::Zipf { exponent: 1.0 }, 5);
        let expected = phe_graph::FollowMatrix::from_graph(&g);
        let est = PathSelectivityEstimator::build(
            &g,
            phe_core::EstimatorConfig {
                k: 3,
                beta: 16,
                threads: 1,
                ..phe_core::EstimatorConfig::default()
            },
        )
        .unwrap();
        let snapshot = est.snapshot().unwrap();
        let from_snapshot = ServableEstimator::from_snapshot(&snapshot).unwrap();
        let from_est = ServableEstimator::from_estimator(est);
        assert_eq!(from_est.follow(), Some(&expected));
        assert_eq!(from_snapshot.follow(), Some(&expected));

        // A pre-v5 snapshot carries no follow bits: no pruning, no error.
        let mut v4 = snapshot;
        v4.follow_bits_base64 = None;
        let legacy = ServableEstimator::from_snapshot(&v4).unwrap();
        assert!(legacy.follow().is_none());
    }

    #[test]
    fn maintained_servables_equal_snapshot_restores() {
        let g = erdos_renyi(50, 300, 3, LabelDistribution::Zipf { exponent: 1.0 }, 5);
        let est = PathSelectivityEstimator::build(
            &g,
            phe_core::EstimatorConfig {
                k: 3,
                beta: 16,
                threads: 1,
                retain_sparse: true,
                ..phe_core::EstimatorConfig::default()
            },
        )
        .unwrap();
        let snapshot = est.snapshot().unwrap();
        let restored = ServableEstimator::from_snapshot(&snapshot).unwrap();
        let maintained = ServableEstimator::from_maintained(&est).unwrap();
        assert_eq!(maintained.follow(), restored.follow());
        assert_eq!(maintained.lineage(), restored.lineage());
        assert_eq!(maintained.description(), restored.description());
        for l1 in 0..3u16 {
            for l2 in 0..3u16 {
                for path in [vec![LabelId(l1)], vec![LabelId(l1), LabelId(l2)]] {
                    assert_eq!(
                        maintained.estimate_labels(&path).unwrap().to_bits(),
                        restored.estimate_labels(&path).unwrap().to_bits(),
                    );
                }
            }
        }
    }
}
