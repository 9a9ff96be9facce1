//! Persistable estimator snapshots.
//!
//! The whole point of a label-path histogram is that the *catalog* (the
//! full exact selectivity table) is a construction-time artifact: what a
//! query optimizer retains is the ordering's small reconstruction state
//! plus β buckets. [`EstimatorSnapshot`] captures exactly that retained
//! state — serializable with serde, a few kilobytes — and
//! [`EstimatorSnapshot::restore`] rebuilds a working
//! [`LabelPathHistogram`] with **no graph access at all**.
//!
//! What is stored per ordering:
//!
//! * numerical / lexicographical / sum-based — label names (for
//!   alphabetical ranks) and label frequencies (for cardinality ranks);
//! * sum-based-L2 — additionally the `n²` pair frequencies;
//! * ideal — not supported: its state is the `O(|Lk|)` permutation, the
//!   very cost the paper rules it out by. Asking for it is an error, not
//!   a silently huge file.

use phe_encoding::{base64_decode, base64_encode};
use serde::{Deserialize, Serialize};

use crate::base_set::SumBasedL2Ordering;
use crate::domain::PathDomain;
use crate::label_histogram::{BuiltHistogram, HistogramKind, LabelPathHistogram};
use crate::ordering::{
    DomainOrdering, LexicographicalOrdering, NumericalOrdering, OrderingKind, SumBasedOrdering,
};
use crate::ranking::LabelRanking;

/// Errors from snapshotting or restoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The ideal ordering cannot be snapshotted (its state is the full
    /// domain permutation).
    IdealNotSupported,
    /// Stored fields are inconsistent (wrong lengths, unknown labels).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::IdealNotSupported => write!(
                f,
                "the ideal ordering retains O(|Lk|) state and cannot be snapshotted"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

// Snapshots travel between builder and serving processes (see
// `phe-service`), so they and everything `restore()` produces must be
// shareable across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EstimatorSnapshot>();
};

/// Current snapshot format version. v1 files (written before the sparse
/// pipeline) carry no `version` field and restore unchanged; v2 adds the
/// optional sparse-build provenance (`domain_paths`, `nonzero_paths`);
/// v3 adds the delta lineage (`base_build_id`, `applied_deltas`) written
/// by the incremental-maintenance pipeline; v4 added the sparse catalog
/// as compressed blocks (`sparse_runs`); v5 adds the label-follow matrix
/// (`follow_bits_base64`, so serving tiers can prune impossible expansion
/// branches without the graph) and added a codec marker on `sparse_runs`
/// and a `.phc` sidecar reference (`catalog_file`). Nothing read either
/// catalog copy back to estimate, so neither is written any more and both
/// keys are ignored on read; what is written is still a valid v5 file.
/// Every older version restores; newer versions are refused.
pub const SNAPSHOT_VERSION: u32 = 5;

/// The serializable retained state of a built estimator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EstimatorSnapshot {
    /// Format version: `None` for v1 files, `Some(2)` / `Some(3)` for
    /// snapshots written by the sparse pipeline. Restoring refuses
    /// versions newer than [`SNAPSHOT_VERSION`].
    pub version: Option<u32>,
    /// Domain size `|Lk|` at build time (v2; provenance only).
    pub domain_paths: Option<u64>,
    /// Realized (non-zero) paths at build time (v2; provenance only —
    /// what the `phe build --stats` report is derived from).
    pub nonzero_paths: Option<u64>,
    /// Stable id of the full build these statistics descend from (v3;
    /// lineage only — unchanged as deltas are applied on top).
    pub base_build_id: Option<u64>,
    /// Incremental deltas folded in since that full build (v3; lineage
    /// only — `Some(0)` for a fresh build).
    pub applied_deltas: Option<u64>,
    /// Maximum path length `k`.
    pub k: usize,
    /// Bucket budget the histogram was built with.
    pub beta: usize,
    /// The ordering method.
    pub ordering: OrderingKind,
    /// The histogram family.
    pub histogram_kind: HistogramKind,
    /// Label names indexed by label id (reconstructs alphabetical ranks
    /// and lets the restored estimator resolve names).
    pub label_names: Vec<String>,
    /// Per-label frequencies `f(l)` (reconstructs cardinality ranks).
    pub label_frequencies: Vec<u64>,
    /// Pair frequencies `f(l1/l2)` keyed `l1·n + l2`; present only for
    /// the `sum-based-L2` ordering.
    pub pair_frequencies: Option<Vec<u64>>,
    /// The label-follow matrix as base64 of LSB-first packed `|L|²` bits
    /// in `a · |L| + b` layout (v5). Lets a serving tier prune regular
    /// path expression branches with impossible adjacent label pairs —
    /// without the graph the matrix was computed from.
    pub follow_bits_base64: Option<String>,
    /// The built histogram.
    pub histogram: BuiltHistogram,
}

impl EstimatorSnapshot {
    /// Rebuilds the retained estimator (ordering + histogram) without any
    /// graph or catalog access. Accepts every format up to
    /// [`SNAPSHOT_VERSION`] — v1 (no `version` field) through v5;
    /// newer versions are refused.
    pub fn restore(&self) -> Result<LabelPathHistogram, SnapshotError> {
        if let Some(version) = self.version.filter(|&v| v > SNAPSHOT_VERSION) {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot version {version} is newer than supported {SNAPSHOT_VERSION}"
            )));
        }
        let n = self.label_names.len();
        if self.label_frequencies.len() != n {
            return Err(SnapshotError::Corrupt(format!(
                "{n} label names but {} frequencies",
                self.label_frequencies.len()
            )));
        }
        if n == 0 || self.k == 0 || self.k > crate::path::MAX_K {
            return Err(SnapshotError::Corrupt(format!(
                "invalid dimensions: {n} labels, k = {}",
                self.k
            )));
        }
        // `PathDomain::new` panics on an alphabet or domain the path
        // encoding cannot address; refuse those dimensions here instead.
        phe_pathenum::PathEncoding::try_new(n, self.k)
            .map_err(|e| SnapshotError::Corrupt(e.to_string()))?;
        let domain = PathDomain::new(n, self.k);
        let ordering = self.rebuild_ordering(domain)?;
        if ordering.domain_size() as usize
            != phe_histogram::PointEstimator::domain_size(&self.histogram)
        {
            return Err(SnapshotError::Corrupt(format!(
                "histogram covers {} values but the domain has {}",
                phe_histogram::PointEstimator::domain_size(&self.histogram),
                ordering.domain_size()
            )));
        }
        self.histogram
            .validate()
            .map_err(|e| SnapshotError::Corrupt(format!("histogram: {e}")))?;
        Ok(LabelPathHistogram::from_parts(
            ordering,
            self.histogram.clone(),
        ))
    }

    fn rebuild_ordering(
        &self,
        domain: PathDomain,
    ) -> Result<Box<dyn DomainOrdering>, SnapshotError> {
        let alph = || {
            let mut ids: Vec<phe_graph::LabelId> = (0..self.label_names.len() as u16)
                .map(phe_graph::LabelId)
                .collect();
            ids.sort_by(|a, b| self.label_names[a.index()].cmp(&self.label_names[b.index()]));
            LabelRanking::from_rank_order(ids)
        };
        let card = || LabelRanking::cardinality_from_frequencies(&self.label_frequencies);
        Ok(match self.ordering {
            OrderingKind::NumAlph => Box::new(NumericalOrdering::new(domain, alph(), "num-alph")),
            OrderingKind::NumCard => Box::new(NumericalOrdering::new(domain, card(), "num-card")),
            OrderingKind::LexAlph => {
                Box::new(LexicographicalOrdering::new(domain, alph(), "lex-alph"))
            }
            OrderingKind::LexCard => {
                Box::new(LexicographicalOrdering::new(domain, card(), "lex-card"))
            }
            OrderingKind::SumBased => Box::new(SumBasedOrdering::new(domain, card())),
            OrderingKind::SumBasedL2 => {
                let n = self.label_names.len();
                if n > 256 {
                    // Pair pseudo-labels `l1 · n + l2` are `u16` label ids.
                    return Err(SnapshotError::Corrupt(format!(
                        "sum-based-L2 ranks label pairs as 16-bit ids, so it covers \
                         at most 256 labels, not {n}"
                    )));
                }
                let pairs = self.pair_frequencies.as_ref().ok_or_else(|| {
                    SnapshotError::Corrupt("sum-based-L2 snapshot without pair frequencies".into())
                })?;
                if pairs.len() != n * n {
                    return Err(SnapshotError::Corrupt(format!(
                        "expected {} pair frequencies, found {}",
                        n * n,
                        pairs.len()
                    )));
                }
                Box::new(SumBasedL2Ordering::from_frequencies(
                    domain,
                    &self.label_frequencies,
                    pairs,
                ))
            }
            OrderingKind::Ideal => return Err(SnapshotError::IdealNotSupported),
        })
    }

    /// Rebuilds the label-follow matrix from a v5 snapshot — `None` for
    /// older formats. The serving tier uses it to prune regular path
    /// expression branches whose adjacent label pairs cannot occur.
    ///
    /// # Errors
    /// [`SnapshotError::Corrupt`] on bad base64 or a bit count that does
    /// not cover `|L|²`.
    pub fn restore_follow_matrix(&self) -> Result<Option<phe_graph::FollowMatrix>, SnapshotError> {
        let Some(text) = self.follow_bits_base64.as_ref() else {
            return Ok(None);
        };
        let packed = base64_decode(text)
            .ok_or_else(|| SnapshotError::Corrupt("follow bits are not valid base64".into()))?;
        let n = self.label_names.len();
        if packed.len() != (n * n).div_ceil(8) {
            return Err(SnapshotError::Corrupt(format!(
                "{} packed follow bytes cannot hold {n}² bits",
                packed.len()
            )));
        }
        let bits: Vec<bool> = (0..n * n)
            .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
            .collect();
        Ok(Some(phe_graph::FollowMatrix::from_bits(n, bits)))
    }

    /// Approximate serialized size (bytes) — the artifact an optimizer
    /// ships; compare against `|Lk| · 8` for storing the raw table.
    pub fn retained_bytes(&self) -> usize {
        use phe_histogram::PointEstimator;
        let names: usize = self.label_names.iter().map(String::len).sum();
        names
            + self.label_frequencies.len() * 8
            + self.pair_frequencies.as_ref().map_or(0, |p| p.len() * 8)
            + self.histogram.size_bytes()
    }
}

/// Serializes a follow matrix for the v5 snapshot: `|L|²` bits in
/// `a · |L| + b` layout, packed LSB-first into bytes, base64-wrapped for
/// the JSON wire format.
pub fn encode_follow_bits(follow: &phe_graph::FollowMatrix) -> String {
    let bits = follow.as_bits();
    let mut packed = vec![0u8; bits.len().div_ceil(8)];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            packed[i / 8] |= 1 << (i % 8);
        }
    }
    base64_encode(&packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{EstimatorConfig, PathSelectivityEstimator};
    use phe_datasets::{erdos_renyi, LabelDistribution};
    use phe_graph::LabelId;

    fn graph() -> phe_graph::Graph {
        erdos_renyi(60, 600, 4, LabelDistribution::Zipf { exponent: 1.0 }, 77)
    }

    fn build(ordering: OrderingKind) -> PathSelectivityEstimator {
        PathSelectivityEstimator::build(
            &graph(),
            EstimatorConfig {
                k: 3,
                beta: 16,
                ordering,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: false,
            },
        )
        .unwrap()
    }

    #[test]
    fn snapshot_restores_identical_estimates() {
        for ordering in OrderingKind::ALL {
            let est = build(ordering);
            let snapshot = est.snapshot().unwrap();
            let restored = snapshot.restore().unwrap();
            for l1 in 0..4u16 {
                for l2 in 0..4u16 {
                    let path = [LabelId(l1), LabelId(l2)];
                    assert_eq!(
                        est.estimate(&path),
                        restored.estimate_labels(&path),
                        "{}: {l1}/{l2}",
                        ordering.name()
                    );
                }
            }
        }
    }

    #[test]
    fn ideal_refuses_to_snapshot() {
        let est = build(OrderingKind::Ideal);
        assert_eq!(
            est.snapshot().unwrap_err(),
            SnapshotError::IdealNotSupported
        );
    }

    #[test]
    fn snapshot_is_small() {
        let est = build(OrderingKind::SumBased);
        let snapshot = est.snapshot().unwrap();
        // Retained state ≪ the raw table (domain 84 paths * 8 bytes would
        // already be 672 bytes; β = 16 buckets dominate here, but the point
        // is it does not scale with |Lk|).
        assert!(snapshot.retained_bytes() < 16 * 64 + 4 * 16 + 64);
        assert_eq!(snapshot.label_names.len(), 4);
    }

    #[test]
    fn v1_snapshots_without_version_field_restore() {
        // A v1 file is today's serialization minus the v2 fields; the
        // compat serde treats missing fields as null ⇒ None.
        let est = build(OrderingKind::SumBased);
        let snapshot = est.snapshot().unwrap();
        let mut v1 = snapshot.clone();
        v1.version = None;
        v1.domain_paths = None;
        v1.nonzero_paths = None;
        v1.base_build_id = None;
        v1.applied_deltas = None;
        let json = serde_json::to_string(&v1).unwrap();
        let parsed: EstimatorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.version, None);
        let restored = parsed.restore().unwrap();
        for l in 0..4u16 {
            let path = [LabelId(l)];
            assert_eq!(est.estimate(&path), restored.estimate_labels(&path));
        }
        // And a literal v1 wire file (no version key at all) parses too.
        let stripped: String = {
            let full = serde_json::to_string(&snapshot).unwrap();
            // The newer optional fields serialize as null when absent;
            // drop them from the object to mimic a pre-v2 writer.
            full.replacen(&format!("\"version\":{SNAPSHOT_VERSION},"), "", 1)
                .replacen(&format!("\"domain_paths\":{},", est.domain_size()), "", 1)
                .replacen(
                    &format!("\"nonzero_paths\":{},", est.footprint().nonzero_paths),
                    "",
                    1,
                )
                .replacen(&format!("\"base_build_id\":{},", est.build_id()), "", 1)
                .replacen("\"applied_deltas\":0,", "", 1)
        };
        let parsed: EstimatorSnapshot = serde_json::from_str(&stripped).unwrap();
        assert_eq!(parsed.version, None);
        parsed.restore().unwrap();
    }

    #[test]
    fn v2_snapshots_without_lineage_fields_restore() {
        // A v2 file is today's serialization with version 2 and no delta
        // lineage — written by the sparse pipeline before incremental
        // maintenance existed.
        let est = build(OrderingKind::SumBased);
        let mut v2 = est.snapshot().unwrap();
        v2.version = Some(2);
        v2.base_build_id = None;
        v2.applied_deltas = None;
        let json = serde_json::to_string(&v2).unwrap();
        let parsed: EstimatorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.version, Some(2));
        assert_eq!(parsed.base_build_id, None);
        let restored = parsed.restore().unwrap();
        for l in 0..4u16 {
            let path = [LabelId(l)];
            assert_eq!(est.estimate(&path), restored.estimate_labels(&path));
        }
    }

    #[test]
    fn current_snapshots_carry_delta_lineage() {
        let est = build(OrderingKind::SumBased);
        let snapshot = est.snapshot().unwrap();
        assert_eq!(snapshot.version, Some(SNAPSHOT_VERSION));
        assert_eq!(snapshot.base_build_id, Some(est.build_id()));
        assert_eq!(snapshot.applied_deltas, Some(0));
        // Lineage round-trips through the wire format.
        let json = serde_json::to_string(&snapshot).unwrap();
        let parsed: EstimatorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.base_build_id, snapshot.base_build_id);
        assert_eq!(parsed.applied_deltas, Some(0));
        parsed.restore().unwrap();
    }

    #[test]
    fn v5_snapshots_carry_the_follow_matrix() {
        let g = graph();
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
        let snapshot = est.snapshot().unwrap();
        assert_eq!(snapshot.version, Some(SNAPSHOT_VERSION));
        assert!(snapshot.follow_bits_base64.is_some());

        // Round trip through the wire format lands on the graph's matrix.
        let json = serde_json::to_string(&snapshot).unwrap();
        let parsed: EstimatorSnapshot = serde_json::from_str(&json).unwrap();
        let follow = parsed
            .restore_follow_matrix()
            .unwrap()
            .expect("v5 ships the matrix");
        assert_eq!(follow, phe_graph::FollowMatrix::from_graph(&g));

        // Older snapshots (no field) restore to None, not an error.
        let mut v4 = snapshot.clone();
        v4.version = Some(4);
        v4.follow_bits_base64 = None;
        assert_eq!(v4.restore_follow_matrix().unwrap(), None);
        v4.restore().unwrap();

        // A bit count that cannot cover |L|² is refused.
        let mut short = snapshot.clone();
        short.follow_bits_base64 = Some(base64_encode(&[0u8]));
        assert!(matches!(
            short.restore_follow_matrix(),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn future_snapshot_versions_are_refused() {
        let est = build(OrderingKind::SumBased);
        let mut snapshot = est.snapshot().unwrap();
        assert_eq!(snapshot.version, Some(SNAPSHOT_VERSION));
        snapshot.version = Some(SNAPSHOT_VERSION + 1);
        let err = snapshot
            .restore()
            .err()
            .expect("must refuse newer versions");
        match err {
            SnapshotError::Corrupt(msg) => assert!(msg.contains("newer"), "{msg}"),
            other => panic!("expected version refusal, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let est = build(OrderingKind::SumBasedL2);
        let mut snapshot = est.snapshot().unwrap();
        snapshot.pair_frequencies = None;
        assert!(matches!(snapshot.restore(), Err(SnapshotError::Corrupt(_))));

        let mut snapshot = est.snapshot().unwrap();
        snapshot.label_frequencies.pop();
        assert!(matches!(snapshot.restore(), Err(SnapshotError::Corrupt(_))));

        let mut snapshot = est.snapshot().unwrap();
        snapshot.k = 0;
        assert!(matches!(snapshot.restore(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn domains_past_the_catalog_limit_are_refused_not_panicked() {
        // 64 labels at k = 8 is Σ 64^i ≈ 2.9 · 10^14 paths, past the 2^48
        // limit of the path encoding.
        let mut snapshot = build(OrderingKind::SumBased).snapshot().unwrap();
        snapshot.label_names = (0..64).map(|i| format!("l{i}")).collect();
        snapshot.label_frequencies = vec![1; 64];
        snapshot.k = 8;
        match snapshot.restore() {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("too large"), "{msg}"),
            other => panic!("expected a corrupt-snapshot error, got {:?}", other.err()),
        }
        // Sum-based-L2 ranks label pairs as `u16` ids: 257 labels are
        // refused before their pair ranking is built.
        let mut l2 = build(OrderingKind::SumBasedL2).snapshot().unwrap();
        l2.label_names = (0..257).map(|i| format!("l{i}")).collect();
        l2.label_frequencies = vec![1; 257];
        l2.pair_frequencies = Some(vec![1; 257 * 257]);
        l2.k = 1;
        match l2.restore() {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("256"), "{msg}"),
            other => panic!("expected a corrupt-snapshot error, got {:?}", other.err()),
        }
        // Beyond `u16` label ids the alphabet itself is refused.
        snapshot.label_names = (0..70_000).map(|i| format!("l{i}")).collect();
        snapshot.label_frequencies = vec![1; 70_000];
        snapshot.k = 1;
        assert!(matches!(snapshot.restore(), Err(SnapshotError::Corrupt(_))));
    }
}
