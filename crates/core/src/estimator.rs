//! The one-stop path selectivity estimator.

use std::time::{Duration, Instant};

use phe_encoding::Fnv64;
use phe_graph::{FollowMatrix, Graph, GraphDelta, LabelId};
use phe_histogram::{error_rate, AccuracyReport, HistogramError, PointEstimator};
use phe_pathenum::{compute_delta, CatalogError, CompressedRuns, SparseCatalog};

pub use crate::label_histogram::HistogramKind;

use crate::eval::sparse_ordered_frequencies;
use crate::label_histogram::LabelPathHistogram;
use crate::ordering::OrderingKind;
use crate::path::{LabelPath, MAX_K};

/// Configuration of a [`PathSelectivityEstimator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EstimatorConfig {
    /// Maximum path length `k` (1..=[`MAX_K`]).
    pub k: usize,
    /// Histogram bucket budget β.
    pub beta: usize,
    /// Domain ordering method.
    pub ordering: OrderingKind,
    /// Histogram family.
    pub histogram: HistogramKind,
    /// Worker threads for catalog computation (0 ⇒ all cores, 1 ⇒
    /// sequential).
    pub threads: usize,
    /// Keep the **sparse** catalog (sorted `(canonical_index, count)`
    /// runs, `O(realized paths)` bytes) and its ordering-permuted runs on
    /// the built estimator — the state
    /// [`PathSelectivityEstimator::apply_delta`] merges graph changes
    /// into, and the ground truth [`PathSelectivityEstimator::exact`] and
    /// [`PathSelectivityEstimator::accuracy_report`] read. Off (the
    /// default), the build streams counts straight into the histogram and
    /// retains only buckets + ordering state — the serving footprint — so
    /// a graph change means a full rebuild.
    pub retain_sparse: bool,
}

impl Default for EstimatorConfig {
    /// The paper's headline configuration: sum-based ordering over a
    /// V-optimal (greedy) histogram, `k = 3`, β = 64, sparse build with no
    /// retained catalog.
    fn default() -> Self {
        EstimatorConfig {
            k: 3,
            beta: 64,
            ordering: OrderingKind::SumBased,
            histogram: HistogramKind::VOptimalGreedy,
            threads: 0,
            retain_sparse: false,
        }
    }
}

/// Memory accounting of the catalog stage, captured at build time (cheap
/// to keep even when the catalog itself is dropped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogFootprint {
    /// Domain size `|Lk|`, zeros included.
    pub domain_size: u64,
    /// Realized (non-zero) paths.
    pub nonzero_paths: u64,
    /// Resident bytes of the sparse representation — **block-compressed**
    /// delta-varint runs plus their skip index, not the flat pair vector.
    pub sparse_bytes: u64,
    /// Bytes the flat `Vec<(u64, u64)>` pair representation would need
    /// (16 B/entry) — the baseline `sparse_bytes` is compressed against.
    pub sparse_plain_bytes: u64,
    /// Bytes the dense count vector needs (or would need), in `u128` so
    /// dense-infeasible configurations report instead of wrapping.
    pub dense_bytes: u128,
}

impl CatalogFootprint {
    fn from_sparse(catalog: &SparseCatalog) -> CatalogFootprint {
        CatalogFootprint {
            domain_size: catalog.len() as u64,
            nonzero_paths: catalog.nonzero_count() as u64,
            sparse_bytes: catalog.size_bytes() as u64,
            sparse_plain_bytes: catalog.plain_bytes() as u64,
            dense_bytes: catalog.dense_bytes(),
        }
    }

    /// Compressed bytes per realized path — the observable the
    /// compression work is judged by.
    pub fn bytes_per_entry(&self) -> f64 {
        self.sparse_bytes as f64 / (self.nonzero_paths as f64).max(1.0)
    }

    /// `sparse_plain_bytes / sparse_bytes` — how much the block
    /// compression buys over the flat pair vector.
    pub fn compression_ratio(&self) -> f64 {
        self.sparse_plain_bytes as f64 / (self.sparse_bytes as f64).max(1.0)
    }
}

/// Wall-clock breakdown of estimator construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Computing the exact selectivity catalog (the dominant cost).
    pub catalog_time: Duration,
    /// Permuting frequencies into the ordering's index space (exercises
    /// the unranking function |Lk| times).
    pub ordering_time: Duration,
    /// Histogram construction over the ordered sequence.
    pub histogram_time: Duration,
}

/// The current statistics' error on the paths a delta touched: after a
/// delta merge, the touched paths are sampled and the re-derived
/// histogram's estimates are compared against the exact counts the merged
/// sparse catalog holds for them. A delta publish is already a fresh
/// build (the ordering and histogram are re-derived over the merged
/// catalog), so this is an accuracy gauge on the churned paths, not a
/// staleness signal: rebuilding would reproduce the same estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Paths the delta touched (signed-difference entries).
    pub touched: usize,
    /// Touched paths actually sampled (deterministic stride, ≤ 256).
    pub sampled: usize,
    /// Mean `|err(ℓ)|` over the sample, with the paper's error rate
    /// ([`phe_histogram::metrics::error_rate`]) — bounded in `[0, 1]`.
    pub mean_abs_error_rate: f64,
    /// Worst multiplicative error over the sample (≥ 1).
    pub max_q_error: f64,
}

/// Sample cap per drift report: enough touched paths for a stable mean
/// without making delta application scale with the churn size.
const DRIFT_SAMPLE_CAP: usize = 256;

impl DriftReport {
    /// Measures estimate-vs-exact drift over a deterministic stride
    /// sample of the delta's touched canonical indexes, against the
    /// estimator's merged catalog `sparse`.
    fn sample(
        estimator: &PathSelectivityEstimator,
        sparse: &SparseCatalog,
        touched: &[(u64, i64)],
    ) -> DriftReport {
        let stride = touched.len().div_ceil(DRIFT_SAMPLE_CAP).max(1);
        let mut labels = Vec::with_capacity(estimator.config.k);
        let mut sampled = 0usize;
        let mut abs_sum = 0.0f64;
        let mut max_q = 1.0f64;
        for &(index, _) in touched.iter().step_by(stride) {
            sparse.encoding().decode_into(index as usize, &mut labels);
            let estimate = estimator.histogram.estimate_labels(&labels);
            let exact = sparse.selectivity_at(index);
            abs_sum += phe_histogram::metrics::error_rate(estimate, exact).abs();
            max_q = max_q.max(phe_histogram::metrics::q_error(estimate, exact));
            sampled += 1;
        }
        DriftReport {
            touched: touched.len(),
            sampled,
            mean_abs_error_rate: abs_sum / sampled.max(1) as f64,
            max_q_error: max_q,
        }
    }
}

/// Why a delta could not be applied to an estimator.
#[derive(Debug)]
pub enum DeltaError {
    /// The estimator was built without [`EstimatorConfig::retain_sparse`],
    /// so there is no catalog to merge the change into.
    SparseNotRetained,
    /// The supplied base graph is not the graph this estimator was built
    /// from (label alphabet or frequencies disagree).
    GraphMismatch(String),
    /// The delta violated its contract against the base graph.
    Graph(phe_graph::GraphError),
    /// Delta counting or merging failed.
    Catalog(CatalogError),
    /// Rebuilding the histogram over the merged catalog failed.
    Histogram(HistogramError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::SparseNotRetained => write!(
                f,
                "estimator was built without retain_sparse; no catalog to merge the \
                 delta into (rebuild with EstimatorConfig::retain_sparse)"
            ),
            DeltaError::GraphMismatch(msg) => {
                write!(f, "base graph does not match the estimator: {msg}")
            }
            DeltaError::Graph(e) => write!(f, "applying delta to the graph: {e}"),
            DeltaError::Catalog(e) => write!(f, "incremental counting: {e}"),
            DeltaError::Histogram(e) => write!(f, "rebuilding statistics: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Delta lineage of a build: which full build it descends from and how
/// many incremental deltas have been folded in since. Persisted by
/// snapshot format v3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Provenance {
    /// Stable id of the originating full build (a hash of its inputs).
    build_id: u64,
    /// Number of [`PathSelectivityEstimator::apply_delta`] steps since.
    applied_deltas: u64,
}

/// A built estimator: histogram + ordering, with the sparse catalog
/// optionally retained for incremental maintenance, ground-truth queries
/// and accuracy reports ([`EstimatorConfig::retain_sparse`]).
pub struct PathSelectivityEstimator {
    config: EstimatorConfig,
    /// The sparse counts, kept only under `retain_sparse` — the state
    /// `apply_delta` merges graph changes into.
    sparse: Option<SparseCatalog>,
    /// The ordering-permuted `(ordered_index, count)` runs the histogram
    /// was built from — block-compressed like the catalog — kept only
    /// under `retain_sparse`. When a delta leaves the ordering's
    /// permutation unchanged (the common case: small churn rarely
    /// reorders label frequencies), `apply_delta` remaps **only the delta
    /// entries** and block-merges them into these runs instead of
    /// re-permuting all `nnz` entries. With the histogram's pieces they
    /// also score the whole domain in closed form
    /// ([`PathSelectivityEstimator::accuracy_report`]).
    ordered_runs: Option<CompressedRuns>,
    footprint: CatalogFootprint,
    histogram: LabelPathHistogram,
    stats: BuildStats,
    provenance: Provenance,
    /// The build graph's content fingerprint ([`Graph::fingerprint`]) —
    /// how `apply_delta` verifies the supplied base graph really is the
    /// one these counts describe (label frequencies alone cannot
    /// distinguish rewired edges).
    graph_fingerprint: u64,
    /// Snapshot inputs captured at build time (label names/frequencies,
    /// pair frequencies for the L2 ordering).
    label_names: Vec<String>,
    label_frequencies: Vec<u64>,
    pair_frequencies: Option<Vec<u64>>,
    /// The build graph's label-follow matrix (`|L|²` bits) — captured so
    /// snapshots can ship it to serving tiers, which use it to prune
    /// impossible expansion branches without graph access.
    follow: FollowMatrix,
    /// Estimate-vs-exact drift over the last delta's touched paths;
    /// `None` for fresh builds. Runtime-only (not persisted): a restored
    /// snapshot starts with a clean sensor.
    drift: Option<DriftReport>,
}

impl PathSelectivityEstimator {
    /// Builds the estimator through the **sparse streaming pipeline**:
    /// sharded sparse catalog → combinatorial index remap → sparse
    /// histogram build. The dense path domain is never materialized.
    ///
    /// # Errors
    /// Propagates histogram construction failures (e.g. asking for the
    /// exact V-optimal DP on a paper-scale domain);
    /// [`HistogramError::DomainTooLarge`] when the domain overflows the
    /// canonical index space (2⁴⁸ paths), and
    /// [`HistogramError::Catalog`] when counting refuses the graph
    /// otherwise (an alphabet past the `u16` id space).
    ///
    /// # Panics
    /// Panics if `k` is 0 or exceeds [`MAX_K`], or the graph has no
    /// labels.
    pub fn build(
        graph: &Graph,
        config: EstimatorConfig,
    ) -> Result<PathSelectivityEstimator, HistogramError> {
        assert!(
            config.k >= 1 && config.k <= MAX_K,
            "k = {} out of range 1..={MAX_K}",
            config.k
        );
        assert!(graph.label_count() > 0, "graph has no edge labels");

        let _build = phe_obs::span::stage("build");
        let t0 = Instant::now();
        let sparse = SparseCatalog::compute_parallel(graph, config.k, config.threads)
            .map_err(catalog_to_histogram_error)?;
        let catalog_time = t0.elapsed();

        Self::fresh_lineage(graph, sparse, config, catalog_time)
    }

    /// Builds from a precomputed **sparse** catalog, starting a fresh
    /// lineage — bit-identical to [`PathSelectivityEstimator::build`] over
    /// the graph that catalog counts, `build_id` included. The ordering
    /// and histogram stages nest under a `build` span, as in a full build.
    ///
    /// # Errors
    /// As for [`PathSelectivityEstimator::build`].
    pub fn from_sparse_catalog(
        graph: &Graph,
        sparse: SparseCatalog,
        config: EstimatorConfig,
        catalog_time: Duration,
    ) -> Result<PathSelectivityEstimator, HistogramError> {
        let _build = phe_obs::span::stage("build");
        Self::fresh_lineage(graph, sparse, config, catalog_time)
    }

    /// The shared sparse-pipeline tail: ordering remap → histogram build →
    /// retained-state capture, stamping a fresh lineage. Callers hold the
    /// `build` span.
    fn fresh_lineage(
        graph: &Graph,
        sparse: SparseCatalog,
        config: EstimatorConfig,
        catalog_time: Duration,
    ) -> Result<PathSelectivityEstimator, HistogramError> {
        let provenance = Provenance {
            build_id: build_id(graph, &sparse, config),
            applied_deltas: 0,
        };
        let t1 = Instant::now();
        let order_span = phe_obs::span::stage("build.order");
        let ordering = config.ordering.build_sparse(graph, &sparse, config.k);
        let runs = sparse_ordered_frequencies(&sparse, ordering.as_ref());
        drop(order_span);
        let ordering_time = t1.elapsed();
        let t2 = Instant::now();
        let histogram_span = phe_obs::span::stage("build.histogram");
        let histogram = LabelPathHistogram::from_sparse_frequencies(
            ordering,
            &runs,
            config.histogram,
            config.beta,
        )?;
        drop(histogram_span);
        let stats = BuildStats {
            catalog_time,
            ordering_time,
            histogram_time: t2.elapsed(),
        };
        Ok(Self::assemble(
            graph, sparse, config, provenance, histogram, runs, stats,
        ))
    }

    /// Captures every piece of retained state around a built histogram.
    /// The one place an estimator is actually constructed, shared by full
    /// builds and the delta path.
    fn assemble(
        graph: &Graph,
        sparse: SparseCatalog,
        config: EstimatorConfig,
        provenance: Provenance,
        histogram: LabelPathHistogram,
        runs: CompressedRuns,
        stats: BuildStats,
    ) -> PathSelectivityEstimator {
        let footprint = CatalogFootprint::from_sparse(&sparse);
        let ordered_runs = config.retain_sparse.then_some(runs);
        let pair_frequencies = pair_frequencies_for(config, &sparse);
        let sparse = config.retain_sparse.then_some(sparse);

        let (label_names, label_frequencies) = snapshot_state(graph);
        PathSelectivityEstimator {
            config,
            sparse,
            ordered_runs,
            footprint,
            histogram,
            stats,
            provenance,
            graph_fingerprint: graph.fingerprint(),
            label_names,
            label_frequencies,
            pair_frequencies,
            follow: FollowMatrix::from_graph(graph),
            drift: None,
        }
    }

    /// Absorbs a graph change **incrementally**: applies `delta` to
    /// `old_graph`, counts the signed selectivity difference over only the
    /// touched paths, merges it into the retained sparse catalog, and
    /// re-derives the ordering and histogram from the merged counts. The
    /// result is bit-identical to a full rebuild on the changed graph
    /// (property-tested in `tests/sparse_equivalence.rs`) at a cost
    /// proportional to the change. Returns the refreshed estimator and the
    /// changed graph (the base for the *next* delta).
    ///
    /// Provenance: the returned estimator keeps this build's id and bumps
    /// its applied-delta count — the v3 snapshot lineage.
    ///
    /// # Errors
    /// [`DeltaError::SparseNotRetained`] unless this estimator was built
    /// with [`EstimatorConfig::retain_sparse`];
    /// [`DeltaError::GraphMismatch`] when `old_graph` is not the graph the
    /// estimator was built from; plus any delta-contract, counting, or
    /// histogram failure.
    pub fn apply_delta(
        &self,
        old_graph: &Graph,
        delta: &GraphDelta,
    ) -> Result<(PathSelectivityEstimator, Graph), DeltaError> {
        let sparse = self.sparse.as_ref().ok_or(DeltaError::SparseNotRetained)?;
        let (names, frequencies) = snapshot_state(old_graph);
        if names != self.label_names || frequencies != self.label_frequencies {
            return Err(DeltaError::GraphMismatch(format!(
                "expected {} labels with the build-time frequencies, got {} labels",
                self.label_names.len(),
                names.len()
            )));
        }
        // Frequencies can collide (same edge counts, rewired endpoints);
        // the content fingerprint cannot. The graph carries it, so the
        // guard against merging a delta computed over the wrong base is
        // O(1) on a maintained graph.
        if old_graph.fingerprint() != self.graph_fingerprint {
            return Err(DeltaError::GraphMismatch(
                "edge-set fingerprint differs from the build graph".into(),
            ));
        }
        let _delta = phe_obs::span::stage("delta");
        let t0 = Instant::now();
        let apply_span = phe_obs::span::stage("delta.apply");
        let new_graph = old_graph.apply_delta(delta).map_err(DeltaError::Graph)?;
        drop(apply_span);
        let count_span = phe_obs::span::stage("delta.count");
        let run = compute_delta(old_graph, &new_graph, delta, self.config.k)
            .map_err(DeltaError::Catalog)?;
        drop(count_span);
        let merge_span = phe_obs::span::stage("delta.merge");
        let merged = sparse.merge_delta(&run).map_err(DeltaError::Catalog)?;
        drop(merge_span);
        let catalog_time = t0.elapsed();

        let rederive_span = phe_obs::span::stage("delta.rederive");
        let t1 = Instant::now();
        let ordering = self
            .config
            .ordering
            .build_sparse(&new_graph, &merged, self.config.k);
        // When the delta leaves the permutation unchanged (equal reuse
        // keys — label frequencies rarely reorder under small churn),
        // remap only the |delta| entries and fold them into the previous
        // ordered runs. Bit-identical to the full remap: the permutation
        // is the same bijection, so permuting the merged catalog equals
        // merging the permuted delta.
        let reusable = match (
            self.ordered_runs.as_ref(),
            self.histogram.ordering().reuse_key(),
            ordering.reuse_key(),
        ) {
            (Some(runs), Some(old_key), Some(new_key)) if old_key == new_key => Some(runs),
            _ => None,
        };
        let runs = match reusable {
            Some(old_runs) => {
                let mut ordered_delta: Vec<(u64, i64)> = run
                    .entries()
                    .iter()
                    .map(|&(index, diff)| (ordering.ordered_index(index), diff))
                    .collect();
                ordered_delta.sort_unstable_by_key(|&(index, _)| index);
                // The ordered-space twin of `SparseCatalog::merge_delta`:
                // blocks the delta misses transfer raw. Underflow is
                // impossible here — the canonical-space merge already
                // validated every count, and a permutation maps entries
                // one-to-one.
                old_runs
                    .merge_signed(&ordered_delta)
                    // LINT-ALLOW(panic): the canonical merge above refused
                    // every underflow, and the permutation is a bijection.
                    .expect("validated by the canonical merge")
            }
            None => sparse_ordered_frequencies(&merged, ordering.as_ref()),
        };
        let ordering_time = t1.elapsed();
        let t2 = Instant::now();
        let histogram = LabelPathHistogram::from_sparse_frequencies(
            ordering,
            &runs,
            self.config.histogram,
            self.config.beta,
        )
        .map_err(DeltaError::Histogram)?;
        let stats = BuildStats {
            catalog_time,
            ordering_time,
            histogram_time: t2.elapsed(),
        };
        let mut estimator = Self::assemble(
            &new_graph,
            merged,
            self.config,
            Provenance {
                build_id: self.provenance.build_id,
                applied_deltas: self.provenance.applied_deltas + 1,
            },
            histogram,
            runs,
            stats,
        );
        drop(rederive_span);
        estimator.drift = estimator
            .sparse
            .as_ref()
            .map(|merged| DriftReport::sample(&estimator, merged, run.entries()));
        Ok((estimator, new_graph))
    }

    /// Captures the retained state (ordering inputs, histogram, lineage
    /// and follow matrix) as a serializable
    /// [`crate::snapshot::EstimatorSnapshot`]. The sparse catalog, even
    /// when retained, is left out: its cost would grow with the catalog,
    /// and nothing restores it.
    ///
    /// # Errors
    /// [`crate::snapshot::SnapshotError::IdealNotSupported`] for the ideal
    /// reference ordering.
    pub fn snapshot(
        &self,
    ) -> Result<crate::snapshot::EstimatorSnapshot, crate::snapshot::SnapshotError> {
        if self.config.ordering == OrderingKind::Ideal {
            return Err(crate::snapshot::SnapshotError::IdealNotSupported);
        }
        Ok(crate::snapshot::EstimatorSnapshot {
            version: Some(crate::snapshot::SNAPSHOT_VERSION),
            domain_paths: Some(self.footprint.domain_size),
            nonzero_paths: Some(self.footprint.nonzero_paths),
            base_build_id: Some(self.provenance.build_id),
            applied_deltas: Some(self.provenance.applied_deltas),
            k: self.config.k,
            beta: self.config.beta,
            ordering: self.config.ordering,
            histogram_kind: self.config.histogram,
            label_names: self.label_names.clone(),
            label_frequencies: self.label_frequencies.clone(),
            pair_frequencies: self.pair_frequencies.clone(),
            follow_bits_base64: Some(crate::snapshot::encode_follow_bits(&self.follow)),
            histogram: self.histogram.histogram().clone(),
        })
    }

    /// Estimated selectivity `e(ℓ)` for a label path.
    ///
    /// # Panics
    /// Panics if the path is empty, longer than `k`, or mentions unknown
    /// labels.
    pub fn estimate(&self, labels: &[LabelId]) -> f64 {
        self.histogram.estimate_labels(labels)
    }

    /// Estimated selectivity for a [`LabelPath`].
    pub fn estimate_path(&self, path: &LabelPath) -> f64 {
        self.histogram.estimate(path)
    }

    /// Number of labels in the statistics' alphabet — the range a query
    /// layer's wildcard step expands over.
    pub fn label_count(&self) -> usize {
        self.label_names.len()
    }

    /// Exact selectivity `f(ℓ)` from the retained sparse catalog; `None`
    /// unless the estimator was built with
    /// [`EstimatorConfig::retain_sparse`].
    ///
    /// # Panics
    /// Panics if the path is empty, longer than `k`, or mentions unknown
    /// labels.
    pub fn exact(&self, labels: &[LabelId]) -> Option<u64> {
        self.sparse
            .as_ref()
            .map(|sparse| sparse.selectivity(labels))
    }

    /// The paper's signed error rate `err(ℓ)` (Formula 6) for one path;
    /// `None` as for [`PathSelectivityEstimator::exact`].
    ///
    /// # Panics
    /// As for [`PathSelectivityEstimator::exact`].
    pub fn error(&self, labels: &[LabelId]) -> Option<f64> {
        self.exact(labels)
            .map(|truth| error_rate(self.estimate(labels), truth))
    }

    /// Accuracy over the whole domain, zeros included — one Figure 2 data
    /// point — scored in closed form from the retained ordered runs and
    /// the histogram's constant pieces: O(nnz + β), whatever the domain
    /// size. `None` unless the estimator was built with
    /// [`EstimatorConfig::retain_sparse`].
    pub fn accuracy_report(&self) -> Option<AccuracyReport> {
        let runs = self.ordered_runs.as_ref()?;
        AccuracyReport::from_pieces(&self.histogram.histogram().pieces(), runs.iter()).ok()
    }

    /// The configuration this estimator was built with.
    pub fn config(&self) -> &EstimatorConfig {
        &self.config
    }

    /// Construction timing breakdown.
    pub fn build_stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The current statistics' error on the last applied delta's touched
    /// paths; `None` for fresh builds and snapshot restores.
    pub fn drift(&self) -> Option<&DriftReport> {
        self.drift.as_ref()
    }

    /// The retained sparse catalog, if the build kept one
    /// ([`EstimatorConfig::retain_sparse`]) — the state
    /// [`PathSelectivityEstimator::apply_delta`] maintains.
    pub fn sparse_catalog(&self) -> Option<&SparseCatalog> {
        self.sparse.as_ref()
    }

    /// The build graph's label-follow matrix — what the query layer's
    /// expression expansion prunes impossible branches with, and what
    /// snapshot v5 ships to serving tiers.
    pub fn follow_matrix(&self) -> &FollowMatrix {
        &self.follow
    }

    /// Stable id of the full build this estimator descends from
    /// (unchanged across [`PathSelectivityEstimator::apply_delta`]).
    pub fn build_id(&self) -> u64 {
        self.provenance.build_id
    }

    /// How many incremental deltas have been folded in since the full
    /// build identified by [`PathSelectivityEstimator::build_id`].
    pub fn applied_deltas(&self) -> u64 {
        self.provenance.applied_deltas
    }

    /// Memory accounting of the catalog stage (domain size, realized
    /// paths, sparse vs dense bytes) — kept even when the catalog itself
    /// was dropped.
    pub fn footprint(&self) -> &CatalogFootprint {
        &self.footprint
    }

    /// Approximate retained memory of this estimator: histogram buckets +
    /// ordering reconstruction state + the optional sparse catalog and
    /// its ordered runs.
    pub fn size_bytes(&self) -> usize {
        let names: usize = self.label_names.iter().map(String::len).sum();
        self.histogram.size_bytes()
            + names
            + self.label_frequencies.len() * 8
            + self.pair_frequencies.as_ref().map_or(0, |p| p.len() * 8)
            + self.sparse.as_ref().map_or(0, |s| s.size_bytes())
            + self.ordered_runs.as_ref().map_or(0, |r| r.size_bytes())
    }

    /// The label-path histogram (ordering + buckets).
    pub fn histogram(&self) -> &LabelPathHistogram {
        &self.histogram
    }

    /// Number of label paths in the domain.
    pub fn domain_size(&self) -> usize {
        self.footprint.domain_size as usize
    }

    /// Wraps the estimator in an [`std::sync::Arc`] for cheap sharing
    /// across serving threads (see the `phe-service` crate). The estimator
    /// is immutable after construction, so concurrent readers need no
    /// locking.
    pub fn into_shared(self) -> std::sync::Arc<Self> {
        std::sync::Arc::new(self)
    }

    /// Decomposes the estimator into what a serving layer retains: the
    /// configuration, the label names (for query-side name → id
    /// resolution), and the label-path histogram. The construction-time
    /// catalog — the large part — is dropped.
    pub fn into_serving_parts(self) -> (EstimatorConfig, Vec<String>, LabelPathHistogram) {
        (self.config, self.label_names, self.histogram)
    }
}

/// The id a fresh full build stamps on its lineage: an FNV-1a hash of the
/// build inputs (configuration, label frequencies, catalog aggregates).
/// Deterministic, so the same graph + configuration always yields the
/// same id, and deltas applied on top inherit it unchanged.
fn build_id(graph: &Graph, sparse: &SparseCatalog, config: EstimatorConfig) -> u64 {
    let mut fnv = Fnv64::new();
    fnv.update(&(config.k as u64).to_le_bytes());
    fnv.update(&(config.beta as u64).to_le_bytes());
    for byte in config
        .ordering
        .name()
        .bytes()
        .chain(config.histogram.name().bytes())
    {
        fnv.update(&(byte as u64).to_le_bytes());
    }
    for l in graph.label_ids() {
        fnv.update(&graph.label_frequency(l).to_le_bytes());
    }
    fnv.update(&(sparse.len() as u64).to_le_bytes());
    fnv.update(&(sparse.nonzero_count() as u64).to_le_bytes());
    fnv.update(&sparse.total_mass().to_le_bytes());
    fnv.finish()
}

/// Captures the small snapshot reconstruction state from the graph.
fn snapshot_state(graph: &Graph) -> (Vec<String>, Vec<u64>) {
    let label_names: Vec<String> = graph
        .label_ids()
        .map(|l| graph.labels().name(l).unwrap_or_default().to_owned())
        .collect();
    let label_frequencies: Vec<u64> = graph
        .label_ids()
        .map(|l| graph.label_frequency(l))
        .collect();
    (label_names, label_frequencies)
}

/// The `n²` pair selectivities the L2 ordering snapshot needs, read from
/// the catalog. `None` for every other ordering.
fn pair_frequencies_for(config: EstimatorConfig, sparse: &SparseCatalog) -> Option<Vec<u64>> {
    if config.ordering != OrderingKind::SumBasedL2 {
        return None;
    }
    let n = sparse.encoding().label_count();
    let mut pairs = vec![0u64; n * n];
    // A k = 1 domain never uses pair ranks (see SumBasedL2Ordering);
    // store zeros so the snapshot stays restorable.
    if config.k >= 2 {
        for l1 in 0..n as u16 {
            for l2 in 0..n as u16 {
                pairs[(l1 as usize) * n + l2 as usize] =
                    sparse.selectivity(&[LabelId(l1), LabelId(l2)]);
            }
        }
    }
    Some(pairs)
}

/// Maps a counting failure into the estimator's error type: the size
/// refusal becomes [`HistogramError::DomainTooLarge`] (sizes saturate at
/// `u64::MAX` — past 2⁴⁸ the exact value no longer matters), anything else
/// [`HistogramError::Catalog`].
fn catalog_to_histogram_error(e: CatalogError) -> HistogramError {
    match e {
        CatalogError::DomainTooLarge { size, limit, .. } => HistogramError::DomainTooLarge {
            domain: size.min(u64::MAX as u128) as u64,
            limit: limit.min(u64::MAX as u128) as u64,
        },
        other => HistogramError::Catalog(other.to_string()),
    }
}

// Serving audit: the estimator (and everything a serving layer shares
// across threads) must be Send + Sync. `DomainOrdering: Send + Sync`
// guarantees the trait objects inside `LabelPathHistogram` qualify; this
// assertion keeps the property from regressing silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PathSelectivityEstimator>();
    assert_send_sync::<LabelPathHistogram>();
    assert_send_sync::<EstimatorConfig>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use phe_datasets::{erdos_renyi, LabelDistribution};

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }

    fn graph() -> Graph {
        erdos_renyi(50, 400, 3, LabelDistribution::Zipf { exponent: 1.0 }, 31)
    }

    #[test]
    fn provenance_hashes_are_pinned() {
        // Snapshots carry `base_build_id`, so it may not move across
        // releases. The graph fingerprint is never persisted (only
        // `apply_delta`'s guard compares it, within one process); it is
        // pinned so a change to its definition is deliberate.
        let mut b = phe_graph::GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(3, "a", 4);
        b.add_edge_named(1, "b", 2);
        b.add_edge_named(4, "b", 5);
        let g = b.build();
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 2,
                beta: 4,
                ordering: OrderingKind::SumBased,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: false,
            },
        )
        .unwrap();
        assert_eq!(est.build_id(), 6468770220603811403);
        assert_eq!(g.fingerprint(), 10487947554840522469);
    }

    #[test]
    fn build_and_estimate_every_ordering() {
        let g = graph();
        for ordering in OrderingKind::ALL {
            let est = PathSelectivityEstimator::build(
                &g,
                EstimatorConfig {
                    k: 3,
                    beta: 12,
                    ordering,
                    histogram: HistogramKind::VOptimalGreedy,
                    threads: 1,
                    retain_sparse: false,
                },
            )
            .unwrap();
            let e = est.estimate(&[l(0), l(1)]);
            assert!(e.is_finite() && e >= 0.0, "{}: {e}", ordering.name());
            assert_eq!(est.domain_size(), 3 + 9 + 27);
        }
    }

    #[test]
    fn exact_matches_catalog_and_error_is_formula6() {
        let g = graph();
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 2,
                beta: 6,
                ordering: OrderingKind::SumBased,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: true,
            },
        )
        .unwrap();
        let path = [l(0), l(2)];
        let f = est.exact(&path).unwrap();
        let e = est.estimate(&path);
        let err = est.error(&path).unwrap();
        if (e - f as f64).abs() < f64::EPSILON {
            assert_eq!(err, 0.0);
        } else {
            assert!((err - (e - f as f64) / e.max(f as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn full_budget_is_exact() {
        let g = graph();
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 2,
                beta: usize::MAX,
                ordering: OrderingKind::NumCard,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: true,
            },
        )
        .unwrap();
        let report = est.accuracy_report().unwrap();
        assert_eq!(report.mean_abs_error_rate, 0.0);
    }

    #[test]
    fn ground_truth_needs_the_retained_sparse_catalog() {
        let est = PathSelectivityEstimator::build(&graph(), EstimatorConfig::default()).unwrap();
        assert_eq!(est.exact(&[l(0)]), None);
        assert_eq!(est.error(&[l(0)]), None);
        assert!(est.accuracy_report().is_none());
    }

    #[test]
    fn accuracy_is_scored_over_domains_past_two_to_the_28() {
        // 64 labels at k = 5: 1,090,785,344 paths, four times the 2^28
        // cells a dense count vector could hold. The report still covers
        // every path, from the ~100 realized ones and the β buckets.
        let mut b = phe_graph::GraphBuilder::with_numeric_labels(40, 64);
        for i in 0..120u32 {
            b.add_edge(
                phe_graph::VertexId(i % 40),
                l((i * 7 % 64) as u16),
                phe_graph::VertexId((i * 13 + 1) % 40),
            );
        }
        let est = PathSelectivityEstimator::build(
            &b.build(),
            EstimatorConfig {
                k: 5,
                retain_sparse: true,
                threads: 1,
                ..EstimatorConfig::default()
            },
        )
        .unwrap();
        assert_eq!(est.domain_size(), 1_090_785_344);
        let report = est.accuracy_report().unwrap();
        assert_eq!(report.count, 1_090_785_344);
        assert!((0.0..=1.0).contains(&report.mean_abs_error_rate));
        assert!(report.median_q_error >= 1.0);
    }

    #[test]
    fn exact_dp_rejected_at_scale_via_error() {
        // A domain exceeding the exact-DP limit must surface as an Err,
        // not a panic.
        let g = erdos_renyi(30, 200, 5, LabelDistribution::Uniform, 3);
        let res = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 6, // 5^1..5^6 = 19530 > 8192 limit
                beta: 64,
                ordering: OrderingKind::NumAlph,
                histogram: HistogramKind::VOptimalExact,
                threads: 1,
                retain_sparse: false,
            },
        );
        assert!(matches!(res, Err(HistogramError::ExactTooLarge { .. })));
    }

    #[test]
    fn oversized_domain_is_a_checked_error() {
        // 1000 labels at k = 8 ⇒ ~10^24 paths: past the index space, the
        // build must return an error, not panic in the catalog layer.
        let mut b = phe_graph::GraphBuilder::with_numeric_labels(2, 1000);
        b.add_edge(phe_graph::VertexId(0), l(0), phe_graph::VertexId(1));
        let g = b.build();
        let res = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 8,
                ..EstimatorConfig::default()
            },
        );
        assert!(matches!(res, Err(HistogramError::DomainTooLarge { .. })));
    }

    #[test]
    fn an_alphabet_past_the_id_space_is_a_checked_error() {
        // 65,536 labels fill the u16 id space, one more than the
        // canonical encoding admits: counting refuses the graph, and the
        // build returns that refusal instead of panicking.
        let mut b = phe_graph::GraphBuilder::new();
        for name in 0..=u16::MAX as u32 {
            b.intern_label(&name.to_string());
        }
        b.add_edge(phe_graph::VertexId(0), l(0), phe_graph::VertexId(1));
        let res = PathSelectivityEstimator::build(
            &b.build(),
            EstimatorConfig {
                k: 1,
                threads: 1,
                ..EstimatorConfig::default()
            },
        );
        assert!(matches!(res, Err(HistogramError::Catalog(_))));
    }

    #[test]
    fn build_stats_are_populated() {
        let g = graph();
        let est = PathSelectivityEstimator::build(&g, EstimatorConfig::default()).unwrap();
        // Durations are non-zero for catalog work at this size... but can
        // round to zero on coarse clocks; just check they are recorded
        // fields and the config echoes back.
        assert_eq!(est.config().k, 3);
        let _ = est.build_stats().catalog_time;
    }

    /// Deterministic churn for the delta tests: removes every 6th edge
    /// and inserts fresh edges derived from an LCG walk.
    fn churn(graph: &Graph, inserts: usize, seed: u64) -> phe_graph::GraphDelta {
        let mut delta = phe_graph::GraphDelta::new();
        let mut removed = std::collections::HashSet::new();
        for (i, (s, lab, t)) in graph.iter_edges().enumerate() {
            if i % 6 == 0 {
                delta.remove(s, lab, t);
                removed.insert((s.0, lab.0, t.0));
            }
        }
        let (n, labels) = (graph.vertex_count() as u32, graph.label_count() as u16);
        let mut x = seed;
        let mut step = || {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (x >> 33) as u32
        };
        let mut added = std::collections::HashSet::new();
        let mut remaining = inserts;
        while remaining > 0 {
            let (s, t, lab) = (step() % n, step() % n, (step() as u16) % labels);
            let present = graph.has_edge(phe_graph::VertexId(s), l(lab), phe_graph::VertexId(t))
                && !removed.contains(&(s, lab, t));
            if present || !added.insert((s, lab, t)) {
                continue;
            }
            delta.insert(phe_graph::VertexId(s), l(lab), phe_graph::VertexId(t));
            remaining -= 1;
        }
        delta
    }

    #[test]
    fn apply_delta_chains_and_tracks_lineage() {
        let g0 = graph();
        let config = EstimatorConfig {
            retain_sparse: true,
            threads: 1,
            ..EstimatorConfig::default()
        };
        let base = PathSelectivityEstimator::build(&g0, config).unwrap();
        assert_eq!(base.applied_deltas(), 0);

        let d1 = churn(&g0, 15, 17);
        let (est1, g1) = base.apply_delta(&g0, &d1).unwrap();
        assert_eq!(est1.applied_deltas(), 1);
        assert_eq!(est1.build_id(), base.build_id(), "lineage is inherited");

        // A second delta chains off the first result.
        let d2 = churn(&g1, 10, 99);
        let (est2, g2) = est1.apply_delta(&g1, &d2).unwrap();
        assert_eq!(est2.applied_deltas(), 2);
        assert_eq!(est2.build_id(), base.build_id());

        // The chained result is bit-identical to a full rebuild on g2.
        let fresh = PathSelectivityEstimator::build(&g2, config).unwrap();
        assert_eq!(
            est2.sparse_catalog().unwrap(),
            fresh.sparse_catalog().unwrap()
        );
        for l1 in 0..3u16 {
            for l2 in 0..3u16 {
                let path = [l(l1), l(l2)];
                assert_eq!(
                    est2.estimate(&path).to_bits(),
                    fresh.estimate(&path).to_bits(),
                    "{l1}/{l2}"
                );
            }
        }
        // The v3 snapshot records the lineage.
        let snapshot = est2.snapshot().unwrap();
        assert_eq!(snapshot.base_build_id, Some(base.build_id()));
        assert_eq!(snapshot.applied_deltas, Some(2));
        // A fresh full build starts a new lineage (same id only for the
        // same inputs — g2 differs from g0).
        assert_eq!(fresh.applied_deltas(), 0);
        assert_ne!(fresh.build_id(), base.build_id());
    }

    #[test]
    fn apply_delta_requires_retained_sparse_and_matching_graph() {
        let g = graph();
        let plain = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                threads: 1,
                ..EstimatorConfig::default()
            },
        )
        .unwrap();
        let delta = churn(&g, 4, 5);
        assert!(matches!(
            plain.apply_delta(&g, &delta),
            Err(DeltaError::SparseNotRetained)
        ));

        let maintainable = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                retain_sparse: true,
                threads: 1,
                ..EstimatorConfig::default()
            },
        )
        .unwrap();
        // Wrong base graph: refused before any counting happens.
        let other = erdos_renyi(50, 380, 3, LabelDistribution::Uniform, 99);
        assert!(matches!(
            maintainable.apply_delta(&other, &delta),
            Err(DeltaError::GraphMismatch(_))
        ));
        // A delta violating its contract surfaces as a graph error.
        let mut bad = phe_graph::GraphDelta::new();
        bad.remove(phe_graph::VertexId(0), l(0), phe_graph::VertexId(0));
        if !g.has_edge(phe_graph::VertexId(0), l(0), phe_graph::VertexId(0)) {
            assert!(matches!(
                maintainable.apply_delta(&g, &bad),
                Err(DeltaError::Graph(_))
            ));
        }
    }

    #[test]
    fn apply_delta_rejects_rewired_base_graph() {
        // Same labels, same per-label edge counts, one edge's target
        // moved: label frequencies collide, the edge-set fingerprint
        // must not.
        let g = graph();
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                retain_sparse: true,
                threads: 1,
                ..EstimatorConfig::default()
            },
        )
        .unwrap();
        let edges: Vec<_> = g.iter_edges().collect();
        let (rs, rl, rt) = edges[0];
        let new_t = (0..g.vertex_count() as u32)
            .map(phe_graph::VertexId)
            .find(|&t| t != rt && !g.has_edge(rs, rl, t))
            .expect("some absent target exists");
        let mut b = phe_graph::GraphBuilder::with_numeric_labels(
            g.vertex_count() as u32,
            g.label_count() as u16,
        );
        b.add_edge(rs, rl, new_t);
        for &(s, lab, t) in &edges[1..] {
            b.add_edge(s, lab, t);
        }
        let rewired = b.build();
        assert_eq!(g.edge_count(), rewired.edge_count());
        let delta = churn(&g, 3, 21);
        let err = est.apply_delta(&rewired, &delta).map(|_| ()).unwrap_err();
        match err {
            DeltaError::GraphMismatch(msg) => assert!(msg.contains("fingerprint"), "{msg}"),
            other => panic!("expected a fingerprint mismatch, got {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_zero_rejected() {
        let g = graph();
        let _ = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 0,
                ..EstimatorConfig::default()
            },
        );
    }
}
