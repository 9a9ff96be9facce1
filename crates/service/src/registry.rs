//! The estimator registry: named, hot-swappable serving slots.
//!
//! Each slot holds an `Arc<ServingEstimator>` behind a short write-locked
//! swap: readers clone the `Arc` (nanoseconds), then work entirely
//! lock-free against the pinned generation. A rebuild/refresh publishes a
//! new generation with [`EstimatorRegistry::register`]; in-flight batches
//! keep the generation they pinned, so **no request ever observes a
//! half-swapped estimator** — the property the concurrent integration
//! test exercises.
//!
//! Every generation carries its own cold [`ShardedLruCache`]; hit/miss
//! counters live in the shared [`crate::metrics::ServiceMetrics`] so the
//! cumulative rates survive swaps.
//!
//! A maintained slot's generation also carries its [`MaintenanceState`]:
//! the graph and sparse catalog its statistics were derived from. The
//! statistics and their lineage are published by the same swap, so a
//! reader that pins a generation sees both from one publish, and a
//! `load` drops the lineage by construction.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use phe_core::{DriftReport, LabelPath, PathSelectivityEstimator};
use phe_graph::{FollowMatrix, Graph, LabelId};
use phe_obs::MetricsRegistry;
use phe_query::{parse_expr, CardinalityEstimator};

use crate::cache::{CacheCounters, ExprCache, ShardedLruCache};
use crate::estimator::{EstimateError, ServableEstimator};

/// One published generation: an immutable estimator plus its caches (the
/// sharded per-path LRU and the normalized-expression LRU) and, for a
/// maintained slot, the lineage the estimator was derived from.
pub struct ServingEstimator {
    estimator: ServableEstimator,
    cache: ShardedLruCache,
    expr_cache: ExprCache,
    version: u64,
    maintenance: Option<Arc<MaintenanceState>>,
}

/// One expression answered by [`ServingEstimator::estimate_expr`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExprOutcome {
    /// Total estimate (canonical-order sum over the expansion).
    pub total: f64,
    /// Number of concrete branches.
    pub width: u64,
    /// Branches discarded by follow pruning. Non-zero when the served
    /// statistics shipped their follow matrix (v5 snapshots, live
    /// builds); 0 for older snapshots, which expand purely
    /// syntactically.
    pub pruned: u64,
    /// Branches discarded for exceeding the statistics' `k`.
    pub truncated: u64,
    /// Whether the expression also denotes the empty path.
    pub matches_empty: bool,
    /// Whether the answer came from the expression cache.
    pub cached: bool,
    /// Per-branch `(path, estimate)` rows, present only for explain
    /// requests (which bypass the cache to produce them).
    pub branches: Option<Vec<(String, f64)>>,
}

impl ServingEstimator {
    /// The wrapped estimator.
    pub fn estimator(&self) -> &ServableEstimator {
        &self.estimator
    }

    /// Monotonic version of this generation within its slot (1-based).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The maintenance state this generation's statistics were derived
    /// from, when it was published with one.
    pub(crate) fn maintenance(&self) -> Option<&Arc<MaintenanceState>> {
        self.maintenance.as_ref()
    }

    /// Estimates one validated path through the cache.
    pub fn estimate(&self, path: &LabelPath) -> f64 {
        if let Some(v) = self.cache.get(path) {
            return v;
        }
        let v = self.estimator.estimate(path);
        self.cache.insert(*path, v);
        v
    }

    /// Estimates a batch of validated paths. The whole batch is served by
    /// this one generation, so its results are internally consistent even
    /// if a hot-swap lands mid-batch.
    pub fn estimate_batch(&self, paths: &[LabelPath]) -> Vec<f64> {
        paths.iter().map(|p| self.estimate(p)).collect()
    }

    /// Validates raw label-id paths and estimates them as one batch.
    ///
    /// # Errors
    /// The first validation failure aborts the batch — partial answers
    /// would be ambiguous to the caller.
    pub fn estimate_id_batch(
        &self,
        paths: &[Vec<phe_graph::LabelId>],
    ) -> Result<Vec<f64>, EstimateError> {
        let validated: Vec<LabelPath> = paths
            .iter()
            .map(|p| self.estimator.validate(p))
            .collect::<Result<_, _>>()?;
        Ok(self.estimate_batch(&validated))
    }

    /// Parses, normalizes, and estimates one regular path expression
    /// against this generation's statistics.
    ///
    /// The expression cache is keyed by the **normalized** rendering, so
    /// `(a|b)/c` and `(b|a)/c` share an entry. A miss is answered by
    /// [`CardinalityEstimator::estimate_expr`], whose per-branch
    /// estimates flow through the per-path LRU, so hot branches amortize
    /// across different expressions. `explain` requests bypass the cache
    /// (they need the branch breakdown, which is not cached) and leave
    /// the hit/miss counters untouched.
    ///
    /// # Errors
    /// A rendered message for parse failures (with byte positions) and
    /// over-wide expansions.
    pub fn estimate_expr(&self, source: &str, explain: bool) -> Result<ExprOutcome, String> {
        let parse_span = phe_obs::span::stage("query.parse");
        let expr = parse_expr(self.estimator(), source).map_err(|e| {
            format!(
                "{e} (bytes {}..{} of the expression)",
                e.span.start, e.span.end
            )
        })?;
        let normalized = expr.normalize();
        let key = normalized.to_string();
        drop(parse_span);
        if !explain {
            if let Some(hit) = self.expr_cache.get(&key) {
                return Ok(ExprOutcome {
                    cached: true,
                    ..hit
                });
            }
        }
        let estimate =
            CardinalityEstimator::estimate_expr(self, &normalized).map_err(|e| e.to_string())?;
        let outcome = ExprOutcome {
            total: estimate.total,
            width: estimate.width() as u64,
            pruned: estimate.pruned,
            truncated: estimate.truncated,
            matches_empty: estimate.matches_empty,
            cached: false,
            branches: explain.then(|| {
                let render = |(path, e): &(LabelPath, f64)| (self.estimator.render_path(path), *e);
                estimate.branches.iter().map(render).collect()
            }),
        };
        if !explain {
            self.expr_cache.insert(key, outcome.clone());
        }
        Ok(outcome)
    }
}

/// A generation answers expressions like its [`ServableEstimator`], except
/// that each branch goes through the per-path LRU.
impl CardinalityEstimator for ServingEstimator {
    fn estimate(&self, path: &[LabelId]) -> f64 {
        self.estimator
            .validate(path)
            .map_or(0.0, |path| ServingEstimator::estimate(self, &path))
    }

    fn name(&self) -> &'static str {
        "cached-histogram"
    }

    fn label_count(&self) -> usize {
        self.estimator.label_count()
    }

    fn max_len(&self) -> usize {
        self.estimator.k()
    }

    fn follow_matrix(&self) -> Option<&FollowMatrix> {
        self.estimator.follow()
    }
}

struct Slot {
    current: RwLock<Arc<ServingEstimator>>,
    /// Expression-cache hit/miss counters for this slot — shared across
    /// its generations, so the `list` op reports a per-slot rate that
    /// survives hot-swaps.
    expr_counters: Arc<CacheCounters>,
}

/// What a maintained generation keeps for incremental updates: the graph
/// its statistics were counted over and the full estimator with its
/// retained sparse catalog. A `rebuild` op with `"maintain": true`
/// publishes the first one; each maintenance pass publishes the
/// post-delta state with its new generation, so deltas chain without
/// ever recounting the graph.
pub struct MaintenanceState {
    /// The graph the estimator's counts describe — the base the next
    /// delta's changes apply to.
    pub graph: Graph,
    /// The builder-side estimator (with [`phe_core::EstimatorConfig`]
    /// `retain_sparse` state) that [`PathSelectivityEstimator::apply_delta`]
    /// advances.
    pub estimator: PathSelectivityEstimator,
}

/// The memory footprint of a slot's *maintained* sparse catalog (present
/// only for slots rebuilt with `maintain`): the state `delta` ops merge
/// into, reported so the compression ratio is observable wherever memory
/// already is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintainedFootprint {
    /// Realized (non-zero) paths in the maintained catalog.
    pub nonzero_paths: u64,
    /// Resident bytes of the block-compressed runs (payload + skip index
    /// + struct overhead).
    pub catalog_bytes: u64,
    /// Bytes the flat 16 B/entry pair vector would need.
    pub plain_bytes: u64,
}

/// One row of [`EstimatorRegistry::list`], captured from a single
/// generation.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorInfo {
    /// Registry slot name.
    pub name: String,
    /// Current generation version.
    pub version: u64,
    /// Maximum supported path length.
    pub k: usize,
    /// Number of labels in the statistics' alphabet.
    pub label_count: usize,
    /// Approximate retained memory of the estimator (buckets + ordering
    /// reconstruction state; no catalog is held at serve time).
    pub size_bytes: usize,
    /// Provenance string.
    pub description: String,
    /// Delta lineage of the served statistics: `(base_build_id,
    /// applied_deltas)` — the full build the statistics descend from and
    /// the number of deltas merged into it since. `None` for pre-lineage
    /// snapshots.
    pub lineage: Option<(u64, u64)>,
    /// Per-slot expression-cache counters `(normalized-key hits, raw
    /// misses)`, cumulative across the slot's generations.
    pub expr_cache: (u64, u64),
    /// The maintained sparse catalog's footprint, when the slot holds
    /// maintenance state.
    pub maintained: Option<MaintainedFootprint>,
    /// Accuracy drift sampled after the slot's most recent `delta`:
    /// estimates vs exact counts over the touched paths. `None` until a
    /// delta has been applied to the maintained lineage.
    pub drift: Option<DriftReport>,
    /// Whether the served statistics carry a follow matrix (and so prune
    /// impossible expansion branches remotely).
    pub follow_pruning: bool,
}

/// Named, concurrently readable, hot-swappable estimators.
pub struct EstimatorRegistry {
    slots: RwLock<HashMap<String, Arc<Slot>>>,
    counters: Arc<CacheCounters>,
    cache_capacity: usize,
    /// Metrics registry per-slot expression-cache counters are
    /// registered in (`phe_cache_requests_total{cache="expr",slot=…}`),
    /// when the serving tier wires one up.
    obs: Option<Arc<MetricsRegistry>>,
    /// Slots with a background rebuild in flight — one rebuild per slot
    /// at a time, so repeated `rebuild` requests cannot stack full-graph
    /// builds or publish out of order.
    rebuilding: Mutex<HashSet<String>>,
}

impl EstimatorRegistry {
    /// Default per-estimator cache capacity (entries).
    pub const DEFAULT_CACHE_CAPACITY: usize = 16 * 1024;

    /// Per-slot expression-cache capacity (normalized expressions). Each
    /// entry is one answered expression; the fan-out into per-path
    /// estimates is cached separately by the per-path LRU.
    pub const EXPR_CACHE_CAPACITY: usize = 1024;

    /// An empty registry whose caches report into `counters`.
    pub fn new(counters: Arc<CacheCounters>, cache_capacity: usize) -> EstimatorRegistry {
        EstimatorRegistry {
            slots: RwLock::new(HashMap::new()),
            counters,
            cache_capacity: cache_capacity.max(1),
            obs: None,
            rebuilding: Mutex::new(HashSet::new()),
        }
    }

    /// Registers per-slot cache counters in `registry` (builder style) —
    /// each slot's expression-cache hits and misses become
    /// `phe_cache_requests_total{cache="expr",slot=…}` alongside the
    /// rates `list` reports, read from the same atomics.
    pub fn with_observability(mut self, registry: Arc<MetricsRegistry>) -> EstimatorRegistry {
        self.obs = Some(registry);
        self
    }

    /// The maintenance state of `name`'s current generation, if that
    /// generation was published with one (a maintaining rebuild or a
    /// maintenance pass).
    pub fn maintenance(&self, name: &str) -> Option<Arc<MaintenanceState>> {
        self.get(name)?.maintenance.clone()
    }

    /// Marks `name` as having a background rebuild in flight. Returns
    /// `false` when one is already running — callers refuse the request
    /// instead of stacking builds. Pair with
    /// [`EstimatorRegistry::finish_rebuild`].
    pub fn try_begin_rebuild(&self, name: &str) -> bool {
        self.rebuilding.lock().insert(name.to_owned())
    }

    /// Clears the in-flight rebuild mark (success, failure, or panic —
    /// the rebuild worker must always release it).
    pub fn finish_rebuild(&self, name: &str) {
        self.rebuilding.lock().remove(name);
    }

    /// An empty registry with stand-alone counters (tests, benches).
    pub fn with_default_counters() -> EstimatorRegistry {
        EstimatorRegistry::new(
            Arc::new(CacheCounters::default()),
            Self::DEFAULT_CACHE_CAPACITY,
        )
    }

    /// Publishes `estimator` under `name`. If the slot exists this is a
    /// **hot swap**: the new generation (with a fresh cold cache) becomes
    /// visible atomically, while batches pinned to the old generation
    /// finish undisturbed. Returns the new generation's version.
    ///
    /// The new generation carries no maintenance state: the published
    /// statistics were not derived from the slot's maintained lineage, so
    /// a later `delta` is refused until a fresh maintaining rebuild.
    pub fn register(&self, name: &str, estimator: ServableEstimator) -> u64 {
        // Fast path: swap an existing slot. The map read lock is held
        // across the inner write so a concurrent `remove` (which needs
        // the map write lock) cannot detach the slot between lookup and
        // publish — registrations are never silently lost.
        {
            let slots = self.slots.read();
            if let Some(slot) = slots.get(name) {
                return self.swap_in(slot, estimator);
            }
        }
        let mut slots = self.slots.write();
        // Re-check: another thread may have created the slot between our
        // read and this write lock.
        if let Some(slot) = slots.get(name) {
            return self.swap_in(slot, estimator);
        }
        slots.insert(name.to_owned(), self.new_slot(name, estimator, None));
        1
    }

    /// A fresh slot at version 1, with its own expression-cache counters.
    fn new_slot(
        &self,
        name: &str,
        estimator: ServableEstimator,
        maintenance: Option<MaintenanceState>,
    ) -> Arc<Slot> {
        let expr_counters = Arc::new(match &self.obs {
            Some(obs) => CacheCounters::registered(obs, &[("cache", "expr"), ("slot", name)]),
            None => CacheCounters::default(),
        });
        Arc::new(Slot {
            current: RwLock::new(Arc::new(self.generation(
                estimator,
                1,
                Arc::clone(&expr_counters),
                maintenance,
            ))),
            expr_counters,
        })
    }

    /// Installs a new generation into an existing slot; the caller holds a
    /// map lock, so the slot cannot be detached concurrently. The slot's
    /// expression-cache counters carry over (the cache itself starts
    /// cold, like the per-path cache).
    fn swap_in(&self, slot: &Slot, estimator: ServableEstimator) -> u64 {
        let mut current = slot.current.write();
        let version = current.version() + 1;
        *current =
            Arc::new(self.generation(estimator, version, Arc::clone(&slot.expr_counters), None));
        version
    }

    /// Publishes `estimator` under `name` **only if** the slot's version
    /// still equals `expected` (`0` ⇒ the slot must not exist yet), with
    /// `state` as the new generation's maintenance state (`None` publishes
    /// statistics outside any maintained lineage). Returns the new
    /// version, or `None` when a newer generation landed in the meantime —
    /// the compare-and-swap a slow background rebuild or maintenance pass
    /// needs so it can never stomp a fresher `load`/`register`. The state
    /// is part of the generation, so it is published (or refused) with
    /// the statistics in the same swap.
    pub fn register_if_version_maintained(
        &self,
        name: &str,
        estimator: ServableEstimator,
        expected: u64,
        state: Option<MaintenanceState>,
    ) -> Option<u64> {
        {
            let slots = self.slots.read();
            if let Some(slot) = slots.get(name) {
                // Hold the generation write lock across the version check
                // so a concurrent publish cannot slip between check and
                // swap.
                let mut current = slot.current.write();
                if current.version() != expected {
                    return None;
                }
                let version = expected + 1;
                *current = Arc::new(self.generation(
                    estimator,
                    version,
                    Arc::clone(&slot.expr_counters),
                    state,
                ));
                return Some(version);
            }
        }
        if expected != 0 {
            return None; // slot was removed since the caller observed it
        }
        let mut slots = self.slots.write();
        if slots.contains_key(name) {
            return None; // created concurrently: that publish is newer
        }
        slots.insert(name.to_owned(), self.new_slot(name, estimator, state));
        Some(1)
    }

    fn generation(
        &self,
        estimator: ServableEstimator,
        version: u64,
        expr_counters: Arc<CacheCounters>,
        maintenance: Option<MaintenanceState>,
    ) -> ServingEstimator {
        ServingEstimator {
            estimator,
            cache: ShardedLruCache::new(self.cache_capacity, Arc::clone(&self.counters)),
            expr_cache: ExprCache::new(Self::EXPR_CACHE_CAPACITY, expr_counters),
            version,
            maintenance: maintenance.map(Arc::new),
        }
    }

    /// Pins the current generation of `name` for reading. The returned
    /// `Arc` stays valid (and internally consistent) across any number of
    /// subsequent hot-swaps.
    pub fn get(&self, name: &str) -> Option<Arc<ServingEstimator>> {
        let slot = self.slots.read().get(name).cloned()?;
        let generation = slot.current.read().clone();
        Some(generation)
    }

    /// Removes a slot (and with it its maintenance state, if any).
    /// In-flight readers keep their pinned generations.
    pub fn remove(&self, name: &str) -> bool {
        self.slots.write().remove(name).is_some()
    }

    /// Sorted listing, each row read from a single generation (so a
    /// concurrent hot-swap never produces a row mixing two generations).
    /// Maintained slots additionally report their catalog's compressed
    /// vs plain footprint and the drift of their latest delta.
    pub fn list(&self) -> Vec<EstimatorInfo> {
        let mut entries: Vec<EstimatorInfo> = self
            .slots
            .read()
            .iter()
            .map(|(name, slot)| {
                let generation = slot.current.read();
                let state = generation.maintenance.as_deref();
                EstimatorInfo {
                    name: name.clone(),
                    version: generation.version(),
                    k: generation.estimator().k(),
                    label_count: generation.estimator().label_count(),
                    size_bytes: generation.estimator().size_bytes(),
                    description: generation.estimator().description().to_owned(),
                    lineage: generation.estimator().lineage(),
                    expr_cache: (slot.expr_counters.hits(), slot.expr_counters.misses()),
                    // Every maintained estimator is built sparse, so the
                    // catalog is present by construction — but a listing
                    // is diagnostics, not a place to die on a broken
                    // invariant: a state that somehow lost it is simply
                    // reported without the maintained footprint.
                    maintained: state
                        .and_then(|s| s.estimator.sparse_catalog())
                        .map(|catalog| MaintainedFootprint {
                            nonzero_paths: catalog.nonzero_count() as u64,
                            catalog_bytes: catalog.size_bytes() as u64,
                            plain_bytes: catalog.plain_bytes() as u64,
                        }),
                    drift: state.and_then(|s| s.estimator.drift().copied()),
                    follow_pruning: generation.estimator().follow().is_some(),
                }
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Number of registered estimators.
    pub fn len(&self) -> usize {
        self.slots.read().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// The registry is the object shared across every serving thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EstimatorRegistry>();
    assert_send_sync::<ServingEstimator>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use phe_core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
    use phe_datasets::{erdos_renyi, LabelDistribution};
    use phe_graph::LabelId;

    fn servable(beta: usize) -> ServableEstimator {
        let g = erdos_renyi(40, 240, 3, LabelDistribution::Zipf { exponent: 1.0 }, 11);
        ServableEstimator::from_estimator(
            PathSelectivityEstimator::build(
                &g,
                EstimatorConfig {
                    k: 3,
                    beta,
                    ordering: OrderingKind::SumBased,
                    histogram: HistogramKind::VOptimalGreedy,
                    threads: 1,
                    retain_sparse: false,
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn register_get_roundtrip() {
        let registry = EstimatorRegistry::with_default_counters();
        assert!(registry.get("main").is_none());
        assert_eq!(registry.register("main", servable(8)), 1);
        let generation = registry.get("main").unwrap();
        assert_eq!(generation.version(), 1);
        let p = LabelPath::new(&[LabelId(0), LabelId(1)]);
        // Cached value equals direct value.
        let direct = generation.estimator().estimate(&p);
        assert_eq!(generation.estimate(&p), direct);
        assert_eq!(generation.estimate(&p), direct);
    }

    #[test]
    fn hot_swap_bumps_version_and_preserves_pinned_readers() {
        let registry = EstimatorRegistry::with_default_counters();
        registry.register("main", servable(4));
        let pinned = registry.get("main").unwrap();
        assert_eq!(registry.register("main", servable(32)), 2);
        // The pinned generation still answers with its own estimator.
        let p = LabelPath::new(&[LabelId(1)]);
        let old = pinned.estimate(&p);
        assert_eq!(pinned.version(), 1);
        let fresh = registry.get("main").unwrap();
        assert_eq!(fresh.version(), 2);
        // Old generation remains self-consistent.
        assert_eq!(pinned.estimate(&p), old);
    }

    #[test]
    fn batch_is_single_generation_consistent() {
        let registry = EstimatorRegistry::with_default_counters();
        registry.register("main", servable(16));
        let generation = registry.get("main").unwrap();
        let paths: Vec<Vec<LabelId>> = vec![
            vec![LabelId(0)],
            vec![LabelId(1), LabelId(2)],
            vec![LabelId(2), LabelId(0), LabelId(1)],
        ];
        let batch = generation.estimate_id_batch(&paths).unwrap();
        for (p, got) in paths.iter().zip(&batch) {
            assert_eq!(*got, generation.estimator().estimate_labels(p).unwrap());
        }
    }

    #[test]
    fn invalid_path_fails_whole_batch() {
        let registry = EstimatorRegistry::with_default_counters();
        registry.register("main", servable(16));
        let generation = registry.get("main").unwrap();
        let paths = vec![vec![LabelId(0)], vec![LabelId(99)]];
        assert!(matches!(
            generation.estimate_id_batch(&paths),
            Err(EstimateError::UnknownLabelId(99))
        ));
    }

    #[test]
    fn estimate_expr_caches_under_normalized_keys_per_slot() {
        let registry = EstimatorRegistry::with_default_counters();
        registry.register("main", servable(16));
        let generation = registry.get("main").unwrap();
        let labels = generation.estimator().label_count();
        assert_eq!(labels, 3);

        // Miss, then a commuted alternation hits the same normalized key.
        let first = generation.estimate_expr("0|1", false).unwrap();
        assert!(!first.cached);
        assert_eq!(first.width, 2);
        let second = generation.estimate_expr("1|0", false).unwrap();
        assert!(second.cached, "commuted alternation must hit");
        assert_eq!(second.total.to_bits(), first.total.to_bits());

        // The total is the canonical-order sum of the branch estimates.
        let direct = generation
            .estimate_id_batch(&[vec![LabelId(0)], vec![LabelId(1)]])
            .unwrap();
        assert_eq!(first.total.to_bits(), (direct[0] + direct[1]).to_bits());

        // Explain bypasses the cache and carries branch rows.
        let explained = generation.estimate_expr("0|1", true).unwrap();
        assert!(!explained.cached);
        let branches = explained.branches.expect("explain carries branches");
        assert_eq!(branches.len(), 2);
        assert_eq!(branches[0].0, "0");

        // Per-slot counters: 1 hit, 1 miss so far (explain not counted),
        // reported by list() and surviving a hot swap.
        let row = &registry.list()[0];
        assert_eq!(row.expr_cache, (1, 1));
        registry.register("main", servable(8));
        let row = &registry.list()[0];
        assert_eq!(row.expr_cache, (1, 1), "counters survive the swap");
        let fresh = registry.get("main").unwrap();
        let after_swap = fresh.estimate_expr("1|0", false).unwrap();
        assert!(!after_swap.cached, "new generation starts cold");
        assert_eq!(registry.list()[0].expr_cache, (1, 2));

        // Parse errors surface with byte positions; wildcards expand.
        let err = generation.estimate_expr("0/nope", false).unwrap_err();
        assert!(err.contains("nope") && err.contains("bytes 2..6"), "{err}");
        let wild = generation.estimate_expr(".", false).unwrap();
        assert_eq!(wild.width, labels as u64);
    }

    #[test]
    fn follow_matrix_prunes_remote_expansions() {
        // A two-label chain graph: "a" edges feed "b" edges, nothing
        // else composes. Of the four length-2 wildcard branches only
        // a/b can occur, so remote expansion must prune the other three
        // — the serving tier now ships the follow matrix instead of
        // expanding purely syntactically.
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
                threads: 1,
                ..EstimatorConfig::default()
            },
        )
        .unwrap();
        let snapshot = est.snapshot().unwrap();

        let registry = EstimatorRegistry::with_default_counters();
        registry.register("live", ServableEstimator::from_estimator(est));
        registry.register(
            "restored",
            ServableEstimator::from_snapshot(&snapshot).unwrap(),
        );
        for name in ["live", "restored"] {
            let generation = registry.get(name).unwrap();
            let out = generation.estimate_expr("./.", true).unwrap();
            assert_eq!((out.width, out.pruned), (1, 3), "{name}");
            let branches = out.branches.unwrap();
            assert_eq!(branches.len(), 1);
            assert_eq!(branches[0].0, "a/b", "{name}");
        }
        // Both rows advertise the capability.
        for row in registry.list() {
            assert!(row.follow_pruning, "{}", row.name);
        }

        // A pre-v5 snapshot (no follow bits) expands syntactically:
        // same total branch space, nothing pruned.
        let mut v4 = snapshot;
        v4.follow_bits_base64 = None;
        registry.register("legacy", ServableEstimator::from_snapshot(&v4).unwrap());
        let generation = registry.get("legacy").unwrap();
        let out = generation.estimate_expr("./.", false).unwrap();
        assert_eq!((out.width, out.pruned), (4, 0));
        let row = registry
            .list()
            .into_iter()
            .find(|r| r.name == "legacy")
            .unwrap();
        assert!(!row.follow_pruning);
    }

    #[test]
    fn register_if_version_refuses_stale_publishes() {
        let registry = EstimatorRegistry::with_default_counters();
        let cas = |estimator, expected| {
            registry.register_if_version_maintained("main", estimator, expected, None)
        };
        // Fresh slot: expected 0 creates it.
        assert_eq!(cas(servable(4), 0), Some(1));
        // Matching version swaps.
        assert_eq!(cas(servable(8), 1), Some(2));
        // Stale expectation (a newer publish landed): refused, current kept.
        assert_eq!(cas(servable(16), 1), None);
        assert_eq!(registry.get("main").unwrap().version(), 2);
        // Expecting an existing version on a missing slot: refused.
        assert_eq!(
            registry.register_if_version_maintained("other", servable(4), 3, None),
            None
        );
        // Expecting creation when the slot exists: refused.
        assert_eq!(cas(servable(4), 0), None);
    }

    /// A sparse-retaining build over `g`, as a maintaining rebuild keeps.
    fn maintained(g: Graph) -> MaintenanceState {
        let estimator = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 2,
                beta: 8,
                retain_sparse: true,
                threads: 1,
                ..EstimatorConfig::default()
            },
        )
        .unwrap();
        MaintenanceState {
            graph: g,
            estimator,
        }
    }

    #[test]
    fn register_invalidates_maintenance_state() {
        let g = erdos_renyi(30, 150, 3, LabelDistribution::Uniform, 5);
        let registry = EstimatorRegistry::with_default_counters();
        registry.register("main", servable(8));
        let published =
            registry.register_if_version_maintained("main", servable(8), 1, Some(maintained(g)));
        assert_eq!(published, Some(2));
        assert!(registry.maintenance("main").is_some());
        // An unconditional publish (a `load`) is not derived from the
        // maintained lineage: the state must be invalidated with it.
        registry.register("main", servable(16));
        assert!(registry.maintenance("main").is_none());
    }

    #[test]
    fn maintenance_is_read_from_the_pinned_generation() {
        let registry = EstimatorRegistry::with_default_counters();
        let first = maintained(erdos_renyi(30, 150, 3, LabelDistribution::Uniform, 5));
        let first_edges = first.graph.edge_count();
        registry.register_if_version_maintained("main", servable(8), 0, Some(first));
        let pinned = registry.get("main").unwrap();
        let second = maintained(erdos_renyi(30, 90, 3, LabelDistribution::Uniform, 7));
        let second_edges = second.graph.edge_count();
        assert_ne!(first_edges, second_edges);
        registry.register_if_version_maintained("main", servable(8), 1, Some(second));

        // The pinned generation keeps the state it was published with; the
        // registry answers with the current generation's.
        assert_eq!(
            pinned.maintenance().unwrap().graph.edge_count(),
            first_edges
        );
        let current = registry.get("main").unwrap();
        let state = registry.maintenance("main").unwrap();
        assert!(Arc::ptr_eq(&state, current.maintenance().unwrap()));
        assert_eq!(state.graph.edge_count(), second_edges);
        // Removing the slot removes its lineage with it.
        assert!(registry.remove("main"));
        assert!(registry.maintenance("main").is_none());
    }

    #[test]
    fn list_rows_pair_each_version_with_its_own_footprint() {
        // Version v publishes the state over graphs[v % 2]; the two
        // catalogs differ in size, so a row mixing two generations shows.
        // Every generation is built up front so the writer publishes
        // back to back while the reader lists.
        const LAST: u64 = 2000;
        let graphs = [
            erdos_renyi(20, 40, 3, LabelDistribution::Uniform, 7),
            erdos_renyi(30, 150, 4, LabelDistribution::Zipf { exponent: 1.0 }, 5),
        ];
        let mut generations: Vec<_> = (1..=LAST)
            .map(|version| {
                let state = maintained(graphs[(version % 2) as usize].clone());
                let servable = ServableEstimator::from_maintained(&state.estimator).unwrap();
                (version, servable, state)
            })
            .collect();
        let footprint = |version: u64| {
            let state = &generations[version as usize - 1].2;
            state.estimator.sparse_catalog().unwrap().nonzero_count() as u64
        };
        let footprints = [footprint(2), footprint(1)];
        assert_ne!(footprints[0], footprints[1]);

        let registry = EstimatorRegistry::with_default_counters();
        let (_, servable, state) = generations.remove(0);
        assert_eq!(
            registry.register_if_version_maintained("main", servable, 0, Some(state)),
            Some(1)
        );
        let start = std::sync::Barrier::new(2);
        let rows = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                start.wait();
                for (version, servable, state) in generations {
                    let published = registry.register_if_version_maintained(
                        "main",
                        servable,
                        version - 1,
                        Some(state),
                    );
                    assert_eq!(published, Some(version));
                }
            });
            start.wait();
            let mut rows = 0;
            while !writer.is_finished() {
                for row in registry.list() {
                    let maintained = row.maintained.expect("every generation is maintained");
                    assert_eq!(
                        maintained.nonzero_paths,
                        footprints[(row.version % 2) as usize],
                        "row at v{} carries another generation's footprint",
                        row.version
                    );
                    rows += 1;
                }
            }
            rows
        });
        assert!(rows > 0);
        assert_eq!(registry.list()[0].version, LAST);
    }

    #[test]
    fn rebuild_marks_are_per_slot_and_releasable() {
        let registry = EstimatorRegistry::with_default_counters();
        assert!(registry.try_begin_rebuild("a"));
        assert!(!registry.try_begin_rebuild("a"), "second rebuild refused");
        assert!(registry.try_begin_rebuild("b"), "other slots unaffected");
        registry.finish_rebuild("a");
        assert!(registry.try_begin_rebuild("a"), "released after finish");
    }

    #[test]
    fn size_bytes_tracks_histogram_footprint() {
        // More buckets ⇒ a strictly larger reported footprint, and the
        // report matches the estimator's own accounting.
        let registry = EstimatorRegistry::with_default_counters();
        registry.register("small", servable(4));
        registry.register("large", servable(32));
        let list = registry.list();
        let small = list.iter().find(|i| i.name == "small").unwrap();
        let large = list.iter().find(|i| i.name == "large").unwrap();
        assert!(
            large.size_bytes > small.size_bytes,
            "β=32 ({}) must outweigh β=4 ({})",
            large.size_bytes,
            small.size_bytes
        );
        let pinned = registry.get("small").unwrap();
        assert_eq!(small.size_bytes, pinned.estimator().size_bytes());
    }

    #[test]
    fn list_reports_lineage_and_maintained_footprint() {
        // Enough realized paths that the block compression clears its
        // fixed overhead (skip row + struct) — as any real catalog does.
        let g = erdos_renyi(60, 600, 4, LabelDistribution::Zipf { exponent: 1.0 }, 5);
        let config = EstimatorConfig {
            k: 3,
            beta: 8,
            retain_sparse: true,
            threads: 1,
            ..EstimatorConfig::default()
        };
        let est = PathSelectivityEstimator::build(&g, config).unwrap();
        let build_id = est.build_id();
        let serving = PathSelectivityEstimator::build(&g, config).unwrap();

        let registry = EstimatorRegistry::with_default_counters();
        registry.register("main", ServableEstimator::from_estimator(serving));
        // No maintenance state yet: lineage present, footprint absent.
        let row = &registry.list()[0];
        assert_eq!(row.lineage, Some((build_id, 0)));
        assert!(row.maintained.is_none());

        let servable = ServableEstimator::from_maintained(&est).unwrap();
        registry.register_if_version_maintained(
            "main",
            servable,
            1,
            Some(MaintenanceState {
                graph: g,
                estimator: est,
            }),
        );
        let row = &registry.list()[0];
        assert_eq!((row.version, row.lineage), (2, Some((build_id, 0))));
        let m = row.maintained.expect("maintained slot reports its catalog");
        assert!(m.nonzero_paths > 0);
        assert_eq!(m.plain_bytes, m.nonzero_paths * 16);
        assert!(
            m.catalog_bytes < m.plain_bytes,
            "compressed {} must undercut plain {}",
            m.catalog_bytes,
            m.plain_bytes
        );
    }

    #[test]
    fn list_and_remove() {
        let registry = EstimatorRegistry::with_default_counters();
        registry.register("b", servable(8));
        registry.register("a", servable(8));
        let names: Vec<String> = registry.list().into_iter().map(|info| info.name).collect();
        assert_eq!(names, vec!["a", "b"]);
        let info = &registry.list()[0];
        assert_eq!((info.k, info.label_count, info.version), (3, 3, 1));
        assert!(info.size_bytes > 0, "footprint must be reported");
        assert!(registry.remove("a"));
        assert!(!registry.remove("a"));
        assert_eq!(registry.len(), 1);
    }
}
