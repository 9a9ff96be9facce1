//! Sparse selectivity catalogs: only the *realized* label paths.
//!
//! The dense [`SelectivityCatalog`] stores `f(ℓ)` for every path in the
//! domain `Σ |L|^i` — including the overwhelming majority that never occur
//! in the graph. Real graphs realize only the paths reachable by actual
//! edge chains, a set bounded by the trie of non-empty path relations, so
//! a catalog of sorted `(canonical_index, count)` runs scales with the
//! *graph*, not with the combinatorial domain. That is what lets the
//! build pipeline reach `(|L|, k)` configurations whose dense vector would
//! not even allocate (see [`crate::catalog::DENSE_DOMAIN_LIMIT`]).
//!
//! ## Storage: block-compressed runs
//!
//! The entries live in a [`CompressedRuns`]: ≤ 128-entry blocks of
//! `(index_gap, count)` pairs behind a per-block skip index, each block
//! encoded by whichever of the two codecs (per-entry varints, or
//! frame-of-reference bit-packed lanes) is smaller — see [`crate::runs`]
//! for the tagged format. Canonical indexes cluster by shared label
//! prefixes, so gaps are small and the flat 16 B/entry of a
//! `Vec<(u64, u64)>` compresses to a few bytes/entry. Consumers never see
//! the pair vector: [`SparseCatalog::iter`] hands out the zero-alloc
//! block cursor, [`SparseCatalog::selectivity_at`] binary-searches the
//! skip index and decodes one block, and the merges below operate at
//! block granularity (untouched blocks copy wholesale, without a
//! re-encode).
//!
//! ## Counting: one kernel
//!
//! Every full count — sparse or dense, one thread or many — runs the same
//! trie walk (`TrieWalk`): a depth-first traversal of the label-path trie
//! that computes each prefix relation once and shares it between its
//! extensions. It descends only along labels that can follow the last one
//! (per the graph's [`FollowMatrix`]: when no `a`-edge ends where a
//! `b`-edge starts, every relation ending in `a` composes with `b` to the
//! empty set), and counts the depth-`k` children with
//! [`PathRelation::compose_count`] instead of building them. The dense
//! [`SelectivityCatalog`] is a view: [`SelectivityCatalog::compute`] and
//! [`crate::parallel::compute_parallel`] materialize this module's result
//! with [`SparseCatalog::to_dense`]; [`crate::naive`] stays the
//! independent oracle.
//!
//! The builders around the kernel:
//!
//! * [`SparseCatalog::compute`] — one walk per first label, emitting one
//!   entry per non-empty relation;
//! * [`SparseCatalog::compute_parallel`] — sharded per-thread counting
//!   over `(label, source-range)` tasks, all workers sharing one walk;
//!   each worker sorts, coalesces, and **compresses** its local entries
//!   into a run, and the runs are combined by
//!   [`CompressedRuns::merge_many`] (k-way heap merge with block-wise
//!   wholesale copies) that sums counts of equal indexes;
//! * [`SparseCatalog::compute_parallel_spilling`] — the same build under
//!   a memory budget: a worker whose local entry buffer exceeds its
//!   budget share compresses it and **spills it to a shard file**
//!   ([`crate::file`]); the final k-way merge streams the spilled shards
//!   back one block at a time, so peak memory tracks the budget plus one
//!   block per shard instead of the whole entry set;
//! * [`SparseCatalog::from_dense`] / [`SparseCatalog::to_dense`] — lossless
//!   conversions (the dense direction is guarded by the materialization
//!   limit);
//! * [`SparseCatalog::merge_delta`] — incremental maintenance: folds a
//!   signed [`crate::delta::SparseDeltaRun`] (the outcome of
//!   [`crate::delta::compute_delta`] over a graph change) into this
//!   catalog via [`CompressedRuns::merge_signed`] — blocks the delta does
//!   not touch transfer raw — producing the catalog of the changed graph
//!   without a recount.
//!
//! ## The run invariants
//!
//! Every operation above relies on — and preserves — the same contract
//! over the compressed entry stream:
//!
//! 1. **Run ordering.** Entries are sorted by canonical index, *strictly*
//!    increasing: one entry per realized path, no duplicates. The skip
//!    index gives `O(log #blocks + B)` lookups, and any two runs (or a
//!    run and a delta) merge in one linear block-wise pass.
//! 2. **No explicit zeros.** Every stored count is `> 0`; an index absent
//!    from the run *is* the zero. This is what makes the representation
//!    size `O(realized paths)` and lets the histogram builders charge
//!    O(1) per zero gap.
//! 3. **Merge = index-wise sum.** Per-thread shards each count a disjoint
//!    source range, so equal indexes across runs *add* (the k-way merge
//!    does exactly that, yielding invariants 1–2 again).
//! 4. **Cancellation on delta merge.** A delta entry is a signed
//!    difference; summing it into the base count may produce 0, and the
//!    merged run must *drop* that entry (invariant 2), not store a zero —
//!    otherwise the merged catalog would not be bit-identical to a fresh
//!    recount of the changed graph. A sum below zero means the delta was
//!    computed against a different base and is refused
//!    ([`CatalogError::DeltaUnderflow`]).
//! 5. **Block boundaries are a storage artifact.** Wholesale copies keep
//!    the source's boundaries, re-encodes re-chunk at the block capacity;
//!    equality ([`PartialEq`]) and every consumer observe the *decoded
//!    stream* only, so differently-blocked runs with equal content are
//!    the same catalog.
//!
//! Entries are length-partitioned for free: the canonical encoding is
//! length-major, so a sort by index groups paths by length first.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use phe_graph::{FixedBitSet, FollowMatrix, Graph, LabelId};

use crate::catalog::{check_dense_domain, CatalogError, SelectivityCatalog};
use crate::encoding::PathEncoding;
use crate::file::{open_shard, write_runs_file, Durability, ShardReader};
use crate::relation::PathRelation;
use crate::runs::{merge_streams, BlockMeta, CompressedRuns, MemStream, RunStream, RunsCursor};

/// Bytes one uncompressed `(u64, u64)` entry occupies in a worker's
/// local buffer — the unit the spill budget is accounted in.
const ENTRY_BYTES: usize = std::mem::size_of::<(u64, u64)>();

/// Distinguishes concurrent spilling builds sharing one temp dir.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Accounting from a budgeted build
/// ([`SparseCatalog::compute_parallel_spilling`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Shard files written to disk during counting.
    pub shards: usize,
    /// Total size of the spilled shard files in bytes.
    pub bytes: u64,
}

/// A merge source for the budgeted build: a worker's in-memory
/// remainder, or a spilled shard streamed back from disk.
enum BuildStream<'a> {
    Mem(MemStream<'a>),
    Disk(ShardReader),
}

impl RunStream for BuildStream<'_> {
    fn head_block(&self) -> Option<BlockMeta> {
        match self {
            BuildStream::Mem(s) => s.head_block(),
            BuildStream::Disk(s) => s.head_block(),
        }
    }

    fn next_entry(&mut self) -> Option<(u64, u64)> {
        match self {
            BuildStream::Mem(s) => s.next_entry(),
            BuildStream::Disk(s) => s.next_entry(),
        }
    }

    fn take_block(&mut self, meta: &BlockMeta) -> &[u8] {
        match self {
            BuildStream::Mem(s) => s.take_block(meta),
            BuildStream::Disk(s) => s.take_block(meta),
        }
    }
}

fn spill_err(e: impl std::fmt::Display) -> CatalogError {
    CatalogError::SpillIo {
        message: e.to_string(),
    }
}

/// The sparse table of path selectivities: block-compressed, sorted,
/// duplicate-free `(canonical_index, count)` entries with `count > 0`;
/// every index absent from the entries has selectivity 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseCatalog {
    encoding: PathEncoding,
    /// Sorted by canonical index, strictly increasing, counts non-zero.
    runs: CompressedRuns,
}

impl SparseCatalog {
    /// Computes the sparse catalog with the shared-prefix trie traversal
    /// (single-threaded).
    ///
    /// # Errors
    /// [`CatalogError::DomainTooLarge`] when `Σ |L|^i` overflows the
    /// canonical index space — the one limit the sparse representation
    /// still has.
    pub fn compute(graph: &Graph, k: usize) -> Result<SparseCatalog, CatalogError> {
        let encoding = PathEncoding::try_new(graph.label_count().max(1), k)?;
        let mut entries = Vec::new();
        {
            let _count = phe_obs::span::stage("build.count");
            let walk = TrieWalk::new(graph, encoding);
            let mut scratch = FixedBitSet::new(graph.vertex_count());
            let mut path = Vec::with_capacity(k);
            for label in graph.label_ids() {
                let rel = PathRelation::from_label(graph, label);
                if !rel.is_empty() {
                    walk.collect(&rel, label, &mut path, &mut scratch, &mut entries);
                }
            }
        }
        let _merge = phe_obs::span::stage("build.merge");
        entries.sort_unstable_by_key(|&(index, _)| index);
        Ok(SparseCatalog {
            encoding,
            runs: CompressedRuns::from_entries(&entries),
        })
    }

    /// Computes the sparse catalog with `threads` workers (0 ⇒ one per
    /// core): the label × source-range task grid is counted into
    /// per-thread shards, each shard is sorted, coalesced, and compressed
    /// into a run, and the runs are k-way merged at block granularity.
    /// Produces entries identical to [`SparseCatalog::compute`].
    ///
    /// # Errors
    /// [`CatalogError::DomainTooLarge`] as for [`SparseCatalog::compute`].
    pub fn compute_parallel(
        graph: &Graph,
        k: usize,
        threads: usize,
    ) -> Result<SparseCatalog, CatalogError> {
        Self::compute_parallel_spilling(graph, k, threads, None).map(|(catalog, _)| catalog)
    }

    /// [`SparseCatalog::compute_parallel`] under a memory budget: a
    /// worker whose uncompressed local entry buffer crosses its share of
    /// `memory_budget` bytes compresses it and spills it to a shard file
    /// in the system temp dir; the final k-way merge streams the spilled
    /// shards back one block at a time. Entries are identical to the
    /// unbudgeted build; the returned [`SpillStats`] say how much hit
    /// disk. `None` (or a budget nothing exceeds) never touches the
    /// filesystem.
    ///
    /// # Errors
    /// [`CatalogError::DomainTooLarge`] as for [`SparseCatalog::compute`];
    /// [`CatalogError::SpillIo`] when a shard file cannot be written or
    /// re-read (shards are cleaned up either way).
    pub fn compute_parallel_spilling(
        graph: &Graph,
        k: usize,
        threads: usize,
        memory_budget: Option<usize>,
    ) -> Result<(SparseCatalog, SpillStats), CatalogError> {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        if graph.label_count() == 0
            || graph.vertex_count() == 0
            || (threads <= 1 && memory_budget.is_none())
        {
            return Self::compute(graph, k).map(|c| (c, SpillStats::default()));
        }
        let encoding = PathEncoding::try_new(graph.label_count().max(1), k)?;

        // Each worker gets an equal share of the budget, measured
        // against its *uncompressed* local buffer (16 B/entry).
        let per_thread_budget = memory_budget.map(|b| (b / threads).max(ENTRY_BYTES));
        let spill_dir = match memory_budget {
            Some(_) => {
                // ORDERING: the sequence only needs uniqueness for the
                // directory name; the RMW provides that without ordering.
                let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
                let dir =
                    std::env::temp_dir().join(format!("phe-spill-{}-{seq}", std::process::id()));
                std::fs::create_dir_all(&dir).map_err(spill_err)?;
                Some(dir)
            }
            None => None,
        };

        let tasks = build_tasks(graph, threads);
        let next_task = AtomicUsize::new(0);
        let runs: Mutex<Vec<CompressedRuns>> = Mutex::new(Vec::with_capacity(threads));
        let shard_paths: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());
        let shard_seq = AtomicUsize::new(0);
        let spilled_bytes = AtomicU64::new(0);
        let spill_failure: Mutex<Option<String>> = Mutex::new(None);

        let count_span = phe_obs::span::stage("build.count");
        // Built once, outside the scope: every worker walks with it.
        let walk = TrieWalk::new(graph, encoding);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut local: Vec<(u64, u64)> = Vec::new();
                    let mut scratch = FixedBitSet::new(graph.vertex_count());
                    let mut path = Vec::with_capacity(k);
                    loop {
                        // ORDERING: work-stealing ticket — each worker
                        // only needs a unique index into the read-only
                        // task list, which the RMW alone guarantees.
                        let i = next_task.fetch_add(1, Ordering::Relaxed);
                        let Some(&(label, lo, hi)) = tasks.get(i) else {
                            break;
                        };
                        let rel = PathRelation::from_label_source_range(graph, label, lo, hi);
                        if !rel.is_empty() {
                            walk.collect(&rel, label, &mut path, &mut scratch, &mut local);
                        }
                        // Past the budget: compress what we have and
                        // push it out to a shard file, freeing the
                        // buffer. Coalescing first can shrink the
                        // buffer back under budget without IO.
                        let Some(limit) = per_thread_budget else {
                            continue;
                        };
                        if local.len() * ENTRY_BYTES < limit {
                            continue;
                        }
                        coalesce_sorted(&mut local);
                        if local.len() * ENTRY_BYTES < limit {
                            continue;
                        }
                        let shard = CompressedRuns::from_entries(&local);
                        local = Vec::new();
                        let dir = spill_dir.as_ref().expect("budget implies a spill dir");
                        // ORDERING: unique shard file name; no ordering.
                        let n = shard_seq.fetch_add(1, Ordering::Relaxed);
                        let path = dir.join(format!("shard-{n}.phc"));
                        match write_runs_file(&path, &encoding, &shard, Durability::Scratch) {
                            Ok(written) => {
                                // ORDERING: statistics counter read only
                                // after scope join (which synchronizes).
                                spilled_bytes.fetch_add(written, Ordering::Relaxed);
                                shard_paths.lock().expect("shard mutex poisoned").push(path);
                            }
                            Err(e) => {
                                *spill_failure.lock().expect("failure mutex poisoned") =
                                    Some(e.to_string());
                                break;
                            }
                        }
                    }
                    // Shard-local sort + coalesce: the same path appears
                    // once per source-range task it was counted under.
                    // Compressing here bounds the peak memory of the
                    // combine step to the compressed shards.
                    coalesce_sorted(&mut local);
                    let shard = CompressedRuns::from_entries(&local);
                    runs.lock().expect("run mutex poisoned").push(shard);
                });
            }
        });

        drop(count_span);

        let mem_runs = runs.into_inner().expect("run mutex poisoned");
        let shard_paths = shard_paths.into_inner().expect("shard mutex poisoned");
        let failure = spill_failure.into_inner().expect("failure mutex poisoned");
        let merged = (|| -> Result<CompressedRuns, CatalogError> {
            if let Some(message) = failure {
                return Err(CatalogError::SpillIo { message });
            }
            let _merge = phe_obs::span::stage("build.merge");
            if shard_paths.is_empty() {
                return Ok(CompressedRuns::merge_many(&mem_runs));
            }
            let mut streams: Vec<BuildStream<'_>> =
                Vec::with_capacity(mem_runs.len() + shard_paths.len());
            streams.extend(
                mem_runs
                    .iter()
                    .map(|run| BuildStream::Mem(MemStream::new(run))),
            );
            for path in &shard_paths {
                streams.push(BuildStream::Disk(open_shard(path).map_err(spill_err)?));
            }
            Ok(merge_streams(streams))
        })();
        if let Some(dir) = &spill_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let stats = SpillStats {
            shards: shard_paths.len(),
            // ORDERING: thread::scope already joined every writer, so
            // this read is sequenced after all adds.
            bytes: spilled_bytes.load(Ordering::Relaxed),
        };
        Ok((
            SparseCatalog {
                encoding,
                runs: merged?,
            },
            stats,
        ))
    }

    /// Converts a dense catalog by dropping its zero entries. Lossless:
    /// [`SparseCatalog::to_dense`] restores the original exactly.
    pub fn from_dense(catalog: &SelectivityCatalog) -> SparseCatalog {
        let runs = CompressedRuns::from_sorted_iter(
            catalog
                .counts()
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(|(index, &count)| (index as u64, count)),
        );
        SparseCatalog {
            encoding: *catalog.encoding(),
            runs,
        }
    }

    /// Wraps an already-validated compressed run (snapshot restore). The
    /// entries must uphold the module invariants and stay inside the
    /// encoding's domain.
    ///
    /// # Errors
    /// [`CatalogError::CountsLengthMismatch`] when an entry index falls
    /// outside `Σ |L|^i` — the run was encoded for a different domain.
    pub fn from_runs(
        encoding: PathEncoding,
        runs: CompressedRuns,
    ) -> Result<SparseCatalog, CatalogError> {
        let domain = encoding.domain_size() as u64;
        if let Some(meta) = runs.skip_index().last().filter(|m| m.last_index >= domain) {
            return Err(CatalogError::CountsLengthMismatch {
                expected: encoding.domain_size(),
                found: meta.last_index as usize,
            });
        }
        Ok(SparseCatalog { encoding, runs })
    }

    /// Whether [`SparseCatalog::to_dense`] would succeed — a
    /// microseconds-cheap precondition callers can test *before* spending
    /// a full build on a pipeline that will need the dense form.
    ///
    /// # Errors
    /// [`CatalogError::DenseTooLarge`] past
    /// [`crate::catalog::DENSE_DOMAIN_LIMIT`].
    pub fn check_dense_feasible(&self) -> Result<(), CatalogError> {
        check_dense_domain(&self.encoding)
    }

    /// Materializes the dense catalog (zeros included).
    ///
    /// # Errors
    /// [`CatalogError::DenseTooLarge`] when the domain exceeds
    /// [`crate::catalog::DENSE_DOMAIN_LIMIT`] — exactly the configurations
    /// the sparse catalog exists for.
    pub fn to_dense(&self) -> Result<SelectivityCatalog, CatalogError> {
        check_dense_domain(&self.encoding)?;
        let mut counts = vec![0u64; self.encoding.domain_size()];
        for (index, count) in self.runs.iter() {
            counts[index as usize] = count;
        }
        SelectivityCatalog::try_from_counts(self.encoding, counts)
    }

    /// Folds a signed delta run into this catalog, yielding the catalog of
    /// the changed graph: a block-wise merge that copies untouched blocks
    /// wholesale, sums matching indexes, admits new ones, and **cancels**
    /// entries whose count reaches zero (module invariant 4).
    /// Bit-identical to recounting the changed graph from scratch — the
    /// property `tests/sparse_equivalence.rs` exercises end-to-end.
    ///
    /// # Errors
    /// [`CatalogError::DeltaEncodingMismatch`] when the run's encoding
    /// differs from this catalog's, and [`CatalogError::DeltaUnderflow`]
    /// when a merged count would go negative (the run was computed against
    /// a different base graph).
    pub fn merge_delta(
        &self,
        delta: &crate::delta::SparseDeltaRun,
    ) -> Result<SparseCatalog, CatalogError> {
        if *delta.encoding() != self.encoding {
            return Err(CatalogError::DeltaEncodingMismatch {
                catalog: (self.encoding.label_count(), self.encoding.max_len()),
                delta: (delta.encoding().label_count(), delta.encoding().max_len()),
            });
        }
        let runs =
            self.runs
                .merge_signed(delta.entries())
                .map_err(|e| CatalogError::DeltaUnderflow {
                    canonical_index: e.index,
                    count: e.count,
                    delta: e.delta,
                })?;
        Ok(SparseCatalog {
            encoding: self.encoding,
            runs,
        })
    }

    /// The selectivity `f(ℓ)` of `path` (0 when unrealized).
    ///
    /// # Panics
    /// Panics if the path is empty, longer than `k`, or mentions an
    /// unknown label.
    pub fn selectivity(&self, path: &[LabelId]) -> u64 {
        self.selectivity_at(self.encoding.encode(path) as u64)
    }

    /// The selectivity at a canonical index: binary search over the skip
    /// index, then one block decode — `O(log #blocks + B)`.
    pub fn selectivity_at(&self, canonical_index: u64) -> u64 {
        self.runs.get(canonical_index).unwrap_or(0)
    }

    /// The canonical encoding (for permuting into domain orderings).
    #[inline]
    pub fn encoding(&self) -> &PathEncoding {
        &self.encoding
    }

    /// A zero-alloc streaming pass over the non-zero
    /// `(canonical_index, count)` entries, sorted by index — the single
    /// access path (there is no pair vector to borrow).
    #[inline]
    pub fn iter(&self) -> RunsCursor<'_> {
        self.runs.iter()
    }

    /// The underlying block-compressed run (block-granular consumers:
    /// snapshots, mergers, footprint reports).
    #[inline]
    pub fn runs(&self) -> &CompressedRuns {
        &self.runs
    }

    /// Number of realized (non-zero) paths.
    #[inline]
    pub fn nonzero_count(&self) -> usize {
        self.runs.len()
    }

    /// Domain size `Σ |L|^i` — the *logical* length, zeros included.
    #[inline]
    pub fn len(&self) -> usize {
        self.encoding.domain_size()
    }

    /// Whether the domain is empty (never: the encoding guarantees ≥ 1
    /// label), kept for `len`/`is_empty` pairing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of paths with zero selectivity.
    pub fn zero_count(&self) -> usize {
        self.len() - self.nonzero_count()
    }

    /// Sum of all selectivities.
    pub fn total_mass(&self) -> u64 {
        self.runs.total_mass()
    }

    /// Iterates `(path, f(path))` over the realized paths in canonical
    /// order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (Vec<LabelId>, u64)> + '_ {
        self.runs
            .iter()
            .map(move |(index, count)| (self.encoding.decode(index as usize), count))
    }

    /// Resident bytes of this representation: compressed entry stream +
    /// skip index + struct overhead — the honest footprint, not just the
    /// payload.
    pub fn size_bytes(&self) -> usize {
        self.runs.size_bytes() + std::mem::size_of::<PathEncoding>()
    }

    /// Bytes the flat `Vec<(u64, u64)>` pair representation would need —
    /// the baseline the compression ratio is reported against.
    pub fn plain_bytes(&self) -> usize {
        self.runs.plain_bytes()
    }

    /// Bytes the equivalent dense count vector would need, computed in
    /// `u128` so infeasible configurations report instead of wrapping.
    pub fn dense_bytes(&self) -> u128 {
        self.len() as u128 * std::mem::size_of::<u64>() as u128
    }
}

/// The one full-count kernel: a depth-first walk of the label-path trie
/// that computes each prefix relation once and shares it between all of
/// its extensions. Two cuts keep the walk to paths the graph can realize:
///
/// * **Follow-pruned descent.** A node ending in label `a` is extended
///   only by `a`'s successors in the graph's [`FollowMatrix`]: when
///   `!follows(a, b)`, no `a`-edge target has an outgoing `b`-edge, so
///   every relation ending in `a` composes with `b` to the empty set (the
///   argument delta counting and query pruning rest on as well).
/// * **Count-only leaves.** The children at depth `k` are never extended,
///   so only their size is read: [`PathRelation::compose_count`] counts
///   them without building them.
///
/// Read-only once built, so the parallel build shares one across workers.
struct TrieWalk<'g> {
    graph: &'g Graph,
    encoding: PathEncoding,
    /// `successors[a]`: every label `b` with `follows(a, b)`, ascending.
    successors: Vec<Vec<LabelId>>,
}

impl<'g> TrieWalk<'g> {
    fn new(graph: &'g Graph, encoding: PathEncoding) -> TrieWalk<'g> {
        let follows = FollowMatrix::from_graph(graph);
        let successors = graph
            .label_ids()
            .map(|a| {
                graph
                    .label_ids()
                    .filter(|&b| follows.follows(a, b))
                    .collect()
            })
            .collect();
        TrieWalk {
            graph,
            encoding,
            successors,
        }
    }

    /// Pushes one `(canonical_index, pair_count)` entry for `path/label`,
    /// whose relation is the non-empty `rel`, and one for each of its
    /// non-empty extensions up to length `k`. Entries arrive in trie
    /// order, *not* canonical order.
    fn collect(
        &self,
        rel: &PathRelation,
        label: LabelId,
        path: &mut Vec<LabelId>,
        scratch: &mut FixedBitSet,
        entries: &mut Vec<(u64, u64)>,
    ) {
        path.push(label);
        entries.push((self.encoding.encode(path) as u64, rel.pair_count()));
        let successors = &self.successors[label.index()];
        let k = self.encoding.max_len();
        if path.len() + 1 == k {
            for &next in successors {
                let count = rel.compose_count(self.graph, next, scratch);
                if count > 0 {
                    path.push(next);
                    entries.push((self.encoding.encode(path) as u64, count));
                    path.pop();
                }
            }
        } else if path.len() < k {
            for &next in successors {
                let child = rel.compose(self.graph, next, scratch);
                if !child.is_empty() {
                    self.collect(&child, next, path, scratch, entries);
                }
            }
        }
        path.pop();
    }
}

/// Splits every label's source space into ranges sized for ~4 tasks per
/// thread per label, so the parallel build's atomic queue can rebalance
/// skewed subtrees.
fn build_tasks(graph: &Graph, threads: usize) -> Vec<(LabelId, u32, u32)> {
    let n = graph.vertex_count() as u32;
    let chunks = (threads * 4).max(1) as u32;
    let chunk = n.div_ceil(chunks).max(1);
    let mut tasks = Vec::new();
    for label in graph.label_ids() {
        let mut lo = 0u32;
        while lo < n {
            let hi = (lo + chunk).min(n);
            tasks.push((label, lo, hi));
            lo = hi;
        }
    }
    tasks
}

/// Sorts a shard and sums duplicate indexes in place.
fn coalesce_sorted(entries: &mut Vec<(u64, u64)>) {
    entries.sort_unstable_by_key(|&(index, _)| index);
    let mut write = 0usize;
    for read in 0..entries.len() {
        if write > 0 && entries[write - 1].0 == entries[read].0 {
            entries[write - 1].1 += entries[read].1;
        } else {
            entries[write] = entries[read];
            write += 1;
        }
    }
    entries.truncate(write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use phe_graph::GraphBuilder;

    fn dense_graph(n: u32, labels: u16, seed: u64) -> Graph {
        let mut b = GraphBuilder::with_numeric_labels(n, labels);
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        for _ in 0..(n as usize * 6) {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let s = (x >> 33) as u32 % n;
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let t = (x >> 33) as u32 % n;
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let l = ((x >> 33) as u16) % labels;
            b.add_edge(phe_graph::VertexId(s), LabelId(l), phe_graph::VertexId(t));
        }
        b.build()
    }

    #[test]
    fn sequential_matches_naive_oracle() {
        let g = dense_graph(50, 3, 7);
        let oracle = naive::compute_catalog_naive(&g, 4);
        let sparse = SparseCatalog::compute(&g, 4).unwrap();
        assert_eq!(sparse, SparseCatalog::from_dense(&oracle));
        assert_eq!(sparse.to_dense().unwrap().counts(), oracle.counts());
        assert_eq!(sparse.total_mass(), oracle.total_mass());
        assert_eq!(sparse.zero_count(), oracle.zero_count());
    }

    #[test]
    fn compose_count_matches_composed_pair_count() {
        let g = dense_graph(40, 4, 11);
        let mut scratch = FixedBitSet::new(g.vertex_count());
        for first in g.label_ids() {
            let rel = PathRelation::from_label(&g, first);
            for second in g.label_ids() {
                let mid = rel.compose(&g, second, &mut scratch);
                for next in g.label_ids() {
                    let built = mid.compose(&g, next, &mut scratch).pair_count();
                    assert_eq!(mid.compose_count(&g, next, &mut scratch), built);
                    assert!(scratch.is_empty(), "compose_count leaves scratch cleared");
                }
            }
        }
    }

    #[test]
    fn task_partition_covers_all_sources() {
        let g = dense_graph(100, 2, 9);
        let tasks = build_tasks(&g, 3);
        for label in g.label_ids() {
            let mut covered = vec![false; g.vertex_count()];
            for &(l, lo, hi) in &tasks {
                if l == label {
                    for v in lo..hi {
                        assert!(!covered[v as usize], "source {v} covered twice");
                        covered[v as usize] = true;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c), "label {label} missing sources");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = dense_graph(60, 3, 42);
        let seq = SparseCatalog::compute(&g, 4).unwrap();
        for threads in [2, 3, 8] {
            let par = SparseCatalog::compute_parallel(&g, 4, threads).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn spilling_build_matches_in_memory() {
        let g = dense_graph(60, 3, 42);
        let (baseline, none) = SparseCatalog::compute_parallel_spilling(&g, 4, 3, None).unwrap();
        assert_eq!(none, SpillStats::default(), "no budget ⇒ no spill");

        // A budget far under the entry set (the k=4 domain here is 120
        // paths ≈ 2 KB uncompressed) forces repeated spills; the merged
        // catalog must be entry-identical to the in-memory build.
        let (spilled, stats) =
            SparseCatalog::compute_parallel_spilling(&g, 4, 3, Some(768)).unwrap();
        assert!(stats.shards > 0, "a 768 B budget must spill");
        assert!(stats.bytes > 0);
        assert_eq!(spilled, baseline, "spilled build ≡ in-memory build");
        assert_eq!(spilled.total_mass(), baseline.total_mass());
        assert_eq!(spilled.nonzero_count(), baseline.nonzero_count());

        // A generous budget never touches the filesystem.
        let (unspilled, stats) =
            SparseCatalog::compute_parallel_spilling(&g, 4, 3, Some(1 << 30)).unwrap();
        assert_eq!(stats, SpillStats::default());
        assert_eq!(unspilled, baseline);

        // Single-threaded budgeted builds spill too.
        let (single, stats) =
            SparseCatalog::compute_parallel_spilling(&g, 4, 1, Some(768)).unwrap();
        assert!(stats.shards > 0);
        assert_eq!(single, baseline);
    }

    #[test]
    fn selectivity_lookups_match_naive_oracle() {
        let g = dense_graph(40, 4, 9);
        let oracle = naive::compute_catalog_naive(&g, 3);
        let sparse = SparseCatalog::compute(&g, 3).unwrap();
        for index in 0..oracle.len() {
            assert_eq!(
                sparse.selectivity_at(index as u64),
                oracle.selectivity_at(index),
                "index {index}"
            );
        }
        assert_eq!(
            sparse.selectivity(&[LabelId(0), LabelId(1)]),
            oracle.selectivity(&[LabelId(0), LabelId(1)])
        );
    }

    #[test]
    fn iter_is_sorted_and_positive() {
        let g = dense_graph(30, 2, 3);
        let sparse = SparseCatalog::compute(&g, 3).unwrap();
        let entries: Vec<(u64, u64)> = sparse.iter().collect();
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(entries.iter().all(|&(_, c)| c > 0));
        assert_eq!(sparse.iter_nonzero().count(), sparse.nonzero_count());
    }

    #[test]
    fn compressed_footprint_beats_plain_pairs() {
        let g = dense_graph(60, 4, 21);
        let sparse = SparseCatalog::compute(&g, 4).unwrap();
        assert!(sparse.nonzero_count() > 100, "{}", sparse.nonzero_count());
        assert!(
            sparse.size_bytes() < sparse.plain_bytes(),
            "compressed {} must undercut plain {}",
            sparse.size_bytes(),
            sparse.plain_bytes()
        );
        // The skip index and struct overhead are part of the report.
        assert!(
            sparse.size_bytes()
                > sparse.runs().bytes().len() + std::mem::size_of_val(sparse.runs().skip_index())
                    - 1
        );
    }

    #[test]
    fn handles_infeasible_dense_domains() {
        // |L| = 64, k = 6: the dense vector would be ~550 GB; sparse build
        // succeeds and conversion back is refused with a checked error.
        let g = dense_graph(30, 64, 5);
        let sparse = SparseCatalog::compute(&g, 6).unwrap();
        assert!(sparse.nonzero_count() > 0);
        assert!(sparse.dense_bytes() > 1 << 39);
        assert!((sparse.size_bytes() as u128) < sparse.dense_bytes() / 10);
        assert!(matches!(
            sparse.to_dense(),
            Err(CatalogError::DenseTooLarge { .. })
        ));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let c = SparseCatalog::compute_parallel(&g, 3, 4).unwrap();
        assert_eq!(c.len(), 3); // one pseudo-label alphabet
        assert_eq!(c.nonzero_count(), 0);
        assert_eq!(c.total_mass(), 0);
    }

    #[test]
    fn from_runs_validates_the_domain() {
        let encoding = PathEncoding::new(2, 2); // domain = 2 + 4 = 6
        let ok = CompressedRuns::from_entries(&[(0, 3), (5, 1)]);
        let catalog = SparseCatalog::from_runs(encoding, ok).unwrap();
        assert_eq!(catalog.selectivity_at(5), 1);
        let outside = CompressedRuns::from_entries(&[(0, 3), (6, 1)]);
        assert!(matches!(
            SparseCatalog::from_runs(encoding, outside),
            Err(CatalogError::CountsLengthMismatch { .. })
        ));
    }

    #[test]
    fn merge_delta_sums_cancels_and_admits() {
        // A chain leaves most of the domain unrealized, so cancellation,
        // admission, and untouched entries are all exercised.
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "b", 2);
        b.add_edge_named(2, "a", 3);
        let g = b.build();
        let base = SparseCatalog::compute(&g, 3).unwrap();
        let (i0, c0) = base.iter().next().unwrap();
        let (i1, c1) = base.iter().nth(1).unwrap();
        let absent = (0..base.len() as u64)
            .find(|&i| base.selectivity_at(i) == 0)
            .expect("some path is unrealized");
        let delta = crate::delta::tests_support::run_from_entries(
            *base.encoding(),
            vec![(i0, 5), (i1, -(c1 as i64)), (absent, 7)],
        );
        let merged = base.merge_delta(&delta).unwrap();
        assert_eq!(merged.selectivity_at(i0), c0 + 5);
        assert_eq!(merged.selectivity_at(i1), 0, "cancelled entry dropped");
        assert_eq!(merged.selectivity_at(absent), 7, "new entry admitted");
        assert_eq!(
            merged.nonzero_count(),
            base.nonzero_count(), // one dropped, one added
        );
        assert_eq!(
            merged.total_mass() as i64,
            base.total_mass() as i64 + 5 - c1 as i64 + 7
        );

        // Underflow: a run computed against some other graph is refused.
        let bad = crate::delta::tests_support::run_from_entries(
            *base.encoding(),
            vec![(i0, -(c0 as i64) - 1)],
        );
        assert!(matches!(
            base.merge_delta(&bad),
            Err(CatalogError::DeltaUnderflow { .. })
        ));

        // Encoding mismatch is refused.
        let other = crate::delta::tests_support::run_from_entries(
            crate::encoding::PathEncoding::new(2, 2),
            vec![],
        );
        assert!(matches!(
            base.merge_delta(&other),
            Err(CatalogError::DeltaEncodingMismatch { .. })
        ));
    }
}
