//! Sparse selectivity catalogs: only the *realized* label paths.
//!
//! The domain `Σ |L|^i` is overwhelmingly made of paths that never occur
//! in the graph. Real graphs realize only the paths reachable by actual
//! edge chains, a set bounded by the trie of non-empty path relations, so
//! a catalog of sorted `(canonical_index, count)` runs scales with the
//! *graph*, not with the combinatorial domain. That is what lets the
//! build pipeline reach `(|L|, k)` configurations whose dense count
//! vector would not even allocate.
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
//! empty set), and never builds the depth-`k` children: one fused pass
//! over each depth-`k − 1` relation walks its targets' out-edges over
//! every label once and counts each distinct `(label, target)` a source
//! reaches, which sizes all of the node's children together.
//! [`crate::naive`] stays the independent oracle.
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
//!   ([`crate::file`]). The final k-way merge maps the spilled shards
//!   back through [`crate::file::open_catalog_file`], which validates
//!   each one and closes its file, so the heap holds the budget plus the
//!   shards' skip rows (~0.3 B/entry) instead of the whole entry set.
//!   Off 64-bit unix, [`crate::mmap`] falls back to reading each shard
//!   into the heap, and that bound no longer holds;
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
use std::sync::{Mutex, PoisonError};

use phe_graph::{FixedBitSet, FollowMatrix, Graph, LabelId};

use crate::catalog::CatalogError;
use crate::encoding::PathEncoding;
use crate::file::{open_catalog_file, write_runs_file, Durability};
use crate::relation::PathRelation;
use crate::runs::{CompressedRuns, RunsCursor};

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
            let mut scratch = walk.scratch();
            for label in graph.label_ids() {
                let rel = PathRelation::from_label(graph, label);
                if !rel.is_empty() {
                    walk.collect(&rel, label, &mut scratch, &mut entries);
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
    /// in the system temp dir. Before the final k-way merge, every shard
    /// is mapped back and validated by
    /// [`crate::file::open_catalog_file`], and the spill directory is
    /// removed; the mappings outlive the files' names. The heap then holds
    /// only the shards' skip rows, and no file stays open, however many
    /// shards were written. Off 64-bit unix there is no mapping:
    /// [`crate::mmap`] reads each shard into the heap instead, so the
    /// merge holds the compressed shards in memory. Entries are identical
    /// to the unbudgeted build; the returned [`SpillStats`] say how much
    /// hit disk. `None` (or a budget nothing exceeds) never touches the
    /// filesystem.
    ///
    /// # Errors
    /// [`CatalogError::DomainTooLarge`] as for [`SparseCatalog::compute`];
    /// [`CatalogError::SpillIo`] when a shard file cannot be written, or
    /// fails to open, validate or match the build's encoding when read
    /// back (shards are cleaned up either way).
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
        // against its *uncompressed* local buffer (16 B/entry), and spills
        // into a directory of this build's own.
        let spill: Option<(usize, PathBuf)> = match memory_budget {
            Some(budget) => {
                // ORDERING: the sequence only needs uniqueness for the
                // directory name; the RMW provides that without ordering.
                let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
                let dir =
                    std::env::temp_dir().join(format!("phe-spill-{}-{seq}", std::process::id()));
                std::fs::create_dir_all(&dir).map_err(spill_err)?;
                Some(((budget / threads).max(ENTRY_BYTES), dir))
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
                    let mut scratch = walk.scratch();
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
                            walk.collect(&rel, label, &mut scratch, &mut local);
                        }
                        // Past the budget: compress what we have and
                        // push it out to a shard file, freeing the
                        // buffer. Coalescing first can shrink the
                        // buffer back under budget without IO.
                        let Some((limit, dir)) = &spill else {
                            continue;
                        };
                        if local.len() * ENTRY_BYTES < *limit {
                            continue;
                        }
                        coalesce_sorted(&mut local);
                        if local.len() * ENTRY_BYTES < *limit {
                            continue;
                        }
                        let shard = CompressedRuns::from_entries(&local);
                        local = Vec::new();
                        // ORDERING: unique shard file name; no ordering.
                        let n = shard_seq.fetch_add(1, Ordering::Relaxed);
                        let path = dir.join(format!("shard-{n}.phc"));
                        match write_runs_file(&path, &encoding, &shard, Durability::Scratch) {
                            Ok(written) => {
                                // ORDERING: statistics counter read only
                                // after scope join (which synchronizes).
                                spilled_bytes.fetch_add(written, Ordering::Relaxed);
                                shard_paths
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .push(path);
                            }
                            Err(e) => {
                                *spill_failure.lock().unwrap_or_else(PoisonError::into_inner) =
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
                    runs.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(shard);
                });
            }
        });

        drop(count_span);
        let _merge = phe_obs::span::stage("build.merge");

        // `thread::scope` re-raises a worker's panic at the join above, so
        // a poisoned lock cannot be observed here; recovering the guard
        // keeps this path free of panics all the same.
        let mut runs = runs.into_inner().unwrap_or_else(PoisonError::into_inner);
        let shard_paths = shard_paths
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        let failure = spill_failure
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        // Open every shard through the validating catalog reader, which
        // closes each file once it is mapped, and merge the shards with
        // the in-memory runs.
        let mapped = match failure {
            Some(message) => Err(CatalogError::SpillIo { message }),
            None => shard_paths.iter().try_for_each(|path| {
                let shard = open_catalog_file(path)
                    .map_err(|e| spill_err(format!("shard {}: {e}", path.display())))?;
                if shard.encoding != encoding {
                    return Err(spill_err(format!(
                        "shard {} has a different encoding",
                        path.display()
                    )));
                }
                runs.push(shard.runs);
                Ok(())
            }),
        };
        // A mapping outlives its file's name, so the shards go now.
        if let Some((_, dir)) = &spill {
            let _ = std::fs::remove_dir_all(dir);
        }
        mapped?;
        let merged = CompressedRuns::merge_many(&runs);
        let stats = SpillStats {
            shards: shard_paths.len(),
            // ORDERING: thread::scope already joined every writer, so
            // this read is sequenced after all adds.
            bytes: spilled_bytes.load(Ordering::Relaxed),
        };
        Ok((
            SparseCatalog {
                encoding,
                runs: merged,
            },
            stats,
        ))
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
/// * **One fused pass for the leaves.** The children at depth `k` are
///   never extended, so only their sizes are read, and all of them at
///   once: each source of the depth-`k − 1` relation walks its targets'
///   out-edges over every label a single time, counting each distinct
///   `(label, target)` it reaches once (see [`TrieWalk::count_leaves`]).
///
/// Read-only once built, so the parallel build shares one across workers;
/// each worker brings its own [`WalkScratch`].
struct TrieWalk<'g> {
    graph: &'g Graph,
    encoding: PathEncoding,
    /// `successors[a]`: every label `b` with `follows(a, b)`, ascending.
    successors: Vec<Vec<LabelId>>,
    /// The combined out-adjacency over every label: vertex `t`'s
    /// out-edges are `out_edges[out_offsets[t]..out_offsets[t + 1]]`.
    out_offsets: Vec<u32>,
    /// `(label, slot)` per out-edge, where `slot` numbers the distinct
    /// `(label, target)` pairs densely — at most `|E|` of them.
    out_edges: Vec<(LabelId, u32)>,
    /// Number of distinct slots.
    slots: usize,
}

/// One worker's mutable state for a [`TrieWalk`], `O(|V| + |E|)` in size.
struct WalkScratch {
    /// The label path of the node being visited.
    path: Vec<LabelId>,
    /// De-duplicates targets per source in [`PathRelation::compose`].
    bits: FixedBitSet,
    /// `stamps[slot] == epoch` once the current source has reached
    /// `slot`; bumping `epoch` per source forgets every slot at once.
    stamps: Vec<u32>,
    epoch: u32,
    /// Per-label leaf counts of the relation being counted; all zero
    /// between relations.
    counts: Vec<u64>,
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

        let n = graph.vertex_count();
        let mut out_offsets = vec![0u32; n + 1];
        for label in graph.label_ids() {
            let csr = graph.forward_csr(label);
            for t in csr.non_empty_rows() {
                out_offsets[t as usize + 1] += csr.degree(t) as u32;
            }
        }
        for v in 0..n {
            out_offsets[v + 1] += out_offsets[v];
        }
        // One slot per `(label, target)`: per label, per vertex with an
        // incoming edge of that label, filed under each of its sources.
        let mut fill: Vec<u32> = out_offsets[..n].to_vec();
        let mut out_edges = vec![(LabelId(0), 0u32); out_offsets[n] as usize];
        let mut slots = 0u32;
        for label in graph.label_ids() {
            let reverse = graph.reverse_csr(label);
            for target in reverse.non_empty_rows() {
                for &t in reverse.neighbors(target) {
                    out_edges[fill[t as usize] as usize] = (label, slots);
                    fill[t as usize] += 1;
                }
                slots += 1;
            }
        }
        TrieWalk {
            graph,
            encoding,
            successors,
            out_offsets,
            out_edges,
            slots: slots as usize,
        }
    }

    /// Fresh per-worker state.
    fn scratch(&self) -> WalkScratch {
        WalkScratch {
            path: Vec::with_capacity(self.encoding.max_len()),
            bits: FixedBitSet::new(self.graph.vertex_count()),
            stamps: vec![0; self.slots],
            epoch: 0,
            counts: vec![0; self.graph.label_count()],
        }
    }

    /// Per-worker state whose stamp starts at `epoch`, so a test can
    /// drive the stamp through its wraparound.
    #[cfg(test)]
    fn scratch_at_epoch(&self, epoch: u32) -> WalkScratch {
        WalkScratch {
            epoch,
            ..self.scratch()
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
        scratch: &mut WalkScratch,
        entries: &mut Vec<(u64, u64)>,
    ) {
        scratch.path.push(label);
        entries.push((self.encoding.encode(&scratch.path) as u64, rel.pair_count()));
        let k = self.encoding.max_len();
        if scratch.path.len() + 1 == k {
            self.count_leaves(rel, label, scratch, entries);
        } else if scratch.path.len() < k {
            for &next in &self.successors[label.index()] {
                let child = rel.compose(self.graph, next, &mut scratch.bits);
                if !child.is_empty() {
                    self.collect(&child, next, scratch, entries);
                }
            }
        }
        scratch.path.pop();
    }

    /// Pushes an entry for every non-empty `path/next` with `next` a
    /// successor of `last`, where `rel` is the relation of `path` (ending
    /// in `last`). `|path/next|` is the number of distinct
    /// `(source, (next, target))` pairs the out-edges of `rel`'s targets
    /// reach, so one pass over them counts every `next` at once: a slot
    /// counts for its label the first time the current source reaches it.
    /// Every label reached follows `last` by the definition of
    /// [`FollowMatrix`], so the counts all land in `successors[last]`.
    fn count_leaves(
        &self,
        rel: &PathRelation,
        last: LabelId,
        scratch: &mut WalkScratch,
        entries: &mut Vec<(u64, u64)>,
    ) {
        for i in 0..rel.source_count() {
            scratch.epoch = scratch.epoch.wrapping_add(1);
            if scratch.epoch == 0 {
                scratch.stamps.fill(0);
                scratch.epoch = 1;
            }
            let epoch = scratch.epoch;
            for &t in rel.targets_of_nth(i) {
                let lo = self.out_offsets[t as usize] as usize;
                let hi = self.out_offsets[t as usize + 1] as usize;
                for &(label, slot) in &self.out_edges[lo..hi] {
                    // Branch-free: freshness depends on the data, so a
                    // branch on it mispredicts often.
                    let stamp = &mut scratch.stamps[slot as usize];
                    let fresh = *stamp != epoch;
                    *stamp = epoch;
                    scratch.counts[label.index()] += u64::from(fresh);
                }
            }
        }
        for &next in &self.successors[last.index()] {
            let count = std::mem::take(&mut scratch.counts[next.index()]);
            if count > 0 {
                scratch.path.push(next);
                entries.push((self.encoding.encode(&scratch.path) as u64, count));
                scratch.path.pop();
            }
        }
        debug_assert!(
            scratch.counts.iter().all(|&c| c == 0),
            "a leaf label outside successors[{last}]"
        );
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
        assert_eq!(sparse, oracle);
        assert_eq!(sparse.total_mass(), oracle.total_mass());
        assert_eq!(sparse.zero_count(), oracle.zero_count());
    }

    /// Every builder of the fused leaf pass — sequential and 2..5
    /// workers — equals the naive oracle at every `k` in `ks`.
    fn assert_builds_match_naive(g: &Graph, ks: std::ops::RangeInclusive<usize>) {
        for k in ks {
            let oracle = naive::compute_catalog_naive(g, k);
            assert_eq!(SparseCatalog::compute(g, k).unwrap(), oracle, "k = {k}");
            for threads in 2..5 {
                let par = SparseCatalog::compute_parallel(g, k, threads).unwrap();
                assert_eq!(par, oracle, "k = {k}, threads = {threads}");
            }
        }
    }

    #[test]
    fn leaf_pass_counts_a_shared_target_once_per_label() {
        // 0 reaches 3 as 0/a/1/b/3 and as 0/a/2/c/3: the slots (b, 3) and
        // (c, 3) differ, so a/b and a/c each hold the pair (0, 3).
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 3);
        b.add_edge_named(2, "c", 3);
        let g = b.build();
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        assert_eq!(catalog.selectivity(&[LabelId(0), LabelId(1)]), 1);
        assert_eq!(catalog.selectivity(&[LabelId(0), LabelId(2)]), 1);
        assert_builds_match_naive(&g, 1..=3);
    }

    #[test]
    fn leaf_pass_counts_a_slot_reached_through_two_targets_once() {
        // 0 reaches (b, 3) through both of its a-targets 1 and 2: one pair.
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 3);
        b.add_edge_named(2, "b", 3);
        b.add_edge_named(1, "b", 4);
        let g = b.build();
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        assert_eq!(catalog.selectivity(&[LabelId(0), LabelId(1)]), 2);
        assert_builds_match_naive(&g, 1..=3);
    }

    #[test]
    fn leaf_pass_under_the_roots() {
        // k = 1 has no leaf pass; at k = 2 it runs on the roots directly.
        assert_builds_match_naive(&dense_graph(30, 3, 17), 1..=2);
    }

    #[test]
    fn leaf_pass_survives_stamp_wraparound() {
        let g = dense_graph(50, 3, 7);
        for k in 2..=3 {
            let walk = TrieWalk::new(&g, PathEncoding::new(g.label_count(), k));
            // The second source wraps the stamp: slots stamped just before
            // must not read as reached by the sources after.
            let mut scratch = walk.scratch_at_epoch(u32::MAX - 1);
            let mut entries = Vec::new();
            for label in g.label_ids() {
                let rel = PathRelation::from_label(&g, label);
                if !rel.is_empty() {
                    walk.collect(&rel, label, &mut scratch, &mut entries);
                }
            }
            assert!(scratch.epoch < u32::MAX - 1, "the stamp wrapped");
            coalesce_sorted(&mut entries);
            let oracle = naive::compute_catalog_naive(&g, k);
            assert_eq!(entries, oracle.iter().collect::<Vec<_>>(), "k = {k}");
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
        for index in 0..oracle.len() as u64 {
            assert_eq!(
                sparse.selectivity_at(index),
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
        // |L| = 64, k = 6: a dense vector would be ~550 GB; the sparse
        // build holds only the realized paths.
        let g = dense_graph(30, 64, 5);
        let sparse = SparseCatalog::compute(&g, 6).unwrap();
        assert!(sparse.nonzero_count() > 0);
        assert!(sparse.dense_bytes() > 1 << 39);
        assert!((sparse.size_bytes() as u128) < sparse.dense_bytes() / 10);
    }

    /// Two-label chain: 0 -a-> 1 -b-> 2 -a-> 3.
    fn chain() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "b", 2);
        b.add_edge_named(2, "a", 3);
        b.build()
    }

    #[test]
    fn chain_catalog_k3() {
        let l = LabelId;
        let c = SparseCatalog::compute(&chain(), 3).unwrap();
        assert_eq!(c.len(), 2 + 4 + 8);
        assert_eq!(c.selectivity(&[l(0)]), 2); // a
        assert_eq!(c.selectivity(&[l(1)]), 1); // b
        assert_eq!(c.selectivity(&[l(0), l(1)]), 1); // a/b
        assert_eq!(c.selectivity(&[l(1), l(0)]), 1); // b/a
        assert_eq!(c.selectivity(&[l(0), l(0)]), 0); // a/a
        assert_eq!(c.selectivity(&[l(0), l(1), l(0)]), 1); // a/b/a
        assert_eq!(c.selectivity(&[l(1), l(1)]), 0);
        assert_eq!(c.nonzero_count(), 5);
    }

    #[test]
    fn diamond_and_cycle_selectivities() {
        // 0 -a-> {1,2} -b-> 3: a/b must count (0,3) once.
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 3);
        b.add_edge_named(2, "b", 3);
        let c = SparseCatalog::compute(&b.build(), 2).unwrap();
        assert_eq!(c.selectivity(&[LabelId(0), LabelId(1)]), 1);
        // 0 -a-> 1 -a-> 0 : a/a = {(0,0),(1,1)}, a/a/a = {(0,1),(1,0)}.
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "a", 0);
        let c = SparseCatalog::compute(&b.build(), 3).unwrap();
        for path in [&[LabelId(0)][..], &[LabelId(0); 2], &[LabelId(0); 3]] {
            assert_eq!(c.selectivity(path), 2, "{path:?}");
        }
    }

    #[test]
    fn length_one_catalog_equals_label_frequencies() {
        let g = chain();
        let c = SparseCatalog::compute(&g, 1).unwrap();
        for label in g.label_ids() {
            assert_eq!(c.selectivity(&[label]), g.label_frequency(label));
        }
    }

    #[test]
    fn domains_past_the_index_space_are_checked_errors() {
        // |L| = 1000, k = 8 ⇒ 10^24 paths: overflows the index space.
        let mut b = GraphBuilder::with_numeric_labels(2, 1000);
        b.add_edge_named(0, "l0", 1);
        match SparseCatalog::compute(&b.build(), 8) {
            Err(CatalogError::DomainTooLarge { size, .. }) => assert!(size > 1 << 48, "{size}"),
            other => panic!("expected DomainTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let c = SparseCatalog::compute_parallel(&g, 3, 4).unwrap();
        assert_eq!(c.len(), 3); // one pseudo-label alphabet
        assert_eq!(c.nonzero_count(), 0);
        assert_eq!(c.total_mass(), 0);
        assert_eq!(c.zero_count(), 3);
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
