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
//! skip index and decodes one block, and a delta merge operates at block
//! granularity (untouched blocks copy wholesale, without a re-encode).
//!
//! ## Counting: one kernel, two relation representations
//!
//! Every full count — one thread or many, spilling or not — runs the same
//! trie walk (`TrieWalk`): a depth-first traversal of the label-path trie
//! that computes each prefix relation once and shares it between its
//! extensions. It descends only along labels that can follow the last one
//! (per the graph's [`FollowMatrix`]: when no `a`-edge ends where a
//! `b`-edge starts, every relation ending in `a` composes with `b` to the
//! empty set), and never builds the depth-`k` children: one fused pass
//! over each depth-`k − 1` relation walks its targets' out-edges over
//! every label once and counts each distinct `(label, target)` a source
//! reaches, which sizes all of the node's children together.
//!
//! The walk holds a relation in one of two forms. Source-major (a
//! [`PathRelation`]) expands every `(source, target)` pair over the
//! target's out-edges. Target-major (`MaskRelation`) stores each distinct
//! target once with a bitmask of the sources reaching it, `W =
//! ⌈sources / 64⌉` words, and expands each target once with `W` word ORs
//! per out-edge; a pair count is a popcount. Where relations fan in —
//! many sources, few targets — the second form does the same work in far
//! fewer operations (the multi-source traversal idea of Then et al.,
//! "The More the Merrier", PVLDB 8(4), 2014). A source-major node
//! switches to the target-major form when
//! `pair_count ≥ W × distinct_targets`: the two forms' inner loops run
//! `pair_count` and `W × distinct_targets` times per out-edge. A node
//! followed only by the leaf pass needs twice that, because the
//! target-major leaf pass also popcounts the slot rows it fills. Below a
//! switched node, each child and each leaf pass is tested again, on the
//! edges it will expand: it stays target-major unless the `W` word ORs
//! per edge outnumber the source-major form's one step per
//! `(source, edge)` plus the transposition back to that form, and
//! otherwise returns to the source-major walk, which tests its own
//! children as before. So a mask row is only allocated where its words
//! are paid for by the operations they save, and a target-major subtree
//! never holds more mask words than the source-major walk would spend
//! steps. The tests compare operation counts on the input rather than
//! reading a tuned threshold, and a graph without fan-in stays
//! source-major. The distinct targets are counted while a composition
//! drains its per-source bitset, one word OR per drained word and one
//! popcount per distinct word, or, for a root, as its pairs are copied
//! (a whole label's come with the walk's slot table), so the test adds no
//! pass over the pairs. [`crate::naive`] stays the independent oracle.
//!
//! The builders around the kernel:
//!
//! * [`SparseCatalog::compute`] — one walk per first label, emitting one
//!   entry per non-empty relation;
//! * [`SparseCatalog::compute_parallel`] — sharded per-thread counting
//!   over `(label, source-range)` tasks, all workers sharing one walk;
//!   each worker sorts, coalesces, and **compresses** its local entries
//!   into a run, and the runs are combined by
//!   [`CompressedRuns::merge_many`], a k-way heap merge that sums counts
//!   of equal indexes and re-encodes every entry;
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
//! 5. **Built catalogs are canonical; maintained ones need not be.**
//!    Every build — [`SparseCatalog::compute`], and the k-way merge of a
//!    parallel or spilled build, which re-encodes every entry — lays out
//!    its blocks as [`CompressedRuns::from_entries`] does, so equal
//!    entries give equal bytes whatever the thread count or schedule. A
//!    delta merge keeps the wholesale copies of untouched blocks, so a
//!    maintained catalog's block boundaries can differ from a rebuild's.
//!    Equality ([`PartialEq`]) and every consumer observe the *decoded
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
                        // The task's distinct targets are counted as its
                        // pairs are copied.
                        let image = &mut scratch.image;
                        let rel =
                            PathRelation::from_label_source_range_with(graph, label, lo, hi, |t| {
                                image.insert(t)
                            });
                        let targets = image.take_count();
                        if !rel.is_empty() {
                            walk.visit(&rel, targets, label, &mut scratch, &mut local);
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

    /// Wraps an already-validated compressed run (catalog files). The
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
    /// `.phc` writers, mergers, footprint reports).
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
///   once: one pass over the out-edges of the depth-`k − 1` relation's
///   targets counts each distinct `(source, (label, target))` it reaches
///   once (see [`TrieWalk::count_leaves`]).
///
/// One walk, two relation representations. A relation starts
/// source-major ([`PathRelation`]: each source's sorted targets), and
/// every step of the walk — composing a child, the leaf pass — expands
/// each of its `(source, target)` pairs over the target's out-edges. Where
/// many sources reach few targets, that repeats each target's out-edges
/// once per source. The target-major form ([`MaskRelation`]) holds each
/// distinct target once, with the set of sources reaching it as a bitmask
/// of `W = ⌈sources / 64⌉` words, and expands each target once with `W`
/// word ORs per out-edge. So a node whose relation has
/// `pair_count ≥ W × distinct_targets` does no more inner-loop work in
/// the target-major form, and switches to it ([`TrieWalk::descend_masks`]);
/// every other node stays source-major. A depth-`k − 1` node is the
/// exception: only the leaf pass follows it, and that pass also popcounts
/// each slot row an OR opens — up to `W` more word operations per
/// out-edge, where the source-major pass spends one branch-free stamp per
/// pair — so it switches only when
/// `pair_count ≥ 2 × W × distinct_targets`. The test compares the two
/// kernels' operation counts on the input; it is not a tuned threshold.
/// Above depth `k − 1` it always holds for a relation of at most 64
/// sources (`W = 1`, and every target has a pair), and it fails where
/// sources far outnumber 64 and rarely share a target, as in a sparse
/// random graph. Below a switched node, a child is the OR
/// of each target's mask into its out-neighbours' rows, a pair count is a
/// popcount, and the leaf pass ORs masks into `(label, target)` slot rows
/// and popcounts them per label. Each such expansion is tested first on
/// the edges it will cross: with `d(t)` the edges leaving target `t` and
/// `p(t)` its sources, it runs target-major only while
/// `W × Σ d(t) ≤ Σ p(t) × d(t)` plus the cost of the way back (one step
/// per pair of a row with an edge, and one per source bit, for the
/// counting-sort transposition [`MaskRelation::to_pairs`]). Otherwise the
/// rows with an edge are transposed to a source-major relation and the
/// expansion continues in the source-major walk, whose nodes test
/// themselves again. Rows are allocated in touched order through a
/// vertex → row map that is reset through the rows' target list, so a
/// relation's masks take `W` words per distinct target — at the switched
/// node at most the pairs they replace, below it at most the steps the
/// source-major expansion would take — and nothing is sized `|V| × W`.
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
    /// `label_targets[a]`: the number of distinct targets of `a`-edges.
    label_targets: Vec<usize>,
}

/// Marks a vertex without a row in the [`MaskRelation`] being built.
const NO_ROW: u32 = u32::MAX;

/// One worker's mutable state for a [`TrieWalk`], `O(|V| + |E|)` in size.
struct WalkScratch {
    /// The label path of the node being visited.
    path: Vec<LabelId>,
    /// De-duplicates targets per source in [`PathRelation::compose`].
    bits: FixedBitSet,
    /// The distinct targets of the relation being built; empty between
    /// relations.
    image: TargetImage,
    /// `stamps[slot] == epoch` once the current source (source-major
    /// leaf pass) or relation (target-major leaf pass) has reached
    /// `slot`; bumping `epoch` forgets every slot at once.
    stamps: Vec<u32>,
    epoch: u32,
    /// Per-label leaf counts of the relation being counted; all zero
    /// between relations.
    counts: Vec<u64>,
    /// Vertex → row of the [`MaskRelation`] being built; [`NO_ROW`]
    /// between relations.
    rows: Vec<u32>,
    /// Slot → row of `slot_masks`, valid where the slot's stamp is
    /// current.
    slot_rows: Vec<u32>,
    /// The label of each slot row of the target-major leaf pass.
    slot_labels: Vec<LabelId>,
    /// The source masks of the slot rows, `W` words each.
    slot_masks: Vec<u64>,
    /// The paths of the nodes that switched to the target-major form.
    #[cfg(test)]
    switched: Vec<Vec<LabelId>>,
    /// The most mask words one relation or leaf pass held.
    #[cfg(test)]
    peak_mask_words: usize,
}

impl WalkScratch {
    /// Advances the stamp, so every slot reads as unreached.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }
}

/// A set of vertices built word by word from the per-source sets a
/// composition drains, for the fan-in test's `distinct_targets`. Unlike
/// a [`FixedBitSet`] it keeps no running length, so adding a word is an
/// OR and no popcount: the targets are counted once, over the distinct
/// words, when the relation is complete.
struct TargetImage {
    words: Vec<u64>,
    /// `touched[..touched_len]` holds each non-zero word's index once;
    /// one slot longer than `words`, as in [`FixedBitSet`].
    touched: Vec<u32>,
    touched_len: usize,
}

impl TargetImage {
    fn new(vertices: usize) -> TargetImage {
        let words = vertices.div_ceil(64);
        TargetImage {
            words: vec![0; words],
            touched: vec![0; words + 1],
            touched_len: 0,
        }
    }

    /// Adds the vertices `64 * index + b` for each bit `b` of `word`.
    #[inline]
    fn add_word(&mut self, index: u32, word: u64) {
        let slot = &mut self.words[index as usize];
        let old = *slot;
        *slot = old | word;
        // Branch-free, as in `FixedBitSet::insert`: always written, kept
        // only for a word that was zero.
        self.touched[self.touched_len] = index;
        self.touched_len += usize::from(old == 0);
    }

    /// Adds vertex `v`.
    #[inline]
    fn insert(&mut self, v: u32) {
        self.add_word(v / 64, 1 << (v % 64));
    }

    /// The number of distinct vertices added since the last call; empties
    /// the set.
    fn take_count(&mut self) -> usize {
        let mut count = 0;
        for &index in &self.touched[..self.touched_len] {
            count += std::mem::take(&mut self.words[index as usize]).count_ones() as usize;
        }
        self.touched_len = 0;
        count
    }
}

/// The target-major form of a relation below a switched trie node: one
/// row per distinct target, in the order the targets were first reached,
/// each holding the sources that reach it as a `words`-word bitmask (bit
/// `i` is the switched node's `i`-th source). Every mask is non-zero.
struct MaskRelation {
    words: usize,
    targets: Vec<u32>,
    /// `masks[row * words..][..words]` is row `row`'s source set.
    masks: Vec<u64>,
    /// `row_pairs[row]`: the number of sources in row `row`'s mask.
    row_pairs: Vec<u32>,
}

impl MaskRelation {
    fn new(words: usize) -> MaskRelation {
        MaskRelation {
            words,
            targets: Vec::new(),
            masks: Vec::new(),
            row_pairs: Vec::new(),
        }
    }

    /// Converts a source-major relation, numbering its sources in order.
    fn from_pairs(rel: &PathRelation, words: usize, rows: &mut [u32]) -> MaskRelation {
        let mut out = MaskRelation::new(words);
        for i in 0..rel.source_count() {
            let bit = 1u64 << (i % 64);
            for &t in rel.targets_of_nth(i) {
                let row = out.row(t, rows);
                out.masks[row * words + i / 64] |= bit;
            }
        }
        out.finish(rows);
        out
    }

    /// Composes with the edge relation of `label`: each target's mask is
    /// ORed into the row of each of its `label`-neighbours.
    fn compose(&self, graph: &Graph, label: LabelId, rows: &mut [u32]) -> MaskRelation {
        let csr = graph.forward_csr(label);
        let words = self.words;
        let mut out = MaskRelation::new(words);
        for (&t, mask) in self.targets.iter().zip(self.masks.chunks_exact(words)) {
            for &w in csr.neighbors(t) {
                let row = out.row(w, rows);
                or_into(&mut out.masks[row * words..][..words], mask);
            }
        }
        out.finish(rows);
        out
    }

    /// The row of `target`, appended zeroed if it has none yet.
    #[inline]
    fn row(&mut self, target: u32, rows: &mut [u32]) -> usize {
        let row = &mut rows[target as usize];
        if *row == NO_ROW {
            *row = self.targets.len() as u32;
            self.targets.push(target);
            self.masks.resize(self.masks.len() + self.words, 0);
        }
        *row as usize
    }

    /// Resets the rows this relation claimed in the vertex → row map and
    /// counts each row's sources.
    fn finish(&mut self, rows: &mut [u32]) {
        for &t in &self.targets {
            rows[t as usize] = NO_ROW;
        }
        self.row_pairs = self
            .masks
            .chunks_exact(self.words)
            .map(|mask| popcount(mask) as u32)
            .collect();
    }

    /// Number of `(source, target)` pairs.
    fn pair_count(&self) -> u64 {
        self.row_pairs.iter().map(|&p| u64::from(p)).sum()
    }

    /// The operation counts of expanding every row over the
    /// `degree(target)` edges leaving its target, `(target-major,
    /// source-major)`. This form ORs `W` words per edge. The source-major
    /// form visits each edge once per source of the row, after
    /// [`MaskRelation::to_pairs`] has moved the pairs of the rows with an
    /// edge into it, one step per pair and per source bit.
    fn expansion_ops(&self, degree: impl Fn(u32) -> usize) -> (u64, u64) {
        let (mut edges, mut pair_edges, mut kept_pairs) = (0u64, 0u64, 0u64);
        for (&t, &pairs) in self.targets.iter().zip(&self.row_pairs) {
            let d = degree(t) as u64;
            edges += d;
            pair_edges += u64::from(pairs) * d;
            kept_pairs += u64::from(pairs) * u64::from(d > 0);
        }
        let words = self.words as u64;
        (words * edges, pair_edges + kept_pairs + 64 * words)
    }

    /// The source-major form of the rows whose target `keep` accepts, each
    /// source named by its bit: a counting-sort transposition, linear in
    /// the pairs it keeps and the mask width.
    fn to_pairs(&self, keep: impl Fn(u32) -> bool) -> PathRelation {
        let words = self.words;
        let mut kept: Vec<u32> = (0..self.targets.len() as u32)
            .filter(|&row| keep(self.targets[row as usize]))
            .collect();
        // Kept in target order, each source's targets come out ascending.
        kept.sort_unstable_by_key(|&row| self.targets[row as usize]);
        let mask = |row: u32| &self.masks[row as usize * words..][..words];
        // `ends[i + 1]` counts bit `i`'s targets, then (prefix-summed)
        // marks where they start, then (once filled) where they end.
        let mut ends = vec![0u32; words * 64 + 1];
        for &row in &kept {
            for_each_bit(mask(row), |i| ends[i + 1] += 1);
        }
        for i in 0..words * 64 {
            ends[i + 1] += ends[i];
        }
        let mut targets = vec![0u32; ends[words * 64] as usize];
        for &row in &kept {
            let t = self.targets[row as usize];
            for_each_bit(mask(row), |i| {
                targets[ends[i] as usize] = t;
                ends[i] += 1;
            });
        }
        let (mut sources, mut offsets) = (Vec::new(), vec![0u32]);
        let mut start = 0;
        for (i, &end) in ends[..words * 64].iter().enumerate() {
            if end > start {
                sources.push(i as u32);
                offsets.push(end);
            }
            start = end;
        }
        PathRelation::from_parts(sources, offsets, targets)
    }

    fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }
}

#[inline]
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Calls `f(i)` for each set bit `i` of `mask`, ascending.
#[inline]
fn for_each_bit(mask: &[u64], mut f: impl FnMut(usize)) {
    for (index, &word) in mask.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(index * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

#[inline]
fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
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
        let mut label_targets = Vec::with_capacity(graph.label_count());
        for label in graph.label_ids() {
            let first = slots;
            let reverse = graph.reverse_csr(label);
            for target in reverse.non_empty_rows() {
                for &t in reverse.neighbors(target) {
                    out_edges[fill[t as usize] as usize] = (label, slots);
                    fill[t as usize] += 1;
                }
                slots += 1;
            }
            label_targets.push((slots - first) as usize);
        }
        TrieWalk {
            graph,
            encoding,
            successors,
            out_offsets,
            out_edges,
            slots: slots as usize,
            label_targets,
        }
    }

    /// Fresh per-worker state.
    fn scratch(&self) -> WalkScratch {
        let n = self.graph.vertex_count();
        WalkScratch {
            path: Vec::with_capacity(self.encoding.max_len()),
            bits: FixedBitSet::new(n),
            image: TargetImage::new(n),
            stamps: vec![0; self.slots],
            epoch: 0,
            counts: vec![0; self.graph.label_count()],
            rows: vec![NO_ROW; n],
            slot_rows: vec![0; self.slots],
            slot_labels: Vec::new(),
            slot_masks: Vec::new(),
            #[cfg(test)]
            switched: Vec::new(),
            #[cfg(test)]
            peak_mask_words: 0,
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

    /// The `(label, slot)` out-edges of vertex `t`.
    #[inline]
    fn out_edges(&self, t: u32) -> &[(LabelId, u32)] {
        let lo = self.out_offsets[t as usize] as usize;
        let hi = self.out_offsets[t as usize + 1] as usize;
        &self.out_edges[lo..hi]
    }

    /// [`TrieWalk::visit`] for `rel`, the non-empty relation of every
    /// `label`-edge, whose distinct targets the walk counted when it built
    /// its slots.
    fn collect(
        &self,
        rel: &PathRelation,
        label: LabelId,
        scratch: &mut WalkScratch,
        entries: &mut Vec<(u64, u64)>,
    ) {
        debug_assert_eq!(
            rel.pair_count(),
            self.graph.forward_csr(label).edge_count() as u64,
            "not the whole label"
        );
        self.visit(
            rel,
            self.label_targets[label.index()],
            label,
            scratch,
            entries,
        );
    }

    /// Pushes one `(canonical_index, pair_count)` entry for `path/label`,
    /// whose relation is the non-empty `rel` with `targets` distinct
    /// targets, and one for each of its non-empty extensions up to length
    /// `k`. Entries arrive in trie order, *not* canonical order. Switches
    /// the node to the target-major form when that form's inner loop does
    /// no more work, and otherwise composes its children source-major.
    fn visit(
        &self,
        rel: &PathRelation,
        targets: usize,
        label: LabelId,
        scratch: &mut WalkScratch,
        entries: &mut Vec<(u64, u64)>,
    ) {
        scratch.path.push(label);
        entries.push((self.encoding.encode(&scratch.path) as u64, rel.pair_count()));
        let k = self.encoding.max_len();
        let words = rel.source_count().div_ceil(64);
        let leaves_only = scratch.path.len() + 1 == k;
        // Per out-edge, the target-major form ORs `words` per target and,
        // in a leaf pass, may popcount as many words of the slot row the
        // OR opened: twice the work where no level below reuses the masks.
        let mask_ops = (1 + usize::from(leaves_only)) * words * targets;
        if scratch.path.len() >= k {
            // A depth-`k` root: nothing below it.
        } else if rel.pair_count() >= mask_ops as u64 {
            #[cfg(test)]
            scratch.switched.push(scratch.path.clone());
            let masks = MaskRelation::from_pairs(rel, words, &mut scratch.rows);
            self.descend_masks(&masks, label, scratch, entries);
        } else if leaves_only {
            self.count_leaves(rel, label, scratch, entries);
        } else {
            for &next in &self.successors[label.index()] {
                self.visit_child(rel, next, scratch, entries);
            }
        }
        scratch.path.pop();
    }

    /// Composes the source-major `rel` with `next` and visits the child,
    /// counting its distinct targets as the composition drains them.
    fn visit_child(
        &self,
        rel: &PathRelation,
        next: LabelId,
        scratch: &mut WalkScratch,
        entries: &mut Vec<(u64, u64)>,
    ) {
        let image = &mut scratch.image;
        let child = rel.compose_with(self.graph, next, &mut scratch.bits, |index, word| {
            image.add_word(index, word)
        });
        let targets = image.take_count();
        if !child.is_empty() {
            self.visit(&child, targets, next, scratch, entries);
        }
    }

    /// Pushes an entry for every non-empty extension of `path` (ending in
    /// `last`, shorter than `k`), whose relation is `rel` in the
    /// target-major form. Each child, and the leaf pass, is expanded in
    /// the form whose inner loop does less work over the edges that leave
    /// `rel`'s targets; a child built source-major is visited (and
    /// tested) afresh.
    fn descend_masks(
        &self,
        rel: &MaskRelation,
        last: LabelId,
        scratch: &mut WalkScratch,
        entries: &mut Vec<(u64, u64)>,
    ) {
        #[cfg(test)]
        {
            scratch.peak_mask_words = scratch.peak_mask_words.max(rel.masks.len());
        }
        if scratch.path.len() + 1 == self.encoding.max_len() {
            // Unlike `visit`'s leaf-level switch, the masks are charged
            // their ORs only: they already exist, and the popcounts the
            // pass adds touch only the slot rows the ORs open.
            let (mask_ops, pair_ops) = rel.expansion_ops(|t| self.out_edges(t).len());
            if mask_ops <= pair_ops {
                self.count_leaves_masks(rel, last, scratch, entries);
            } else {
                let rel = rel.to_pairs(|t| !self.out_edges(t).is_empty());
                self.count_leaves(&rel, last, scratch, entries);
            }
            return;
        }
        for &next in &self.successors[last.index()] {
            let csr = self.graph.forward_csr(next);
            let (mask_ops, pair_ops) = rel.expansion_ops(|t| csr.degree(t));
            if mask_ops > pair_ops {
                let rel = rel.to_pairs(|t| csr.degree(t) > 0);
                self.visit_child(&rel, next, scratch, entries);
                continue;
            }
            let child = rel.compose(self.graph, next, &mut scratch.rows);
            if !child.is_empty() {
                scratch.path.push(next);
                entries.push((
                    self.encoding.encode(&scratch.path) as u64,
                    child.pair_count(),
                ));
                self.descend_masks(&child, next, scratch, entries);
                scratch.path.pop();
            }
        }
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
            let epoch = scratch.next_epoch();
            for &t in rel.targets_of_nth(i) {
                for &(label, slot) in self.out_edges(t) {
                    // Branch-free: freshness depends on the data, so a
                    // branch on it mispredicts often.
                    let stamp = &mut scratch.stamps[slot as usize];
                    let fresh = *stamp != epoch;
                    *stamp = epoch;
                    scratch.counts[label.index()] += u64::from(fresh);
                }
            }
        }
        self.emit_leaves(last, scratch, entries);
    }

    /// [`TrieWalk::count_leaves`] over the target-major form: each
    /// target's mask is ORed into one row per slot its out-edges reach,
    /// and a slot's sources count for its label by popcount.
    fn count_leaves_masks(
        &self,
        rel: &MaskRelation,
        last: LabelId,
        scratch: &mut WalkScratch,
        entries: &mut Vec<(u64, u64)>,
    ) {
        let words = rel.words;
        let epoch = scratch.next_epoch();
        for (&t, mask) in rel.targets.iter().zip(rel.masks.chunks_exact(words)) {
            for &(label, slot) in self.out_edges(t) {
                let slot = slot as usize;
                if scratch.stamps[slot] != epoch {
                    scratch.stamps[slot] = epoch;
                    scratch.slot_rows[slot] = scratch.slot_labels.len() as u32;
                    scratch.slot_labels.push(label);
                    let len = scratch.slot_masks.len();
                    scratch.slot_masks.resize(len + words, 0);
                }
                let row = scratch.slot_rows[slot] as usize;
                or_into(&mut scratch.slot_masks[row * words..][..words], mask);
            }
        }
        #[cfg(test)]
        {
            scratch.peak_mask_words = scratch.peak_mask_words.max(scratch.slot_masks.len());
        }
        for (label, mask) in scratch
            .slot_labels
            .drain(..)
            .zip(scratch.slot_masks.chunks_exact(words))
        {
            scratch.counts[label.index()] += popcount(mask);
        }
        scratch.slot_masks.clear();
        self.emit_leaves(last, scratch, entries);
    }

    /// Pushes the leaf counts a leaf pass left for the successors of
    /// `last`, and zeroes them.
    fn emit_leaves(&self, last: LabelId, scratch: &mut WalkScratch, entries: &mut Vec<(u64, u64)>) {
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

    /// Runs the sequential walk and returns its scratch, after checking
    /// the entries against the naive oracle.
    fn walk_scratch(g: &Graph, k: usize) -> WalkScratch {
        let walk = TrieWalk::new(g, PathEncoding::new(g.label_count(), k));
        let mut scratch = walk.scratch();
        let mut entries = Vec::new();
        for label in g.label_ids() {
            let rel = PathRelation::from_label(g, label);
            if !rel.is_empty() {
                walk.collect(&rel, label, &mut scratch, &mut entries);
            }
        }
        coalesce_sorted(&mut entries);
        let oracle = naive::compute_catalog_naive(g, k);
        assert_eq!(entries, oracle.iter().collect::<Vec<_>>(), "k = {k}");
        assert!(scratch.rows.iter().all(|&row| row == NO_ROW), "a row kept");
        scratch
    }

    /// The paths of the nodes that switched to the target-major form.
    fn switched_paths(g: &Graph, k: usize) -> Vec<Vec<LabelId>> {
        walk_scratch(g, k).switched
    }

    #[test]
    fn fan_in_switches_a_node_and_its_subtree_to_masks() {
        // a: 131 sources onto 2 hubs — 131 pairs ≥ 2 × ⌈131/64⌉ × 2, so
        // it switches, with sources at mask bits 63 and 64 of three words.
        // b: 2 hubs onto 3 sinks — 3 pairs ≥ 1 × 3 targets, so it switches
        // where its children are composed (k ≥ 3), but not where only the
        // leaf pass follows (k = 2: 3 < 2 × 3). c: 70 sources onto 70
        // targets — 70 < 2 × 70, so it stays source-major. a/b and a/b/…
        // sit below a switched node, where each is expanded over few
        // edges with many sources per row, so they stay target-major.
        let mut b = GraphBuilder::new();
        for s in 0..130 {
            b.add_edge_named(s, "a", 130 + s % 2);
        }
        b.add_edge_named(130, "b", 132);
        b.add_edge_named(130, "b", 133);
        b.add_edge_named(131, "b", 134);
        for s in 0..70 {
            b.add_edge_named(s, "c", 200 + s);
        }
        b.add_edge_named(134, "a", 131);
        let g = b.build();
        let (a, bb) = (LabelId(0), LabelId(1));
        assert_eq!(switched_paths(&g, 2), vec![vec![a]]);
        for k in 3..=4 {
            assert_eq!(switched_paths(&g, k), vec![vec![a], vec![bb]], "k = {k}");
        }
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        // Even sources reach two sinks, odd ones one, and 134 reaches 134.
        assert_eq!(catalog.selectivity(&[a, bb]), 65 * 2 + 65 + 1);
        // k = 1 has nothing below the roots to count either way.
        assert!(switched_paths(&g, 1).is_empty());
    }

    #[test]
    fn a_sparse_child_of_a_switched_node_is_expanded_source_major() {
        // a: 640 sources onto 3 hubs, and 63 of them onto a vertex x_i
        // each: 1,983 pairs against W × targets = 10 × 66 (twice that at
        // k = 2), so `a` switches. The hubs have no out-edges and each x_i
        // has 20 b-edges. Target-major, a/b (or the leaf pass at k = 2)
        // would OR 10 words per b-edge into 1,260 rows of 10 words, though
        // each row has one source; source-major it visits each b-edge once.
        // So a/b is expanded source-major, and no relation or leaf pass
        // holds more mask words than a's 1,983 pairs. b: 63 sources onto
        // 1,260 targets switches where its children are composed (k = 3).
        let mut b = GraphBuilder::new();
        for s in 0..640 {
            for hub in 0..3 {
                b.add_edge_named(s, "a", 640 + hub);
            }
        }
        for i in 0..63 {
            let x = 700 + i;
            b.add_edge_named(i * 10, "a", x);
            for j in 0..20 {
                b.add_edge_named(x, "b", 1000 + i * 20 + j);
            }
        }
        let g = b.build();
        let (a, bb) = (LabelId(0), LabelId(1));
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        assert_eq!(catalog.selectivity(&[a]), 1_983);
        assert_eq!(catalog.selectivity(&[a, bb]), 1_260);
        for (k, switched) in [(2, vec![vec![a]]), (3, vec![vec![a], vec![bb]])] {
            let scratch = walk_scratch(&g, k);
            assert_eq!(scratch.switched, switched, "k = {k}");
            assert!(
                (660..=1_983).contains(&scratch.peak_mask_words),
                "k = {k}: {} mask words",
                scratch.peak_mask_words
            );
        }
        assert_builds_match_naive(&g, 1..=4);
    }

    #[test]
    fn a_graph_without_fan_in_stays_source_major() {
        // 1000 vertices, about one out-edge per vertex and label: every
        // relation down to depth 3 keeps hundreds of sources, so needs
        // several mask words, while few of them share a target. (A
        // relation of at most 64 sources always switches: one word per
        // target is never more work than one per pair.)
        let mut b = GraphBuilder::with_numeric_labels(1000, 3);
        let mut x = 11u64;
        for _ in 0..3000 {
            let mut draw = |n: u64| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (x >> 33) % n
            };
            let (s, l, t) = (draw(1000) as u32, draw(3) as u16, draw(1000) as u32);
            b.add_edge(phe_graph::VertexId(s), LabelId(l), phe_graph::VertexId(t));
        }
        let g = b.build();
        for k in 1..=4 {
            let switched = switched_paths(&g, k);
            assert!(switched.is_empty(), "k = {k}: {switched:?}");
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
