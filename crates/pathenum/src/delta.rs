//! Incremental path counting: the signed sparse delta of a graph change.
//!
//! Given a base graph `G`, the changed graph `G' = G + Δ`, and the edge
//! delta `Δ` itself, [`compute_delta`] produces a [`SparseDeltaRun`]: the
//! sorted `(canonical_index, f_G'(ℓ) − f_G(ℓ))` entries for exactly the
//! label paths whose selectivity changed. Merging that run into the
//! previous [`SparseCatalog`](crate::SparseCatalog) with
//! [`SparseCatalog::merge_delta`](crate::SparseCatalog::merge_delta)
//! reproduces the from-scratch catalog of `G'` **bit-identically**
//! (property-tested in `tests/sparse_equivalence.rs`) at a cost
//! proportional to the *change*, not the graph.
//!
//! ## Why only touched paths need visiting
//!
//! A path relation `ℓ(G)` is a function of the CSRs of the labels in `ℓ`
//! alone, built by left-to-right composition. Two facts bound where
//! old/new relations can differ:
//!
//! 1. **Divergence is created only at changed rows.** Composing a
//!    relation `R` (equal in both graphs) with label `m` reads `m`'s CSR
//!    only at `targets(R)`. Unless `targets(R)` meets the source of some
//!    changed `m`-edge, `R ∘ E_m` is equal in both graphs too.
//! 2. **Realized paths are walks of the label-follow graph.** In one
//!    graph, a composition chain stays non-empty only while consecutive
//!    labels `a, b` satisfy `targets(E_a) ∩ sources(E_b) ≠ ∅`. A path
//!    whose count *changed* is realized in the old or the new graph, so
//!    it must reach a dirty label within its remaining length along the
//!    |L|-node follow graph of the OR of the two graphs' matrices, which
//!    each graph carries ([`phe_graph::Graph::follow_counts`]).
//!
//! The traversal mirrors the full build's shared-prefix trie DFS but runs
//! in two modes:
//!
//! * **Clean** nodes hold one shared relation (old ≡ new) and emit
//!   nothing. Descent is pruned twice over: a child label must have a
//!   dirty label follow-reachable within the remaining path budget
//!   (label-level, fact 2), and some relation target must have a
//!   `child`-edge into a vertex within walk distance of a changed source
//!   (vertex-level bitmask test, fact 1 — checked *before* paying the
//!   composition). The untouched bulk of the trie is never visited.
//! * **Tainted** nodes (entered when a composition reads changed rows
//!   and some row's result differs) carry only the **changed rows** —
//!   each source with its old and new target sets. The unchanged bulk of
//!   the relation composes identically on both sides and cancels out of
//!   the count difference, so a tainted child's signed diff under a
//!   clean label is the row-wise difference over the carried rows alone,
//!   and the work is proportional to the *changed rows*, not the
//!   relation. Rows that re-converge are dropped.
//!
//! Two compositions below a tainted node need more than its carried
//! rows: a **dirty** child label, where an *unchanged* row may newly
//! meet a changed source, and a child whose rows all re-converge, which
//! drops back to clean mode and needs its full (shared) relation. Both
//! read the tainted node's **new-side relation**, which its DFS frame
//! memoizes: on first use it composes the parent frame's new-side
//! relation (a clean parent's shared relation, or a tainted parent's own
//! memo) with the node's label in the new graph — one composition deep,
//! shared by every child of the node. The old side is never built: it is
//! the new side with the carried rows swapped back, so a dirty child
//! merge-joins the new-side rows with the carried rows by source and
//! composes, on both sides, only the carried rows and the unchanged rows
//! whose targets meet the label's changed sources. A re-converged child's
//! shared relation is the new-side relation composed with its label.

use std::cell::OnceCell;
use std::ops::Range;

use phe_graph::delta::GraphDelta;
use phe_graph::{FixedBitSet, FollowMatrix, Graph, LabelId};

use crate::catalog::CatalogError;
use crate::encoding::PathEncoding;
use crate::relation::PathRelation;

/// The signed sparse outcome of a graph delta: sorted, duplicate-free
/// `(canonical_index, f_new − f_old)` entries, differences non-zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseDeltaRun {
    encoding: PathEncoding,
    entries: Vec<(u64, i64)>,
}

impl SparseDeltaRun {
    /// The canonical encoding both catalogs share.
    #[inline]
    pub fn encoding(&self) -> &PathEncoding {
        &self.encoding
    }

    /// The sorted `(canonical_index, signed_difference)` entries.
    #[inline]
    pub fn entries(&self) -> &[(u64, i64)] {
        &self.entries
    }

    /// Number of paths whose selectivity changed.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the delta changed no path's selectivity.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Counts the signed selectivity difference `f_new(ℓ) − f_old(ℓ)` for
/// every label path of length `≤ k`, visiting only the paths the delta
/// can have touched (see the module docs for the pruning argument).
///
/// `old` and `new` must be the delta's base graph and its
/// [`Graph::apply_delta`] result; the label alphabet must be unchanged
/// (a delta cannot introduce labels).
///
/// # Errors
/// [`CatalogError::AlphabetChanged`] when the two graphs disagree on
/// `|L|`, and [`CatalogError::DomainTooLarge`] when `Σ |L|^i` overflows
/// the canonical index space.
pub fn compute_delta(
    old: &Graph,
    new: &Graph,
    delta: &GraphDelta,
    k: usize,
) -> Result<SparseDeltaRun, CatalogError> {
    if old.label_count() != new.label_count() {
        return Err(CatalogError::AlphabetChanged {
            old: old.label_count(),
            new: new.label_count(),
        });
    }
    let encoding = PathEncoding::try_new(old.label_count().max(1), k)?;
    let label_count = old.label_count();
    let changed_sources = delta.changed_sources_by_label(label_count);
    let dirty: Vec<bool> = changed_sources.iter().map(|s| !s.is_empty()).collect();
    if !dirty.iter().any(|&d| d) || label_count == 0 {
        return Ok(SparseDeltaRun {
            encoding,
            entries: Vec::new(),
        });
    }

    // A path whose count changed is realized entirely in one of the two
    // graphs, so each of its adjacent pairs follows in that graph: the OR
    // of the two carried matrices prunes soundly.
    let follows = FollowMatrix::from_graph(old).union(&FollowMatrix::from_graph(new));
    let dist = dirty_distances(&follows, &dirty, k);
    let vertex_count = old.vertex_count().max(new.vertex_count());
    let masks = ReachMasks::build(old, new, &changed_sources, k);
    let mut ctx = DeltaCtx {
        old,
        new,
        encoding: &encoding,
        dirty: &dirty,
        dist: &dist,
        follows: &follows,
        masks: &masks,
        k,
        scratch: FixedBitSet::new(vertex_count),
        side_image: FixedBitSet::new(vertex_count),
        old_extra: Vec::new(),
        new_extra: Vec::new(),
        old_image: Vec::new(),
        new_image: Vec::new(),
        shared_image: Vec::new(),
        spare_masks: Vec::new(),
        path: Vec::with_capacity(k),
        entries: Vec::new(),
    };

    for label in old.label_ids() {
        // The whole subtree rooted at `label` can only contain a changed
        // path if a dirty label is follow-reachable within `k − 1` steps.
        if ctx.dist[label.index()] > k - 1 {
            continue;
        }
        if ctx.dirty[label.index()] {
            let ro = PathRelation::from_label(old, label);
            let rn = PathRelation::from_label(new, label);
            ctx.path.push(label);
            if ro == rn {
                if !rn.is_empty() {
                    ctx.clean_subtree(&Frame::known(label, &rn));
                }
            } else {
                ctx.emit(rn.pair_count() as i64 - ro.pair_count() as i64);
                let rows = differing_rows(&ro, &rn);
                ctx.tainted_subtree(&Frame::known(label, &rn), &rows);
            }
            ctx.path.pop();
        } else {
            // Clean label: identical edge set in both graphs.
            let rel = PathRelation::from_label(new, label);
            if !rel.is_empty() {
                ctx.path.push(label);
                ctx.clean_subtree(&Frame::known(label, &rel));
                ctx.path.pop();
            }
        }
    }

    let mut entries = ctx.entries;
    entries.sort_unstable_by_key(|&(index, _)| index);
    debug_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "each trie node is visited exactly once"
    );
    Ok(SparseDeltaRun { encoding, entries })
}

struct DeltaCtx<'a> {
    old: &'a Graph,
    new: &'a Graph,
    encoding: &'a PathEncoding,
    dirty: &'a [bool],
    /// Follow-graph distance from each label to the nearest dirty label
    /// (0 for dirty labels themselves; `usize::MAX` when unreachable).
    dist: &'a [usize],
    /// The OR of the old and new graphs' label-follow matrices:
    /// `!follows(a, b)` proves `… a/b …` relations empty on both sides.
    follows: &'a FollowMatrix,
    /// Vertex-level reachability masks (see [`ReachMasks`]).
    masks: &'a ReachMasks,
    k: usize,
    /// Composition scratch; while a row is folded, the image of the
    /// targets both its sides share.
    scratch: FixedBitSet,
    /// One side's image beyond the shared one, while a row is folded.
    side_image: FixedBitSet,
    /// Reused buffers of one row's fold (see [`DeltaCtx::fold_row`]): the
    /// targets each side composes on its own, each side's image beyond
    /// the shared one, and the shared image.
    old_extra: Vec<u32>,
    new_extra: Vec<u32>,
    old_image: Vec<u32>,
    new_image: Vec<u32>,
    shared_image: Vec<u32>,
    /// Target-mask buffers of returned clean nodes, reused by the next
    /// ones (at most one per trie depth is ever live).
    spare_masks: Vec<Mask>,
    path: Vec<LabelId>,
    entries: Vec<(u64, i64)>,
}

/// One node on the DFS path: its label and its new-side relation.
struct Frame<'p> {
    label: LabelId,
    rel: FrameRel<'p>,
}

enum FrameRel<'p> {
    /// A relation already at hand: a clean node's (identical in both
    /// graphs) or a root's new-side edge set.
    Known(&'p PathRelation),
    /// A tainted node's new-side relation, composed from the parent
    /// frame's on first use.
    Memo {
        parent: &'p Frame<'p>,
        rel: OnceCell<PathRelation>,
    },
}

impl<'p> Frame<'p> {
    fn known(label: LabelId, rel: &'p PathRelation) -> Frame<'p> {
        Frame {
            label,
            rel: FrameRel::Known(rel),
        }
    }

    fn tainted(label: LabelId, parent: &'p Frame<'p>) -> Frame<'p> {
        Frame {
            label,
            rel: FrameRel::Memo {
                parent,
                rel: OnceCell::new(),
            },
        }
    }

    /// The node's relation in the new graph (for a clean node, in both).
    fn new_relation(&self, new: &Graph, scratch: &mut FixedBitSet) -> &PathRelation {
        match &self.rel {
            FrameRel::Known(rel) => rel,
            FrameRel::Memo { parent, rel } => rel.get_or_init(|| {
                parent
                    .new_relation(new, scratch)
                    .compose(new, self.label, scratch)
            }),
        }
    }
}

/// The changed rows of a node's child as they are composed, and their
/// signed pair-count difference. Rows are kept only when the child has
/// children of its own; a leaf needs just the difference.
struct ChildRows {
    keep: bool,
    diff: i64,
    rows: Vec<RowDelta>,
}

impl ChildRows {
    fn new(keep: bool) -> ChildRows {
        ChildRows {
            keep,
            diff: 0,
            rows: Vec::new(),
        }
    }
}

/// Word-level bitmask over vertices.
type Mask = Vec<u64>;

#[inline]
fn masks_intersect(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// Per-vertex reachability structure driving the clean-mode prunes, all
/// derived from one multi-source reverse BFS from the changed sources
/// over the union of the old and new edges (all labels), capped at
/// `k − 1` steps — deeper vertices can never funnel a relation onto a
/// changed row within one path's budget:
///
/// * `changed[l]` — the changed `l`-edge sources (where composing `l`
///   reads a changed row and divergence can be *created*);
/// * `reach[d]` (`d < k`) — vertices within `d` walk steps of any changed
///   source;
/// * `pre[l][d]` (`d < k − 1`) — vertices with an `l`-edge into
///   `reach[d]`: composing `l` from a relation disjoint from `pre[l][d]`
///   yields targets outside `reach[d]`, so requiring
///   `targets ∩ pre[l][r−2] ≠ ∅` before composing a clean child prunes,
///   per child and **before paying the composition**, every subtree whose
///   relations can no longer funnel onto a changed row within the
///   remaining budget.
struct ReachMasks {
    changed: Vec<Mask>,
    reach: Vec<Mask>,
    pre: Vec<Vec<Mask>>,
}

impl ReachMasks {
    fn build(old: &Graph, new: &Graph, changed_sources: &[Vec<u32>], k: usize) -> ReachMasks {
        let vertex_count = old.vertex_count().max(new.vertex_count());
        let words = vertex_count.div_ceil(64).max(1);
        let changed: Vec<Mask> = changed_sources
            .iter()
            .map(|sources| {
                let mut mask = vec![0u64; words];
                for &s in sources {
                    mask[s as usize / 64] |= 1 << (s % 64);
                }
                mask
            })
            .collect();

        let mut reach: Vec<Mask> = vec![vec![0u64; words]; k];
        let mut pre: Vec<Vec<Mask>> = vec![vec![vec![0u64; words]; k - 1]; old.label_count()];
        let mut seen = vec![false; vertex_count];
        let mut frontier: Vec<u32> = Vec::new();
        for &s in changed_sources.iter().flatten() {
            if !std::mem::replace(&mut seen[s as usize], true) {
                frontier.push(s);
            }
        }
        // `frontier` holds the vertices at distance `d`. Scanning their
        // in-edges finds distance `d + 1` and, since every vertex is
        // scanned once at its own distance, puts each `l`-edge source into
        // exactly the `pre[l][d..]` its nearest such target allows.
        for d in 0..k {
            for &v in &frontier {
                for mask in &mut reach[d..] {
                    mask[v as usize / 64] |= 1 << (v % 64);
                }
            }
            if d + 1 == k {
                break;
            }
            let mut next = Vec::new();
            for &v in &frontier {
                for graph in [old, new] {
                    if v as usize >= graph.vertex_count() {
                        continue;
                    }
                    for label in graph.label_ids() {
                        for &u in graph.in_neighbors_raw(v, label) {
                            for mask in &mut pre[label.index()][d..] {
                                mask[u as usize / 64] |= 1 << (u % 64);
                            }
                            if !std::mem::replace(&mut seen[u as usize], true) {
                                next.push(u);
                            }
                        }
                    }
                }
            }
            frontier = next;
        }
        ReachMasks {
            changed,
            reach,
            pre,
        }
    }
}

/// Collects a relation's target set as a vertex bitmask of `words` words,
/// reusing `mask`'s buffer.
fn fill_target_mask(rel: &PathRelation, words: usize, mask: &mut Mask) {
    mask.clear();
    mask.resize(words, 0);
    for i in 0..rel.source_count() {
        for &t in rel.targets_of_nth(i) {
            mask[t as usize / 64] |= 1 << (t % 64);
        }
    }
}

impl DeltaCtx<'_> {
    fn emit(&mut self, diff: i64) {
        if diff != 0 {
            self.entries
                .push((self.encoding.encode(&self.path) as u64, diff));
        }
    }

    /// Descends below a node whose relation is identical in both graphs.
    /// Emits nothing at this level (the counts agree); recurses only where
    /// a dirty label remains reachable within the budget.
    fn clean_subtree(&mut self, here: &Frame<'_>) {
        if self.path.len() == self.k {
            return;
        }
        let remaining = self.k - self.path.len();
        let masks = self.masks;
        let rel = here.new_relation(self.new, &mut self.scratch);
        // Vertex-level prune: a descendant diverges only if some walk of
        // ≤ remaining − 1 further compositions moves a target of this
        // relation onto a changed-edge source (where a dirty composition
        // can then read a changed row). Relation targets advance one walk
        // step per composition, so if no target is within `remaining − 1`
        // walk steps of any changed source, the entire subtree is clean.
        let mut tmask = self.spare_masks.pop().unwrap_or_default();
        fill_target_mask(rel, masks.reach[0].len(), &mut tmask);
        if masks_intersect(&tmask, &masks.reach[remaining - 1]) {
            for label in self.old.label_ids() {
                let li = label.index();
                // After appending `label`, `remaining − 1` slots stay; the
                // subtree matters only if dirt is that close in follow steps.
                if self.dist[li] > remaining - 1 {
                    continue;
                }
                // Composing `label` is worth paying for only if some target
                // has a `label`-edge into a vertex that can still funnel
                // onto a changed row within the remaining budget.
                let viable =
                    remaining >= 2 && masks_intersect(&tmask, &masks.pre[li][remaining - 2]);
                if self.dirty[li] && masks_intersect(&tmask, &masks.changed[li]) {
                    // The composition reads changed rows: old and new can
                    // part ways here — but only in the rows whose targets
                    // meet a changed source. Compose exactly those rows on
                    // both sides; everything else is untouched by
                    // construction.
                    let mut child = ChildRows::new(remaining >= 2);
                    self.fold_unchanged(
                        &mut child,
                        rel,
                        0..rel.source_count(),
                        &masks.changed[li],
                        label,
                    );
                    self.enter_child(here, label, child, viable);
                } else if viable {
                    // A clean composition: identical in both graphs (the
                    // label is clean, or no target is a changed source).
                    // Children failing the test are skipped without
                    // composing at all.
                    self.path.push(label);
                    self.clean_child(here, label);
                    self.path.pop();
                }
            }
        }
        self.spare_masks.push(tmask);
    }

    /// Descends below a node whose old and new relations differ in
    /// exactly `rows`, sorted by source (every other row is identical in
    /// both graphs). Under a clean label the unchanged rows compose
    /// identically and cancel out of the count difference, so the child's
    /// signed diff is the row-wise difference over these rows alone.
    ///
    /// A **dirty** label can also part an unchanged row that meets one of
    /// its changed sources, and a child whose rows all re-converge drops
    /// back to clean mode with its full relation. Both read the node's
    /// new-side relation, which `here` derives from its parent's with one
    /// composition on first use and then shares with every child.
    fn tainted_subtree(&mut self, here: &Frame<'_>, rows: &[RowDelta]) {
        if self.path.len() == self.k {
            return;
        }
        let remaining = self.k - self.path.len();
        let masks = self.masks;
        for label in self.old.label_ids() {
            // If `here` cannot be followed by `label` in either graph, the
            // child relation is empty on both sides and nothing below it
            // can differ.
            if !self.follows.follows(here.label, label) {
                continue;
            }
            let li = label.index();
            let mut child = ChildRows::new(remaining >= 2);
            if self.dirty[li] {
                self.fold_dirty(&mut child, here, rows, label);
            } else {
                for row in rows {
                    self.fold_row(
                        &mut child,
                        row.source,
                        &row.old_targets,
                        &row.new_targets,
                        label,
                        &masks.changed[li],
                    );
                }
            }
            // A child whose rows all re-converge is *clean*, not dead — a
            // deeper dirty composition could still diverge it — so it is
            // worth descending while dirt stays follow-reachable.
            let viable = remaining >= 2 && self.dist[li] < remaining;
            self.enter_child(here, label, child, viable);
        }
    }

    /// Enters the child `label` of `here` with its computed rows: emits
    /// the child's count difference, then continues in tainted mode over
    /// the rows that still differ or, if none does and `clean_viable`, in
    /// clean mode.
    fn enter_child(
        &mut self,
        here: &Frame<'_>,
        label: LabelId,
        child: ChildRows,
        clean_viable: bool,
    ) {
        self.path.push(label);
        self.emit(child.diff);
        if !child.rows.is_empty() {
            self.tainted_subtree(&Frame::tainted(label, here), &child.rows);
        } else if clean_viable {
            self.clean_child(here, label);
        }
        self.path.pop();
    }

    /// Descends into the child `label` of `here` (already on the path),
    /// whose relation is identical in both graphs: `here`'s new-side
    /// relation composed with `label`.
    fn clean_child(&mut self, here: &Frame<'_>, label: LabelId) {
        let rel = here.new_relation(self.new, &mut self.scratch);
        let next = rel.compose(self.new, label, &mut self.scratch);
        if !next.is_empty() {
            self.clean_subtree(&Frame::known(label, &next));
        }
    }

    /// Folds the rows of a dirty child `label` of the tainted node `here`
    /// into `child`. A merge-join by source of `here`'s new-side relation
    /// with the carried `rows`: carried rows compose from their own old
    /// and new targets; unchanged rows share one target set on both sides
    /// and compose only where it meets a changed `label`-source — every
    /// other unchanged row composes identically and cancels out.
    fn fold_dirty(
        &mut self,
        child: &mut ChildRows,
        here: &Frame<'_>,
        rows: &[RowDelta],
        label: LabelId,
    ) {
        let masks = self.masks;
        let changed = &masks.changed[label.index()];
        let new_rel = here.new_relation(self.new, &mut self.scratch);
        let sources = new_rel.sources();
        let mut i = 0;
        for row in rows {
            let below = i + sources[i..].partition_point(|&s| s < row.source);
            self.fold_unchanged(child, new_rel, i..below, changed, label);
            i = below;
            if sources.get(i) == Some(&row.source) {
                debug_assert_eq!(new_rel.targets_of_nth(i), row.new_targets.as_slice());
                i += 1;
            }
            self.fold_row(
                child,
                row.source,
                &row.old_targets,
                &row.new_targets,
                label,
                changed,
            );
        }
        self.fold_unchanged(child, new_rel, i..sources.len(), changed, label);
    }

    /// Folds the rows `range` of `rel` — equal in both graphs — into
    /// `child`, composing only those whose targets meet `changed`.
    fn fold_unchanged(
        &mut self,
        child: &mut ChildRows,
        rel: &PathRelation,
        range: Range<usize>,
        changed: &[u64],
        label: LabelId,
    ) {
        for i in range {
            let targets = rel.targets_of_nth(i);
            if targets.iter().any(|&t| mask_bit(changed, t)) {
                self.fold_row(child, rel.sources()[i], targets, targets, label, changed);
            }
        }
    }

    /// Composes one row through `label` on both sides and folds the
    /// result into `child`: its size difference always, the row itself
    /// (the only allocation) only if it differs and `child` keeps rows.
    ///
    /// A target on both sides that is not a changed `label`-source
    /// (`changed`) has the same `label`-edges in both graphs, so the image
    /// of those shared targets — most of either side's image — is composed
    /// once, into `scratch`. Each side then composes only its other
    /// targets, and only their image beyond the shared one decides whether
    /// and by how much the sides differ.
    fn fold_row(
        &mut self,
        child: &mut ChildRows,
        source: u32,
        old_targets: &[u32],
        new_targets: &[u32],
        label: LabelId,
        changed: &[u64],
    ) {
        self.old_extra.clear();
        self.new_extra.clear();
        let (mut i, mut j) = (0, 0);
        loop {
            match (old_targets.get(i), new_targets.get(j)) {
                (Some(&o), Some(&n)) if o == n => {
                    if mask_bit(changed, o) {
                        self.old_extra.push(o);
                        self.new_extra.push(o);
                    } else {
                        mark_image(&mut self.scratch, o, self.new, label);
                    }
                    i += 1;
                    j += 1;
                }
                (Some(&o), Some(&n)) if o < n => {
                    self.old_extra.push(o);
                    i += 1;
                }
                (Some(&o), None) => {
                    self.old_extra.push(o);
                    i += 1;
                }
                (_, Some(&n)) => {
                    self.new_extra.push(n);
                    j += 1;
                }
                (None, None) => break,
            }
        }
        let shared = &self.scratch;
        let image = &mut self.side_image;
        mark_beyond(shared, image, &self.old_extra, self.old, label);
        if !child.keep {
            let old_len = image.len();
            image.clear();
            mark_beyond(shared, image, &self.new_extra, self.new, label);
            child.diff += image.len() as i64 - old_len as i64;
            image.clear();
            self.scratch.clear();
            return;
        }
        self.old_image.clear();
        image.drain_sorted_into(&mut self.old_image);
        mark_beyond(shared, image, &self.new_extra, self.new, label);
        self.new_image.clear();
        image.drain_sorted_into(&mut self.new_image);
        if self.old_image == self.new_image {
            self.scratch.clear();
            return;
        }
        child.diff += self.new_image.len() as i64 - self.old_image.len() as i64;
        self.shared_image.clear();
        self.scratch.drain_sorted_into(&mut self.shared_image);
        child.rows.push(RowDelta {
            source,
            old_targets: merge_disjoint(&self.shared_image, &self.old_image),
            new_targets: merge_disjoint(&self.shared_image, &self.new_image),
        });
    }
}

/// Marks the image of target `t` under `label` in `graph` (none when `t`
/// lies beyond the graph).
fn mark_image(image: &mut FixedBitSet, t: u32, graph: &Graph, label: LabelId) {
    if (t as usize) < graph.vertex_count() {
        for &w in graph.out_neighbors_raw(t, label) {
            image.insert(w);
        }
    }
}

/// Marks in `image` the image of `targets` under `label` in `graph` that
/// `shared` lacks.
fn mark_beyond(
    shared: &FixedBitSet,
    image: &mut FixedBitSet,
    targets: &[u32],
    graph: &Graph,
    label: LabelId,
) {
    for &t in targets {
        if (t as usize) < graph.vertex_count() {
            for &w in graph.out_neighbors_raw(t, label) {
                if !shared.contains(w) {
                    image.insert(w);
                }
            }
        }
    }
}

/// Merges two sorted, disjoint vertex lists into one sorted list.
fn merge_disjoint(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// One changed row of a tainted relation: a source with its target sets
/// on the old and new side (differing by construction; either may be
/// empty). Only the target-set sizes enter the count difference; the
/// source places the row among the new-side relation's rows when a dirty
/// label is composed below.
struct RowDelta {
    source: u32,
    old_targets: Vec<u32>,
    new_targets: Vec<u32>,
}

/// The row deltas between two full relations: a merge-join over their
/// sorted source lists, keeping rows whose target sets differ.
fn differing_rows(old_rel: &PathRelation, new_rel: &PathRelation) -> Vec<RowDelta> {
    let mut rows = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    let (on, nn) = (old_rel.source_count(), new_rel.source_count());
    while i < on || j < nn {
        let os = old_rel.sources().get(i).copied();
        let ns = new_rel.sources().get(j).copied();
        match (os, ns) {
            (Some(o), Some(n)) if o == n => {
                let (ot, nt) = (old_rel.targets_of_nth(i), new_rel.targets_of_nth(j));
                if ot != nt {
                    rows.push(RowDelta {
                        source: o,
                        old_targets: ot.to_vec(),
                        new_targets: nt.to_vec(),
                    });
                }
                i += 1;
                j += 1;
            }
            (Some(o), Some(n)) if o < n => {
                rows.push(RowDelta {
                    source: o,
                    old_targets: old_rel.targets_of_nth(i).to_vec(),
                    new_targets: Vec::new(),
                });
                i += 1;
            }
            (Some(o), None) => {
                rows.push(RowDelta {
                    source: o,
                    old_targets: old_rel.targets_of_nth(i).to_vec(),
                    new_targets: Vec::new(),
                });
                i += 1;
            }
            (_, Some(n)) => {
                rows.push(RowDelta {
                    source: n,
                    old_targets: Vec::new(),
                    new_targets: new_rel.targets_of_nth(j).to_vec(),
                });
                j += 1;
            }
            (None, None) => break,
        }
    }
    rows
}

/// Tests one vertex against a mask.
#[inline]
fn mask_bit(mask: &[u64], v: u32) -> bool {
    mask[v as usize / 64] & (1 << (v % 64)) != 0
}

/// Multi-source BFS over the **reversed label-follow graph** (see
/// [`FollowMatrix`]): for each label, the minimum number of follow steps
/// to reach a dirty label (`usize::MAX` when unreachable).
fn dirty_distances(follows: &FollowMatrix, dirty: &[bool], k: usize) -> Vec<usize> {
    let label_count = dirty.len();
    let mut dist = vec![usize::MAX; label_count];
    let mut frontier: Vec<usize> = (0..label_count).filter(|&l| dirty[l]).collect();
    for &l in &frontier {
        dist[l] = 0;
    }
    // Distances beyond k − 1 never unlock a descent, so the BFS can stop.
    for d in 1..k.max(1) {
        let mut next = Vec::new();
        for (m, slot) in dist.iter_mut().enumerate() {
            if *slot == usize::MAX
                && frontier
                    .iter()
                    .any(|&f| follows.follows(LabelId(m as u16), LabelId(f as u16)))
            {
                *slot = d;
                next.push(m);
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    dist
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    /// Builds a run from raw entries — lets sibling modules' tests forge
    /// deltas (e.g. underflowing ones) that `compute_delta` never emits.
    pub(crate) fn run_from_entries(
        encoding: PathEncoding,
        entries: Vec<(u64, i64)>,
    ) -> SparseDeltaRun {
        SparseDeltaRun { encoding, entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseCatalog;
    use phe_graph::{GraphBuilder, VertexId};

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }
    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    /// Deterministic pseudo-random graph (LCG walk, no `rand`).
    fn lcg_graph(n: u32, labels: u16, edges: usize, seed: u64) -> Graph {
        let mut b = GraphBuilder::with_numeric_labels(n, labels);
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut step = || {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (x >> 33) as u32
        };
        for _ in 0..edges {
            let s = step() % n;
            let t = step() % n;
            let lab = (step() as u16) % labels;
            b.add_edge(v(s), l(lab), v(t));
        }
        b.build()
    }

    /// Deterministic churn: removes every `stride`-th edge and inserts
    /// `inserts` fresh edges that exist in neither the base graph nor the
    /// delta so far.
    fn lcg_delta(graph: &Graph, stride: usize, inserts: usize, seed: u64) -> GraphDelta {
        let mut delta = GraphDelta::new();
        let mut removed = std::collections::HashSet::new();
        for (i, (s, lab, t)) in graph.iter_edges().enumerate() {
            if i % stride == 0 {
                delta.remove(s, lab, t);
                removed.insert((s.0, lab.0, t.0));
            }
        }
        let n = graph.vertex_count() as u32;
        let labels = graph.label_count() as u16;
        let mut x = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut step = || {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (x >> 33) as u32
        };
        let mut added = std::collections::HashSet::new();
        let mut remaining = inserts;
        while remaining > 0 {
            let (s, t, lab) = (step() % n, step() % n, (step() as u16) % labels);
            let key = (s, lab, t);
            let present = graph.has_edge(v(s), l(lab), v(t)) && !removed.contains(&key);
            if present || !added.insert(key) {
                continue;
            }
            delta.insert(v(s), l(lab), v(t));
            remaining -= 1;
        }
        delta
    }

    /// The brute-force oracle: the naive catalogs of both graphs, diffed
    /// index by index over the whole domain.
    fn dense_diff(old: &Graph, new: &Graph, k: usize) -> Vec<(u64, i64)> {
        let co = crate::naive::compute_catalog_naive(old, k);
        let cn = crate::naive::compute_catalog_naive(new, k);
        (0..co.len() as u64)
            .map(|i| (i, cn.selectivity_at(i) as i64 - co.selectivity_at(i) as i64))
            .filter(|&(_, diff)| diff != 0)
            .collect()
    }

    #[test]
    fn delta_matches_dense_diff_on_random_churn() {
        for seed in [3u64, 11, 42] {
            let old = lcg_graph(40, 4, 220, seed);
            let delta = lcg_delta(&old, 7, 12, seed + 1);
            let new = old.apply_delta(&delta).unwrap();
            for k in 1..=4 {
                let run = compute_delta(&old, &new, &delta, k).unwrap();
                assert_eq!(
                    run.entries(),
                    dense_diff(&old, &new, k).as_slice(),
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn merged_catalog_equals_full_recount() {
        let old = lcg_graph(50, 3, 280, 9);
        let delta = lcg_delta(&old, 5, 20, 10);
        let new = old.apply_delta(&delta).unwrap();
        for k in 1..=4 {
            let base = SparseCatalog::compute(&old, k).unwrap();
            let run = compute_delta(&old, &new, &delta, k).unwrap();
            let merged = base.merge_delta(&run).unwrap();
            let fresh = SparseCatalog::compute(&new, k).unwrap();
            assert_eq!(merged, fresh, "k = {k}");
        }
    }

    #[test]
    fn empty_delta_is_an_empty_run() {
        let g = lcg_graph(20, 2, 60, 5);
        let run = compute_delta(&g, &g, &GraphDelta::new(), 3).unwrap();
        assert!(run.is_empty());
        assert_eq!(run.encoding().max_len(), 3);
    }

    #[test]
    fn insertion_only_and_removal_only_deltas() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "b", 2);
        let old = b.build();

        // Insert 2 -a-> 3: creates paths a (+1), b/a (+1).
        let mut ins = GraphDelta::new();
        ins.insert(v(2), l(0), v(3));
        let new = old.apply_delta(&ins).unwrap();
        let run = compute_delta(&old, &new, &ins, 3).unwrap();
        assert_eq!(run.entries(), dense_diff(&old, &new, 3).as_slice());
        assert!(run.entries().iter().all(|&(_, d)| d > 0));

        // Remove 0 -a-> 1: kills a (−1) and a/b (−1).
        let mut rem = GraphDelta::new();
        rem.remove(v(0), l(0), v(1));
        let new = old.apply_delta(&rem).unwrap();
        let run = compute_delta(&old, &new, &rem, 3).unwrap();
        assert_eq!(run.entries(), dense_diff(&old, &new, 3).as_slice());
        assert!(run.entries().iter().all(|&(_, d)| d < 0));
    }

    #[test]
    fn remove_reinsert_cancels_to_empty() {
        let old = lcg_graph(20, 2, 80, 7);
        let (s, lab, t) = old.iter_edges().next().unwrap();
        let mut delta = GraphDelta::new();
        delta.remove(s, lab, t);
        delta.insert(s, lab, t);
        let new = old.apply_delta(&delta).unwrap();
        let run = compute_delta(&old, &new, &delta, 3).unwrap();
        assert!(run.is_empty(), "{:?}", run.entries());
    }

    #[test]
    fn delta_touching_new_vertices() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        let old = b.build();
        let mut delta = GraphDelta::new();
        delta.insert(v(1), l(0), v(5)); // grows the vertex set
        let new = old.apply_delta(&delta).unwrap();
        let run = compute_delta(&old, &new, &delta, 2).unwrap();
        assert_eq!(run.entries(), dense_diff(&old, &new, 2).as_slice());
    }

    #[test]
    fn alphabet_change_is_refused() {
        let old = lcg_graph(10, 2, 30, 1);
        let new = lcg_graph(10, 3, 30, 1);
        assert!(matches!(
            compute_delta(&old, &new, &GraphDelta::new(), 2),
            Err(CatalogError::AlphabetChanged { old: 2, new: 3 })
        ));
    }

    #[test]
    fn dirty_distance_prunes_far_labels() {
        // A 6-label chain 0→1→…→5 with a change on label 0 only: labels
        // beyond follow distance k−1 from the dirty label never reach it,
        // so dist must be MAX for them (the prune the bench relies on).
        let mut b = GraphBuilder::with_numeric_labels(7, 6);
        for i in 0..6u16 {
            b.add_edge(v(i as u32), l(i), v(i as u32 + 1));
        }
        let old = b.build();
        let mut delta = GraphDelta::new();
        delta.insert(v(0), l(0), v(2));
        let new = old.apply_delta(&delta).unwrap();
        let dirty: Vec<bool> = (0..6).map(|i| i == 0).collect();
        let follows = FollowMatrix::from_graph(&old).union(&FollowMatrix::from_graph(&new));
        let dist = dirty_distances(&follows, &dirty, 6);
        assert_eq!(dist[0], 0);
        // No label follows into label 0 (vertex 0 has no incoming edges),
        // so everything else is unreachable-from.
        assert!(dist[1..].iter().all(|&d| d == usize::MAX), "{dist:?}");
        // And the run still matches the oracle.
        let run = compute_delta(&old, &new, &delta, 4).unwrap();
        assert_eq!(run.entries(), dense_diff(&old, &new, 4).as_slice());
    }

    /// Builds `edges` over `n` vertices and `labels` numeric labels.
    fn graph_of(n: u32, labels: u16, edges: &[(u32, u16, u32)]) -> Graph {
        let mut b = GraphBuilder::with_numeric_labels(n, labels);
        for &(s, lab, t) in edges {
            b.add_edge(v(s), l(lab), v(t));
        }
        b.build()
    }

    /// The run's difference for one path (0 when absent).
    fn diff_of(run: &SparseDeltaRun, path: &[LabelId]) -> i64 {
        let index = run.encoding().encode(path) as u64;
        run.entries()
            .iter()
            .find(|&&(i, _)| i == index)
            .map_or(0, |&(_, d)| d)
    }

    #[test]
    fn unchanged_row_of_tainted_node_meets_changed_source_of_dirty_label() {
        // Labels a = 0 and b = 1 are both dirty. Inserting 0 -a-> 5 taints
        // `a` in row 0 only; inserting 3 -b-> 6 changes a `b`-source that
        // the *unchanged* `a` row 2 (targets {3}) reaches. So `a/b` gains
        // its pair from an uncarried row, while the carried row 0
        // re-converges ({1} and {1, 5} both reach only 2 by `b`).
        // 6 -a-> 7 keeps the divergence alive through `a/b/a`.
        let old = graph_of(
            8,
            2,
            &[(0, 0, 1), (2, 0, 3), (3, 1, 4), (4, 0, 2), (1, 1, 2)],
        );
        let mut delta = GraphDelta::new();
        delta.insert(v(0), l(0), v(5));
        delta.insert(v(3), l(1), v(6));
        delta.insert(v(6), l(0), v(7));
        let new = old.apply_delta(&delta).unwrap();
        for k in 1..=4 {
            let run = compute_delta(&old, &new, &delta, k).unwrap();
            assert_eq!(run.entries(), dense_diff(&old, &new, k).as_slice(), "k {k}");
            if k >= 2 {
                assert_eq!(diff_of(&run, &[l(0), l(1)]), 1, "k {k}");
            }
        }
    }

    #[test]
    fn reconverged_rows_meet_a_deeper_dirty_label() {
        // Labels a = 0 and b = 2 are dirty, c = 1 is clean. Removing
        // 0 -a-> 2 taints `a` in row 0 ({1, 2} → {1}), but both targets
        // reach 3 by `c`, so `a/c` re-converges and drops back to clean
        // mode. Inserting 3 -b-> 5 then diverges `a/c/b` one label deeper.
        let old = graph_of(
            6,
            3,
            &[
                (0, 0, 1),
                (0, 0, 2),
                (1, 1, 3),
                (2, 1, 3),
                (3, 2, 4),
                (4, 0, 0),
            ],
        );
        let mut delta = GraphDelta::new();
        delta.remove(v(0), l(0), v(2));
        delta.insert(v(3), l(2), v(5));
        let new = old.apply_delta(&delta).unwrap();
        for k in 1..=4 {
            let run = compute_delta(&old, &new, &delta, k).unwrap();
            assert_eq!(run.entries(), dense_diff(&old, &new, k).as_slice(), "k {k}");
            if k >= 2 {
                assert_eq!(diff_of(&run, &[l(0), l(1)]), 0, "k {k}");
            }
            if k >= 3 {
                assert_eq!(diff_of(&run, &[l(0), l(1), l(2)]), 1, "k {k}");
            }
        }
    }
}
