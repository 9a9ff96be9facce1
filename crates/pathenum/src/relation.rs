//! Binary relations over vertices and their composition with edge labels.

use phe_graph::{FixedBitSet, Graph, LabelId};

/// The result of evaluating a label path: the set of `(source, target)`
/// vertex pairs, stored CSR-style.
///
/// Invariants: `sources` is strictly ascending; every source has at least
/// one target; each target list is strictly ascending (hence
/// duplicate-free). `offsets.len() == sources.len() + 1`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathRelation {
    sources: Vec<u32>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl PathRelation {
    /// The empty relation.
    pub fn empty() -> PathRelation {
        PathRelation {
            sources: Vec::new(),
            offsets: vec![0],
            targets: Vec::new(),
        }
    }

    /// The relation of a single edge label: exactly the label's edge set.
    pub fn from_label(graph: &Graph, label: LabelId) -> PathRelation {
        let csr = graph.forward_csr(label);
        let mut rel = PathRelation::empty();
        for src in csr.non_empty_rows() {
            rel.sources.push(src);
            rel.targets.extend_from_slice(csr.neighbors(src));
            rel.offsets.push(rel.targets.len() as u32);
        }
        rel
    }

    /// The relation of a single edge label restricted to sources in
    /// `[src_lo, src_hi)` — the unit of work of the parallel catalog.
    pub fn from_label_source_range(
        graph: &Graph,
        label: LabelId,
        src_lo: u32,
        src_hi: u32,
    ) -> PathRelation {
        Self::from_label_source_range_with(graph, label, src_lo, src_hi, |_| {})
    }

    /// [`PathRelation::from_label_source_range`] that hands each target it
    /// copies to `on_target`, once per pair: the catalog kernel counts a
    /// task's distinct targets in the loop that copies them.
    pub(crate) fn from_label_source_range_with(
        graph: &Graph,
        label: LabelId,
        src_lo: u32,
        src_hi: u32,
        mut on_target: impl FnMut(u32),
    ) -> PathRelation {
        let csr = graph.forward_csr(label);
        let mut rel = PathRelation::empty();
        for src in src_lo..src_hi.min(csr.row_count() as u32) {
            let ns = csr.neighbors(src);
            if ns.is_empty() {
                continue;
            }
            rel.sources.push(src);
            rel.targets.extend_from_slice(ns);
            ns.iter().for_each(|&t| on_target(t));
            rel.offsets.push(rel.targets.len() as u32);
        }
        rel
    }

    /// The relation with the given CSR parts, which uphold the type's
    /// invariants.
    pub(crate) fn from_parts(
        sources: Vec<u32>,
        offsets: Vec<u32>,
        targets: Vec<u32>,
    ) -> PathRelation {
        debug_assert!(
            sources.windows(2).all(|w| w[0] < w[1]),
            "sources out of order"
        );
        debug_assert_eq!(offsets.len(), sources.len() + 1);
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(targets.len()));
        debug_assert!(
            offsets.windows(2).all(|w| w[0] < w[1]
                && targets[w[0] as usize..w[1] as usize]
                    .windows(2)
                    .all(|t| t[0] < t[1])),
            "an empty or unsorted target list"
        );
        PathRelation {
            sources,
            offsets,
            targets,
        }
    }

    /// Number of distinct `(source, target)` pairs — the selectivity of the
    /// path this relation evaluates.
    #[inline]
    pub fn pair_count(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Number of distinct sources.
    #[inline]
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Whether the relation holds no pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The sorted target list of the `i`-th source.
    #[inline]
    pub fn targets_of_nth(&self, i: usize) -> &[u32] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The sorted source list.
    #[inline]
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Looks up the targets of a given source vertex (binary search).
    pub fn targets_of(&self, src: u32) -> &[u32] {
        match self.sources.binary_search(&src) {
            Ok(i) => self.targets_of_nth(i),
            Err(_) => &[],
        }
    }

    /// Whether the pair `(src, dst)` is in the relation.
    pub fn contains(&self, src: u32, dst: u32) -> bool {
        self.targets_of(src).binary_search(&dst).is_ok()
    }

    /// Iterates all pairs in `(source, target)` lexicographic order.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.sources.len()).flat_map(move |i| {
            self.targets_of_nth(i)
                .iter()
                .map(move |&t| (self.sources[i], t))
        })
    }

    /// Composes `self` with the edge relation of `label`:
    /// `result = { (s, w) | ∃t: (s, t) ∈ self ∧ (t, label, w) ∈ E }`.
    ///
    /// `scratch` must have capacity ≥ `graph.vertex_count()`; it is used to
    /// de-duplicate targets per source and is left cleared.
    pub fn compose(
        &self,
        graph: &Graph,
        label: LabelId,
        scratch: &mut FixedBitSet,
    ) -> PathRelation {
        self.compose_with(graph, label, scratch, |_, _| {})
    }

    /// [`PathRelation::compose`] that hands each word of every source's
    /// de-duplicated target set, with its index, to `on_word` (see
    /// [`FixedBitSet::drain_sorted_into_with`]): the catalog kernel ORs
    /// them into one set to count the result's distinct targets at one
    /// call per word, not one per pair.
    pub fn compose_with(
        &self,
        graph: &Graph,
        label: LabelId,
        scratch: &mut FixedBitSet,
        mut on_word: impl FnMut(u32, u64),
    ) -> PathRelation {
        debug_assert!(scratch.is_empty(), "scratch bitset must start cleared");
        debug_assert!(scratch.capacity() >= graph.vertex_count());
        let csr = graph.forward_csr(label);
        // Every output source is an input source, so `sources` and
        // `offsets` never outgrow these; the input's pair count is a first
        // guess at the output's that spares most of the regrowth.
        let mut out = PathRelation {
            sources: Vec::with_capacity(self.sources.len()),
            offsets: Vec::with_capacity(self.sources.len() + 1),
            targets: Vec::with_capacity(self.targets.len()),
        };
        out.offsets.push(0);
        for (i, &src) in self.sources.iter().enumerate() {
            for &t in self.targets_of_nth(i) {
                for &w in csr.neighbors(t) {
                    scratch.insert(w);
                }
            }
            if scratch.is_empty() {
                continue;
            }
            out.sources.push(src);
            scratch.drain_sorted_into_with(&mut out.targets, &mut on_word);
            out.offsets.push(out.targets.len() as u32);
        }
        out
    }

    /// Composes two path relations: `{ (s, w) | ∃t: (s,t) ∈ self ∧ (t,w) ∈ rhs }`.
    ///
    /// Used by the query executor to join arbitrary sub-path results (not
    /// just single labels).
    pub fn join(&self, rhs: &PathRelation, scratch: &mut FixedBitSet) -> PathRelation {
        debug_assert!(scratch.is_empty(), "scratch bitset must start cleared");
        let mut out = PathRelation::empty();
        for (i, &src) in self.sources.iter().enumerate() {
            for &t in self.targets_of_nth(i) {
                for &w in rhs.targets_of(t) {
                    scratch.insert(w);
                }
            }
            if scratch.is_empty() {
                continue;
            }
            out.sources.push(src);
            scratch.drain_sorted_into(&mut out.targets);
            out.offsets.push(out.targets.len() as u32);
        }
        out
    }

    /// Evaluates a whole label path by left-to-right composition.
    /// Returns the empty relation for an empty path.
    pub fn evaluate(graph: &Graph, path: &[LabelId]) -> PathRelation {
        let Some((&first, rest)) = path.split_first() else {
            return PathRelation::empty();
        };
        let mut scratch = FixedBitSet::new(graph.vertex_count());
        let mut rel = PathRelation::from_label(graph, first);
        for &l in rest {
            if rel.is_empty() {
                return PathRelation::empty();
            }
            rel = rel.compose(graph, l, &mut scratch);
        }
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_graph::GraphBuilder;

    /// 0 -a-> 1, 0 -a-> 2, 1 -b-> 3, 2 -b-> 3, 3 -a-> 0.
    fn diamond_cycle() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 3);
        b.add_edge_named(2, "b", 3);
        b.add_edge_named(3, "a", 0);
        b.build()
    }

    fn a() -> LabelId {
        LabelId(0)
    }
    fn bb() -> LabelId {
        LabelId(1)
    }

    #[test]
    fn from_label_is_edge_set() {
        let g = diamond_cycle();
        let r = PathRelation::from_label(&g, a());
        assert_eq!(r.pair_count(), 3);
        assert_eq!(r.sources(), &[0, 3]);
        assert_eq!(r.targets_of(0), &[1, 2]);
        assert_eq!(r.targets_of(3), &[0]);
        assert_eq!(r.targets_of(1), &[] as &[u32]);
    }

    #[test]
    fn compose_deduplicates() {
        let g = diamond_cycle();
        let mut scratch = FixedBitSet::new(g.vertex_count());
        let r = PathRelation::from_label(&g, a());
        // a/b: 0 reaches 3 via both 1 and 2 — must count once.
        let ab = r.compose(&g, bb(), &mut scratch);
        assert_eq!(ab.pair_count(), 1);
        assert!(ab.contains(0, 3));
    }

    #[test]
    fn evaluate_multi_step() {
        let g = diamond_cycle();
        // a/b/a: 0 -> 3 -> 0.
        let r = PathRelation::evaluate(&g, &[a(), bb(), a()]);
        assert_eq!(r.pair_count(), 1);
        assert!(r.contains(0, 0));
        // b/b: none (3 has no b-successor).
        let r = PathRelation::evaluate(&g, &[bb(), bb()]);
        assert!(r.is_empty());
    }

    #[test]
    fn evaluate_empty_path_is_empty() {
        let g = diamond_cycle();
        assert!(PathRelation::evaluate(&g, &[]).is_empty());
    }

    #[test]
    fn join_matches_compose() {
        let g = diamond_cycle();
        let mut scratch = FixedBitSet::new(g.vertex_count());
        let ra = PathRelation::from_label(&g, a());
        let rb = PathRelation::from_label(&g, bb());
        let joined = ra.join(&rb, &mut scratch);
        let composed = ra.compose(&g, bb(), &mut scratch);
        let jp: Vec<(u32, u32)> = joined.iter_pairs().collect();
        let cp: Vec<(u32, u32)> = composed.iter_pairs().collect();
        assert_eq!(jp, cp);
    }

    #[test]
    fn iter_pairs_sorted() {
        let g = diamond_cycle();
        let r = PathRelation::from_label(&g, a());
        let pairs: Vec<(u32, u32)> = r.iter_pairs().collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (3, 0)]);
    }

    #[test]
    fn source_range_restriction() {
        let g = diamond_cycle();
        let r = PathRelation::from_label_source_range(&g, a(), 0, 1);
        assert_eq!(r.pair_count(), 2);
        assert_eq!(r.sources(), &[0]);
        let r = PathRelation::from_label_source_range(&g, a(), 1, 4);
        assert_eq!(r.pair_count(), 1);
        assert_eq!(r.sources(), &[3]);
    }

    #[test]
    fn scratch_left_clean() {
        let g = diamond_cycle();
        let mut scratch = FixedBitSet::new(g.vertex_count());
        let r = PathRelation::from_label(&g, a());
        let _ = r.compose(&g, bb(), &mut scratch);
        assert!(scratch.is_empty());
    }
}
