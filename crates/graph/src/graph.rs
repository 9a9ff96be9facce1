//! The immutable edge-labeled graph.

use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::csr::Csr;
use crate::follow::FollowCounts;
use crate::ids::{LabelId, VertexId};
use crate::interner::LabelInterner;

/// An immutable directed edge-labeled multigraph `G = (V, L, E)`.
///
/// Storage is one forward and one reverse [`Csr`] per label. All neighbor
/// lists are sorted and duplicate-free. Construct with
/// [`crate::GraphBuilder`] or [`crate::io::read_tsv`]. Each CSR sits
/// behind an [`Arc`], so a graph from [`Graph::apply_delta`] shares
/// every label the delta leaves untouched with its base graph.
///
/// Two derived facts are cached on first use and carried through
/// [`Graph::apply_delta`] in time proportional to the delta: the content
/// [`Graph::fingerprint`] and the per-pair [`FollowCounts`] behind the
/// [`crate::FollowMatrix`]. Neither is serialized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    vertex_count: u32,
    labels: LabelInterner,
    forward: Vec<Arc<Csr>>,
    reverse: Vec<Arc<Csr>>,
    /// Wrapping sum of [`edge_hash`] over every edge.
    #[serde(skip)]
    edge_hash_sum: OnceLock<u64>,
    #[serde(skip)]
    follow_counts: OnceLock<FollowCounts>,
}

impl Graph {
    /// Assembles a graph from frozen parts, which may be shared with
    /// other graphs. Used by [`crate::GraphBuilder`] and
    /// [`Graph::apply_delta`]; prefer the builder in application code.
    pub fn from_parts(
        vertex_count: u32,
        labels: LabelInterner,
        forward: Vec<Arc<Csr>>,
        reverse: Vec<Arc<Csr>>,
    ) -> Graph {
        debug_assert_eq!(forward.len(), reverse.len());
        for csr in forward.iter().chain(reverse.iter()) {
            debug_assert_eq!(csr.row_count(), vertex_count as usize);
        }
        Graph {
            vertex_count,
            labels,
            forward,
            reverse,
            edge_hash_sum: OnceLock::new(),
            follow_counts: OnceLock::new(),
        }
    }

    /// Seeds the caches of a graph derived from a delta with the values
    /// the delta's update produced.
    pub(crate) fn with_caches(self, edge_hash_sum: u64, follow_counts: FollowCounts) -> Graph {
        Graph {
            edge_hash_sum: OnceLock::from(edge_hash_sum),
            follow_counts: OnceLock::from(follow_counts),
            ..self
        }
    }

    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count as usize
    }

    /// Number of distinct labels `|L|`.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.forward.len()
    }

    /// Total number of edges `|E|` across all labels.
    pub fn edge_count(&self) -> usize {
        self.forward.iter().map(|csr| csr.edge_count()).sum()
    }

    /// Number of edges carrying label `l` — the cardinality `f(l)` of the
    /// length-1 label path `l`... *almost*: `f(l)` counts distinct vertex
    /// pairs, and since the per-label relation is duplicate-free they
    /// coincide.
    #[inline]
    pub fn label_frequency(&self, l: LabelId) -> u64 {
        self.forward[l.index()].edge_count() as u64
    }

    /// All label ids, in id order.
    pub fn label_ids(&self) -> impl Iterator<Item = LabelId> + '_ {
        (0..self.forward.len() as u16).map(LabelId)
    }

    /// The label interner (names ⇄ ids).
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Successors of `v` via label `l`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId] {
        as_vertex_ids(self.forward[l.index()].neighbors(v.0))
    }

    /// Predecessors of `v` via label `l`, sorted ascending.
    #[inline]
    pub fn in_neighbors(&self, v: VertexId, l: LabelId) -> &[VertexId] {
        as_vertex_ids(self.reverse[l.index()].neighbors(v.0))
    }

    /// Raw `u32` successors — the hot-path variant used by relation
    /// composition in `phe-pathenum`.
    #[inline]
    pub fn out_neighbors_raw(&self, v: u32, l: LabelId) -> &[u32] {
        self.forward[l.index()].neighbors(v)
    }

    /// Raw `u32` predecessors.
    #[inline]
    pub fn in_neighbors_raw(&self, v: u32, l: LabelId) -> &[u32] {
        self.reverse[l.index()].neighbors(v)
    }

    /// The forward CSR of label `l`.
    #[inline]
    pub fn forward_csr(&self, l: LabelId) -> &Csr {
        &self.forward[l.index()]
    }

    /// The reverse CSR of label `l`.
    #[inline]
    pub fn reverse_csr(&self, l: LabelId) -> &Csr {
        &self.reverse[l.index()]
    }

    /// The shared handle to label `l`'s forward CSR.
    #[inline]
    pub(crate) fn forward_arc(&self, l: LabelId) -> &Arc<Csr> {
        &self.forward[l.index()]
    }

    /// The shared handle to label `l`'s reverse CSR.
    #[inline]
    pub(crate) fn reverse_arc(&self, l: LabelId) -> &Arc<Csr> {
        &self.reverse[l.index()]
    }

    /// Out-degree of `v` restricted to label `l`.
    #[inline]
    pub fn out_degree(&self, v: VertexId, l: LabelId) -> usize {
        self.forward[l.index()].degree(v.0)
    }

    /// In-degree of `v` restricted to label `l`.
    #[inline]
    pub fn in_degree(&self, v: VertexId, l: LabelId) -> usize {
        self.reverse[l.index()].degree(v.0)
    }

    /// Total out-degree of `v` across all labels.
    pub fn total_out_degree(&self, v: VertexId) -> usize {
        self.forward.iter().map(|csr| csr.degree(v.0)).sum()
    }

    /// Whether edge `(src, l, dst)` exists.
    pub fn has_edge(&self, src: VertexId, l: LabelId, dst: VertexId) -> bool {
        self.forward[l.index()].has_edge(src.0, dst.0)
    }

    /// Iterates every edge as `(src, label, dst)`, grouped by label.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, LabelId, VertexId)> + '_ {
        self.label_ids().flat_map(move |l| {
            self.forward[l.index()]
                .iter_edges()
                .map(move |(s, t)| (s, l, t))
        })
    }

    /// An order-independent hash of the graph's content: the vertex count
    /// mixed with the wrapping sum of a 64-bit hash of every
    /// `(src, label, dst)`. Two graphs with the same vertex count and edge
    /// set share it however they were built; any other difference changes
    /// it with overwhelming probability. O(|E|) on first use, then O(1);
    /// a graph from [`Graph::apply_delta`] inherits it updated in O(|Δ|).
    pub fn fingerprint(&self) -> u64 {
        mix64(self.edge_hash_sum() ^ mix64(u64::from(self.vertex_count)))
    }

    /// The fingerprint's edge part, which `apply_delta` carries forward.
    pub(crate) fn edge_hash_sum(&self) -> u64 {
        *self.edge_hash_sum.get_or_init(|| {
            self.iter_edges()
                .fold(0u64, |sum, (s, l, t)| sum.wrapping_add(edge_hash(s, l, t)))
        })
    }

    /// For every label pair `(a, b)`, the number of vertices with an
    /// in-edge labelled `a` and an out-edge labelled `b` — the evidence
    /// behind [`crate::FollowMatrix::from_graph`]. Computed on first use
    /// (O(|L|·|V| + |L|²·|V|/64)); a graph from [`Graph::apply_delta`]
    /// inherits it updated at the delta's endpoint vertices only.
    pub fn follow_counts(&self) -> &FollowCounts {
        self.follow_counts
            .get_or_init(|| FollowCounts::from_masks(self))
    }

    /// Rebuilds internal lookup indexes after deserialization.
    pub fn rebuild_after_deserialize(&mut self) {
        self.labels.rebuild_index();
    }
}

/// The SplitMix64 finalizer: a bijection on `u64` with full avalanche.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One edge's contribution to [`Graph::fingerprint`]. Injective before
/// the final mix: the first mix is a bijection of `(label, src)`, and
/// XOR-ing `dst` into it is a bijection for each of them.
#[inline]
pub(crate) fn edge_hash(s: VertexId, l: LabelId, t: VertexId) -> u64 {
    mix64(mix64((u64::from(l.0) << 32) | u64::from(s.0)) ^ u64::from(t.0))
}

/// Reinterprets a `&[u32]` as `&[VertexId]`.
///
/// Sound because `VertexId` is `#[repr(transparent)]` over `u32`.
#[inline]
fn as_vertex_ids(raw: &[u32]) -> &[VertexId] {
    // SAFETY: VertexId is repr(transparent) over u32, so layout and
    // alignment are identical and every bit pattern is valid.
    unsafe { std::slice::from_raw_parts(raw.as_ptr().cast::<VertexId>(), raw.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        // 0 -a-> 1 -b-> 3
        // 0 -a-> 2 -b-> 3
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 3);
        b.add_edge_named(2, "b", 3);
        b.build()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.label_count(), 2);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.label_frequency(LabelId(0)), 2);
        assert_eq!(g.label_frequency(LabelId(1)), 2);
    }

    #[test]
    fn adjacency_both_directions() {
        let g = diamond();
        let a = g.labels().get("a").unwrap();
        let b = g.labels().get("b").unwrap();
        assert_eq!(g.out_neighbors(VertexId(0), a), &[VertexId(1), VertexId(2)]);
        assert_eq!(g.in_neighbors(VertexId(3), b), &[VertexId(1), VertexId(2)]);
        assert_eq!(g.out_degree(VertexId(0), a), 2);
        assert_eq!(g.in_degree(VertexId(3), b), 2);
        assert_eq!(g.total_out_degree(VertexId(0)), 2);
    }

    #[test]
    fn has_edge_checks_label() {
        let g = diamond();
        let a = g.labels().get("a").unwrap();
        let b = g.labels().get("b").unwrap();
        assert!(g.has_edge(VertexId(0), a, VertexId(1)));
        assert!(!g.has_edge(VertexId(0), b, VertexId(1)));
    }

    #[test]
    fn iter_edges_total() {
        let g = diamond();
        let edges: Vec<(u32, u16, u32)> = g.iter_edges().map(|(s, l, t)| (s.0, l.0, t.0)).collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.contains(&(0, 0, 1)));
        assert!(edges.contains(&(2, 1, 3)));
    }

    #[test]
    fn raw_and_typed_neighbors_agree() {
        let g = diamond();
        let a = g.labels().get("a").unwrap();
        let typed: Vec<u32> = g
            .out_neighbors(VertexId(0), a)
            .iter()
            .map(|v| v.0)
            .collect();
        assert_eq!(typed, g.out_neighbors_raw(0, a));
    }
}
