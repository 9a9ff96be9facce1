//! Mutable accumulation of edges, frozen into an immutable [`Graph`].

use std::sync::Arc;

use crate::csr::Csr;
use crate::graph::Graph;
use crate::ids::{LabelId, VertexId};
use crate::interner::LabelInterner;

/// Accumulates `(src, label, dst)` triples and freezes them into a [`Graph`].
///
/// The builder is forgiving: vertices are created implicitly (the vertex
/// count is `max id + 1` unless raised with [`GraphBuilder::ensure_vertices`]),
/// duplicate edges are dropped at `build()` time, and labels can be referred
/// to by name or by pre-interned id.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    interner: LabelInterner,
    /// Per-label pair lists; index = label id.
    edges: Vec<Vec<(u32, u32)>>,
    vertex_count: u32,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder pre-sized for `vertices` vertices and `labels` labels named
    /// `"0", "1", …` — the anonymous-label convention used by the synthetic
    /// generators and by the paper's figures.
    pub fn with_numeric_labels(vertices: u32, labels: u16) -> Self {
        let mut b = GraphBuilder::new();
        b.ensure_vertices(vertices);
        for l in 0..labels {
            b.intern_label(&l.to_string());
        }
        b
    }

    /// Interns a label name, returning its id.
    ///
    /// # Panics
    /// Panics if the label alphabet overflows `u16` (65 536 labels). Use the
    /// interner directly via [`Graph::labels`] if you need fallible interning.
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        let id = self
            .interner
            .intern(name)
            .expect("label alphabet exceeds u16 capacity");
        while self.edges.len() <= id.index() {
            self.edges.push(Vec::new());
        }
        id
    }

    /// Raises the declared vertex count to at least `n`.
    pub fn ensure_vertices(&mut self, n: u32) {
        self.vertex_count = self.vertex_count.max(n);
    }

    /// Adds a directed edge `src --label--> dst`.
    pub fn add_edge(&mut self, src: VertexId, label: LabelId, dst: VertexId) {
        while self.edges.len() <= label.index() {
            self.edges.push(Vec::new());
        }
        self.edges[label.index()].push((src.0, dst.0));
        self.vertex_count = self.vertex_count.max(src.0 + 1).max(dst.0 + 1);
    }

    /// Adds a directed edge, interning the label name on the fly.
    pub fn add_edge_named(&mut self, src: u32, label: &str, dst: u32) {
        let l = self.intern_label(label);
        self.add_edge(VertexId(src), l, VertexId(dst));
    }

    /// Number of edges added so far (before de-duplication).
    pub fn pending_edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Number of labels interned so far.
    pub fn label_count(&self) -> usize {
        self.interner.len()
    }

    /// Access to the interner (e.g. to look up ids while generating).
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Freezes into an immutable [`Graph`]: builds forward and reverse CSR
    /// per label, sorting and de-duplicating edges.
    pub fn build(self) -> Graph {
        let n = self.vertex_count as usize;
        let mut forward = Vec::with_capacity(self.edges.len());
        let mut reverse = Vec::with_capacity(self.edges.len());
        for pairs in self.edges {
            let rev_pairs: Vec<(u32, u32)> = pairs.iter().map(|&(s, t)| (t, s)).collect();
            forward.push(Arc::new(Csr::from_pairs(n, pairs)));
            reverse.push(Arc::new(Csr::from_pairs(n, rev_pairs)));
        }
        Graph::from_parts(self.vertex_count, self.interner, forward, reverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_vertex_count() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 9);
        let g = b.build();
        assert_eq!(g.vertex_count(), 10);
    }

    #[test]
    fn ensure_vertices_allows_isolated_tail() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.ensure_vertices(100);
        let g = b.build();
        assert_eq!(g.vertex_count(), 100);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn duplicate_edges_dropped_at_build() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn parallel_edges_with_distinct_labels_kept() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "b", 1);
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.label_count(), 2);
    }

    #[test]
    fn numeric_labels_convention() {
        let b = GraphBuilder::with_numeric_labels(5, 3);
        assert_eq!(b.label_count(), 3);
        assert_eq!(b.interner().get("0"), Some(LabelId(0)));
        assert_eq!(b.interner().get("2"), Some(LabelId(2)));
        let g = b.build();
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.label_count(), 3);
    }

    #[test]
    fn reverse_adjacency_mirrors_forward() {
        let mut b = GraphBuilder::new();
        let a = b.intern_label("a");
        b.add_edge(VertexId(0), a, VertexId(2));
        b.add_edge(VertexId(1), a, VertexId(2));
        let g = b.build();
        assert_eq!(g.in_neighbors(VertexId(2), a), &[VertexId(0), VertexId(1)]);
        assert_eq!(g.out_neighbors(VertexId(2), a), &[] as &[VertexId]);
    }
}
