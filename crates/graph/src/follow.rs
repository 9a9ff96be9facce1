//! The label-follow matrix: which labels can possibly continue a path.
//!
//! `follows(a, b)` holds when some `a`-edge target has an outgoing
//! `b`-edge. Any path `…/a/b` realized in the graph witnesses exactly
//! that, so the matrix is an **over-approximation** of "a realized path
//! ending in `a` can continue with `b`" — which makes pruning on its
//! complement sound: a label sequence with a non-following adjacent pair
//! has zero occurrences in the graph, for every source and target.
//!
//! Three layers consume it: the full-catalog counting kernel in
//! `phe-pathenum` (descending the label-path trie only along labels
//! that can follow), the delta-counting pipeline there (skipping
//! subtrees that can never reach a dirty label), and the query layer's
//! regular-path-expression expansion in `phe-query` (discarding
//! impossible concrete branches before they are estimated).

use crate::graph::Graph;
use crate::ids::LabelId;

/// A dense `|L| × |L|` boolean matrix of label followability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowMatrix {
    label_count: usize,
    bits: Vec<bool>,
}

impl FollowMatrix {
    /// Computes the matrix for one graph.
    pub fn from_graph(graph: &Graph) -> FollowMatrix {
        Self::from_graph_union(graph, graph)
    }

    /// Computes the matrix over the **union** of two graphs' edges (used
    /// by delta counting, where a path realized in either the old or the
    /// new graph must survive pruning). Both graphs must share a label
    /// alphabet.
    ///
    /// # Panics
    /// Panics when the label counts differ.
    pub fn from_graph_union(old: &Graph, new: &Graph) -> FollowMatrix {
        assert_eq!(
            old.label_count(),
            new.label_count(),
            "follow matrix needs a shared label alphabet"
        );
        let label_count = old.label_count();
        let vertex_count = old.vertex_count().max(new.vertex_count());
        let words = vertex_count.div_ceil(64).max(1);

        // target_mask[l]: vertices that are a target of an l-edge.
        // out_mask[l]: vertices with at least one outgoing l-edge.
        let mut target_mask = vec![vec![0u64; words]; label_count];
        let mut out_mask = vec![vec![0u64; words]; label_count];
        for graph in [old, new] {
            for l in graph.label_ids() {
                let csr = graph.forward_csr(l);
                for v in csr.non_empty_rows() {
                    out_mask[l.index()][v as usize / 64] |= 1 << (v % 64);
                    for &t in csr.neighbors(v) {
                        target_mask[l.index()][t as usize / 64] |= 1 << (t % 64);
                    }
                }
            }
        }
        let mut bits = vec![false; label_count * label_count];
        for a in 0..label_count {
            for b in 0..label_count {
                bits[a * label_count + b] = target_mask[a]
                    .iter()
                    .zip(&out_mask[b])
                    .any(|(x, y)| x & y != 0);
            }
        }
        FollowMatrix { label_count, bits }
    }

    /// Builds directly from a bit vector in `a · |L| + b` layout — for
    /// restoring a matrix that traveled without its graph (snapshots,
    /// wire formats).
    ///
    /// # Panics
    /// Panics when `bits.len() != label_count²`.
    pub fn from_bits(label_count: usize, bits: Vec<bool>) -> FollowMatrix {
        assert_eq!(bits.len(), label_count * label_count, "bit matrix shape");
        FollowMatrix { label_count, bits }
    }

    /// Number of labels the matrix covers.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Whether a `b`-edge can extend a path ending with an `a`-edge.
    #[inline]
    pub fn follows(&self, a: LabelId, b: LabelId) -> bool {
        self.bits[a.index() * self.label_count + b.index()]
    }

    /// Whether every adjacent label pair of `path` follows — a necessary
    /// condition for the path to occur in the graph at all. Singleton and
    /// empty paths trivially pass.
    pub fn allows(&self, path: &[LabelId]) -> bool {
        path.windows(2).all(|w| self.follows(w[0], w[1]))
    }

    /// The raw bit vector in `a · |L| + b` layout.
    pub fn as_bits(&self) -> &[bool] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    /// a: 0→1, b: 1→2, c: 3→4 — so a can be followed by b, nothing else.
    fn chain() -> Graph {
        let mut builder = GraphBuilder::new();
        builder.add_edge_named(0, "a", 1);
        builder.add_edge_named(1, "b", 2);
        builder.add_edge_named(3, "c", 4);
        builder.build()
    }

    #[test]
    fn follows_matches_graph_structure() {
        let g = chain();
        let f = FollowMatrix::from_graph(&g);
        let (a, b, c) = (LabelId(0), LabelId(1), LabelId(2));
        assert!(f.follows(a, b));
        assert!(!f.follows(b, a));
        assert!(!f.follows(a, c));
        assert!(!f.follows(c, a));
        assert_eq!(f.label_count(), 3);
    }

    #[test]
    fn allows_checks_every_adjacent_pair() {
        let g = chain();
        let f = FollowMatrix::from_graph(&g);
        let (a, b, c) = (LabelId(0), LabelId(1), LabelId(2));
        assert!(f.allows(&[a, b]));
        assert!(!f.allows(&[a, b, c]));
        assert!(f.allows(&[c]));
        assert!(f.allows(&[]));
    }

    #[test]
    fn union_covers_both_graphs() {
        let g = chain();
        let mut builder = GraphBuilder::new();
        // Same alphabet, but here c (label 2) feeds a (label 0).
        builder.add_edge_named(0, "a", 1);
        builder.add_edge_named(9, "b", 9);
        builder.add_edge_named(5, "c", 0);
        let h = builder.build();
        let f = FollowMatrix::from_graph_union(&g, &h);
        assert!(f.follows(LabelId(0), LabelId(1)), "from g");
        assert!(f.follows(LabelId(2), LabelId(0)), "from h");
        assert!(!f.follows(LabelId(1), LabelId(2)), "in neither");
    }

    #[test]
    fn round_trips_through_bits() {
        let f = FollowMatrix::from_graph(&chain());
        let g = FollowMatrix::from_bits(f.label_count(), f.as_bits().to_vec());
        assert_eq!(f, g);
    }
}
