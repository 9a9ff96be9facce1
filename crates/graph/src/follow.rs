//! The label-follow matrix: which labels can possibly continue a path.
//!
//! `follows(a, b)` holds when some `a`-edge target has an outgoing
//! `b`-edge. Any path `…/a/b` realized in the graph witnesses exactly
//! that, so the matrix is an **over-approximation** of "a realized path
//! ending in `a` can continue with `b`" — which makes pruning on its
//! complement sound: a label sequence with a non-following adjacent pair
//! has zero occurrences in the graph, for every source and target.
//!
//! The matrix is read off per-pair witness counts ([`FollowCounts`])
//! that the graph caches and [`Graph::apply_delta`] keeps current, so a
//! maintained graph never recomputes it.
//!
//! Three layers consume it: the full-catalog counting kernel in
//! `phe-pathenum` (descending the label-path trie only along labels
//! that can follow), the delta-counting pipeline there (skipping
//! subtrees that can never reach a dirty label, with the OR of the old
//! and new graphs' matrices), and the query layer's
//! regular-path-expression expansion in `phe-query` (discarding
//! impossible concrete branches before they are estimated).

use crate::csr::Csr;
use crate::delta::GraphDelta;
use crate::graph::Graph;
use crate::ids::LabelId;

/// Per-pair witness counts: `count(a, b)` is the number of vertices with
/// an in-edge labelled `a` and an out-edge labelled `b`. `follows(a, b)`
/// is exactly `count(a, b) > 0`; the counts are what lets a graph change
/// update the matrix at its endpoint vertices instead of recomputing it
/// (see [`Graph::follow_counts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowCounts {
    label_count: usize,
    counts: Vec<u32>,
}

impl FollowCounts {
    /// Counts from per-label vertex masks: `in_mask[a]` marks vertices
    /// with an `a`-edge in, `out_mask[b]` those with a `b`-edge out, and
    /// `count(a, b)` is the popcount of their intersection.
    pub(crate) fn from_masks(graph: &Graph) -> FollowCounts {
        let label_count = graph.label_count();
        let words = graph.vertex_count().div_ceil(64).max(1);
        let mask = |csr: &Csr| {
            let mut mask = vec![0u64; words];
            for v in csr.non_empty_rows() {
                mask[v as usize / 64] |= 1 << (v % 64);
            }
            mask
        };
        let in_masks: Vec<Vec<u64>> = graph
            .label_ids()
            .map(|l| mask(graph.reverse_csr(l)))
            .collect();
        let out_masks: Vec<Vec<u64>> = graph
            .label_ids()
            .map(|l| mask(graph.forward_csr(l)))
            .collect();
        let mut counts = Vec::with_capacity(label_count * label_count);
        for in_mask in &in_masks {
            for out_mask in &out_masks {
                counts.push(
                    in_mask
                        .iter()
                        .zip(out_mask)
                        .map(|(x, y)| (x & y).count_ones())
                        .sum(),
                );
            }
        }
        FollowCounts {
            label_count,
            counts,
        }
    }

    /// `old`'s counts carried to `new`, the graph `delta` turns it into.
    /// A vertex's witnesses change only where a changed edge empties or
    /// first fills one of its label rows — the `l`-row out of the edge's
    /// source or into its target — so only those rows are tested. Each
    /// flipped row is folded against the vertex's other side: in-row
    /// flips against its old out-labels, then out-row flips against its
    /// new in-labels, which takes `in × out` to `in' × out'` exactly.
    pub(crate) fn carried(old: &Graph, new: &Graph, delta: &GraphDelta) -> FollowCounts {
        let mut counts = old.follow_counts().clone();
        let n = counts.label_count;
        // `(vertex, is_out, label)`; in-rows sort before out-rows.
        let mut rows: Vec<(u32, bool, LabelId)> = delta
            .insertions()
            .iter()
            .chain(delta.removals())
            .flat_map(|&(s, l, t)| [(s.0, true, l), (t.0, false, l)])
            .collect();
        rows.sort_unstable();
        rows.dedup();
        for (v, out, l) in rows {
            let gained = has_row(new, v, out, l);
            if gained == has_row(old, v, out, l) {
                continue;
            }
            let (other_side, other_out) = if out { (new, false) } else { (old, true) };
            for m in other_side.label_ids() {
                if !has_row(other_side, v, other_out, m) {
                    continue;
                }
                let (a, b) = if out { (m, l) } else { (l, m) };
                if let Some(count) = counts.counts.get_mut(a.index() * n + b.index()) {
                    *count = if gained {
                        count.wrapping_add(1)
                    } else {
                        count.wrapping_sub(1)
                    };
                }
            }
        }
        counts
    }

    /// Number of labels the counts cover.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// How many vertices witness that a `b`-edge can follow an `a`-edge.
    #[inline]
    pub fn count(&self, a: LabelId, b: LabelId) -> u32 {
        self.counts[a.index() * self.label_count + b.index()]
    }
}

/// Whether `v` has an `l`-edge out (`out`) or in (`!out`); `false` past
/// the vertex set.
fn has_row(graph: &Graph, v: u32, out: bool, l: LabelId) -> bool {
    let csr = if out {
        graph.forward_csr(l)
    } else {
        graph.reverse_csr(l)
    };
    (v as usize) < csr.row_count() && csr.degree(v) > 0
}

/// A dense `|L| × |L|` boolean matrix of label followability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowMatrix {
    label_count: usize,
    bits: Vec<bool>,
}

impl FollowMatrix {
    /// The matrix of one graph, read off its cached
    /// [`Graph::follow_counts`] in O(|L|²).
    pub fn from_graph(graph: &Graph) -> FollowMatrix {
        let counts = graph.follow_counts();
        FollowMatrix {
            label_count: counts.label_count,
            bits: counts.counts.iter().map(|&c| c > 0).collect(),
        }
    }

    /// The pairs that follow in either matrix (a bitwise OR) — the
    /// pruning matrix of delta counting, where a path realized in the
    /// old or the new graph must survive.
    ///
    /// # Panics
    /// Panics when the label counts differ.
    pub fn union(&self, other: &FollowMatrix) -> FollowMatrix {
        assert_eq!(
            self.label_count, other.label_count,
            "follow matrix union needs a shared label alphabet"
        );
        FollowMatrix {
            label_count: self.label_count,
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&x, &y)| x | y)
                .collect(),
        }
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
    fn union_ors_the_two_matrices() {
        let g = chain();
        let mut builder = GraphBuilder::new();
        // Same alphabet, but here c (label 2) feeds a (label 0), and c
        // leaves vertex 2, where only `g` has a b-edge arriving.
        builder.add_edge_named(0, "a", 1);
        builder.add_edge_named(9, "b", 9);
        builder.add_edge_named(5, "c", 0);
        builder.add_edge_named(2, "c", 7);
        let h = builder.build();
        let (fg, fh) = (FollowMatrix::from_graph(&g), FollowMatrix::from_graph(&h));
        let f = fg.union(&fh);
        let (a, b, c) = (LabelId(0), LabelId(1), LabelId(2));
        assert!(f.follows(a, b), "from g");
        assert!(f.follows(c, a), "from h");
        // Vertex 2 has a b-edge in (g) and a c-edge out (h): a graph of
        // both edge sets would witness b/c, but neither graph does.
        assert!(!f.follows(b, c), "in neither");
        for (i, &bit) in f.as_bits().iter().enumerate() {
            assert_eq!(bit, fg.as_bits()[i] || fh.as_bits()[i]);
        }
    }

    #[test]
    fn counts_witness_vertices() {
        // 0 -a-> 1 -b-> 2 and 3 -a-> 4 -b-> 5, plus 4 -c-> 6: two vertices
        // witness a/b, one witnesses a/c.
        let mut builder = GraphBuilder::new();
        builder.add_edge_named(0, "a", 1);
        builder.add_edge_named(1, "b", 2);
        builder.add_edge_named(3, "a", 4);
        builder.add_edge_named(4, "b", 5);
        builder.add_edge_named(4, "c", 6);
        let g = builder.build();
        let counts = g.follow_counts();
        let (a, b, c) = (LabelId(0), LabelId(1), LabelId(2));
        assert_eq!(counts.count(a, b), 2);
        assert_eq!(counts.count(a, c), 1);
        assert_eq!(counts.count(b, c), 0);
        assert_eq!(counts.label_count(), 3);
    }

    #[test]
    fn round_trips_through_bits() {
        let f = FollowMatrix::from_graph(&chain());
        let g = FollowMatrix::from_bits(f.label_count(), f.as_bits().to_vec());
        assert_eq!(f, g);
    }
}
