//! Ranking rules: bijections between base labels and ranks `[1, |B|]`.
//!
//! The paper defines two ranking rules over the edge label set `L`:
//!
//! * **alphabetical** — ranks follow the alphabetical order of label
//!   *names*;
//! * **cardinality** — ranks follow ascending label frequency,
//!   `l1 <card l2 ⟺ f(l1) < f(l2)` (lowest cardinality gets rank 1).
//!
//! Ties in cardinality are broken by label id so the ranking is always a
//! total order (the paper leaves ties unspecified).

use phe_graph::{Graph, LabelId};
use serde::{Deserialize, Serialize};

/// A materialized ranking: rank ⇄ label in both directions, O(1) each way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelRanking {
    /// `to_rank[label.index()]` = 1-based rank.
    to_rank: Vec<u32>,
    /// `from_rank[rank − 1]` = label.
    from_rank: Vec<LabelId>,
}

impl LabelRanking {
    /// Builds a ranking from labels listed in rank order (rank 1 first).
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `[0, |order|)` label ids.
    pub fn from_rank_order(order: Vec<LabelId>) -> LabelRanking {
        let n = order.len();
        let mut to_rank = vec![u32::MAX; n];
        for (i, l) in order.iter().enumerate() {
            assert!(l.index() < n, "label {l} out of range");
            assert_eq!(to_rank[l.index()], u32::MAX, "label {l} listed twice");
            to_rank[l.index()] = (i + 1) as u32;
        }
        LabelRanking {
            to_rank,
            from_rank: order,
        }
    }

    /// Alphabetical ranking over a graph's label names.
    pub fn alphabetical(graph: &Graph) -> LabelRanking {
        LabelRanking::from_rank_order(graph.labels().ids_sorted_by_name())
    }

    /// Cardinality ranking from explicit frequencies (`freqs[i] = f(lᵢ)`):
    /// lowest frequency first, ties by label id.
    pub fn cardinality_from_frequencies(freqs: &[u64]) -> LabelRanking {
        // Up to 65,536 ids (the sum-based-L2 pair ranking of 256 labels):
        // truncating the length to `u16` would rank none of them.
        let mut ids: Vec<LabelId> = (0..freqs.len()).map(|i| LabelId(i as u16)).collect();
        ids.sort_by_key(|l| (freqs[l.index()], l.0));
        LabelRanking::from_rank_order(ids)
    }

    /// Cardinality ranking over a graph's edge-label frequencies.
    pub fn cardinality(graph: &Graph) -> LabelRanking {
        let freqs: Vec<u64> = graph
            .label_ids()
            .map(|l| graph.label_frequency(l))
            .collect();
        LabelRanking::cardinality_from_frequencies(&freqs)
    }

    /// Identity ranking (label id `i` ⇒ rank `i + 1`). Alphabetical over
    /// single-character numeric names, and handy in tests.
    pub fn identity(n: usize) -> LabelRanking {
        LabelRanking::from_rank_order((0..n as u16).map(LabelId).collect())
    }

    /// Number of ranked labels `|B|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.from_rank.len()
    }

    /// Whether the ranking is over zero labels.
    pub fn is_empty(&self) -> bool {
        self.from_rank.is_empty()
    }

    /// The 1-based rank of `label`.
    #[inline]
    pub fn rank(&self, label: LabelId) -> u32 {
        self.to_rank[label.index()]
    }

    /// The full rank assignment, indexed by label id — two rankings with
    /// equal sequences define the same bijection (the identity behind
    /// ordered-run reuse in incremental rebuilds).
    pub fn rank_sequence(&self) -> Vec<u32> {
        self.to_rank.clone()
    }

    /// The label holding 1-based `rank`.
    #[inline]
    pub fn unrank(&self, rank: u32) -> LabelId {
        self.from_rank[(rank - 1) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_graph::GraphBuilder;

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }

    #[test]
    fn paper_example_cardinality_ranking() {
        // The Section 3.4 example: labels "1","2","3" with cardinalities
        // 20, 100, 80 → rank order 1, 3, 2.
        let r = LabelRanking::cardinality_from_frequencies(&[20, 100, 80]);
        assert_eq!(r.rank(l(0)), 1); // "1"
        assert_eq!(r.rank(l(2)), 2); // "3"
        assert_eq!(r.rank(l(1)), 3); // "2"
        assert_eq!(r.unrank(1), l(0));
        assert_eq!(r.unrank(2), l(2));
        assert_eq!(r.unrank(3), l(1));
    }

    #[test]
    fn cardinality_ranking_covers_every_u16_id() {
        // 256 labels give 65,536 L2 pair pseudo-labels, ids 0..=65535.
        let freqs: Vec<u64> = (0..65_536u64).map(|i| i % 7).collect();
        let r = LabelRanking::cardinality_from_frequencies(&freqs);
        assert_eq!(r.len(), 65_536);
        assert_eq!(r.unrank(r.rank(l(u16::MAX))), l(u16::MAX));
    }

    #[test]
    fn rank_unrank_roundtrip() {
        let r = LabelRanking::cardinality_from_frequencies(&[5, 3, 9, 1]);
        for label in 0..4u16 {
            assert_eq!(r.unrank(r.rank(l(label))), l(label));
        }
        for rank in 1..=4u32 {
            assert_eq!(r.rank(r.unrank(rank)), rank);
        }
    }

    #[test]
    fn cardinality_tie_breaks_by_id() {
        let r = LabelRanking::cardinality_from_frequencies(&[7, 7, 7]);
        assert_eq!(r.rank(l(0)), 1);
        assert_eq!(r.rank(l(1)), 2);
        assert_eq!(r.rank(l(2)), 3);
    }

    #[test]
    fn alphabetical_uses_names_not_ids() {
        let mut b = GraphBuilder::new();
        // Interned order: zeta(0), alpha(1), mid(2).
        b.add_edge_named(0, "zeta", 1);
        b.add_edge_named(0, "alpha", 1);
        b.add_edge_named(0, "mid", 1);
        let g = b.build();
        let r = LabelRanking::alphabetical(&g);
        assert_eq!(r.rank(g.labels().get("alpha").unwrap()), 1);
        assert_eq!(r.rank(g.labels().get("mid").unwrap()), 2);
        assert_eq!(r.rank(g.labels().get("zeta").unwrap()), 3);
    }

    #[test]
    fn cardinality_from_graph() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "a", 2);
        b.add_edge_named(0, "b", 1);
        let g = b.build();
        let r = LabelRanking::cardinality(&g);
        // b (1 edge) ranks before a (2 edges).
        assert_eq!(r.rank(g.labels().get("b").unwrap()), 1);
        assert_eq!(r.rank(g.labels().get("a").unwrap()), 2);
    }

    #[test]
    fn identity_ranking() {
        let r = LabelRanking::identity(4);
        for i in 0..4u16 {
            assert_eq!(r.rank(l(i)), i as u32 + 1);
        }
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_label_rejected() {
        LabelRanking::from_rank_order(vec![l(0), l(0)]);
    }
}
