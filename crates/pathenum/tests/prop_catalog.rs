//! Property tests: the counting kernel — sequential and parallel, sparse
//! and as its dense view — agrees with the naive per-path oracle on
//! arbitrary graphs, including graphs whose sparse label-follow matrix
//! makes the kernel's pruning fire; and relation algebra invariants hold.

use phe_graph::{FixedBitSet, FollowMatrix, Graph, GraphBuilder, LabelId, VertexId};
use phe_pathenum::{naive, parallel, PathRelation, SelectivityCatalog, SparseCatalog};
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = (Graph, u16)> {
    (
        2u16..4,
        prop::collection::vec((0u32..25, 0u16..4, 0u32..25), 1..120),
    )
        .prop_map(|(labels, edges)| {
            let mut b = GraphBuilder::with_numeric_labels(25, labels);
            for (s, l, t) in edges {
                b.add_edge(VertexId(s), LabelId(l % labels), VertexId(t));
            }
            (b.build(), labels)
        })
}

/// Vertices per block of [`arb_chained_graph`].
const BLOCK: u32 = 4;

/// Chained labels, so most label pairs never follow: label `l < chain`
/// only runs from block `l` to block `l + 1` (followed by `l + 1` alone),
/// label `chain` has no edges at all, and a few random self-loops add the
/// odd extra follow pair. Returns the graph and its edgeless label.
fn arb_chained_graph() -> impl Strategy<Value = (Graph, LabelId)> {
    (
        2u16..5,
        prop::collection::vec((0u16..8, 0u32..BLOCK, 0u32..BLOCK), 1..40),
        prop::collection::vec((0u16..8, 0u32..64), 0..4),
    )
        .prop_map(|(chain, edges, loops)| {
            let vertices = (u32::from(chain) + 1) * BLOCK;
            let mut b = GraphBuilder::with_numeric_labels(vertices, chain + 1);
            for (l, s, t) in edges {
                let l = l % chain;
                let block = u32::from(l) * BLOCK;
                b.add_edge(VertexId(block + s), LabelId(l), VertexId(block + BLOCK + t));
            }
            for (l, v) in loops {
                let v = VertexId(v % vertices);
                b.add_edge(v, LabelId(l % chain), v);
            }
            (b.build(), LabelId(chain))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_catalog_matches_naive_oracle((g, _labels) in arb_graph(), k in 1usize..4) {
        let fast = SelectivityCatalog::compute(&g, k);
        let slow = naive::compute_catalog_naive(&g, k);
        prop_assert_eq!(fast.counts(), slow.counts());
    }

    #[test]
    fn parallel_catalog_matches_naive_oracle((g, _labels) in arb_graph(), k in 1usize..4, threads in 2usize..5) {
        let par = parallel::compute_parallel(&g, k, threads);
        let slow = naive::compute_catalog_naive(&g, k);
        prop_assert_eq!(par.counts(), slow.counts());
    }

    #[test]
    fn pruned_kernel_matches_naive_oracle_on_chained_labels((g, edgeless) in arb_chained_graph(), k in 1usize..6, threads in 2usize..5) {
        // The follow matrix really is sparse: the edgeless label neither
        // follows nor is followed by anything.
        let follows = FollowMatrix::from_graph(&g);
        for l in g.label_ids() {
            prop_assert!(!follows.follows(l, edgeless) && !follows.follows(edgeless, l));
        }
        let oracle = SparseCatalog::from_dense(&naive::compute_catalog_naive(&g, k));
        prop_assert_eq!(&SparseCatalog::compute(&g, k).unwrap(), &oracle);
        prop_assert_eq!(&SparseCatalog::compute_parallel(&g, k, threads).unwrap(), &oracle);
    }

    #[test]
    fn composition_is_associative((g, labels) in arb_graph()) {
        // (Ra ∘ Rb) ∘ Rc == Ra ∘ (Rb ∘ Rc) as pair sets.
        let la = LabelId(0);
        let lb = LabelId(1 % labels);
        let lc = LabelId(labels.saturating_sub(1));
        let mut scratch = FixedBitSet::new(g.vertex_count());
        let ra = PathRelation::from_label(&g, la);
        let rb = PathRelation::from_label(&g, lb);
        let rc = PathRelation::from_label(&g, lc);
        let left = ra.join(&rb, &mut scratch).join(&rc, &mut scratch);
        let right = ra.join(&rb.join(&rc, &mut scratch), &mut scratch);
        let lp: Vec<_> = left.iter_pairs().collect();
        let rp: Vec<_> = right.iter_pairs().collect();
        prop_assert_eq!(lp, rp);
    }

    #[test]
    fn evaluate_agrees_with_catalog((g, labels) in arb_graph(), raw_path in prop::collection::vec(0u16..4, 1..4)) {
        let path: Vec<LabelId> = raw_path.iter().map(|&l| LabelId(l % labels)).collect();
        let k = path.len();
        let catalog = SelectivityCatalog::compute(&g, k);
        let rel = PathRelation::evaluate(&g, &path);
        prop_assert_eq!(catalog.selectivity(&path), rel.pair_count());
    }

    #[test]
    fn selectivity_monotone_under_extension((g, labels) in arb_graph()) {
        // Pairs of an extended path never exceed |sources(prefix)| * |V|;
        // weaker but useful sanity: if prefix has zero pairs, extension does too.
        let catalog = SelectivityCatalog::compute(&g, 3);
        for l1 in 0..labels {
            for l2 in 0..labels {
                let prefix = [LabelId(l1)];
                let ext = [LabelId(l1), LabelId(l2)];
                if catalog.selectivity(&prefix) == 0 {
                    prop_assert_eq!(catalog.selectivity(&ext), 0);
                }
            }
        }
    }
}
