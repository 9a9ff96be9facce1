//! Property tests for the graph substrate: CSR invariants, builder
//! determinism, bitset behaviour against a reference set, TSV round-trips,
//! and delta-composition equivalence.

use std::collections::{BTreeSet, HashSet};

use phe_graph::{Csr, FixedBitSet, GraphBuilder, GraphDelta, LabelId, VertexId};
use proptest::prelude::*;

/// Strategy: an arbitrary edge list over small id spaces.
fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u16, u32)>> {
    prop::collection::vec((0u32..40, 0u16..5, 0u32..40), 0..200)
}

proptest! {
    #[test]
    fn csr_neighbors_sorted_and_deduped(pairs in prop::collection::vec((0u32..30, 0u32..30), 0..150)) {
        let csr = Csr::from_pairs(30, pairs.clone());
        let unique: HashSet<(u32, u32)> = pairs.into_iter().collect();
        prop_assert_eq!(csr.edge_count(), unique.len());
        for v in 0..30u32 {
            let ns = csr.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "row {} not strictly sorted", v);
            for &t in ns {
                prop_assert!(unique.contains(&(v, t)));
            }
        }
        // Every input pair is findable.
        for (s, t) in unique {
            prop_assert!(csr.has_edge(s, t));
        }
    }

    #[test]
    fn graph_forward_reverse_are_inverses(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        for l in 0..5u16 {
            b.intern_label(&format!("L{l}"));
        }
        for &(s, l, t) in &edges {
            b.add_edge(VertexId(s), LabelId(l), VertexId(t));
        }
        b.ensure_vertices(40);
        let g = b.build();
        for l in 0..5u16 {
            let l = LabelId(l);
            for v in 0..40u32 {
                for &t in g.out_neighbors_raw(v, l) {
                    prop_assert!(g.in_neighbors_raw(t, l).binary_search(&v).is_ok(),
                        "forward edge ({v},{l:?},{t}) missing from reverse");
                }
                for &s in g.in_neighbors_raw(v, l) {
                    prop_assert!(g.out_neighbors_raw(s, l).binary_search(&v).is_ok(),
                        "reverse edge ({s},{l:?},{v}) missing from forward");
                }
            }
        }
    }

    #[test]
    fn edge_count_equals_distinct_triples(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        for l in 0..5u16 {
            b.intern_label(&format!("L{l}"));
        }
        for &(s, l, t) in &edges {
            b.add_edge(VertexId(s), LabelId(l), VertexId(t));
        }
        let g = b.build();
        let distinct: HashSet<(u32, u16, u32)> = edges.into_iter().collect();
        prop_assert_eq!(g.edge_count(), distinct.len());
        let freq_sum: u64 = g.label_ids().map(|l| g.label_frequency(l)).sum();
        prop_assert_eq!(freq_sum as usize, g.edge_count());
    }

    #[test]
    fn bitset_matches_btreeset(values in prop::collection::vec(0u32..500, 0..300)) {
        let mut bs = FixedBitSet::new(500);
        let mut reference = BTreeSet::new();
        for &v in &values {
            let newly_bs = bs.insert(v);
            let newly_ref = reference.insert(v);
            prop_assert_eq!(newly_bs, newly_ref);
        }
        prop_assert_eq!(bs.len(), reference.len());
        let got: Vec<u32> = bs.iter().collect();
        let want: Vec<u32> = reference.iter().copied().collect();
        prop_assert_eq!(&got, &want);
        let mut drained = Vec::new();
        bs.drain_sorted_into(&mut drained);
        prop_assert_eq!(&drained, &want);
        prop_assert!(bs.is_empty());
    }

    #[test]
    fn tsv_round_trip(edges in edges_strategy()) {
        let mut b = GraphBuilder::new();
        for l in 0..5u16 {
            b.intern_label(&format!("L{l}"));
        }
        for &(s, l, t) in &edges {
            b.add_edge(VertexId(s), LabelId(l), VertexId(t));
        }
        let g = b.build();
        let mut buf = Vec::new();
        phe_graph::io::write_tsv(&g, &mut buf).unwrap();
        let g2 = phe_graph::io::read_tsv(buf.as_slice()).unwrap();
        prop_assert_eq!(g.edge_count(), g2.edge_count());
        for (s, l, t) in g.iter_edges() {
            let name = g.labels().name(l).unwrap();
            if let Some(l2) = g2.labels().get(name) {
                prop_assert!(g2.has_edge(s, l2, t));
            } else {
                prop_assert!(false, "label {} lost in round trip", name);
            }
        }
    }
}

// One bitset reused round after round, as `compose` and delta counting
// reuse theirs across sources: every round starts from the previous
// round's reset (a drain or a clear), and one round inserts every value
// (twice) so the touched buffer fills and `clear` takes its bulk path.
proptest! {
    #[test]
    fn bitset_reuse_matches_btreeset_across_rounds(
        rounds in prop::collection::vec(
            (
                prop::collection::vec(0u32..500, 0..120),
                prop::sample::select(vec![true, false]),
            ),
            1..6,
        ),
        full_round in 0usize..6,
    ) {
        let mut plan = rounds;
        let every_value: Vec<u32> = (0..500).rev().chain(0..500).collect();
        plan.insert(full_round.min(plan.len()), (every_value, false));
        let mut bs = FixedBitSet::new(500);
        for (values, drain) in plan {
            let mut reference = BTreeSet::new();
            for &v in &values {
                prop_assert_eq!(bs.insert(v), reference.insert(v), "insert({})", v);
                prop_assert_eq!(bs.len(), reference.len());
            }
            for v in 0..500u32 {
                prop_assert_eq!(bs.contains(v), reference.contains(&v), "contains({})", v);
            }
            let want: Vec<u32> = reference.iter().copied().collect();
            prop_assert_eq!(bs.iter().collect::<Vec<u32>>(), want.clone());
            if drain {
                // Draining appends after whatever the output already holds.
                let mut drained = vec![u32::MAX];
                bs.drain_sorted_into(&mut drained);
                prop_assert_eq!(drained[0], u32::MAX);
                prop_assert_eq!(&drained[1..], &want[..]);
            } else {
                bs.clear();
            }
            prop_assert!(bs.is_empty());
            prop_assert_eq!(bs.iter().count(), 0);
        }
    }
}

// Compacting a queue of sequentially-valid batches into one delta
// (`GraphDelta::compose`) must reach exactly the graph the batches reach
// one at a time — across random churn, cross-batch insert-then-remove
// cancellation, and growth onto new vertices.
proptest! {
    #[test]
    fn composed_delta_equals_sequential_application(
        edges in edges_strategy(),
        proposals in prop::collection::vec(
            // Vertex ids run past the base graph's 40 so batches grow |V|.
            prop::collection::vec((0u32..48, 0u16..5, 0u32..48), 0..40),
            1..8,
        ),
    ) {
        let mut b = GraphBuilder::new();
        for l in 0..5u16 {
            b.intern_label(&format!("L{l}"));
        }
        for &(s, l, t) in &edges {
            b.add_edge(VertexId(s), LabelId(l), VertexId(t));
        }
        b.ensure_vertices(40);
        let base = b.build();

        // Turn raw proposals into sequentially-valid batches: an edge
        // present in the evolving graph becomes a removal, an absent one
        // an insertion. Triples recur across batches, so compositions
        // routinely contain insert-then-remove and remove-then-reinsert
        // pairs that must cancel.
        let mut current: HashSet<(u32, u16, u32)> = base
            .iter_edges()
            .map(|(s, l, t)| (s.0, l.0, t.0))
            .collect();
        let mut batches: Vec<GraphDelta> = Vec::new();
        for batch_proposals in &proposals {
            let mut batch = GraphDelta::new();
            let mut touched: HashSet<(u32, u16, u32)> = HashSet::new();
            for &(s, l, t) in batch_proposals {
                if !touched.insert((s, l, t)) {
                    continue;
                }
                if current.remove(&(s, l, t)) {
                    batch.remove(VertexId(s), LabelId(l), VertexId(t));
                } else {
                    batch.insert(VertexId(s), LabelId(l), VertexId(t));
                    current.insert((s, l, t));
                }
            }
            batches.push(batch);
        }

        let mut sequential = base.clone();
        for batch in &batches {
            sequential = sequential.apply_delta(batch).unwrap();
        }
        let composed = GraphDelta::compose(&batches);
        let compacted = base.apply_delta(&composed).unwrap();

        let seq_edges: BTreeSet<(u32, u16, u32)> = sequential
            .iter_edges()
            .map(|(s, l, t)| (s.0, l.0, t.0))
            .collect();
        let comp_edges: BTreeSet<(u32, u16, u32)> = compacted
            .iter_edges()
            .map(|(s, l, t)| (s.0, l.0, t.0))
            .collect();
        prop_assert_eq!(&seq_edges, &comp_edges);
        prop_assert_eq!(seq_edges, current.into_iter().collect::<BTreeSet<_>>());
        // Cancellation can only shrink the composed batch, never grow it.
        let total_ops: usize = batches.iter().map(GraphDelta::edge_count).sum();
        prop_assert!(composed.edge_count() <= total_ops);
        // Cancelled growth means the compacted graph may allocate fewer
        // vertex rows, never more.
        prop_assert!(compacted.vertex_count() <= sequential.vertex_count());
    }
}
