//! Property tests: the counting kernel — sequential and parallel, sparse
//! and as its dense view — agrees with the naive per-path oracle on
//! arbitrary graphs, including graphs whose sparse label-follow matrix
//! makes the kernel's pruning fire; delta counting merged into the base
//! catalog agrees with the oracle on the changed graph; and relation
//! algebra invariants hold. The kernel's two relation representations
//! agree with the oracle on graphs that switch to the target-major form
//! at the roots, mid-trie, and never, and on graphs where a switched
//! subtree returns to the source-major form.

use std::collections::HashSet;

use phe_graph::delta::GraphDelta;
use phe_graph::{FixedBitSet, FollowMatrix, Graph, GraphBuilder, LabelId, VertexId};
use phe_pathenum::{compute_delta, naive, PathRelation, SparseCatalog};
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

/// Many sources, few targets: each of `sources` (65 or more, so a source
/// mask takes at least two words and sources sit at bits 63 and 64)
/// points label 0 at one of a handful of hubs, the hubs point label 1 at
/// a few sinks, and the sinks point label 2 back at the sources. Every
/// root fans in, so the kernel switches to the target-major form at
/// depth 1.
fn arb_hub_graph() -> impl Strategy<Value = Graph> {
    (
        65u32..160,
        1u32..6,
        prop::collection::vec((0u32..160, 0u32..6), 0..120),
        prop::collection::vec((0u32..6, 0u32..8), 1..20),
        prop::collection::vec((0u32..8, 0u32..160), 1..30),
    )
        .prop_map(|(sources, hubs, extra, fan_out, back)| {
            let hub = |h: u32| VertexId(sources + h % hubs);
            let sink = |x: u32| VertexId(sources + hubs + x);
            let mut b = GraphBuilder::with_numeric_labels(sources + hubs + 8, 3);
            for s in 0..sources {
                b.add_edge(VertexId(s), LabelId(0), hub(s));
            }
            for (s, h) in extra {
                b.add_edge(VertexId(s % sources), LabelId(0), hub(h));
            }
            for (h, x) in fan_out {
                b.add_edge(hub(h), LabelId(1), sink(x));
            }
            for (x, s) in back {
                b.add_edge(sink(x), LabelId(2), VertexId(s % sources));
            }
            b.build()
        })
}

/// Hubs beside a sparse fan-out: each of `sources` (65 or more) points
/// label 0 at every one of a few hubs, which have no out-edges, and a few
/// sources also point label 0 at a vertex of their own that fans out over
/// label 1 to fresh vertices, some of which lead back to the sources over
/// label 2. The root `0` fans in and switches to the target-major form,
/// but each row of its child `0/1` holds one source, so that child (or
/// the leaf pass, at `k = 2`) is expanded source-major where the fan-out
/// outweighs the mask width.
fn arb_hub_fan_out_graph() -> impl Strategy<Value = Graph> {
    (
        65u32..200,
        2u32..5,
        prop::collection::vec((0u32..200, 1u32..40), 1..20),
        prop::collection::vec((0u32..800, 0u32..200), 0..20),
    )
        .prop_map(|(sources, hubs, fans, back)| {
            let fresh = sources + hubs + 20;
            let mut b = GraphBuilder::with_numeric_labels(fresh + 800, 3);
            for s in 0..sources {
                for h in 0..hubs {
                    b.add_edge(VertexId(s), LabelId(0), VertexId(sources + h));
                }
            }
            let mut next = fresh;
            for (i, (s, degree)) in fans.into_iter().enumerate() {
                let own = VertexId(sources + hubs + i as u32);
                b.add_edge(VertexId(s % sources), LabelId(0), own);
                for _ in 0..degree {
                    b.add_edge(own, LabelId(1), VertexId(next));
                    next += 1;
                }
            }
            for (f, s) in back {
                b.add_edge(
                    VertexId(fresh + f % (next - fresh)),
                    LabelId(2),
                    VertexId(s % sources),
                );
            }
            b.build()
        })
}

/// Erdős–Rényi-like: about a thousand vertices and one out-edge per
/// vertex and label, at random. Relations keep hundreds of sources, so a
/// source mask takes several words, while few sources share a target, so
/// a sequential build stays source-major (bar the odd deep relation that
/// happens to fan in).
fn arb_sparse_graph() -> impl Strategy<Value = Graph> {
    (
        900u32..1100,
        prop::collection::vec((0u32..1100, 0u16..3, 0u32..1100), 2700..3300),
    )
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::with_numeric_labels(n, 3);
            for (s, l, t) in edges {
                b.add_edge(VertexId(s % n), LabelId(l), VertexId(t % n));
            }
            b.build()
        })
}

/// A chain of three blocks that narrows: label 0 maps a wide block
/// (65 or more vertices) one to one onto a second wide block, plus fewer
/// extra edges than the block has vertices, so its root relation does
/// not fan in; label 1 funnels the second block into at most three
/// vertices, and label 2 leads back to the first block. The relation
/// `0/1` fans in, so the kernel switches mid-trie.
fn arb_funnel_graph() -> impl Strategy<Value = Graph> {
    (
        65u32..130,
        1u32..4,
        prop::collection::vec((0u32..130, 0u32..130), 0..60),
        prop::collection::vec((0u32..130, 0u32..4), 1..150),
        prop::collection::vec((0u32..4, 0u32..130), 1..10),
    )
        .prop_map(|(wide, narrow, extra, funnel, back)| {
            let first = |v: u32| VertexId(v % wide);
            let second = |v: u32| VertexId(wide + v % wide);
            let third = |v: u32| VertexId(2 * wide + v % narrow);
            let mut b = GraphBuilder::with_numeric_labels(2 * wide + narrow, 3);
            for v in 0..wide {
                b.add_edge(first(v), LabelId(0), second(v));
            }
            for (s, t) in extra {
                b.add_edge(first(s), LabelId(0), second(t));
            }
            for (s, t) in funnel {
                b.add_edge(second(s), LabelId(1), third(t));
            }
            for (s, t) in back {
                b.add_edge(third(s), LabelId(2), first(t));
            }
            b.build()
        })
}

/// The sequential kernel equals the naive oracle, and the parallel build
/// at 2–5 threads — whose source-range tasks give each relation fewer
/// sources, and so switch differently — equals the sequential one.
fn assert_kernel_matches(g: &Graph, k: usize) -> Result<(), TestCaseError> {
    let sequential = SparseCatalog::compute(g, k).unwrap();
    prop_assert_eq!(&sequential, &naive::compute_catalog_naive(g, k));
    for threads in 2..=5 {
        let parallel = SparseCatalog::compute_parallel(g, k, threads).unwrap();
        prop_assert_eq!(&parallel, &sequential, "threads = {}", threads);
    }
    Ok(())
}

/// Churn on the follow-adjacent labels `band` and `band + 1` of a chained
/// graph: each edit `(step, s, t)` names the block edge `s → t` of label
/// `band + step` (`step` is 0 or 1), removed when the graph has it and
/// inserted when not (repeats are skipped).
fn band_churn(graph: &Graph, band: u16, edits: &[(u16, u32, u32)]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut seen = HashSet::new();
    for &(step, s, t) in edits {
        let l = band + step;
        let block = u32::from(l) * BLOCK;
        let (s, t) = (VertexId(block + s), VertexId(block + BLOCK + t));
        if !seen.insert((s, t, l)) {
            continue;
        }
        if graph.has_edge(s, LabelId(l), t) {
            delta.remove(s, LabelId(l), t);
        } else {
            delta.insert(s, LabelId(l), t);
        }
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_delta_matches_naive_oracle_under_band_churn(
        (g, edgeless) in arb_chained_graph(),
        band in 0u16..3,
        edits in prop::collection::vec((0u16..2, 0u32..BLOCK, 0u32..BLOCK), 1..12),
        k in 1usize..6,
    ) {
        // Labels `band` and `band + 1` follow each other along the chain
        // (`edgeless` is the chain length).
        let band = band % (edgeless.0 - 1);
        let delta = band_churn(&g, band, &edits);
        let new = g.apply_delta(&delta).unwrap();
        let base = naive::compute_catalog_naive(&g, k);
        let run = compute_delta(&g, &new, &delta, k).unwrap();
        let oracle = naive::compute_catalog_naive(&new, k);
        prop_assert_eq!(&base.merge_delta(&run).unwrap(), &oracle);
    }

    #[test]
    fn trie_catalog_matches_naive_oracle((g, _labels) in arb_graph(), k in 1usize..4) {
        let fast = SparseCatalog::compute(&g, k).unwrap();
        let slow = naive::compute_catalog_naive(&g, k);
        prop_assert_eq!(&fast, &slow);
    }

    #[test]
    fn parallel_catalog_matches_naive_oracle((g, _labels) in arb_graph(), k in 1usize..4, threads in 1usize..9) {
        let par = SparseCatalog::compute_parallel(&g, k, threads).unwrap();
        let slow = naive::compute_catalog_naive(&g, k);
        prop_assert_eq!(&par, &slow);
    }

    #[test]
    fn pruned_kernel_matches_naive_oracle_on_chained_labels((g, edgeless) in arb_chained_graph(), k in 1usize..6, threads in 2usize..5) {
        // The follow matrix really is sparse: the edgeless label neither
        // follows nor is followed by anything.
        let follows = FollowMatrix::from_graph(&g);
        for l in g.label_ids() {
            prop_assert!(!follows.follows(l, edgeless) && !follows.follows(edgeless, l));
        }
        let oracle = naive::compute_catalog_naive(&g, k);
        prop_assert_eq!(&SparseCatalog::compute(&g, k).unwrap(), &oracle);
        prop_assert_eq!(&SparseCatalog::compute_parallel(&g, k, threads).unwrap(), &oracle);
    }

    #[test]
    fn both_kernels_match_naive_oracle_on_hub_graphs(g in arb_hub_graph(), k in 1usize..5) {
        assert_kernel_matches(&g, k)?;
    }

    #[test]
    fn both_kernels_match_naive_oracle_on_hub_fan_out_graphs(g in arb_hub_fan_out_graph(), k in 1usize..5) {
        assert_kernel_matches(&g, k)?;
    }

    #[test]
    fn both_kernels_match_naive_oracle_on_sparse_graphs(g in arb_sparse_graph(), k in 1usize..5) {
        assert_kernel_matches(&g, k)?;
    }

    #[test]
    fn both_kernels_match_naive_oracle_on_funnel_graphs(g in arb_funnel_graph(), k in 1usize..6) {
        assert_kernel_matches(&g, k)?;
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
        let catalog = SparseCatalog::compute(&g, k).unwrap();
        let rel = PathRelation::evaluate(&g, &path);
        prop_assert_eq!(catalog.selectivity(&path), rel.pair_count());
    }

    #[test]
    fn selectivity_monotone_under_extension((g, labels) in arb_graph()) {
        // Pairs of an extended path never exceed |sources(prefix)| * |V|;
        // weaker but useful sanity: if prefix has zero pairs, extension does too.
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
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
