//! Naive per-path selectivity evaluation — the correctness oracle.
//!
//! Evaluates each path independently with a per-source frontier BFS,
//! without sharing prefix relations. Asymptotically wasteful (each
//! length-`m` prefix is re-evaluated for every extension), but simple
//! enough to trust, which is exactly what a test oracle should be.

use phe_graph::{FixedBitSet, Graph, LabelId};

use crate::encoding::PathEncoding;
use crate::runs::CompressedRuns;
use crate::sparse::SparseCatalog;

/// Computes `f(path)` by frontier expansion from every source vertex.
///
/// For each source `s`, maintains the set of vertices reachable by the
/// prefix consumed so far; `f` accumulates the final frontier sizes.
pub fn selectivity(graph: &Graph, path: &[LabelId]) -> u64 {
    if path.is_empty() {
        return 0;
    }
    let n = graph.vertex_count();
    let mut frontier = FixedBitSet::new(n);
    let mut next = FixedBitSet::new(n);
    let mut total = 0u64;
    for s in 0..n as u32 {
        // Seed with the first step directly (the frontier after step 1).
        let first = graph.out_neighbors_raw(s, path[0]);
        if first.is_empty() {
            continue;
        }
        frontier.clear();
        for &t in first {
            frontier.insert(t);
        }
        let mut dead = false;
        for &label in &path[1..] {
            next.clear();
            for v in frontier.iter() {
                for &w in graph.out_neighbors_raw(v, label) {
                    next.insert(w);
                }
            }
            std::mem::swap(&mut frontier, &mut next);
            if frontier.is_empty() {
                dead = true;
                break;
            }
        }
        if !dead {
            total += frontier.len() as u64;
        }
    }
    total
}

/// Computes the whole catalog naively: one independent evaluation per path
/// of the domain, the realized ones kept. Used for oracle comparison in
/// tests (a catalog compares with `==`) and as the no-sharing baseline in
/// the `pathenum` Criterion bench.
pub fn compute_catalog_naive(graph: &Graph, k: usize) -> SparseCatalog {
    let encoding = PathEncoding::new(graph.label_count().max(1), k);
    // A label-less graph counts nothing (its one pseudo-label has no edges).
    let domain = if graph.label_count() == 0 {
        0
    } else {
        encoding.domain_size()
    };
    let mut buf = Vec::with_capacity(k);
    let counts = (0..domain)
        .map(|index| {
            encoding.decode_into(index, &mut buf);
            (index as u64, selectivity(graph, &buf))
        })
        .filter(|&(_, count)| count > 0);
    SparseCatalog::from_runs(encoding, CompressedRuns::from_sorted_iter(counts))
        .expect("every index comes from the encoding's own domain")
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_graph::GraphBuilder;

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }

    #[test]
    fn matches_relation_evaluation() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 3);
        b.add_edge_named(2, "b", 3);
        b.add_edge_named(3, "a", 0);
        let g = b.build();
        for path in [
            vec![l(0)],
            vec![l(1)],
            vec![l(0), l(1)],
            vec![l(0), l(1), l(0)],
            vec![l(1), l(1)],
        ] {
            let rel = crate::relation::PathRelation::evaluate(&g, &path);
            assert_eq!(
                selectivity(&g, &path),
                rel.pair_count(),
                "mismatch on {path:?}"
            );
        }
    }

    #[test]
    fn empty_path_is_zero() {
        let g = GraphBuilder::new().build();
        assert_eq!(selectivity(&g, &[]), 0);
    }

    #[test]
    fn naive_catalog_matches_trie_catalog() {
        let mut b = GraphBuilder::new();
        // A small dense-ish graph with 3 labels.
        for (s, lbl, t) in [
            (0, "a", 1),
            (1, "a", 2),
            (2, "a", 0),
            (0, "b", 2),
            (2, "b", 1),
            (1, "c", 1),
            (2, "c", 3),
            (3, "a", 3),
        ] {
            b.add_edge_named(s, lbl, t);
        }
        let g = b.build();
        let fast = SparseCatalog::compute(&g, 4).unwrap();
        let slow = compute_catalog_naive(&g, 4);
        assert_eq!(fast, slow);
    }
}
