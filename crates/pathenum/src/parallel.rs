//! The multi-threaded dense catalog: a view over the sparse parallel
//! build.
//!
//! `f(ℓ) = Σ_s |{t : (s,t) ∈ ℓ(G)}|` decomposes exactly over disjoint
//! source sets, so [`SparseCatalog::compute_parallel`] walks the
//! label-path trie independently for each `(first label, source range)`
//! task and merges the per-worker runs. This module only materializes
//! that result densely, for the callers that index every path.

use phe_graph::Graph;

use crate::catalog::SelectivityCatalog;
use crate::sparse::SparseCatalog;

/// Computes the catalog using `threads` worker threads (0 ⇒ one per
/// available core): [`SparseCatalog::compute_parallel`] materialized with
/// [`SparseCatalog::to_dense`]. Bit-identical to
/// [`SelectivityCatalog::compute`].
///
/// # Panics
/// Panics if the domain overflows the index space or the dense
/// materialization limit.
pub fn compute_parallel(graph: &Graph, k: usize, threads: usize) -> SelectivityCatalog {
    match SparseCatalog::compute_parallel(graph, k, threads).and_then(|sparse| sparse.to_dense()) {
        Ok(catalog) => catalog,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::compute_catalog_naive;
    use phe_graph::GraphBuilder;

    #[test]
    fn parallel_matches_naive_oracle() {
        let mut b = GraphBuilder::new();
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
        let oracle = compute_catalog_naive(&g, 4);
        for threads in [1, 2, 3, 8] {
            let par = compute_parallel(&g, 4, threads);
            assert_eq!(oracle.counts(), par.counts(), "threads = {threads}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let c = compute_parallel(&g, 3, 4);
        assert_eq!(c.len(), 1 + 1 + 1); // one pseudo-label alphabet
        assert_eq!(c.total_mass(), 0);
    }
}
