//! The estimator pipeline's contract: for arbitrary graphs, every
//! ordering × histogram configuration estimates **bit-identically** to
//! the textbook construction over naive-oracle counts, its closed-form
//! whole-domain accuracy report equals the per-index oracle, every
//! counting route agrees with the naive oracle, and — for arbitrary edge
//! churn — incremental delta application reproduces a from-scratch build
//! exactly.

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::graph::{Graph, GraphBuilder, GraphDelta, LabelId, VertexId};
use phe::histogram::{AccuracyReport, PointEstimator, SparseFrequencies};
use phe::pathenum::{naive, CompressedRuns, PathEncoding, SparseCatalog};
use proptest::prelude::*;

/// Every path of the `(|L|, k)` domain, in canonical order.
fn domain_paths(labels: usize, k: usize) -> impl Iterator<Item = Vec<LabelId>> {
    let encoding = PathEncoding::new(labels, k);
    (0..encoding.domain_size()).map(move |index| encoding.decode(index))
}

fn arb_graph() -> impl Strategy<Value = phe::graph::Graph> {
    (
        2u16..5,
        prop::collection::vec((0u32..20, 0u16..5, 0u32..20), 0..120),
    )
        .prop_map(|(labels, edges)| {
            let mut b = GraphBuilder::with_numeric_labels(20, labels);
            for (s, l, t) in edges {
                b.add_edge(VertexId(s), LabelId(l % labels), VertexId(t));
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The built estimator ≡ the paper's three steps done by hand over
    // independent counts: naive per-path counts, permuted into the
    // ordering by unranking every index, one histogram over the dense
    // ordered sequence — across every ordering and histogram kind, over
    // every path in the domain.
    #[test]
    fn estimates_match_the_naive_oracle_pipeline(
        g in arb_graph(),
        k in 1usize..4,
        beta in 1usize..24,
    ) {
        let oracle = naive::compute_catalog_naive(&g, k);
        for ordering in OrderingKind::ALL.into_iter().chain([OrderingKind::Ideal]) {
            let textbook_ordering = ordering.build_sparse(&g, &oracle, k);
            let ordered: Vec<u64> = (0..textbook_ordering.domain_size())
                .map(|i| oracle.selectivity(textbook_ordering.path_at(i).as_label_ids()))
                .collect();
            for histogram in HistogramKind::ALL {
                let config = EstimatorConfig {
                    k,
                    beta,
                    ordering,
                    histogram,
                    threads: 1,
                    retain_sparse: false,
                };
                let built = PathSelectivityEstimator::build(&g, config).unwrap();
                let textbook = histogram
                    .build(&SparseFrequencies::dense(&ordered), beta)
                    .unwrap();
                for path in domain_paths(g.label_count(), k) {
                    let index = textbook_ordering.index_of(&phe::core::LabelPath::new(&path));
                    let want = textbook.estimate(index as usize);
                    let got = built.estimate(&path);
                    prop_assert_eq!(
                        want.to_bits(),
                        got.to_bits(),
                        "{}/{}: textbook {} != built {} for {:?}",
                        ordering.name(),
                        histogram.name(),
                        want,
                        got,
                        path
                    );
                }
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Block-compressed runs ⇄ plain `(index, count)` pairs round-trip
    // losslessly, and every computation route (sequential,
    // sharded-parallel) equals the naive per-path oracle.
    #[test]
    fn catalog_representations_round_trip(g in arb_graph(), k in 1usize..5) {
        let oracle = naive::compute_catalog_naive(&g, k);
        let sparse = SparseCatalog::compute(&g, k).unwrap();
        prop_assert_eq!(&sparse, &oracle);
        let pairs = sparse.runs().to_vec();
        let round_tripped =
            SparseCatalog::from_runs(*sparse.encoding(), CompressedRuns::from_entries(&pairs))
                .unwrap();
        prop_assert_eq!(&round_tripped, &sparse);
        for threads in [2, 5] {
            let parallel = SparseCatalog::compute_parallel(&g, k, threads).unwrap();
            prop_assert_eq!(&sparse, &parallel, "threads = {}", threads);
        }
        // Aggregates agree with the per-path oracle over the whole domain.
        let truths: Vec<u64> = domain_paths(g.label_count(), k)
            .map(|path| naive::selectivity(&g, &path))
            .collect();
        prop_assert_eq!(sparse.total_mass(), truths.iter().sum::<u64>());
        prop_assert_eq!(sparse.zero_count(), truths.iter().filter(|&&f| f == 0).count());
        prop_assert_eq!(sparse.len(), truths.len());
    }

    // The closed-form whole-domain report (ordered runs + the
    // histogram's constant pieces) equals `AccuracyReport::evaluate` over
    // the per-index estimates and naive truths: the count, maximum,
    // median and p95 exactly; the sums up to summation order.
    #[test]
    fn full_domain_accuracy_matches_the_per_index_oracle(
        g in arb_graph(),
        k in 1usize..4,
        beta in 1usize..24,
    ) {
        let paths: Vec<Vec<LabelId>> = domain_paths(g.label_count(), k).collect();
        let truths: Vec<u64> = paths.iter().map(|path| naive::selectivity(&g, path)).collect();
        for ordering in OrderingKind::ALL {
            for histogram in HistogramKind::ALL {
                let config = EstimatorConfig {
                    k,
                    beta,
                    ordering,
                    histogram,
                    threads: 1,
                    retain_sparse: true,
                };
                let est = PathSelectivityEstimator::build(&g, config).unwrap();
                let estimates: Vec<f64> = paths.iter().map(|path| est.estimate(path)).collect();
                let oracle = AccuracyReport::evaluate(&estimates, &truths);
                let report = est.accuracy_report().unwrap();
                let name = format!("{}/{}", ordering.name(), histogram.name());
                prop_assert_eq!(report.count, oracle.count, "{}", name);
                for (got, want) in [
                    (report.median_q_error, oracle.median_q_error),
                    (report.p95_q_error, oracle.p95_q_error),
                    (report.max_abs_error_rate, oracle.max_abs_error_rate),
                ] {
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "{}: {} vs {}", name, got, want);
                }
                for (got, want) in [
                    (report.mean_abs_error_rate, oracle.mean_abs_error_rate),
                    (report.mean_signed_error_rate, oracle.mean_signed_error_rate),
                    (report.rmse, oracle.rmse),
                ] {
                    prop_assert!(
                        (got - want).abs() <= 1e-12 * got.abs().max(want.abs()),
                        "{}: {} vs {}", name, got, want
                    );
                }
            }
        }
    }

}

/// Builds a valid delta from generated raw material: every edge whose
/// index hashes to 0 mod 3 is removed, and the candidate insertions are
/// filtered down to edges absent from `graph − removals` (duplicates
/// dropped), so the delta always satisfies its strict contract.
fn churn_delta(graph: &Graph, removal_salt: u64, candidates: &[(u32, u16, u32)]) -> GraphDelta {
    let mut delta = GraphDelta::new();
    let mut removed = std::collections::HashSet::new();
    for (i, (s, l, t)) in graph.iter_edges().enumerate() {
        if ((i as u64).wrapping_mul(0x9e3779b97f4a7c15) ^ removal_salt).is_multiple_of(3) {
            delta.remove(s, l, t);
            removed.insert((s.0, l.0, t.0));
        }
    }
    let labels = graph.label_count() as u16;
    let mut added = std::collections::HashSet::new();
    for &(s, l, t) in candidates {
        let l = l % labels;
        let present = (s as usize) < graph.vertex_count()
            && graph.has_edge(VertexId(s), LabelId(l), VertexId(t))
            && !removed.contains(&(s, l, t));
        if present || !added.insert((s, l, t)) {
            continue;
        }
        delta.insert(VertexId(s), LabelId(l), VertexId(t));
    }
    delta
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Incremental maintenance ≡ full rebuild: random edge churn applied
    // via `apply_delta` yields bit-identical catalogs and estimates to a
    // from-scratch sparse build of the changed graph, across every
    // ordering × histogram kind.
    #[test]
    fn apply_delta_equals_full_rebuild(
        g in arb_graph(),
        removal_salt in 0u64..u64::MAX,
        // Insertions may mention vertices beyond the current 20, growing
        // the vertex set.
        candidates in prop::collection::vec((0u32..24, 0u16..5, 0u32..24), 0..40),
        k in 1usize..4,
        beta in 1usize..24,
    ) {
        let delta = churn_delta(&g, removal_salt, &candidates);
        for ordering in OrderingKind::ALL.into_iter().chain([OrderingKind::Ideal]) {
            for histogram in HistogramKind::ALL {
                let config = EstimatorConfig {
                    k,
                    beta,
                    ordering,
                    histogram,
                    threads: 1,
                    retain_sparse: true,
                };
                let base = PathSelectivityEstimator::build(&g, config).unwrap();
                let (refreshed, g2) = base.apply_delta(&g, &delta).unwrap();
                let fresh = PathSelectivityEstimator::build(&g2, config).unwrap();

                // Lineage: inherited id, bumped delta count.
                prop_assert_eq!(refreshed.build_id(), base.build_id());
                prop_assert_eq!(refreshed.applied_deltas(), 1);

                // The merged catalog is the recounted catalog, exactly.
                prop_assert_eq!(
                    refreshed.sparse_catalog().unwrap(),
                    fresh.sparse_catalog().unwrap()
                );

                // And every estimate in the domain agrees bit-for-bit.
                for path in domain_paths(g2.label_count(), k) {
                    let a = refreshed.estimate(&path);
                    let b = fresh.estimate(&path);
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{}/{}: delta {} != fresh {} for {:?}",
                        ordering.name(),
                        histogram.name(),
                        a,
                        b,
                        path
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The ordered-index remap is the composition the trait documents:
    // `ordered_index(c) == index_of(canonical_path(c))` for every
    // ordering, including the combinatorial overrides.
    #[test]
    fn ordered_index_matches_index_of(g in arb_graph(), k in 1usize..4) {
        let catalog = SparseCatalog::compute(&g, k).unwrap();
        let domain = phe::core::PathDomain::new(g.label_count(), k);
        for kind in OrderingKind::ALL.into_iter().chain([OrderingKind::Ideal]) {
            let ordering = kind.build_sparse(&g, &catalog, k);
            for c in 0..domain.size() {
                let via_path = ordering.index_of(&domain.canonical_path(c));
                prop_assert_eq!(
                    ordering.ordered_index(c),
                    via_path,
                    "{} at canonical {}",
                    kind.name(),
                    c
                );
            }
        }
    }
}
