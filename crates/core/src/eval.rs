//! Whole-domain accuracy evaluation — the machinery behind Figure 2 —
//! plus the sparse permutation step of the streaming build pipeline.
//!
//! Scoring never visits the domain cell by cell: a histogram is constant
//! on each of its pieces, so the zero cells of a piece are scored in
//! closed form ([`AccuracyReport::from_pieces`]) from the ordered runs.

use phe_histogram::{AccuracyReport, HistogramError, PointEstimator};
use phe_pathenum::{CompressedRuns, SparseCatalog};

use crate::label_histogram::HistogramKind;
use crate::ordering::DomainOrdering;

/// Permutes a **sparse** catalog's non-zero frequencies into an
/// ordering's index space: `(canonical_index, f)` → `(ordered_index, f)`,
/// sorted by ordered index, zeros implicit — and re-compressed into
/// block runs, the form the histogram builders stream from and the
/// estimator retains.
///
/// This is the construction-time use of the *ranking* function — its
/// cost is what separates sum-based from the native orderings in the
/// paper's Table 4 discussion: `O(nnz · rank + nnz log nnz)`, and no
/// `|Lk|`-sized allocation. The catalog's compressed entries stream
/// through the remap cursor; only the transient sort buffer holds plain
/// pairs.
pub fn sparse_ordered_frequencies(
    catalog: &SparseCatalog,
    ordering: &dyn DomainOrdering,
) -> CompressedRuns {
    assert_eq!(
        ordering.domain_size() as usize,
        catalog.len(),
        "ordering domain and catalog disagree on |Lk|"
    );
    CompressedRuns::from_entries(&ordering.ordered_entries(&mut catalog.iter()))
}

/// Builds a histogram of `kind`/`beta` under `ordering` and scores the
/// estimate of **every** path in the domain, zeros included, against the
/// catalog's counts. One invocation = one point of the paper's Figure 2.
pub fn evaluate_configuration(
    catalog: &SparseCatalog,
    ordering: &dyn DomainOrdering,
    kind: HistogramKind,
    beta: usize,
) -> Result<AccuracyReport, HistogramError> {
    let runs = sparse_ordered_frequencies(catalog, ordering);
    let histogram = kind.build_from_runs(&runs, ordering.domain_size(), beta)?;
    AccuracyReport::from_pieces(&histogram.pieces(), runs.iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_set::SumBasedL2Ordering;
    use crate::domain::PathDomain;
    use crate::ordering::{NumericalOrdering, OrderingKind, SumBasedOrdering};
    use crate::ranking::LabelRanking;
    use phe_datasets::{erdos_renyi, LabelDistribution};
    use phe_graph::LabelId;

    #[test]
    fn sparse_permutation_matches_unranking() {
        let g = erdos_renyi(40, 160, 3, LabelDistribution::Zipf { exponent: 1.0 }, 3);
        let sparse = SparseCatalog::compute(&g, 3).unwrap();
        for kind in OrderingKind::ALL {
            let ordering = kind.build_sparse(&g, &sparse, 3);
            // The textbook permutation: unrank every ordered index.
            let ordered: Vec<u64> = (0..ordering.domain_size())
                .map(|i| sparse.selectivity(ordering.path_at(i).as_label_ids()))
                .collect();
            let runs: Vec<(u64, u64)> =
                sparse_ordered_frequencies(&sparse, ordering.as_ref()).to_vec();
            // Runs are sorted, non-zero, and agree with the dense permutation.
            assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "{}", kind.name());
            let mut reconstructed = vec![0u64; ordered.len()];
            for &(index, count) in &runs {
                reconstructed[index as usize] = count;
            }
            assert_eq!(reconstructed, ordered, "{}", kind.name());
        }
    }

    #[test]
    fn catalog_reading_orderings_match_textbook_oracles() {
        let g = erdos_renyi(40, 160, 4, LabelDistribution::Zipf { exponent: 1.1 }, 11);
        let oracle = phe_pathenum::naive::compute_catalog_naive(&g, 3);
        let sparse = SparseCatalog::compute(&g, 3).unwrap();
        let domain = PathDomain::new(4, 3);
        let n = 4u16;

        // Ideal: every canonical index sorted by (naive count, index).
        let mut by_count: Vec<u64> = (0..domain.size()).collect();
        by_count.sort_by_key(|&c| (oracle.selectivity_at(c), c));
        let ideal = OrderingKind::Ideal.build_sparse(&g, &sparse, 3);
        for (i, &c) in by_count.iter().enumerate() {
            assert_eq!(
                ideal.path_at(i as u64),
                domain.canonical_path(c),
                "ideal at {i}"
            );
        }

        // Sum-based-L2: the explicit-frequency constructor over the naive
        // single and pair counts.
        let singles: Vec<u64> = (0..n).map(|l| oracle.selectivity(&[LabelId(l)])).collect();
        let pairs: Vec<u64> = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| oracle.selectivity(&[LabelId(a), LabelId(b)]))
            .collect();
        let textbook = SumBasedL2Ordering::from_frequencies(domain, &singles, &pairs);
        let built = OrderingKind::SumBasedL2.build_sparse(&g, &sparse, 3);
        for i in 0..domain.size() {
            assert_eq!(built.path_at(i), textbook.path_at(i), "sum-based-L2 at {i}");
        }
    }

    #[test]
    fn perfect_histogram_gives_zero_error() {
        let g = erdos_renyi(30, 90, 2, LabelDistribution::Uniform, 9);
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        let domain = PathDomain::new(2, 2);
        let ordering = NumericalOrdering::new(domain, LabelRanking::identity(2), "num-alph");
        // beta = domain size ⇒ singleton buckets ⇒ exact estimates.
        let report = evaluate_configuration(
            &catalog,
            &ordering,
            crate::label_histogram::HistogramKind::VOptimalExact,
            domain.size() as usize,
        )
        .unwrap();
        assert_eq!(report.mean_abs_error_rate, 0.0);
        assert_eq!(report.median_q_error, 1.0);
    }

    #[test]
    fn sum_based_beats_num_alph_on_skewed_synthetic_data() {
        // The paper's headline claim, in miniature: on a synthetic graph
        // with skewed label frequencies and independent placement, the
        // sum-based ordering yields a lower mean error rate than num-alph
        // under an equal bucket budget.
        let g = erdos_renyi(60, 900, 4, LabelDistribution::Zipf { exponent: 1.2 }, 17);
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let domain = PathDomain::new(4, 3);
        let beta = 10;
        let kind = crate::label_histogram::HistogramKind::VOptimalGreedy;

        let num_alph = NumericalOrdering::new(domain, LabelRanking::alphabetical(&g), "num-alph");
        let sum_based = SumBasedOrdering::new(domain, LabelRanking::cardinality(&g));

        let e_na = evaluate_configuration(&catalog, &num_alph, kind, beta)
            .unwrap()
            .mean_abs_error_rate;
        let e_sb = evaluate_configuration(&catalog, &sum_based, kind, beta)
            .unwrap()
            .mean_abs_error_rate;
        assert!(
            e_sb < e_na,
            "sum-based ({e_sb:.4}) should beat num-alph ({e_na:.4})"
        );
    }

    #[test]
    fn more_buckets_reduce_error() {
        let g = erdos_renyi(50, 500, 3, LabelDistribution::Zipf { exponent: 1.0 }, 23);
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let domain = PathDomain::new(3, 3);
        let ordering = SumBasedOrdering::new(domain, LabelRanking::cardinality(&g));
        let kind = crate::label_histogram::HistogramKind::VOptimalGreedy;
        let few = evaluate_configuration(&catalog, &ordering, kind, 4)
            .unwrap()
            .mean_abs_error_rate;
        let many = evaluate_configuration(&catalog, &ordering, kind, 30)
            .unwrap()
            .mean_abs_error_rate;
        assert!(
            many <= few + 1e-9,
            "error should shrink with buckets: {few:.4} -> {many:.4}"
        );
    }

    #[test]
    fn zero_paths_count_toward_error() {
        // A domain position with f = 0 estimated non-zero contributes
        // err = +1; verify the report sees the whole domain, zeros included.
        let g = {
            let mut b = phe_graph::GraphBuilder::new();
            b.add_edge(phe_graph::VertexId(0), LabelId(0), phe_graph::VertexId(1));
            // A second label makes the k=2 domain non-trivial (zeros).
            b.intern_label("extra");
            b.build()
        };
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        assert!(catalog.zero_count() > 0);
        let domain = PathDomain::new(g.label_count(), 2);
        let ordering =
            NumericalOrdering::new(domain, LabelRanking::identity(g.label_count()), "num-alph");
        let report = evaluate_configuration(
            &catalog,
            &ordering,
            crate::label_histogram::HistogramKind::EquiWidth,
            1,
        )
        .unwrap();
        assert_eq!(report.count, catalog.len());
    }

    #[test]
    fn retained_histogram_report_matches_a_rebuild() {
        let g = erdos_renyi(40, 160, 3, LabelDistribution::Zipf { exponent: 1.0 }, 3);
        for kind in crate::label_histogram::HistogramKind::ALL {
            let config = crate::EstimatorConfig {
                k: 3,
                beta: 7,
                ordering: OrderingKind::SumBased,
                histogram: kind,
                threads: 1,
                retain_sparse: true,
            };
            let est = crate::PathSelectivityEstimator::build(&g, config).unwrap();
            let catalog = est.sparse_catalog().unwrap();
            let rebuilt =
                evaluate_configuration(catalog, est.histogram().ordering(), kind, 7).unwrap();
            let retained = est.accuracy_report().unwrap();
            let bits = |r: &AccuracyReport| {
                [
                    r.mean_abs_error_rate,
                    r.mean_signed_error_rate,
                    r.max_abs_error_rate,
                    r.rmse,
                    r.median_q_error,
                    r.p95_q_error,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(&rebuilt), bits(&retained), "{}", kind.name());
            assert_eq!(rebuilt.count, retained.count);
        }
    }
}
