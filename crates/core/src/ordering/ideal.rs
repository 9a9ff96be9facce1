//! The *ideal ordering*: sort the domain by true selectivity.
//!
//! The paper (§3) describes it as the unreachable optimum: "sort the
//! label paths by their selectivity and assign the index of each label
//! path as its position in this sequence. This idea is not practical,
//! however, as it requires extra memory to store |L| index values" — the
//! same memory that could instead store the exact selectivities.
//!
//! We implement it anyway, *as a reference point*: it bounds what any
//! computable ordering can achieve, so the ablation can report how much
//! of the ideal's headroom sum-based ordering captures. It must **not**
//! be mistaken for a practical estimator — its memory footprint is
//! `O(|Lk|)`, defeating the purpose of the histogram.

use phe_pathenum::SparseCatalog;

use crate::domain::PathDomain;
use crate::ordering::DomainOrdering;
use crate::path::LabelPath;

/// The selectivity-sorted reference ordering. Ties (including the large
/// zero-selectivity plateau) break by canonical index, so the ordering is
/// deterministic.
#[derive(Debug)]
pub struct IdealOrdering {
    domain: PathDomain,
    /// `by_index[i]` = canonical index of the path at ordered position `i`.
    by_index: Vec<u32>,
    /// `position[c]` = ordered position of canonical index `c`.
    position: Vec<u32>,
}

impl IdealOrdering {
    /// Builds the ideal ordering from the exact (sparse) catalog: every
    /// canonical index sorted by `(selectivity, canonical)`. That key puts
    /// the whole zero plateau first in canonical order, followed by the
    /// realized entries sorted by `(count, canonical)` — both
    /// reconstructable without a dense vector. Memory stays `O(|Lk|)`, of
    /// course: that is the point of this reference ordering, and why it
    /// has no place at scale.
    ///
    /// # Panics
    /// Panics if the catalog does not cover exactly the domain, or the
    /// domain exceeds the `u32` index space.
    pub fn from_sparse(domain: PathDomain, catalog: &SparseCatalog) -> IdealOrdering {
        assert_eq!(
            catalog.len() as u64,
            domain.size(),
            "catalog does not cover the domain"
        );
        // The permutation tables index with u32; a sparse catalog can
        // describe domains past that (up to 2⁴⁸), where this O(|Lk|)
        // reference ordering is unbuildable anyway — refuse loudly
        // instead of wrapping indexes.
        assert!(
            catalog.len() as u64 <= u32::MAX as u64,
            "ideal ordering over {} paths exceeds the u32 index space",
            catalog.len()
        );
        let mut by_index: Vec<u32> = Vec::with_capacity(catalog.len());
        // Zero plateau: every canonical index absent from the entries
        // (one streamed pass over the compressed run).
        by_index.extend(
            phe_histogram::sparse::absent_indexes(
                catalog.iter().map(|(index, _)| index),
                catalog.len() as u64,
            )
            .map(|canonical| canonical as u32),
        );
        // Realized paths by (count, canonical); the cursor yields entries
        // canonical-sorted, so a stable sort by count suffices.
        let mut realized: Vec<(u64, u64)> = catalog.iter().collect();
        realized.sort_by_key(|&(_, count)| count);
        by_index.extend(realized.iter().map(|&(index, _)| index as u32));
        let mut position = vec![0u32; catalog.len()];
        for (pos, &c) in by_index.iter().enumerate() {
            position[c as usize] = pos as u32;
        }
        IdealOrdering {
            domain,
            by_index,
            position,
        }
    }

    /// The memory this ordering must retain — the cost the paper rules it
    /// out by.
    pub fn size_bytes(&self) -> usize {
        (self.by_index.len() + self.position.len()) * std::mem::size_of::<u32>()
    }
}

impl DomainOrdering for IdealOrdering {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn domain(&self) -> &PathDomain {
        &self.domain
    }

    fn index_of(&self, path: &LabelPath) -> u64 {
        let canonical = self.domain.canonical_index(path);
        self.position[canonical as usize] as u64
    }

    fn path_at(&self, index: u64) -> LabelPath {
        self.domain
            .canonical_path(self.by_index[index as usize] as u64)
    }

    /// The `O(|Lk|)` permutation tables — the cost the paper rules this
    /// ordering out by, surfaced to memory accounting.
    fn size_bytes(&self) -> usize {
        IdealOrdering::size_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_datasets::{erdos_renyi, LabelDistribution};
    use phe_graph::LabelId;

    fn setup() -> (PathDomain, SparseCatalog, IdealOrdering) {
        let g = erdos_renyi(40, 300, 3, LabelDistribution::Zipf { exponent: 1.0 }, 5);
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let domain = PathDomain::new(3, 3);
        let ideal = IdealOrdering::from_sparse(domain, &catalog);
        (domain, catalog, ideal)
    }

    #[test]
    fn is_a_bijection() {
        let (domain, _, ideal) = setup();
        for i in 0..domain.size() {
            let p = ideal.path_at(i);
            assert_eq!(ideal.index_of(&p), i);
        }
    }

    #[test]
    fn frequencies_are_monotone() {
        let (domain, catalog, ideal) = setup();
        let mut last = 0u64;
        for i in 0..domain.size() {
            let p = ideal.path_at(i);
            let f = catalog.selectivity(p.as_label_ids());
            assert!(f >= last, "selectivity dropped at position {i}");
            last = f;
        }
    }

    #[test]
    fn ideal_lower_bounds_every_computable_ordering() {
        use crate::eval::evaluate_configuration;
        use crate::label_histogram::HistogramKind;
        use crate::ordering::OrderingKind;
        let g = erdos_renyi(50, 600, 4, LabelDistribution::Zipf { exponent: 1.0 }, 9);
        let k = 3;
        let sparse = SparseCatalog::compute(&g, k).unwrap();
        let domain = PathDomain::new(4, k);
        let ideal = IdealOrdering::from_sparse(domain, &sparse);
        let beta = sparse.len() / 16;
        // Exact V-optimal on the monotone sequence is the global optimum
        // over (ordering, bucketing) pairs; no computable ordering with the
        // same builder may do better.
        let ideal_err = evaluate_configuration(&sparse, &ideal, HistogramKind::VOptimalExact, beta)
            .unwrap()
            .mean_abs_error_rate;
        for kind in OrderingKind::ALL {
            let o = kind.build_sparse(&g, &sparse, k);
            let err =
                evaluate_configuration(&sparse, o.as_ref(), HistogramKind::VOptimalExact, beta)
                    .unwrap()
                    .mean_abs_error_rate;
            assert!(
                ideal_err <= err + 1e-9,
                "{} ({err:.4}) beat the ideal ({ideal_err:.4})",
                kind.name()
            );
        }
    }

    #[test]
    fn from_sparse_matches_the_textbook_sort() {
        // The definition: every canonical index, sorted by (naive count,
        // canonical index).
        let g = erdos_renyi(40, 300, 3, LabelDistribution::Zipf { exponent: 1.0 }, 5);
        let oracle = phe_pathenum::naive::compute_catalog_naive(&g, 3);
        let mut expected: Vec<u64> = (0..oracle.len() as u64).collect();
        expected.sort_by_key(|&c| (oracle.selectivity_at(c), c));
        let domain = PathDomain::new(3, 3);
        let ideal = IdealOrdering::from_sparse(domain, &SparseCatalog::compute(&g, 3).unwrap());
        for (i, &c) in expected.iter().enumerate() {
            assert_eq!(
                ideal.path_at(i as u64),
                domain.canonical_path(c),
                "position {i}"
            );
        }
    }

    #[test]
    fn memory_is_linear_in_domain() {
        let (domain, _, ideal) = setup();
        assert_eq!(ideal.size_bytes(), domain.size() as usize * 8);
        // The trait-level accounting reports the same tables, so serving
        // footprints include them. The sum-based ordering reports its
        // O(k²·|L|) tables: C(x, y) for x < 9, y < 3 in u64, and
        // 4 + 6 + 8 cumulative group sizes in u64.
        let as_ordering: &dyn DomainOrdering = &ideal;
        assert_eq!(as_ordering.size_bytes(), domain.size() as usize * 8);
        let sum_based = crate::ordering::SumBasedOrdering::new(
            domain,
            crate::ranking::LabelRanking::cardinality_from_frequencies(&[3, 1, 2]),
        );
        assert_eq!(DomainOrdering::size_bytes(&sum_based), (9 * 3 + 18) * 8);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn mismatched_catalog_rejected() {
        let g = erdos_renyi(10, 30, 2, LabelDistribution::Uniform, 1);
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        let _ = IdealOrdering::from_sparse(PathDomain::new(2, 3), &catalog);
    }

    #[test]
    fn works_through_the_estimator_api() {
        use crate::estimator::{EstimatorConfig, PathSelectivityEstimator};
        use crate::label_histogram::HistogramKind;
        use crate::ordering::OrderingKind;
        let g = erdos_renyi(30, 200, 3, LabelDistribution::Uniform, 2);
        let est = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k: 2,
                beta: 6,
                ordering: OrderingKind::Ideal,
                histogram: HistogramKind::VOptimalGreedy,
                threads: 1,
                retain_sparse: false,
            },
        )
        .unwrap();
        let e = est.estimate(&[LabelId(0), LabelId(1)]);
        assert!(e.is_finite() && e >= 0.0);
    }
}
