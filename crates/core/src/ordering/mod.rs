//! Domain ordering rules: bijections `Lk ⇄ [0, |Lk|)`.
//!
//! An ordering method is a *(ranking rule, ordering rule)* pair (paper
//! §3.1). This module provides the three ordering rules and the
//! [`OrderingKind`] enumeration of the paper's five complete methods plus
//! the `B = L²` future-work extension.
//!
//! The unit tests at the bottom reproduce the paper's Tables 1 and 2
//! verbatim on the Section 3.4 example (3 labels with cardinalities
//! 20/100/80, `k = 2`).

mod ideal;
mod lexicographical;
mod numerical;
mod sum_based;

pub use ideal::IdealOrdering;
pub use lexicographical::LexicographicalOrdering;
pub use numerical::NumericalOrdering;
pub use sum_based::SumBasedOrdering;

use phe_graph::Graph;
use phe_pathenum::SparseCatalog;

use crate::base_set::SumBasedL2Ordering;
use crate::domain::PathDomain;
use crate::path::LabelPath;
use crate::ranking::LabelRanking;

/// A bijection between the label-path domain and `[0, |Lk|)`.
///
/// `index_of` is the *ranking function* used at estimation time (query
/// path → histogram index); `path_at` is the *unranking function* used at
/// construction time (domain position → path whose frequency goes there).
pub trait DomainOrdering: Send + Sync {
    /// Stable method name, e.g. `"num-alph"` or `"sum-based"`.
    fn name(&self) -> &'static str;

    /// The underlying domain.
    fn domain(&self) -> &PathDomain;

    /// The index of `path` in this ordering.
    fn index_of(&self, path: &LabelPath) -> u64;

    /// The path at `index`.
    ///
    /// # Panics
    /// Panics if `index ≥ domain().size()`.
    fn path_at(&self, index: u64) -> LabelPath;

    /// Maps a *canonical* index (the catalog storage layout) to this
    /// ordering's index — the composition `index_of ∘ canonical_path`.
    ///
    /// This is the sparse pipeline's workhorse: a sparse catalog entry
    /// `(canonical_index, count)` becomes `(ordered_index(c), count)`
    /// without ever enumerating the zero entries between them. Orderings
    /// with a cheaper combinatorial route (e.g. the numerical ordering's
    /// digit remap) override it.
    fn ordered_index(&self, canonical_index: u64) -> u64 {
        self.index_of(&self.domain().canonical_path(canonical_index))
    }

    /// Bulk [`DomainOrdering::ordered_index`] over a streamed pass of
    /// sparse `(canonical_index, count)` entries, returning
    /// `(ordered_index, count)` pairs **sorted by ordered index**. Counts
    /// ride along untouched; the permutation property guarantees no
    /// duplicates. Takes a cursor, not a slice — the catalog stores its
    /// entries block-compressed and never materializes the pair vector.
    fn ordered_entries(&self, canonical: &mut dyn Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
        let mut mapped: Vec<(u64, u64)> = canonical
            .map(|(index, count)| (self.ordered_index(index), count))
            .collect();
        mapped.sort_unstable_by_key(|&(index, _)| index);
        mapped
    }

    /// Domain size, `|Lk|`.
    fn domain_size(&self) -> u64 {
        self.domain().size()
    }

    /// The data-dependent state that determines this ordering's
    /// permutation, or `None` when the permutation depends on the full
    /// catalog (the ideal reference). Two orderings of the **same kind
    /// over the same domain** with equal keys define the identical
    /// bijection `Lk ⇄ [0, |Lk|)` — the check that lets an incremental
    /// rebuild reuse its previous ordered runs and remap only the delta
    /// entries instead of all `nnz` (see
    /// `PathSelectivityEstimator::apply_delta`).
    fn reuse_key(&self) -> Option<Vec<u32>> {
        None
    }

    /// Retained table bytes beyond the O(|L|) configuration state.
    ///
    /// Most orderings hold only a ranking (a few bytes per label) and
    /// report 0; table-backed orderings — the ideal reference with its
    /// `O(|Lk|)` permutation, and the sum-based ordering with its
    /// `O(k²·|L|)` group-size and binomial tables — override this so
    /// memory accounting (`phe-service`'s `list`, the estimator
    /// footprint) reflects what they actually pin.
    fn size_bytes(&self) -> usize {
        0
    }
}

/// The complete ordering methods under study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum OrderingKind {
    /// Numerical ordering, alphabetical ranking.
    NumAlph,
    /// Numerical ordering, cardinality ranking.
    NumCard,
    /// Lexicographical ordering, alphabetical ranking.
    LexAlph,
    /// Lexicographical ordering, cardinality ranking.
    LexCard,
    /// Sum-based ordering, cardinality ranking (the paper's contribution).
    SumBased,
    /// Sum-based ordering over the base set `B = L²` (paper future work).
    SumBasedL2,
    /// The selectivity-sorted *ideal* ordering — the paper's infeasible
    /// reference (§3). Retains `O(|Lk|)` memory; ablation use only.
    Ideal,
}

impl OrderingKind {
    /// The five methods evaluated in the paper (Table 2 / Figure 2 /
    /// Table 4 columns), in the paper's column order.
    pub const PAPER_FIVE: [OrderingKind; 5] = [
        OrderingKind::NumAlph,
        OrderingKind::NumCard,
        OrderingKind::LexAlph,
        OrderingKind::LexCard,
        OrderingKind::SumBased,
    ];

    /// All *computable* methods (paper five + the L² extension). The
    /// [`OrderingKind::Ideal`] reference is excluded: it is not a
    /// practical ordering (see its documentation).
    pub const ALL: [OrderingKind; 6] = [
        OrderingKind::NumAlph,
        OrderingKind::NumCard,
        OrderingKind::LexAlph,
        OrderingKind::LexCard,
        OrderingKind::SumBased,
        OrderingKind::SumBasedL2,
    ];

    /// The method name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            OrderingKind::NumAlph => "num-alph",
            OrderingKind::NumCard => "num-card",
            OrderingKind::LexAlph => "lex-alph",
            OrderingKind::LexCard => "lex-card",
            OrderingKind::SumBased => "sum-based",
            OrderingKind::SumBasedL2 => "sum-based-L2",
            OrderingKind::Ideal => "ideal",
        }
    }

    /// Builds the ordering for a graph over its sparse catalog. Only the
    /// two catalog-dependent kinds read the catalog: sum-based-L2 looks up
    /// its `n + n²` single and pair selectivities (so any catalog counted
    /// with `k ≥ 2` serves every domain length), and the ideal reference
    /// sorts the realized entries, inheriting the canonical tie-break for
    /// the zero plateau (its catalog must cover exactly the `k` domain).
    pub fn build_sparse(
        &self,
        graph: &Graph,
        catalog: &SparseCatalog,
        k: usize,
    ) -> Box<dyn DomainOrdering> {
        let domain = PathDomain::new(graph.label_count(), k);
        match self {
            OrderingKind::NumAlph => Box::new(NumericalOrdering::new(
                domain,
                LabelRanking::alphabetical(graph),
                "num-alph",
            )),
            OrderingKind::NumCard => Box::new(NumericalOrdering::new(
                domain,
                LabelRanking::cardinality(graph),
                "num-card",
            )),
            OrderingKind::LexAlph => Box::new(LexicographicalOrdering::new(
                domain,
                LabelRanking::alphabetical(graph),
                "lex-alph",
            )),
            OrderingKind::LexCard => Box::new(LexicographicalOrdering::new(
                domain,
                LabelRanking::cardinality(graph),
                "lex-card",
            )),
            OrderingKind::SumBased => Box::new(SumBasedOrdering::new(
                domain,
                LabelRanking::cardinality(graph),
            )),
            OrderingKind::SumBasedL2 => Box::new(SumBasedL2Ordering::from_sparse(domain, catalog)),
            OrderingKind::Ideal => Box::new(IdealOrdering::from_sparse(domain, catalog)),
        }
    }
}

impl std::fmt::Display for OrderingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_graph::LabelId;

    /// The Section 3.4 example: labels "1","2","3" (ids 0,1,2) with
    /// cardinalities 20, 100, 80 and k = 2.
    fn example_domain() -> PathDomain {
        PathDomain::new(3, 2)
    }

    fn alph() -> LabelRanking {
        // Names "1","2","3" sort as their ids.
        LabelRanking::identity(3)
    }

    fn card() -> LabelRanking {
        LabelRanking::cardinality_from_frequencies(&[20, 100, 80])
    }

    /// Parses `"3,1"` into a path over ids (label name "i" = id i−1).
    fn p(s: &str) -> LabelPath {
        let ids: Vec<LabelId> = s
            .split(',')
            .map(|t| LabelId(t.trim().parse::<u16>().unwrap() - 1))
            .collect();
        LabelPath::new(&ids)
    }

    fn assert_table_row(ordering: &dyn DomainOrdering, expected: &[&str]) {
        assert_eq!(ordering.domain_size(), expected.len() as u64);
        for (index, name) in expected.iter().enumerate() {
            let want = p(name);
            let got = ordering.path_at(index as u64);
            assert_eq!(
                got,
                want,
                "{}: index {index} should be {name}, got {got}",
                ordering.name()
            );
            assert_eq!(
                ordering.index_of(&want),
                index as u64,
                "{}: {name} should rank at {index}",
                ordering.name()
            );
        }
    }

    #[test]
    fn paper_table2_num_alph() {
        let o = NumericalOrdering::new(example_domain(), alph(), "num-alph");
        assert_table_row(
            &o,
            &[
                "1", "2", "3", "1,1", "1,2", "1,3", "2,1", "2,2", "2,3", "3,1", "3,2", "3,3",
            ],
        );
    }

    #[test]
    fn paper_table2_num_card() {
        let o = NumericalOrdering::new(example_domain(), card(), "num-card");
        assert_table_row(
            &o,
            &[
                "1", "3", "2", "1,1", "1,3", "1,2", "3,1", "3,3", "3,2", "2,1", "2,3", "2,2",
            ],
        );
    }

    #[test]
    fn paper_table2_lex_alph() {
        let o = LexicographicalOrdering::new(example_domain(), alph(), "lex-alph");
        assert_table_row(
            &o,
            &[
                "1", "1,1", "1,2", "1,3", "2", "2,1", "2,2", "2,3", "3", "3,1", "3,2", "3,3",
            ],
        );
    }

    #[test]
    fn paper_table2_lex_card() {
        let o = LexicographicalOrdering::new(example_domain(), card(), "lex-card");
        assert_table_row(
            &o,
            &[
                "1", "1,1", "1,3", "1,2", "3", "3,1", "3,3", "3,2", "2", "2,1", "2,3", "2,2",
            ],
        );
    }

    #[test]
    fn paper_table2_sum_based() {
        let o = SumBasedOrdering::new(example_domain(), card());
        assert_table_row(
            &o,
            &[
                "1", "3", "2", "1,1", "1,3", "3,1", "3,3", "1,2", "2,1", "3,2", "2,3", "2,2",
            ],
        );
    }

    #[test]
    fn paper_table1_summed_ranks() {
        // Table 1: summed ranks under cardinality ranking.
        let r = card();
        let expected: [(&str, u32); 12] = [
            ("1", 1),
            ("2", 3),
            ("3", 2),
            ("1,1", 2),
            ("1,2", 4),
            ("1,3", 3),
            ("2,1", 4),
            ("2,2", 6),
            ("2,3", 5),
            ("3,1", 3),
            ("3,2", 5),
            ("3,3", 4),
        ];
        for (path, want) in expected {
            let sum: u32 = p(path).iter().map(|l| r.rank(l)).sum();
            assert_eq!(sum, want, "summed rank of {path}");
        }
    }

    #[test]
    fn kind_names_match_paper() {
        let names: Vec<&str> = OrderingKind::PAPER_FIVE.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["num-alph", "num-card", "lex-alph", "lex-card", "sum-based"]
        );
    }
}
