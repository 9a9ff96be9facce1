//! The expression layer's contract, property-tested:
//!
//! 1. **Expansion ≡ brute force.** `PathExpr::expand` produces exactly
//!    the concrete label sequences a brute-force enumeration of the
//!    domain accepts via the independent `PathExpr::matches`
//!    implementation — with and without follow-matrix pruning.
//! 2. **Normalization** is idempotent, semantics-preserving, and gives
//!    commuted alternations identical cache keys.
//! 3. **Exactness of the sum.** `estimate_expr` is bit-identical to
//!    summing per-path `estimate` calls over the brute-force enumeration
//!    (length-major, lexicographic), across **all 7 orderings × 6
//!    histogram kinds** — and the exact-oracle path agrees with actual
//!    graph counts.
//! 4. **Consistency across the four `CardinalityEstimator` impls**
//!    (exact oracle, histogram, independence, sampling): every estimate
//!    is finite and non-negative, widening an expression by alternation
//!    never lowers its total, and a histogram with one bucket budget per
//!    domain path (β = |Lk|) *is* the exact oracle, for every ordering
//!    and histogram kind — per path and, bit for bit, per expression.
//! 5. **The walk's counts.** `pruned` and `truncated` equal their
//!    definitions over a brute-force prefix enumeration: `pruned` is the
//!    number of distinct prefixes `q = p·l` (`2 ≤ |q| ≤ k`) of the
//!    expression's words whose `p` the follow matrix allows and whose last
//!    step it refutes; `truncated` is the number of distinct prefixes of
//!    length `k + 1` whose first `k` labels it allows.
//! 6. **Served ≡ query crate.** A registry generation's
//!    `estimate_expr` on the expression's source text (a miss, a cache
//!    hit, and an explain request) reports the same total bits, width,
//!    `pruned`, `truncated` and `matches_empty` as the query crate's
//!    `HistogramEstimator` on the normalized expression, for every
//!    ordering × histogram kind, and its explain rows are that answer's
//!    branches, rendered. With item 3 this ties the served answer to the
//!    brute-force enumeration.

use std::collections::BTreeSet;

use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::graph::{FollowMatrix, Graph, GraphBuilder, LabelId, VertexId};
use phe::pathenum::{PathRelation, SamplingConfig, SamplingEstimator, SparseCatalog};
use phe::query::{
    CardinalityEstimator, ExactOracle, ExpandOptions, HistogramEstimator, IndependenceBaseline,
    PathExpr, SamplingAdapter,
};
use phe::service::{EstimatorRegistry, ServableEstimator};
use proptest::prelude::*;

const LABELS: u16 = 3;

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0u32..12, 0u16..LABELS, 0u32..12), 0..60).prop_map(|edges| {
        let mut b = GraphBuilder::with_numeric_labels(12, LABELS);
        for (s, l, t) in edges {
            b.add_edge(VertexId(s), LabelId(l), VertexId(t));
        }
        b.build()
    })
}

/// A recursive random expression over the fixed alphabet; depth and
/// fan-out are bounded so expansions stay enumerable.
struct ArbExpr {
    depth: u8,
}

impl Strategy for ArbExpr {
    type Value = PathExpr;
    fn generate(&self, rng: &mut proptest::TestRng) -> PathExpr {
        gen_expr(rng, self.depth)
    }
}

fn gen_expr(rng: &mut proptest::TestRng, depth: u8) -> PathExpr {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(5) == 0 {
            PathExpr::Wildcard
        } else {
            PathExpr::Label(LabelId(rng.below(LABELS as u64) as u16))
        };
    }
    match rng.below(3) {
        0 => PathExpr::Concat(
            (0..2 + rng.below(2))
                .map(|_| gen_expr(rng, depth - 1))
                .collect(),
        ),
        1 => PathExpr::Alt(
            (0..2 + rng.below(2))
                .map(|_| gen_expr(rng, depth - 1))
                .collect(),
        ),
        _ => {
            let min = rng.below(3) as u8;
            let max = (min + 1 + rng.below(2) as u8).min(3).max(min.max(1));
            PathExpr::Repeat {
                inner: Box::new(gen_expr(rng, depth - 1)),
                min,
                max,
            }
        }
    }
}

/// Every concrete sequence of length `1..=max_len`, in the canonical
/// length-major, lexicographic order, that the expression matches and
/// the (optional) follow matrix allows — the reference the expansion
/// must reproduce exactly.
fn brute_force_matches(
    expr: &PathExpr,
    max_len: usize,
    follow: Option<&FollowMatrix>,
) -> Vec<Vec<LabelId>> {
    let mut out = Vec::new();
    for len in 1..=max_len {
        let total = (LABELS as u64).pow(len as u32);
        for i in 0..total {
            let mut seq = Vec::with_capacity(len);
            for j in 0..len {
                let div = (LABELS as u64).pow((len - 1 - j) as u32);
                seq.push(LabelId(((i / div) % LABELS as u64) as u16));
            }
            if !expr.matches(&seq) {
                continue;
            }
            if let Some(follow) = follow {
                if !follow.allows(&seq) {
                    continue;
                }
            }
            out.push(seq);
        }
    }
    out
}

/// The longest word `expr` matches.
fn longest_word(expr: &PathExpr) -> usize {
    match expr {
        PathExpr::Label(_) | PathExpr::Wildcard => 1,
        PathExpr::Concat(parts) => parts.iter().map(longest_word).sum(),
        PathExpr::Alt(branches) => branches.iter().map(longest_word).max().unwrap_or(0),
        PathExpr::Repeat { inner, max, .. } => longest_word(inner) * *max as usize,
    }
}

/// `(pruned, truncated)` by definition, from every distinct prefix of
/// every word `expr` matches (all words must be at most `longest` long).
fn brute_force_counts(
    expr: &PathExpr,
    longest: usize,
    max_len: usize,
    follow: Option<&FollowMatrix>,
) -> (u64, u64) {
    let mut prefixes: BTreeSet<Vec<LabelId>> = BTreeSet::new();
    for word in brute_force_matches(expr, longest, None) {
        for n in 1..=word.len() {
            prefixes.insert(word[..n].to_vec());
        }
    }
    let allows = |p: &[LabelId]| follow.is_none_or(|f| f.allows(p));
    let pruned = prefixes
        .iter()
        .filter(|q| (2..=max_len).contains(&q.len()))
        .filter(|q| {
            let (p, l) = (&q[..q.len() - 1], q[q.len() - 1]);
            follow.is_some_and(|f| allows(p) && !f.follows(p[p.len() - 1], l))
        })
        .count();
    let truncated = prefixes
        .iter()
        .filter(|q| q.len() == max_len + 1 && allows(&q[..max_len]))
        .count();
    (pruned as u64, truncated as u64)
}

fn opts(max_len: usize) -> ExpandOptions<'static> {
    ExpandOptions::new(LABELS as usize, max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Expansion produces exactly the brute-force match set, in canonical
    // order, with and without follow pruning.
    #[test]
    fn expansion_equals_brute_force_enumeration(
        expr in ArbExpr { depth: 3 },
        g in arb_graph(),
        max_len in 1usize..4,
    ) {
        let follow = FollowMatrix::from_graph(&g);
        for follow in [None, Some(&follow)] {
            let mut o = opts(max_len);
            if let Some(f) = follow {
                o = o.with_follow(f);
            }
            let expansion = expr.expand(&o).unwrap();
            let got: Vec<Vec<LabelId>> =
                expansion.paths.iter().map(|p| p.label_ids()).collect();
            let expected = brute_force_matches(&expr, max_len, follow);
            prop_assert_eq!(
                &got,
                &expected,
                "expr {} (follow: {})",
                expr,
                follow.is_some()
            );
            prop_assert_eq!(expansion.matches_empty, expr.matches(&[]));
        }
    }

    // The walk's counts match their definitions, with and without a
    // follow matrix. Words are kept short enough to enumerate.
    #[test]
    fn pruned_and_truncated_match_their_definitions(
        expr in ArbExpr { depth: 3 },
        g in arb_graph(),
        max_len in 1usize..6,
    ) {
        let longest = longest_word(&expr);
        prop_assume!(longest <= 6);
        let follow = FollowMatrix::from_graph(&g);
        for follow in [None, Some(&follow)] {
            let mut o = opts(max_len);
            if let Some(f) = follow {
                o = o.with_follow(f);
            }
            let expansion = expr.expand(&o).unwrap();
            prop_assert_eq!(
                (expansion.pruned, expansion.truncated),
                brute_force_counts(&expr, longest, max_len, follow),
                "expr {} at k = {} (follow: {})",
                expr,
                max_len,
                follow.is_some()
            );
        }
    }

    // Normalization: idempotent, key-stable, and semantics-preserving.
    #[test]
    fn normalization_is_idempotent_and_semantics_preserving(
        expr in ArbExpr { depth: 3 },
    ) {
        let normalized = expr.normalize();
        prop_assert_eq!(normalized.normalize(), normalized.clone(), "idempotence");
        prop_assert_eq!(expr.cache_key(), normalized.cache_key());
        let a = expr.expand(&opts(3)).unwrap();
        let b = normalized.expand(&opts(3)).unwrap();
        prop_assert_eq!(a.paths, b.paths, "{} vs {}", expr, normalized);
        prop_assert_eq!(a.matches_empty, b.matches_empty);
    }

    // Commuting (and duplicating) alternation branches never changes the
    // cache key.
    #[test]
    fn commuted_alternations_share_cache_keys(
        a in ArbExpr { depth: 2 },
        b in ArbExpr { depth: 2 },
        c in ArbExpr { depth: 2 },
    ) {
        let forward = PathExpr::Concat(vec![
            PathExpr::Alt(vec![a.clone(), b.clone(), c.clone()]),
            a.clone(),
        ]);
        let rotated = PathExpr::Concat(vec![
            PathExpr::Alt(vec![c.clone(), a.clone(), b.clone(), c]),
            a,
        ]);
        prop_assert_eq!(forward.cache_key(), rotated.cache_key());
        prop_assert_eq!(
            PathExpr::Alt(vec![b.clone()]).cache_key(),
            b.cache_key(),
            "singleton alternation unwraps"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The acceptance property: `estimate_expr` is bit-identical to the
    // sum of per-concrete-path `estimate` calls over the brute-force
    // enumeration, across all 7 orderings × 6 histogram kinds.
    #[test]
    fn estimate_expr_is_bit_identical_to_brute_force_sum(
        expr in ArbExpr { depth: 3 },
        g in arb_graph(),
        k in 1usize..4,
        beta in 1usize..16,
    ) {
        let follow = FollowMatrix::from_graph(&g);
        for ordering in OrderingKind::ALL.into_iter().chain([OrderingKind::Ideal]) {
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
                let estimator =
                    HistogramEstimator::new(&built).with_follow(follow.clone());
                let got = estimator.estimate_expr(&expr).unwrap();

                let reference = brute_force_matches(&expr, k, Some(&follow));
                let mut expected = 0.0f64;
                for seq in &reference {
                    expected += estimator.estimate(seq).max(0.0);
                }
                prop_assert_eq!(
                    got.total.to_bits(),
                    expected.to_bits(),
                    "{}/{}: expr {} got {} expected {}",
                    ordering.name(),
                    histogram.name(),
                    expr,
                    got.total,
                    expected
                );
                prop_assert_eq!(got.width(), reference.len());
                // The branch breakdown is the enumeration itself.
                for ((path, _), seq) in got.branches.iter().zip(&reference) {
                    prop_assert_eq!(&path.label_ids(), seq);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The oracle path: expression totals equal actual graph counts —
    // summed per concrete path over the brute-force enumeration, where
    // each path's count comes from evaluating the graph directly.
    #[test]
    fn oracle_expr_totals_agree_with_actual_graph_counts(
        expr in ArbExpr { depth: 3 },
        g in arb_graph(),
        k in 1usize..4,
    ) {
        let catalog = SparseCatalog::compute(&g, k).unwrap();
        let follow = FollowMatrix::from_graph(&g);
        let oracle = ExactOracle::new(&catalog).with_follow(follow.clone());
        let got = oracle.estimate_expr(&expr).unwrap();

        let mut actual = 0u64;
        for seq in brute_force_matches(&expr, k, Some(&follow)) {
            actual += PathRelation::evaluate(&g, &seq).pair_count();
        }
        prop_assert_eq!(
            got.total,
            actual as f64,
            "expr {}: oracle {} vs actual {}",
            expr,
            got.total,
            actual
        );
        // Pruning is sound for truth: branches the follow matrix removed
        // contribute zero, so the unpruned total is identical.
        let unpruned = ExactOracle::new(&catalog).estimate_expr(&expr).unwrap();
        prop_assert_eq!(unpruned.total, got.total);
        prop_assert!(unpruned.width() >= got.width());
    }
}

/// Every path of length `1..=k` over the test alphabet, canonical order.
fn domain_paths(k: usize) -> Vec<Vec<LabelId>> {
    let domain = phe::core::PathDomain::new(LABELS as usize, k);
    (0..domain.size())
        .map(|i| domain.canonical_path(i).label_ids())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Every estimator answers every path with a finite, non-negative
    // estimate, and an alternation's total is never below either of its
    // branches' totals (its expansion is a superset, every term ≥ 0).
    #[test]
    fn estimators_are_finite_nonnegative_and_monotone_under_alternation(
        e1 in ArbExpr { depth: 3 },
        e2 in ArbExpr { depth: 3 },
        g in arb_graph(),
        k in 1usize..4,
        beta in 1usize..16,
    ) {
        let follow = FollowMatrix::from_graph(&g);
        let catalog = SparseCatalog::compute(&g, k).unwrap();
        let built = PathSelectivityEstimator::build(
            &g,
            EstimatorConfig {
                k,
                beta,
                threads: 1,
                ..EstimatorConfig::default()
            },
        )
        .unwrap();
        let oracle = ExactOracle::new(&catalog).with_follow(follow.clone());
        let histogram = HistogramEstimator::new(&built).with_follow(follow.clone());
        let independence = IndependenceBaseline::from_graph(&g);
        let sampling = SamplingAdapter::new(SamplingEstimator::new(
            &g,
            SamplingConfig {
                sample_size: 4,
                seed: 11,
            },
        ))
        .with_follow(follow);
        let estimators: [&dyn CardinalityEstimator; 4] =
            [&oracle, &histogram, &independence, &sampling];
        let widened = PathExpr::Alt(vec![e1.clone(), e2.clone()]);
        for est in estimators {
            for path in domain_paths(k) {
                let e = est.estimate(&path);
                prop_assert!(e.is_finite() && e >= 0.0, "{}: {} for {:?}", est.name(), e, path);
            }
            for narrow in [&e1, &e2] {
                if let (Ok(wide), Ok(narrow)) = (est.estimate_expr(&widened), est.estimate_expr(narrow)) {
                    prop_assert!(
                        wide.total >= narrow.total,
                        "{}: {} total {} < branch total {}",
                        est.name(),
                        widened,
                        wide.total,
                        narrow.total
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // With one bucket per domain path (β = |Lk|) every histogram kind
    // reproduces the counts exactly under every ordering: the histogram
    // estimator equals the exact oracle on every path, and its
    // expression totals equal the oracle's bit for bit.
    #[test]
    fn full_budget_histograms_equal_the_exact_oracle(
        expr in ArbExpr { depth: 3 },
        g in arb_graph(),
        k in 1usize..4,
    ) {
        let follow = FollowMatrix::from_graph(&g);
        let catalog = SparseCatalog::compute(&g, k).unwrap();
        let oracle = ExactOracle::new(&catalog).with_follow(follow.clone());
        let paths = domain_paths(k);
        let truth = oracle.estimate_expr(&expr);
        for ordering in OrderingKind::ALL.into_iter().chain([OrderingKind::Ideal]) {
            for histogram in HistogramKind::ALL {
                let config = EstimatorConfig {
                    k,
                    beta: catalog.len(),
                    ordering,
                    histogram,
                    threads: 1,
                    retain_sparse: false,
                };
                let built = PathSelectivityEstimator::build(&g, config).unwrap();
                let estimator = HistogramEstimator::new(&built).with_follow(follow.clone());
                for path in &paths {
                    prop_assert_eq!(
                        estimator.estimate(path).to_bits(),
                        oracle.estimate(path).to_bits(),
                        "{}/{}: {:?}",
                        ordering.name(),
                        histogram.name(),
                        path
                    );
                }
                let got = estimator.estimate_expr(&expr);
                match (&got, &truth) {
                    (Ok(got), Ok(truth)) => prop_assert_eq!(
                        got.total.to_bits(),
                        truth.total.to_bits(),
                        "{}/{}: expr {}",
                        ordering.name(),
                        histogram.name(),
                        expr
                    ),
                    _ => prop_assert_eq!(got.is_ok(), truth.is_ok()),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The served answer is the query crate's: a miss, a hit and an
    // explain request on the source text all report the histogram
    // estimator's total bits and accounting for the normalized
    // expression, and the explain rows are its branches, rendered.
    #[test]
    fn served_expression_answers_equal_the_query_crates(
        expr in ArbExpr { depth: 3 },
        g in arb_graph(),
        k in 1usize..4,
        beta in 1usize..16,
    ) {
        let follow = FollowMatrix::from_graph(&g);
        let source = expr.to_string();
        let normalized = expr.normalize();
        for ordering in OrderingKind::ALL.into_iter().chain([OrderingKind::Ideal]) {
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
                let expected = HistogramEstimator::new(&built)
                    .with_follow(follow.clone())
                    .estimate_expr(&normalized)
                    .unwrap();
                let registry = EstimatorRegistry::with_default_counters();
                registry.register("default", ServableEstimator::from_estimator(built));
                let served = registry.get("default").unwrap();
                let answers = [
                    served.estimate_expr(&source, false).unwrap(),
                    served.estimate_expr(&source, false).unwrap(),
                    served.estimate_expr(&source, true).unwrap(),
                ];
                for (answer, cached) in answers.iter().zip([false, true, false]) {
                    prop_assert_eq!(
                        (
                            answer.total.to_bits(),
                            answer.width,
                            answer.pruned,
                            answer.truncated,
                            answer.matches_empty,
                            answer.cached,
                        ),
                        (
                            expected.total.to_bits(),
                            expected.width() as u64,
                            expected.pruned,
                            expected.truncated,
                            expected.matches_empty,
                            cached,
                        ),
                        "{}/{}: expr {}",
                        ordering.name(),
                        histogram.name(),
                        source
                    );
                }
                let rows: Vec<(String, u64)> = expected
                    .branches
                    .iter()
                    .map(|(path, e)| (served.estimator().render_path(path), e.to_bits()))
                    .collect();
                let explained: Option<Vec<(String, u64)>> = answers[2]
                    .branches
                    .as_ref()
                    .map(|b| b.iter().map(|(path, e)| (path.clone(), e.to_bits())).collect());
                prop_assert_eq!(explained, Some(rows));
                prop_assert!(answers[0].branches.is_none() && answers[1].branches.is_none());
            }
        }
    }
}
