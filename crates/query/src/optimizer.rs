//! Join-order optimization by dynamic programming over split points.
//!
//! Path queries join along a chain, so the plan space is the set of
//! binary trees over a contiguous range — the matrix-chain problem. The
//! DP finds the tree minimizing [`crate::plan::Plan::estimated_cost`]
//! under a given estimator in `O(m³)` for `m` steps (`m ≤ 8` here, so
//! this is instant; the interesting question is what the *estimates* do
//! to plan quality).

use phe_graph::LabelId;

use crate::estimate::CardinalityEstimator;
use crate::expr::{ExpandError, PathExpr};
use crate::plan::{ExprPlan, Plan};

/// Builds the minimum-estimated-cost join tree for `query`.
///
/// # Panics
/// Panics on an empty query (parse first — [`crate::parse_path`] rejects
/// those).
pub fn optimize(query: &[LabelId], estimator: &dyn CardinalityEstimator) -> Plan {
    assert!(!query.is_empty(), "cannot optimize an empty query");
    let m = query.len();

    // est[i][j] = estimated cardinality of steps i..j (j exclusive).
    let mut est = vec![vec![0.0f64; m + 1]; m];
    for i in 0..m {
        for j in (i + 1)..=m {
            est[i][j] = estimator.estimate(&query[i..j]).max(0.0);
        }
    }

    // cost[i][j] = minimal total cost of materializing steps i..j;
    // split[i][j] = the split point achieving it.
    let mut cost = vec![vec![0.0f64; m + 1]; m];
    let mut split = vec![vec![0usize; m + 1]; m];
    for len in 2..=m {
        for i in 0..=(m - len) {
            let j = i + len;
            let mut best = f64::INFINITY;
            let mut best_s = i + 1;
            for s in (i + 1)..j {
                // Materialize both inputs, plus whatever they cost to build.
                let c = cost[i][s] + cost[s][j] + est[i][s] + est[s][j];
                if c < best {
                    best = c;
                    best_s = s;
                }
            }
            cost[i][j] = best;
            split[i][j] = best_s;
        }
    }

    build_plan(query, &est, &split, 0, m)
}

fn build_plan(
    query: &[LabelId],
    est: &[Vec<f64>],
    split: &[Vec<usize>],
    i: usize,
    j: usize,
) -> Plan {
    if j - i == 1 {
        return Plan::Leaf {
            label: query[i],
            estimated: est[i][j],
        };
    }
    let s = split[i][j];
    Plan::Join {
        left: Box::new(build_plan(query, est, split, i, s)),
        right: Box::new(build_plan(query, est, split, s, j)),
        estimated: est[i][j],
    }
}

/// Plans a regular path expression by pushing alternation through
/// join-order enumeration: the expression expands to its concrete
/// branches (follow-matrix pruned when the estimator carries one), each
/// branch — a plain chain — runs through the matrix-chain DP
/// independently, and the branch plans are unioned. Branch populations
/// are disjoint by construction, so the union's estimate is the sum of
/// branch estimates.
///
/// # Errors
/// [`ExpandError::TooManyPaths`] when the expression expands past its
/// path bound, and [`ExpandError::EmptyExpansion`] when it denotes no
/// estimable path at all (every branch pruned or over-length) — a
/// data-dependent condition the caller cannot always predict.
pub fn optimize_expr(
    expr: &PathExpr,
    estimator: &dyn CardinalityEstimator,
) -> Result<ExprPlan, ExpandError> {
    let estimate = estimator.estimate_expr(expr)?;
    if estimate.branches.is_empty() {
        return Err(ExpandError::EmptyExpansion);
    }
    let branches = estimate
        .branches
        .iter()
        .map(|(path, _)| optimize(path.as_label_ids(), estimator))
        .collect();
    Ok(ExprPlan {
        branches,
        estimated: estimate.total,
        pruned: estimate.pruned,
        truncated: estimate.truncated,
    })
}

/// Enumerates every binary join tree over the query (Catalan-many) with
/// its estimated cost — used by tests and the plan-quality experiment to
/// rank the optimizer's choice among all alternatives.
pub fn enumerate_plans(query: &[LabelId], estimator: &dyn CardinalityEstimator) -> Vec<Plan> {
    fn rec(
        query: &[LabelId],
        estimator: &dyn CardinalityEstimator,
        i: usize,
        j: usize,
    ) -> Vec<Plan> {
        if j - i == 1 {
            return vec![Plan::Leaf {
                label: query[i],
                estimated: estimator.estimate(&query[i..j]).max(0.0),
            }];
        }
        let mut out = Vec::new();
        let node_est = estimator.estimate(&query[i..j]).max(0.0);
        for s in (i + 1)..j {
            for l in rec(query, estimator, i, s) {
                for r in rec(query, estimator, s, j) {
                    out.push(Plan::Join {
                        left: Box::new(l.clone()),
                        right: Box::new(r.clone()),
                        estimated: node_est,
                    });
                }
            }
        }
        out
    }
    rec(query, estimator, 0, query.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::ExactOracle;
    use phe_graph::GraphBuilder;
    use phe_pathenum::SparseCatalog;

    /// A graph where a/b is tiny but b/c is huge, so the optimizer should
    /// join a/b first in the query a/b/c.
    fn skewed_graph() -> phe_graph::Graph {
        let mut b = GraphBuilder::new();
        // a: one edge into the b-fan. b: a hub fan-out. c: fan continues.
        b.add_edge_named(0, "a", 1);
        for t in 2..22 {
            b.add_edge_named(1, "b", t);
            for w in 0..5 {
                b.add_edge_named(t, "c", 100 + (t * 5 + w));
            }
        }
        b.build()
    }

    #[test]
    fn optimizer_prefers_small_intermediates() {
        let g = skewed_graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let query = crate::parse::parse_path(&g, "a/b/c").unwrap();
        let plan = optimize(&query, &oracle);
        // f(a/b) = 20, f(b/c) = 100: best plan is (a ⋈ b) ⋈ c.
        match &plan {
            Plan::Join { left, .. } => {
                assert_eq!(left.step_count(), 2, "expected (a⋈b) first: {plan}");
            }
            Plan::Leaf { .. } => panic!("three steps cannot be a leaf"),
        }
    }

    #[test]
    fn dp_matches_exhaustive_enumeration() {
        let g = skewed_graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let query = crate::parse::parse_path(&g, "a/b/c").unwrap();
        let chosen = optimize(&query, &oracle);
        let best_by_enum = enumerate_plans(&query, &oracle)
            .into_iter()
            .map(|p| p.estimated_cost())
            .fold(f64::INFINITY, f64::min);
        assert!((chosen.estimated_cost() - best_by_enum).abs() < 1e-9);
    }

    #[test]
    fn single_step_is_a_leaf() {
        let g = skewed_graph();
        let catalog = SparseCatalog::compute(&g, 1).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let plan = optimize(&[phe_graph::LabelId(0)], &oracle);
        assert!(matches!(plan, Plan::Leaf { .. }));
        assert_eq!(plan.estimated_cost(), 0.0);
    }

    #[test]
    fn plan_covers_query_in_order() {
        let g = skewed_graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let query = crate::parse::parse_path(&g, "c/b/a").unwrap();
        let plan = optimize(&query, &oracle);
        assert_eq!(plan.labels(), query);
    }

    #[test]
    fn optimize_expr_unions_per_branch_plans() {
        let g = skewed_graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let expr = crate::parse::parse_expr(&g, "(a|b)/c | a/b/c").unwrap();
        let plan = optimize_expr(&expr, &oracle).unwrap();
        // Branches: a/c, b/c, a/b/c — each a chain plan in canonical order.
        assert_eq!(plan.width(), 3);
        assert_eq!(plan.branches[0].labels().len(), 2);
        assert_eq!(plan.branches[2].labels().len(), 3);
        // The three-step branch is join-ordered exactly as optimize() would.
        let chain = crate::parse::parse_path(&g, "a/b/c").unwrap();
        assert_eq!(plan.branches[2], optimize(&chain, &oracle));
        // Union totals are branch sums.
        let direct = oracle.estimate_expr(&expr).unwrap();
        assert_eq!(plan.estimated.to_bits(), direct.total.to_bits());
        let explain = plan.explain();
        assert!(explain.contains("union of 3 branch(es)"), "{explain}");
    }

    #[test]
    fn optimize_expr_reports_empty_expansions_as_errors() {
        let g = skewed_graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        // Every branch exceeds the oracle's max_len of 3.
        let expr = crate::parse::parse_expr(&g, "a/b/c/a").unwrap();
        assert_eq!(
            optimize_expr(&expr, &oracle),
            Err(crate::expr::ExpandError::EmptyExpansion)
        );
    }

    #[test]
    fn enumerate_counts_catalan() {
        let g = skewed_graph();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);
        let query = crate::parse::parse_path(&g, "a/b/c").unwrap();
        // C(2) = 2 trees over 3 leaves.
        assert_eq!(enumerate_plans(&query, &oracle).len(), 2);
    }
}
