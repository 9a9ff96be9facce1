//! Pluggable cardinality estimators for the optimizer — slice and
//! expression entry points.
//!
//! [`CardinalityEstimator::estimate`] answers one concrete label path;
//! [`CardinalityEstimator::estimate_expr`] answers a whole
//! [`PathExpr`] by expanding it into concrete paths (follow-matrix
//! pruned when the estimator carries one) and summing per-path estimates
//! in the expansion's canonical order. Because distinct concrete paths
//! are disjoint populations, the total is exact *given* the per-path
//! estimates — and deterministically reproducible bit for bit, which the
//! `prop_expr` suite pins down against a brute-force enumeration.

use phe_core::{PathSelectivityEstimator, MAX_K};
use phe_graph::{FollowMatrix, LabelId};
use phe_pathenum::{SamplingEstimator, SparseCatalog};

use crate::expr::{ExpandError, ExpandOptions, PathExpr};

/// An expression estimate: the branch breakdown and the canonical-order
/// total, plus the expansion's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprEstimate {
    /// Total estimated pairs across all branches, summed in branch order
    /// (length-major, then lexicographic — see `crate::expr`).
    pub total: f64,
    /// One `(concrete path, estimate)` per expansion branch, in canonical
    /// order. Estimates are clamped at 0.
    pub branches: Vec<(phe_core::LabelPath, f64)>,
    /// Branches discarded by follow-matrix pruning before estimation.
    pub pruned: u64,
    /// Branches discarded for exceeding the estimator's maximum length.
    pub truncated: u64,
    /// Whether the expression also denotes the (inestimable) empty path.
    pub matches_empty: bool,
}

impl ExprEstimate {
    /// Number of concrete branches estimated.
    pub fn width(&self) -> usize {
        self.branches.len()
    }
}

/// Anything that can estimate the selectivity of a label sub-path — and,
/// through expansion, of a whole regular path expression.
pub trait CardinalityEstimator {
    /// Estimated number of distinct `(source, target)` pairs of `path`.
    fn estimate(&self, path: &[LabelId]) -> f64;

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Number of labels in the estimator's alphabet — what a wildcard
    /// step expands over.
    fn label_count(&self) -> usize;

    /// Maximum concrete path length this estimator answers (defaults to
    /// the engine-wide [`MAX_K`]).
    fn max_len(&self) -> usize {
        MAX_K
    }

    /// The follow matrix used to prune impossible expansion branches, if
    /// the estimator carries one. `None` disables pruning (sound, just
    /// more branches to estimate).
    fn follow_matrix(&self) -> Option<&FollowMatrix> {
        None
    }

    /// Estimates a regular path expression: expand (pruned, bounded),
    /// estimate every concrete branch, and sum in canonical order. The
    /// branch loop is timed as the `query.estimate` stage, whoever the
    /// caller is.
    ///
    /// # Errors
    /// [`ExpandError`] when the expansion exceeds its path bound.
    fn estimate_expr(&self, expr: &PathExpr) -> Result<ExprEstimate, ExpandError> {
        let mut opts = ExpandOptions::new(self.label_count(), self.max_len());
        if let Some(follow) = self.follow_matrix() {
            opts = opts.with_follow(follow);
        }
        let expansion = expr.expand(&opts)?;
        let _estimate = phe_obs::span::stage("query.estimate");
        let mut branches = Vec::with_capacity(expansion.paths.len());
        let mut total = 0.0f64;
        for path in &expansion.paths {
            let estimate = self.estimate(path.as_label_ids()).max(0.0);
            total += estimate;
            branches.push((*path, estimate));
        }
        Ok(ExprEstimate {
            total,
            branches,
            pruned: expansion.pruned,
            truncated: expansion.truncated,
            matches_empty: expansion.matches_empty,
        })
    }
}

/// Perfect estimates from a sparse selectivity catalog — the upper bound
/// on what any estimator can achieve, used to calibrate plan-quality
/// experiments.
pub struct ExactOracle<'a> {
    catalog: &'a SparseCatalog,
    follow: Option<FollowMatrix>,
}

impl<'a> ExactOracle<'a> {
    /// Wraps a catalog.
    pub fn new(catalog: &'a SparseCatalog) -> Self {
        ExactOracle {
            catalog,
            follow: None,
        }
    }

    /// Attaches a follow matrix for expression-expansion pruning.
    pub fn with_follow(mut self, follow: FollowMatrix) -> Self {
        self.follow = Some(follow);
        self
    }
}

impl CardinalityEstimator for ExactOracle<'_> {
    fn estimate(&self, path: &[LabelId]) -> f64 {
        self.catalog.selectivity(path) as f64
    }

    fn name(&self) -> &'static str {
        "exact-oracle"
    }

    fn label_count(&self) -> usize {
        self.catalog.encoding().label_count()
    }

    fn max_len(&self) -> usize {
        self.catalog.encoding().max_len().min(MAX_K)
    }

    fn follow_matrix(&self) -> Option<&FollowMatrix> {
        self.follow.as_ref()
    }
}

/// Histogram-backed estimates — the production scenario this workspace
/// exists to study. Wraps a built [`PathSelectivityEstimator`].
pub struct HistogramEstimator<'a> {
    estimator: &'a PathSelectivityEstimator,
    follow: Option<FollowMatrix>,
}

impl<'a> HistogramEstimator<'a> {
    /// Wraps a built estimator.
    pub fn new(estimator: &'a PathSelectivityEstimator) -> Self {
        HistogramEstimator {
            estimator,
            follow: None,
        }
    }

    /// Attaches a follow matrix for expression-expansion pruning.
    pub fn with_follow(mut self, follow: FollowMatrix) -> Self {
        self.follow = Some(follow);
        self
    }
}

impl CardinalityEstimator for HistogramEstimator<'_> {
    fn estimate(&self, path: &[LabelId]) -> f64 {
        self.estimator.estimate(path).max(0.0)
    }

    fn name(&self) -> &'static str {
        "histogram"
    }

    fn label_count(&self) -> usize {
        self.estimator.label_count()
    }

    fn max_len(&self) -> usize {
        self.estimator.config().k.min(MAX_K)
    }

    fn follow_matrix(&self) -> Option<&FollowMatrix> {
        self.follow.as_ref()
    }
}

/// The textbook independence assumption: each composition step keeps
/// `f(ℓ₁/ℓ₂) ≈ f(ℓ₁) · f(ℓ₂) / |V|`. This is what an optimizer without
/// any path statistics would do — the baseline the paper's motivation
/// implicitly argues against.
pub struct IndependenceBaseline {
    label_frequencies: Vec<u64>,
    vertex_count: usize,
    follow: Option<FollowMatrix>,
}

impl IndependenceBaseline {
    /// Builds from per-label frequencies and the vertex count.
    pub fn new(label_frequencies: Vec<u64>, vertex_count: usize) -> Self {
        IndependenceBaseline {
            label_frequencies,
            vertex_count: vertex_count.max(1),
            follow: None,
        }
    }

    /// Builds from a graph (keeping its follow matrix for expression
    /// pruning — independence needs all the structural help it can get).
    pub fn from_graph(graph: &phe_graph::Graph) -> Self {
        IndependenceBaseline::new(
            graph
                .label_ids()
                .map(|l| graph.label_frequency(l))
                .collect(),
            graph.vertex_count(),
        )
        .with_follow(FollowMatrix::from_graph(graph))
    }

    /// Attaches a follow matrix for expression-expansion pruning.
    pub fn with_follow(mut self, follow: FollowMatrix) -> Self {
        self.follow = Some(follow);
        self
    }
}

impl CardinalityEstimator for IndependenceBaseline {
    fn estimate(&self, path: &[LabelId]) -> f64 {
        let n = self.vertex_count as f64;
        let mut card = 0.0f64;
        for (i, l) in path.iter().enumerate() {
            let f = self.label_frequencies[l.index()] as f64;
            card = if i == 0 { f } else { card * f / n };
        }
        card
    }

    fn name(&self) -> &'static str {
        "independence"
    }

    fn label_count(&self) -> usize {
        self.label_frequencies.len()
    }

    fn follow_matrix(&self) -> Option<&FollowMatrix> {
        self.follow.as_ref()
    }
}

/// Sampling-based estimates (see `phe_pathenum::sampling`): the
/// no-precomputation alternative. Each call traverses the graph from a
/// uniform source sample — accurate but orders of magnitude slower per
/// estimate than a histogram lookup, which is exactly the trade-off the
/// experiments surface.
pub struct SamplingAdapter<'g> {
    estimator: SamplingEstimator<'g>,
    follow: Option<FollowMatrix>,
}

impl<'g> SamplingAdapter<'g> {
    /// Wraps a sampling estimator.
    pub fn new(estimator: SamplingEstimator<'g>) -> Self {
        SamplingAdapter {
            estimator,
            follow: None,
        }
    }

    /// Attaches a follow matrix for expression-expansion pruning.
    pub fn with_follow(mut self, follow: FollowMatrix) -> Self {
        self.follow = Some(follow);
        self
    }
}

impl CardinalityEstimator for SamplingAdapter<'_> {
    fn estimate(&self, path: &[LabelId]) -> f64 {
        self.estimator.estimate(path)
    }

    fn name(&self) -> &'static str {
        "sampling"
    }

    fn label_count(&self) -> usize {
        self.estimator.graph().label_count()
    }

    fn follow_matrix(&self) -> Option<&FollowMatrix> {
        self.follow.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;
    use phe_graph::GraphBuilder;

    #[test]
    fn oracle_returns_truth() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "b", 2);
        let g = b.build();
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        let oracle = ExactOracle::new(&catalog);
        assert_eq!(oracle.estimate(&[LabelId(0)]), 1.0);
        assert_eq!(oracle.estimate(&[LabelId(0), LabelId(1)]), 1.0);
        assert_eq!(oracle.estimate(&[LabelId(1), LabelId(0)]), 0.0);
        assert_eq!(oracle.label_count(), 2);
        assert_eq!(oracle.max_len(), 2);
    }

    #[test]
    fn independence_multiplies() {
        let est = IndependenceBaseline::new(vec![100, 50], 10);
        assert_eq!(est.estimate(&[LabelId(0)]), 100.0);
        // 100 * 50 / 10 = 500.
        assert_eq!(est.estimate(&[LabelId(0), LabelId(1)]), 500.0);
        // Chains further: 500 * 100 / 10 = 5000.
        assert_eq!(est.estimate(&[LabelId(0), LabelId(1), LabelId(0)]), 5000.0);
    }

    #[test]
    fn sampling_adapter_estimates() {
        let mut b = GraphBuilder::new();
        for i in 0..20u32 {
            b.add_edge_named(i, "a", (i + 1) % 20);
        }
        let g = b.build();
        let adapter = SamplingAdapter::new(SamplingEstimator::new(
            &g,
            phe_pathenum::SamplingConfig {
                sample_size: usize::MAX,
                seed: 1,
            },
        ));
        assert_eq!(adapter.estimate(&[LabelId(0)]), 20.0);
        assert_eq!(adapter.name(), "sampling");
        assert_eq!(adapter.label_count(), 1);
    }

    #[test]
    fn independence_is_order_insensitive_but_truth_is_not() {
        // The weakness the paper targets: a/b and b/a get identical
        // independence estimates even when their true selectivities differ.
        let est = IndependenceBaseline::new(vec![10, 20], 5);
        assert_eq!(
            est.estimate(&[LabelId(0), LabelId(1)]),
            est.estimate(&[LabelId(1), LabelId(0)])
        );
    }

    #[test]
    fn estimate_expr_sums_branches_in_canonical_order() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 2);
        b.add_edge_named(2, "b", 3);
        let g = b.build();
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let oracle = ExactOracle::new(&catalog);

        let expr = parse_expr(&g, "a|a/b").unwrap();
        let estimate = oracle.estimate_expr(&expr).unwrap();
        // f(a) = 2, f(a/b) = 2 (0->2 via 1 and 2... distinct pairs).
        let direct = oracle.estimate(&[LabelId(0)]) + oracle.estimate(&[LabelId(0), LabelId(1)]);
        assert_eq!(estimate.total.to_bits(), direct.to_bits());
        assert_eq!(estimate.width(), 2);
        assert_eq!(estimate.branches[0].0.len(), 1, "length-major order");
        assert!(!estimate.matches_empty);
    }

    #[test]
    fn follow_matrix_pruning_changes_the_branch_set_not_the_order() {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "b", 2);
        b.add_edge_named(5, "c", 6);
        let g = b.build();
        let catalog = SparseCatalog::compute(&g, 2).unwrap();
        let pruned_oracle = ExactOracle::new(&catalog).with_follow(FollowMatrix::from_graph(&g));
        let plain_oracle = ExactOracle::new(&catalog);

        // ./. — with pruning only a/b survives; without, all 9 pairs.
        let expr = parse_expr(&g, "./.").unwrap();
        let pruned = pruned_oracle.estimate_expr(&expr).unwrap();
        assert_eq!(pruned.width(), 1);
        assert_eq!(pruned.pruned, 8);
        let plain = plain_oracle.estimate_expr(&expr).unwrap();
        assert_eq!(plain.width(), 9);
        assert_eq!(plain.pruned, 0);
        // The oracle gives 0 to impossible paths, so totals agree here.
        assert_eq!(pruned.total, plain.total);
    }
}
