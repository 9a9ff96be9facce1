#![warn(missing_docs)]

//! # phe-query — a regular-path-query engine driven by selectivity estimates
//!
//! The paper's motivation is that graph query optimizers need accurate
//! path cardinalities to pick good execution plans. This crate closes the
//! loop around one IR: the [`PathExpr`] — concatenation `a/b`,
//! alternation `(a|b)`, optional `a?`, bounded repetition `a{m,n}`, and
//! the single-step wildcard `.` — parsed with byte-spanned errors,
//! **expanded** into its disjoint set of concrete label paths (pruned by
//! the graph's follow matrix), estimated as an exact sum of per-branch
//! estimates by any [`CardinalityEstimator`], join-order optimized per
//! branch, executed, and measured (see the `downstream_plans` and
//! `rpq_estimation` experiment binaries and the `query_optimizer`
//! example).
//!
//! ```
//! use phe_graph::GraphBuilder;
//! use phe_query::{parse_path, optimize, execute, ExactOracle};
//! use phe_pathenum::SparseCatalog;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge_named(0, "knows", 1);
//! b.add_edge_named(1, "likes", 2);
//! b.add_edge_named(2, "knows", 3);
//! let g = b.build();
//!
//! let query = parse_path(&g, "knows/likes/knows").unwrap();
//! let catalog = SparseCatalog::compute(&g, 3).unwrap();
//! let oracle = ExactOracle::new(&catalog);
//! let plan = optimize(&query, &oracle);
//! let report = execute(&g, &plan);
//! assert_eq!(report.result.pair_count(), 1); // 0 -> 3
//! ```
//!
//! ## Expressions
//!
//! Every estimator answers whole expressions through
//! [`CardinalityEstimator::estimate_expr`]; totals are sums over the
//! expansion's canonical order (length-major, then lexicographic), so
//! they are reproducible bit for bit:
//!
//! ```
//! use phe_graph::{FollowMatrix, GraphBuilder};
//! use phe_query::{parse_expr, optimize_expr, CardinalityEstimator, ExactOracle};
//! use phe_pathenum::SparseCatalog;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge_named(0, "knows", 1);
//! b.add_edge_named(1, "likes", 2);
//! b.add_edge_named(2, "knows", 3);
//! let g = b.build();
//!
//! let expr = parse_expr(&g, "knows/(likes|knows)?").unwrap();
//! let catalog = SparseCatalog::compute(&g, 3).unwrap();
//! let oracle = ExactOracle::new(&catalog).with_follow(FollowMatrix::from_graph(&g));
//! let estimate = oracle.estimate_expr(&expr).unwrap();
//! // knows (2 pairs) + knows/likes (1); the knows/knows branch is
//! // pruned — no knows-edge target has an outgoing knows-edge.
//! assert_eq!(estimate.total, 3.0);
//! assert_eq!(estimate.width(), 2);
//! assert_eq!(estimate.pruned, 1);
//!
//! // Alternation pushes through join-order enumeration: one chain plan
//! // per expansion branch, unioned.
//! let plan = optimize_expr(&expr, &oracle).unwrap();
//! assert_eq!(plan.width(), estimate.width());
//! ```
//!
//! ## Serving
//!
//! In production the optimizer does not own the estimator: statistics are
//! built offline, snapshotted, and served by a long-lived process. The
//! `phe-service` crate provides that tier — an estimator registry with
//! snapshot hot-swap, batched estimation with an LRU estimate cache, and
//! a TCP protocol (`phe serve` / `phe query --remote`). An optimizer
//! session maps naturally onto one batched request: collect the candidate
//! paths for a plan search, estimate them in one round trip (answered
//! consistently by a single estimator generation), then optimize locally.
//! Expressions are answered by [`CardinalityEstimator::estimate_expr`]
//! there too: the serving generation and the restored snapshot behind
//! `phe estimate` / `phe query --snapshot` both implement the trait, so
//! the server and the CLI run this crate's expand-and-sum loop.

pub mod estimate;
pub mod exec;
pub mod expr;
pub mod optimizer;
pub mod parse;
pub mod plan;
pub mod workload;

pub use estimate::{
    CardinalityEstimator, ExactOracle, ExprEstimate, HistogramEstimator, IndependenceBaseline,
    SamplingAdapter,
};
pub use exec::{execute, ExecutionReport};
pub use expr::{render_path, ExpandError, ExpandOptions, Expansion, PathExpr};
pub use optimizer::{optimize, optimize_expr};
pub use parse::{parse_expr, parse_path, LabelResolver, QueryError, QueryErrorKind, Span};
pub use plan::{ExprPlan, Plan};
pub use workload::{stratified_expr_workload, stratified_workload, ExprWorkload, Workload};
