#![warn(missing_docs)]

//! # phe-service — concurrent estimation serving
//!
//! Everything below `phe-service` in this workspace is batch-shaped:
//! build an estimator, run a table, exit. This crate turns the estimator
//! into what a production query optimizer actually consumes — a
//! **long-lived, concurrently queryable statistics service**:
//!
//! * [`registry::EstimatorRegistry`] — named serving slots holding
//!   `Arc`-swappable [`registry::ServingEstimator`] generations. A rebuilt
//!   snapshot **hot-swaps** in atomically; in-flight readers keep the
//!   generation they pinned, so no request ever sees a torn estimator.
//! * [`registry::ServingEstimator::estimate_batch`] — batched estimation
//!   that amortizes registry lookup, metrics, and protocol overhead over
//!   many paths, fronted by a sharded LRU [`cache::ShardedLruCache`] with
//!   hit/miss counters (optimizer workloads re-ask hot join paths
//!   constantly).
//! * [`Server`] — a std-only TCP server: a readiness-driven event loop
//!   over a `poll(2)` [`reactor`], with admission control and load
//!   shedding, speaking newline-delimited JSON (see [`protocol`])
//!   through the `phe serve` and `phe query --remote` CLI subcommands.
//! * [`maintenance::MaintenanceCoordinator`] — the one write path for
//!   `delta` ops: every server runs one, queueing change batches and
//!   folding them into compacted compare-and-swap publishes, each of
//!   which equals a fresh build of the maintained graph.
//! * [`metrics::ServiceMetrics`] — qps, p50/p99 latency, cache hit rate;
//!   the serve loop prints the report on SIGINT/shutdown.
//!
//! ## In-process quickstart
//!
//! ```
//! use std::sync::Arc;
//! use phe_core::{EstimatorConfig, PathSelectivityEstimator};
//! use phe_datasets::{erdos_renyi, LabelDistribution};
//! use phe_graph::LabelId;
//! use phe_service::estimator::ServableEstimator;
//! use phe_service::registry::EstimatorRegistry;
//!
//! let g = erdos_renyi(60, 240, 3, LabelDistribution::Zipf { exponent: 1.0 }, 7);
//! let est = PathSelectivityEstimator::build(&g, EstimatorConfig {
//!     k: 3, beta: 16, threads: 1, ..EstimatorConfig::default()
//! }).unwrap();
//!
//! let registry = Arc::new(EstimatorRegistry::with_default_counters());
//! registry.register("main", ServableEstimator::from_estimator(est));
//!
//! // Pin a generation, serve a batch; hot-swaps never disturb it.
//! let generation = registry.get("main").unwrap();
//! let estimates = generation
//!     .estimate_id_batch(&[vec![LabelId(0), LabelId(1)], vec![LabelId(2)]])
//!     .unwrap();
//! assert_eq!(estimates.len(), 2);
//! ```
//!
//! Over the wire, the same batch is one NDJSON line — see [`protocol`]
//! for the full op set and [`client::ServiceClient`] for the blocking
//! client.
//!
//! The crate is unix-only: the event loop is built on `poll(2)` and
//! `pipe(2)`.

#[cfg(not(unix))]
compile_error!("phe-service is unix-only: its event loop is built on poll(2)");

pub mod cache;
pub mod client;
pub mod estimator;
pub mod eventloop;
pub mod maintenance;
pub mod metrics;
pub mod protocol;
pub mod reactor;
pub mod registry;
pub mod server;

pub use cache::{CacheCounters, ExprCache, ShardedLruCache};
pub use client::{BatchEstimates, BatchExprEstimates, ClientError, ExprResult, ServiceClient};
pub use estimator::{EstimateError, ServableEstimator};
pub use eventloop::Server;
pub use maintenance::{
    EnqueueError, FailAction, FailPoint, FailurePlan, Gate, MaintenanceConfig,
    MaintenanceCoordinator, RunOutcome, SlotStatus,
};
pub use metrics::{MetricsReport, ServiceMetrics};
pub use registry::{EstimatorRegistry, ExprOutcome, ServingEstimator};
pub use server::{install_sigint_flag, load_snapshot, ServerConfig};
