//! # phe-bench — one seeded command that measures serving, maintenance
//! and build, end to end and per layer
//!
//! The `phe_bench` binary runs four workloads against the workspace's
//! public APIs, each from inputs generated from `--seed` alone:
//!
//! * `serve-hot` — cached `estimate` requests over loopback TCP
//!   ([`serve::serve_hot`]);
//! * `serve-expr` — uncached `estimate_expr` requests
//!   ([`serve::serve_expr`]);
//! * `maintain` — reads beside compacted delta publishes
//!   ([`maintain::maintain`]);
//! * `build` — full single-threaded builds ([`build::build`]).
//!
//! Every answer is checked, the paper's Formula 6 accuracy is measured
//! beside speed, and a traced run breaks each end-to-end figure into the
//! layers it passes through plus an `unattributed` row. Metric names,
//! units and regression bounds live in the repository's `BENCHMARK.json`
//! ([`report`]); how to run and read it is in this package's `README.md`.

pub mod build;
mod inputs;
pub mod maintain;
pub mod report;
mod rng;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workload;
