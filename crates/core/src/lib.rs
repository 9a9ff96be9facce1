#![warn(missing_docs)]

//! # phe-core — histogram domain ordering for path selectivity estimation
//!
//! The reproduction of the paper's contribution (EDBT 2018). The problem:
//! a histogram over the domain of label paths `Lk` can only be accurate if
//! paths with similar selectivity sit *next to each other* in the domain —
//! otherwise every bucket mixes wildly different frequencies and the
//! bucket mean estimates none of them. The paper frames this as choosing a
//! **domain ordering**, decomposed into:
//!
//! * a **ranking rule** ([`ranking::LabelRanking`]) — a bijection between
//!   base labels and ranks `[1, |B|]`: *alphabetical* or *cardinality*
//!   (ascending frequency);
//! * an **ordering rule** — a bijection between label paths and indexes
//!   `[0, |Lk|)` built on top of the ranks:
//!   [`ordering::NumericalOrdering`], [`ordering::LexicographicalOrdering`],
//!   or the paper's novel [`ordering::SumBasedOrdering`] (Algorithms 1–2,
//!   Formulas 3–5), which groups paths by the *sum* of their label ranks so
//!   that paths composed of similar-frequency labels — and hence, under
//!   approximate label independence, of similar selectivity — share buckets.
//!
//! The five ordering methods of the paper are `num-alph`, `num-card`,
//! `lex-alph`, `lex-card`, and `sum-based` (always cardinality-ranked);
//! [`OrderingKind`] enumerates them plus the future-work `sum-based-L2`
//! extension over the richer base set `B = L²` ([`base_set`]).
//!
//! [`estimator::PathSelectivityEstimator`] is the one-stop API:
//!
//! ```
//! use phe_core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
//! use phe_datasets::{erdos_renyi, LabelDistribution};
//! use phe_graph::LabelId;
//!
//! let g = erdos_renyi(60, 240, 3, LabelDistribution::Zipf { exponent: 1.0 }, 7);
//! let est = PathSelectivityEstimator::build(
//!     &g,
//!     EstimatorConfig {
//!         k: 3,
//!         beta: 16,
//!         ordering: OrderingKind::SumBased,
//!         histogram: HistogramKind::VOptimalGreedy,
//!         threads: 1,
//!         retain_sparse: true,
//!     },
//! ).unwrap();
//! let e = est.estimate(&[LabelId(0), LabelId(1)]);
//! assert!(e >= 0.0);
//! // Ground truth and whole-domain accuracy read the retained sparse state.
//! let truth = est.exact(&[LabelId(0), LabelId(1)]).unwrap();
//! assert_eq!(est.error(&[LabelId(0), LabelId(1)]), Some(phe_histogram::error_rate(e, truth)));
//! assert_eq!(est.accuracy_report().unwrap().count, 3 + 9 + 27);
//! ```
//!
//! ## Scaling
//!
//! The paper's domain `Lk` grows as `Σ |L|^i`, but real graphs realize
//! only the label paths actual edge chains spell out. The build pipeline
//! is therefore **sparse-first**: [`PathSelectivityEstimator::build`]
//! streams a sharded sparse catalog (`phe-pathenum`'s `SparseCatalog`,
//! sorted `(canonical_index, count)` runs) through
//! [`DomainOrdering::ordered_index`] — the combinatorial canonical →
//! ordered remap of Formulas 3–5 — into the sparse histogram builders of
//! `phe-histogram`, which charge O(1) per zero run. The dense `Vec<u64>`
//! over the full domain is never materialized, so `(|L|, k)` points whose
//! dense vector would not even allocate (e.g. `|L| = 64, k = 6`: ~70
//! billion paths, half a terabyte dense) build in seconds from tens of
//! megabytes of realized counts. The estimates are **bit-identical** to
//! the textbook construction — naive per-path counts, permuted by
//! unranking every index, one histogram over the dense sequence
//! (property-tested across every ordering × histogram kind in
//! `tests/sparse_equivalence.rs`).
//!
//! Ground truth costs `O(realized paths)` too: set
//! [`EstimatorConfig::retain_sparse`] (`estimator` module) to keep the
//! sparse catalog and its ordered runs for
//! [`PathSelectivityEstimator::exact`] and
//! [`PathSelectivityEstimator::accuracy_report`], which scores the whole
//! domain in closed form from the runs and the histogram's constant
//! pieces ([`eval`]); leave it off (the default) and the estimator
//! retains only buckets + ordering state — the serving footprint.
//! Snapshots are versioned (currently v3, which records the delta lineage
//! below); every older format restores unchanged.
//!
//! ## Keeping statistics fresh
//!
//! A serving system absorbs graph updates without recounting from
//! scratch: build with [`EstimatorConfig::retain_sparse`] (keeps the
//! `O(realized paths)` sparse catalog), then feed each batch of edge
//! changes to [`PathSelectivityEstimator::apply_delta`]. The delta is
//! counted over only the touched paths (`phe-pathenum`'s `compute_delta`),
//! k-way merged into the retained catalog with cancellation of zeroed
//! entries, and the ordering + histogram are re-derived — bit-identical
//! to a full rebuild, at a cost proportional to the change. Provenance
//! travels along: the snapshot records the originating full build's id
//! and the number of deltas applied since (format v3).
//!
//! ## Serving
//!
//! Everything here is `Send + Sync` after construction (asserted at
//! compile time in [`estimator`] and [`snapshot`]), so a built estimator
//! — or one restored from an [`snapshot::EstimatorSnapshot`] — can be
//! shared across threads behind an `Arc` with no locking. The
//! `phe-service` crate builds the production serving tier on exactly that:
//! a registry of named estimators with atomic snapshot hot-swap, batched
//! estimation with a sharded LRU cache, and a TCP request loop (`phe
//! serve`). Use [`PathSelectivityEstimator::into_shared`] /
//! [`PathSelectivityEstimator::into_serving_parts`] at the boundary.

pub mod base_set;
pub mod combinatorics;
pub mod domain;
pub mod estimator;
pub mod eval;
pub mod label_histogram;
pub mod ordering;
pub mod path;
pub mod ranking;
pub mod snapshot;

pub use domain::PathDomain;
pub use estimator::{
    DeltaError, DriftReport, EstimatorConfig, HistogramKind, PathSelectivityEstimator,
};
pub use eval::evaluate_configuration;
pub use label_histogram::LabelPathHistogram;
pub use ordering::{
    DomainOrdering, IdealOrdering, LexicographicalOrdering, NumericalOrdering, OrderingKind,
    SumBasedOrdering,
};
pub use path::{LabelPath, MAX_K};
pub use ranking::LabelRanking;
pub use snapshot::{EstimatorSnapshot, SnapshotError};
