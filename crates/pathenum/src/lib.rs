#![warn(missing_docs)]

//! # phe-pathenum — path-query evaluation and selectivity catalogs
//!
//! The selectivity `f(ℓ)` of a label path `ℓ = l1/l2/…/lk` on a graph `G`
//! is the number of **distinct** vertex pairs `(vs, vt)` connected by an
//! `ℓ`-labeled walk. Histogram construction needs `f(ℓ)` for *every* label
//! path of length up to `k` — a domain of `Σ_{i≤k} |L|^i` paths — so this
//! crate is organized around computing the complete **catalog** efficiently:
//!
//! * [`relation::PathRelation`] — a binary relation over vertices stored
//!   CSR-style (sorted, duplicate-free target lists per source);
//! * [`relation::PathRelation::compose`] — relation ∘ edge-label composition
//!   with bitset de-duplication, and
//!   [`relation::PathRelation::compose_count`], its size without the
//!   relation;
//! * [`sparse`] — the [`sparse::SparseCatalog`]: sorted
//!   `(canonical_index, count)` runs over only the *realized* paths,
//!   counted by the crate's one trie-walk kernel — a depth-first traversal
//!   of the label-path trie that shares each prefix relation between all
//!   its extensions, descends only along labels that can follow, and
//!   counts depth-`k` leaves without building them — sequentially or
//!   sharded per thread with a k-way merge. This is the
//!   representation that scales past the dense limit
//!   ([`catalog::DENSE_DOMAIN_LIMIT`]); oversized `(|L|, k)` requests are
//!   refused with a checked [`catalog::CatalogError`] rather than an
//!   allocation panic;
//! * [`catalog::SelectivityCatalog`] — the full `f` table, zeros included:
//!   a dense view (`to_dense`) of the sparse count;
//! * [`parallel`] — the same view over the source-partitioned parallel
//!   count, exact because `f(ℓ) = Σ_s |targets(s, ℓ)|` decomposes over
//!   disjoint source sets;
//! * [`naive`] — an independent per-path evaluator used as the correctness
//!   oracle and as the unshared baseline in benchmarks;
//! * [`delta`] — incremental maintenance: [`delta::compute_delta`] counts
//!   the signed selectivity difference of a graph change by visiting only
//!   the paths the changed edges can have touched, and
//!   [`sparse::SparseCatalog::merge_delta`] folds the resulting
//!   [`delta::SparseDeltaRun`] into the previous catalog — bit-identical
//!   to a full recount at a cost proportional to the change.
//!
//! ```
//! use phe_graph::GraphBuilder;
//! use phe_pathenum::SelectivityCatalog;
//! use phe_graph::LabelId;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge_named(0, "a", 1);
//! b.add_edge_named(1, "b", 2);
//! b.add_edge_named(0, "a", 2);
//! let g = b.build();
//!
//! let catalog = SelectivityCatalog::compute(&g, 2);
//! assert_eq!(catalog.selectivity(&[LabelId(0)]), 2);             // a
//! assert_eq!(catalog.selectivity(&[LabelId(0), LabelId(1)]), 1); // a/b
//! ```

pub mod catalog;
pub mod delta;
pub mod encoding;
pub mod file;
pub mod mmap;
pub mod naive;
pub mod parallel;
pub mod relation;
pub mod runs;
pub mod sampling;
pub mod sparse;

pub use catalog::{CatalogError, SelectivityCatalog};
pub use delta::{compute_delta, SparseDeltaRun};
pub use encoding::PathEncoding;
pub use relation::PathRelation;
pub use runs::{CompressedRuns, RunsBuilder, RunsCursor};
pub use sampling::{SamplingConfig, SamplingEstimator};
pub use sparse::SparseCatalog;
