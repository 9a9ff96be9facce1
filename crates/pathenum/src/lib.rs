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
//!   with bitset de-duplication;
//! * [`sparse`] — the [`sparse::SparseCatalog`]: sorted
//!   `(canonical_index, count)` runs over only the *realized* paths,
//!   counted by the crate's one trie-walk kernel — a depth-first traversal
//!   of the label-path trie that shares each prefix relation between all
//!   its extensions, descends only along labels that can follow, and
//!   sizes all depth-`k` leaves of a node in one fused pass over its
//!   targets' out-edges, without building them; subtrees whose relations
//!   fan in are counted target-major, with per-target source bitmasks —
//!   sequentially or sharded per thread with a k-way merge. It is the
//!   only catalog: a
//!   path absent from the runs has selectivity 0, so its size follows the
//!   graph, not the domain, and domains up to the canonical index space
//!   (2⁴⁸ paths) count; larger `(|L|, k)` requests are refused with a
//!   checked [`catalog::CatalogError`] rather than an allocation panic;
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
//! use phe_pathenum::SparseCatalog;
//! use phe_graph::LabelId;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge_named(0, "a", 1);
//! b.add_edge_named(1, "b", 2);
//! b.add_edge_named(0, "a", 2);
//! let g = b.build();
//!
//! let catalog = SparseCatalog::compute(&g, 2).unwrap();
//! assert_eq!(catalog.selectivity(&[LabelId(0)]), 2);             // a
//! assert_eq!(catalog.selectivity(&[LabelId(0), LabelId(1)]), 1); // a/b
//! assert_eq!(catalog.selectivity(&[LabelId(1), LabelId(1)]), 0); // b/b
//! assert_eq!((catalog.len(), catalog.nonzero_count()), (6, 3));  // a, b, a/b
//! ```

pub mod catalog;
pub mod delta;
pub mod encoding;
pub mod file;
pub mod mmap;
pub mod naive;
pub mod relation;
pub mod runs;
pub mod sampling;
pub mod sparse;

pub use catalog::CatalogError;
pub use delta::{compute_delta, SparseDeltaRun};
pub use encoding::PathEncoding;
pub use relation::PathRelation;
pub use runs::{CompressedRuns, RunsBuilder, RunsCursor};
pub use sampling::{SamplingConfig, SamplingEstimator};
pub use sparse::SparseCatalog;
