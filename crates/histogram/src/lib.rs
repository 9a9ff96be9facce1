#![warn(missing_docs)]

//! # phe-histogram — histograms over ordered frequency sequences
//!
//! A histogram approximates a data distribution `F[0..N)` by partitioning
//! the (ordered) domain into `β` buckets and storing per-bucket summaries.
//! In this workspace `F[i]` is the selectivity of the `i`-th label path in
//! some domain ordering; the whole point of the paper is that the choice of
//! that ordering decides how well *any* bucketing can do.
//!
//! This crate is deliberately domain-agnostic. Every builder reads one
//! input type, [`SparseFrequencies`]: the non-zero `(index, frequency)`
//! runs of the sequence, with implicit zeros, so a zero run costs O(1)
//! however long it is. The runs come from a borrowed pair slice, from any
//! streaming [`RunSource`] (phe-core's block-compressed catalogs), or
//! from a plain `&[u64]` through the zero-copy [`SparseFrequencies::dense`]
//! view. There is one implementation per builder; the integration tests
//! pin each to a textbook oracle written over `&[u64]`.
//!
//! Provided partitioners (see [`builder::HistogramBuilder`]):
//!
//! * [`builder::EquiWidth`] — equal index ranges;
//! * [`builder::EquiDepth`] — equal cumulative frequency;
//! * [`builder::VOptimal`] — variance-minimizing, in three modes:
//!   exact `O(N²β)` dynamic programming, greedy bottom-up merging
//!   (`O(nnz log nnz)`), and the max-diff boundary heuristic;
//! * [`end_biased::EndBiasedHistogram`] — exact singletons for the
//!   highest-frequency values plus one average for the rest (not a bucketed
//!   range partition; kept for the ablation study).
//!
//! ```
//! use phe_histogram::{EquiWidth, HistogramBuilder, PointEstimator, SparseFrequencies};
//!
//! // A dense sequence, viewed in place.
//! let data = [10u64, 12, 11, 900, 950, 920];
//! let h = EquiWidth.build(&SparseFrequencies::dense(&data), 2).unwrap();
//! assert_eq!(h.bucket_count(), 2);
//! assert!((h.estimate(0) - 11.0).abs() < 1e-9);
//! assert!((h.estimate(4) - 923.33).abs() < 0.01);
//!
//! // Sparse runs over a domain far too large to materialize.
//! let runs = [(3u64, 40u64), (1 << 40, 7)];
//! let sparse = SparseFrequencies::new(&runs, 1 << 41).unwrap();
//! let h = EquiWidth.build(&sparse, 2).unwrap();
//! assert_eq!(h.total_sum(), 47);
//! ```

pub mod bucket;
pub mod builder;
pub mod end_biased;
pub mod error;
pub mod histogram;
pub mod metrics;
pub mod sparse;
pub mod v_optimal;

pub use bucket::Bucket;
pub use builder::{EquiDepth, EquiWidth, HistogramBuilder, VOptimal, VOptimalMode};
pub use end_biased::EndBiasedHistogram;
pub use error::HistogramError;
pub use histogram::Histogram;
pub use metrics::{error_rate, mean_abs_error_rate, q_error, AccuracyReport};
pub use sparse::{EntryCursor, RunSource, SparseFrequencies, SparsePrefix};

/// Anything that can answer a point-frequency estimate for a domain index.
///
/// Implemented by the bucketed [`Histogram`] and by
/// [`EndBiasedHistogram`]; the estimator in `phe-core` is generic over it.
pub trait PointEstimator {
    /// Estimated frequency of domain index `i`.
    fn estimate(&self, index: usize) -> f64;

    /// Domain size the estimator was built over.
    fn domain_size(&self) -> usize;

    /// Approximate in-memory footprint, for space-budget comparisons.
    fn size_bytes(&self) -> usize;

    /// The estimator as constant pieces `(first, last, estimate)`: every
    /// index in `first..=last` estimates `estimate`, and the pieces tile
    /// `[0, domain_size)` in ascending order. O(β) of them — what
    /// [`AccuracyReport::from_pieces`] scores the whole domain from.
    fn pieces(&self) -> Vec<(u64, u64, f64)>;
}
