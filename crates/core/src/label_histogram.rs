//! Label-path histograms: a domain ordering plus a histogram over the
//! ordered frequency sequence.

use phe_graph::LabelId;
use phe_histogram::builder::{EquiDepth, EquiWidth, HistogramBuilder, VOptimal};
use phe_histogram::{
    EndBiasedHistogram, Histogram, HistogramError, PointEstimator, SparseFrequencies,
};
use serde::{Deserialize, Serialize};

use crate::ordering::DomainOrdering;
use crate::path::LabelPath;

/// A built histogram of any supported family — concrete (unlike a trait
/// object) so it can be cloned into snapshots and serialized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum BuiltHistogram {
    /// A contiguous-bucket histogram (equi-width/-depth, V-optimal).
    Buckets(Histogram),
    /// An end-biased histogram.
    EndBiased(EndBiasedHistogram),
}

impl BuiltHistogram {
    /// Checks the family's structural invariants — what a snapshot
    /// restore must confirm before it probes a deserialized histogram.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            BuiltHistogram::Buckets(h) => h.validate(),
            BuiltHistogram::EndBiased(h) => h.validate(),
        }
    }
}

impl PointEstimator for BuiltHistogram {
    #[inline]
    fn estimate(&self, index: usize) -> f64 {
        match self {
            BuiltHistogram::Buckets(h) => h.estimate(index),
            BuiltHistogram::EndBiased(h) => h.estimate(index),
        }
    }

    fn domain_size(&self) -> usize {
        match self {
            BuiltHistogram::Buckets(h) => h.domain_size(),
            BuiltHistogram::EndBiased(h) => h.domain_size(),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            BuiltHistogram::Buckets(h) => h.size_bytes(),
            BuiltHistogram::EndBiased(h) => h.size_bytes(),
        }
    }

    fn pieces(&self) -> Vec<(u64, u64, f64)> {
        match self {
            BuiltHistogram::Buckets(h) => h.pieces(),
            BuiltHistogram::EndBiased(h) => h.pieces(),
        }
    }
}

/// Histogram families available to the estimator.
///
/// The paper's experiments use V-optimal throughout; Figure 1 shows
/// equi-width. The greedy V-optimal mode is the paper-scale default (see
/// the `phe-histogram` crate docs for the exact-DP feasibility argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HistogramKind {
    /// Equal index ranges (Figure 1).
    EquiWidth,
    /// Equal cumulative frequency.
    EquiDepth,
    /// V-optimal via exact dynamic programming (small domains only).
    VOptimalExact,
    /// V-optimal via greedy bottom-up merging (paper-scale default).
    VOptimalGreedy,
    /// V-optimal via max-diff boundaries.
    VOptimalMaxDiff,
    /// End-biased: exact heavy hitters + rest average (ordering-agnostic;
    /// ablation only).
    EndBiased,
}

impl HistogramKind {
    /// Every implemented kind.
    pub const ALL: [HistogramKind; 6] = [
        HistogramKind::EquiWidth,
        HistogramKind::EquiDepth,
        HistogramKind::VOptimalExact,
        HistogramKind::VOptimalGreedy,
        HistogramKind::VOptimalMaxDiff,
        HistogramKind::EndBiased,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            HistogramKind::EquiWidth => "equi-width",
            HistogramKind::EquiDepth => "equi-depth",
            HistogramKind::VOptimalExact => "v-optimal-exact",
            HistogramKind::VOptimalGreedy => "v-optimal-greedy",
            HistogramKind::VOptimalMaxDiff => "v-optimal-maxdiff",
            HistogramKind::EndBiased => "end-biased",
        }
    }

    /// Builds the histogram over ordered `(index, frequency)` runs with
    /// implicit zeros; a dense ordered sequence enters through
    /// [`SparseFrequencies::dense`].
    pub fn build(
        &self,
        data: &SparseFrequencies<'_>,
        beta: usize,
    ) -> Result<BuiltHistogram, HistogramError> {
        Ok(match self {
            HistogramKind::EquiWidth => BuiltHistogram::Buckets(EquiWidth.build(data, beta)?),
            HistogramKind::EquiDepth => BuiltHistogram::Buckets(EquiDepth.build(data, beta)?),
            HistogramKind::VOptimalExact => {
                BuiltHistogram::Buckets(VOptimal::exact().build(data, beta)?)
            }
            HistogramKind::VOptimalGreedy => {
                BuiltHistogram::Buckets(VOptimal::greedy().build(data, beta)?)
            }
            HistogramKind::VOptimalMaxDiff => {
                BuiltHistogram::Buckets(VOptimal::maxdiff().build(data, beta)?)
            }
            HistogramKind::EndBiased => {
                BuiltHistogram::EndBiased(EndBiasedHistogram::build(data, beta)?)
            }
        })
    }

    /// Builds the histogram over **block-compressed** ordered runs of a
    /// `domain_size`-index sequence: the builders decode the blocks
    /// through a cursor, so neither the dense sequence nor a plain pair
    /// vector is materialized.
    pub fn build_from_runs(
        &self,
        runs: &phe_pathenum::CompressedRuns,
        domain_size: u64,
        beta: usize,
    ) -> Result<BuiltHistogram, HistogramError> {
        let source = CompressedSource(runs);
        self.build(&SparseFrequencies::from_source(&source, domain_size)?, beta)
    }
}

impl std::fmt::Display for HistogramKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Bridges a block-compressed run into the histogram crate's streaming
/// [`phe_histogram::RunSource`] contract — the glue that lets the
/// builders decode blocks directly (this crate owns neither the trait
/// nor the run type, so the adapter lives at the integration layer).
struct CompressedSource<'a>(&'a phe_pathenum::CompressedRuns);

impl phe_histogram::RunSource for CompressedSource<'_> {
    fn nnz(&self) -> usize {
        self.0.len()
    }

    fn cursor(&self) -> Box<dyn Iterator<Item = (u64, u64)> + '_> {
        Box::new(self.0.iter())
    }
}

/// A histogram over the label-path domain in a chosen ordering: the
/// structure a query optimizer would actually retain (the catalog itself
/// is construction-time only).
pub struct LabelPathHistogram {
    ordering: Box<dyn DomainOrdering>,
    histogram: BuiltHistogram,
}

impl LabelPathHistogram {
    /// Builds a histogram from **block-compressed** sparse ordered
    /// `(index, frequency)` runs (implicit zeros), already permuted into
    /// `ordering`'s index space by
    /// [`crate::eval::sparse_ordered_frequencies`]. This is the one
    /// construction path ([`HistogramKind::build_from_runs`]).
    pub fn from_sparse_frequencies(
        ordering: Box<dyn DomainOrdering>,
        runs: &phe_pathenum::CompressedRuns,
        kind: HistogramKind,
        beta: usize,
    ) -> Result<LabelPathHistogram, HistogramError> {
        let histogram = kind.build_from_runs(runs, ordering.domain_size(), beta)?;
        Ok(LabelPathHistogram {
            ordering,
            histogram,
        })
    }

    /// Reassembles from parts (snapshot restore).
    pub fn from_parts(
        ordering: Box<dyn DomainOrdering>,
        histogram: BuiltHistogram,
    ) -> LabelPathHistogram {
        assert_eq!(
            histogram.domain_size() as u64,
            ordering.domain_size(),
            "histogram and ordering disagree on the domain size"
        );
        LabelPathHistogram {
            ordering,
            histogram,
        }
    }

    /// Estimated selectivity `e(ℓ)`.
    #[inline]
    pub fn estimate(&self, path: &LabelPath) -> f64 {
        let index = self.ordering.index_of(path);
        self.histogram.estimate(index as usize)
    }

    /// Estimated selectivity from a label slice.
    pub fn estimate_labels(&self, labels: &[LabelId]) -> f64 {
        self.estimate(&LabelPath::new(labels))
    }

    /// The domain ordering in use.
    pub fn ordering(&self) -> &dyn DomainOrdering {
        self.ordering.as_ref()
    }

    /// The underlying histogram.
    pub fn histogram(&self) -> &BuiltHistogram {
        &self.histogram
    }

    /// Approximate retained memory: histogram buckets plus any ordering
    /// tables beyond O(|L|) state (only the ideal reference ordering has
    /// them — see [`DomainOrdering::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        self.histogram.size_bytes() + self.ordering.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::PathDomain;
    use crate::ordering::NumericalOrdering;
    use crate::ranking::LabelRanking;
    use phe_pathenum::CompressedRuns;

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }

    /// Identity-ordered 2-label, k=2 domain (6 paths).
    fn ordering() -> Box<dyn DomainOrdering> {
        Box::new(NumericalOrdering::new(
            PathDomain::new(2, 2),
            LabelRanking::identity(2),
            "num-alph",
        ))
    }

    fn runs(ordered: &[u64]) -> CompressedRuns {
        CompressedRuns::from_sorted_iter(
            (0u64..)
                .zip(ordered.iter().copied())
                .filter(|&(_, count)| count > 0),
        )
    }

    #[test]
    fn estimate_reads_through_the_ordering() {
        // Canonical frequencies ascending, identity ordering, singleton
        // buckets ⇒ estimates are exact.
        let freqs = [10u64, 20, 30, 40, 50, 60];
        let h = LabelPathHistogram::from_sparse_frequencies(
            ordering(),
            &runs(&freqs),
            HistogramKind::EquiWidth,
            6,
        )
        .unwrap();
        assert_eq!(h.estimate(&LabelPath::single(l(0))), 10.0);
        assert_eq!(h.estimate(&LabelPath::single(l(1))), 20.0);
        assert_eq!(h.estimate_labels(&[l(1), l(1)]), 60.0);
    }

    #[test]
    fn all_kinds_build() {
        let freqs = [5u64, 0, 9, 2, 0, 3];
        for kind in HistogramKind::ALL {
            let h = LabelPathHistogram::from_sparse_frequencies(ordering(), &runs(&freqs), kind, 3)
                .unwrap();
            let e = h.estimate(&LabelPath::single(l(0)));
            assert!(e.is_finite() && e >= 0.0, "{kind}: estimate {e}");
            // The dense view of the same sequence builds the same histogram.
            let dense = kind.build(&SparseFrequencies::dense(&freqs), 3).unwrap();
            for i in 0..freqs.len() {
                assert_eq!(
                    dense.estimate(i).to_bits(),
                    h.histogram().estimate(i).to_bits()
                );
            }
        }
    }

    #[test]
    fn runs_outside_the_domain_are_rejected() {
        let too_long = runs(&[1, 2, 3, 4, 5, 6, 7]);
        assert!(matches!(
            LabelPathHistogram::from_sparse_frequencies(
                ordering(),
                &too_long,
                HistogramKind::EquiWidth,
                2
            ),
            Err(HistogramError::InvalidSparseRuns(_))
        ));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(HistogramKind::VOptimalGreedy.name(), "v-optimal-greedy");
        assert_eq!(HistogramKind::EquiWidth.to_string(), "equi-width");
    }
}
