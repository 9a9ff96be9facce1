//! Error type for histogram construction.

use std::fmt;

/// Errors produced while building a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistogramError {
    /// The input frequency sequence was empty.
    EmptyData,
    /// A bucket budget of zero was requested.
    ZeroBuckets,
    /// The exact V-optimal dynamic program was asked for a domain too large
    /// to be practical; carries the domain size and the configured limit.
    ExactTooLarge {
        /// Requested domain size.
        domain: usize,
        /// The configured maximum.
        limit: usize,
    },
    /// A build needs a dense-sized output or input past the
    /// materialization limit: a bucket budget above
    /// [`crate::sparse::DENSE_MATERIALIZE_LIMIT`], or (in `phe-core`) a
    /// path domain past the canonical index space.
    DomainTooLarge {
        /// The (implicit-zeros) domain size.
        domain: u64,
        /// The configured materialization limit.
        limit: u64,
    },
    /// The sparse `(index, frequency)` runs violated an invariant
    /// (unsorted, duplicate, or out-of-domain indexes).
    InvalidSparseRuns(String),
    /// Counting the catalog a histogram is built over failed (`phe-core`
    /// owns the count; the message is its error, rendered).
    Catalog(String),
}

impl fmt::Display for HistogramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistogramError::EmptyData => write!(f, "cannot build a histogram over empty data"),
            HistogramError::ZeroBuckets => write!(f, "bucket budget must be at least 1"),
            HistogramError::ExactTooLarge { domain, limit } => write!(
                f,
                "exact V-optimal DP over {domain} values exceeds the {limit}-value limit; \
                 use VOptimalMode::GreedyMerge"
            ),
            HistogramError::DomainTooLarge { domain, limit } => write!(
                f,
                "domain of {domain} values exceeds the {limit}-value dense materialization \
                 limit"
            ),
            HistogramError::InvalidSparseRuns(msg) => {
                write!(f, "invalid sparse frequency runs: {msg}")
            }
            HistogramError::Catalog(msg) => write!(f, "counting the path catalog: {msg}"),
        }
    }
}

impl std::error::Error for HistogramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(HistogramError::EmptyData.to_string().contains("empty"));
        assert!(HistogramError::ZeroBuckets
            .to_string()
            .contains("at least 1"));
        let e = HistogramError::ExactTooLarge {
            domain: 100000,
            limit: 4096,
        };
        assert!(e.to_string().contains("100000"));
        assert!(e.to_string().contains("GreedyMerge"));
    }
}
