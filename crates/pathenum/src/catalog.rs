//! Why a selectivity catalog could not be counted, restored or merged.
//!
//! The catalog itself is [`crate::sparse::SparseCatalog`]: `f(ℓ)` for the
//! realized paths, every other path of the domain implicitly 0. The
//! [`crate::naive`] per-path evaluator stays its independent oracle.

/// Why a catalog could not be built, restored or merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The label alphabet is empty or exceeds the `u16` id space.
    BadAlphabet {
        /// Offending alphabet size.
        label_count: usize,
    },
    /// `max_len` (`k`) was zero.
    ZeroLength,
    /// The path domain `Σ |L|^i` overflows the addressable index space.
    DomainTooLarge {
        /// Alphabet size `|L|`.
        label_count: usize,
        /// Maximum path length `k`.
        max_len: usize,
        /// Exact domain size, computed in `u128` so it cannot wrap.
        size: u128,
        /// The limit that was exceeded.
        limit: u128,
    },
    /// A restored run holds an index outside the domain it claims.
    CountsLengthMismatch {
        /// `encoding.domain_size()`.
        expected: usize,
        /// The run's largest index.
        found: usize,
    },
    /// Incremental counting was asked to bridge two graphs with different
    /// label alphabets — a delta cannot introduce or drop labels, because
    /// every canonical index is pinned to `|L|`.
    AlphabetChanged {
        /// `|L|` of the base graph.
        old: usize,
        /// `|L|` of the changed graph.
        new: usize,
    },
    /// A delta run was merged into a catalog with a different encoding
    /// (its canonical indexes mean different paths).
    DeltaEncodingMismatch {
        /// The catalog's `(|L|, k)`.
        catalog: (usize, usize),
        /// The delta run's `(|L|, k)`.
        delta: (usize, usize),
    },
    /// Applying a delta would drive a count negative — the run was not
    /// computed against the graph this catalog counts.
    DeltaUnderflow {
        /// The offending canonical index.
        canonical_index: u64,
        /// The catalog's count at that index.
        count: u64,
        /// The signed difference that was applied.
        delta: i64,
    },
    /// A spill-to-disk build could not write or re-read a shard file.
    SpillIo {
        /// The underlying filesystem error, rendered.
        message: String,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::BadAlphabet { label_count } => {
                write!(f, "label alphabet of {label_count} is outside 1..=65535")
            }
            CatalogError::ZeroLength => write!(f, "need max_len >= 1"),
            CatalogError::DomainTooLarge {
                label_count,
                max_len,
                size,
                limit,
            } => write!(
                f,
                "path domain of {size} entries (|L| = {label_count}, k = {max_len}) \
                 is too large to catalog (limit {limit})"
            ),
            CatalogError::CountsLengthMismatch { expected, found } => write!(
                f,
                "count vector of length {found} does not cover the domain of {expected}"
            ),
            CatalogError::AlphabetChanged { old, new } => write!(
                f,
                "label alphabet changed from {old} to {new} labels; a delta cannot \
                 change |L| — rebuild from scratch"
            ),
            CatalogError::DeltaEncodingMismatch { catalog, delta } => write!(
                f,
                "delta run over (|L| = {}, k = {}) cannot merge into a catalog over \
                 (|L| = {}, k = {})",
                delta.0, delta.1, catalog.0, catalog.1
            ),
            CatalogError::DeltaUnderflow {
                canonical_index,
                count,
                delta,
            } => write!(
                f,
                "delta {delta} at canonical index {canonical_index} underflows the \
                 catalog count {count}; the run was not computed against this \
                 catalog's graph"
            ),
            CatalogError::SpillIo { message } => {
                write!(f, "spill-to-disk build failed: {message}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}
