//! The dense selectivity catalog: `f(ℓ)` for every path `|ℓ| ≤ k`,
//! zeros included.
//!
//! Dense is a *view*: counting is done once, by the sparse kernel
//! ([`crate::sparse::SparseCatalog::compute`], a follow-pruned trie walk
//! with count-only leaves), and [`SelectivityCatalog::compute`]
//! materializes its result over the whole domain. The [`crate::naive`]
//! per-path evaluator stays the independent oracle for both.

use phe_graph::{Graph, LabelId};

use crate::encoding::PathEncoding;
use crate::sparse::SparseCatalog;

/// The largest domain the **dense** catalog will allocate: beyond this the
/// flat `Vec<u64>` alone exceeds 2 GiB and the sparse pipeline
/// ([`crate::sparse::SparseCatalog`]) is the only sane representation.
pub const DENSE_DOMAIN_LIMIT: usize = 1 << 28;

/// Why a catalog could not be built or converted.
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
    /// The domain fits the index space but is too large to *materialize*
    /// densely (the flat count vector would exceed
    /// [`DENSE_DOMAIN_LIMIT`]).
    DenseTooLarge {
        /// Domain size in paths.
        size: u128,
        /// The dense materialization limit.
        limit: usize,
    },
    /// An externally supplied count vector does not cover the domain.
    CountsLengthMismatch {
        /// `encoding.domain_size()`.
        expected: usize,
        /// Length of the supplied vector.
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
            CatalogError::DenseTooLarge { size, limit } => write!(
                f,
                "domain of {size} paths is too large to materialize densely \
                 (limit {limit}); use the sparse catalog"
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

/// The complete table of path selectivities up to length `k`.
///
/// Conceptually a map `label path → f(ℓ)`; stored as a dense vector in
/// [`PathEncoding`] canonical order. Paths with no matching pairs are
/// present with value 0 — the histogram domain of the paper includes them.
#[derive(Debug, Clone)]
pub struct SelectivityCatalog {
    encoding: PathEncoding,
    counts: Vec<u64>,
}

impl SelectivityCatalog {
    /// Computes the catalog single-threaded: the sparse count
    /// ([`SparseCatalog::compute`]) materialized with
    /// [`SparseCatalog::to_dense`]. For the multi-threaded count, call
    /// [`SparseCatalog::compute_parallel`] and materialize its result.
    ///
    /// # Panics
    /// Panics if the domain overflows the index space or the dense
    /// materialization limit — use [`SelectivityCatalog::try_compute`] for
    /// a checked error (large `(|L|, k)` belongs to the sparse pipeline).
    pub fn compute(graph: &Graph, k: usize) -> SelectivityCatalog {
        match Self::try_compute(graph, k) {
            Ok(catalog) => catalog,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of [`SelectivityCatalog::compute`]: refuses domains
    /// that overflow the canonical index space or exceed
    /// [`DENSE_DOMAIN_LIMIT`] with a [`CatalogError`] — before counting,
    /// so an infeasible request costs no build.
    pub fn try_compute(graph: &Graph, k: usize) -> Result<SelectivityCatalog, CatalogError> {
        check_dense_domain(&PathEncoding::try_new(graph.label_count().max(1), k)?)?;
        SparseCatalog::compute(graph, k)?.to_dense()
    }

    /// Wraps an externally computed count vector (canonical order) — how
    /// [`SparseCatalog::to_dense`] and the [`crate::naive`] oracle build
    /// theirs.
    ///
    /// # Panics
    /// Panics if the vector does not cover the domain — use
    /// [`SelectivityCatalog::try_from_counts`] for a checked error.
    pub fn from_counts(encoding: PathEncoding, counts: Vec<u64>) -> SelectivityCatalog {
        match Self::try_from_counts(encoding, counts) {
            Ok(catalog) => catalog,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of [`SelectivityCatalog::from_counts`].
    pub fn try_from_counts(
        encoding: PathEncoding,
        counts: Vec<u64>,
    ) -> Result<SelectivityCatalog, CatalogError> {
        if counts.len() != encoding.domain_size() {
            return Err(CatalogError::CountsLengthMismatch {
                expected: encoding.domain_size(),
                found: counts.len(),
            });
        }
        Ok(SelectivityCatalog { encoding, counts })
    }

    /// The selectivity `f(ℓ)` of `path`.
    ///
    /// # Panics
    /// Panics if the path is empty, longer than `k`, or mentions an unknown
    /// label.
    #[inline]
    pub fn selectivity(&self, path: &[LabelId]) -> u64 {
        self.counts[self.encoding.encode(path)]
    }

    /// The selectivity at a canonical index.
    #[inline]
    pub fn selectivity_at(&self, canonical_index: usize) -> u64 {
        self.counts[canonical_index]
    }

    /// The canonical encoding (for permuting into domain orderings).
    #[inline]
    pub fn encoding(&self) -> &PathEncoding {
        &self.encoding
    }

    /// The raw count vector in canonical order.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of cataloged paths (the domain size).
    #[inline]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the catalog is empty (zero-label graph).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates `(path, f(path))` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Vec<LabelId>, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.encoding.decode(i), c))
    }

    /// The catalog restricted to paths of length `≤ k'` — a prefix of the
    /// canonical layout, because the encoding is length-major. Lets an
    /// experiment compute one catalog at `k_max` and evaluate every
    /// smaller `k` for free.
    ///
    /// # Panics
    /// Panics if `k'` is 0 or exceeds this catalog's `k`.
    pub fn truncated(&self, k: usize) -> SelectivityCatalog {
        assert!(
            k >= 1 && k <= self.encoding.max_len(),
            "k = {k} outside 1..={}",
            self.encoding.max_len()
        );
        let encoding = PathEncoding::new(self.encoding.label_count(), k);
        let counts = self.counts[..encoding.domain_size()].to_vec();
        SelectivityCatalog { encoding, counts }
    }

    /// Sum of all selectivities (diagnostic; the "mass" of the distribution).
    pub fn total_mass(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of paths with zero selectivity.
    pub fn zero_count(&self) -> usize {
        self.counts.iter().filter(|&&c| c == 0).count()
    }
}

/// Refuses encodings whose dense count vector would exceed
/// [`DENSE_DOMAIN_LIMIT`].
pub(crate) fn check_dense_domain(encoding: &PathEncoding) -> Result<(), CatalogError> {
    let size = encoding.domain_size();
    if size > DENSE_DOMAIN_LIMIT {
        return Err(CatalogError::DenseTooLarge {
            size: size as u128,
            limit: DENSE_DOMAIN_LIMIT,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_graph::GraphBuilder;

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }

    /// Two-label chain: 0 -a-> 1 -b-> 2 -a-> 3.
    fn chain() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "b", 2);
        b.add_edge_named(2, "a", 3);
        b.build()
    }

    #[test]
    fn chain_catalog_k3() {
        let g = chain();
        let c = SelectivityCatalog::compute(&g, 3);
        assert_eq!(c.len(), 2 + 4 + 8);
        assert_eq!(c.selectivity(&[l(0)]), 2); // a
        assert_eq!(c.selectivity(&[l(1)]), 1); // b
        assert_eq!(c.selectivity(&[l(0), l(1)]), 1); // a/b
        assert_eq!(c.selectivity(&[l(1), l(0)]), 1); // b/a
        assert_eq!(c.selectivity(&[l(0), l(0)]), 0); // a/a
        assert_eq!(c.selectivity(&[l(0), l(1), l(0)]), 1); // a/b/a
        assert_eq!(c.selectivity(&[l(1), l(1)]), 0);
    }

    #[test]
    fn zero_paths_are_cataloged() {
        let g = chain();
        let c = SelectivityCatalog::compute(&g, 2);
        // Domain: 2 + 4 = 6 paths, of which a, b, a/b, b/a are non-zero.
        assert_eq!(c.len(), 6);
        assert_eq!(c.zero_count(), 2);
    }

    #[test]
    fn diamond_distinct_pairs() {
        // 0 -a-> {1,2} -b-> 3: a/b must count (0,3) once.
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 3);
        b.add_edge_named(2, "b", 3);
        let g = b.build();
        let c = SelectivityCatalog::compute(&g, 2);
        assert_eq!(c.selectivity(&[l(0), l(1)]), 1);
    }

    #[test]
    fn cycle_selectivities() {
        // 0 -a-> 1 -a-> 0 : a/a = {(0,0),(1,1)}, a/a/a = {(0,1),(1,0)}.
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(1, "a", 0);
        let g = b.build();
        let c = SelectivityCatalog::compute(&g, 3);
        assert_eq!(c.selectivity(&[l(0)]), 2);
        assert_eq!(c.selectivity(&[l(0), l(0)]), 2);
        assert_eq!(c.selectivity(&[l(0), l(0), l(0)]), 2);
    }

    #[test]
    fn iter_covers_domain() {
        let g = chain();
        let c = SelectivityCatalog::compute(&g, 2);
        let items: Vec<(Vec<LabelId>, u64)> = c.iter().collect();
        assert_eq!(items.len(), 6);
        assert_eq!(items[0], (vec![l(0)], 2));
        let mass: u64 = items.iter().map(|(_, f)| f).sum();
        assert_eq!(mass, c.total_mass());
    }

    #[test]
    fn truncated_is_a_prefix_restriction() {
        let g = chain();
        let full = SelectivityCatalog::compute(&g, 3);
        let cut = full.truncated(2);
        let direct = SelectivityCatalog::compute(&g, 2);
        assert_eq!(cut.counts(), direct.counts());
        assert_eq!(cut.encoding().max_len(), 2);
        // k' = k is identity.
        assert_eq!(full.truncated(3).counts(), full.counts());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn truncated_rejects_larger_k() {
        let g = chain();
        SelectivityCatalog::compute(&g, 2).truncated(3);
    }

    #[test]
    fn oversized_domains_are_checked_errors() {
        // |L| = 1000, k = 8 ⇒ 10^24 paths: overflows the index space.
        let mut b = GraphBuilder::with_numeric_labels(2, 1000);
        b.add_edge_named(0, "l0", 1);
        let g = b.build();
        match SelectivityCatalog::try_compute(&g, 8) {
            Err(CatalogError::DomainTooLarge { size, .. }) => {
                assert!(size > 1 << 48, "size {size}")
            }
            other => panic!("expected DomainTooLarge, got {other:?}"),
        }
        // |L| = 64, k = 6 ⇒ ~6.9e10 paths: fits the index space but not a
        // dense vector.
        let mut b = GraphBuilder::with_numeric_labels(2, 64);
        b.add_edge_named(0, "l0", 1);
        let g = b.build();
        assert!(matches!(
            SelectivityCatalog::try_compute(&g, 6),
            Err(CatalogError::DenseTooLarge { .. })
        ));
    }

    #[test]
    fn from_counts_length_mismatch_is_a_checked_error() {
        let encoding = PathEncoding::new(2, 2);
        assert!(matches!(
            SelectivityCatalog::try_from_counts(encoding, vec![0; 3]),
            Err(CatalogError::CountsLengthMismatch {
                expected: 6,
                found: 3
            })
        ));
    }

    #[test]
    fn length_one_catalog_equals_label_frequencies() {
        let g = chain();
        let c = SelectivityCatalog::compute(&g, 1);
        for label in g.label_ids() {
            assert_eq!(c.selectivity(&[label]), g.label_frequency(label));
        }
    }
}
