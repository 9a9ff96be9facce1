//! Canonical dense indexing of the label-path domain.
//!
//! The catalog stores `f` values in a flat vector indexed by the *canonical*
//! encoding: paths grouped by length (shorter first), then base-`n`
//! positional value of the label-id digits. This is the "numerical ordering
//! with identity ranking" — a storage layout, not one of the paper's
//! candidate orderings; `phe-core` permutes it into each ordering under
//! study.

use phe_graph::LabelId;

/// Bijection between label paths (`&[LabelId]`, length `1..=k` over an
/// `n`-label alphabet) and dense indexes `[0, Σ n^i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEncoding {
    label_count: u16,
    max_len: usize,
}

/// The largest addressable path domain, `Σ n^i < 2^48` entries. Canonical
/// indexes beyond this no longer fit the catalog index space.
pub const MAX_DOMAIN_SIZE: u128 = 1 << 48;

impl PathEncoding {
    /// Creates an encoding for paths of length `1..=max_len` over
    /// `label_count` labels.
    ///
    /// # Panics
    /// Panics if the domain does not fit in memory-addressable space
    /// (`Σ n^i ≥ 2^48`), if `label_count == 0`, or if `max_len == 0`.
    /// Use [`PathEncoding::try_new`] for a checked error instead.
    pub fn new(label_count: usize, max_len: usize) -> PathEncoding {
        match Self::try_new(label_count, max_len) {
            Ok(encoding) => encoding,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checked variant of [`PathEncoding::new`]: a degenerate alphabet or
    /// a domain `Σ n^i ≥ 2^48` is reported as an error instead of a panic,
    /// so callers probing large `(|L|, k)` configurations can refuse them
    /// gracefully.
    pub fn try_new(
        label_count: usize,
        max_len: usize,
    ) -> Result<PathEncoding, crate::catalog::CatalogError> {
        use crate::catalog::CatalogError;
        if label_count == 0 || label_count > u16::MAX as usize {
            return Err(CatalogError::BadAlphabet { label_count });
        }
        if max_len == 0 {
            return Err(CatalogError::ZeroLength);
        }
        let size = domain_size_u128(label_count as u128, max_len);
        if size >= MAX_DOMAIN_SIZE {
            return Err(CatalogError::DomainTooLarge {
                label_count,
                max_len,
                size,
                limit: MAX_DOMAIN_SIZE,
            });
        }
        Ok(PathEncoding {
            label_count: label_count as u16,
            max_len,
        })
    }

    /// Number of labels `n`.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.label_count as usize
    }

    /// Maximum path length `k`.
    #[inline]
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Total number of label paths, `Σ_{i=1..k} n^i`.
    pub fn domain_size(&self) -> usize {
        domain_size_u128(self.label_count as u128, self.max_len) as usize
    }

    /// Number of paths strictly shorter than `len` — the offset of the
    /// length-`len` block.
    pub fn offset_of_length(&self, len: usize) -> usize {
        domain_size_u128(self.label_count as u128, len - 1) as usize
    }

    /// Encodes a path into its canonical index.
    ///
    /// # Panics
    /// Panics if the path is empty, longer than `max_len`, or mentions a
    /// label outside the alphabet.
    pub fn encode(&self, path: &[LabelId]) -> usize {
        let m = path.len();
        assert!(m >= 1 && m <= self.max_len, "path length {m} out of range");
        let n = self.label_count as usize;
        let mut value = 0usize;
        for &l in path {
            assert!(l.index() < n, "label {l} outside alphabet of {n}");
            value = value * n + l.index();
        }
        self.offset_of_length(m) + value
    }

    /// Decodes a canonical index back into a path.
    ///
    /// # Panics
    /// Panics if `index` is outside the domain.
    pub fn decode(&self, index: usize) -> Vec<LabelId> {
        let mut out = Vec::new();
        self.decode_into(index, &mut out);
        out
    }

    /// Decodes into a caller-provided buffer (cleared first), avoiding
    /// allocation in hot loops.
    pub fn decode_into(&self, index: usize, out: &mut Vec<LabelId>) {
        out.clear();
        let n = self.label_count as usize;
        let mut m = 1usize;
        let mut block = n;
        let mut rem = index;
        while rem >= block {
            rem -= block;
            m += 1;
            assert!(m <= self.max_len, "index {index} outside domain");
            block = block.checked_mul(n).expect("domain overflow");
        }
        out.resize(m, LabelId(0));
        let mut value = rem;
        for slot in out.iter_mut().rev() {
            *slot = LabelId((value % n) as u16);
            value /= n;
        }
    }

    /// Iterates all paths in canonical order.
    pub fn iter_paths(&self) -> impl Iterator<Item = Vec<LabelId>> + '_ {
        (0..self.domain_size()).map(move |i| self.decode(i))
    }
}

/// `Σ_{i=1..k} n^i`, saturating at `u128::MAX`. `k` may come from an
/// untrusted file header, so one label sums in closed form and more
/// labels stop once the power overflows: no `k` loops more than 128 times.
fn domain_size_u128(n: u128, k: usize) -> u128 {
    if n == 1 {
        return k as u128;
    }
    let mut total = 0u128;
    let mut power = 1u128;
    for _ in 0..k {
        let Some(next) = power.checked_mul(n) else {
            return u128::MAX;
        };
        power = next;
        total = total.saturating_add(power);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }

    #[test]
    fn domain_sizes_match_formula() {
        assert_eq!(PathEncoding::new(3, 2).domain_size(), 3 + 9);
        assert_eq!(PathEncoding::new(6, 3).domain_size(), 6 + 36 + 216);
        // The paper's k=6 / 6-label domain (the text says 55996; Σ 6^i = 55986).
        assert_eq!(PathEncoding::new(6, 6).domain_size(), 55986);
    }

    #[test]
    fn huge_path_lengths_are_refused_without_overflow() {
        use crate::catalog::CatalogError;
        // Header-sized lengths, and wide alphabets whose `Σ n^i` passes
        // `u128::MAX`: every one is refused as too large.
        for labels in [1, 2, 8, 1000, u16::MAX as usize] {
            for max_len in [1 << 48, 1 << 60, usize::MAX] {
                assert!(
                    matches!(
                        PathEncoding::try_new(labels, max_len),
                        Err(CatalogError::DomainTooLarge { .. })
                    ),
                    "{labels} labels, max_len {max_len}"
                );
            }
        }
        for max_len in [9, 20, 47] {
            assert!(matches!(
                PathEncoding::try_new(u16::MAX as usize, max_len),
                Err(CatalogError::DomainTooLarge { .. })
            ));
        }
        // Sizes stay exact where they fit: |L| = 1000, k = 8 ⇒ 10^24 + ….
        match PathEncoding::try_new(1000, 8) {
            Err(CatalogError::DomainTooLarge { size, .. }) => {
                assert_eq!(size, (1..=8).map(|i| 1000u128.pow(i)).sum::<u128>());
            }
            other => panic!("expected DomainTooLarge, got {other:?}"),
        }
        // The largest domains below the limit are accepted, and one label
        // sizes a long path length without walking it.
        assert_eq!(PathEncoding::new(2, 47).domain_size(), (1 << 48) - 2);
        assert!(PathEncoding::try_new(2, 48).is_err());
        let one_label = PathEncoding::new(1, (1 << 40) + 3);
        assert_eq!(one_label.domain_size(), (1 << 40) + 3);
        assert_eq!(one_label.offset_of_length(1 << 40), (1 << 40) - 1);
        assert_eq!(
            PathEncoding::new(1, (1 << 48) - 1).domain_size(),
            (1 << 48) - 1
        );
        assert!(PathEncoding::try_new(1, 1 << 48).is_err());
    }

    #[test]
    fn encode_is_length_major() {
        let e = PathEncoding::new(3, 2);
        assert_eq!(e.encode(&[l(0)]), 0);
        assert_eq!(e.encode(&[l(1)]), 1);
        assert_eq!(e.encode(&[l(2)]), 2);
        assert_eq!(e.encode(&[l(0), l(0)]), 3);
        assert_eq!(e.encode(&[l(0), l(1)]), 4);
        assert_eq!(e.encode(&[l(2), l(2)]), 11);
    }

    #[test]
    fn decode_inverts_encode_exhaustively() {
        let e = PathEncoding::new(4, 3);
        for i in 0..e.domain_size() {
            let p = e.decode(i);
            assert_eq!(e.encode(&p), i, "round trip failed at {i} ({p:?})");
        }
    }

    #[test]
    fn iter_paths_is_ordered_and_complete() {
        let e = PathEncoding::new(2, 3);
        let all: Vec<Vec<LabelId>> = e.iter_paths().collect();
        assert_eq!(all.len(), 2 + 4 + 8);
        assert_eq!(all[0], vec![l(0)]);
        assert_eq!(all[2], vec![l(0), l(0)]);
        assert_eq!(all[13], vec![l(1), l(1), l(1)]);
    }

    #[test]
    fn offsets() {
        let e = PathEncoding::new(6, 3);
        assert_eq!(e.offset_of_length(1), 0);
        assert_eq!(e.offset_of_length(2), 6);
        assert_eq!(e.offset_of_length(3), 42);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn encode_rejects_long_path() {
        let e = PathEncoding::new(2, 2);
        e.encode(&[l(0), l(0), l(0)]);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn decode_rejects_out_of_domain() {
        let e = PathEncoding::new(2, 2);
        e.decode(6);
    }

    #[test]
    fn decode_into_reuses_buffer() {
        let e = PathEncoding::new(3, 3);
        let mut buf = Vec::new();
        e.decode_into(0, &mut buf);
        assert_eq!(buf, vec![l(0)]);
        e.decode_into(e.domain_size() - 1, &mut buf);
        assert_eq!(buf, vec![l(2), l(2), l(2)]);
    }
}
