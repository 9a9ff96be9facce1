//! The label-path domain `Lk` and its canonical layout.

use phe_graph::LabelId;
use phe_pathenum::PathEncoding;

use crate::path::{LabelPath, MAX_K};

/// The domain of all label paths of length `1..=k` over `n` labels.
///
/// Every [`crate::ordering::DomainOrdering`] is a bijection from this
/// domain to `[0, size())`. The *canonical* index used for storage is the
/// `phe-pathenum` encoding (length-major, base-`n` digits of label ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathDomain {
    n: usize,
    k: usize,
}

impl PathDomain {
    /// Creates the domain for `n` labels and maximum length `k`.
    ///
    /// # Panics
    /// Panics if `n == 0`, `k == 0`, `k > MAX_K`, or the domain size
    /// overflows the catalog limit (2⁴⁸ paths).
    pub fn new(n: usize, k: usize) -> PathDomain {
        assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
        // PathEncoding repeats the n/k sanity checks and the size bound.
        let _ = PathEncoding::new(n, k);
        PathDomain { n, k }
    }

    /// Number of labels `n = |L|`.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.n
    }

    /// Maximum path length `k`.
    #[inline]
    pub fn max_len(&self) -> usize {
        self.k
    }

    /// Domain size `|Lk| = Σ_{i=1..k} n^i`.
    pub fn size(&self) -> u64 {
        self.offset_of_length(self.k + 1)
    }

    /// Number of paths shorter than `m`: `Σ_{i=1..m−1} n^i` — the offset
    /// of the length-`m` block in any length-major ordering.
    pub fn offset_of_length(&self, m: usize) -> u64 {
        let mut total = 0u64;
        let mut power = 1u64;
        for _ in 1..m {
            power *= self.n as u64;
            total += power;
        }
        total
    }

    /// Size of the length-`m` block, `n^m`.
    pub fn length_block(&self, m: usize) -> u64 {
        (self.n as u64).pow(m as u32)
    }

    /// Recovers the length of the path at `index` in a length-major
    /// ordering, together with the offset inside its block.
    pub fn length_of_index(&self, index: u64) -> (usize, u64) {
        assert!(index < self.size(), "index {index} outside domain");
        let mut rem = index;
        // The bound check above stops the walk at length k at the latest.
        let mut m = 1;
        loop {
            let block = self.length_block(m);
            if rem < block {
                return (m, rem);
            }
            rem -= block;
            m += 1;
        }
    }

    /// The equivalent `phe-pathenum` encoding.
    pub fn encoding(&self) -> PathEncoding {
        PathEncoding::new(self.n, self.k)
    }

    /// Canonical index of a path (length-major, label-id digits).
    pub fn canonical_index(&self, path: &LabelPath) -> u64 {
        let ids: Vec<LabelId> = path.label_ids();
        self.encoding().encode(&ids) as u64
    }

    /// Path at a canonical index: its base-`n` digits, decoded on the
    /// stack (every ordering's default `ordered_index` runs this per
    /// catalog entry).
    ///
    /// # Panics
    /// Panics if `index ≥ size()`.
    pub fn canonical_path(&self, index: u64) -> LabelPath {
        let (m, mut digits) = self.length_of_index(index);
        let n = self.n as u64;
        let mut labels = [LabelId(0); MAX_K];
        for slot in labels[..m].iter_mut().rev() {
            *slot = LabelId((digits % n) as u16);
            digits /= n;
        }
        LabelPath::new(&labels[..m])
    }

    /// Iterates the whole domain in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = LabelPath> + '_ {
        (0..self.size()).map(move |i| self.canonical_path(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        let d = PathDomain::new(3, 2);
        assert_eq!(d.size(), 12);
        assert_eq!(d.offset_of_length(1), 0);
        assert_eq!(d.offset_of_length(2), 3);
        assert_eq!(d.offset_of_length(3), 12);
        assert_eq!(d.length_block(2), 9);
        // Paper's k=6 six-label domain.
        assert_eq!(PathDomain::new(6, 6).size(), 55_986);
    }

    #[test]
    fn length_of_index() {
        let d = PathDomain::new(3, 2);
        assert_eq!(d.length_of_index(0), (1, 0));
        assert_eq!(d.length_of_index(2), (1, 2));
        assert_eq!(d.length_of_index(3), (2, 0));
        assert_eq!(d.length_of_index(11), (2, 8));
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn length_of_index_bounds() {
        PathDomain::new(3, 2).length_of_index(12);
    }

    #[test]
    fn canonical_round_trip() {
        let d = PathDomain::new(4, 3);
        for i in 0..d.size() {
            let p = d.canonical_path(i);
            assert_eq!(d.canonical_index(&p), i);
        }
    }

    #[test]
    fn iter_is_complete() {
        let d = PathDomain::new(2, 3);
        let all: Vec<LabelPath> = d.iter().collect();
        assert_eq!(all.len(), 14);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 14);
    }

    #[test]
    #[should_panic(expected = "MAX_K")]
    fn k_above_max_rejected() {
        PathDomain::new(2, 9);
    }
}
