//! A single histogram bucket.

use serde::{Deserialize, Serialize};

/// A contiguous domain range `[lo, hi]` with stored statistics.
///
/// The estimate for any index in the range is the bucket mean
/// (`sum / count`) — the *continuous values assumption* standard in
/// histogram literature and used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// First domain index covered (inclusive).
    pub lo: usize,
    /// Last domain index covered (inclusive).
    pub hi: usize,
    /// Sum of frequencies in the range.
    pub sum: u64,
    /// Smallest frequency in the range.
    pub min: u64,
    /// Largest frequency in the range.
    pub max: u64,
}

impl Bucket {
    /// Number of domain values covered.
    #[inline]
    pub fn count(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// The bucket mean — the point estimate for any index inside.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count() as f64
    }

    /// Whether `index` falls inside this bucket.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.lo <= index && index <= self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(lo: usize, hi: usize, sum: u64) -> Bucket {
        Bucket {
            lo,
            hi,
            sum,
            min: 0,
            max: sum,
        }
    }

    #[test]
    fn mean_is_sum_over_count() {
        let b = bucket(1, 3, 13);
        assert_eq!(b.count(), 3);
        assert!((b.mean() - 13.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn singleton_bucket() {
        let b = bucket(0, 0, 7);
        assert_eq!(b.count(), 1);
        assert_eq!(b.mean(), 7.0);
        assert!(b.contains(0));
        assert!(!b.contains(1));
    }

    #[test]
    fn contains_bounds() {
        let b = bucket(2, 5, 0);
        assert!(!b.contains(1));
        assert!(b.contains(2));
        assert!(b.contains(5));
        assert!(!b.contains(6));
    }
}
