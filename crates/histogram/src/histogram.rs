//! The bucketed histogram and its estimation queries.

use serde::{Deserialize, Serialize};

use crate::bucket::Bucket;
use crate::PointEstimator;

/// A histogram: a partition of the domain `[0, N)` into contiguous buckets.
///
/// Invariants (checked by [`Histogram::validate`] and enforced by all
/// builders in this crate): buckets are sorted, adjacent, and cover the
/// domain exactly — `buckets[0].lo == 0`,
/// `buckets[i+1].lo == buckets[i].hi + 1`, and the last bucket ends at
/// `N − 1`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<Bucket>,
    domain_size: usize,
    /// Cached first-index array for O(log β) point lookups:
    /// `starts[i] == buckets[i].lo`.
    starts: Vec<usize>,
}

impl Histogram {
    /// Assembles a histogram from buckets produced by a builder.
    ///
    /// # Panics
    /// Panics if the buckets do not form a partition of `[0, domain_size)`.
    pub fn from_buckets(buckets: Vec<Bucket>, domain_size: usize) -> Histogram {
        let starts = buckets.iter().map(|b| b.lo).collect();
        let h = Histogram {
            buckets,
            domain_size,
            starts,
        };
        // LINT-ALLOW(panic): every builder in this crate emits a partition
        // by construction (property-tested); a violation is a bug here, not
        // an input condition, and must not be served.
        h.validate().expect("builder produced invalid buckets");
        h
    }

    /// Checks the partition invariants, returning a description of the
    /// first violation. A deserialized histogram is untrusted until this
    /// passes: it also checks that no bucket is empty and that the cached
    /// lookup array matches the buckets.
    pub fn validate(&self) -> Result<(), String> {
        if !self
            .starts
            .iter()
            .copied()
            .eq(self.buckets.iter().map(|b| b.lo))
        {
            return Err("bucket start index does not match the buckets".into());
        }
        if let Some(b) = self.buckets.iter().find(|b| b.hi < b.lo) {
            return Err(format!("bucket [{}, {}] is empty", b.lo, b.hi));
        }
        if self.domain_size == 0 {
            return if self.buckets.is_empty() {
                Ok(())
            } else {
                Err("empty domain must have no buckets".into())
            };
        }
        let (Some(first), Some(last)) = (self.buckets.first(), self.buckets.last()) else {
            return Err("non-empty domain with no buckets".into());
        };
        if first.lo != 0 {
            return Err(format!("first bucket starts at {}", first.lo));
        }
        for w in self.buckets.windows(2) {
            if w[0].hi.checked_add(1) != Some(w[1].lo) {
                return Err(format!(
                    "gap/overlap between buckets ending {} and starting {}",
                    w[0].hi, w[1].lo
                ));
            }
        }
        if last.hi != self.domain_size - 1 {
            return Err(format!(
                "last bucket ends at {} but domain size is {}",
                last.hi, self.domain_size
            ));
        }
        Ok(())
    }

    /// Number of buckets β.
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The buckets, sorted by domain position.
    #[inline]
    pub fn buckets(&self) -> &[Bucket] {
        &self.buckets
    }

    /// The bucket containing domain index `i` (binary search, O(log β)).
    ///
    /// # Panics
    /// Panics if `i` is outside the domain.
    #[inline]
    pub fn bucket_of(&self, index: usize) -> &Bucket {
        assert!(index < self.domain_size, "index {index} outside domain");
        let pos = self.starts.partition_point(|&s| s <= index) - 1;
        &self.buckets[pos]
    }

    /// Estimated total frequency over the index range `[lo, hi]`,
    /// pro-rating partially covered buckets (continuous-values assumption).
    pub fn estimate_range(&self, lo: usize, hi: usize) -> f64 {
        assert!(lo <= hi && hi < self.domain_size, "bad range [{lo},{hi}]");
        let mut total = 0.0;
        let first = self.starts.partition_point(|&s| s <= lo) - 1;
        for b in &self.buckets[first..] {
            if b.lo > hi {
                break;
            }
            let olo = b.lo.max(lo);
            let ohi = b.hi.min(hi);
            let overlap = (ohi - olo + 1) as f64;
            total += b.mean() * overlap;
        }
        total
    }

    /// Sum of squared errors of the approximation against `data` — the
    /// quantity V-optimal construction minimizes.
    pub fn sse(&self, data: &[u64]) -> f64 {
        assert_eq!(data.len(), self.domain_size);
        let mut total = 0.0;
        for b in &self.buckets {
            let mean = b.mean();
            for &v in &data[b.lo..=b.hi] {
                total += (v as f64 - mean).powi(2);
            }
        }
        total
    }

    /// Total stored frequency mass.
    pub fn total_sum(&self) -> u64 {
        self.buckets.iter().map(|b| b.sum).sum()
    }
}

impl PointEstimator for Histogram {
    #[inline]
    fn estimate(&self, index: usize) -> f64 {
        self.bucket_of(index).mean()
    }

    fn domain_size(&self) -> usize {
        self.domain_size
    }

    fn size_bytes(&self) -> usize {
        self.buckets.len() * std::mem::size_of::<Bucket>()
            + self.starts.len() * std::mem::size_of::<usize>()
    }

    /// One piece per bucket, at the bucket mean.
    fn pieces(&self) -> Vec<(u64, u64, f64)> {
        self.buckets
            .iter()
            .map(|b| (b.lo as u64, b.hi as u64, b.mean()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{EquiWidth, HistogramBuilder};
    use crate::sparse::SparseFrequencies;

    /// A bucket over a constant-valued range.
    fn flat(lo: usize, hi: usize, value: u64) -> Bucket {
        Bucket {
            lo,
            hi,
            sum: value * (hi - lo + 1) as u64,
            min: value,
            max: value,
        }
    }

    fn sample() -> Histogram {
        // data: [1,1,1,1, 100,100,100, 5,5,5]
        Histogram::from_buckets(vec![flat(0, 3, 1), flat(4, 6, 100), flat(7, 9, 5)], 10)
    }

    #[test]
    fn point_estimates_are_bucket_means() {
        let h = sample();
        assert_eq!(h.estimate(0), 1.0);
        assert_eq!(h.estimate(3), 1.0);
        assert_eq!(h.estimate(4), 100.0);
        assert_eq!(h.estimate(9), 5.0);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_panics() {
        sample().estimate(10);
    }

    #[test]
    fn range_estimate_pro_rates() {
        let h = sample();
        // [2..=5]: 2 values from bucket 0 (mean 1) + 2 from bucket 1 (mean 100).
        let e = h.estimate_range(2, 5);
        assert!((e - (2.0 + 200.0)).abs() < 1e-9);
        // Full domain equals the total mass.
        let full = h.estimate_range(0, 9);
        assert!((full - h.total_sum() as f64).abs() < 1e-9);
    }

    #[test]
    fn sse_zero_for_perfect_buckets() {
        let h = sample();
        let data = [1u64, 1, 1, 1, 100, 100, 100, 5, 5, 5];
        assert!(h.sse(&data) < 1e-9);
    }

    #[test]
    fn validate_detects_gap() {
        let h = Histogram {
            buckets: vec![flat(0, 1, 1), flat(3, 3, 4)],
            domain_size: 4,
            starts: vec![0, 3],
        };
        assert!(h.validate().is_err());
    }

    #[test]
    fn validate_detects_short_coverage() {
        let h = Histogram {
            buckets: vec![flat(0, 2, 1)],
            domain_size: 4,
            starts: vec![0],
        };
        assert!(h.validate().is_err());
    }

    #[test]
    fn validate_detects_empty_buckets_and_stale_starts() {
        let raw = |lo, hi| Bucket {
            lo,
            hi,
            sum: 1,
            min: 1,
            max: 1,
        };
        // [0,1], [2,1], [2,3] is adjacent end to end, but its middle
        // bucket covers nothing and would divide by a zero count.
        let empty = Histogram {
            buckets: vec![raw(0, 1), raw(2, 1), raw(2, 3)],
            domain_size: 4,
            starts: vec![0, 2, 2],
        };
        assert!(empty.validate().unwrap_err().contains("empty"));
        // A lookup array that disagrees with the buckets, or is short,
        // would send probes to the wrong bucket or out of bounds.
        for starts in [vec![1, 2], vec![0]] {
            let stale = Histogram {
                buckets: vec![raw(0, 1), raw(2, 3)],
                domain_size: 4,
                starts,
            };
            assert!(stale.validate().is_err());
        }
        // A bound at `usize::MAX` is refused, not overflowed.
        let huge = Histogram {
            buckets: vec![raw(0, usize::MAX), raw(0, 3)],
            domain_size: 4,
            starts: vec![0, 0],
        };
        assert!(huge.validate().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let h = sample();
        let json = serde_json_round_trip(&h);
        assert_eq!(json.bucket_count(), h.bucket_count());
        assert_eq!(json.estimate(4), h.estimate(4));
    }

    // Minimal serde check without pulling serde_json into this crate:
    // use the builder to rebuild from parts instead.
    fn serde_json_round_trip(h: &Histogram) -> Histogram {
        Histogram::from_buckets(h.buckets().to_vec(), h.domain_size)
    }

    #[test]
    fn size_bytes_scales_with_beta() {
        let data: Vec<u64> = (0..100).collect();
        let data = SparseFrequencies::dense(&data);
        let h4 = EquiWidth.build(&data, 4).unwrap();
        let h32 = EquiWidth.build(&data, 32).unwrap();
        assert!(h32.size_bytes() > h4.size_bytes());
    }
}
