//! End-biased histograms: exact values for the heaviest domain points.
//!
//! An end-biased histogram (Ioannidis & Christodoulakis) stores the
//! `β − 1` highest-frequency domain values exactly and approximates every
//! other value by the average of the remainder. Unlike the bucketed
//! histograms it is *not* a contiguous range partition — it is included
//! here as an ablation point: domain ordering is irrelevant to it, so it
//! marks the accuracy attainable with `β` entries when bucket contiguity
//! is dropped.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::HistogramError;
use crate::sparse::{absent_indexes, SparseFrequencies};
use crate::PointEstimator;

/// End-biased histogram: `β − 1` exact singletons + one rest-average.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EndBiasedHistogram {
    exact: HashMap<usize, u64>,
    rest_mean: f64,
    domain_size: usize,
}

impl EndBiasedHistogram {
    /// Builds an end-biased histogram with `beta` total entries
    /// (`beta − 1` exact values + the rest-average) from sparse runs with
    /// implicit zeros.
    ///
    /// Singletons are the highest frequencies, ties toward the lower
    /// index. That order puts every implicit zero after every entry,
    /// ordered by index — so zero singletons, when the budget reaches
    /// them, are the smallest non-entry indexes. O(nnz log nnz + β).
    pub fn build(
        data: &SparseFrequencies<'_>,
        beta: usize,
    ) -> Result<EndBiasedHistogram, HistogramError> {
        if data.domain_size() == 0 {
            return Err(HistogramError::EmptyData);
        }
        if beta == 0 {
            return Err(HistogramError::ZeroBuckets);
        }
        let n = data.domain_size();
        let singles = ((beta - 1) as u64).min(n);
        let mut order: Vec<(u64, u64)> = data.cursor().collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let from_entries = (order.len() as u64).min(singles);
        let mut exact: HashMap<usize, u64> = order[..from_entries as usize]
            .iter()
            .map(|&(index, frequency)| (index as usize, frequency))
            .collect();
        // Remaining budget stores zeros at the smallest non-entry indexes.
        let zero_budget = (singles - from_entries) as usize;
        let occupied = data.cursor().map(|(index, _)| index);
        for position in absent_indexes(occupied, n).take(zero_budget) {
            exact.insert(position as usize, 0);
        }
        debug_assert_eq!(exact.len() as u64, singles, "budget exceeds zero count");
        let rest_count = n - singles;
        let exact_sum: u64 = exact.values().sum();
        let rest_mean = if rest_count == 0 {
            0.0
        } else {
            (data.total() - exact_sum) as f64 / rest_count as f64
        };
        Ok(EndBiasedHistogram {
            exact,
            rest_mean,
            domain_size: n as usize,
        })
    }

    /// Number of exactly stored values.
    pub fn exact_count(&self) -> usize {
        self.exact.len()
    }

    /// The average used for non-singleton values.
    pub fn rest_mean(&self) -> f64 {
        self.rest_mean
    }

    /// Checks what a deserialized histogram could get wrong: singletons
    /// outside the domain, and a rest-average that is negative or not
    /// finite.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(index) = self.exact.keys().find(|&&i| i >= self.domain_size) {
            return Err(format!(
                "singleton {index} outside a domain of {}",
                self.domain_size
            ));
        }
        if !(self.rest_mean.is_finite() && self.rest_mean >= 0.0) {
            return Err(format!("rest average {} is not a count", self.rest_mean));
        }
        Ok(())
    }
}

impl PointEstimator for EndBiasedHistogram {
    fn estimate(&self, index: usize) -> f64 {
        assert!(index < self.domain_size, "index {index} outside domain");
        match self.exact.get(&index) {
            Some(&v) => v as f64,
            None => self.rest_mean,
        }
    }

    fn domain_size(&self) -> usize {
        self.domain_size
    }

    fn size_bytes(&self) -> usize {
        // Key + value per exact entry, plus the rest-average.
        self.exact.len() * (std::mem::size_of::<usize>() + std::mem::size_of::<u64>())
            + std::mem::size_of::<f64>()
    }

    /// Each singleton is a one-cell piece; the runs between them estimate
    /// the rest-average.
    fn pieces(&self) -> Vec<(u64, u64, f64)> {
        let mut singles: Vec<(u64, u64)> = self
            .exact
            .iter()
            .map(|(&index, &value)| (index as u64, value))
            .collect();
        singles.sort_unstable();
        let mut pieces = Vec::with_capacity(2 * singles.len() + 1);
        let mut next = 0u64;
        for (index, value) in singles {
            if index > next {
                pieces.push((next, index - 1, self.rest_mean));
            }
            pieces.push((index, index, value as f64));
            next = index + 1;
        }
        if next < self.domain_size as u64 {
            pieces.push((next, self.domain_size as u64 - 1, self.rest_mean));
        }
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(data: &[u64]) -> SparseFrequencies<'_> {
        SparseFrequencies::dense(data)
    }

    #[test]
    fn validate_refuses_what_a_snapshot_could_carry() {
        let built = EndBiasedHistogram::build(&dense(&[1, 500, 2, 3]), 2).unwrap();
        assert_eq!(built.validate(), Ok(()));
        for rest_mean in [-1.0, f64::NAN, f64::INFINITY] {
            let bad = EndBiasedHistogram {
                rest_mean,
                ..built.clone()
            };
            assert!(bad.validate().is_err(), "{rest_mean}");
        }
        let mut outside = built;
        outside.exact.insert(4, 7);
        assert!(outside.validate().unwrap_err().contains("outside"));
    }

    #[test]
    fn heavy_hitters_are_exact() {
        let data = [1u64, 500, 2, 3, 900, 1];
        let h = EndBiasedHistogram::build(&dense(&data), 3).unwrap();
        assert_eq!(h.exact_count(), 2);
        assert_eq!(h.estimate(1), 500.0);
        assert_eq!(h.estimate(4), 900.0);
        // Rest: (1 + 2 + 3 + 1) / 4
        assert!((h.estimate(0) - 1.75).abs() < 1e-12);
        assert!((h.estimate(5) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn beta_one_is_global_average() {
        let data = [2u64, 4, 6];
        let h = EndBiasedHistogram::build(&dense(&data), 1).unwrap();
        assert_eq!(h.exact_count(), 0);
        assert!((h.estimate(0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn beta_covers_everything() {
        let data = [2u64, 4, 6];
        let h = EndBiasedHistogram::build(&dense(&data), 10).unwrap();
        assert_eq!(h.exact_count(), 3);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(h.estimate(i), v as f64);
        }
        assert_eq!(h.rest_mean(), 0.0);
    }

    #[test]
    fn tie_break_prefers_lower_index() {
        let data = [5u64, 5, 5];
        let h = EndBiasedHistogram::build(&dense(&data), 2).unwrap();
        assert_eq!(h.estimate(0), 5.0);
        // 1 and 2 share the rest mean (which also equals 5 here).
        assert_eq!(h.estimate(1), 5.0);
    }

    #[test]
    fn errors() {
        assert!(EndBiasedHistogram::build(&dense(&[]), 2).is_err());
        assert!(EndBiasedHistogram::build(&dense(&[1]), 0).is_err());
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_panics() {
        let h = EndBiasedHistogram::build(&dense(&[1, 2]), 2).unwrap();
        h.estimate(2);
    }

    #[test]
    fn sparse_build_on_huge_domain() {
        let entries = [(3u64, 40u64), ((1 << 40) - 1, 7)];
        let s = SparseFrequencies::new(&entries, 1 << 40).unwrap();
        let h = EndBiasedHistogram::build(&s, 3).unwrap();
        assert_eq!(h.estimate(3), 40.0);
        assert_eq!(h.estimate((1 << 40) - 1), 7.0);
        assert_eq!(h.estimate(100), 0.0);
    }
}
