//! Histogram construction strategies.

use crate::error::HistogramError;
use crate::histogram::Histogram;
use crate::sparse::{SparseFrequencies, SparsePrefix, DENSE_MATERIALIZE_LIMIT};

pub use crate::v_optimal::{VOptimal, VOptimalMode};

/// A histogram construction strategy: partitions `data` into at most
/// `beta` contiguous buckets.
///
/// All implementations in this crate produce exactly `min(beta, N)`
/// buckets and uphold the partition invariants of
/// [`Histogram::validate`]. A dense `&[u64]` sequence is built through
/// the [`SparseFrequencies::dense`] view.
pub trait HistogramBuilder {
    /// Short stable name, used in benchmark output and reports.
    fn name(&self) -> &'static str;

    /// Builds the histogram over `(index, frequency)` runs with implicit
    /// zeros, paying O(1) per zero run.
    fn build(&self, data: &SparseFrequencies<'_>, beta: usize)
        -> Result<Histogram, HistogramError>;
}

/// Checks the common preconditions and normalizes the bucket budget to
/// `min(beta, N)`.
pub(crate) fn check_inputs(
    data: &SparseFrequencies<'_>,
    beta: usize,
) -> Result<usize, HistogramError> {
    if data.domain_size() == 0 {
        return Err(HistogramError::EmptyData);
    }
    if beta == 0 {
        return Err(HistogramError::ZeroBuckets);
    }
    let beta = (beta as u64).min(data.domain_size());
    if beta > DENSE_MATERIALIZE_LIMIT {
        return Err(HistogramError::DomainTooLarge {
            domain: data.domain_size(),
            limit: DENSE_MATERIALIZE_LIMIT,
        });
    }
    Ok(beta as usize)
}

/// Assembles the histogram over the domain `[0, n)` whose buckets end at
/// the sorted inclusive `ends`, reading bucket statistics from the
/// sequence's `prefix`; the last end must be `n − 1`.
pub(crate) fn histogram_from_ends(prefix: &SparsePrefix, n: u64, ends: &[u64]) -> Histogram {
    debug_assert_eq!(ends.last().copied(), n.checked_sub(1));
    let mut lo = 0u64;
    let buckets = ends
        .iter()
        .map(|&hi| {
            let bucket = prefix.bucket(lo, hi);
            lo = hi + 1;
            bucket
        })
        .collect();
    Histogram::from_buckets(buckets, n as usize)
}

/// Equal-index-range partitioning — the histogram of the paper's Figure 1.
///
/// Bucket `i` covers `⌊N·i/β⌋ .. ⌊N·(i+1)/β⌋ − 1`, so widths differ by at
/// most one and no bucket is empty. Boundaries depend only on `(N, β)`,
/// so only the per-bucket statistics touch the entries: O(β + nnz).
#[derive(Debug, Clone, Copy, Default)]
pub struct EquiWidth;

impl HistogramBuilder for EquiWidth {
    fn name(&self) -> &'static str {
        "equi-width"
    }

    fn build(
        &self,
        data: &SparseFrequencies<'_>,
        beta: usize,
    ) -> Result<Histogram, HistogramError> {
        let beta = check_inputs(data, beta)?;
        let n = data.domain_size();
        // u128 intermediate: `n · i` can overflow u64 on huge domains.
        let ends: Vec<u64> = (1..=beta as u64)
            .map(|i| (n as u128 * i as u128 / beta as u128 - 1) as u64)
            .collect();
        Ok(histogram_from_ends(&SparsePrefix::new(data), n, &ends))
    }
}

/// Equal-cumulative-frequency partitioning (quantile buckets).
///
/// Closes bucket `b` at the first index where the running sum reaches
/// `(b+1)/β` of the total mass, while reserving enough trailing indexes to
/// keep every remaining bucket non-empty. Degrades to [`EquiWidth`] when
/// the total mass is zero.
///
/// The running sum only changes at non-zero entries, so the per-index
/// close decisions inside a constant-sum region are solved
/// arithmetically. Each bucket close is O(1) ⇒ O(β + nnz) total.
#[derive(Debug, Clone, Copy, Default)]
pub struct EquiDepth;

impl HistogramBuilder for EquiDepth {
    fn name(&self) -> &'static str {
        "equi-depth"
    }

    fn build(
        &self,
        data: &SparseFrequencies<'_>,
        beta: usize,
    ) -> Result<Histogram, HistogramError> {
        let beta = check_inputs(data, beta)?;
        let n = data.domain_size();
        let total = data.total();
        if total == 0 {
            return EquiWidth.build(data, beta);
        }
        let mut ends: Vec<u64> = Vec::with_capacity(beta);
        let mut acc = 0u64;
        let mut pos = 0u64;
        'scan: {
            for (index, frequency) in data.cursor() {
                // Zero run [pos, index-1]: the accumulator is unchanged.
                if pos < index && !equi_depth_region(pos, index - 1, acc, total, beta, n, &mut ends)
                {
                    break 'scan;
                }
                acc += frequency;
                if !equi_depth_region(index, index, acc, total, beta, n, &mut ends) {
                    break 'scan;
                }
                pos = index + 1;
            }
            if pos < n {
                equi_depth_region(pos, n - 1, acc, total, beta, n, &mut ends);
            }
        }
        ends.push(n - 1);
        debug_assert_eq!(ends.len(), beta);
        Ok(histogram_from_ends(&SparsePrefix::new(data), n, &ends))
    }
}

/// Replays the per-index equi-depth close decisions over a constant-`acc`
/// index region `[a, b]`. Returns `false` once `β − 1` buckets are closed
/// (everything left belongs to the final bucket). Each iteration closes a
/// bucket or exits, so the cost is bounded by the closes performed, not
/// the region width.
fn equi_depth_region(
    a: u64,
    b: u64,
    acc: u64,
    total: u64,
    beta: usize,
    n: u64,
    ends: &mut Vec<u64>,
) -> bool {
    let beta = beta as u64;
    let mut i = a;
    while i <= b {
        let closed = ends.len() as u64;
        if closed == beta - 1 {
            return false;
        }
        let remaining_buckets = beta - closed - 1;
        // u128 intermediate: `(closed + 1) · total` can overflow u64; the
        // quotient is at most `total`.
        let threshold = ((closed + 1) as u128 * total as u128 / beta as u128) as u64;
        if acc >= threshold {
            // `wants_close`; the feasibility guard (`remaining_values >=
            // remaining_buckets`) is an invariant of the scan, asserted
            // rather than branched on.
            debug_assert!(n - i > remaining_buckets);
            ends.push(i);
            i += 1;
            continue;
        }
        // Below the threshold the only possible close left in this region
        // is `must_close` at the index where remaining values equal
        // remaining buckets.
        let must_close_at = n - 1 - remaining_buckets;
        if must_close_at < i || must_close_at > b {
            return true;
        }
        ends.push(must_close_at);
        i = must_close_at + 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointEstimator;

    fn dense(data: &[u64]) -> SparseFrequencies<'_> {
        SparseFrequencies::dense(data)
    }

    #[test]
    fn equi_width_even_split() {
        let data: Vec<u64> = (0..12).collect();
        let h = EquiWidth.build(&dense(&data), 3).unwrap();
        assert_eq!(h.bucket_count(), 3);
        let widths: Vec<usize> = h.buckets().iter().map(|b| b.count()).collect();
        assert_eq!(widths, vec![4, 4, 4]);
    }

    #[test]
    fn equi_width_uneven_split_balanced() {
        let data: Vec<u64> = (0..10).collect();
        let h = EquiWidth.build(&dense(&data), 4).unwrap();
        let widths: Vec<usize> = h.buckets().iter().map(|b| b.count()).collect();
        assert_eq!(widths.iter().sum::<usize>(), 10);
        assert!(widths.iter().all(|&w| w == 2 || w == 3), "{widths:?}");
    }

    #[test]
    fn beta_larger_than_domain_gives_singletons() {
        let data = [5u64, 6, 7];
        for builder in [&EquiWidth as &dyn HistogramBuilder, &EquiDepth] {
            let h = builder.build(&dense(&data), 10).unwrap();
            assert_eq!(h.bucket_count(), 3, "{}", builder.name());
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(h.estimate(i), v as f64);
            }
        }
    }

    #[test]
    fn empty_data_rejected() {
        assert_eq!(
            EquiWidth.build(&dense(&[]), 3).unwrap_err(),
            HistogramError::EmptyData
        );
    }

    #[test]
    fn zero_buckets_rejected() {
        assert_eq!(
            EquiDepth.build(&dense(&[1, 2]), 0).unwrap_err(),
            HistogramError::ZeroBuckets
        );
    }

    #[test]
    fn equi_depth_balances_mass() {
        // One heavy value, many light: the bucket reaching the heavy value
        // closes right at it (cumulative threshold crossed), and the light
        // tail is spread over the remaining buckets.
        let data = [1u64, 1, 1, 1, 100, 1, 1, 1];
        let h = EquiDepth.build(&dense(&data), 3).unwrap();
        assert_eq!(h.bucket_count(), 3);
        let b = h.bucket_of(4);
        assert_eq!(b.hi, 4, "bucket must close at the heavy value: {b:?}");
        // Mass per bucket is far more balanced than equi-width would give:
        // every bucket carries at least one third of a fair share.
        for b in h.buckets() {
            assert!(b.sum >= 1, "empty-mass bucket {b:?}");
        }
    }

    #[test]
    fn equi_depth_zero_mass_degrades_to_width() {
        let data = [0u64; 9];
        let h = EquiDepth.build(&dense(&data), 3).unwrap();
        assert_eq!(h.bucket_count(), 3);
        let widths: Vec<usize> = h.buckets().iter().map(|b| b.count()).collect();
        assert_eq!(widths, vec![3, 3, 3]);
    }

    #[test]
    fn equi_depth_exact_bucket_count_under_skew() {
        // All mass at the front — feasibility guard must still make 4 buckets.
        let data = [100u64, 0, 0, 0, 0, 0, 0, 0];
        let h = EquiDepth.build(&dense(&data), 4).unwrap();
        assert_eq!(h.bucket_count(), 4);
        h.validate().unwrap();
    }

    #[test]
    fn single_bucket_covers_all() {
        let data = [3u64, 1, 4];
        for builder in [&EquiWidth as &dyn HistogramBuilder, &EquiDepth] {
            let h = builder.build(&dense(&data), 1).unwrap();
            assert_eq!(h.bucket_count(), 1);
            assert!((h.estimate(1) - 8.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn equi_depth_threshold_does_not_overflow() {
        // `(closed + 1) · total` overflowed u64 here: a panic in debug
        // builds, ends [0, 1, 2, 7] in release.
        let heavy = 1u64 << 61;
        let data = [heavy, 0, heavy, 0, heavy, 0, heavy, 0];
        let h = EquiDepth.build(&dense(&data), 4).unwrap();
        let ends: Vec<usize> = h.buckets().iter().map(|b| b.hi).collect();
        assert_eq!(ends, vec![0, 2, 4, 7]);
    }
}
