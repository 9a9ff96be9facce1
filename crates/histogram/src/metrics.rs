//! Estimation accuracy metrics, including the paper's error rate.

use serde::{Deserialize, Serialize};

use crate::error::HistogramError;

/// The paper's error metric (Formula 6):
///
/// ```text
/// err(ℓ) = 0                              if e(ℓ) = f(ℓ)
///        = (e(ℓ) − f(ℓ)) / max(e(ℓ), f(ℓ)) otherwise
/// ```
///
/// Signed and bounded in `[−1, 1]`: negative for underestimates, positive
/// for overestimates. `e = f = 0` yields 0 (the first branch), so
/// zero-selectivity paths estimated as zero are perfect, and a
/// zero-estimate of a non-zero truth saturates at −1.
pub fn error_rate(estimate: f64, truth: u64) -> f64 {
    let f = truth as f64;
    if estimate == f {
        0.0
    } else {
        (estimate - f) / estimate.max(f)
    }
}

/// Mean of `|err(ℓ)|` over a domain — the y-axis of the paper's Figure 2.
pub fn mean_abs_error_rate(estimates: &[f64], truths: &[u64]) -> f64 {
    assert_eq!(estimates.len(), truths.len());
    if estimates.is_empty() {
        return 0.0;
    }
    let total: f64 = estimates
        .iter()
        .zip(truths)
        .map(|(&e, &f)| error_rate(e, f).abs())
        .sum();
    total / estimates.len() as f64
}

/// The q-error of one estimate: `max(e/f, f/e)` with both sides clamped to
/// at least 1 (so q-error ≥ 1, and exact estimates score exactly 1).
/// Standard in the cardinality-estimation literature.
pub fn q_error(estimate: f64, truth: u64) -> f64 {
    let e = estimate.max(1.0);
    let f = (truth as f64).max(1.0);
    (e / f).max(f / e)
}

/// Aggregate accuracy over a whole domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Mean absolute error rate (Figure 2 metric).
    pub mean_abs_error_rate: f64,
    /// Mean signed error rate (bias; negative ⇒ systematic underestimation).
    pub mean_signed_error_rate: f64,
    /// Largest absolute error rate observed.
    pub max_abs_error_rate: f64,
    /// Root-mean-square error in absolute frequency units.
    pub rmse: f64,
    /// Median q-error.
    pub median_q_error: f64,
    /// 95th-percentile q-error.
    pub p95_q_error: f64,
    /// Number of evaluated paths.
    pub count: usize,
}

impl AccuracyReport {
    /// Evaluates estimates against ground truth.
    ///
    /// # Panics
    /// Panics if the slices differ in length or are empty.
    pub fn evaluate(estimates: &[f64], truths: &[u64]) -> AccuracyReport {
        assert_eq!(estimates.len(), truths.len());
        assert!(!estimates.is_empty(), "cannot evaluate zero estimates");
        let n = estimates.len();
        let mut abs_sum = 0.0;
        let mut signed_sum = 0.0;
        let mut max_abs: f64 = 0.0;
        let mut sq_sum = 0.0;
        let mut q_errors: Vec<f64> = Vec::with_capacity(n);
        for (&e, &f) in estimates.iter().zip(truths) {
            let err = error_rate(e, f);
            abs_sum += err.abs();
            signed_sum += err;
            max_abs = max_abs.max(err.abs());
            sq_sum += (e - f as f64).powi(2);
            q_errors.push(q_error(e, f));
        }
        q_errors.sort_by(f64::total_cmp);
        AccuracyReport {
            mean_abs_error_rate: abs_sum / n as f64,
            mean_signed_error_rate: signed_sum / n as f64,
            max_abs_error_rate: max_abs,
            rmse: (sq_sum / n as f64).sqrt(),
            median_q_error: percentile(&q_errors, 0.5),
            p95_q_error: percentile(&q_errors, 0.95),
            count: n,
        }
    }
}

impl AccuracyReport {
    /// Scores a piecewise-constant estimator over its **whole** domain from
    /// the non-zero truths alone — [`AccuracyReport::evaluate`] over every
    /// index, zeros included, in closed form.
    ///
    /// `pieces` are the estimator's [`crate::PointEstimator::pieces`];
    /// `truths` are the non-zero `(index, frequency)` runs, ascending.
    /// Inside a piece with estimate `e`, each non-zero truth is scored on
    /// its own, and the `cells − nnz` zero cells contribute that many
    /// copies of `err(e, 0)`, `q(e, 0)` and `e²`. The median and p95
    /// q-error are nearest-rank picks over `(q, multiplicity)` pairs, so
    /// they, the maximum and the count equal `evaluate`'s exactly; the
    /// sums differ only by summation order. O(nnz + pieces) time and
    /// memory, however large the domain.
    ///
    /// # Errors
    /// [`HistogramError::EmptyData`] when the pieces cover no index;
    /// [`HistogramError::InvalidSparseRuns`] when the pieces do not tile
    /// the domain in order, or a truth is zero, out of order, or past the
    /// last piece.
    pub fn from_pieces(
        pieces: &[(u64, u64, f64)],
        truths: impl IntoIterator<Item = (u64, u64)>,
    ) -> Result<AccuracyReport, HistogramError> {
        let invalid = |what: &str| Err(HistogramError::InvalidSparseRuns(what.to_owned()));
        let mut truths = truths.into_iter().peekable();
        let mut cells = 0u64;
        let mut floor = 0u64;
        let mut abs_sum = 0.0;
        let mut signed_sum = 0.0;
        let mut max_abs: f64 = 0.0;
        let mut sq_sum = 0.0;
        let mut q_errors: Vec<(f64, u64)> = Vec::with_capacity(pieces.len());
        for &(first, last, e) in pieces {
            if first != cells || last < first {
                return invalid("estimator pieces do not tile the domain in order");
            }
            let mut zeros = last - first + 1;
            while let Some(&(index, f)) = truths.peek().filter(|&&(index, _)| index <= last) {
                if index < floor || f == 0 {
                    return invalid("truths must be non-zero and strictly ascending");
                }
                truths.next();
                floor = index + 1;
                zeros -= 1;
                let err = error_rate(e, f);
                abs_sum += err.abs();
                signed_sum += err;
                max_abs = max_abs.max(err.abs());
                sq_sum += (e - f as f64).powi(2);
                q_errors.push((q_error(e, f), 1));
            }
            if zeros > 0 {
                let err = error_rate(e, 0);
                let m = zeros as f64;
                abs_sum += m * err.abs();
                signed_sum += m * err;
                max_abs = max_abs.max(err.abs());
                sq_sum += m * e.powi(2);
                q_errors.push((q_error(e, 0), zeros));
            }
            cells = last + 1;
        }
        if truths.next().is_some() {
            return invalid("a truth lies past the last estimator piece");
        }
        if cells == 0 {
            return Err(HistogramError::EmptyData);
        }
        q_errors.sort_by(|a, b| a.0.total_cmp(&b.0));
        let n = cells as f64;
        Ok(AccuracyReport {
            mean_abs_error_rate: abs_sum / n,
            mean_signed_error_rate: signed_sum / n,
            max_abs_error_rate: max_abs,
            rmse: (sq_sum / n).sqrt(),
            median_q_error: weighted_percentile(&q_errors, cells, 0.5),
            p95_q_error: weighted_percentile(&q_errors, cells, 0.95),
            count: cells as usize,
        })
    }
}

/// Nearest-rank percentile of a sorted sample (`p` in `[0, 1]`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// [`percentile`] over a sorted sample given as `(value, multiplicity)`
/// pairs whose multiplicities sum to `total` (≥ 1).
fn weighted_percentile(sorted: &[(f64, u64)], total: u64, p: f64) -> f64 {
    let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for &(value, multiplicity) in sorted {
        seen += multiplicity;
        if seen >= rank {
            return value;
        }
    }
    sorted.last().map_or(1.0, |&(value, _)| value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_rate_matches_formula6() {
        assert_eq!(error_rate(10.0, 10), 0.0);
        assert_eq!(error_rate(0.0, 0), 0.0);
        // Overestimate: (20 - 10) / 20 = 0.5.
        assert!((error_rate(20.0, 10) - 0.5).abs() < 1e-12);
        // Underestimate: (10 - 20) / 20 = -0.5.
        assert!((error_rate(10.0, 20) + 0.5).abs() < 1e-12);
        // Zero estimate of non-zero truth saturates at -1.
        assert_eq!(error_rate(0.0, 7), -1.0);
        // Non-zero estimate of zero truth saturates at +1.
        assert_eq!(error_rate(3.0, 0), 1.0);
    }

    #[test]
    fn error_rate_bounded() {
        for (e, f) in [(1e9, 1u64), (0.001, 1_000_000u64), (5.0, 5u64)] {
            let r = error_rate(e, f);
            assert!((-1.0..=1.0).contains(&r), "err({e},{f}) = {r}");
        }
    }

    #[test]
    fn mean_abs_error_rate_averages() {
        let est = [10.0, 20.0, 0.0];
        let truth = [10u64, 10, 5];
        // errors: 0, 0.5, 1.0 -> mean 0.5.
        assert!((mean_abs_error_rate(&est, &truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn q_error_basics() {
        assert_eq!(q_error(10.0, 10), 1.0);
        assert_eq!(q_error(20.0, 10), 2.0);
        assert_eq!(q_error(5.0, 10), 2.0);
        // Zeros clamp to 1.
        assert_eq!(q_error(0.0, 0), 1.0);
        assert_eq!(q_error(0.0, 8), 8.0);
    }

    #[test]
    fn report_perfect_estimates() {
        let truths = [4u64, 0, 9];
        let est: Vec<f64> = truths.iter().map(|&t| t as f64).collect();
        let r = AccuracyReport::evaluate(&est, &truths);
        assert_eq!(r.mean_abs_error_rate, 0.0);
        assert_eq!(r.rmse, 0.0);
        assert_eq!(r.median_q_error, 1.0);
        assert_eq!(r.p95_q_error, 1.0);
        assert_eq!(r.count, 3);
    }

    #[test]
    fn report_detects_bias() {
        let truths = [10u64, 10, 10];
        let est = [5.0, 5.0, 5.0];
        let r = AccuracyReport::evaluate(&est, &truths);
        assert!(
            r.mean_signed_error_rate < 0.0,
            "should report underestimation"
        );
        assert!((r.rmse - 5.0).abs() < 1e-12);
    }

    #[test]
    fn closed_form_report_equals_the_per_index_oracle() {
        // Pieces over 12 cells: [0,3] at 2.5, [4,4] at 9, [5,11] at 0.5;
        // zeros fill every cell the truths skip.
        let pieces = [(0, 3, 2.5), (4, 4, 9.0), (5, 11, 0.5)];
        let truths = [(1u64, 4u64), (2, 6), (4, 9), (7, 3)];
        let report = AccuracyReport::from_pieces(&pieces, truths).unwrap();
        let mut dense_truths = [0u64; 12];
        for (index, f) in truths {
            dense_truths[index as usize] = f;
        }
        let estimates: Vec<f64> = (0..12)
            .map(|i| match i {
                0..=3 => 2.5,
                4 => 9.0,
                _ => 0.5,
            })
            .collect();
        let oracle = AccuracyReport::evaluate(&estimates, &dense_truths);
        assert_eq!(report.count, 12);
        assert_eq!(report.median_q_error, oracle.median_q_error);
        assert_eq!(report.p95_q_error, oracle.p95_q_error);
        assert_eq!(report.max_abs_error_rate, oracle.max_abs_error_rate);
        for (a, b) in [
            (report.mean_abs_error_rate, oracle.mean_abs_error_rate),
            (report.mean_signed_error_rate, oracle.mean_signed_error_rate),
            (report.rmse, oracle.rmse),
        ] {
            assert!((a - b).abs() <= 1e-12 * a.abs().max(b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn closed_form_report_rejects_mismatched_inputs() {
        let pieces = [(0, 3, 1.0), (4, 5, 2.0)];
        let bad = |truths: &[(u64, u64)]| {
            matches!(
                AccuracyReport::from_pieces(&pieces, truths.iter().copied()),
                Err(HistogramError::InvalidSparseRuns(_))
            )
        };
        assert!(bad(&[(2, 1), (1, 1)]), "unsorted");
        assert!(bad(&[(2, 1), (2, 1)]), "duplicate");
        assert!(bad(&[(2, 0)]), "explicit zero");
        assert!(bad(&[(6, 1)]), "past the domain");
        assert!(matches!(
            AccuracyReport::from_pieces(&[(1, 3, 1.0)], []),
            Err(HistogramError::InvalidSparseRuns(_))
        ));
        assert!(matches!(
            AccuracyReport::from_pieces(&[], []),
            Err(HistogramError::EmptyData)
        ));
        // A domain of 2^40 cells scores without materializing it.
        let huge = AccuracyReport::from_pieces(&[(0, (1 << 40) - 1, 0.0)], [(7, 3)]).unwrap();
        assert_eq!(huge.count, 1 << 40);
        assert_eq!(huge.median_q_error, 1.0);
        assert_eq!(huge.max_abs_error_rate, 1.0);
    }

    #[test]
    fn weighted_percentile_matches_the_expanded_sample() {
        let pairs = [(1.0, 3u64), (2.0, 1), (5.0, 4)];
        let expanded = [1.0, 1.0, 1.0, 2.0, 5.0, 5.0, 5.0, 5.0];
        for p in [0.0, 0.3, 0.5, 0.95, 1.0] {
            assert_eq!(
                weighted_percentile(&pairs, 8, p),
                percentile(&expanded, p),
                "p = {p}"
            );
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.95), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
    }
}
