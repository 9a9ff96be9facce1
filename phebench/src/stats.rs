//! Order statistics the benchmark reports.

/// Nearest-rank percentile of an ascending sample (`p` in `[0, 1]`).
///
/// # Panics
/// On an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The median as Python's `statistics.median` gives it (the mean of the
/// two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` gives them (the default
/// "exclusive" method) — the spread rule regressions are judged by.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    match s.len() {
        0 => panic!("quartiles of an empty sample"),
        1 => [s[0]; 3],
        len => {
            let (n, m) = (4usize, len + 1);
            let mut out = [0.0; 3];
            for (i, cut) in out.iter_mut().enumerate() {
                let i = i + 1;
                let j = (i * m / n).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                *cut = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
            }
            out
        }
    }
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// One timed operation: when it completed (seconds into the measured
/// window) and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, seconds since the window opened.
    pub at: f64,
    /// Duration in milliseconds.
    pub ms: f64,
}

/// Time slices a measured window is cut into.
pub const SLICES: usize = 20;
/// Samples every slice needs before the window is sliced by time.
pub const MIN_SLICE_SAMPLES: usize = 1000;

/// The latency of a run's quietest quarter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quiet {
    /// Samples in the whole run.
    pub n: usize,
    /// Samples in the quietest quarter.
    pub quarter_n: usize,
    /// Median of the quietest quarter, ms.
    pub p50: f64,
    /// p90 of the quietest quarter, ms.
    pub p90: f64,
}

/// Summarizes `samples` taken over a window of `duration` seconds by the
/// run's quietest quarter.
///
/// On a machine shared with other tenants, interference only ever adds
/// time, and it arrives in stretches of seconds that come and go within a
/// run. A whole-run median mixes quiet and disturbed stretches in a
/// different proportion every run; the quietest stretches are what the
/// code itself costs. The run is cut into slices — [`SLICES`] equal time
/// slices when every one can hold [`MIN_SLICE_SAMPLES`] samples on
/// average (request round trips), otherwise one slice per operation
/// (publish passes, builds) — and the quarter of the slices with the
/// lowest medians is pooled. Slices left short by a stall are skipped.
///
/// # Panics
/// On an empty sample.
pub fn quiet(samples: &[Sample], duration: f64) -> Quiet {
    assert!(!samples.is_empty(), "no samples to summarize");
    let n = samples.len();
    let mut slices: Vec<Vec<f64>> = if n >= SLICES * MIN_SLICE_SAMPLES {
        let mut slices = vec![Vec::new(); SLICES];
        for s in samples {
            let i = ((s.at / duration.max(1e-9)) * SLICES as f64) as usize;
            slices[i.min(SLICES - 1)].push(s.ms);
        }
        slices
            .into_iter()
            .filter(|slice| slice.len() >= MIN_SLICE_SAMPLES)
            .map(|slice| sorted(&slice))
            .collect()
    } else {
        samples.iter().map(|s| vec![s.ms]).collect()
    };
    slices.sort_by(|a, b| percentile(a, 0.5).total_cmp(&percentile(b, 0.5)));
    let quarter = sorted(&slices[..slices.len().div_ceil(4)].concat());
    Quiet {
        n,
        quarter_n: quarter.len(),
        p50: percentile(&quarter, 0.5),
        p90: percentile(&quarter, 0.9),
    }
}

/// Whole-run nearest-rank median and p99 of `samples`, ms — the typical
/// figures printed beside the quiet ones.
pub fn whole_run(samples: &[Sample]) -> (f64, f64) {
    let all = sorted(&samples.iter().map(|s| s.ms).collect::<Vec<_>>());
    (percentile(&all, 0.5), percentile(&all, 0.99))
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn the_quietest_quarter_is_reported() {
        // Twenty slices of 1000 samples 1..=1000; slices 3, 7, 11, 15 and
        // 19 as they are, the rest scaled by 2: the quietest quarter.
        let mut samples = Vec::new();
        for w in 0..SLICES {
            let scale = if w % 4 == 3 { 1.0 } else { 2.0 };
            for i in 1..=MIN_SLICE_SAMPLES {
                samples.push(Sample {
                    at: w as f64 + i as f64 / 1001.0,
                    ms: i as f64 * scale,
                });
            }
        }
        let q = quiet(&samples, SLICES as f64);
        assert_eq!((q.n, q.quarter_n), (20_000, 5000));
        assert_eq!((q.p50, q.p90), (500.0, 900.0));
        // The whole-run figures mix every slice.
        let (p50, p99) = whole_run(&samples);
        assert!(p50 > 500.0 && p99 > 990.0);
    }

    #[test]
    fn a_disturbed_stretch_moves_the_whole_run_median_but_not_the_quiet_one() {
        let calm: Vec<Sample> = (0..40_000)
            .map(|i| Sample {
                at: i as f64 / 4000.0,
                ms: 1.0 + (i % 100) as f64 / 100.0,
            })
            .collect();
        let mut disturbed = calm.clone();
        // Six of ten seconds run 1.6x slower.
        for s in disturbed.iter_mut().filter(|s| s.at < 6.0) {
            s.ms *= 1.6;
        }
        assert_eq!(quiet(&calm, 10.0), quiet(&disturbed, 10.0));
        assert!(whole_run(&disturbed).0 > whole_run(&calm).0 * 1.2);
    }

    #[test]
    fn short_slices_are_skipped() {
        // A stall leaves one slice nearly empty: it cannot be among the
        // quietest.
        let mut samples: Vec<Sample> = (0..40_000)
            .map(|i| Sample {
                at: i as f64 / 4000.0,
                ms: 2.0,
            })
            .filter(|s| !(5.0..5.5).contains(&s.at))
            .collect();
        samples.push(Sample { at: 5.2, ms: 0.1 });
        let q = quiet(&samples, 10.0);
        assert_eq!((q.p50, q.quarter_n), (2.0, 5 * 2000));
    }

    #[test]
    fn long_operations_report_their_fastest_quarter() {
        let samples: Vec<Sample> = [310.0, 295.0, 402.0, 288.5, 350.0, 301.0, 330.0, 299.0]
            .iter()
            .enumerate()
            .map(|(i, &ms)| Sample { at: i as f64, ms })
            .collect();
        let q = quiet(&samples, 8.0);
        assert_eq!((q.n, q.quarter_n, q.p50, q.p90), (8, 2, 288.5, 295.0));
    }
}
