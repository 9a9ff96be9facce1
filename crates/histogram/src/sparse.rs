//! Sparse frequency sequences: `(index, frequency)` runs with implicit
//! zeros — the one input every builder in this crate reads.
//!
//! A sparse-first build pipeline hands histogram builders the non-zero
//! frequencies only — sorted by domain index — so a domain dominated by
//! zero-selectivity paths costs O(nnz) instead of O(N). A plain dense
//! slice enters through [`SparseFrequencies::dense`], a zero-copy view
//! whose cursor skips the zeros, so there is exactly one implementation
//! of every builder. The integration tests pin each builder to a
//! textbook oracle written over plain `&[u64]`.
//!
//! ## Streaming access
//!
//! [`SparseFrequencies`] does not hold a pair vector: it wraps a borrowed
//! pair slice, a borrowed dense slice, or any [`RunSource`] — a streaming
//! provider of sorted entries, e.g. a block-compressed run whose decoder
//! hands out entries without ever materializing `nnz × 16` bytes. Every
//! builder reads through [`SparseFrequencies::cursor`] in sequential
//! passes; random access happens only on the O(nnz) prefix arrays of
//! [`SparsePrefix`], which the builders need anyway.
//!
//! [`SparsePrefix`] accumulates the `f64` square sums entry by entry; a
//! dense prefix over the same sequence would add an exact `+0.0` at every
//! zero, so range sums, square sums and SSE values equal the textbook
//! dense computation bit for bit.

use crate::bucket::Bucket;
use crate::error::HistogramError;

/// The largest bucket budget a build may honour: β buckets materialize β
/// [`Bucket`] values whatever the input representation, and 2²⁶ of them
/// are already a dense-sized output.
pub const DENSE_MATERIALIZE_LIMIT: u64 = 1 << 26;

/// A streaming provider of sorted, strictly increasing, non-zero
/// `(index, frequency)` entries — the contract between compressed run
/// storage (which lives upstream of this crate) and the histogram
/// builders. A fresh [`RunSource::cursor`] starts a new pass; builders
/// take as many passes as their algorithm needs (each is O(nnz)).
pub trait RunSource {
    /// Number of entries a cursor will yield.
    fn nnz(&self) -> usize;

    /// A fresh pass over the entries in index order.
    fn cursor(&self) -> Box<dyn Iterator<Item = (u64, u64)> + '_>;
}

/// The borrowed input behind a [`SparseFrequencies`].
#[derive(Clone, Copy)]
enum Source<'a> {
    Slice(&'a [(u64, u64)]),
    Dense(&'a [u64]),
    Stream(&'a dyn RunSource),
}

/// One sequential pass over a [`SparseFrequencies`]'s entries. Slice
/// inputs iterate allocation-free; streamed inputs carry their source's
/// boxed decoder (one allocation per pass, not per entry).
pub enum EntryCursor<'a> {
    /// Borrowed pair-slice pass.
    Slice(std::iter::Copied<std::slice::Iter<'a, (u64, u64)>>),
    /// Borrowed dense-slice pass; zeros are skipped.
    Dense(std::iter::Enumerate<std::slice::Iter<'a, u64>>),
    /// Streamed pass from a [`RunSource`].
    Stream(Box<dyn Iterator<Item = (u64, u64)> + 'a>),
}

impl Iterator for EntryCursor<'_> {
    type Item = (u64, u64);

    #[inline]
    fn next(&mut self) -> Option<(u64, u64)> {
        match self {
            EntryCursor::Slice(iter) => iter.next(),
            EntryCursor::Dense(iter) => iter
                .find(|&(_, &frequency)| frequency != 0)
                .map(|(index, &frequency)| (index as u64, frequency)),
            EntryCursor::Stream(iter) => iter.next(),
        }
    }
}

/// A sparse frequency sequence over the domain `[0, domain_size)`:
/// strictly increasing indexes with non-zero frequencies; every index not
/// listed has frequency 0. Entries are read through
/// [`SparseFrequencies::cursor`] — there is no pair vector to borrow.
#[derive(Clone, Copy)]
pub struct SparseFrequencies<'a> {
    source: Source<'a>,
    domain_size: u64,
    nnz: usize,
    total: u64,
}

impl std::fmt::Debug for SparseFrequencies<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseFrequencies")
            .field("domain_size", &self.domain_size)
            .field("nnz", &self.nnz)
            .field("total", &self.total)
            .finish()
    }
}

impl<'a> SparseFrequencies<'a> {
    /// Wraps validated runs borrowed as a plain slice.
    ///
    /// # Errors
    /// [`HistogramError::InvalidSparseRuns`] when indexes are unsorted,
    /// duplicated, or outside the domain, a listed frequency is zero
    /// (zeros must stay implicit so `nnz` is meaningful), or the total mass
    /// overflows `u64` (bucket sums could not hold it).
    pub fn new(
        entries: &'a [(u64, u64)],
        domain_size: u64,
    ) -> Result<SparseFrequencies<'a>, HistogramError> {
        Self::validate(Source::Slice(entries), domain_size)
    }

    /// Wraps a validated streaming source (e.g. a block-compressed run).
    /// Validation costs one full pass — the same O(nnz) the slice
    /// constructor pays.
    ///
    /// # Errors
    /// As for [`SparseFrequencies::new`].
    pub fn from_source(
        source: &'a dyn RunSource,
        domain_size: u64,
    ) -> Result<SparseFrequencies<'a>, HistogramError> {
        Self::validate(Source::Stream(source), domain_size)
    }

    /// A zero-copy view of a dense sequence: index `i` has frequency
    /// `data[i]`, and the cursor skips the zeros. A slice is sorted,
    /// duplicate-free and in-domain by construction, so the view needs no
    /// validation beyond one counting pass.
    ///
    /// # Panics
    /// Panics if the sequence's total mass overflows `u64` — the same
    /// refusal [`SparseFrequencies::new`] reports as an error.
    pub fn dense(data: &'a [u64]) -> SparseFrequencies<'a> {
        let nnz = data.iter().filter(|&&frequency| frequency != 0).count();
        let total = data.iter().try_fold(0u64, |acc, &f| acc.checked_add(f));
        SparseFrequencies {
            source: Source::Dense(data),
            domain_size: data.len() as u64,
            nnz,
            // LINT-ALLOW(panic): dense views are in-memory copies of a
            // counted catalog (accuracy evaluation, test oracles), whose
            // mass the counting layer already summed in u64; serving and
            // maintenance stream validated runs through `from_source`.
            total: total.expect("dense frequency mass overflows u64"),
        }
    }

    fn validate(
        source: Source<'a>,
        domain_size: u64,
    ) -> Result<SparseFrequencies<'a>, HistogramError> {
        let mut result = SparseFrequencies {
            source,
            domain_size,
            nnz: 0,
            total: 0,
        };
        let mut previous: Option<u64> = None;
        let mut nnz = 0usize;
        let mut total = 0u64;
        for (index, frequency) in result.cursor() {
            if previous.is_some_and(|p| p >= index) {
                return Err(HistogramError::InvalidSparseRuns(format!(
                    "indexes not strictly increasing at {} .. {}",
                    previous.unwrap_or(0),
                    index
                )));
            }
            if index >= domain_size {
                return Err(HistogramError::InvalidSparseRuns(format!(
                    "index {index} outside domain of {domain_size}"
                )));
            }
            if frequency == 0 {
                return Err(HistogramError::InvalidSparseRuns(format!(
                    "explicit zero frequency at index {index}"
                )));
            }
            previous = Some(index);
            nnz += 1;
            total = total.checked_add(frequency).ok_or_else(|| {
                HistogramError::InvalidSparseRuns(format!(
                    "total frequency mass overflows u64 at index {index}"
                ))
            })?;
        }
        result.nnz = nnz;
        result.total = total;
        Ok(result)
    }

    /// A fresh pass over the non-zero `(index, frequency)` entries,
    /// sorted by index.
    pub fn cursor(&self) -> EntryCursor<'a> {
        match self.source {
            Source::Slice(entries) => EntryCursor::Slice(entries.iter().copied()),
            Source::Dense(data) => EntryCursor::Dense(data.iter().enumerate()),
            Source::Stream(source) => EntryCursor::Stream(source.cursor()),
        }
    }

    /// The logical domain size (zeros included).
    #[inline]
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    /// Number of non-zero entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Total frequency mass.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Iterates the indexes of `[0, domain_size)` **absent** from `occupied`
/// (a sorted, strictly increasing index sequence), ascending.
///
/// This is the "walk the implicit zeros" primitive shared by the
/// builders: end-biased zero singletons, max-diff zero-diff
/// boundary fill, and the ideal ordering's zero plateau all need the
/// smallest non-occupied indexes without materializing the domain.
pub fn absent_indexes<I>(occupied: I, domain_size: u64) -> impl Iterator<Item = u64>
where
    I: IntoIterator<Item = u64>,
{
    let mut next_occupied = occupied.into_iter().peekable();
    (0..domain_size).filter(move |&position| {
        if next_occupied.peek() == Some(&position) {
            next_occupied.next();
            false
        } else {
            true
        }
    })
}

/// A maximal equal-value run of a frequency sequence: the inclusive
/// index range `[lo, hi]` and the entry ranks `rank(lo) .. rank(hi + 1)`
/// it spans (an empty span for a run of implicit zeros).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ValueRun {
    /// First index of the run.
    pub lo: u64,
    /// Last index of the run (inclusive).
    pub hi: u64,
    /// Rank of the run's first entry.
    pub rank_lo: usize,
    /// Rank one past the run's last entry.
    pub rank_hi: usize,
}

/// Sparse prefix sums: exact `u64` range sums and `f64` square sums
/// accumulated in index order, so SSE values match the textbook dense
/// prefix computation bit for bit (its zeros contribute an exact `+0.0`).
///
/// This is the one place a builder gets random access: the prefix arrays
/// are O(nnz) and addressed by *entry rank*, so per-entry frequencies are
/// recovered as adjacent-sum differences — no entry slice needed.
#[derive(Debug)]
pub struct SparsePrefix {
    /// Entry indexes, for rank queries.
    indexes: Vec<u64>,
    /// `sum[j]` = Σ frequency of the first `j` entries.
    sum: Vec<u64>,
    /// `sq[j]` = Σ frequency² of the first `j` entries, accumulated in
    /// entry order.
    sq: Vec<f64>,
}

impl SparsePrefix {
    /// Builds the prefix structure in one pass over the entries.
    pub fn new(data: &SparseFrequencies<'_>) -> SparsePrefix {
        let mut indexes = Vec::with_capacity(data.nnz());
        let mut sum = Vec::with_capacity(data.nnz() + 1);
        let mut sq = Vec::with_capacity(data.nnz() + 1);
        sum.push(0);
        sq.push(0.0);
        let mut s = 0u64;
        let mut q = 0.0f64;
        for (index, frequency) in data.cursor() {
            indexes.push(index);
            // Cannot overflow: construction checked the total mass.
            s += frequency;
            q += (frequency as f64) * (frequency as f64);
            sum.push(s);
            sq.push(q);
        }
        SparsePrefix { indexes, sum, sq }
    }

    /// The maximal equal-value runs of the sequence over
    /// `[0, domain_size)`, in index order. Gaps between entries are zero
    /// runs; adjacent entries with equal frequencies fuse. This is the
    /// starting segmentation for the sparse greedy V-optimal builder, read
    /// from the prefix arrays, so it costs no pass over the entries.
    pub(crate) fn equal_value_runs(&self, domain_size: u64) -> Vec<ValueRun> {
        let mut runs: Vec<ValueRun> = Vec::with_capacity(2 * self.indexes.len() + 1);
        let mut pos = 0u64;
        for (rank, &index) in self.indexes.iter().enumerate() {
            if pos < index {
                runs.push(ValueRun {
                    lo: pos,
                    hi: index - 1,
                    rank_lo: rank,
                    rank_hi: rank,
                });
            }
            let frequency = self.frequency_at_rank(rank);
            match runs.last_mut() {
                Some(last)
                    if last.hi + 1 == index
                        && last.rank_lo < last.rank_hi
                        && self.frequency_at_rank(last.rank_lo) == frequency =>
                {
                    last.hi = index;
                    last.rank_hi = rank + 1;
                }
                _ => runs.push(ValueRun {
                    lo: index,
                    hi: index,
                    rank_lo: rank,
                    rank_hi: rank + 1,
                }),
            }
            pos = index + 1;
        }
        if pos < domain_size {
            let entries = self.indexes.len();
            runs.push(ValueRun {
                lo: pos,
                hi: domain_size - 1,
                rank_lo: entries,
                rank_hi: entries,
            });
        }
        runs
    }

    /// Number of entries with index strictly below `position`.
    #[inline]
    pub fn rank(&self, position: u64) -> usize {
        self.indexes.partition_point(|&index| index < position)
    }

    /// The frequency of the entry at `rank` (adjacent prefix difference —
    /// exact, the prefix sums are plain `u64`).
    #[inline]
    pub fn frequency_at_rank(&self, rank: usize) -> u64 {
        self.sum[rank + 1] - self.sum[rank]
    }

    /// Sum of frequencies over the inclusive index range `[lo, hi]`.
    #[inline]
    pub fn range_sum(&self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        self.sum[self.rank(hi + 1)] - self.sum[self.rank(lo)]
    }

    /// Sum of squared frequencies over `[lo, hi]`, bit-identical to the
    /// dense prefix difference.
    #[inline]
    pub fn range_sq(&self, lo: u64, hi: u64) -> f64 {
        debug_assert!(lo <= hi);
        self.sq[self.rank(hi + 1)] - self.sq[self.rank(lo)]
    }

    /// SSE of `[lo, hi]` around its mean, `Σ f² − (Σ f)² / n`, clamped at
    /// zero to absorb floating-point cancellation on constant runs.
    #[inline]
    pub fn range_sse(&self, lo: u64, hi: u64) -> f64 {
        let n = (hi - lo + 1) as f64;
        let s = self.range_sum(lo, hi) as f64;
        let q = self.range_sq(lo, hi);
        (q - s * s / n).max(0.0)
    }

    /// [`SparsePrefix::range_sse`] with the two entry ranks supplied by
    /// the caller instead of binary-searched: `rank_lo = rank(lo)`,
    /// `rank_hi = rank(hi + 1)` (asserted in debug builds). Same
    /// subtractions on the same prefix elements ⇒ bit-identical values —
    /// this is the lookup-free variant for callers that track entry ranks
    /// incrementally, like the greedy V-optimal heap replay, where the
    /// per-call binary searches otherwise dominate.
    #[inline]
    pub fn range_sse_at(&self, lo: u64, hi: u64, rank_lo: usize, rank_hi: usize) -> f64 {
        debug_assert_eq!(rank_lo, self.rank(lo));
        debug_assert_eq!(rank_hi, self.rank(hi + 1));
        let n = (hi - lo + 1) as f64;
        let s = (self.sum[rank_hi] - self.sum[rank_lo]) as f64;
        let q = self.sq[rank_hi] - self.sq[rank_lo];
        (q - s * s / n).max(0.0)
    }

    /// Builds the [`Bucket`] covering `[lo, hi]`, with min/max accounting
    /// for implicit zeros. Per-entry frequencies come from the prefix
    /// array itself ([`SparsePrefix::frequency_at_rank`]), so no entry
    /// slice is involved.
    pub fn bucket(&self, lo: u64, hi: u64) -> Bucket {
        let first = self.rank(lo);
        let last = self.rank(hi + 1);
        let count = hi - lo + 1;
        let sum = self.sum[last] - self.sum[first];
        let has_zero = ((last - first) as u64) < count;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for rank in first..last {
            let frequency = self.frequency_at_rank(rank);
            min = min.min(frequency);
            max = max.max(frequency);
        }
        if has_zero || first == last {
            min = 0;
        }
        Bucket {
            lo: lo as usize,
            hi: hi as usize,
            sum,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal streamed source over a plain vector, standing in for the
    /// block-compressed decoder that lives upstream of this crate.
    struct VecSource(Vec<(u64, u64)>);

    impl RunSource for VecSource {
        fn nnz(&self) -> usize {
            self.0.len()
        }

        fn cursor(&self) -> Box<dyn Iterator<Item = (u64, u64)> + '_> {
            Box::new(self.0.iter().copied())
        }
    }

    #[test]
    fn validation_rejects_bad_runs() {
        assert!(SparseFrequencies::new(&[(3, 1), (2, 1)], 10).is_err());
        assert!(SparseFrequencies::new(&[(2, 1), (2, 1)], 10).is_err());
        assert!(SparseFrequencies::new(&[(12, 1)], 10).is_err());
        assert!(SparseFrequencies::new(&[(1, 0)], 10).is_err());
        assert!(SparseFrequencies::new(&[(1, 5), (9, 1)], 10).is_ok());
    }

    #[test]
    fn validation_rejects_mass_overflow() {
        // The total used to wrap to 0 here, and the first builder's
        // prefix pass then panicked on the same overflow.
        let entries = [(0u64, u64::MAX), (1, 1)];
        assert!(matches!(
            SparseFrequencies::new(&entries, 4),
            Err(HistogramError::InvalidSparseRuns(_))
        ));
        let source = VecSource(entries.to_vec());
        assert!(matches!(
            SparseFrequencies::from_source(&source, 4),
            Err(HistogramError::InvalidSparseRuns(_))
        ));
        // The largest representable mass is fine.
        let s = SparseFrequencies::new(&[(0, u64::MAX - 1), (3, 1)], 4).unwrap();
        assert_eq!(s.total(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn dense_view_refuses_mass_overflow() {
        SparseFrequencies::dense(&[u64::MAX, 0, 1]);
    }

    #[test]
    fn streamed_source_matches_slice() {
        let entries = vec![(1u64, 5u64), (4, 2), (9, 1)];
        let source = VecSource(entries.clone());
        let streamed = SparseFrequencies::from_source(&source, 10).unwrap();
        let sliced = SparseFrequencies::new(&entries, 10).unwrap();
        assert_eq!(streamed.nnz(), sliced.nnz());
        assert_eq!(streamed.total(), sliced.total());
        assert_eq!(streamed.cursor().collect::<Vec<_>>(), entries);
        assert_eq!(sliced.cursor().collect::<Vec<_>>(), entries);
        assert_eq!(
            SparsePrefix::new(&streamed).equal_value_runs(10),
            SparsePrefix::new(&sliced).equal_value_runs(10)
        );
        // Streamed sources are validated just like slices.
        let bad = VecSource(vec![(4, 2), (1, 5)]);
        assert!(SparseFrequencies::from_source(&bad, 10).is_err());
        let zero = VecSource(vec![(4, 0)]);
        assert!(SparseFrequencies::from_source(&zero, 10).is_err());
    }

    #[test]
    fn dense_view_skips_zeros() {
        let dense = [0u64, 5, 0, 0, 7, 1, 0];
        let view = SparseFrequencies::dense(&dense);
        let entries = [(1u64, 5u64), (4, 7), (5, 1)];
        assert_eq!(view.cursor().collect::<Vec<_>>(), entries);
        assert_eq!(view.domain_size(), 7);
        assert_eq!(view.total(), 13);
        assert_eq!(view.nnz(), 3);
        let sliced = SparseFrequencies::new(&entries, 7).unwrap();
        assert_eq!(
            SparsePrefix::new(&view).equal_value_runs(7),
            SparsePrefix::new(&sliced).equal_value_runs(7)
        );
        // All-zero and empty slices are valid views with no entries.
        assert_eq!(SparseFrequencies::dense(&[0, 0]).cursor().count(), 0);
        assert_eq!(SparseFrequencies::dense(&[]).domain_size(), 0);
    }

    #[test]
    fn sse_matches_direct_computation() {
        let data = [3u64, 0, 1, 4, 0, 0, 1, 5, 9, 2, 6, 0];
        let prefix = SparsePrefix::new(&SparseFrequencies::dense(&data));
        for lo in 0..data.len() {
            for hi in lo..data.len() {
                let slice = &data[lo..=hi];
                assert_eq!(
                    prefix.range_sum(lo as u64, hi as u64),
                    slice.iter().sum::<u64>()
                );
                let mean = slice.iter().sum::<u64>() as f64 / slice.len() as f64;
                let direct: f64 = slice.iter().map(|&v| (v as f64 - mean).powi(2)).sum();
                let fast = prefix.range_sse(lo as u64, hi as u64);
                assert!(
                    (fast - direct).abs() < 1e-9,
                    "sse mismatch on [{lo},{hi}]: {fast} vs {direct}"
                );
            }
        }
        // Constant runs cancel to exactly zero.
        assert_eq!(prefix.range_sse(4, 5), 0.0);
    }

    #[test]
    fn buckets_account_for_implicit_zeros() {
        let dense = [0u64, 5, 0, 0, 7, 1];
        let prefix = SparsePrefix::new(&SparseFrequencies::dense(&dense));
        let b = prefix.bucket(0, 2);
        assert_eq!((b.sum, b.min, b.max), (5, 0, 5));
        let b = prefix.bucket(4, 5);
        assert_eq!((b.sum, b.min, b.max), (8, 1, 7));
        let b = prefix.bucket(2, 3);
        assert_eq!((b.sum, b.min, b.max), (0, 0, 0));
    }

    #[test]
    fn absent_indexes_walks_the_gaps() {
        let occupied = [1u64, 2, 5];
        let absent: Vec<u64> = absent_indexes(occupied.iter().copied(), 8).collect();
        assert_eq!(absent, vec![0, 3, 4, 6, 7]);
        assert_eq!(absent_indexes(std::iter::empty(), 3).count(), 3);
        assert_eq!(absent_indexes([0u64, 1].into_iter(), 2).count(), 0);
    }

    #[test]
    fn equal_value_runs_partition_the_domain() {
        let spans = |prefix: SparsePrefix, n: u64| -> Vec<(u64, u64, usize, usize)> {
            prefix
                .equal_value_runs(n)
                .iter()
                .map(|run| (run.lo, run.hi, run.rank_lo, run.rank_hi))
                .collect()
        };
        let dense = [0u64, 0, 5, 5, 1, 0, 0, 2, 2, 2];
        let prefix = SparsePrefix::new(&SparseFrequencies::dense(&dense));
        assert_eq!(
            spans(prefix, 10),
            vec![
                (0, 1, 0, 0),
                (2, 3, 0, 2),
                (4, 4, 2, 3),
                (5, 6, 3, 3),
                (7, 9, 3, 6)
            ]
        );
        // All-zero and empty-entry domains are one run.
        let s = SparseFrequencies::new(&[], 4).unwrap();
        assert_eq!(spans(SparsePrefix::new(&s), 4), vec![(0, 3, 0, 0)]);
    }
}
