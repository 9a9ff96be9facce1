//! A fixed-capacity bitset with amortized O(touched) reset.
//!
//! Relation composition (`phe-pathenum`) de-duplicates join outputs with a
//! scratch bitset per source vertex. Those outputs are usually much smaller
//! than `|V|`, so zeroing the whole backing array between sources would
//! dominate. [`FixedBitSet`] records which words were touched and clears
//! only those, switching to a bulk `fill(0)` when the touched set grows past
//! half of the backing array (at that point the bulk clear is cheaper and
//! the touched list has stopped paying for itself).
//!
//! [`FixedBitSet::insert`] does not branch on the data. About a third of
//! the inserts a composition makes are duplicates, in no predictable
//! pattern, so an early return on a duplicate mispredicts often. Instead
//! every insert sets its bit, adds its freshness to the length, and writes
//! its word index to the touched buffer's next free slot; the slot is kept
//! only when the word was zero.

/// A fixed-capacity set of `u32` values backed by a bit array.
#[derive(Debug, Clone)]
pub struct FixedBitSet {
    words: Vec<u64>,
    /// `touched[..touched_len]` holds the index of every non-zero word,
    /// each once, in the order the words were first set. One slot longer
    /// than `words`, so the unconditional write of an insert always has a
    /// slot past the last kept one, even when every word is touched.
    touched: Vec<u32>,
    touched_len: usize,
    len: usize,
}

impl FixedBitSet {
    /// Creates a set able to hold values in `[0, capacity)`.
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        FixedBitSet {
            words: vec![0; words],
            touched: vec![0; words + 1],
            touched_len: 0,
            len: 0,
        }
    }

    /// Number of values currently in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in values (a multiple of 64, ≥ the requested capacity).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Inserts `value`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `value` exceeds the capacity.
    #[inline]
    pub fn insert(&mut self, value: u32) -> bool {
        let w = (value / 64) as usize;
        let bit = 1u64 << (value % 64);
        let word = &mut self.words[w];
        let old = *word;
        *word = old | bit;
        let fresh = old & bit == 0;
        self.len += usize::from(fresh);
        // Always written; kept (the cursor advances) only for a word that
        // was zero, so each non-zero word is recorded exactly once.
        self.touched[self.touched_len] = w as u32;
        self.touched_len += usize::from(old == 0);
        fresh
    }

    /// Whether `value` is in the set.
    #[inline]
    pub fn contains(&self, value: u32) -> bool {
        let w = (value / 64) as usize;
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << (value % 64)) != 0)
    }

    /// Removes all values. Cost is proportional to the number of distinct
    /// words touched since the last clear, or `O(capacity/64)` if more than
    /// half the words were touched.
    pub fn clear(&mut self) {
        let touched = &self.touched[..self.touched_len];
        if touched.len() * 2 >= self.words.len() {
            self.words.fill(0);
        } else {
            for &w in touched {
                self.words[w as usize] = 0;
            }
        }
        self.touched_len = 0;
        self.len = 0;
    }

    /// Iterates the values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = (wi * 64) as u32;
            BitIter { word, base }
        })
    }

    /// Drains the set into `out` in ascending order, then clears it.
    ///
    /// This is the hot path of relation composition: collect the
    /// de-duplicated targets of one source, reset, move to the next source.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<u32>) {
        self.drain_sorted_into_with(out, |_, _| {});
    }

    /// [`FixedBitSet::drain_sorted_into`] that first hands each non-zero
    /// word, with its index, to `on_word`, so a caller can fold what it
    /// drains (into a union, say) at one call per word rather than one
    /// per value.
    #[inline]
    pub fn drain_sorted_into_with(
        &mut self,
        out: &mut Vec<u32>,
        mut on_word: impl FnMut(u32, u64),
    ) {
        out.reserve(self.len);
        // Sorting the touched words lets us emit in ascending order while
        // visiting only non-zero words; each is recorded once, so no dedup.
        let touched = &mut self.touched[..self.touched_len];
        touched.sort_unstable();
        for &wi in touched.iter() {
            let base = wi * 64;
            let mut word = self.words[wi as usize];
            on_word(wi, word);
            while word != 0 {
                let tz = word.trailing_zeros();
                out.push(base + tz);
                word &= word - 1;
            }
            self.words[wi as usize] = 0;
        }
        self.touched_len = 0;
        self.len = 0;
    }
}

struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains() {
        let mut s = FixedBitSet::new(200);
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(199));
        assert!(!s.insert(63), "duplicate insert must report false");
        assert_eq!(s.len(), 4);
        assert!(s.contains(0));
        assert!(s.contains(199));
        assert!(!s.contains(100));
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = FixedBitSet::new(1000);
        for v in (0..1000).step_by(7) {
            s.insert(v);
        }
        s.clear();
        assert!(s.is_empty());
        for v in 0..1000 {
            assert!(!s.contains(v));
        }
        // Reusable after clear.
        assert!(s.insert(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn clear_bulk_path() {
        // Touch more than half of the words to exercise the fill(0) branch.
        let mut s = FixedBitSet::new(64 * 10);
        for w in 0..8 {
            s.insert(w * 64);
        }
        s.clear();
        assert!(s.is_empty());
        for w in 0..10 {
            assert!(!s.contains(w * 64));
        }
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = FixedBitSet::new(300);
        let values = [5u32, 1, 299, 64, 63, 128, 2];
        for &v in &values {
            s.insert(v);
        }
        let got: Vec<u32> = s.iter().collect();
        let mut want = values.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn drain_sorted_into_collects_and_clears() {
        let mut s = FixedBitSet::new(500);
        let values = [400u32, 3, 64, 65, 2, 499];
        for &v in &values {
            s.insert(v);
        }
        let mut out = Vec::new();
        s.drain_sorted_into(&mut out);
        let mut want = values.to_vec();
        want.sort_unstable();
        assert_eq!(out, want);
        assert!(s.is_empty());
        assert!(!s.contains(400));
        // Second drain on the cleared set yields nothing.
        let mut out2 = Vec::new();
        s.drain_sorted_into(&mut out2);
        assert!(out2.is_empty());
    }

    #[test]
    fn drain_with_hands_over_each_word_once() {
        let mut s = FixedBitSet::new(500);
        for v in [400u32, 3, 64, 65, 2, 499] {
            s.insert(v);
        }
        let mut words = Vec::new();
        let mut out = Vec::new();
        s.drain_sorted_into_with(&mut out, |wi, word| words.push((wi, word)));
        assert_eq!(out, vec![2, 3, 64, 65, 400, 499]);
        assert_eq!(
            words,
            vec![(0, 0b1100), (1, 0b11), (6, 1 << 16), (7, 1 << 51)]
        );
        assert!(s.is_empty());
    }

    #[test]
    fn capacity_rounds_up_to_word() {
        let s = FixedBitSet::new(65);
        assert_eq!(s.capacity(), 128);
        let s = FixedBitSet::new(0);
        assert_eq!(s.capacity(), 0);
    }

    #[test]
    fn many_inserts_same_word_touch_once() {
        let mut s = FixedBitSet::new(64);
        for v in 0..64 {
            s.insert(v);
        }
        assert_eq!(s.len(), 64);
        let got: Vec<u32> = s.iter().collect();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }
}
