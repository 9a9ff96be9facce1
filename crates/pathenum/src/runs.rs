//! Block-compressed sparse runs: the catalog's storage representation.
//!
//! A sorted `(index, count)` run with strictly increasing `u64` indexes
//! and non-zero counts compresses extremely well: canonical path indexes
//! cluster by shared label prefixes, so consecutive gaps are small, and
//! realized-path counts are graph-local quantities. [`CompressedRuns`]
//! stores the run as fixed-capacity **blocks** (≤ [`BLOCK_ENTRIES`]
//! entries) behind a per-block skip index, each block carrying a one-byte
//! **codec tag** so the encoder can pick the cheaper of two layouts per
//! block:
//!
//! ```text
//! bytes:   [ block 0 ........ | block 1 ........ | ... ]
//! block:   tag (1 byte)
//!          varint(first_index) varint(first_count)      ← absolute head
//!   tag 0  varint(gap) varint(count) …                  ← LEB128 tail
//!   tag 1  gap_width count_width (1 byte each)
//!          varint(gap_min) varint(count_min)
//!          gap lane | count lane                        ← bit-packed tail
//! skip:    (first_index, last_index, byte_offset, len, mass) per block
//! ```
//!
//! Tag 1 is a frame-of-reference + bit-packed layout: the tail's index
//! gaps and counts are stored as fixed-width residuals above a per-block
//! minimum, in LSB-first little-endian lanes padded to whole `u64`
//! words. A lane decodes with a branch-free shift/mask loop over 128
//! entries at a time — no per-byte continuation tests — which is where
//! the ≥2× decode throughput over the varint layout comes from. The
//! encoder sizes both layouts analytically and keeps the smaller, so a
//! pathological block (one huge outlier gap widening the whole lane)
//! falls back to tag 0 and the stream never exceeds the pure-varint
//! encoding by more than the tag byte per block.
//!
//! Each block is **self-contained** (its head entry stores the absolute
//! index), which is what makes block-granular operations possible:
//!
//! * [`CompressedRuns::get`] binary-searches the skip index, then scans
//!   one block forward only as far as the target, decoding no count but
//!   the hit's — `O(log #blocks + B)`. On the `build` benchmark's catalog
//!   (seed 7: 62,259 entries in 487 blocks, 481 of them varint) a
//!   random-index lookup takes about a third of the time of a whole-block
//!   decode and binary search: 250–350 ns against 700–1,100 ns on one
//!   loaded x86-64 core. On runs of packed blocks only it gains less,
//!   1.1–2× (116–186 ns against 180–358 ns): 1.4× where the lanes fall
//!   in the AVX2 band of the whole-block decode, 1.1× with a constant
//!   count lane;
//! * [`CompressedRuns::merge_signed`] copies blocks untouched by the
//!   change **wholesale** (raw bytes + skip row, no re-encode) and
//!   re-encodes only blocks overlapping a changed index;
//! * [`CompressedRuns::merge_many`] (the sharded build's k-way merge)
//!   re-encodes every merged entry, so a parallel or spilled build gets
//!   the block layout of [`CompressedRuns::from_entries`] whatever its
//!   thread schedule. A spill-to-disk build merges its shards through it
//!   too, as runs mapped by [`crate::file::open_catalog_file`].
//!
//! The only access path for consumers is the zero-alloc [`RunsCursor`]
//! iterator: histogram builders and ordering remaps
//! all stream entries; nothing materializes the pair vector. The cursor
//! decodes lazily — entering a block decodes only its head entry, and
//! the tail is decoded into a stack buffer the first time the second
//! entry is demanded.
//!
//! The byte stream itself may live on the heap **or** borrow from a
//! memory-mapped catalog file ([`CompressedRuns::is_mapped`]); every
//! operation reads through the same slice either way. Every stream the
//! block decoders read was either encoded by [`RunsBuilder`] or passed
//! `validate_tagged` (catalog files, spill shards and
//! [`CompressedRuns::from_tagged_encoded`] alike), which is why the decoders may treat malformed bytes as a bug.
//!
//! Blocks may hold *fewer* than [`BLOCK_ENTRIES`] entries: the wholesale
//! copies of [`CompressedRuns::merge_signed`] preserve the source block
//! boundaries, and a re-encoded region flushes its partial tail before
//! an adjacent raw copy. Every operation
//! preserves the run invariants (strictly increasing indexes, counts
//! non-zero), and [`PartialEq`] compares the *decoded streams*, so two
//! runs with different block boundaries but equal content are equal.

use crate::mmap::MappedRegion;
use std::sync::Arc;

/// Maximum entries per block. 128 keeps a point lookup to a forward scan
/// of at most one block (about 64 entries on average) while amortizing
/// the 40-byte skip row to ~0.3 B/entry.
pub const BLOCK_ENTRIES: usize = 128;

/// Worst-case LEB128 length of a `u64` (⌈64 / 7⌉ bytes).
const MAX_VARINT: usize = 10;

/// Codec tag: LEB128 delta-varint tail (the v4 layout, plus the tag).
pub(crate) const TAG_VARINT: u8 = 0;
/// Codec tag: frame-of-reference bit-packed tail.
pub(crate) const TAG_PACKED: u8 = 1;

/// Per-block skip row: everything a consumer needs to route around (or
/// wholesale-copy) the block without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Index of the block's first entry (stored absolute in the bytes).
    pub first_index: u64,
    /// Index of the block's last entry.
    pub last_index: u64,
    /// Offset of the block's first byte in the run's byte stream.
    pub byte_offset: usize,
    /// Number of entries in the block (`1..=BLOCK_ENTRIES`).
    pub len: u32,
    /// Sum of the block's counts.
    pub mass: u64,
}

/// A decode/validation failure of an externally supplied byte stream
/// (catalog files, spill shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunsCorrupt(pub String);

impl std::fmt::Display for RunsCorrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed runs: {}", self.0)
    }
}

impl std::error::Error for RunsCorrupt {}

/// A signed merge drove a count below zero: the changes were computed
/// against a different base run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedMergeUnderflow {
    /// The offending index.
    pub index: u64,
    /// The base count at that index (0 when absent).
    pub count: u64,
    /// The signed difference that was applied.
    pub delta: i64,
}

/// Where a run's encoded bytes live: owned on the heap, or borrowed
/// from a shared memory-mapped catalog file.
#[derive(Clone)]
enum RunBytes {
    Owned(Vec<u8>),
    Mapped {
        region: Arc<MappedRegion>,
        offset: usize,
        len: usize,
    },
}

impl RunBytes {
    #[inline]
    fn as_slice(&self) -> &[u8] {
        match self {
            RunBytes::Owned(bytes) => bytes,
            RunBytes::Mapped {
                region,
                offset,
                len,
            } => &region.as_slice()[*offset..offset + len],
        }
    }

    /// Heap bytes held by this payload (0 when disk-resident).
    fn heap_bytes(&self) -> usize {
        match self {
            RunBytes::Owned(bytes) => bytes.capacity(),
            RunBytes::Mapped { .. } => 0,
        }
    }
}

impl Default for RunBytes {
    fn default() -> RunBytes {
        RunBytes::Owned(Vec::new())
    }
}

impl std::fmt::Debug for RunBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunBytes::Owned(bytes) => f.debug_tuple("Owned").field(&bytes.len()).finish(),
            RunBytes::Mapped { offset, len, .. } => f
                .debug_struct("Mapped")
                .field("offset", offset)
                .field("len", len)
                .finish(),
        }
    }
}

/// Block-compressed sorted `(index, count)` runs. See the module docs
/// for the layout and the operation complexity table.
#[derive(Debug, Clone, Default)]
pub struct CompressedRuns {
    bytes: RunBytes,
    skip: Vec<BlockMeta>,
    len: usize,
    total_mass: u64,
}

/// Content equality: two runs are equal iff they decode to the same
/// entry stream — block boundaries and codec choices are a storage
/// artifact (a delta merge that wholesale-copied blocks must compare
/// equal to a fresh re-encode).
impl PartialEq for CompressedRuns {
    fn eq(&self, other: &CompressedRuns) -> bool {
        self.len == other.len && self.total_mass == other.total_mass && self.iter().eq(other.iter())
    }
}

impl Eq for CompressedRuns {}

impl CompressedRuns {
    /// An empty run.
    pub fn new() -> CompressedRuns {
        CompressedRuns::default()
    }

    /// Compresses pre-sorted entries (strictly increasing indexes,
    /// non-zero counts — debug-asserted, as for every construction path).
    pub fn from_entries(entries: &[(u64, u64)]) -> CompressedRuns {
        Self::from_sorted_iter(entries.iter().copied())
    }

    /// Compresses a pre-sorted entry stream.
    pub fn from_sorted_iter(entries: impl IntoIterator<Item = (u64, u64)>) -> CompressedRuns {
        let mut builder = RunsBuilder::new();
        for (index, count) in entries {
            builder.push(index, count);
        }
        builder.finish()
    }

    /// Rebuilds a heap-owned run from its tagged serialized form: the raw
    /// byte stream plus the per-block entry counts. It is the in-memory
    /// entry point to the same validating pass `.phc` files are opened
    /// through; the skip index is re-derived by that pass and the bytes
    /// are kept verbatim, so the stream (and every skip row) round-trips
    /// exactly.
    ///
    /// # Errors
    /// [`RunsCorrupt`] when the bytes truncate mid-varint, an index fails
    /// to increase strictly, a count is zero, a block is empty or
    /// over-full, trailing bytes remain after the declared blocks, a codec
    /// tag is unknown, a lane is wider than 64 bits, or a bit lane is
    /// truncated.
    pub fn from_tagged_encoded(
        bytes: Vec<u8>,
        block_lens: &[u32],
    ) -> Result<CompressedRuns, RunsCorrupt> {
        let (skip, len, total_mass) = validate_tagged(&bytes, block_lens)?;
        Ok(CompressedRuns {
            bytes: RunBytes::Owned(bytes),
            skip,
            len,
            total_mass,
        })
    }

    /// Assembles a run whose payload borrows `region[offset..offset+len_bytes]`.
    /// The caller has already validated the stream (via
    /// [`validate_tagged`]) — this only wires the pieces together.
    pub(crate) fn from_mapped_parts(
        region: Arc<MappedRegion>,
        offset: usize,
        len_bytes: usize,
        skip: Vec<BlockMeta>,
        len: usize,
        total_mass: u64,
    ) -> CompressedRuns {
        debug_assert!(offset + len_bytes <= region.len());
        CompressedRuns {
            bytes: RunBytes::Mapped {
                region,
                offset,
                len: len_bytes,
            },
            skip,
            len,
            total_mass,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the run holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of all counts (wrapping, as the plain representation's sum
    /// would be).
    #[inline]
    pub fn total_mass(&self) -> u64 {
        self.total_mass
    }

    /// The encoded byte stream (tagged blocks back to back).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.bytes.as_slice()
    }

    /// The skip index, one row per block.
    #[inline]
    pub fn skip_index(&self) -> &[BlockMeta] {
        &self.skip
    }

    /// Whether the payload borrows from a memory-mapped file instead of
    /// owning heap bytes.
    #[inline]
    pub fn is_mapped(&self) -> bool {
        matches!(self.bytes, RunBytes::Mapped { .. })
    }

    /// Length of the encoded payload in bytes, wherever it lives.
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.bytes.as_slice().len()
    }

    /// **Heap-resident** bytes of this representation: encoded stream
    /// (0 when it borrows a mapped file) plus skip index plus struct
    /// overhead. The plain equivalent is [`CompressedRuns::plain_bytes`].
    pub fn size_bytes(&self) -> usize {
        self.bytes.heap_bytes()
            + self.skip.capacity() * std::mem::size_of::<BlockMeta>()
            + std::mem::size_of::<CompressedRuns>()
    }

    /// Bytes the flat `Vec<(u64, u64)>` representation would need.
    pub fn plain_bytes(&self) -> usize {
        self.len * std::mem::size_of::<(u64, u64)>()
    }

    /// Blocks per codec, `(varint, packed)` — observability for benches.
    pub fn block_codec_counts(&self) -> (usize, usize) {
        let bytes = self.bytes();
        let mut varint = 0usize;
        let mut packed = 0usize;
        for meta in &self.skip {
            if bytes[meta.byte_offset] == TAG_PACKED {
                packed += 1;
            } else {
                varint += 1;
            }
        }
        (varint, packed)
    }

    /// The count at `index`, or `None` when absent: binary search over
    /// the skip index, then a forward scan of at most one block that
    /// stops at the first index ≥ `index` and decodes only the hit's
    /// count. See the module docs for its cost on varint and packed
    /// blocks.
    pub fn get(&self, index: u64) -> Option<u64> {
        let block = self.skip.partition_point(|meta| meta.last_index < index);
        let meta = self.skip.get(block)?;
        if index < meta.first_index {
            return None;
        }
        let bytes = self.bytes();
        let end = self
            .skip
            .get(block + 1)
            .map_or(bytes.len(), |m| m.byte_offset);
        scan_block(&bytes[meta.byte_offset..end], meta.len as usize, index)
    }

    /// A zero-alloc streaming pass over the entries, in index order —
    /// the single access path every consumer shares.
    pub fn iter(&self) -> RunsCursor<'_> {
        RunsCursor {
            runs: self,
            block: 0,
            in_block: 0,
            tail: TailBuf::new(),
        }
    }

    /// Decodes into the plain pair vector (tests, small runs).
    pub fn to_vec(&self) -> Vec<(u64, u64)> {
        self.iter().collect()
    }

    /// Folds sorted signed `(index, diff)` changes into this run: sums
    /// matching indexes, admits new ones, and drops entries whose count
    /// cancels to zero. Blocks whose index range meets no change are
    /// copied **wholesale** (bytes + skip row); only overlapping blocks
    /// are decoded and re-encoded, so the cost is
    /// `O(|changes| + touched blocks + copied skip rows)`.
    ///
    /// # Errors
    /// [`SignedMergeUnderflow`] when a merged count would go negative —
    /// the changes were not computed against this base.
    pub fn merge_signed(
        &self,
        changes: &[(u64, i64)],
    ) -> Result<CompressedRuns, SignedMergeUnderflow> {
        debug_assert!(changes.windows(2).all(|w| w[0].0 < w[1].0));
        let mut builder = RunsBuilder::new();
        let mut change = 0usize;
        let apply = |index: u64, count: u64, diff: i64| -> Result<u64, SignedMergeUnderflow> {
            u64::try_from(count as i128 + diff as i128).map_err(|_| SignedMergeUnderflow {
                index,
                count,
                delta: diff,
            })
        };
        let mut idx = [0u64; BLOCK_ENTRIES];
        let mut cnt = [0u64; BLOCK_ENTRIES];
        for meta in &self.skip {
            // Changes strictly below this block are insertions into the
            // gap before it.
            while let Some(&(index, diff)) =
                changes.get(change).filter(|&&(i, _)| i < meta.first_index)
            {
                let merged = apply(index, 0, diff)?;
                if merged > 0 {
                    builder.push(index, merged);
                }
                change += 1;
            }
            let overlaps = changes
                .get(change)
                .is_some_and(|&(i, _)| i <= meta.last_index);
            if !overlaps {
                // Untouched block: raw copy, no re-encode.
                builder.push_block_raw(meta, self.block_bytes(meta));
                continue;
            }
            // Overlapping block: decode and two-pointer merge.
            let blk = self.block_bytes(meta);
            let (first_index, first_count) = decode_block_head(blk);
            let n = meta.len as usize;
            if n > 1 {
                decode_block_tail(blk, n, first_index, &mut idx, &mut cnt);
            }
            let entries = std::iter::once((first_index, first_count)).chain(
                idx[..n - 1]
                    .iter()
                    .copied()
                    .zip(cnt[..n - 1].iter().copied()),
            );
            for (current, count) in entries {
                while let Some(&(index, diff)) = changes.get(change).filter(|&&(i, _)| i < current)
                {
                    let merged = apply(index, 0, diff)?;
                    if merged > 0 {
                        builder.push(index, merged);
                    }
                    change += 1;
                }
                match changes.get(change) {
                    Some(&(index, diff)) if index == current => {
                        let merged = apply(index, count, diff)?;
                        if merged > 0 {
                            builder.push(index, merged);
                        }
                        change += 1;
                    }
                    _ => builder.push(current, count),
                }
            }
        }
        // Changes past the last block are trailing insertions.
        for &(index, diff) in &changes[change..] {
            let merged = apply(index, 0, diff)?;
            if merged > 0 {
                builder.push(index, merged);
            }
        }
        Ok(builder.finish())
    }

    /// K-way merges sorted runs, **summing** counts of equal indexes —
    /// the sharded build's combine step, over heap-owned and mapped runs
    /// alike (a spilled build merges its shards through here). Every
    /// merged entry is re-encoded through one [`RunsBuilder`], so the
    /// result has the block layout [`CompressedRuns::from_entries`] gives
    /// the same entries: its bytes depend on the content alone, not on how
    /// a parallel or spilled build happened to split it into runs.
    pub fn merge_many(runs: &[CompressedRuns]) -> CompressedRuns {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut heads: Vec<(RunsCursor<'_>, Option<(u64, u64)>)> = runs
            .iter()
            .map(|run| {
                let mut cursor = run.iter();
                let next = cursor.next();
                (cursor, next)
            })
            .collect();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = heads
            .iter()
            .enumerate()
            .filter_map(|(run, (_, next))| next.map(|(index, _)| Reverse((index, run))))
            .collect();

        let mut builder = RunsBuilder::new();
        // The entry merged most recently but not yet pushed: equal
        // indexes from other runs still need summing into it.
        let mut acc: Option<(u64, u64)> = None;
        while let Some(Reverse((index, run))) = heap.pop() {
            let (cursor, next) = &mut heads[run];
            // LINT-ALLOW(panic): a run is on the heap exactly while its
            // head holds a pending entry (pushed only from `Some` below).
            let (_, count) = next.expect("heap entries are pending");
            match acc {
                Some((i, ref mut c)) if i == index => *c += count,
                _ => {
                    if let Some((i, c)) = acc.replace((index, count)) {
                        builder.push(i, c);
                    }
                }
            }
            *next = cursor.next();
            if let Some((index, _)) = *next {
                heap.push(Reverse((index, run)));
            }
        }
        if let Some((index, count)) = acc {
            builder.push(index, count);
        }
        builder.finish()
    }

    /// The raw bytes of one block. Skip rows are sorted by byte offset,
    /// so the block's end is its successor's offset (binary-searched —
    /// merges call this once per wholesale-copied block).
    fn block_bytes(&self, meta: &BlockMeta) -> &[u8] {
        let bytes = self.bytes();
        let block = self
            .skip
            .partition_point(|m| m.byte_offset <= meta.byte_offset);
        let end = self.skip.get(block).map_or(bytes.len(), |m| m.byte_offset);
        &bytes[meta.byte_offset..end]
    }
}

impl<'a> IntoIterator for &'a CompressedRuns {
    type Item = (u64, u64);
    type IntoIter = RunsCursor<'a>;

    fn into_iter(self) -> RunsCursor<'a> {
        self.iter()
    }
}

/// The decoded tail of one block (entries after the head), staged in
/// fixed stack buffers so iteration serves from plain arrays.
#[derive(Clone)]
struct TailBuf {
    idx: [u64; BLOCK_ENTRIES],
    cnt: [u64; BLOCK_ENTRIES],
}

impl TailBuf {
    fn new() -> TailBuf {
        TailBuf {
            idx: [0; BLOCK_ENTRIES],
            cnt: [0; BLOCK_ENTRIES],
        }
    }
}

/// The zero-alloc streaming decoder over a [`CompressedRuns`]: a plain
/// `Iterator<Item = (u64, u64)>` that decodes one block at a time into
/// a stack buffer. Entering a block decodes only its head entry; the
/// tail is decoded lazily when (and only when) the second entry is
/// demanded.
#[derive(Clone)]
pub struct RunsCursor<'a> {
    runs: &'a CompressedRuns,
    /// Current block id.
    block: usize,
    /// Entries already yielded from the current block (0 = at a block
    /// boundary; ≥1 = head yielded, tail decoded from 2nd entry on).
    in_block: u32,
    /// Decoded tail of the current block (valid once `in_block ≥ 2`,
    /// or at `in_block == 1` after the lazy decode).
    tail: TailBuf,
}

impl std::fmt::Debug for RunsCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunsCursor")
            .field("block", &self.block)
            .field("in_block", &self.in_block)
            .finish()
    }
}

impl<'a> RunsCursor<'a> {
    /// The bytes of block `block` — O(1): a block ends where its
    /// successor begins.
    fn block_slice(&self, block: usize, meta: &BlockMeta) -> &'a [u8] {
        let bytes = self.runs.bytes();
        let end = self
            .runs
            .skip
            .get(block + 1)
            .map_or(bytes.len(), |m| m.byte_offset);
        &bytes[meta.byte_offset..end]
    }
}

impl Iterator for RunsCursor<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        let meta = *self.runs.skip.get(self.block)?;
        if self.in_block == 0 {
            // Lazy head decode: the tag plus two varints, nothing more.
            let head = decode_block_head(self.block_slice(self.block, &meta));
            if meta.len == 1 {
                self.block += 1;
            } else {
                self.in_block = 1;
            }
            return Some(head);
        }
        if self.in_block == 1 {
            // Second entry demanded: decode the whole tail in one pass.
            decode_block_tail(
                self.block_slice(self.block, &meta),
                meta.len as usize,
                meta.first_index,
                &mut self.tail.idx,
                &mut self.tail.cnt,
            );
        }
        let at = (self.in_block - 1) as usize;
        let entry = (self.tail.idx[at], self.tail.cnt[at]);
        self.in_block += 1;
        if self.in_block == meta.len {
            self.block += 1;
            self.in_block = 0;
        }
        Some(entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let consumed: usize = self.runs.skip[..self.block]
            .iter()
            .map(|m| m.len as usize)
            .sum::<usize>()
            + self.in_block as usize;
        let left = self.runs.len - consumed;
        (left, Some(left))
    }

    /// Block-wise fold: full blocks are decoded once into the stack
    /// buffer and folded straight out of it, skipping the per-entry
    /// state machine — the bulk-decode path histogram builds and
    /// benchmarks hit.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, (u64, u64)) -> B,
    {
        let mut acc = init;
        // Finish a partially consumed block entry-at-a-time first.
        while self.in_block != 0 {
            match self.next() {
                Some(entry) => acc = f(acc, entry),
                None => return acc,
            }
        }
        while let Some(&meta) = self.runs.skip.get(self.block) {
            let blk = self.block_slice(self.block, &meta);
            acc = f(acc, decode_block_head(blk));
            let n = meta.len as usize;
            if n > 1 {
                decode_block_tail(
                    blk,
                    n,
                    meta.first_index,
                    &mut self.tail.idx,
                    &mut self.tail.cnt,
                );
                for at in 0..n - 1 {
                    acc = f(acc, (self.tail.idx[at], self.tail.cnt[at]));
                }
            }
            self.block += 1;
        }
        acc
    }
}

impl ExactSizeIterator for RunsCursor<'_> {}

/// Incremental writer of a [`CompressedRuns`]: entries stream in via
/// [`RunsBuilder::push`] (strictly increasing, non-zero counts), whole
/// untouched blocks via [`RunsBuilder::push_block_raw`]. Entries are
/// staged in a block-sized buffer; each full (or final partial) block is
/// encoded with whichever codec is smaller for its contents.
pub struct RunsBuilder {
    bytes: Vec<u8>,
    skip: Vec<BlockMeta>,
    len: usize,
    total_mass: u64,
    /// Entries staged for the open block.
    pending: usize,
    pending_mass: u64,
    pend_idx: [u64; BLOCK_ENTRIES],
    pend_cnt: [u64; BLOCK_ENTRIES],
    last_index: Option<u64>,
    varint_only: bool,
}

impl std::fmt::Debug for RunsBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunsBuilder")
            .field("len", &self.len)
            .field("pending", &self.pending)
            .field("blocks", &self.skip.len())
            .finish()
    }
}

impl Default for RunsBuilder {
    fn default() -> RunsBuilder {
        RunsBuilder::new()
    }
}

impl RunsBuilder {
    /// An empty builder.
    pub fn new() -> RunsBuilder {
        RunsBuilder {
            bytes: Vec::new(),
            skip: Vec::new(),
            len: 0,
            total_mass: 0,
            pending: 0,
            pending_mass: 0,
            pend_idx: [0; BLOCK_ENTRIES],
            pend_cnt: [0; BLOCK_ENTRIES],
            last_index: None,
            varint_only: false,
        }
    }

    /// Forces every block onto the varint codec — the decode-throughput
    /// benchmark's baseline. Production builders always let the encoder
    /// choose per block.
    pub fn varint_only(mut self) -> RunsBuilder {
        self.varint_only = true;
        self
    }

    /// Appends one entry. Indexes must arrive strictly increasing and
    /// counts non-zero (debug-asserted — every producer in this crate
    /// upholds the run invariants by construction).
    pub fn push(&mut self, index: u64, count: u64) {
        debug_assert!(count > 0, "explicit zero count at {index}");
        debug_assert!(
            self.last_index.is_none_or(|last| last < index),
            "index {index} does not increase strictly"
        );
        self.pend_idx[self.pending] = index;
        self.pend_cnt[self.pending] = count;
        self.pending += 1;
        self.pending_mass = self.pending_mass.wrapping_add(count);
        self.last_index = Some(index);
        self.len += 1;
        self.total_mass = self.total_mass.wrapping_add(count);
        if self.pending == BLOCK_ENTRIES {
            self.flush();
        }
    }

    /// Appends a whole block verbatim: `bytes` are the block's encoded
    /// (tagged) stream exactly as described by `meta`. Any partially
    /// filled block is flushed first (blocks are self-contained, so
    /// boundaries need not align). The block's indexes must all exceed
    /// the last pushed index.
    pub fn push_block_raw(&mut self, meta: &BlockMeta, bytes: &[u8]) {
        debug_assert!(
            self.last_index.is_none_or(|last| last < meta.first_index),
            "raw block starts at {} behind cursor {:?}",
            meta.first_index,
            self.last_index
        );
        self.flush();
        let byte_offset = self.bytes.len();
        self.bytes.extend_from_slice(bytes);
        self.skip.push(BlockMeta {
            byte_offset,
            ..*meta
        });
        self.last_index = Some(meta.last_index);
        self.len += meta.len as usize;
        self.total_mass = self.total_mass.wrapping_add(meta.mass);
    }

    /// Encodes and closes the staged block, if any.
    fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        let n = self.pending;
        let byte_offset = self.bytes.len();
        encode_block(
            &mut self.bytes,
            &self.pend_idx[..n],
            &self.pend_cnt[..n],
            self.varint_only,
        );
        self.skip.push(BlockMeta {
            first_index: self.pend_idx[0],
            last_index: self.pend_idx[n - 1],
            byte_offset,
            len: n as u32,
            mass: self.pending_mass,
        });
        self.pending = 0;
        self.pending_mass = 0;
    }

    /// Finishes the run. The vectors are shrunk to fit: the run is
    /// long-lived (retained catalogs, maintenance state), so push-growth
    /// slack would be permanent resident memory — and would inflate
    /// [`CompressedRuns::size_bytes`], which reports capacity.
    pub fn finish(mut self) -> CompressedRuns {
        self.flush();
        self.bytes.shrink_to_fit();
        self.skip.shrink_to_fit();
        CompressedRuns {
            bytes: RunBytes::Owned(self.bytes),
            skip: self.skip,
            len: self.len,
            total_mass: self.total_mass,
        }
    }
}

// ---------------------------------------------------------------------
// Block codec kernels.
// ---------------------------------------------------------------------

/// Encodes one block, choosing the cheaper codec (packed on ties) —
/// both layouts are sized analytically before a byte is written.
fn encode_block(out: &mut Vec<u8>, idx: &[u64], cnt: &[u64], varint_only: bool) {
    let n = idx.len();
    debug_assert!((1..=BLOCK_ENTRIES).contains(&n));
    if n == 1 || varint_only {
        encode_varint_block(out, idx, cnt);
        return;
    }
    // Tail statistics: index gaps and counts of entries 1..n.
    let mut gaps = [0u64; BLOCK_ENTRIES];
    let (mut gap_min, mut gap_max) = (u64::MAX, 0u64);
    let (mut cnt_min, mut cnt_max) = (u64::MAX, 0u64);
    let mut varint_tail = 0usize;
    for (slot, (pair, &count)) in gaps[..n - 1].iter_mut().zip(idx.windows(2).zip(&cnt[1..])) {
        let gap = pair[1] - pair[0];
        *slot = gap;
        gap_min = gap_min.min(gap);
        gap_max = gap_max.max(gap);
        cnt_min = cnt_min.min(count);
        cnt_max = cnt_max.max(count);
        varint_tail += varint_len(gap) + varint_len(count);
    }
    let gap_width = width_for(gap_max - gap_min);
    let cnt_width = width_for(cnt_max - cnt_min);
    let packed_tail = 2
        + varint_len(gap_min)
        + varint_len(cnt_min)
        + lane_bytes(n - 1, gap_width)
        + lane_bytes(n - 1, cnt_width);
    if packed_tail > varint_tail {
        // Pathological block (e.g. one outlier gap widening the whole
        // lane): keep the varint layout.
        encode_varint_block(out, idx, cnt);
        return;
    }
    out.push(TAG_PACKED);
    encode_varint(out, idx[0]);
    encode_varint(out, cnt[0]);
    out.push(gap_width);
    out.push(cnt_width);
    encode_varint(out, gap_min);
    encode_varint(out, cnt_min);
    pack_lane(out, &gaps[..n - 1], gap_min, gap_width);
    pack_lane(out, &cnt[1..], cnt_min, cnt_width);
}

/// The tag-0 layout: absolute head, then per-entry delta varints.
fn encode_varint_block(out: &mut Vec<u8>, idx: &[u64], cnt: &[u64]) {
    out.push(TAG_VARINT);
    encode_varint(out, idx[0]);
    encode_varint(out, cnt[0]);
    for (pair, &count) in idx.windows(2).zip(&cnt[1..]) {
        encode_varint(out, pair[1] - pair[0]);
        encode_varint(out, count);
    }
}

/// Decodes a block's head entry — the tag byte plus two varints; the
/// tail stays untouched until a second entry is demanded.
fn decode_block_head(block: &[u8]) -> (u64, u64) {
    let mut pos = 1; // past the codec tag
    let index = validated_varint(block, &mut pos);
    let count = validated_varint(block, &mut pos);
    (index, count)
}

/// Decodes a block's tail (entries after the head) into `idx`/`cnt`
/// `[0..len-1]` as absolute indexes and counts. `block` is the block's
/// own byte slice (tag first); the stream was validated at construction,
/// so malformed bytes are a programming error (panic), not a result.
fn decode_block_tail(
    block: &[u8],
    len: usize,
    first_index: u64,
    idx: &mut [u64; BLOCK_ENTRIES],
    cnt: &mut [u64; BLOCK_ENTRIES],
) {
    debug_assert!(len > 1);
    let tag = block[0];
    let mut pos = 1;
    validated_varint(block, &mut pos);
    validated_varint(block, &mut pos);
    let n = len - 1;
    match tag {
        TAG_VARINT => {
            let mut prev = first_index;
            for (i_slot, c_slot) in idx[..n].iter_mut().zip(cnt[..n].iter_mut()) {
                let gap = validated_varint(block, &mut pos);
                prev += gap;
                *i_slot = prev;
                *c_slot = validated_varint(block, &mut pos);
            }
        }
        TAG_PACKED => {
            let gap_width = block[pos];
            let cnt_width = block[pos + 1];
            pos += 2;
            let gap_min = validated_varint(block, &mut pos);
            let cnt_min = validated_varint(block, &mut pos);
            let gap_lane = lane_bytes(n, gap_width);
            unpack_lane(&block[pos..pos + gap_lane], n, gap_min, gap_width, idx);
            pos += gap_lane;
            let cnt_lane = lane_bytes(n, cnt_width);
            unpack_lane(&block[pos..pos + cnt_lane], n, cnt_min, cnt_width, cnt);
            // Prefix-sum the gaps into absolute indexes.
            let mut prev = first_index;
            for slot in idx[..n].iter_mut() {
                prev = prev.wrapping_add(*slot);
                *slot = prev;
            }
        }
        // LINT-ALLOW(panic): `validate_tagged` refuses any other codec
        // tag, and every stream decoded here was encoded by `RunsBuilder`
        // or passed it: catalog files, spill shards and
        // `from_tagged_encoded` all open through it.
        other => unreachable!("validated codec tag, got {other}"),
    }
}

/// The count at `index` in one block of `len` entries whose last index
/// is at least `index`, or `None` when absent. Decodes forward only until
/// the first index ≥ `index`: varint gaps take a one-byte fast path and
/// counts before the hit are skipped undecoded; packed gaps are read off
/// their lane one residual at a time and only the hit's count residual
/// is read. Every read is a checked index into `block`, whose bytes may
/// be memory-mapped.
fn scan_block(block: &[u8], len: usize, index: u64) -> Option<u64> {
    let mut pos = 1; // past the codec tag
    let mut prev = validated_varint(block, &mut pos);
    if prev >= index {
        return (prev == index).then(|| validated_varint(block, &mut pos));
    }
    skip_varint(block, &mut pos);
    let n = len - 1;
    match block[0] {
        TAG_VARINT => {
            for _ in 1..len {
                let byte = block[pos];
                let gap = if byte < 0x80 {
                    pos += 1;
                    u64::from(byte)
                } else {
                    validated_varint(block, &mut pos)
                };
                prev += gap;
                if prev >= index {
                    return (prev == index).then(|| validated_varint(block, &mut pos));
                }
                skip_varint(block, &mut pos);
            }
            None
        }
        TAG_PACKED => {
            let gap_width = block[pos];
            let cnt_width = block[pos + 1];
            pos += 2;
            let gap_min = validated_varint(block, &mut pos);
            let cnt_min = validated_varint(block, &mut pos);
            let gap_end = pos + lane_bytes(n, gap_width);
            let gaps = LaneReader::new(&block[pos..gap_end], gap_width);
            let counts = LaneReader::new(
                &block[gap_end..gap_end + lane_bytes(n, cnt_width)],
                cnt_width,
            );
            for i in 0..n {
                prev = prev.wrapping_add(gap_min.wrapping_add(gaps.residual(i)));
                if prev >= index {
                    return (prev == index).then(|| cnt_min.wrapping_add(counts.residual(i)));
                }
            }
            None
        }
        // LINT-ALLOW(panic): `validate_tagged` refuses any other codec
        // tag, and every stream scanned here was encoded by `RunsBuilder`
        // or passed it: catalog files, spill shards and
        // `from_tagged_encoded` all open through it.
        other => unreachable!("validated codec tag, got {other}"),
    }
}

/// Random access to one bit-packed lane: residual `i` occupies bits
/// `[i·width, (i+1)·width)` of the lane's LSB-first little-endian `u64`
/// words. Reads are word-aligned, so none leaves the lane.
struct LaneReader<'a> {
    words: &'a [[u8; 8]],
    width: usize,
    mask: u64,
}

impl<'a> LaneReader<'a> {
    fn new(lane: &'a [u8], width: u8) -> LaneReader<'a> {
        LaneReader {
            words: lane.as_chunks::<8>().0,
            width: width as usize,
            mask: u64::MAX.checked_shr(64 - u32::from(width)).unwrap_or(0),
        }
    }

    /// Residual `i` (0 in a width-0 lane, which holds no bytes).
    #[inline]
    fn residual(&self, i: usize) -> u64 {
        if self.width == 0 {
            return 0;
        }
        let bit = i * self.width;
        let (word, shift) = (bit >> 6, bit & 63);
        let mut value = u64::from_le_bytes(self.words[word]) >> shift;
        if shift + self.width > 64 {
            // The residual straddles into the next word.
            value |= u64::from_le_bytes(self.words[word + 1]) << (64 - shift);
        }
        value & self.mask
    }
}

/// Advances `pos` past one well-formed varint without decoding it.
#[inline]
fn skip_varint(block: &[u8], pos: &mut usize) {
    while block[*pos] & 0x80 != 0 {
        *pos += 1;
    }
    *pos += 1;
}

/// [`decode_varint`] on bytes known to be well formed.
fn validated_varint(block: &[u8], pos: &mut usize) -> u64 {
    // LINT-ALLOW(panic): `validate_tagged` decodes every varint of a
    // block before any decoder reads it, and every stream decoded here
    // was encoded by `RunsBuilder` or passed it: catalog files, spill
    // shards and `from_tagged_encoded` all open through it. So the read
    // cannot truncate.
    decode_varint(block, pos).expect("validated varint")
}

/// Bytes a lane of `n` values at `width` bits occupies: whole `u64`
/// words, LSB-first.
fn lane_bytes(n: usize, width: u8) -> usize {
    (n * width as usize).div_ceil(64) * 8
}

/// Minimal bit width holding `max_residual` (0..=64).
fn width_for(max_residual: u64) -> u8 {
    (64 - max_residual.leading_zeros()) as u8
}

/// LEB128 length of `value` in bytes.
fn varint_len(value: u64) -> usize {
    ((64 - value.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Packs `values - min` at `width` bits each into LSB-first `u64` words
/// (little-endian bytes), padded to a whole word.
fn pack_lane(out: &mut Vec<u8>, values: &[u64], min: u64, width: u8) {
    if width == 0 {
        return;
    }
    let mut acc: u128 = 0;
    let mut acc_bits: u32 = 0;
    for &value in values {
        acc |= ((value - min) as u128) << acc_bits;
        acc_bits += width as u32;
        while acc_bits >= 64 {
            out.extend_from_slice(&(acc as u64).to_le_bytes());
            acc >>= 64;
            acc_bits -= 64;
        }
    }
    if acc_bits > 0 {
        out.extend_from_slice(&(acc as u64).to_le_bytes());
    }
}

/// Unpacks `n` fixed-width residuals from `lane` into `out[..n]`, adding
/// `min` back. Branch-free per entry: each residual straddles at most
/// two `u64` words, read as one `u128` shift/mask.
fn unpack_lane(lane: &[u8], n: usize, min: u64, width: u8, out: &mut [u64; BLOCK_ENTRIES]) {
    if width == 0 {
        out[..n].fill(min);
        return;
    }
    debug_assert_eq!(lane.len(), lane_bytes(n, width));
    let mask = u64::MAX >> (64 - width as u32);
    let width = width as usize;
    if width > 57 {
        // A residual this wide can straddle a byte-aligned 8-byte window;
        // take the two-word u128 path. Rare: counts would need ≥ 2^57
        // spread within one block.
        let mut words = [0u64; BLOCK_ENTRIES + 1];
        for (word, chunk) in words.iter_mut().zip(lane.as_chunks::<8>().0) {
            *word = u64::from_le_bytes(*chunk);
        }
        for (i, slot) in out[..n].iter_mut().enumerate() {
            let bit = i * width;
            let word = bit >> 6;
            let lo = words[word] as u128 | ((words[word + 1] as u128) << 64);
            *slot = min.wrapping_add(((lo >> (bit & 63)) as u64) & mask);
        }
        return;
    }
    // Fast path (width ≤ 57): every residual fits the 57+ bits an
    // unaligned 8-byte load reaches past its bit offset, so each entry
    // is one load + shift + mask straight off the lane — no staging
    // copy. Only entries whose window would read past the lane's end
    // (the last handful) are served from a small zero-padded copy of
    // the final bytes.
    let direct = (((lane.len() - 8) * 8 + 7) / width + 1).min(n);
    let mut start = 0;
    #[cfg(target_arch = "x86_64")]
    if width <= 14 && simd::avx2_available() {
        // Four residuals at width ≤ 14 span ≤ 56 bits plus a ≤ 7-bit
        // start shift, so each group of four decodes from one 8-byte
        // window with per-lane variable shifts.
        let groups = direct & !3;
        // SAFETY: AVX2 was detected; every entry `i < groups ≤ direct`
        // keeps its window inside the lane by `direct`'s construction.
        unsafe { simd::unpack_lane_x4(lane, groups, min, width, out) };
        start = groups;
    }
    let ptr = lane.as_ptr();
    for (i, slot) in out[start..direct].iter_mut().enumerate() {
        let bit = (start + i) * width;
        // SAFETY: the entry is below `direct`, which guarantees
        // `(bit >> 3) + 8 ≤ lane.len()` by construction, so the 8-byte
        // window is in bounds.
        let window = u64::from_le(unsafe { ptr.add(bit >> 3).cast::<u64>().read_unaligned() });
        *slot = min.wrapping_add((window >> (bit & 7)) & mask);
    }
    if direct < n {
        let copy = lane.len().min(16);
        let mut tail = [0u8; 24];
        tail[..copy].copy_from_slice(&lane[lane.len() - copy..]);
        let base_bit = (lane.len() - copy) * 8;
        for (i, slot) in out[direct..n].iter_mut().enumerate() {
            let bit = (direct + i) * width - base_bit;
            let byte = bit >> 3;
            let window = u64::from_le_bytes(
                // LINT-ALLOW(panic): the range is exactly 8 bytes long, so
                // it always converts to `[u8; 8]`.
                tail[byte..byte + 8].try_into().expect("8-byte window"),
            );
            *slot = min.wrapping_add((window >> (bit & 7)) & mask);
        }
    }
}

/// AVX2 specialization of the hot unpack loop — used when the CPU has
/// it, with [`unpack_lane`]'s scalar windows as the universal fallback.
#[cfg(target_arch = "x86_64")]
mod simd {
    use super::BLOCK_ENTRIES;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_set1_epi64x, _mm256_set_epi64x,
        _mm256_srlv_epi64, _mm256_storeu_si256,
    };
    use std::sync::OnceLock;

    /// Whether the running CPU has AVX2 (detected once, cached).
    pub(super) fn avx2_available() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }

    /// Unpacks the first `groups` entries (a multiple of 4) of `width`
    /// ≤ 14 bits from `lane` into `out`, adding `min` — four residuals
    /// per iteration: one 8-byte window broadcast to four lanes, shifted
    /// by `base + {0, w, 2w, 3w}`, masked, and rebased in one store.
    ///
    /// # Safety
    /// Caller guarantees AVX2 is available, `1 ≤ width ≤ 14`,
    /// `groups % 4 == 0`, `groups ≤ BLOCK_ENTRIES`, and that every entry
    /// `i < groups` keeps `((i * width) >> 3) + 8 ≤ lane.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn unpack_lane_x4(
        lane: &[u8],
        groups: usize,
        min: u64,
        width: usize,
        out: &mut [u64; BLOCK_ENTRIES],
    ) {
        let mask = _mm256_set1_epi64x((u64::MAX >> (64 - width as u32)) as i64);
        let rebase = _mm256_set1_epi64x(min as i64);
        let offsets = _mm256_set_epi64x(3 * width as i64, 2 * width as i64, width as i64, 0);
        let ptr = lane.as_ptr();
        let mut i = 0;
        while i < groups {
            let bit = i * width;
            // SAFETY: the caller's bound keeps the window inside `lane`.
            let window = unsafe { ptr.add(bit >> 3).cast::<i64>().read_unaligned() };
            let lanes = _mm256_set1_epi64x(i64::from_le(window));
            let shifts = _mm256_add_epi64(_mm256_set1_epi64x((bit & 7) as i64), offsets);
            let values = _mm256_add_epi64(
                _mm256_and_si256(_mm256_srlv_epi64(lanes, shifts), mask),
                rebase,
            );
            // SAFETY: `i + 4 ≤ groups ≤ BLOCK_ENTRIES`, so the 4-wide
            // store stays inside `out`.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().add(i).cast::<__m256i>(), values) };
            i += 4;
        }
    }
}

/// Validates a tagged byte stream against its declared per-block entry
/// counts and derives the skip index — shared by
/// [`CompressedRuns::from_tagged_encoded`] and the catalog file reader
/// (which borrows the bytes from a mapped region instead of owning
/// them). Returns `(skip, len, total_mass)`.
pub(crate) fn validate_tagged(
    bytes: &[u8],
    block_lens: &[u32],
) -> Result<(Vec<BlockMeta>, usize, u64), RunsCorrupt> {
    let mut skip = Vec::with_capacity(block_lens.len());
    let mut pos = 0usize;
    let mut len = 0usize;
    let mut total_mass = 0u64;
    let mut prev: Option<u64> = None;
    for (block_id, &block_len) in block_lens.iter().enumerate() {
        let n = block_len as usize;
        if n == 0 || n > BLOCK_ENTRIES {
            return Err(RunsCorrupt(format!(
                "block {block_id} declares {block_len} entries (1..={BLOCK_ENTRIES})"
            )));
        }
        let err = |what: &str| RunsCorrupt(format!("block {block_id}: {what}"));
        let byte_offset = pos;
        let tag = *bytes.get(pos).ok_or_else(|| err("missing codec tag"))?;
        pos += 1;
        let first_index =
            decode_varint(bytes, &mut pos).ok_or_else(|| err("truncated head index"))?;
        let first_count =
            decode_varint(bytes, &mut pos).ok_or_else(|| err("truncated head count"))?;
        if first_count == 0 {
            return Err(err("explicit zero count"));
        }
        if prev.is_some_and(|p| first_index <= p) {
            return Err(err("index does not increase strictly"));
        }
        let mut last_index = first_index;
        let mut mass = first_count;
        match tag {
            TAG_VARINT => {
                for _ in 1..n {
                    let gap = decode_varint(bytes, &mut pos).ok_or_else(|| err("truncated gap"))?;
                    if gap == 0 {
                        return Err(err("zero index delta"));
                    }
                    last_index = last_index
                        .checked_add(gap)
                        .ok_or_else(|| err("index overflows u64"))?;
                    let count =
                        decode_varint(bytes, &mut pos).ok_or_else(|| err("truncated count"))?;
                    if count == 0 {
                        return Err(err("explicit zero count"));
                    }
                    mass = mass.wrapping_add(count);
                }
            }
            TAG_PACKED => {
                if n == 1 {
                    return Err(err("packed codec on a single-entry block"));
                }
                let widths = bytes
                    .get(pos..pos + 2)
                    .ok_or_else(|| err("truncated lane widths"))?;
                let (gap_width, cnt_width) = (widths[0], widths[1]);
                pos += 2;
                if gap_width > 64 || cnt_width > 64 {
                    return Err(err("lane width exceeds 64 bits"));
                }
                let gap_min =
                    decode_varint(bytes, &mut pos).ok_or_else(|| err("truncated gap min"))?;
                let cnt_min =
                    decode_varint(bytes, &mut pos).ok_or_else(|| err("truncated count min"))?;
                let tail = n - 1;
                let gap_lane = lane_bytes(tail, gap_width);
                let gap_bytes = bytes
                    .get(pos..pos + gap_lane)
                    .ok_or_else(|| err("truncated gap lane"))?;
                pos += gap_lane;
                let cnt_lane = lane_bytes(tail, cnt_width);
                let cnt_bytes = bytes
                    .get(pos..pos + cnt_lane)
                    .ok_or_else(|| err("truncated count lane"))?;
                pos += cnt_lane;
                // Unpack raw residuals (min = 0) so the min-add can be
                // overflow-checked against adversarial streams.
                let mut gaps = [0u64; BLOCK_ENTRIES];
                let mut counts = [0u64; BLOCK_ENTRIES];
                unpack_lane(gap_bytes, tail, 0, gap_width, &mut gaps);
                unpack_lane(cnt_bytes, tail, 0, cnt_width, &mut counts);
                for (&gap_resid, &cnt_resid) in gaps[..tail].iter().zip(&counts[..tail]) {
                    let gap = gap_min
                        .checked_add(gap_resid)
                        .ok_or_else(|| err("gap overflows u64"))?;
                    if gap == 0 {
                        return Err(err("zero index delta"));
                    }
                    last_index = last_index
                        .checked_add(gap)
                        .ok_or_else(|| err("index overflows u64"))?;
                    let count = cnt_min
                        .checked_add(cnt_resid)
                        .ok_or_else(|| err("count overflows u64"))?;
                    if count == 0 {
                        return Err(err("explicit zero count"));
                    }
                    mass = mass.wrapping_add(count);
                }
            }
            _ => return Err(err("unknown codec tag")),
        }
        prev = Some(last_index);
        total_mass = total_mass.wrapping_add(mass);
        len += n;
        skip.push(BlockMeta {
            first_index,
            last_index,
            byte_offset,
            len: block_len,
            mass,
        });
    }
    if pos != bytes.len() {
        return Err(RunsCorrupt(format!(
            "{} trailing bytes after the declared blocks",
            bytes.len() - pos
        )));
    }
    Ok((skip, len, total_mass))
}

/// LEB128 append.
fn encode_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// LEB128 read at `*pos`, advancing it. `None` on truncation or a varint
/// longer than [`MAX_VARINT`] bytes.
fn decode_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    for i in 0..MAX_VARINT {
        let byte = *bytes.get(*pos + i)?;
        value |= ((byte & 0x7f) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            *pos += i + 1;
            return Some(value);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of(entries: &[(u64, u64)]) -> CompressedRuns {
        CompressedRuns::from_entries(entries)
    }

    #[test]
    fn round_trips_and_looks_up() {
        let entries: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * i + 7, i + 1)).collect();
        let runs = runs_of(&entries);
        assert_eq!(runs.to_vec(), entries);
        assert_eq!(runs.len(), entries.len());
        assert_eq!(
            runs.total_mass(),
            entries.iter().map(|&(_, c)| c).sum::<u64>()
        );
        for &(index, count) in &entries {
            assert_eq!(runs.get(index), Some(count), "index {index}");
        }
        assert_eq!(runs.get(0), None);
        assert_eq!(runs.get(8), Some(2));
        assert_eq!(runs.get(9), None);
        assert_eq!(runs.get(u64::MAX), None);
        // Blocks hold at most BLOCK_ENTRIES entries each.
        assert!(runs
            .skip_index()
            .iter()
            .all(|m| m.len as usize <= BLOCK_ENTRIES));
        assert_eq!(
            runs.skip_index()
                .iter()
                .map(|m| m.len as usize)
                .sum::<usize>(),
            entries.len()
        );
    }

    #[test]
    fn extreme_indexes_and_counts_round_trip() {
        let entries = vec![
            (0u64, 1u64),
            (1, u64::MAX),
            (1 << 35, 1 << 50),
            (u64::MAX - 1, 3),
            (u64::MAX, 9),
        ];
        let runs = runs_of(&entries);
        assert_eq!(runs.to_vec(), entries);
        assert_eq!(runs.get(u64::MAX), Some(9));
        assert_eq!(runs.get(u64::MAX - 1), Some(3));
        assert_eq!(runs.get(1), Some(u64::MAX));
    }

    #[test]
    fn boundary_lane_widths_round_trip() {
        // Width 0: constant gap, constant count — the whole tail packs
        // into zero lane bytes.
        let constant: Vec<(u64, u64)> = (0..300u64).map(|i| (i * 4, 7)).collect();
        let runs = runs_of(&constant);
        assert_eq!(runs.to_vec(), constant);
        let (_, packed) = runs.block_codec_counts();
        assert!(packed > 0, "constant blocks should pack");

        // Width 1: gaps alternate between two adjacent values.
        let mut index = 0u64;
        let skewed: Vec<(u64, u64)> = (0..300u64)
            .map(|i| {
                index += 3 + (i & 1);
                (index, 10 + (i & 1))
            })
            .collect();
        let runs = runs_of(&skewed);
        assert_eq!(runs.to_vec(), skewed);

        // Width 64 in both lanes: residuals spanning the full u64 range.
        let extremes = vec![(0u64, 1u64), (1, u64::MAX), (u64::MAX, 2)];
        let runs = runs_of(&extremes);
        assert_eq!(runs.to_vec(), extremes);
        assert_eq!(runs.get(u64::MAX), Some(2));
    }

    #[test]
    fn packed_matches_varint_baseline() {
        // Representative catalog shape: mixed small gaps and counts.
        let entries: Vec<(u64, u64)> = (0..5000u64)
            .map(|i| (i * 13 + (i % 11), 1 + (i * i) % 900))
            .collect();
        let chosen = runs_of(&entries);
        let mut baseline = RunsBuilder::new().varint_only();
        for &(index, count) in &entries {
            baseline.push(index, count);
        }
        let baseline = baseline.finish();
        // Identical decoded content, identical lookups.
        assert_eq!(chosen, baseline);
        assert_eq!(chosen.to_vec(), baseline.to_vec());
        // The chooser never exceeds the varint encoding.
        assert!(
            chosen.payload_bytes() <= baseline.payload_bytes(),
            "{} packed vs {} varint",
            chosen.payload_bytes(),
            baseline.payload_bytes()
        );
        let (varint_blocks, packed_blocks) = chosen.block_codec_counts();
        assert!(
            packed_blocks > 0,
            "clustered data should pick the packed codec"
        );
        let (baseline_varint, baseline_packed) = baseline.block_codec_counts();
        assert_eq!(baseline_packed, 0, "baseline must stay varint");
        assert_eq!(baseline_varint, varint_blocks + packed_blocks);
    }

    #[test]
    fn compresses_clustered_indexes() {
        // Small gaps, small counts: the representative catalog shape.
        let entries: Vec<(u64, u64)> = (0..100_000u64).map(|i| (i * 3, 1 + i % 7)).collect();
        let runs = runs_of(&entries);
        assert!(
            runs.size_bytes() * 3 < runs.plain_bytes(),
            "{} vs {} plain",
            runs.size_bytes(),
            runs.plain_bytes()
        );
    }

    #[test]
    fn content_equality_ignores_block_boundaries() {
        let entries: Vec<(u64, u64)> = (0..500u64).map(|i| (i * 5 + 1, i + 1)).collect();
        let uniform = runs_of(&entries);
        // Same content, different boundaries: build in two raw chunks.
        let a = runs_of(&entries[..100]);
        let b = runs_of(&entries[100..]);
        let mut builder = RunsBuilder::new();
        for meta in a.skip_index() {
            builder.push_block_raw(meta, a.block_bytes(meta));
        }
        for meta in b.skip_index() {
            builder.push_block_raw(meta, b.block_bytes(meta));
        }
        let stitched = builder.finish();
        assert_ne!(stitched.skip_index().len(), uniform.skip_index().len());
        assert_eq!(stitched, uniform);
    }

    #[test]
    fn merge_signed_sums_admits_cancels_and_copies() {
        let entries: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 2, 10)).collect();
        let runs = runs_of(&entries);
        // One change in the middle block; everything else raw-copies.
        let merged = runs.merge_signed(&[(500 * 2, 5)]).unwrap();
        let mut expected = entries.clone();
        expected[500].1 = 15;
        assert_eq!(merged.to_vec(), expected);

        // Admission (gap + trailing), cancellation, and summation at once.
        let merged = runs
            .merge_signed(&[(0, -10), (1, 4), (998 * 2, 1), (5000, 7)])
            .unwrap();
        let mut expected: Vec<(u64, u64)> = entries.clone();
        expected[998].1 = 11;
        expected.remove(0);
        expected.insert(0, (1, 4));
        expected.push((5000, 7));
        assert_eq!(merged.to_vec(), expected);

        // Underflow refused with the offending coordinates.
        let err = runs.merge_signed(&[(4, -11)]).unwrap_err();
        assert_eq!(
            err,
            SignedMergeUnderflow {
                index: 4,
                count: 10,
                delta: -11
            }
        );
        // A negative diff on an absent index underflows from 0.
        assert!(runs.merge_signed(&[(3, -1)]).is_err());
    }

    #[test]
    fn merge_signed_on_empty_base() {
        let empty = CompressedRuns::new();
        let merged = empty.merge_signed(&[(3, 5), (9, 2)]).unwrap();
        assert_eq!(merged.to_vec(), vec![(3, 5), (9, 2)]);
        assert!(empty.merge_signed(&[]).unwrap().is_empty());
    }

    #[test]
    fn merge_many_sums_duplicates() {
        let merged = CompressedRuns::merge_many(&[
            runs_of(&[(0, 1), (5, 2), (9, 1)]),
            runs_of(&[(5, 3), (7, 1)]),
            runs_of(&[]),
            runs_of(&[(0, 4)]),
        ]);
        assert_eq!(merged.to_vec(), vec![(0, 5), (5, 5), (7, 1), (9, 1)]);
    }

    #[test]
    fn merge_many_wholesale_path_matches_interleaved() {
        // Disjoint index ranges: every block takes the raw-copy path.
        let a: Vec<(u64, u64)> = (0..400u64).map(|i| (i, i + 1)).collect();
        let b: Vec<(u64, u64)> = (0..400u64).map(|i| (1000 + i, i + 1)).collect();
        let merged = CompressedRuns::merge_many(&[runs_of(&a), runs_of(&b)]);
        let expected: Vec<(u64, u64)> = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged.to_vec(), expected);

        // Heavily interleaved ranges: the per-entry path, same contract.
        let a: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 2, 1)).collect();
        let b: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 2 + 1, 2)).collect();
        let c: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 2, 3)).collect();
        let merged = CompressedRuns::merge_many(&[runs_of(&a), runs_of(&b), runs_of(&c)]);
        let mut expected: Vec<(u64, u64)> = (0..400u64).map(|i| (i * 2, 4)).collect();
        expected.extend((0..400u64).map(|i| (i * 2 + 1, 2)));
        expected.sort_unstable_by_key(|&(i, _)| i);
        assert_eq!(merged.to_vec(), expected);
    }

    #[test]
    fn from_tagged_encoded_round_trips_exactly() {
        let entries: Vec<(u64, u64)> = (0..700u64).map(|i| (i * 7 + (i % 5), 1 + i % 97)).collect();
        let runs = runs_of(&entries);
        let lens: Vec<u32> = runs.skip_index().iter().map(|m| m.len).collect();
        let restored = CompressedRuns::from_tagged_encoded(runs.bytes().to_vec(), &lens).unwrap();
        assert_eq!(restored, runs);
        // The tagged restore keeps the bytes verbatim: the skip index
        // (and therefore every block boundary and codec choice) matches.
        assert_eq!(restored.skip_index(), runs.skip_index());
        assert_eq!(restored.bytes(), runs.bytes());
        assert_eq!(restored.total_mass(), runs.total_mass());
    }

    #[test]
    fn from_tagged_encoded_rejects_corruption() {
        let entries: Vec<(u64, u64)> = (0..300u64).map(|i| (i * 3, 1 + i % 9)).collect();
        let runs = runs_of(&entries);
        let lens: Vec<u32> = runs.skip_index().iter().map(|m| m.len).collect();
        let bytes = runs.bytes().to_vec();

        // Truncation and trailing garbage.
        let mut short = bytes.clone();
        short.pop();
        assert!(CompressedRuns::from_tagged_encoded(short, &lens).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(CompressedRuns::from_tagged_encoded(long, &lens).is_err());
        // Wrong block lens.
        assert!(CompressedRuns::from_tagged_encoded(bytes.clone(), &lens[1..]).is_err());
        // Unknown codec tag on the first block.
        let mut bad_tag = bytes.clone();
        bad_tag[0] = 9;
        assert!(CompressedRuns::from_tagged_encoded(bad_tag, &lens).is_err());

        // Hand-built packed block with an oversized lane width.
        let mut raw = vec![TAG_PACKED];
        encode_varint(&mut raw, 5); // first index
        encode_varint(&mut raw, 1); // first count
        raw.push(65); // gap width > 64
        raw.push(0);
        encode_varint(&mut raw, 1); // gap min
        encode_varint(&mut raw, 1); // count min
        assert!(CompressedRuns::from_tagged_encoded(raw, &[2]).is_err());

        // Packed tag on a single-entry block.
        let mut raw = vec![TAG_PACKED];
        encode_varint(&mut raw, 5);
        encode_varint(&mut raw, 1);
        assert!(CompressedRuns::from_tagged_encoded(raw, &[1]).is_err());

        // Zero gap smuggled through a packed lane (gap_min = 0, width 0).
        let mut raw = vec![TAG_PACKED];
        encode_varint(&mut raw, 5);
        encode_varint(&mut raw, 1);
        raw.push(0); // gap width
        raw.push(0); // count width
        encode_varint(&mut raw, 0); // gap min = 0 → zero delta
        encode_varint(&mut raw, 1); // count min
        assert!(CompressedRuns::from_tagged_encoded(raw, &[2]).is_err());
    }

    #[test]
    fn cursor_fold_matches_streaming_next() {
        let entries: Vec<(u64, u64)> = (0..1000u64).map(|i| (i * 3 + 1, 1 + i % 13)).collect();
        let runs = runs_of(&entries);
        // Whole-run fold (the block-wise override).
        let folded = runs.iter().fold(Vec::new(), |mut acc, entry| {
            acc.push(entry);
            acc
        });
        assert_eq!(folded, entries);
        // Fold from a partially consumed cursor mid-block.
        let mut cursor = runs.iter();
        for _ in 0..5 {
            cursor.next();
        }
        let rest = cursor.fold(Vec::new(), |mut acc, entry| {
            acc.push(entry);
            acc
        });
        assert_eq!(rest, entries[5..]);
        // `count` routes through fold.
        assert_eq!(runs.iter().count(), entries.len());
    }

    #[test]
    fn varints_cover_all_widths() {
        // 1-byte through 10-byte varints round-trip through the stream.
        let mut out = Vec::new();
        let values: Vec<u64> = (0..10)
            .map(|i| 1u64.checked_shl(7 * i).unwrap_or(u64::MAX))
            .collect();
        for &v in &values {
            encode_varint(&mut out, v);
        }
        let mut pos = 0;
        for &v in &values {
            let before = pos;
            assert_eq!(decode_varint(&out, &mut pos), Some(v));
            assert_eq!(varint_len(v), pos - before, "value {v}");
        }
        assert_eq!(pos, out.len());
        assert_eq!(decode_varint(&out, &mut pos), None, "exhausted");
    }

    #[test]
    fn varint_len_matches_encoding() {
        for &v in &[0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut out = Vec::new();
            encode_varint(&mut out, v);
            assert_eq!(varint_len(v), out.len(), "value {v}");
        }
    }

    #[test]
    fn empty_run() {
        let runs = CompressedRuns::new();
        assert!(runs.is_empty());
        assert_eq!(runs.iter().count(), 0);
        assert_eq!(runs.get(0), None);
        assert_eq!(runs.to_vec(), vec![]);
        assert_eq!(runs, CompressedRuns::from_entries(&[]));
        assert!(!runs.is_mapped());
    }

    #[test]
    fn cursor_is_exact_size() {
        let entries: Vec<(u64, u64)> = (0..333u64).map(|i| (i, 1)).collect();
        let runs = runs_of(&entries);
        let mut cursor = runs.iter();
        assert_eq!(cursor.len(), 333);
        cursor.next();
        assert_eq!(cursor.len(), 332);
        assert_eq!(cursor.count(), 332);
    }
}
