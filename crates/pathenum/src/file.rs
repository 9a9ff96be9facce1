//! The on-disk catalog file format (`.phc`) and its readers.
//!
//! One flat, checksummed file holds everything needed to serve a
//! [`SparseCatalog`] without re-deriving state:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "PHECAT1\0"
//! 8       8     label_count (u64 LE)
//! 16      8     max_len
//! 24      8     entry count (nnz)
//! 32      8     total mass
//! 40      8     block count B
//! 48      8     payload length in bytes
//! 56      40·B  skip rows: (first_index, last_index, byte_offset,
//!               len, mass) per block, all u64 LE
//! …       …     payload: the tagged block stream (see [`crate::runs`])
//! end−8   8     FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! Two readers share the format:
//!
//! * [`open_catalog_file`] — the **serving** path: maps the file
//!   ([`crate::mmap`]), verifies the checksum, validates the tagged
//!   payload, and hands back a catalog whose byte stream *borrows the
//!   mapping* — the skip index (~0.3 B/entry) is the only per-entry heap
//!   cost, so a serving node's catalog capacity is bounded by disk;
//! * `ShardReader` (crate-private) — the **spill-to-disk build** path:
//!   streams blocks sequentially through a small buffer, one block
//!   resident at a time, so the k-way merge of spilled shards runs in
//!   bounded memory.
//!
//! Files are written by [`replace_file`] — to a temporary sibling, then
//! renamed into place — and never modified afterwards: the immutability
//! the mmap safety rules ([`crate::mmap`]) require. The CLI's snapshot
//! JSON goes through the same writer. A catalog file is
//! [`Durability::Synced`]:
//! the temp file is fsynced before the rename and the parent directory
//! after it, so a crash leaves the old file or the new one, never a torn
//! one. Spill shards reuse the same writer as [`Durability::Scratch`];
//! being process-private temp files deleted after the build, they skip
//! the fsyncs. The shard reader trusts their format (a malformed shard is
//! a bug, not an input), but a failing read ends its stream with an error
//! the build returns as [`crate::catalog::CatalogError::SpillIo`].

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use phe_encoding::{fnv1a64, read_u64_le, write_u64_le, Fnv64};

use crate::encoding::PathEncoding;
use crate::mmap::MappedRegion;
use crate::runs::{
    decode_block_head, decode_block_tail, validate_tagged, BlockMeta, CompressedRuns, RunStream,
    BLOCK_ENTRIES,
};
use crate::sparse::SparseCatalog;

/// File magic: format name + version. Bumping the layout bumps the
/// trailing digit.
const MAGIC: &[u8; 8] = b"PHECAT1\0";
/// Fixed-width header length (through the payload-length field).
const HEADER_LEN: usize = 56;
/// Bytes per serialized skip row.
const ROW_LEN: usize = 40;

/// Why a catalog file could not be opened.
#[derive(Debug)]
pub enum CatalogFileError {
    /// Filesystem-level failure (open, map, read).
    Io(io::Error),
    /// The file failed structural validation or its checksum.
    Corrupt(String),
}

impl std::fmt::Display for CatalogFileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogFileError::Io(e) => write!(f, "catalog file io error: {e}"),
            CatalogFileError::Corrupt(what) => write!(f, "corrupt catalog file: {what}"),
        }
    }
}

impl std::error::Error for CatalogFileError {}

impl From<io::Error> for CatalogFileError {
    fn from(e: io::Error) -> CatalogFileError {
        CatalogFileError::Io(e)
    }
}

fn corrupt(what: impl Into<String>) -> CatalogFileError {
    CatalogFileError::Corrupt(what.into())
}

/// Whether [`replace_file`] makes its file crash-durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// fsync the temp file before the rename and the parent directory
    /// after it: once the write returns, the file survives a crash.
    Synced,
    /// No fsync: for process-private files deleted after use.
    Scratch,
}

/// Writes `catalog` to `path` in the `.phc` format (temp file + rename,
/// so a reader never sees a torn file), durably. Returns the file size in
/// bytes.
pub fn write_catalog_file(path: &Path, catalog: &SparseCatalog) -> io::Result<u64> {
    write_runs_file(path, catalog.encoding(), catalog.runs(), Durability::Synced)
}

/// Writes an encoding-tagged compressed run to `path` — the shared
/// writer behind [`write_catalog_file`] and the build's spill shards.
pub fn write_runs_file(
    path: &Path,
    encoding: &PathEncoding,
    runs: &CompressedRuns,
    durability: Durability,
) -> io::Result<u64> {
    let mut head = Vec::with_capacity(HEADER_LEN + runs.skip_index().len() * ROW_LEN);
    head.extend_from_slice(MAGIC);
    write_u64_le(&mut head, encoding.label_count() as u64);
    write_u64_le(&mut head, encoding.max_len() as u64);
    write_u64_le(&mut head, runs.len() as u64);
    write_u64_le(&mut head, runs.total_mass());
    write_u64_le(&mut head, runs.skip_index().len() as u64);
    write_u64_le(&mut head, runs.payload_bytes() as u64);
    for meta in runs.skip_index() {
        write_u64_le(&mut head, meta.first_index);
        write_u64_le(&mut head, meta.last_index);
        write_u64_le(&mut head, meta.byte_offset as u64);
        write_u64_le(&mut head, meta.len as u64);
        write_u64_le(&mut head, meta.mass);
    }
    let mut hasher = Fnv64::new();
    hasher.update(&head);
    hasher.update(runs.bytes());
    let checksum = hasher.finish().to_le_bytes();
    replace_file(path, &[&head, runs.bytes(), &checksum], durability)?;
    Ok((head.len() + runs.payload_bytes() + checksum.len()) as u64)
}

/// Replaces `path` with the concatenation of `parts`: written to the
/// sibling `<path>.tmp`, then renamed into place, so a reader sees the old
/// file or the new one, never a torn one. [`Durability::Synced`] fsyncs
/// the temp file before the rename and the parent directory after it.
/// The one writer behind `.phc` catalogs, spill shards and the CLI's
/// snapshot files. On failure the temp file is removed.
pub fn replace_file(path: &Path, parts: &[&[u8]], durability: Durability) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = (|| {
        let mut file = BufWriter::new(File::create(&tmp)?);
        for part in parts {
            file.write_all(part)?;
        }
        let file = file.into_inner().map_err(io::Error::from)?;
        if durability == Durability::Synced {
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    if durability == Durability::Synced {
        sync_parent_dir(path)?;
    }
    Ok(())
}

/// Makes a rename into `path`'s directory durable by fsyncing the
/// directory itself.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Directory handles cannot be fsynced portably off unix; the rename is
/// left to the filesystem's own ordering there.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// Opens a `.phc` catalog file for serving: maps it (read-to-heap
/// fallback on platforms without mmap), verifies the checksum, validates
/// the tagged payload, and returns a catalog whose byte stream borrows
/// the mapping — check [`CompressedRuns::is_mapped`] on
/// [`SparseCatalog::runs`] for the residency that was achieved.
///
/// # Errors
/// [`CatalogFileError::Io`] on filesystem failures;
/// [`CatalogFileError::Corrupt`] on a bad magic, checksum mismatch,
/// inconsistent header fields, or an invalid payload stream.
pub fn open_catalog_file(path: &Path) -> Result<SparseCatalog, CatalogFileError> {
    let mut file = File::open(path)?;
    let region = Arc::new(MappedRegion::map_file(&mut file)?);
    let bytes = region.as_slice();
    if bytes.len() < HEADER_LEN + 8 {
        return Err(corrupt(format!("{} bytes is too short", bytes.len())));
    }
    if &bytes[..8] != MAGIC {
        return Err(corrupt("bad magic (not a PHECAT1 file)"));
    }
    let field = |offset: usize| {
        read_u64_le(bytes, offset).ok_or_else(|| corrupt(format!("no u64 at offset {offset}")))
    };
    let stored_sum = field(bytes.len() - 8)?;
    let actual_sum = fnv1a64(&bytes[..bytes.len() - 8]);
    if stored_sum != actual_sum {
        return Err(corrupt(format!(
            "checksum mismatch: stored {stored_sum:#018x}, computed {actual_sum:#018x}"
        )));
    }
    let label_count = field(8)?;
    let max_len = field(16)?;
    let nnz = field(24)?;
    let total_mass = field(32)?;
    let block_count = field(40)? as usize;
    let payload_len = field(48)? as usize;
    let encoding = PathEncoding::try_new(label_count as usize, max_len as usize)
        .map_err(|e| corrupt(e.to_string()))?;
    let rows_len = block_count
        .checked_mul(ROW_LEN)
        .ok_or_else(|| corrupt("block count overflows"))?;
    let payload_off = HEADER_LEN + rows_len;
    let expected_len = payload_off
        .checked_add(payload_len)
        .and_then(|n| n.checked_add(8))
        .ok_or_else(|| corrupt("payload length overflows"))?;
    if bytes.len() != expected_len {
        return Err(corrupt(format!(
            "file is {} bytes, header declares {expected_len}",
            bytes.len()
        )));
    }
    let mut stored_rows = Vec::with_capacity(block_count);
    let mut lens = Vec::with_capacity(block_count);
    for block in 0..block_count {
        let off = HEADER_LEN + block * ROW_LEN;
        let len = field(off + 24)?;
        if len == 0 || len > BLOCK_ENTRIES as u64 {
            return Err(corrupt(format!("block {block} declares {len} entries")));
        }
        lens.push(len as u32);
        stored_rows.push(BlockMeta {
            first_index: field(off)?,
            last_index: field(off + 8)?,
            byte_offset: field(off + 16)? as usize,
            len: len as u32,
            mass: field(off + 32)?,
        });
    }
    let payload = &bytes[payload_off..payload_off + payload_len];
    let (skip, derived_nnz, derived_mass) =
        validate_tagged(payload, &lens).map_err(|e| corrupt(e.to_string()))?;
    if skip != stored_rows {
        return Err(corrupt("skip rows disagree with the decoded payload"));
    }
    if derived_nnz as u64 != nnz || derived_mass != total_mass {
        return Err(corrupt(format!(
            "header declares {nnz} entries / mass {total_mass}, payload decodes to {derived_nnz} / {derived_mass}"
        )));
    }
    let runs = CompressedRuns::from_mapped_parts(
        region,
        payload_off,
        payload_len,
        skip,
        derived_nnz,
        derived_mass,
    );
    SparseCatalog::from_runs(encoding, runs).map_err(|e| corrupt(e.to_string()))
}

/// Sequentially streams a spill shard written by [`write_runs_file`]:
/// the skip index is loaded to the heap at open (~0.3 B/entry) and block
/// bytes are read one block at a time through a buffered reader — peak
/// memory per shard is one block, regardless of shard size.
///
/// Shards are process-private temp files written moments earlier, so a
/// format failure mid-stream is a bug, not an input. They live in the
/// shared temp dir, though, so a failing read is an environment fault:
/// the reader records the first IO error, ends its stream there, and
/// hands the error over through [`ShardReader::take_error`].
pub(crate) struct ShardReader {
    reader: BufReader<File>,
    skip: Vec<BlockMeta>,
    payload_len: usize,
    /// Current block id.
    block: usize,
    /// Entries already yielded from the current block.
    in_block: u32,
    /// The current block's raw bytes (read on block entry).
    buf: Vec<u8>,
    tail_idx: [u64; BLOCK_ENTRIES],
    tail_cnt: [u64; BLOCK_ENTRIES],
    /// The read failure that ended the stream early, if any.
    error: Option<io::Error>,
}

/// Opens a spill shard for streaming. Header and skip rows land on the
/// heap; the payload stays on disk until blocks are pulled.
pub(crate) fn open_shard(path: &Path) -> io::Result<ShardReader> {
    let mut reader = BufReader::new(File::open(path)?);
    let mut head = [0u8; HEADER_LEN];
    reader.read_exact(&mut head)?;
    if &head[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad spill shard magic",
        ));
    }
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let field = |bytes: &[u8], at: usize| {
        read_u64_le(bytes, at).ok_or_else(|| invalid("spill shard field out of bounds"))
    };
    let block_count = field(&head, 40)? as usize;
    let payload_len = field(&head, 48)? as usize;
    let rows_len = block_count
        .checked_mul(ROW_LEN)
        .ok_or_else(|| invalid("spill shard block count overflows"))?;
    let mut rows = Vec::new();
    (&mut reader).take(rows_len as u64).read_to_end(&mut rows)?;
    if rows.len() != rows_len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "spill shard skip rows are truncated",
        ));
    }
    let mut skip = Vec::with_capacity(block_count);
    for off in (0..rows_len).step_by(ROW_LEN) {
        skip.push(BlockMeta {
            first_index: field(&rows, off)?,
            last_index: field(&rows, off + 8)?,
            byte_offset: field(&rows, off + 16)? as usize,
            len: field(&rows, off + 24)? as u32,
            mass: field(&rows, off + 32)?,
        });
    }
    Ok(ShardReader {
        reader,
        skip,
        payload_len,
        block: 0,
        in_block: 0,
        buf: Vec::new(),
        tail_idx: [0; BLOCK_ENTRIES],
        tail_cnt: [0; BLOCK_ENTRIES],
        error: None,
    })
}

impl ShardReader {
    /// Reads the bytes of block `block` (the one `meta` describes) into
    /// `buf`. Blocks are consumed strictly in order, so this is a pure
    /// sequential read.
    fn load_block(&mut self, meta: &BlockMeta) -> io::Result<()> {
        let end = self
            .skip
            .get(self.block + 1)
            .map_or(self.payload_len, |m| m.byte_offset);
        let len = end - meta.byte_offset;
        self.buf.resize(len, 0);
        self.reader.read_exact(&mut self.buf)
    }

    /// The IO error that ended this stream early, if any. A merge that
    /// drained a failed shard is short and must be discarded.
    pub(crate) fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }
}

impl RunStream for ShardReader {
    fn head_block(&self) -> Option<BlockMeta> {
        (self.in_block == 0).then(|| self.skip.get(self.block).copied())?
    }

    fn next_entry(&mut self) -> Option<(u64, u64)> {
        let meta = *self.skip.get(self.block)?;
        if self.in_block == 0 {
            if let Err(e) = self.load_block(&meta) {
                // End the stream: no later block is read either.
                self.error = Some(e);
                self.block = self.skip.len();
                return None;
            }
            let head = decode_block_head(&self.buf);
            if meta.len == 1 {
                self.block += 1;
            } else {
                self.in_block = 1;
            }
            return Some(head);
        }
        if self.in_block == 1 {
            decode_block_tail(
                &self.buf,
                meta.len as usize,
                meta.first_index,
                &mut self.tail_idx,
                &mut self.tail_cnt,
            );
        }
        let at = (self.in_block - 1) as usize;
        let entry = (self.tail_idx[at], self.tail_cnt[at]);
        self.in_block += 1;
        if self.in_block == meta.len {
            self.block += 1;
            self.in_block = 0;
        }
        Some(entry)
    }

    fn take_block(&mut self, meta: &BlockMeta) -> &[u8] {
        if self.in_block != 0 {
            debug_assert_eq!(self.in_block, 1, "only the head entry was decoded");
            debug_assert!(meta.len > 1);
            self.block += 1;
            self.in_block = 0;
        } else {
            debug_assert_eq!(meta.len, 1, "only a spent block leaves the head at 0");
        }
        // `buf` still holds exactly this block's bytes: it was filled
        // when the head entry was decoded.
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::merge_streams;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("phe-file-test-{}-{name}.phc", std::process::id()));
        path
    }

    fn sample_catalog() -> SparseCatalog {
        let encoding = PathEncoding::new(8, 5); // domain 37448
        let entries: Vec<(u64, u64)> = (0..3000u64)
            .map(|i| (i * 12 + i % 7, 1 + i % 300))
            .collect();
        SparseCatalog::from_runs(encoding, CompressedRuns::from_entries(&entries)).unwrap()
    }

    #[test]
    fn catalog_file_round_trips_through_mmap() {
        let path = temp_path("roundtrip");
        let catalog = sample_catalog();
        let written = write_catalog_file(&path, &catalog).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());

        let opened = open_catalog_file(&path).unwrap();
        assert_eq!(opened, catalog, "decoded content must match");
        assert_eq!(opened.runs().skip_index(), catalog.runs().skip_index());
        assert_eq!(opened.encoding(), catalog.encoding());
        #[cfg(all(unix, target_pointer_width = "64"))]
        {
            assert!(opened.runs().is_mapped(), "payload should be disk-resident");
            // Mapped payload is excluded from the heap footprint.
            assert!(opened.runs().size_bytes() < catalog.runs().size_bytes());
        }
        // Point lookups read straight through the mapping.
        for (index, count) in catalog.iter().take(50) {
            assert_eq!(opened.selectivity_at(index), count);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_catalog_file_round_trips() {
        let path = temp_path("empty");
        let encoding = PathEncoding::new(2, 2);
        let catalog = SparseCatalog::from_runs(encoding, CompressedRuns::new()).unwrap();
        write_catalog_file(&path, &catalog).unwrap();
        let opened = open_catalog_file(&path).unwrap();
        assert_eq!(opened.nonzero_count(), 0);
        assert_eq!(opened, catalog);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_refused_at_open() {
        let path = temp_path("corrupt");
        write_catalog_file(&path, &sample_catalog()).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // A flipped payload byte fails the checksum.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            open_catalog_file(&path),
            Err(CatalogFileError::Corrupt(_))
        ));

        // Truncation fails (length check or checksum).
        std::fs::write(&path, &pristine[..pristine.len() - 9]).unwrap();
        assert!(matches!(
            open_catalog_file(&path),
            Err(CatalogFileError::Corrupt(_))
        ));

        // Wrong magic.
        let mut bad_magic = pristine.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(matches!(
            open_catalog_file(&path),
            Err(CatalogFileError::Corrupt(_))
        ));

        // Missing file is an Io error, not Corrupt.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            open_catalog_file(&path),
            Err(CatalogFileError::Io(_))
        ));
    }

    #[test]
    fn shard_reader_streams_identically_to_memory() {
        let entries: Vec<(u64, u64)> = (0..2000u64).map(|i| (i * 5 + i % 3, 1 + i % 50)).collect();
        let runs = CompressedRuns::from_entries(&entries);
        let encoding = PathEncoding::new(4, 8);

        let path = temp_path("shard");
        write_runs_file(&path, &encoding, &runs, Durability::Scratch).unwrap();
        let shard = open_shard(&path).unwrap();
        let from_disk = merge_streams(&mut [shard]);
        assert_eq!(from_disk, runs, "single-shard merge is the identity");
        // The wholesale path kept the exact block boundaries.
        assert_eq!(from_disk.skip_index(), runs.skip_index());

        // Two disjoint shards merge like their in-memory counterparts.
        let low = CompressedRuns::from_entries(&entries[..1000]);
        let high = CompressedRuns::from_entries(&entries[1000..]);
        let low_path = temp_path("shard-low");
        let high_path = temp_path("shard-high");
        write_runs_file(&low_path, &encoding, &low, Durability::Scratch).unwrap();
        write_runs_file(&high_path, &encoding, &high, Durability::Scratch).unwrap();
        let merged = merge_streams(&mut [
            open_shard(&low_path).unwrap(),
            open_shard(&high_path).unwrap(),
        ]);
        assert_eq!(merged, CompressedRuns::merge_many(&[low, high]));
        assert_eq!(merged.to_vec(), entries);

        for p in [&path, &low_path, &high_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn interleaved_shards_merge_with_summing() {
        let a: Vec<(u64, u64)> = (0..900u64).map(|i| (i * 2, 3)).collect();
        let b: Vec<(u64, u64)> = (0..900u64).map(|i| (i * 3, 5)).collect();
        let run_a = CompressedRuns::from_entries(&a);
        let run_b = CompressedRuns::from_entries(&b);
        let encoding = PathEncoding::new(4, 8);
        let path_a = temp_path("inter-a");
        let path_b = temp_path("inter-b");
        write_runs_file(&path_a, &encoding, &run_a, Durability::Scratch).unwrap();
        write_runs_file(&path_b, &encoding, &run_b, Durability::Scratch).unwrap();
        let from_disk =
            merge_streams(&mut [open_shard(&path_a).unwrap(), open_shard(&path_b).unwrap()]);
        let in_memory = CompressedRuns::merge_many(&[run_a, run_b]);
        assert_eq!(from_disk, in_memory, "disk merge ≡ memory merge");
        std::fs::remove_file(&path_a).unwrap();
        std::fs::remove_file(&path_b).unwrap();
    }

    #[test]
    fn truncated_shard_ends_its_stream_with_an_error() {
        let entries: Vec<(u64, u64)> = (0..2000u64).map(|i| (i * 7, 1 + i % 90)).collect();
        let runs = CompressedRuns::from_entries(&entries);
        assert!(runs.skip_index().len() > 4, "several blocks to cut between");
        let encoding = PathEncoding::new(4, 8);
        let path = temp_path("truncated");
        write_runs_file(&path, &encoding, &runs, Durability::Scratch).unwrap();

        // Cut the file in the middle of the payload: the header and skip
        // rows still read, so the failure surfaces mid-stream.
        let payload_start = HEADER_LEN + runs.skip_index().len() * ROW_LEN;
        let cut = payload_start + runs.bytes().len() / 2;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut as u64)
            .unwrap();

        let mut streams = [open_shard(&path).unwrap()];
        let merged = merge_streams(&mut streams);
        let error = streams[0]
            .take_error()
            .expect("the cut must surface as an error");
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
        assert!(merged.len() < runs.len(), "the stream ended at the cut");
        assert!(!merged.is_empty(), "blocks before the cut still streamed");
        assert!(streams[0].take_error().is_none(), "taken once");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_headers_are_errors_not_panics() {
        let path = temp_path("short-header");
        write_catalog_file(&path, &sample_catalog()).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Every cut inside the fixed header (and the first skip row).
        for cut in [0, 7, 8, 30, HEADER_LEN - 1, HEADER_LEN, HEADER_LEN + 8] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(
                matches!(open_catalog_file(&path), Err(CatalogFileError::Corrupt(_))),
                "catalog cut at {cut}"
            );
        }

        let entries: Vec<(u64, u64)> = (0..2000u64).map(|i| (i * 7, 1 + i % 90)).collect();
        let runs = CompressedRuns::from_entries(&entries);
        write_runs_file(&path, &PathEncoding::new(4, 8), &runs, Durability::Scratch).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let rows_end = HEADER_LEN + runs.skip_index().len() * ROW_LEN;
        for cut in [0, 8, 44, HEADER_LEN - 1, HEADER_LEN + 1, rows_end - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            let error = open_shard(&path).err().expect("a cut header must not open");
            assert_eq!(
                error.kind(),
                io::ErrorKind::UnexpectedEof,
                "shard cut at {cut}"
            );
        }
        // A block count whose rows overflow the address space.
        let mut huge = pristine.clone();
        huge[40..48].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &huge).unwrap();
        let error = open_shard(&path)
            .err()
            .expect("an overflowing count must not open");
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }
}
