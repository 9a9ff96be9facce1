//! The on-disk catalog file format (`.phc`) and its readers.
//!
//! One flat, checksummed file holds everything needed to reopen a
//! [`SparseCatalog`] without re-deriving state. Its one user is the
//! spill-to-disk build, which writes its shards in this format and
//! merges them back through [`open_catalog_file`]:
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
//! One reader serves every use of the format: [`open_catalog_file`]
//! maps the file ([`crate::mmap`]), verifies the checksum, validates the
//! tagged payload, and hands back a catalog whose byte stream *borrows the
//! mapping*. The skip index (~0.3 B/entry) is the only per-entry heap
//! cost, so a spilling build's shards stay on disk through the merge. The
//! file handle is closed once the bytes are mapped, so any number of
//! catalogs can be open at once without holding a descriptor each.
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
//! the fsyncs. The spill-to-disk build reads them back through
//! [`open_catalog_file`] as well, so a damaged shard is refused with the
//! same checks as a damaged catalog, and the build returns it as
//! [`crate::catalog::CatalogError::SpillIo`].

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use phe_encoding::{fnv1a64, read_u64_le, write_u64_le, Fnv64};

use crate::encoding::PathEncoding;
use crate::mmap::MappedRegion;
use crate::runs::{validate_tagged, BlockMeta, CompressedRuns, BLOCK_ENTRIES};
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

/// Opens a `.phc` catalog file (a served catalog or a spill shard): maps
/// it (read-to-heap fallback on platforms without mmap), verifies the
/// checksum, validates the tagged payload, and returns a catalog whose
/// byte stream borrows the mapping — check [`CompressedRuns::is_mapped`]
/// on [`SparseCatalog::runs`] for the residency that was achieved. The
/// file handle is closed before this returns, and the file may be
/// unlinked while the catalog is alive.
///
/// # Errors
/// [`CatalogFileError::Io`] on filesystem failures;
/// [`CatalogFileError::Corrupt`] on a bad magic, checksum mismatch,
/// inconsistent header fields, or an invalid payload stream.
pub fn open_catalog_file(path: &Path) -> Result<SparseCatalog, CatalogFileError> {
    // The handle is closed at the end of this statement: the mapping (or
    // the heap copy) outlives it, so an open catalog holds no descriptor.
    let region = Arc::new(MappedRegion::map_file(&mut File::open(path)?)?);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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
        #[cfg(all(unix, target_pointer_width = "64", not(miri)))]
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

    /// Writes `runs` as a scratch shard and reads it back through the
    /// one reader, as the spill-to-disk build does.
    fn round_trip_shard(name: &str, runs: &CompressedRuns) -> (PathBuf, CompressedRuns) {
        let path = temp_path(name);
        write_runs_file(&path, &PathEncoding::new(4, 8), runs, Durability::Scratch).unwrap();
        let opened = open_catalog_file(&path).unwrap().runs().clone();
        (path, opened)
    }

    #[test]
    fn mapped_shard_merges_identically_to_memory() {
        let entries: Vec<(u64, u64)> = (0..2000u64).map(|i| (i * 5 + i % 3, 1 + i % 50)).collect();
        let runs = CompressedRuns::from_entries(&entries);
        let (path, shard) = round_trip_shard("shard", &runs);
        let from_disk = CompressedRuns::merge_many(&[shard]);
        assert_eq!(from_disk, runs, "single-shard merge is the identity");
        // The re-encode gives the block boundaries of `from_entries`.
        assert_eq!(from_disk.skip_index(), runs.skip_index());

        // Two disjoint shards merge like their in-memory counterparts.
        let low = CompressedRuns::from_entries(&entries[..1000]);
        let high = CompressedRuns::from_entries(&entries[1000..]);
        let (low_path, low_shard) = round_trip_shard("shard-low", &low);
        let (high_path, high_shard) = round_trip_shard("shard-high", &high);
        let merged = CompressedRuns::merge_many(&[low_shard, high_shard]);
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
        let (path_a, shard_a) = round_trip_shard("inter-a", &run_a);
        let (path_b, shard_b) = round_trip_shard("inter-b", &run_b);
        // Both files can go before the merge: the mappings outlive them.
        std::fs::remove_file(&path_a).unwrap();
        std::fs::remove_file(&path_b).unwrap();
        let from_disk = CompressedRuns::merge_many(&[shard_a, shard_b]);
        let in_memory = CompressedRuns::merge_many(&[run_a, run_b]);
        assert_eq!(from_disk, in_memory, "disk merge ≡ memory merge");
    }

    #[test]
    fn truncated_shard_is_refused_at_open() {
        let entries: Vec<(u64, u64)> = (0..2000u64).map(|i| (i * 7, 1 + i % 90)).collect();
        let runs = CompressedRuns::from_entries(&entries);
        assert!(runs.skip_index().len() > 4, "several blocks to cut between");
        let path = temp_path("truncated");
        write_runs_file(&path, &PathEncoding::new(4, 8), &runs, Durability::Scratch).unwrap();

        // Cut the file in the middle of the payload: the header and skip
        // rows are intact, so only the length, checksum and payload
        // checks stand between the cut and the merge.
        let payload_start = HEADER_LEN + runs.skip_index().len() * ROW_LEN;
        let cut = payload_start + runs.bytes().len() / 2;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(cut as u64)
            .unwrap();
        assert!(matches!(
            open_catalog_file(&path),
            Err(CatalogFileError::Corrupt(_))
        ));
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
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn huge_one_label_path_length_opens_without_walking_it() {
        // A one-label catalog whose header `max_len` has a high bit
        // flipped, with the checksum re-stamped: sizing its domain must
        // not loop `max_len` times.
        let path = temp_path("one-label");
        let encoding = PathEncoding::new(1, 5);
        let entries = [(0, 3), (2, 7), (4, 1)];
        let catalog =
            SparseCatalog::from_runs(encoding, CompressedRuns::from_entries(&entries)).unwrap();
        write_catalog_file(&path, &catalog).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let max_len = (1u64 << 40) + 3;
        bytes[16..24].copy_from_slice(&max_len.to_le_bytes());
        let body = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let started = std::time::Instant::now();
        let opened = open_catalog_file(&path).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(opened.encoding().max_len() as u64, max_len);
        assert_eq!(opened.encoding().domain_size() as u64, max_len);
        assert_eq!(opened.iter().collect::<Vec<_>>(), entries);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_opens_see_one_whole_catalog_or_the_other() {
        let path = temp_path("atomic");
        let old = sample_catalog();
        let new = SparseCatalog::from_runs(
            *old.encoding(),
            CompressedRuns::from_entries(&[(3, 9), (70, 2), (30_000, 1)]),
        )
        .unwrap();
        write_catalog_file(&path, &old).unwrap();
        let opens = AtomicUsize::new(0);
        let done = AtomicBool::new(false);
        let seen = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut seen = [0usize; 2];
                while !done.load(Ordering::Acquire) {
                    match open_catalog_file(&path) {
                        Ok(catalog) if catalog == old => seen[0] += 1,
                        Ok(catalog) if catalog == new => seen[1] += 1,
                        Ok(_) => panic!("an open returned neither catalog"),
                        Err(e) => panic!("an open failed mid-replace: {e}"),
                    }
                    opens.fetch_add(1, Ordering::Release);
                }
                seen
            });
            for round in 0..100 {
                write_catalog_file(&path, if round % 2 == 0 { &new } else { &old }).unwrap();
                // Two more completed opens: at least one of them started
                // after this write, so both catalogs are seen.
                let target = opens.load(Ordering::Acquire) + 2;
                while opens.load(Ordering::Acquire) < target && !reader.is_finished() {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
            reader.join().unwrap()
        });
        assert!(seen[0] > 0 && seen[1] > 0, "opens saw {seen:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_rename_leaves_no_temp_file() {
        // A non-empty directory at the target: the rename fails after the
        // temp file is complete.
        let path = temp_path("rename-target");
        std::fs::create_dir_all(&path).unwrap();
        std::fs::write(path.join("occupant"), b"x").unwrap();
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        for durability in [Durability::Synced, Durability::Scratch] {
            assert!(replace_file(&path, &[b"new bytes"], durability).is_err());
            assert!(
                !Path::new(&tmp).exists(),
                "{durability:?} left its temp file"
            );
            assert!(path.join("occupant").exists(), "the target is untouched");
        }
        std::fs::remove_dir_all(&path).unwrap();
    }
}
