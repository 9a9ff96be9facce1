//! Property tests for the block-compressed run representation: the
//! compressed form is a lossless codec for arbitrary sorted runs —
//! including index gaps spanning every LEB128 width (1–10 bytes) and
//! indexes adjacent to `u64::MAX` — the per-block codec chooser
//! (FOR/bit-packed vs varint) never changes decoded content and never
//! grows the stream, and the block-wise signed merge is bit-identical
//! to the plain two-pointer pair merge under random churn. The decoder
//! of the serialized form, fed damaged bytes and block lengths, refuses
//! them with `RunsCorrupt` or returns a well-formed run; it never
//! panics. The `.phc` file reader keeps the same promise for damaged
//! files, with and without a valid checksum. A built catalog's bytes
//! depend on its entries alone: sequential, parallel and spilling builds
//! lay out their blocks identically, run after run. Point reads agree
//! with the decoded stream under both codecs, at every packed lane width
//! band, on the heap and through a `.phc` file.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use phe_encoding::fnv1a64;
use phe_graph::{GraphBuilder, LabelId, VertexId};
use phe_pathenum::file::{open_catalog_file, write_catalog_file, CatalogFileError};
use phe_pathenum::runs::{BlockMeta, CompressedRuns, RunsBuilder, BLOCK_ENTRIES};
use phe_pathenum::{PathEncoding, SparseCatalog};
use proptest::prelude::*;

/// Builds a strictly increasing entry run whose consecutive gaps exercise
/// the chosen varint widths: `width` selects the byte-length band of the
/// gap (`[2^(7w), 2^(7(w+1)))`, clamped for the widest band), so a single
/// generated run mixes 1-byte through 10-byte deltas.
fn entries_from_parts(parts: &[(u32, u64, u64)]) -> Vec<(u64, u64)> {
    let mut entries: Vec<(u64, u64)> = Vec::with_capacity(parts.len());
    let mut index: Option<u64> = None;
    for &(width, raw_gap, raw_count) in parts {
        let width = width % 10;
        let base = if width == 0 {
            1u64
        } else {
            1u64 << (7 * width)
        };
        let span = base.saturating_mul(127);
        let gap = base.saturating_add(raw_gap % span);
        let next = match index {
            None => raw_gap % gap.max(1),
            Some(prev) => match prev.checked_add(gap) {
                Some(next) => next,
                None => break, // ran off the index space; keep what we have
            },
        };
        index = Some(next);
        // Counts spread over every varint width, capped at 2⁶² so any
        // count difference fits the i64 a signed delta carries (the
        // real delta pipeline has the same signed-difference domain).
        let count = (raw_count % (1u64 << 62)).max(1);
        entries.push((next, count));
    }
    entries
}

/// The plain-pair reference for [`CompressedRuns::merge_signed`]: the
/// two-pointer merge the catalog used before block compression.
fn plain_signed_merge(base: &[(u64, u64)], changes: &[(u64, i64)]) -> Vec<(u64, u64)> {
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(base.len() + changes.len());
    let mut base_iter = base.iter().copied().peekable();
    for &(index, diff) in changes {
        while let Some(&entry) = base_iter.peek().filter(|&&(i, _)| i < index) {
            merged.push(entry);
            base_iter.next();
        }
        let count = match base_iter.peek() {
            Some(&(i, count)) if i == index => {
                base_iter.next();
                count
            }
            _ => 0,
        };
        let summed = u64::try_from(count as i128 + diff as i128).expect("valid by construction");
        if summed > 0 {
            merged.push((index, summed));
        }
    }
    merged.extend(base_iter);
    merged
}

/// The signed difference that turns `base` into `target` — always a valid
/// change set (no underflow), and it exercises summation, admission, and
/// cancellation in one merge.
fn diff_of(base: &[(u64, u64)], target: &[(u64, u64)]) -> Vec<(u64, i64)> {
    let mut changes = Vec::new();
    let (mut b, mut t) = (0usize, 0usize);
    while b < base.len() || t < target.len() {
        match (base.get(b), target.get(t)) {
            (Some(&(bi, bc)), Some(&(ti, tc))) if bi == ti => {
                if bc != tc {
                    changes.push((bi, tc as i64 - bc as i64));
                }
                b += 1;
                t += 1;
            }
            (Some(&(bi, bc)), Some(&(ti, _))) if bi < ti => {
                changes.push((bi, -(bc as i64)));
                b += 1;
            }
            (Some(_), Some(&(ti, tc))) => {
                changes.push((ti, tc as i64));
                t += 1;
            }
            (Some(&(bi, bc)), None) => {
                changes.push((bi, -(bc as i64)));
                b += 1;
            }
            (None, Some(&(ti, tc))) => {
                changes.push((ti, tc as i64));
                t += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    changes
}

/// One damage step: `(target, kind, position, value)`. Target 0 damages
/// the bytes (flip a bit, truncate, or splice `value`'s low bytes over a
/// short range); target 1 the block lengths (overwrite one with a length
/// near the valid range, drop the last, or append one).
fn damage(
    bytes: &mut Vec<u8>,
    lens: &mut Vec<u32>,
    (target, kind, position, value): (u8, u8, u64, u64),
) {
    if target == 0 {
        let at = (position % (bytes.len() as u64 + 1)) as usize;
        match kind {
            0 if at < bytes.len() => bytes[at] ^= 1 << (value % 8),
            1 => bytes.truncate(at),
            _ => {
                let end = (at + (value % 4) as usize).min(bytes.len());
                let fill = value.to_le_bytes();
                bytes.splice(at..end, fill[..(value % 9) as usize].iter().copied());
            }
        }
    } else {
        let len = (value % (BLOCK_ENTRIES as u64 + 2)) as u32;
        match kind {
            0 if !lens.is_empty() => {
                let at = (position % lens.len() as u64) as usize;
                lens[at] = len;
            }
            1 => {
                lens.pop();
            }
            _ => lens.push(len),
        }
    }
}

/// A decoder's answer to damaged input is acceptable when it refuses
/// it, or when the run it returns iterates strictly increasing indexes
/// with non-zero counts and rebuilds to itself through `from_entries`.
fn check_decoded(
    decoded: Result<CompressedRuns, phe_pathenum::runs::RunsCorrupt>,
) -> Result<(), TestCaseError> {
    let Ok(runs) = decoded else {
        return Ok(());
    };
    let entries: Vec<(u64, u64)> = runs.iter().collect();
    prop_assert_eq!(entries.len(), runs.len());
    prop_assert!(
        entries.iter().all(|&(_, count)| count > 0),
        "zero count decoded"
    );
    prop_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "indexes do not increase strictly"
    );
    prop_assert_eq!(CompressedRuns::from_entries(&entries).to_vec(), entries);
    Ok(())
}

/// The bytes that make up a catalog's runs: payload, skip rows and the
/// resident size.
fn layout(catalog: &SparseCatalog) -> (Vec<u8>, Vec<BlockMeta>, usize) {
    let runs = catalog.runs();
    (
        runs.bytes().to_vec(),
        runs.skip_index().to_vec(),
        catalog.size_bytes(),
    )
}

/// SplitMix64, so one proptest-drawn seed fills a whole run.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A bit width in `band` of the packed lanes' decode paths: 0 (a lane
/// of no bytes), 1–14 (the four-at-a-time AVX2 path), 15–57 (one
/// unaligned 8-byte window) and 58–64 (two words). `cap` bounds it.
fn band_width(band: u8, pick: u64, cap: u32) -> u32 {
    let (lo, hi) = [(0, 0), (1, 14), (15, 57), (58, 64)][usize::from(band % 4)];
    (lo + (pick % u64::from(hi - lo + 1)) as u32).min(cap)
}

/// A run of whole blocks, one per `(gap_band, count_band, len)` part:
/// the block's tail gaps and counts are residuals of the band's width
/// above a random minimum (the first two tail entries take the residuals
/// 0 and all-ones), so the encoder sees every lane width band.
/// Gap widths stop at 30 bits so the indexes fit a `.phc` domain; `len`
/// below `BLOCK_ENTRIES` leaves a short block.
fn banded_entries(parts: &[(u8, u8, usize)], seed: u64) -> Vec<(u64, u64)> {
    let mut state = seed;
    let mut entries: Vec<(u64, u64)> = Vec::new();
    let mut index = splitmix(&mut state) % 1024;
    for &(gap_band, count_band, len) in parts {
        let gap_width = band_width(gap_band, splitmix(&mut state), 30);
        let count_width = band_width(count_band, splitmix(&mut state), 64);
        let mask = |width: u32| u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let gap_min = 1 + splitmix(&mut state) % 64;
        let count_min = 1 + splitmix(&mut state) % (1 << 20);
        let residual = |i: usize, width: u32, state: &mut u64| match i {
            0 => 0,
            1 => mask(width),
            _ => splitmix(state) & mask(width),
        };
        entries.push((index, 1 + splitmix(&mut state) % 1000));
        for i in 0..len.clamp(1, BLOCK_ENTRIES) - 1 {
            index += gap_min + residual(i, gap_width, &mut state);
            // Saturating: a 64-bit count residual stays ≥ 2^63 wide.
            let count = count_min.saturating_add(residual(i, count_width, &mut state));
            entries.push((index, count));
        }
        index += 1 + splitmix(&mut state) % 1000;
    }
    entries
}

/// The count at `index` in sorted `entries`, by binary search.
fn reference_get(entries: &[(u64, u64)], index: u64) -> Option<u64> {
    entries
        .binary_search_by_key(&index, |&(i, _)| i)
        .ok()
        .map(|at| entries[at].1)
}

/// `get` against the decoded stream at every entry index, its neighbours
/// ±1..3 (which fall in gaps or on other entries), `probes`, and past
/// both ends.
fn check_point_reads(
    runs: &CompressedRuns,
    entries: &[(u64, u64)],
    probes: &[u64],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(runs.to_vec(), entries.to_vec());
    let mut wanted: Vec<u64> = probes.to_vec();
    wanted.extend([0, 1, u64::MAX - 1, u64::MAX]);
    for &(index, _) in entries {
        for d in 0..=3 {
            wanted.extend(index.checked_sub(d));
            wanted.extend(index.checked_add(d));
        }
    }
    for &index in &wanted {
        prop_assert_eq!(
            runs.get(index),
            reference_get(entries, index),
            "get({})",
            index
        );
    }
    Ok(())
}

fn arb_parts() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    prop::collection::vec((0u32..10, 0u64..u64::MAX, 1u64..u64::MAX), 0..300)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Compression is a lossless codec across every varint width, with
    // point lookups agreeing with the decoded stream, and the serialized
    // (bytes + block lens) form restoring exactly.
    #[test]
    fn round_trips_across_varint_widths(parts in arb_parts(), tail_count in 1u64..u64::MAX) {
        let mut entries = entries_from_parts(&parts);
        // Pin the top of the index space: u64::MAX-adjacent entries.
        if entries.last().is_none_or(|&(i, _)| i < u64::MAX - 2) {
            entries.push((u64::MAX - 1, tail_count));
            entries.push((u64::MAX, u64::MAX));
        }
        let runs = CompressedRuns::from_entries(&entries);
        prop_assert_eq!(runs.to_vec(), entries.clone());
        prop_assert_eq!(runs.len(), entries.len());
        prop_assert_eq!(
            runs.total_mass(),
            entries.iter().fold(0u64, |acc, &(_, c)| acc.wrapping_add(c))
        );
        prop_assert_eq!(runs.get(u64::MAX), Some(u64::MAX));
        // Point lookups: every stored index hits, a probe between two
        // entries misses.
        for &(index, count) in entries.iter().take(64) {
            prop_assert_eq!(runs.get(index), Some(count));
        }
        for w in entries.windows(2).take(64) {
            if w[1].0 - w[0].0 > 1 {
                prop_assert_eq!(runs.get(w[0].0 + 1), None);
            }
        }
        // Serialized round trip (the heap entry point): tagged bytes +
        // block lens restore the exact stream, skip index included.
        let lens: Vec<u32> = runs.skip_index().iter().map(|m| m.len).collect();
        let restored = CompressedRuns::from_tagged_encoded(runs.bytes().to_vec(), &lens).unwrap();
        prop_assert_eq!(&restored, &runs);
        prop_assert_eq!(restored.skip_index(), runs.skip_index());
        prop_assert_eq!(restored.bytes(), runs.bytes());
    }

    // The codec chooser is invisible to consumers: a stream built with
    // the per-block FOR/bit-packed chooser decodes to exactly what a
    // varint-only stream of the same entries decodes to — same content,
    // same lookups, same cursor stream — and never takes more payload
    // bytes than the varint baseline.
    #[test]
    fn packed_codec_equals_varint_codec(parts in arb_parts(), tail_count in 1u64..u64::MAX) {
        let mut entries = entries_from_parts(&parts);
        // Boundary widths: a constant-gap stretch (0-bit lanes) and
        // u64::MAX-adjacent indexes (64-bit residual candidates).
        if entries.last().is_none_or(|&(i, _)| i < u64::MAX - 600) {
            let base = entries.last().map_or(0, |&(i, _)| i + 1);
            entries.extend((0..256u64).map(|j| (base + j * 8, 5)));
            entries.push((u64::MAX - 1, tail_count));
            entries.push((u64::MAX, u64::MAX));
        }
        let chosen = CompressedRuns::from_entries(&entries);
        let mut baseline = RunsBuilder::new().varint_only();
        for &(index, count) in &entries {
            baseline.push(index, count);
        }
        let baseline = baseline.finish();
        prop_assert_eq!(&chosen, &baseline);
        prop_assert_eq!(chosen.to_vec(), baseline.to_vec());
        prop_assert!(
            chosen.payload_bytes() <= baseline.payload_bytes(),
            "chooser produced {} bytes, varint baseline {}",
            chosen.payload_bytes(),
            baseline.payload_bytes()
        );
        let (_, baseline_packed) = baseline.block_codec_counts();
        prop_assert_eq!(baseline_packed, 0);
        for &(index, count) in entries.iter().take(64) {
            prop_assert_eq!(chosen.get(index), Some(count));
            prop_assert_eq!(baseline.get(index), Some(count));
        }
    }

    // The block-wise signed merge (wholesale copies + re-encoded blocks)
    // is bit-identical to the plain two-pointer pair merge, and turning
    // base into target via their diff lands exactly on target.
    #[test]
    fn merge_signed_matches_plain_pair_merge(
        base_parts in arb_parts(),
        target_parts in arb_parts(),
    ) {
        let base = entries_from_parts(&base_parts);
        let target = entries_from_parts(&target_parts);
        let changes = diff_of(&base, &target);

        let compressed = CompressedRuns::from_entries(&base);
        let merged = compressed.merge_signed(&changes).unwrap();
        let reference = plain_signed_merge(&base, &changes);

        prop_assert_eq!(merged.to_vec(), reference.clone());
        prop_assert_eq!(reference, target.clone());
        prop_assert_eq!(&merged, &CompressedRuns::from_entries(&target));
        prop_assert_eq!(
            merged.total_mass(),
            target.iter().fold(0u64, |acc, &(_, c)| acc.wrapping_add(c))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The k-way merge of a parallel or spilled build re-encodes every
    // entry, so the runs it returns are byte for byte those of the
    // sequential build, whatever the thread count and schedule. Label
    // `l`'s sources sit in vertex block `l` and its targets anywhere, so
    // the paths starting with `l` come from the one or two source-range
    // tasks covering block `l`: one worker's run then holds whole blocks
    // of the catalog alone, the case a layout-preserving merge would copy.
    #[test]
    fn every_build_lays_out_the_same_bytes(
        edges in prop::collection::vec((0u32..8, 0u16..6, 0u32..48), 200..500),
        k in 3usize..5,
    ) {
        let mut b = GraphBuilder::with_numeric_labels(48, 6);
        for (s, l, t) in edges {
            b.add_edge(VertexId(u32::from(l) * 8 + s), LabelId(l), VertexId(t));
        }
        let g = b.build();
        let canonical = SparseCatalog::compute(&g, k).unwrap();
        prop_assert!(canonical.runs().skip_index().len() > 1, "one block shows no layout");
        let expected = layout(&canonical);
        for _ in 0..2 {
            prop_assert_eq!(&layout(&SparseCatalog::compute(&g, k).unwrap()), &expected);
            for threads in 1..=4 {
                let parallel = SparseCatalog::compute_parallel(&g, k, threads).unwrap();
                prop_assert_eq!(&layout(&parallel), &expected, "threads = {}", threads);
            }
            let (spilled, stats) =
                SparseCatalog::compute_parallel_spilling(&g, k, 2, Some(512)).unwrap();
            prop_assert!(stats.shards > 0, "a 512 B budget must spill");
            prop_assert_eq!(&layout(&spilled), &expected, "spilled");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // Damaged serialized runs never panic the decoder: it refuses the
    // input with `RunsCorrupt` or returns a well-formed run.
    #[test]
    fn damaged_serialized_runs_are_refused_or_well_formed(
        parts in prop::collection::vec((0u32..10, 0u64..u64::MAX, 1u64..u64::MAX), 0..120),
        packed_tail in 0u8..2,
        narrow in 0u8..2,
        steps in prop::collection::vec((0u8..2, 0u8..3, 0u64..u64::MAX, 0u64..u64::MAX), 1..4),
    ) {
        let mut entries = entries_from_parts(&parts);
        if narrow == 1 {
            // A dense run of ones: every gap and count is the byte 0x01,
            // so one flipped bit zeroes either while the stream stays
            // well-framed, and only the decoders' value checks stand
            // between it and the result.
            entries = (0..parts.len() as u64).map(|index| (index, 1)).collect();
        }
        if packed_tail == 1 && entries.last().is_none_or(|&(i, _)| i < u64::MAX - 600) {
            // A constant-gap stretch: bit-packed blocks to damage.
            let base = entries.last().map_or(0, |&(i, _)| i + 1);
            entries.extend((0..200u64).map(|j| (base + j * 8, 5)));
        }
        // The chooser's stream (packed where that is smaller) and a
        // varint-only tagged stream.
        let chosen = CompressedRuns::from_entries(&entries);
        let mut varint = RunsBuilder::new().varint_only();
        for &(index, count) in &entries {
            varint.push(index, count);
        }
        let varint = varint.finish();
        let tagged = |runs: &CompressedRuns| {
            let lens: Vec<u32> = runs.skip_index().iter().map(|m| m.len).collect();
            (runs.bytes().to_vec(), lens)
        };
        for (mut bytes, mut lens) in [tagged(&chosen), tagged(&varint)] {
            for &step in &steps {
                damage(&mut bytes, &mut lens, step);
            }
            check_decoded(CompressedRuns::from_tagged_encoded(bytes, &lens))?;
        }
    }
}

/// One damage step on a `.phc` file: `(region, kind, position, value)`.
/// `region` picks the fixed header, the skip rows or the payload; `kind`
/// flips one bit there, cuts the file there, or inserts 1–8 of `value`'s
/// bytes there.
fn damage_catalog_file(
    bytes: &mut Vec<u8>,
    blocks: usize,
    (region, kind, position, value): (u8, u8, u64, u64),
) {
    const HEADER: usize = 56;
    let rows_end = HEADER + 40 * blocks;
    let (lo, hi) = match region {
        0 => (0, HEADER),
        1 => (HEADER, rows_end),
        _ => (rows_end, bytes.len() - 8),
    };
    let at = lo + (position % (hi - lo).max(1) as u64) as usize;
    match kind {
        0 => bytes[at] ^= 1 << (value % 8),
        1 => bytes.truncate(at),
        _ => {
            let fill = value.to_le_bytes();
            let n = 1 + (value % 8) as usize;
            bytes.splice(at..at, fill[..n].iter().copied());
        }
    }
}

/// `open_catalog_file`'s answer to a damaged file is acceptable when it
/// refuses it, or when the catalog it returns keeps the run invariants
/// inside its domain, answers point lookups from its own entries, and
/// round-trips through `write_catalog_file` and `open_catalog_file`.
fn check_opened(
    opened: Result<SparseCatalog, CatalogFileError>,
    rewrite_path: &Path,
) -> Result<(), TestCaseError> {
    let catalog = match opened {
        Err(CatalogFileError::Corrupt(_) | CatalogFileError::Io(_)) => return Ok(()),
        Ok(catalog) => catalog,
    };
    let entries: Vec<(u64, u64)> = catalog.iter().collect();
    prop_assert_eq!(entries.len(), catalog.nonzero_count());
    prop_assert!(
        entries.iter().all(|&(_, count)| count > 0),
        "zero count decoded"
    );
    prop_assert!(
        entries.windows(2).all(|w| w[0].0 < w[1].0),
        "indexes do not increase strictly"
    );
    prop_assert!(entries
        .last()
        .is_none_or(|&(index, _)| index < catalog.len() as u64));
    for &(index, count) in &entries {
        prop_assert_eq!(catalog.selectivity_at(index), count);
    }
    write_catalog_file(rewrite_path, &catalog).unwrap();
    let reopened = open_catalog_file(rewrite_path);
    std::fs::remove_file(rewrite_path).unwrap();
    let reopened = reopened.unwrap();
    prop_assert_eq!(reopened.encoding(), catalog.encoding());
    prop_assert_eq!(reopened, catalog);
    Ok(())
}

/// A fresh temp path per call, so cases never share a file.
fn case_path(what: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    // ORDERING: the counter only needs uniqueness, which the RMW gives.
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "phe-prop-phc-{}-{n}-{what}.phc",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // A damaged `.phc` file never panics `open_catalog_file`: it is
    // refused with `Corrupt` or `Io`, or it opens to a well-formed
    // catalog. Each file is opened as damaged and again with its trailing
    // checksum re-stamped, so the structural checks, not the checksum,
    // have to do the refusing.
    #[test]
    fn damaged_catalog_files_are_refused_or_well_formed(
        labels in 1usize..9,
        max_len in 1usize..7,
        parts in prop::collection::vec((0u32..12, 0u64..u64::MAX, 1u64..u64::MAX), 0..400),
        step in (0u8..3, 0u8..3, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let encoding = PathEncoding::new(labels, max_len);
        let domain = encoding.domain_size() as u64;
        let mut entries = Vec::new();
        let mut index = 0u64;
        for (i, &(width, raw_gap, raw_count)) in parts.iter().enumerate() {
            let gap = raw_gap % (1u64 << width);
            index = if i == 0 { gap } else { index + 1 + gap };
            if index >= domain {
                break;
            }
            // Small counts most of the time, so blocks pack.
            let count = if width % 3 == 0 { raw_count } else { 1 + raw_count % 16 };
            entries.push((index, count));
        }
        let catalog =
            SparseCatalog::from_runs(encoding, CompressedRuns::from_entries(&entries)).unwrap();
        let path = case_path("damaged");
        let rewrite_path = case_path("rewrite");
        write_catalog_file(&path, &catalog).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        damage_catalog_file(&mut bytes, catalog.runs().skip_index().len(), step);
        std::fs::write(&path, &bytes).unwrap();
        check_opened(open_catalog_file(&path), &rewrite_path)?;
        if bytes.len() >= 8 {
            let body = bytes.len() - 8;
            let sum = fnv1a64(&bytes[..body]);
            bytes[body..].copy_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            check_opened(open_catalog_file(&path), &rewrite_path)?;
        }
        std::fs::remove_file(&path).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Point reads equal the decoded stream whatever codec and lane width
    // a block has and wherever its bytes live: the chooser's run and a
    // varint-only run of the same entries, each on the heap and mapped
    // back from a `.phc` file, answer every entry, neighbour, gap,
    // random and out-of-range index as the entries do.
    #[test]
    fn point_reads_equal_the_decoded_stream(
        parts in prop::collection::vec((0u8..4, 0u8..4, 1usize..BLOCK_ENTRIES + 41), 1..6),
        seed in 0u64..u64::MAX,
        probe_seed in 0u64..u64::MAX,
    ) {
        let entries = banded_entries(&parts, seed);
        let last = entries.last().map_or(0, |&(i, _)| i);
        let mut state = probe_seed;
        let probes: Vec<u64> = (0..256)
            .map(|j| if j % 4 == 0 { splitmix(&mut state) } else { splitmix(&mut state) % (last + 8) })
            .collect();
        let chosen = CompressedRuns::from_entries(&entries);
        let mut varint = RunsBuilder::new().varint_only();
        for &(index, count) in &entries {
            varint.push(index, count);
        }
        let varint = varint.finish();
        // 2^15 labels at k = 3: a 2^45-path domain holds every index.
        let encoding = PathEncoding::new(1 << 15, 3);
        for runs in [chosen, varint] {
            check_point_reads(&runs, &entries, &probes)?;
            let path = case_path("point-reads");
            let catalog = SparseCatalog::from_runs(encoding, runs).unwrap();
            write_catalog_file(&path, &catalog).unwrap();
            let opened = open_catalog_file(&path);
            std::fs::remove_file(&path).unwrap();
            let opened = opened.unwrap();
            if cfg!(all(unix, target_pointer_width = "64", not(miri))) {
                prop_assert!(opened.runs().is_mapped());
            }
            prop_assert_eq!(opened.runs().bytes(), catalog.runs().bytes());
            check_point_reads(opened.runs(), &entries, &probes)?;
        }
    }
}

// The banded generator reaches every packed lane-width band the
// property above claims to cover, in both lanes where the domain allows.
#[test]
fn banded_runs_reach_every_lane_width_band() {
    let mut gap_bands = [false; 4];
    let mut count_bands = [false; 4];
    for gap_band in 0..4u8 {
        for count_band in 0..4u8 {
            let entries = banded_entries(&[(gap_band, count_band, BLOCK_ENTRIES)], 7);
            let runs = CompressedRuns::from_entries(&entries);
            let bytes = runs.bytes();
            if bytes[0] != 1 {
                continue; // the chooser kept the varint codec
            }
            // Packed layout: tag, head index and count varints, then the
            // two lane widths.
            let mut pos = 1;
            for _ in 0..2 {
                while bytes[pos] & 0x80 != 0 {
                    pos += 1;
                }
                pos += 1;
            }
            let band = |width: u8| match width {
                0 => 0,
                1..=14 => 1,
                15..=57 => 2,
                _ => 3,
            };
            gap_bands[band(bytes[pos])] = true;
            count_bands[band(bytes[pos + 1])] = true;
        }
    }
    assert_eq!(
        gap_bands,
        [true, true, true, false],
        "gap widths stop at 30 bits"
    );
    assert_eq!(count_bands, [true; 4]);
}
