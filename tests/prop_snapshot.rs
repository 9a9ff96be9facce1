//! Snapshot restore takes untrusted bytes: a snapshot file handed to
//! `phe serve`, `phe estimate` or the `load` op. This suite damages the
//! JSON of random estimators' snapshots and checks the restore entry
//! point they all share, `ServableEstimator::from_snapshot`: it refuses
//! the damaged text with an error, or returns statistics whose answers
//! over sampled domain paths are finite and non-negative. It may not
//! panic.
//!
//! Two kinds of damage: byte-level (a flipped bit, a cut, or inserted
//! bytes anywhere in the text), and one numeric field (`k`, `beta`, a
//! bucket bound, a histogram value or any other number) set to an
//! extreme value.

use phe::core::snapshot::EstimatorSnapshot;
use phe::core::{EstimatorConfig, HistogramKind, OrderingKind, PathSelectivityEstimator};
use phe::graph::{GraphBuilder, LabelId, VertexId};
use phe::query::CardinalityEstimator;
use phe::service::ServableEstimator;
use proptest::prelude::*;

/// Orderings a snapshot can carry (the ideal ordering cannot be
/// snapshotted).
const ORDERINGS: [OrderingKind; 6] = [
    OrderingKind::NumAlph,
    OrderingKind::NumCard,
    OrderingKind::LexAlph,
    OrderingKind::LexCard,
    OrderingKind::SumBased,
    OrderingKind::SumBasedL2,
];

/// A random estimator's snapshot as JSON text: `(labels, k, beta,
/// ordering, histogram)` pick the build, `edges` the graph, and `pretty`
/// the writer (`phe build` writes pretty JSON).
fn snapshot_text(
    (labels, k, beta, ordering, histogram): (u16, usize, usize, usize, usize),
    edges: &[(u32, u16, u32)],
    pretty: bool,
) -> String {
    let mut b = GraphBuilder::with_numeric_labels(10, labels);
    for &(s, l, t) in edges {
        b.add_edge(VertexId(s), LabelId(l % labels), VertexId(t));
    }
    let estimator = PathSelectivityEstimator::build(
        &b.build(),
        EstimatorConfig {
            k,
            beta,
            ordering: ORDERINGS[ordering % ORDERINGS.len()],
            histogram: HistogramKind::ALL[histogram % HistogramKind::ALL.len()],
            threads: 1,
            retain_sparse: true,
        },
    )
    .unwrap();
    let snapshot = estimator.snapshot().unwrap();
    if pretty {
        serde_json::to_string_pretty(&snapshot).unwrap()
    } else {
        serde_json::to_string(&snapshot).unwrap()
    }
}

/// One byte-level damage step `(kind, position, value)`: flip one bit
/// (kinds 0 and 1, since a flip is the damage most likely to leave the
/// text parseable), cut the text, or insert 1–8 of `value`'s bytes at
/// `position`.
fn damage_bytes(bytes: &mut Vec<u8>, (kind, position, value): (u8, u64, u64)) {
    let at = (position % (bytes.len() as u64 + 1)) as usize;
    match kind {
        0 | 1 if at < bytes.len() => bytes[at] ^= 1 << (value % 8),
        2 => bytes.truncate(at),
        _ => {
            let fill = value.to_le_bytes();
            let n = 1 + (value % 8) as usize;
            bytes.splice(at..at, fill[..n].iter().copied());
        }
    }
}

/// Byte ranges of the numeric literals outside strings.
fn numeric_tokens(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let c = bytes[i];
        if in_string {
            match c {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if c == b'"' {
            in_string = true;
            i += 1;
        } else if c == b'-' || c.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            tokens.push((start, i));
        } else {
            i += 1;
        }
    }
    tokens
}

/// The key a numeric token belongs to: the nearest `"key":` before it
/// (array elements belong to the array's key).
fn key_of(text: &str, start: usize) -> &str {
    let Some(colon) = text[..start].rfind("\":") else {
        return "";
    };
    let open = text[..colon].rfind('"').map_or(0, |at| at + 1);
    &text[open..colon]
}

/// Values a damaged numeric field is set to: the edges of every integer
/// width a field or index could be read as, negatives, and floats.
const EXTREMES: [&str; 17] = [
    "0",
    "1",
    "2",
    "8",
    "9",
    "255",
    "65535",
    "65536",
    "4294967296",
    "281474976710656",
    "18446744073709551615",
    "-1",
    "-0.5",
    "-1e300",
    "1e300",
    "1e-300",
    "0.5",
];

/// Sets one numeric field to an extreme. `field` picks `k`, `beta`, a
/// bucket bound (`lo`, `hi` or a bucket start), a histogram value
/// (`sum`, `rest_mean`, `domain_size`) or any number at all; `choice`
/// picks one of several candidates.
fn damage_number(text: &str, field: u8, choice: u64, extreme: usize) -> String {
    let keys: &[&str] = match field {
        0 => &["k"],
        1 => &["beta"],
        2 => &["lo", "hi", "starts"],
        3 => &["sum", "rest_mean", "domain_size"],
        _ => &[],
    };
    let candidates: Vec<(usize, usize)> = numeric_tokens(text)
        .into_iter()
        .filter(|&(start, _)| keys.is_empty() || keys.contains(&key_of(text, start)))
        .collect();
    if candidates.is_empty() {
        return text.to_owned();
    }
    let (start, end) = candidates[(choice % candidates.len() as u64) as usize];
    format!(
        "{}{}{}",
        &text[..start],
        EXTREMES[extreme % EXTREMES.len()],
        &text[end..]
    )
}

/// 64 paths of the domain `|L| = labels`, lengths `1..=k` (at most
/// `MAX_K`, which bounds what an estimator answers; a one-label catalog
/// may declare a far longer `k`): the domain's first path, its last
/// path of the longest sampled length, then a deterministic spread.
fn sampled_paths(labels: usize, k: usize) -> Vec<Vec<LabelId>> {
    let k = k.min(phe::core::MAX_K);
    let mut paths = vec![vec![LabelId(0)], vec![LabelId((labels - 1) as u16); k]];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((state >> 33) % bound as u64) as usize
    };
    for _ in 0..62 {
        let len = 1 + next(k);
        paths.push((0..len).map(|_| LabelId(next(labels) as u16)).collect());
    }
    paths
}

/// What restore may answer for (possibly damaged) snapshot text: a parse
/// or restore error, or statistics whose answers over sampled domain
/// paths are finite and non-negative.
fn check_restored(text: &str) -> Result<(), TestCaseError> {
    let Ok(snapshot) = serde_json::from_str::<EstimatorSnapshot>(text) else {
        return Ok(());
    };
    if let Ok(servable) = ServableEstimator::from_snapshot(&snapshot) {
        for path in sampled_paths(servable.label_count(), servable.k()) {
            let estimate = servable.estimate_labels(&path);
            prop_assert!(
                estimate.as_ref().is_ok_and(|e| e.is_finite() && *e >= 0.0),
                "{estimate:?} for {path:?}"
            );
        }
    }
    Ok(())
}

fn arb_build() -> impl Strategy<Value = (u16, usize, usize, usize, usize)> {
    (1u16..5, 1usize..4, 1usize..16, 0usize..6, 0usize..6)
}

fn arb_edges() -> impl Strategy<Value = Vec<(u32, u16, u32)>> {
    prop::collection::vec((0u32..10, 0u16..5, 0u32..10), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // A flip, cut or insertion anywhere in the text is refused or
    // restores to well-formed statistics.
    #[test]
    fn damaged_snapshot_bytes_are_refused_or_well_formed(
        build in arb_build(),
        edges in arb_edges(),
        pretty in 0u8..2,
        steps in prop::collection::vec((0u8..4, 0u64..u64::MAX, 0u64..u64::MAX), 1..3),
    ) {
        let mut bytes = snapshot_text(build, &edges, pretty == 1).into_bytes();
        for &step in &steps {
            damage_bytes(&mut bytes, step);
        }
        check_restored(&String::from_utf8_lossy(&bytes))?;
    }

    // One numeric field at an extreme is refused or restores to
    // well-formed statistics.
    #[test]
    fn extreme_snapshot_numbers_are_refused_or_well_formed(
        build in arb_build(),
        edges in arb_edges(),
        field in 0u8..5,
        choice in 0u64..u64::MAX,
        extreme in 0usize..EXTREMES.len(),
    ) {
        let text = snapshot_text(build, &edges, false);
        check_restored(&damage_number(&text, field, choice, extreme))?;
    }
}

/// 64 labels at k = 8 address about 2.9 · 10^14 paths, past the 2^48 the
/// path encoding can index: both `EstimatorSnapshot::restore` and
/// `ServableEstimator::from_snapshot` refuse the snapshot.
#[test]
fn an_unaddressable_domain_is_refused_by_both_entry_points() {
    let text = snapshot_text((4, 3, 8, 4, 3), &[(0, 0, 1), (1, 1, 2)], false);
    let mut snapshot: EstimatorSnapshot = serde_json::from_str(&text).unwrap();
    snapshot.label_names = (0..64).map(|i| format!("l{i}")).collect();
    snapshot.label_frequencies = vec![1; 64];
    snapshot.k = 8;
    let text = serde_json::to_string(&snapshot).unwrap();
    check_restored(&text).unwrap();
    let snapshot: EstimatorSnapshot = serde_json::from_str(&text).unwrap();
    assert!(ServableEstimator::from_snapshot(&snapshot).is_err());
    assert!(snapshot.restore().is_err());
}
