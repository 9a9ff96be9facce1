//! Mutation property for changes files: `write_changes` output, damaged
//! by bit flips, truncations and splices, must either fail to parse with
//! a structured error or parse to a delta that round-trips through
//! `write_changes`; and applying any delta that parses must return `Ok`
//! or `GraphError::Delta`, never panic.

use phe_graph::delta::{read_changes, write_changes};
use phe_graph::{Graph, GraphBuilder, GraphDelta, GraphError, LabelId, VertexId};
use proptest::prelude::*;

const LABELS: u16 = 4;
const VERTICES: u32 = 20;

/// Vertex ids a delta may name, the two largest `u32` values included.
fn vertex() -> impl Strategy<Value = u32> {
    (0..VERTICES + 2).prop_map(|v| match v {
        VERTICES => u32::MAX - 1,
        v if v > VERTICES => u32::MAX,
        v => v,
    })
}

/// `(insert?, src, label, dst)` changes, valid or not against the base.
fn changes() -> impl Strategy<Value = Vec<(bool, u32, u16, u32)>> {
    prop::collection::vec((0u8..2, vertex(), 0..LABELS, vertex()), 0..12).prop_map(|v| {
        v.into_iter()
            .map(|(op, s, l, t)| (op == 1, s, l, t))
            .collect()
    })
}

/// One damage step: `(kind, position, length, fragment)`.
fn mutations() -> impl Strategy<Value = Vec<(u8, u64, u64, usize)>> {
    prop::collection::vec((0u8..3, 0u64..u64::MAX, 0u64..16, 0..FRAGMENTS.len()), 0..4)
}

/// Bytes a splice writes in: field and line separators, ops, the ids at
/// and past the top of the `u32` range, a negative id, an unknown label
/// and a byte that is not UTF-8.
const FRAGMENTS: [&[u8]; 10] = [
    b"\t",
    b"\n",
    b"+",
    b"-",
    b"4294967294",
    b"4294967295",
    b"4294967296",
    b"-1",
    b"L9",
    b"\xff",
];

fn base(edges: &[(u32, u16, u32)]) -> Graph {
    let mut b = GraphBuilder::new();
    for l in 0..LABELS {
        b.intern_label(&format!("L{l}"));
    }
    for &(s, l, t) in edges {
        b.add_edge(VertexId(s), LabelId(l), VertexId(t));
    }
    b.ensure_vertices(VERTICES);
    b.build()
}

fn damage(bytes: &mut Vec<u8>, (kind, position, length, fragment): (u8, u64, u64, usize)) {
    let at = (position % (bytes.len() as u64 + 1)) as usize;
    match kind {
        0 if at < bytes.len() => bytes[at] ^= 1 << (length % 8),
        1 => bytes.truncate(at),
        _ => {
            let end = (at + length as usize).min(bytes.len());
            bytes.splice(at..end, FRAGMENTS[fragment].iter().copied());
        }
    }
}

/// Whether applying `delta` stays small: a valid insertion at a vertex
/// near `u32::MAX` grows the graph to billions of rows per label (tens
/// of GiB), so such deltas are checked for parsing and round-trip only.
/// A delta naming `u32::MAX` itself is refused before any allocation.
fn cheap_to_apply(delta: &GraphDelta) -> bool {
    delta.max_vertex() == Some(u32::MAX)
        || delta
            .insertions()
            .iter()
            .all(|&(s, _, t)| s.0 < 4 * VERTICES && t.0 < 4 * VERTICES)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_changes_files_parse_or_fail_cleanly(
        edges in prop::collection::vec((0..VERTICES, 0..LABELS, 0..VERTICES), 0..60),
        changes in changes(),
        steps in mutations(),
    ) {
        let graph = base(&edges);
        let mut delta = GraphDelta::new();
        for &(insert, s, l, t) in &changes {
            if insert {
                delta.insert(VertexId(s), LabelId(l), VertexId(t));
            } else {
                delta.remove(VertexId(s), LabelId(l), VertexId(t));
            }
        }
        let mut bytes = Vec::new();
        write_changes(&delta, &graph, &mut bytes).expect("every label is interned");
        prop_assert_eq!(
            &read_changes(&bytes[..], &graph).expect("unmutated output parses"),
            &delta
        );
        for &step in &steps {
            damage(&mut bytes, step);
        }

        match read_changes(&bytes[..], &graph) {
            Err(GraphError::Parse { line, message }) => {
                prop_assert!(line >= 1 && !message.is_empty(), "line {} {:?}", line, message);
            }
            // Invalid UTF-8 surfaces from the line reader.
            Err(GraphError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
            }
            Err(other) => prop_assert!(false, "unstructured parse error: {other:?}"),
            Ok(parsed) => {
                let mut again = Vec::new();
                write_changes(&parsed, &graph, &mut again).expect("parsed labels are interned");
                prop_assert_eq!(
                    &read_changes(&again[..], &graph).expect("rewritten file parses"),
                    &parsed
                );
                if cheap_to_apply(&parsed) {
                    match graph.apply_delta(&parsed) {
                        Ok(_) | Err(GraphError::Delta { .. }) => {}
                        Err(other) => prop_assert!(false, "apply_delta: {other:?}"),
                    }
                }
            }
        }
    }
}
