//! Mutation property for changes files: `write_changes` output, damaged
//! by bit flips, truncations and splices, must either fail to parse with
//! a structured error or parse to a delta that round-trips through
//! `write_changes`; and applying any delta that parses must return `Ok`
//! or `GraphError::Delta`, never panic.
//!
//! Carried-state property: over chains of valid deltas, the fingerprint
//! and follow counts `Graph::apply_delta` carries forward equal those of
//! the same edge set rebuilt from scratch.

use std::collections::BTreeSet;

use phe_graph::delta::{read_changes, write_changes};
use phe_graph::{FollowMatrix, Graph, GraphBuilder, GraphDelta, GraphError, LabelId, VertexId};
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
    built(edges, VERTICES)
}

/// A fresh graph over `edges` and at least `vertices` vertices, its
/// caches computed from scratch on first use.
fn built(edges: &[(u32, u16, u32)], vertices: u32) -> Graph {
    let mut b = GraphBuilder::new();
    for l in 0..LABELS {
        b.intern_label(&format!("L{l}"));
    }
    for &(s, l, t) in edges {
        b.add_edge(VertexId(s), LabelId(l), VertexId(t));
    }
    b.ensure_vertices(vertices);
    b.build()
}

fn edge_list(graph: &Graph) -> Vec<(u32, u16, u32)> {
    graph
        .iter_edges()
        .map(|(s, l, t)| (s.0, l.0, t.0))
        .collect()
}

/// A delta valid against `graph` from raw `(insert?, a, label, b)`
/// picks: a removal takes the `a`-th present edge (modulo the edge
/// count), an insertion names `a -label-> b` when that edge is absent
/// after the removals. Ids run to twice the base vertex count, so
/// insertions grow the vertex set.
fn valid_delta(graph: &Graph, picks: &[(bool, u32, u16, u32)]) -> GraphDelta {
    let edges = edge_list(graph);
    let mut present: BTreeSet<(u32, u16, u32)> = edges.iter().copied().collect();
    let (mut removed, mut inserted) = (BTreeSet::new(), BTreeSet::new());
    for &(insert, a, l, b) in picks {
        if !insert && !edges.is_empty() {
            let edge = edges[a as usize % edges.len()];
            if present.remove(&edge) {
                removed.insert(edge);
            }
        } else if insert && present.insert((a, l, b)) {
            inserted.insert((a, l, b));
        }
    }
    let mut delta = GraphDelta::new();
    for &(s, l, t) in &removed {
        delta.remove(VertexId(s), LabelId(l), VertexId(t));
    }
    for &(s, l, t) in &inserted {
        delta.insert(VertexId(s), LabelId(l), VertexId(t));
    }
    delta
}

/// Picks for one delta of a chain.
fn picks() -> impl Strategy<Value = Vec<(bool, u32, u16, u32)>> {
    prop::collection::vec((0u8..2, 0..2 * VERTICES, 0..LABELS, 0..2 * VERTICES), 0..10).prop_map(
        |v| {
            v.into_iter()
                .map(|(op, a, l, b)| (op == 1, a, l, b))
                .collect()
        },
    )
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

    #[test]
    fn carried_fingerprint_and_follow_counts_equal_a_rebuild(
        edges in prop::collection::vec((0..VERTICES, 0..LABELS, 0..VERTICES), 0..60),
        chain in prop::collection::vec(picks(), 1..6),
    ) {
        let mut graph = base(&edges);
        for step in &chain {
            let delta = valid_delta(&graph, step);
            graph = graph.apply_delta(&delta).expect("valid by construction");
            let rebuilt = built(&edge_list(&graph), graph.vertex_count() as u32);
            prop_assert_eq!(rebuilt.vertex_count(), graph.vertex_count());
            prop_assert_eq!(graph.fingerprint(), rebuilt.fingerprint());
            prop_assert_eq!(graph.follow_counts(), rebuilt.follow_counts());
            prop_assert_eq!(FollowMatrix::from_graph(&graph), FollowMatrix::from_graph(&rebuilt));
        }

        // One rewired edge — same edge and label counts, one target
        // moved — changes the fingerprint, and so does one more vertex.
        let mut rewired = edge_list(&graph);
        if let Some(&(s, l, t)) = rewired.first() {
            let n = graph.vertex_count() as u32;
            let moved = (1..n)
                .map(|step| (t + step) % n)
                .find(|&t2| !rewired.contains(&(s, l, t2)));
            if let Some(t2) = moved {
                rewired[0] = (s, l, t2);
                let other = built(&rewired, n);
                prop_assert_eq!(other.edge_count(), graph.edge_count());
                prop_assert_ne!(other.fingerprint(), graph.fingerprint());
            }
        }
        let grown = built(&edge_list(&graph), graph.vertex_count() as u32 + 1);
        prop_assert_ne!(grown.fingerprint(), graph.fingerprint());
    }
}
