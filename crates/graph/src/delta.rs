//! Edge-level graph deltas: the unit of incremental maintenance.
//!
//! A [`GraphDelta`] is a batch of edge insertions and removals against a
//! specific [`Graph`]. Applying it ([`Graph::apply_delta`]) produces a new
//! immutable graph, rebuilding only the CSR pairs of the labels the delta
//! touches — the untouched labels' adjacency is reused as-is — and
//! carrying the graph's fingerprint and follow counts forward at the
//! changed edges and their endpoints. The delta is
//! the input the incremental estimator-maintenance pipeline
//! (`phe-pathenum`'s delta counting, `phe-core`'s `apply_delta`) is built
//! around, so its contract is strict by design:
//!
//! * every **removal** must name an edge present in the base graph;
//! * every **insertion** must name an edge absent from the base graph
//!   *after* removals are applied (removing and re-inserting the same
//!   edge is legal and nets out);
//! * labels are resolved against the base graph's alphabet — a delta
//!   **cannot introduce new labels**, because the canonical path encoding
//!   (and with it every sparse catalog entry) is pinned to `|L|`. A
//!   label-set change requires a full rebuild.
//!
//! Violations are reported as [`GraphError::Delta`] instead of silently
//! fixing themselves up, because a forgiving apply would let a delta that
//! was computed against the *wrong* base graph corrupt downstream counts
//! without a trace.
//!
//! The on-disk format mirrors the graph TSV: one change per line,
//! `+<TAB>src<TAB>label<TAB>dst` for insertions and
//! `-<TAB>src<TAB>label<TAB>dst` for removals ([`read_changes`] /
//! [`write_changes`]).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::csr::Csr;
use crate::error::GraphError;
use crate::follow::FollowCounts;
use crate::graph::{edge_hash, Graph};
use crate::ids::{LabelId, VertexId};

/// One directed labeled edge, as named by a delta.
pub type DeltaEdge = (VertexId, LabelId, VertexId);

/// A batch of edge insertions and removals against a base graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    insertions: Vec<DeltaEdge>,
    removals: Vec<DeltaEdge>,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> GraphDelta {
        GraphDelta::default()
    }

    /// Records an edge to insert.
    pub fn insert(&mut self, src: VertexId, label: LabelId, dst: VertexId) {
        self.insertions.push((src, label, dst));
    }

    /// Records an edge to remove.
    pub fn remove(&mut self, src: VertexId, label: LabelId, dst: VertexId) {
        self.removals.push((src, label, dst));
    }

    /// The recorded insertions, in insertion order.
    pub fn insertions(&self) -> &[DeltaEdge] {
        &self.insertions
    }

    /// The recorded removals, in insertion order.
    pub fn removals(&self) -> &[DeltaEdge] {
        &self.removals
    }

    /// Total number of changed edges (insertions + removals).
    pub fn edge_count(&self) -> usize {
        self.insertions.len() + self.removals.len()
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.removals.is_empty()
    }

    /// The labels this delta touches, sorted and duplicate-free.
    pub fn dirty_labels(&self) -> Vec<LabelId> {
        let mut labels: Vec<LabelId> = self
            .insertions
            .iter()
            .chain(&self.removals)
            .map(|&(_, l, _)| l)
            .collect();
        labels.sort_unstable_by_key(|l| l.0);
        labels.dedup();
        labels
    }

    /// Per-label sorted, duplicate-free source vertices of changed edges,
    /// indexed by label id. This is the set the delta path counter tests
    /// relation targets against: a composition `R ∘ E_l` can differ
    /// between the old and new graph only where `targets(R)` meets a
    /// changed `l`-edge source.
    pub fn changed_sources_by_label(&self, label_count: usize) -> Vec<Vec<u32>> {
        let mut sources = vec![Vec::new(); label_count];
        for &(s, l, _) in self.insertions.iter().chain(&self.removals) {
            if let Some(bucket) = sources.get_mut(l.index()) {
                bucket.push(s.0);
            }
        }
        for bucket in &mut sources {
            bucket.sort_unstable();
            bucket.dedup();
        }
        sources
    }

    /// The largest vertex id mentioned by the delta, if any.
    pub fn max_vertex(&self) -> Option<u32> {
        self.insertions
            .iter()
            .chain(&self.removals)
            .flat_map(|&(s, _, t)| [s.0, t.0])
            .max()
    }

    /// Folds a sequence of deltas into the single delta with the same net
    /// effect: applying the result to the base graph produces the same
    /// graph as applying the `batches` one after another (each valid
    /// against the graph the previous one produced).
    ///
    /// This is what turns N queued maintenance batches into **one**
    /// counting pass. Per edge, only the first and last operation in the
    /// combined sequence matter — the contract guarantees operations on
    /// one edge alternate (remove is only legal on a present edge, insert
    /// only on an absent one), so the first op pins the edge's state in
    /// the base graph and the last op pins its final state:
    ///
    /// * first `-`, last `-` → present → absent: net **removal**;
    /// * first `+`, last `+` → absent → present: net **insertion**;
    /// * first `-`, last `+` → present → present: cancels (remove then
    ///   re-insert restores the base edge);
    /// * first `+`, last `-` → absent → absent: cancels (the
    ///   insert-then-remove pair never existed as far as the base graph
    ///   is concerned).
    ///
    /// Edges are emitted in first-touch order, so composition is
    /// deterministic. Composing a sequence that was not sequentially
    /// valid is not detected here — the composed delta simply fails
    /// [`Graph::apply_delta`]'s contract checks the same way the original
    /// sequence would have.
    pub fn compose(batches: &[GraphDelta]) -> GraphDelta {
        // first-touch order of edge keys → (first op, last op).
        let mut order: Vec<(u32, u16, u32)> = Vec::new();
        let mut net: HashMap<(u32, u16, u32), (bool, bool)> = HashMap::new();
        let mut visit = |key: (u32, u16, u32), is_insert: bool| match net.entry(key) {
            Entry::Vacant(slot) => {
                slot.insert((is_insert, is_insert));
                order.push(key);
            }
            Entry::Occupied(mut slot) => slot.get_mut().1 = is_insert,
        };
        for batch in batches {
            // Mirror apply order: removals land before insertions, so a
            // remove-then-reinsert pair within one batch reads `-` first.
            for &(s, l, t) in &batch.removals {
                visit((s.0, l.0, t.0), false);
            }
            for &(s, l, t) in &batch.insertions {
                visit((s.0, l.0, t.0), true);
            }
        }
        let mut composed = GraphDelta::new();
        for key in order {
            let (s, l, t) = (VertexId(key.0), LabelId(key.1), VertexId(key.2));
            match net[&key] {
                (false, false) => composed.remove(s, l, t),
                (true, true) => composed.insert(s, l, t),
                _ => {} // insert-then-remove / remove-then-reinsert cancel
            }
        }
        composed
    }
}

impl Graph {
    /// Applies a delta, producing a new graph. Only the CSR pairs of
    /// labels the delta touches are rebuilt; untouched labels share this
    /// graph's CSRs, or get a row-padded copy when insertions grow `|V|`.
    ///
    /// The new graph inherits this graph's [`Graph::fingerprint`] and
    /// [`Graph::follow_counts`] updated in O(|Δ|·|L|): the fingerprint's
    /// edge-hash sum loses each removal's hash and gains each insertion's
    /// (exact, because the contract makes every removal present and every
    /// insertion absent), and the follow counts change only at the
    /// delta's endpoint vertices, the only ones whose in/out label sets a
    /// changed edge can alter. This graph's caches are computed first if
    /// it has none yet.
    ///
    /// # Errors
    /// [`GraphError::Delta`] when the delta violates its contract: a
    /// removal of an absent edge, an insertion of a present edge, a
    /// duplicate change, a label id outside this graph's alphabet (a
    /// delta cannot extend the label set — that requires a full rebuild),
    /// or a vertex id of `u32::MAX` (the vertex count is a `u32`, so ids
    /// run below it).
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<Graph, GraphError> {
        let vertex_count = match delta.max_vertex() {
            None => self.vertex_count() as u32,
            Some(max) => max
                .checked_add(1)
                .ok_or_else(|| GraphError::Delta {
                    message: format!("vertex id {max} out of range (ids must be below {max})"),
                })?
                .max(self.vertex_count() as u32),
        };
        let label_count = self.label_count();
        let check_label = |l: LabelId| -> Result<(), GraphError> {
            if l.index() >= label_count {
                return Err(GraphError::Delta {
                    message: format!(
                        "label id {l} outside the graph's alphabet of {label_count} \
                         (a delta cannot introduce labels; full rebuild required)"
                    ),
                });
            }
            Ok(())
        };

        // An edge mentioning a vertex beyond the current set cannot be
        // present (insertions to such vertices are how the graph grows).
        let in_range = |v: VertexId| (v.0 as usize) < self.vertex_count();
        let present = |s: VertexId, l: LabelId, t: VertexId| {
            in_range(s) && in_range(t) && self.has_edge(s, l, t)
        };

        // Validate removals: present and not duplicated.
        let mut removed: HashSet<(u32, u16, u32)> = HashSet::with_capacity(delta.removals.len());
        for &(s, l, t) in &delta.removals {
            check_label(l)?;
            if !present(s, l, t) {
                return Err(GraphError::Delta {
                    message: format!("removal of absent edge {s} -{l}-> {t}"),
                });
            }
            if !removed.insert((s.0, l.0, t.0)) {
                return Err(GraphError::Delta {
                    message: format!("duplicate removal of edge {s} -{l}-> {t}"),
                });
            }
        }
        // Validate insertions: absent after removals and not duplicated.
        let mut inserted: HashSet<(u32, u16, u32)> = HashSet::with_capacity(delta.insertions.len());
        for &(s, l, t) in &delta.insertions {
            check_label(l)?;
            if present(s, l, t) && !removed.contains(&(s.0, l.0, t.0)) {
                return Err(GraphError::Delta {
                    message: format!("insertion of already-present edge {s} -{l}-> {t}"),
                });
            }
            if !inserted.insert((s.0, l.0, t.0)) {
                return Err(GraphError::Delta {
                    message: format!("duplicate insertion of edge {s} -{l}-> {t}"),
                });
            }
        }

        let mut dirty = vec![false; label_count];
        for l in delta.dirty_labels() {
            dirty[l.index()] = true;
        }

        let grows = vertex_count as usize > self.vertex_count();
        let untouched = |csr: &Arc<Csr>| {
            if grows {
                Arc::new(csr.with_rows(vertex_count as usize))
            } else {
                Arc::clone(csr)
            }
        };
        let mut forward = Vec::with_capacity(label_count);
        let mut reverse = Vec::with_capacity(label_count);
        for l in self.label_ids() {
            if !dirty[l.index()] {
                forward.push(untouched(self.forward_arc(l)));
                reverse.push(untouched(self.reverse_arc(l)));
                continue;
            }
            let mut pairs: Vec<(u32, u32)> = self
                .forward_csr(l)
                .iter_edges()
                .map(|(s, t)| (s.0, t.0))
                .filter(|&(s, t)| !removed.contains(&(s, l.0, t)))
                .collect();
            pairs.extend(
                delta
                    .insertions
                    .iter()
                    .filter(|&&(_, il, _)| il == l)
                    .map(|&(s, _, t)| (s.0, t.0)),
            );
            let rev_pairs: Vec<(u32, u32)> = pairs.iter().map(|&(s, t)| (t, s)).collect();
            forward.push(Arc::new(Csr::from_pairs(vertex_count as usize, pairs)));
            reverse.push(Arc::new(Csr::from_pairs(vertex_count as usize, rev_pairs)));
        }
        let graph = Graph::from_parts(vertex_count, self.labels().clone(), forward, reverse);

        let hash_sum = delta
            .removals
            .iter()
            .fold(self.edge_hash_sum(), |sum, &(s, l, t)| {
                sum.wrapping_sub(edge_hash(s, l, t))
            });
        let hash_sum = delta.insertions.iter().fold(hash_sum, |sum, &(s, l, t)| {
            sum.wrapping_add(edge_hash(s, l, t))
        });
        let follow_counts = FollowCounts::carried(self, &graph, delta);
        Ok(graph.with_caches(hash_sum, follow_counts))
    }
}

/// Reads a changes file against `graph` (whose interner resolves label
/// names). Lines are `+<TAB>src<TAB>label<TAB>dst` or
/// `-<TAB>src<TAB>label<TAB>dst`; blanks and `#` comments are skipped.
///
/// # Errors
/// [`GraphError::Parse`] for malformed lines and for label names absent
/// from the graph's alphabet — a delta cannot introduce labels, because
/// every derived sparse-catalog index is pinned to the current `|L|`.
pub fn read_changes(reader: impl Read, graph: &Graph) -> Result<GraphDelta, GraphError> {
    let reader = BufReader::new(reader);
    let mut delta = GraphDelta::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split('\t');
        let op = parts.next().unwrap_or_default();
        let parse_field = |field: Option<&str>, what: &str| -> Result<u32, GraphError> {
            field
                .ok_or_else(|| GraphError::Parse {
                    line: line_no,
                    message: format!("missing {what} field"),
                })?
                .parse::<u32>()
                .map_err(|e| GraphError::Parse {
                    line: line_no,
                    message: format!("invalid {what} vertex id: {e}"),
                })
        };
        let src = parse_field(parts.next(), "source")?;
        let name = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: "missing label field".into(),
            })?;
        let dst = parse_field(parts.next(), "target")?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "more than four tab-separated fields".into(),
            });
        }
        let label = graph.labels().get(name).ok_or_else(|| GraphError::Parse {
            line: line_no,
            message: format!(
                "unknown label {name:?} (a delta cannot introduce labels; \
                 full rebuild required)"
            ),
        })?;
        match op {
            "+" => delta.insert(VertexId(src), label, VertexId(dst)),
            "-" => delta.remove(VertexId(src), label, VertexId(dst)),
            other => {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!("change op must be \"+\" or \"-\", got {other:?}"),
                })
            }
        }
    }
    Ok(delta)
}

/// Reads a changes file from `path`. See [`read_changes`].
pub fn read_changes_path(path: impl AsRef<Path>, graph: &Graph) -> Result<GraphDelta, GraphError> {
    let file = File::open(path)?;
    read_changes(BufReader::new(file), graph)
}

/// Writes a delta as a changes file (removals first, matching apply
/// order). Round-trips through [`read_changes`].
///
/// # Errors
/// [`GraphError::Delta`] when the delta names a label id outside
/// `graph`'s alphabet (the lines before it are already written);
/// [`GraphError::Io`] when the writer fails.
pub fn write_changes(
    delta: &GraphDelta,
    graph: &Graph,
    mut writer: impl Write,
) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# {} removals, {} insertions",
        delta.removals().len(),
        delta.insertions().len()
    )?;
    let name = |l: LabelId| {
        graph.labels().name(l).ok_or_else(|| GraphError::Delta {
            message: format!(
                "label id {l} outside the graph's alphabet of {}",
                graph.label_count()
            ),
        })
    };
    for &(s, l, t) in delta.removals() {
        writeln!(writer, "-\t{}\t{}\t{}", s.0, name(l)?, t.0)?;
    }
    for &(s, l, t) in delta.insertions() {
        writeln!(writer, "+\t{}\t{}\t{}", s.0, name(l)?, t.0)?;
    }
    writer.flush()?;
    Ok(())
}

/// Writes a delta as a changes file at `path`. See [`write_changes`].
pub fn write_changes_path(
    delta: &GraphDelta,
    graph: &Graph,
    path: impl AsRef<Path>,
) -> Result<(), GraphError> {
    let file = File::create(path)?;
    write_changes(delta, graph, BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn l(x: u16) -> LabelId {
        LabelId(x)
    }
    fn v(x: u32) -> VertexId {
        VertexId(x)
    }

    fn base() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_edge_named(0, "a", 1);
        b.add_edge_named(0, "a", 2);
        b.add_edge_named(1, "b", 2);
        b.build()
    }

    #[test]
    fn apply_inserts_and_removes() {
        let g = base();
        let mut delta = GraphDelta::new();
        delta.remove(v(0), l(0), v(1));
        delta.insert(v(2), l(1), v(0));
        let g2 = g.apply_delta(&delta).unwrap();
        assert_eq!(g2.edge_count(), 3);
        assert!(!g2.has_edge(v(0), l(0), v(1)));
        assert!(g2.has_edge(v(0), l(0), v(2)), "untouched edge survives");
        assert!(g2.has_edge(v(2), l(1), v(0)));
        // Reverse adjacency is rebuilt consistently.
        assert_eq!(g2.in_neighbors(v(0), l(1)), &[v(2)]);
        // The base graph is untouched.
        assert!(g.has_edge(v(0), l(0), v(1)));
    }

    #[test]
    fn apply_grows_vertex_count() {
        let g = base();
        let mut delta = GraphDelta::new();
        delta.insert(v(1), l(0), v(9));
        let g2 = g.apply_delta(&delta).unwrap();
        assert_eq!(g2.vertex_count(), 10);
        assert!(g2.has_edge(v(1), l(0), v(9)));
        // The untouched label's CSR covers the new rows.
        assert_eq!(g2.out_neighbors(v(9), l(1)), &[] as &[VertexId]);
    }

    #[test]
    fn untouched_labels_share_the_base_csrs() {
        let g = base();
        let mut delta = GraphDelta::new();
        delta.remove(v(0), l(0), v(1));
        let g2 = g.apply_delta(&delta).unwrap();
        assert!(Arc::ptr_eq(g.forward_arc(l(1)), g2.forward_arc(l(1))));
        assert!(Arc::ptr_eq(g.reverse_arc(l(1)), g2.reverse_arc(l(1))));
        assert!(!Arc::ptr_eq(g.forward_arc(l(0)), g2.forward_arc(l(0))));
        // Growing the vertex set pads, so it cannot share.
        let mut grow = GraphDelta::new();
        grow.insert(v(1), l(0), v(9));
        let g3 = g.apply_delta(&grow).unwrap();
        assert!(!Arc::ptr_eq(g.forward_arc(l(1)), g3.forward_arc(l(1))));
        // Sharing is invisible on the wire.
        let mut fresh = GraphBuilder::new();
        for (s, lab, t) in g2.iter_edges() {
            fresh.add_edge_named(s.0, g2.labels().name(lab).unwrap(), t.0);
        }
        assert_eq!(
            serde::Serialize::to_value(&g2),
            serde::Serialize::to_value(&fresh.build())
        );
    }

    #[test]
    fn remove_then_reinsert_is_legal() {
        let g = base();
        let mut delta = GraphDelta::new();
        delta.remove(v(0), l(0), v(1));
        delta.insert(v(0), l(0), v(1));
        let g2 = g.apply_delta(&delta).unwrap();
        assert_eq!(g2.edge_count(), g.edge_count());
        assert!(g2.has_edge(v(0), l(0), v(1)));
    }

    #[test]
    fn contract_violations_are_errors() {
        let g = base();
        let mut removal_of_absent = GraphDelta::new();
        removal_of_absent.remove(v(0), l(1), v(1));
        assert!(matches!(
            g.apply_delta(&removal_of_absent),
            Err(GraphError::Delta { .. })
        ));

        let mut insert_present = GraphDelta::new();
        insert_present.insert(v(0), l(0), v(1));
        assert!(matches!(
            g.apply_delta(&insert_present),
            Err(GraphError::Delta { .. })
        ));

        let mut unknown_label = GraphDelta::new();
        unknown_label.insert(v(0), l(7), v(1));
        let err = g.apply_delta(&unknown_label).unwrap_err();
        assert!(err.to_string().contains("full rebuild"), "{err}");

        let mut duplicate = GraphDelta::new();
        duplicate.insert(v(2), l(0), v(0));
        duplicate.insert(v(2), l(0), v(0));
        assert!(matches!(
            g.apply_delta(&duplicate),
            Err(GraphError::Delta { .. })
        ));
    }

    #[test]
    fn vertex_id_u32_max_is_a_contract_violation() {
        let g = base();
        // A vertex count is a `u32`, so `u32::MAX` can name no vertex;
        // `u32::MAX + 1` rows would not fit the count.
        for (s, t) in [(u32::MAX, 0), (0, u32::MAX)] {
            let mut insert = GraphDelta::new();
            insert.insert(v(s), l(0), v(t));
            let err = g.apply_delta(&insert).unwrap_err();
            assert!(matches!(err, GraphError::Delta { .. }), "{err}");
            assert!(err.to_string().contains("4294967295"), "{err}");
        }
        // One id below is a vertex a graph can hold: removing an edge
        // there is the ordinary absent-edge violation.
        let mut remove = GraphDelta::new();
        remove.remove(v(u32::MAX - 1), l(0), v(0));
        let err = g.apply_delta(&remove).unwrap_err();
        assert!(err.to_string().contains("absent edge"), "{err}");
    }

    #[test]
    fn writers_report_labels_outside_the_alphabet() {
        let g = base();
        let mut delta = GraphDelta::new();
        delta.insert(v(0), l(7), v(1));
        let err = write_changes(&delta, &g, Vec::new()).unwrap_err();
        assert!(matches!(err, GraphError::Delta { .. }), "{err}");
    }

    #[test]
    fn dirty_labels_and_changed_sources() {
        let mut delta = GraphDelta::new();
        delta.insert(v(3), l(1), v(4));
        delta.remove(v(1), l(1), v(2));
        delta.insert(v(0), l(0), v(3));
        assert_eq!(delta.dirty_labels(), vec![l(0), l(1)]);
        let sources = delta.changed_sources_by_label(3);
        assert_eq!(sources[0], vec![0]);
        assert_eq!(sources[1], vec![1, 3]);
        assert!(sources[2].is_empty());
        assert_eq!(delta.edge_count(), 3);
        assert_eq!(delta.max_vertex(), Some(4));
    }

    #[test]
    fn compose_cancels_insert_then_remove() {
        let g = base();
        // Batch 1 inserts a new edge; batch 2 removes it again and also
        // removes a base edge. Net: only the base-edge removal survives.
        let mut b1 = GraphDelta::new();
        b1.insert(v(2), l(1), v(0));
        let mut b2 = GraphDelta::new();
        b2.remove(v(2), l(1), v(0));
        b2.remove(v(1), l(1), v(2));
        let composed = GraphDelta::compose(&[b1.clone(), b2.clone()]);
        let mut expected = GraphDelta::new();
        expected.remove(v(1), l(1), v(2));
        assert_eq!(composed, expected);
        let sequential = g.apply_delta(&b1).unwrap().apply_delta(&b2).unwrap();
        let compacted = g.apply_delta(&composed).unwrap();
        assert_eq!(
            sequential
                .forward_csr(l(1))
                .iter_edges()
                .collect::<Vec<_>>(),
            compacted.forward_csr(l(1)).iter_edges().collect::<Vec<_>>(),
        );
    }

    #[test]
    fn compose_cancels_remove_then_reinsert_across_batches() {
        let g = base();
        let mut b1 = GraphDelta::new();
        b1.remove(v(0), l(0), v(1));
        let mut b2 = GraphDelta::new();
        b2.insert(v(0), l(0), v(1));
        let composed = GraphDelta::compose(&[b1, b2]);
        assert!(composed.is_empty(), "restoring a base edge nets to nothing");
        assert_eq!(g.apply_delta(&composed).unwrap().edge_count(), 3);
    }

    #[test]
    fn compose_keeps_first_and_last_state() {
        // -, +, - over three batches: present → absent. Net removal.
        let mut b1 = GraphDelta::new();
        b1.remove(v(0), l(0), v(1));
        let mut b2 = GraphDelta::new();
        b2.insert(v(0), l(0), v(1));
        let mut b3 = GraphDelta::new();
        b3.remove(v(0), l(0), v(1));
        let composed = GraphDelta::compose(&[b1, b2, b3]);
        let mut expected = GraphDelta::new();
        expected.remove(v(0), l(0), v(1));
        assert_eq!(composed, expected);
        // +, -, + : absent → present. Net insertion.
        let mut c1 = GraphDelta::new();
        c1.insert(v(5), l(1), v(6));
        let mut c2 = GraphDelta::new();
        c2.remove(v(5), l(1), v(6));
        let mut c3 = GraphDelta::new();
        c3.insert(v(5), l(1), v(6));
        let composed = GraphDelta::compose(&[c1, c2, c3]);
        let mut expected = GraphDelta::new();
        expected.insert(v(5), l(1), v(6));
        assert_eq!(composed, expected);
        assert_eq!(GraphDelta::compose(&[]), GraphDelta::new());
    }

    #[test]
    fn changes_round_trip() {
        let g = base();
        let mut delta = GraphDelta::new();
        delta.remove(v(1), l(1), v(2));
        delta.insert(v(2), l(0), v(0));
        let mut out = Vec::new();
        write_changes(&delta, &g, &mut out).unwrap();
        let parsed = read_changes(out.as_slice(), &g).unwrap();
        assert_eq!(parsed, delta);
    }

    #[test]
    fn changes_parse_errors() {
        let g = base();
        for bad in [
            "?\t0\ta\t1\n",       // bad op
            "+\t0\ta\n",          // missing target
            "+\t0\tnope\t1\n",    // unknown label
            "+\tx\ta\t1\n",       // bad vertex
            "+\t0\ta\t1\tjunk\n", // extra field
            "+\t0\t\t1\n",        // empty label
        ] {
            let err = read_changes(bad.as_bytes(), &g).unwrap_err();
            assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{bad:?}");
        }
        // Comments and blanks are fine.
        let delta = read_changes("# nothing\n\n".as_bytes(), &g).unwrap();
        assert!(delta.is_empty());
    }
}
