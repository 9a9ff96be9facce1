//! Reading and writing edge lists in tab-separated format.
//!
//! The format is one edge per line, `src <TAB> label <TAB> dst`, where
//! `src`/`dst` are non-negative integers and `label` is an arbitrary
//! tab-free string. Empty lines and lines starting with `#` are skipped.
//! This matches common edge-list exports (KONECT, SNAP) after trivial
//! reshaping, and round-trips through [`write_tsv`] / [`read_tsv`].

use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::Graph;

/// Reads a graph from a TSV edge-list file.
pub fn read_tsv_path(path: impl AsRef<Path>) -> Result<Graph, GraphError> {
    let file = File::open(path)?;
    read_tsv(BufReader::new(file))
}

/// Reads a graph from any buffered reader of TSV edge lines.
pub fn read_tsv(reader: impl Read) -> Result<Graph, GraphError> {
    let reader = BufReader::new(reader);
    let mut builder = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split('\t');
        let src = parse_vertex(parts.next(), line_no, "source")?;
        let label = parts
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| GraphError::Parse {
                line: line_no,
                message: "missing label field".into(),
            })?;
        let dst = parse_vertex(parts.next(), line_no, "target")?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: line_no,
                message: "more than three tab-separated fields".into(),
            });
        }
        builder.add_edge_named(src, label, dst);
    }
    Ok(builder.build())
}

fn parse_vertex(field: Option<&str>, line: usize, what: &str) -> Result<u32, GraphError> {
    let field = field.ok_or_else(|| GraphError::Parse {
        line,
        message: format!("missing {what} field"),
    })?;
    field.parse::<u32>().map_err(|e| GraphError::Parse {
        line,
        message: format!("invalid {what} vertex id {field:?}: {e}"),
    })
}

/// Writes a graph as a TSV edge list to `path`.
pub fn write_tsv_path(graph: &Graph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    let file = File::create(path)?;
    write_tsv(graph, BufWriter::new(file))
}

/// Writes a graph as a TSV edge list (one `src\tlabel\tdst` line per edge,
/// grouped by label, sources ascending).
pub fn write_tsv(graph: &Graph, mut writer: impl Write) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# {} vertices, {} edges, {} labels",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    )?;
    for (label, name) in graph.labels().iter() {
        for (src, dst) in graph.forward_csr(label).iter_edges() {
            writeln!(writer, "{}\t{}\t{}", src.0, name, dst.0)?;
        }
    }
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LabelId, VertexId};

    #[test]
    fn read_simple() {
        let input = "0\ta\t1\n1\tb\t2\n";
        let g = read_tsv(input.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.labels().get("a"), Some(LabelId(0)));
    }

    #[test]
    fn skips_comments_and_blanks() {
        let input = "# header\n\n0\ta\t1\n   \n# trailing\n";
        let g = read_tsv(input.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn rejects_missing_fields() {
        let err = read_tsv("0\ta\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains("target"), "{message}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_vertex() {
        let err = read_tsv("x\ta\t1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_extra_fields() {
        let err = read_tsv("0\ta\t1\tjunk\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_empty_label() {
        let err = read_tsv("0\t\t1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn round_trip_preserves_graph() {
        let input = "3\tknows\t1\n0\tlikes\t2\n1\tknows\t3\n0\tknows\t0\n";
        let g = read_tsv(input.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_tsv(&g, &mut out).unwrap();
        let g2 = read_tsv(out.as_slice()).unwrap();
        assert_eq!(g.vertex_count(), g2.vertex_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        assert_eq!(g.label_count(), g2.label_count());
        for (s, l, t) in g.iter_edges() {
            let name = g.labels().name(l).unwrap();
            let l2 = g2.labels().get(name).unwrap();
            assert!(g2.has_edge(s, l2, t), "missing edge {s}-{name}->{t}");
        }
    }

    #[test]
    fn round_trip_via_files() {
        let dir = std::env::temp_dir().join("phe_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.tsv");
        let g = read_tsv("0\ta\t1\n1\ta\t0\n".as_bytes()).unwrap();
        write_tsv_path(&g, &path).unwrap();
        let g2 = read_tsv_path(&path).unwrap();
        assert_eq!(g2.edge_count(), 2);
        assert!(g2.has_edge(VertexId(1), LabelId(0), VertexId(0)));
        std::fs::remove_file(&path).ok();
    }
}
