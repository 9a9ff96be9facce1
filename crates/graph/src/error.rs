//! Error type for graph construction and I/O.

use std::fmt;
use std::io;

/// Errors produced while building, loading, or saving graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An underlying I/O failure while reading or writing an edge list.
    Io(io::Error),
    /// A malformed line in a TSV edge list. Carries the 1-based line number
    /// and a description of what failed to parse.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A vertex id that exceeds the declared vertex count.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// The declared number of vertices.
        vertex_count: u32,
    },
    /// The label alphabet exceeded the `u16` capacity of [`crate::LabelId`].
    TooManyLabels,
    /// A [`crate::GraphDelta`] violated its contract against the base
    /// graph (absent removal, present insertion, duplicate change, a
    /// label outside the alphabet, or a vertex id of `u32::MAX`).
    Delta {
        /// Human-readable description of the violation.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::VertexOutOfRange {
                vertex,
                vertex_count,
            } => write!(
                f,
                "vertex id {vertex} out of range (graph declares {vertex_count} vertices)"
            ),
            GraphError::TooManyLabels => {
                write!(
                    f,
                    "label alphabet exceeds the 65536-label capacity of LabelId"
                )
            }
            GraphError::Delta { message } => write!(f, "invalid graph delta: {message}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GraphError {
    fn from(e: io::Error) -> Self {
        GraphError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_line_number() {
        let e = GraphError::Parse {
            line: 17,
            message: "bad vertex".into(),
        };
        let s = e.to_string();
        assert!(s.contains("17"), "{s}");
        assert!(s.contains("bad vertex"), "{s}");
    }

    #[test]
    fn io_error_converts() {
        let e: GraphError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(e, GraphError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn out_of_range_display() {
        let e = GraphError::VertexOutOfRange {
            vertex: 10,
            vertex_count: 5,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("5"));
    }
}
