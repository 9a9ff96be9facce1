//! Structured spans: RAII stage timers that always feed the global
//! per-stage histograms and, when a capture is active, assemble a
//! nested trace tree.
//!
//! A [`stage`] guard costs two `Instant` reads and one atomic add on
//! drop (the histogram handle is cached per thread), so stages can be
//! left permanently instrumented — `--trace` only changes whether the
//! tree is *collected*, not whether the timings are recorded.
//!
//! ## Stage taxonomy
//!
//! Stage names are dotted, parent first:
//!
//! * `build` → `build.count`, `build.merge`, `build.order`,
//!   `build.histogram`
//! * `delta` → `delta.apply`, `delta.count`, `delta.merge`,
//!   `delta.rederive`
//! * `query.parse`, `query.expand` (follow pruning happens inside the
//!   expansion walk), `query.estimate`
//!
//! Trees are per-thread: a span opened on a worker thread records its
//! stage histogram as usual but does not attach to a capture running on
//! another thread, so orchestrating code should open stage spans around
//! its fan-out points, not inside them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{LogHistogram, STAGE_HISTOGRAM};

/// An active stage timer; records on drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    /// `(capture epoch, node index)` when a capture adopted this span.
    node: Option<(u64, usize)>,
}

struct CaptureState {
    epoch: u64,
    nodes: Vec<Node>,
    stack: Vec<usize>,
    roots: Vec<usize>,
}

struct Node {
    name: &'static str,
    duration: Duration,
    children: Vec<usize>,
}

thread_local! {
    static CAPTURE: RefCell<Option<CaptureState>> = const { RefCell::new(None) };
    /// Per-thread cache of stage-histogram handles, keyed by stage name.
    static STAGE_CACHE: RefCell<HashMap<&'static str, Arc<LogHistogram>>> =
        RefCell::new(HashMap::new());
}

static EPOCH: AtomicU64 = AtomicU64::new(0);

/// Opens a stage span. Use a `let` binding — the timing is recorded
/// when the guard drops.
pub fn stage(name: &'static str) -> Span {
    let node = CAPTURE.with(|c| {
        c.borrow_mut().as_mut().map(|cap| {
            let idx = cap.nodes.len();
            cap.nodes.push(Node {
                name,
                duration: Duration::ZERO,
                children: Vec::new(),
            });
            match cap.stack.last() {
                Some(&parent) => cap.nodes[parent].children.push(idx),
                None => cap.roots.push(idx),
            }
            cap.stack.push(idx);
            (cap.epoch, idx)
        })
    });
    Span {
        name,
        start: Instant::now(),
        node,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        STAGE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            let hist = cache.entry(self.name).or_insert_with(|| {
                crate::global().duration_histogram_with(
                    STAGE_HISTOGRAM,
                    "Wall time per pipeline stage.",
                    &[("stage", self.name)],
                )
            });
            hist.record_duration(elapsed);
        });
        if let Some((epoch, idx)) = self.node {
            CAPTURE.with(|c| {
                if let Some(cap) = c.borrow_mut().as_mut() {
                    if cap.epoch == epoch {
                        cap.nodes[idx].duration = elapsed;
                        // Pop down to this span; tolerates guards
                        // dropped out of order (e.g. after a panic).
                        while let Some(top) = cap.stack.pop() {
                            if top == idx {
                                break;
                            }
                        }
                    }
                }
            });
        }
    }
}

/// One node of a captured trace tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// The stage name.
    pub name: &'static str,
    /// Wall time between the guard's creation and drop.
    pub duration: Duration,
    /// Spans opened (on this thread) while this one was on top.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    fn from_arena(nodes: &[Node], idx: usize) -> TraceNode {
        TraceNode {
            name: nodes[idx].name,
            duration: nodes[idx].duration,
            children: nodes[idx]
                .children
                .iter()
                .map(|&c| TraceNode::from_arena(nodes, c))
                .collect(),
        }
    }

    /// Depth-first `(depth, name, duration)` flattening, self first.
    pub fn flatten(&self) -> Vec<(usize, &'static str, Duration)> {
        let mut out = Vec::new();
        fn walk(node: &TraceNode, depth: usize, out: &mut Vec<(usize, &'static str, Duration)>) {
            out.push((depth, node.name, node.duration));
            for child in &node.children {
                walk(child, depth + 1, out);
            }
        }
        walk(self, 0, &mut out);
        out
    }
}

/// Restores the previous capture state even if `f` unwinds.
struct Restore(Option<CaptureState>);

impl Drop for Restore {
    fn drop(&mut self) {
        CAPTURE.with(|c| *c.borrow_mut() = self.0.take());
    }
}

/// Runs `f` while collecting spans opened on this thread into a trace
/// tree. Captures nest: an inner capture sees only its own spans and
/// the outer capture resumes (without the inner spans) when it ends.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceNode>) {
    // ORDERING: the epoch only needs to be unique, not ordered; the
    // atomic RMW guarantees distinct values to concurrent captures.
    let epoch = EPOCH.fetch_add(1, Ordering::Relaxed) + 1;
    let prev = CAPTURE.with(|c| {
        c.borrow_mut().replace(CaptureState {
            epoch,
            nodes: Vec::new(),
            stack: Vec::new(),
            roots: Vec::new(),
        })
    });
    let restore = Restore(prev);
    let value = f();
    let state = CAPTURE.with(|c| c.borrow_mut().take());
    drop(restore);
    let tree = state
        .map(|cap| {
            cap.roots
                .iter()
                .map(|&r| TraceNode::from_arena(&cap.nodes, r))
                .collect()
        })
        .unwrap_or_default();
    (value, tree)
}

/// Renders a trace tree as an indented stage-time table; each line
/// shows the stage, its wall time, and its share of the tree total.
pub fn render_tree(roots: &[TraceNode]) -> String {
    let total: Duration = roots.iter().map(|r| r.duration).sum();
    let total_s = total.as_secs_f64().max(1e-12);
    let mut out = String::new();
    for root in roots {
        for (depth, name, duration) in root.flatten() {
            let indent = "  ".repeat(depth);
            let label = format!("{indent}{name}");
            out.push_str(&format!(
                "{label:<32} {:>10.3} ms  {:>5.1}%\n",
                duration.as_secs_f64() * 1e3,
                duration.as_secs_f64() / total_s * 100.0
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_a_tree() {
        let ((), tree) = capture(|| {
            let _outer = stage("build");
            {
                let _a = stage("build.count");
            }
            {
                let _b = stage("build.merge");
            }
        });
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "build");
        let children: Vec<_> = tree[0].children.iter().map(|c| c.name).collect();
        assert_eq!(children, ["build.count", "build.merge"]);
        assert!(tree[0].duration >= tree[0].children[0].duration);
    }

    #[test]
    fn sibling_roots_and_flatten_order() {
        let ((), tree) = capture(|| {
            {
                let _a = stage("query.parse");
            }
            let _b = stage("query.estimate");
        });
        assert_eq!(
            tree.iter().map(|n| n.name).collect::<Vec<_>>(),
            ["query.parse", "query.estimate"]
        );
        let flat = tree[0].flatten();
        assert_eq!(flat[0], (0, "query.parse", flat[0].2));
    }

    #[test]
    fn capture_nests_and_restores() {
        let ((), outer) = capture(|| {
            let _o = stage("delta");
            let ((), inner) = capture(|| {
                let _i = stage("delta.apply");
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].name, "delta.apply");
        });
        // The inner capture's spans do not leak into the outer tree.
        assert_eq!(outer.len(), 1);
        assert_eq!(outer[0].name, "delta");
        assert!(outer[0].children.is_empty());
    }

    #[test]
    fn uncaptured_spans_still_record_stage_histograms() {
        {
            let _s = stage("test.uncaptured");
        }
        let hist = crate::global().duration_histogram_with(
            STAGE_HISTOGRAM,
            "Wall time per pipeline stage.",
            &[("stage", "test.uncaptured")],
        );
        assert!(hist.count() >= 1);
    }

    #[test]
    fn render_tree_indents() {
        let ((), tree) = capture(|| {
            let _o = stage("build");
            let _i = stage("build.order");
        });
        let text = render_tree(&tree);
        assert!(text.contains("build"), "{text}");
        assert!(text.contains("  build.order"), "{text}");
    }
}
