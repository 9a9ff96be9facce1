//! Workload inputs, all derived from `--seed`: graphs, request streams,
//! expression pools and churn batches.

use std::collections::HashSet;

use phe_graph::{Graph, GraphBuilder, GraphDelta, LabelId, VertexId};

use crate::rng::{Rng, Zipf};

/// Independent random streams of one seed, one per input.
pub mod stream {
    /// Graph edges.
    pub const GRAPH: u64 = 1;
    /// Which realized paths the hot mix draws from.
    pub const PATH_POOL: u64 = 2;
    /// Request streams (one per connection: `REQUESTS + connection`).
    pub const REQUESTS: u64 = 16;
    /// The expression generator.
    pub const EXPRESSIONS: u64 = 3;
    /// Churn batches.
    pub const CHURN: u64 = 4;
    /// The uniform domain sample accuracy is measured over.
    pub const DOMAIN_SAMPLE: u64 = 5;
    /// The verification requests.
    pub const VERIFY: u64 = 6;
}

/// A chained-ring graph: label `l`'s sources occupy `[l/L, l/L + width)`
/// of the vertex ring and its targets `[(l+1)/L, (l+1)/L + width)`, so
/// `l`'s targets overlap the sources of the next few labels and the
/// realized path set grows like `|L| · b^(k−1)` for a small branching
/// factor `b` — the regime real schemas live in. Per-label edge budgets
/// are Zipf(0.9) over label rank; sources are uniform and targets
/// Zipf(0.8) inside their community.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphShape {
    /// Edge labels `r0 .. r{L-1}`.
    pub labels: u16,
    /// Mean edges per label.
    pub edges_per_label: u64,
    /// Vertices on the ring.
    pub vertices: u32,
    /// Community width as a fraction of the ring.
    pub width: f64,
}

/// Generates the graph of `shape` for `seed`.
pub fn chained_graph(shape: GraphShape, seed: u64) -> Graph {
    let mut rng = Rng::new(seed, stream::GRAPH);
    let n = shape.vertices.max(2);
    let labels = shape.labels.max(1) as usize;
    let total = shape.edges_per_label as f64 * labels as f64;
    let weights: Vec<f64> = (0..labels)
        .map(|l| 1.0 / ((l + 1) as f64).powf(0.9))
        .collect();
    let weight_sum: f64 = weights.iter().sum();
    let community = ((shape.width * n as f64).ceil() as u32).clamp(1, n);
    let targets = Zipf::new(community as usize, 0.8);
    // Zipf targets crowd the head of the community; half the pairs is a
    // budget the rejection loop below always fills quickly.
    let capacity = (community as u64 * community as u64 / 2).max(1);

    let mut builder = GraphBuilder::new();
    builder.ensure_vertices(n);
    for (l, weight) in weights.iter().enumerate() {
        let label = builder.intern_label(&format!("r{l}"));
        let budget = ((total * weight / weight_sum).round() as u64).clamp(1, capacity);
        let src_start = (l as u64 * n as u64 / labels as u64) as u32;
        let dst_start = (((l + 1) % labels) as u64 * n as u64 / labels as u64) as u32;
        let mut seen = HashSet::new();
        while (seen.len() as u64) < budget {
            let s = (src_start + rng.below(community as usize) as u32) % n;
            let t = (dst_start + targets.sample(&mut rng) as u32) % n;
            if seen.insert((s, t)) {
                builder.add_edge(VertexId(s), label, VertexId(t));
            }
        }
    }
    builder.build()
}

/// Renders an `estimate` request line over label-id paths.
pub fn estimate_line(paths: &[&[LabelId]]) -> String {
    let body: Vec<String> = paths
        .iter()
        .map(|p| {
            let ids: Vec<String> = p.iter().map(|l| l.0.to_string()).collect();
            format!("[{}]", ids.join(","))
        })
        .collect();
    format!(
        "{{\"op\":\"estimate\",\"estimator\":\"default\",\"paths\":[{}]}}",
        body.join(",")
    )
}

/// Renders an `estimate_expr` request line.
pub fn estimate_expr_line(exprs: &[&str]) -> String {
    let body: Vec<String> = exprs.iter().map(|e| format!("\"{e}\"")).collect();
    format!(
        "{{\"op\":\"estimate_expr\",\"estimator\":\"default\",\"exprs\":[{}]}}",
        body.join(",")
    )
}

/// A request stream: wire lines and, per line, the pool items it asks
/// for (what answer checks and accuracy are computed from).
#[derive(Debug, Clone, PartialEq)]
pub struct Requests {
    /// One request per line, no trailing newline.
    pub lines: Vec<String>,
    /// Pool indices each line carries, in order.
    pub items: Vec<Vec<usize>>,
}

/// How request items are drawn from a pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    /// Zipf over pool rank with this exponent.
    Zipf(f64),
    /// Uniform over the pool.
    Uniform,
}

/// `count` requests of `per_request` items drawn from a pool of
/// `pool_len`, rendered by `render`.
pub fn requests(
    pool_len: usize,
    count: usize,
    per_request: usize,
    draw: Draw,
    rng: &mut Rng,
    render: impl Fn(&[usize]) -> String,
) -> Requests {
    let zipf = match draw {
        Draw::Zipf(s) => Some(Zipf::new(pool_len, s)),
        Draw::Uniform => None,
    };
    let mut lines = Vec::with_capacity(count);
    let mut items = Vec::with_capacity(count);
    for _ in 0..count {
        let picks: Vec<usize> = (0..per_request)
            .map(|_| match &zipf {
                Some(z) => z.sample(rng),
                None => rng.below(pool_len),
            })
            .collect();
        lines.push(render(&picks));
        items.push(picks);
    }
    Requests { lines, items }
}

/// Draws the hot-mix pool: up to `size` realized paths in a seeded
/// order, so Zipf rank 0 is a random path rather than the canonically
/// first one.
pub fn path_pool(realized: &[(Vec<LabelId>, u64)], size: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..realized.len()).collect();
    Rng::new(seed, stream::PATH_POOL).shuffle(&mut order);
    order.truncate(size);
    order
}

/// One generated expression over label names `r0..`: every step keeps the
/// realized path it was derived from among its matches, so no expression
/// expands to nothing.
fn expression(path: &[LabelId], labels: usize, k: usize, rng: &mut Rng) -> String {
    let name = |l: usize| format!("r{l}");
    let mut parts: Vec<String> = Vec::with_capacity(path.len() + 1);
    for (i, label) in path.iter().enumerate() {
        let l = label.index();
        let roll = rng.unit();
        parts.push(if roll < 0.35 {
            name(l)
        } else if roll < 0.65 {
            ".".to_owned()
        } else if roll < 0.85 {
            // A neighbouring label: the ring's follow structure makes it
            // plausible, so alternation branches are sometimes realized.
            let other = (l + 1 + rng.below(3)) % labels;
            format!("({}|{})", name(l), name(other))
        } else if i > 0 {
            format!("{}?", name(l))
        } else {
            name(l)
        });
    }
    if path.len() < k && rng.chance(0.6) {
        let max = 1 + rng.below(k - path.len());
        parts.push(format!(".{{0,{max}}}"));
    }
    parts.join("/")
}

/// A pool of `size` distinct expressions (distinct under `normalize`,
/// which is how the server's expression cache keys them), each derived
/// from a random realized path.
pub fn expression_pool(
    realized: &[(Vec<LabelId>, u64)],
    label_names: &[String],
    k: usize,
    size: usize,
    seed: u64,
) -> Vec<String> {
    let mut rng = Rng::new(seed, stream::EXPRESSIONS);
    let mut keys = HashSet::new();
    let mut pool = Vec::with_capacity(size);
    let mut attempts = 0usize;
    while pool.len() < size && attempts < size * 50 {
        attempts += 1;
        let path = &realized[rng.below(realized.len())].0;
        let source = expression(path, label_names.len(), k, &mut rng);
        let expr = phe_query::parse_expr(label_names, &source)
            .expect("generated expressions use known labels and valid syntax");
        if keys.insert(expr.normalize().to_string()) {
            pool.push(source);
        }
    }
    pool
}

/// A churn batch against `graph`: about `fraction` of all edges, half
/// removed and half inserted, confined to labels `band_start ..
/// band_start + band` (mod |L|) — the "refresh one relation family"
/// update model. Insertions recombine existing sources and targets of the
/// same label, so churn respects the schema instead of rewiring it.
pub fn churn_batch(
    graph: &Graph,
    fraction: f64,
    band_start: usize,
    band: usize,
    rng: &mut Rng,
) -> GraphDelta {
    let labels = graph.label_count();
    let budget = ((graph.edge_count() as f64 * fraction).round() as usize).max(2 * band);
    let (removals, insertions) = (budget / 2 / band, (budget - budget / 2) / band);
    let mut delta = GraphDelta::new();
    for offset in 0..band {
        let label = LabelId(((band_start + offset) % labels) as u16);
        let edges: Vec<(u32, u32)> = graph
            .forward_csr(label)
            .iter_edges()
            .map(|(s, t)| (s.0, t.0))
            .collect();
        if edges.is_empty() {
            continue;
        }
        let mut removed = HashSet::new();
        let mut attempts = 0;
        while removed.len() < removals.min(edges.len()) && attempts < removals * 200 {
            attempts += 1;
            let (s, t) = edges[rng.below(edges.len())];
            if removed.insert((s, t)) {
                delta.remove(VertexId(s), label, VertexId(t));
            }
        }
        let mut added = HashSet::new();
        let mut attempts = 0;
        while added.len() < insertions && attempts < insertions * 200 {
            attempts += 1;
            let (s, _) = edges[rng.below(edges.len())];
            let (_, t) = edges[rng.below(edges.len())];
            let free =
                !graph.has_edge(VertexId(s), label, VertexId(t)) && !removed.contains(&(s, t));
            if free && added.insert((s, t)) {
                delta.insert(VertexId(s), label, VertexId(t));
            }
        }
    }
    delta
}

/// The churn the writer publishes: `cycles` cycles of `per_cycle`
/// batches, each batch valid against the graph its predecessors left.
/// Cycle `c` churns a 2-label band starting at label `5c`, so
/// consecutive publishes touch different relation families. Returns the
/// batches and the final graph.
pub fn churn_chain(
    graph: &Graph,
    cycles: usize,
    per_cycle: usize,
    fraction: f64,
    seed: u64,
) -> (Vec<Vec<GraphDelta>>, Graph) {
    let mut rng = Rng::new(seed, stream::CHURN);
    let mut current = graph.clone();
    let mut chain = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let mut batches = Vec::with_capacity(per_cycle);
        for _ in 0..per_cycle {
            let delta = churn_batch(&current, fraction, cycle * 5, 2, &mut rng);
            current = current
                .apply_delta(&delta)
                .expect("churn batches are valid against their base by construction");
            batches.push(delta);
        }
        chain.push(batches);
    }
    (chain, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phe_pathenum::SparseCatalog;

    const SHAPE: GraphShape = GraphShape {
        labels: 8,
        edges_per_label: 60,
        vertices: 400,
        width: 0.15,
    };

    fn edges(g: &Graph) -> Vec<(VertexId, LabelId, VertexId)> {
        g.iter_edges().collect()
    }

    #[test]
    fn graphs_repeat_per_seed_and_differ_across_seeds() {
        let a = chained_graph(SHAPE, 42);
        assert_eq!(edges(&a), edges(&chained_graph(SHAPE, 42)));
        assert_ne!(edges(&a), edges(&chained_graph(SHAPE, 43)));
        assert_eq!(a.label_count(), 8);
        assert!(a.edge_count() >= 8 * 50);
    }

    #[test]
    fn request_streams_repeat_per_seed_and_differ_across_seeds() {
        let make = |seed| {
            let mut rng = Rng::new(seed, stream::REQUESTS);
            requests(100, 50, 16, Draw::Zipf(0.99), &mut rng, |items| {
                format!("{items:?}")
            })
        };
        let a = make(42);
        assert_eq!(a, make(42));
        assert_ne!(a, make(43));
        assert!(a
            .items
            .iter()
            .all(|r| r.len() == 16 && r.iter().all(|&i| i < 100)));
    }

    #[test]
    fn expression_pools_repeat_per_seed_and_differ_across_seeds() {
        let g = chained_graph(SHAPE, 7);
        let catalog = SparseCatalog::compute(&g, 3).unwrap();
        let realized: Vec<_> = catalog.iter_nonzero().collect();
        let names: Vec<String> = (0..8).map(|l| format!("r{l}")).collect();
        let a = expression_pool(&realized, &names, 3, 200, 42);
        assert_eq!(a.len(), 200);
        assert_eq!(a, expression_pool(&realized, &names, 3, 200, 42));
        assert_ne!(a, expression_pool(&realized, &names, 3, 200, 43));
        // Distinct under normalization, and never empty after expansion.
        let follow = phe_graph::FollowMatrix::from_graph(&g);
        let opts = phe_query::ExpandOptions::new(8, 3).with_follow(&follow);
        let mut keys = HashSet::new();
        for source in &a {
            let expr = phe_query::parse_expr(&names[..], source).unwrap();
            assert!(keys.insert(expr.normalize().to_string()));
            assert!(!expr.normalize().expand(&opts).unwrap().paths.is_empty());
        }
    }

    #[test]
    fn churn_chains_repeat_per_seed_and_differ_across_seeds() {
        let g = chained_graph(SHAPE, 3);
        let (a, final_a) = churn_chain(&g, 3, 2, 0.02, 42);
        let (b, final_b) = churn_chain(&g, 3, 2, 0.02, 42);
        let (c, _) = churn_chain(&g, 3, 2, 0.02, 43);
        let flat = |chain: &Vec<Vec<GraphDelta>>| -> Vec<String> {
            chain
                .iter()
                .flatten()
                .map(|d| format!("{:?}{:?}", d.insertions(), d.removals()))
                .collect()
        };
        assert_eq!(flat(&a), flat(&b));
        assert_ne!(flat(&a), flat(&c));
        assert_eq!(edges(&final_a), edges(&final_b));
        // Every batch is non-empty and the chain replays onto the base.
        let mut current = g.clone();
        for delta in a.iter().flatten() {
            assert!(!delta.is_empty());
            current = current.apply_delta(delta).unwrap();
        }
        assert_eq!(edges(&current), edges(&final_a));
    }
}
