//! `delta_rebuild` — incremental maintenance vs full rebuild.
//!
//! Simulates the serving-system maintenance loop: statistics exist for a
//! graph, a batch of edge changes arrives (1% of the edges by default),
//! and the estimator must be refreshed. The incremental path
//! ([`PathSelectivityEstimator::apply_delta`]: delta counting over only
//! the touched paths → k-way merge into the retained sparse catalog →
//! ordering/histogram re-derivation) is timed against a from-scratch
//! rebuild of the changed graph, and its merged catalog is verified
//! **bit-identical** to the recount — the run aborts on any mismatch.
//!
//! The churn model matches how graph updates arrive in practice: a batch
//! refreshes one relation family (a 2-label band starting mid-ring), not
//! a uniform sprinkle over every label — a batch that touched *every*
//! relation would leave every path's count in doubt and defeat any
//! incremental scheme. That locality is exactly what the delta counter's
//! dirty-label and changed-row pruning convert into work proportional to
//! |delta|. Insertions are sampled from the dirty labels' existing
//! endpoint communities, so the churn respects the schema instead of
//! rewiring it.
//!
//! The full rebuild is timed both single-threaded — the like-for-like
//! comparison (delta counting is single-threaded), and what a serving
//! host actually runs: the background `rebuild` op defaults to one
//! thread so it cannot starve the serving workers — and with all cores.
//!
//! Output: an aligned table plus one JSON line per point (`"bench":
//! "delta_rebuild"`), machine-readable for the benchmark trajectory.

use phe_bench::{emit, timed, RunConfig, Scale};
use phe_core::{EstimatorConfig, PathSelectivityEstimator};
use phe_datasets::schema::{narrow_chained_schema, schema_graph};
use phe_graph::{Graph, GraphDelta, LabelId, VertexId};
use phe_pathenum::compute_delta;
use serde_json::{Number, Value};

/// Fraction of all edges replaced per maintenance batch.
const CHURN_FRACTION: f64 = 0.01;
/// The labels the churn is concentrated on: a band of adjacent relations
/// starting mid-ring — the "refresh one relation family" update model.
/// (A batch spread uniformly over every label would defeat *any*
/// incremental scheme: each label's relation would be touched and every
/// path's count would need re-verification.)
const DIRTY_BAND_START: u16 = 16;
const DIRTY_BAND: u16 = 2;

struct Point {
    labels: u16,
    k: usize,
    headline: bool,
}

/// Builds a schema-respecting churn batch: removes `m/2` edges of the
/// dirty band and inserts `m/2` fresh band edges whose endpoints are
/// drawn from the band labels' existing source/target communities.
fn churn_delta(graph: &Graph, fraction: f64, band: u16, seed: u64) -> GraphDelta {
    let budget = ((graph.edge_count() as f64 * fraction).round() as usize).max(2);
    let (removals, insertions) = (budget / 2, budget - budget / 2);

    let mut x = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut step = || {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        (x >> 33) as usize
    };

    let mut delta = GraphDelta::new();
    let mut removed = std::collections::HashSet::new();
    let mut added = std::collections::HashSet::new();
    let label_count = graph.label_count() as u16;
    for label in DIRTY_BAND_START..(DIRTY_BAND_START + band).min(label_count) {
        let label = LabelId(label);
        let edges: Vec<(u32, u32)> = graph
            .forward_csr(label)
            .iter_edges()
            .map(|(s, t)| (s.0, t.0))
            .collect();
        if edges.is_empty() {
            continue;
        }
        let share_r = removals / (band as usize);
        let share_i = insertions / (band as usize);
        // Removals: distinct random edges of this label (attempt-bounded,
        // like the insertion loop — `removed` spans the whole band, so it
        // cannot double as a per-label exhaustion test).
        let mut taken = 0;
        let mut attempts = 0;
        while taken < share_r && attempts < share_r * 200 {
            attempts += 1;
            let (s, t) = edges[step() % edges.len()];
            if removed.insert((s, label.0, t)) {
                delta.remove(VertexId(s), label, VertexId(t));
                taken += 1;
            }
        }
        // Insertions: recombine existing sources × targets of the same
        // label (absent combinations only), staying inside the schema's
        // communities.
        let mut taken = 0;
        let mut attempts = 0;
        while taken < share_i && attempts < share_i * 200 {
            attempts += 1;
            let (s, _) = edges[step() % edges.len()];
            let (_, t) = edges[step() % edges.len()];
            let present = graph.has_edge(VertexId(s), label, VertexId(t))
                && !removed.contains(&(s, label.0, t));
            if present || !added.insert((s, label.0, t)) {
                continue;
            }
            delta.insert(VertexId(s), label, VertexId(t));
            taken += 1;
        }
    }
    delta
}

fn main() {
    let config = RunConfig::from_args();
    // Denser than `build_scaling`'s sweep (4× the vertices and edges per
    // label at CI scale): the maintenance question only matters when the
    // full recount is genuinely expensive.
    let (vertices, edges_per_label) = match config.scale {
        Scale::Ci => (6_000u32, 640u64),
        Scale::Paper => (50_000u32, 4_000u64),
    };

    let mut points: Vec<Point> = vec![
        Point {
            labels: 32,
            k: 4,
            headline: false,
        },
        // The CI headline configuration of `build_scaling`: a domain the
        // dense pipeline cannot even allocate.
        Point {
            labels: 64,
            k: match config.scale {
                Scale::Ci => 5,
                Scale::Paper => 6,
            },
            headline: true,
        },
    ];
    if config.scale == Scale::Paper {
        points.insert(
            0,
            Point {
                labels: 64,
                k: 5,
                headline: false,
            },
        );
    }

    let estimator_config = EstimatorConfig {
        beta: 256,
        retain_sparse: true,
        ..EstimatorConfig::default()
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_lines: Vec<String> = Vec::new();
    for point in &points {
        let schema =
            narrow_chained_schema(point.labels, point.labels as u64 * edges_per_label, 0.08);
        let old_graph = schema_graph(vertices, &schema, config.seed);
        let k = point.k;
        let delta = churn_delta(&old_graph, CHURN_FRACTION, DIRTY_BAND, config.seed + 1);
        let new_graph = old_graph.apply_delta(&delta).expect("churn is valid");

        // The maintained base: built once, outside the timed region (a
        // serving system amortizes this over every delta it absorbs).
        let base = PathSelectivityEstimator::build(
            &old_graph,
            EstimatorConfig {
                k,
                ..estimator_config
            },
        )
        .expect("base build");

        // Full rebuilds of the changed graph: single-threaded (what the
        // service's background rebuild runs, and the like-for-like
        // comparison) and all-cores.
        let (full_1t, full_1t_secs) = timed(|| {
            PathSelectivityEstimator::build(
                &new_graph,
                EstimatorConfig {
                    k,
                    threads: 1,
                    ..estimator_config
                },
            )
            .expect("full rebuild")
        });
        let (_, full_mt_secs) = timed(|| {
            PathSelectivityEstimator::build(
                &new_graph,
                EstimatorConfig {
                    k,
                    ..estimator_config
                },
            )
            .expect("full rebuild")
        });

        // The incremental path under test.
        let (applied, delta_secs) = timed(|| base.apply_delta(&old_graph, &delta).expect("delta"));
        let (refreshed, _) = applied;

        // Correctness gate: the merged catalog must be bit-identical to
        // the recount. A bench that silently drifts is worse than none.
        let merged = refreshed.sparse_catalog().expect("retain_sparse");
        let recounted = full_1t.sparse_catalog().expect("retain_sparse");
        assert_eq!(
            merged, recounted,
            "incremental catalog diverged from the full recount"
        );

        // Touched-path count, for the |delta|-proportionality story, and
        // the isolated block-merge step: folding the signed run into the
        // compressed catalog (untouched blocks copy wholesale), timed
        // apart from counting so the merge throughput is its own number.
        let run = compute_delta(&old_graph, &new_graph, &delta, k).expect("delta counting");
        let touched = run.len();
        let base_catalog = base.sparse_catalog().expect("retain_sparse");
        let (merged_alone, merge_secs) = timed(|| base_catalog.merge_delta(&run).expect("merge"));
        assert_eq!(
            &merged_alone, recounted,
            "isolated block merge diverged from the full recount"
        );
        let merge_entries_per_sec = base_catalog.nonzero_count() as f64 / merge_secs.max(1e-9);

        let nnz = refreshed.footprint().nonzero_paths;
        let bytes_per_entry = refreshed.footprint().bytes_per_entry();
        let speedup_1t = full_1t_secs / delta_secs.max(1e-9);
        let speedup_mt = full_mt_secs / delta_secs.max(1e-9);
        rows.push(vec![
            format!("{}{}", point.labels, if point.headline { "*" } else { "" }),
            k.to_string(),
            new_graph.edge_count().to_string(),
            delta.edge_count().to_string(),
            nnz.to_string(),
            touched.to_string(),
            format!("{full_1t_secs:.3}"),
            format!("{full_mt_secs:.3}"),
            format!("{delta_secs:.3}"),
            format!("{speedup_1t:.1}x"),
            format!("{speedup_mt:.1}x"),
        ]);
        let obj = Value::Object(vec![
            ("bench".into(), Value::string("delta_rebuild")),
            (
                "labels".into(),
                Value::Number(Number::PosInt(point.labels as u64)),
            ),
            ("k".into(), Value::Number(Number::PosInt(k as u64))),
            (
                "edges".into(),
                Value::Number(Number::PosInt(new_graph.edge_count() as u64)),
            ),
            (
                "churn_edges".into(),
                Value::Number(Number::PosInt(delta.edge_count() as u64)),
            ),
            (
                "churn_fraction".into(),
                Value::Number(Number::Float(CHURN_FRACTION)),
            ),
            ("nonzero_paths".into(), Value::Number(Number::PosInt(nnz))),
            (
                "bytes_per_entry".into(),
                Value::Number(Number::Float(bytes_per_entry)),
            ),
            (
                "catalog_bytes".into(),
                Value::Number(Number::PosInt(refreshed.footprint().sparse_bytes)),
            ),
            (
                "catalog_plain_bytes".into(),
                Value::Number(Number::PosInt(refreshed.footprint().sparse_plain_bytes)),
            ),
            (
                "touched_paths".into(),
                Value::Number(Number::PosInt(touched as u64)),
            ),
            (
                "block_merge_seconds".into(),
                Value::Number(Number::Float(merge_secs)),
            ),
            (
                "block_merge_entries_per_sec".into(),
                Value::Number(Number::Float(merge_entries_per_sec)),
            ),
            (
                "full_build_seconds".into(),
                Value::Number(Number::Float(full_1t_secs)),
            ),
            (
                "full_build_parallel_seconds".into(),
                Value::Number(Number::Float(full_mt_secs)),
            ),
            (
                "delta_seconds".into(),
                Value::Number(Number::Float(delta_secs)),
            ),
            (
                "delta_counting_seconds".into(),
                Value::Number(Number::Float(
                    refreshed.build_stats().catalog_time.as_secs_f64(),
                )),
            ),
            (
                "delta_ordering_seconds".into(),
                Value::Number(Number::Float(
                    refreshed.build_stats().ordering_time.as_secs_f64(),
                )),
            ),
            (
                "delta_histogram_seconds".into(),
                Value::Number(Number::Float(
                    refreshed.build_stats().histogram_time.as_secs_f64(),
                )),
            ),
            ("speedup".into(), Value::Number(Number::Float(speedup_1t))),
            (
                "speedup_parallel".into(),
                Value::Number(Number::Float(speedup_mt)),
            ),
            ("verified".into(), Value::Bool(true)),
        ]);
        json_lines.push(serde_json::to_string(&obj).expect("flat object"));
    }

    // --- Maintenance compaction: the queue the service's maintenance
    // loop folds per publish interval. N small batches arrive between
    // publishes; the pre-compaction behavior pays N counting passes,
    // the compactor composes them (`GraphDelta::compose`, cancelling
    // insert-then-remove churn) and pays one. Correctness is gated the
    // same way as the delta path above: the compacted catalog must be
    // bit-identical to sequential application, and the single pass must
    // be decisively faster — this is the speedup the maintenance loop's
    // publish interval buys.
    const COMPACTION_BATCHES: usize = 16;
    const COMPACTION_CHURN: f64 = 0.0025;
    let compaction_labels = 32u16;
    let compaction_k = 4usize;
    let schema = narrow_chained_schema(
        compaction_labels,
        compaction_labels as u64 * edges_per_label,
        0.08,
    );
    let graph0 = schema_graph(vertices, &schema, config.seed);
    let base = PathSelectivityEstimator::build(
        &graph0,
        EstimatorConfig {
            k: compaction_k,
            ..estimator_config
        },
    )
    .expect("compaction base build");

    // The queue: each batch is valid against the graph its predecessors
    // left, exactly how `delta` ops arrive at the service.
    let mut batches = Vec::with_capacity(COMPACTION_BATCHES);
    {
        let mut current = graph0.clone();
        for i in 0..COMPACTION_BATCHES {
            let delta = churn_delta(
                &current,
                COMPACTION_CHURN,
                DIRTY_BAND,
                config.seed + 100 + i as u64,
            );
            current = current.apply_delta(&delta).expect("queued batch applies");
            batches.push(delta);
        }
    }

    // Sequential: one counting pass per batch (pre-compaction service).
    let (sequential_final, sequential_secs) = timed(|| {
        let mut state: Option<(PathSelectivityEstimator, Graph)> = None;
        for delta in &batches {
            let next = match &state {
                None => base.apply_delta(&graph0, delta),
                Some((est, graph)) => est.apply_delta(graph, delta),
            }
            .expect("sequential delta");
            state = Some(next);
        }
        state.expect("at least one batch").0
    });

    // Compacted: compose the whole queue, count once.
    let (compacted, compacted_secs) = timed(|| {
        let composed = GraphDelta::compose(&batches);
        base.apply_delta(&graph0, &composed)
            .expect("compacted delta")
            .0
    });

    let composed = GraphDelta::compose(&batches);
    assert_eq!(
        compacted.sparse_catalog().expect("compacted catalog"),
        sequential_final
            .sparse_catalog()
            .expect("sequential catalog"),
        "compacted catalog diverged from sequential application"
    );
    let compaction_speedup = sequential_secs / compacted_secs.max(1e-9);
    assert!(
        compaction_speedup >= 3.0,
        "compaction must beat sequential application >= 3x, got {compaction_speedup:.1}x \
         ({sequential_secs:.3}s sequential vs {compacted_secs:.3}s compacted)"
    );
    let queued_edges: usize = batches.iter().map(|d| d.edge_count()).sum();
    json_lines.push(
        serde_json::to_string(&Value::Object(vec![
            ("bench".into(), Value::string("maintenance_compaction")),
            (
                "labels".into(),
                Value::Number(Number::PosInt(compaction_labels as u64)),
            ),
            (
                "k".into(),
                Value::Number(Number::PosInt(compaction_k as u64)),
            ),
            (
                "edges".into(),
                Value::Number(Number::PosInt(graph0.edge_count() as u64)),
            ),
            (
                "queued_batches".into(),
                Value::Number(Number::PosInt(COMPACTION_BATCHES as u64)),
            ),
            (
                "batch_churn_fraction".into(),
                Value::Number(Number::Float(COMPACTION_CHURN)),
            ),
            (
                "queued_edges".into(),
                Value::Number(Number::PosInt(queued_edges as u64)),
            ),
            (
                "composed_edges".into(),
                Value::Number(Number::PosInt(composed.edge_count() as u64)),
            ),
            (
                "sequential_seconds".into(),
                Value::Number(Number::Float(sequential_secs)),
            ),
            (
                "compacted_seconds".into(),
                Value::Number(Number::Float(compacted_secs)),
            ),
            (
                "speedup".into(),
                Value::Number(Number::Float(compaction_speedup)),
            ),
            ("verified".into(), Value::Bool(true)),
        ]))
        .expect("flat object"),
    );
    emit(
        &format!(
            "Incremental delta rebuild at {:.0}% churn (* = dense-infeasible headline; \
             full-rebuild times single-threaded and all-cores)",
            CHURN_FRACTION * 100.0
        ),
        &[
            "|L|",
            "k",
            "edges",
            "churn",
            "nnz",
            "touched",
            "full 1t s",
            "full mt s",
            "delta s",
            "vs 1t",
            "vs mt",
        ],
        &rows,
        config.csv,
    );
    println!(
        "\nmaintenance compaction: {COMPACTION_BATCHES} batches x {:.2}% churn -> one pass \
         ({queued_edges} queued edges compose to {}): {sequential_secs:.3}s sequential vs \
         {compacted_secs:.3}s compacted = {compaction_speedup:.1}x (catalog bit-identical)",
        COMPACTION_CHURN * 100.0,
        composed.edge_count(),
    );

    println!("\n--- JSON ---");
    for line in &json_lines {
        println!("{line}");
    }
}
