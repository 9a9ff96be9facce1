//! `build_scaling` — the sparse-first pipeline's scaling envelope.
//!
//! Sweeps `(|L|, k)` over schema-constrained graphs (real-world label
//! alphabets are schema-sparse: most label sequences never occur) and
//! records, per point:
//!
//! * sparse catalog build time and realized-path count;
//! * sparse vs dense catalog bytes (the dense side computed in `u128`,
//!   because past the dense limit it *cannot* be allocated);
//! * the dense build time where the dense representation is feasible, or
//!   `"infeasible"` where it is not — the configurations only the sparse
//!   pipeline can reach. The dense catalog is a view of the sparse one,
//!   so this times the same single-threaded count plus its `to_dense`
//!   materialization.
//!
//! Output: an aligned table, one per-stage timing line per observed
//! build span (`"bench": "build_stages"`, collected into the
//! `BENCH_obs.json` artifact), and one JSON line per point (`"bench":
//! "build_scaling"`), machine-readable for the benchmark trajectory.

use phe_bench::{emit, timed, RunConfig, Scale};
use phe_core::{EstimatorConfig, PathSelectivityEstimator};
use phe_datasets::schema::{narrow_chained_schema, schema_graph};
use phe_obs::span::{capture, TraceNode};
use phe_pathenum::catalog::DENSE_DOMAIN_LIMIT;
use phe_pathenum::{SelectivityCatalog, SparseCatalog};
use serde_json::{Number, Value};

struct Point {
    labels: u16,
    k: usize,
    headline: bool,
}

fn main() {
    let config = RunConfig::from_args();
    let (vertices, edges_per_label) = match config.scale {
        Scale::Ci => (1_500u32, 160u64),
        Scale::Paper => (50_000u32, 4_000u64),
    };

    let mut points: Vec<Point> = Vec::new();
    for &labels in &[8u16, 16, 32] {
        for &k in &[3usize, 4] {
            points.push(Point {
                labels,
                k,
                headline: false,
            });
        }
    }
    // The headline: a domain the dense pipeline cannot even allocate
    // (both are past DENSE_DOMAIN_LIMIT; paper scale pushes to the
    // paper's k = 6, CI keeps the sweep inside the smoke budget).
    points.push(Point {
        labels: 64,
        k: match config.scale {
            Scale::Ci => 5,
            Scale::Paper => 6,
        },
        headline: true,
    });

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_lines: Vec<String> = Vec::new();
    let mut obs_lines: Vec<String> = Vec::new();
    for point in &points {
        let schema =
            narrow_chained_schema(point.labels, point.labels as u64 * edges_per_label, 0.08);
        let graph = schema_graph(vertices, &schema, config.seed);
        let k = point.k;

        let ((sparse, sparse_secs), sparse_spans) = capture(|| {
            timed(|| SparseCatalog::compute_parallel(&graph, k, 0).expect("domain fits u48"))
        });
        let domain = sparse.len() as u64;
        let nnz = sparse.nonzero_count() as u64;
        let sparse_bytes = sparse.size_bytes() as u64;
        let plain_bytes = sparse.plain_bytes() as u64;
        let bytes_per_entry = sparse_bytes as f64 / (nnz as f64).max(1.0);
        let compression = plain_bytes as f64 / (sparse_bytes as f64).max(1.0);
        let dense_bytes = sparse.dense_bytes();
        let ratio = dense_bytes as f64 / (sparse_bytes as f64).max(1.0);

        let dense_feasible = sparse.len() <= DENSE_DOMAIN_LIMIT;
        let dense_secs = if dense_feasible {
            let (_, secs) = timed(|| SelectivityCatalog::compute(&graph, k));
            Some(secs)
        } else {
            None
        };

        // End-to-end sparse estimator build (catalog → remap → histogram),
        // with its stage spans collected for the per-stage JSON lines.
        let ((estimator, pipeline_secs), pipeline_spans) = capture(|| {
            timed(|| {
                PathSelectivityEstimator::from_sparse_catalog(
                    &graph,
                    sparse.clone(),
                    EstimatorConfig {
                        k,
                        beta: 256,
                        threads: 1,
                        retain_catalog: false,
                        retain_sparse: false,
                        ..EstimatorConfig::default()
                    },
                    std::time::Duration::ZERO,
                )
                .expect("sparse build")
            })
        });

        // One JSON line per observed stage span (`"bench": "build_stages"`),
        // collected by CI into the BENCH_obs.json artifact.
        let roots: Vec<&TraceNode> = sparse_spans.iter().chain(pipeline_spans.iter()).collect();
        for root in roots {
            for (depth, stage, duration) in root.flatten() {
                let obj = Value::Object(vec![
                    ("bench".into(), Value::string("build_stages")),
                    (
                        "labels".into(),
                        Value::Number(Number::PosInt(point.labels as u64)),
                    ),
                    ("k".into(), Value::Number(Number::PosInt(k as u64))),
                    ("stage".into(), Value::string(stage)),
                    ("depth".into(), Value::Number(Number::PosInt(depth as u64))),
                    (
                        "seconds".into(),
                        Value::Number(Number::Float(duration.as_secs_f64())),
                    ),
                ]);
                obs_lines.push(serde_json::to_string(&obj).expect("flat object"));
            }
        }

        rows.push(vec![
            format!("{}{}", point.labels, if point.headline { "*" } else { "" }),
            k.to_string(),
            domain.to_string(),
            nnz.to_string(),
            format!("{sparse_bytes}"),
            format!("{bytes_per_entry:.2}"),
            format!("{compression:.1}x"),
            format!("{dense_bytes}"),
            format!("{ratio:.1}x"),
            format!("{sparse_secs:.3}"),
            dense_secs
                .map(|s| format!("{s:.3}"))
                .unwrap_or_else(|| "infeasible".into()),
            format!("{pipeline_secs:.3}"),
        ]);
        let obj = Value::Object(vec![
            ("bench".into(), Value::string("build_scaling")),
            (
                "labels".into(),
                Value::Number(Number::PosInt(point.labels as u64)),
            ),
            ("k".into(), Value::Number(Number::PosInt(k as u64))),
            ("domain_paths".into(), Value::Number(Number::PosInt(domain))),
            ("nonzero_paths".into(), Value::Number(Number::PosInt(nnz))),
            (
                "sparse_bytes".into(),
                Value::Number(Number::PosInt(sparse_bytes)),
            ),
            (
                "sparse_plain_bytes".into(),
                Value::Number(Number::PosInt(plain_bytes)),
            ),
            (
                "bytes_per_entry".into(),
                Value::Number(Number::Float(bytes_per_entry)),
            ),
            (
                "plain_over_compressed".into(),
                Value::Number(Number::Float(compression)),
            ),
            (
                "dense_bytes".into(),
                Value::Number(Number::PosInt(dense_bytes.min(u64::MAX as u128) as u64)),
            ),
            (
                "dense_over_sparse".into(),
                Value::Number(Number::Float(ratio)),
            ),
            (
                "sparse_build_seconds".into(),
                Value::Number(Number::Float(sparse_secs)),
            ),
            (
                "dense_build_seconds".into(),
                dense_secs.map_or(Value::Null, |s| Value::Number(Number::Float(s))),
            ),
            ("dense_feasible".into(), Value::Bool(dense_feasible)),
            (
                "pipeline_seconds".into(),
                Value::Number(Number::Float(pipeline_secs)),
            ),
            (
                "ordering_seconds".into(),
                Value::Number(Number::Float(
                    estimator.build_stats().ordering_time.as_secs_f64(),
                )),
            ),
            (
                "histogram_seconds".into(),
                Value::Number(Number::Float(
                    estimator.build_stats().histogram_time.as_secs_f64(),
                )),
            ),
            (
                "retained_bytes".into(),
                Value::Number(Number::PosInt(estimator.size_bytes() as u64)),
            ),
        ]);
        json_lines.push(serde_json::to_string(&obj).expect("flat object"));
    }

    emit(
        "Sparse-first build scaling (* = dense-infeasible headline)",
        &[
            "|L|",
            "k",
            "domain",
            "nnz",
            "sparse B",
            "B/entry",
            "vs plain",
            "dense B",
            "ratio",
            "sparse s",
            "dense s",
            "pipeline s",
        ],
        &rows,
        config.csv,
    );
    // Per-stage timings first, in their own section, so the trajectory
    // collectors can split the two streams with a line-oriented filter.
    println!("\n--- OBS JSON ---");
    for line in &obs_lines {
        println!("{line}");
    }
    println!("\n--- JSON ---");
    for line in &json_lines {
        println!("{line}");
    }
}
