//! The `build` workload: repeated single-threaded full builds of a
//! dense-infeasible configuration (|L| = 56, k = 5: a 5.6e8-path domain,
//! past the dense pipeline's 2^28 limit). Count, order and histogram do all the
//! work and no serving layer runs; accuracy is measured beside speed so a
//! speedup that changes the statistics shows.

use std::time::Instant;

use phe_core::eval::sparse_ordered_frequencies;
use phe_core::{EstimatorConfig, LabelPathHistogram, PathSelectivityEstimator};
use phe_graph::LabelId;
use phe_pathenum::SparseCatalog;

use crate::inputs::{self, stream, GraphShape};
use crate::rng::Rng;
use crate::stats::{self, Sample};
use crate::trace::{LayerRow, LayerTable, Tracer};
use crate::workload::{self, Outcome, RunOpts, Values};

/// Builds timed at least, however long they take.
const MIN_BUILDS: usize = 3;
/// Traced decompositions of the build into its layers' calls.
const REPLAYS: usize = 2;

fn shape(opts: &RunOpts) -> (GraphShape, EstimatorConfig) {
    let (graph, k, beta) = if opts.smoke {
        (
            GraphShape {
                labels: 8,
                edges_per_label: 40,
                vertices: 300,
                width: 0.15,
            },
            3,
            32,
        )
    } else {
        (
            // 56 labels rather than the 64 of `build_scaling`'s headline:
            // still dense-infeasible, at half the resident memory of the
            // process-wide sum-based partition memo (0.7 GB, not 1.3 GB).
            GraphShape {
                labels: 56,
                edges_per_label: 80,
                vertices: 1500,
                width: 0.08,
            },
            5,
            256,
        )
    };
    // One thread: what a background rebuild runs with, so it cannot
    // starve the serving workers.
    let config = EstimatorConfig {
        k,
        beta,
        threads: 1,
        ..EstimatorConfig::default()
    };
    (graph, config)
}

/// The histogram of a build, serialized: builds are identical exactly
/// when these strings are.
fn fingerprint(estimator: &PathSelectivityEstimator) -> String {
    serde_json::to_string(estimator.histogram().histogram()).expect("histograms serialize")
}

/// Runs the `build` workload.
pub fn build(opts: &RunOpts) -> Outcome {
    let (shape, config) = shape(opts);
    let ((graph, exact, sample), setup_s) = workload::timed_setups(
        || {
            let graph = inputs::chained_graph(shape, opts.seed);
            // Exact counts for accuracy, computed with every core.
            let exact = SparseCatalog::compute_parallel(&graph, config.k, 0).expect("catalog");
            // A uniform domain sample as large as the realized set, so
            // accuracy also covers the (mostly zero) unrealized paths.
            let mut rng = Rng::new(opts.seed, stream::DOMAIN_SAMPLE);
            let sample: Vec<(Vec<LabelId>, u64)> = (0..exact.nonzero_count())
                .map(|_| {
                    let index = rng.below(exact.len());
                    (
                        exact.encoding().decode(index),
                        exact.selectivity_at(index as u64),
                    )
                })
                .collect();
            (graph, exact, sample)
        },
        drop,
    );
    let mut out = Outcome::default();
    out.note(format!(
        "graph: {} labels, {} vertices, {} edges; k = {}: {} realized of {} domain paths",
        graph.label_count(),
        graph.vertex_count(),
        graph.edge_count(),
        config.k,
        exact.nonzero_count(),
        exact.len()
    ));

    // Warm-up: one untimed build fills the process-wide sum-based
    // partition memo, as any long-lived server's first build does; it is
    // also the reference every timed build must equal.
    let cold = Instant::now();
    let reference = PathSelectivityEstimator::build(&graph, config).expect("build");
    let cold_s = cold.elapsed().as_secs_f64();
    let expected = fingerprint(&reference);
    out.note(format!("first build (partition memo cold): {cold_s:.3} s"));

    let mut tracer = Tracer::new(opts.trace);
    let stages_before = workload::stage_snapshot();
    let window = Instant::now();
    let mut samples = Vec::new();
    let mut identical = true;
    while samples.len() < MIN_BUILDS || window.elapsed().as_secs_f64() < opts.seconds {
        let start = Instant::now();
        let built = PathSelectivityEstimator::build(&graph, config);
        let busy = start.elapsed();
        out.attempted += 1;
        match built {
            Ok(estimator) => {
                tracer.record(
                    "core.build",
                    samples.len() as u64,
                    start,
                    busy.as_nanos() as u64,
                );
                samples.push(Sample {
                    at: window.elapsed().as_secs_f64(),
                    ms: busy.as_secs_f64() * 1e3,
                });
                identical &= fingerprint(&estimator) == expected;
            }
            Err(e) => {
                out.failed += 1;
                out.note(format!("build failed: {e}"));
                break;
            }
        }
    }
    let measured_s = window.elapsed().as_secs_f64();
    let stages_after = workload::stage_snapshot();
    out.check(
        format!(
            "{} timed builds produce identical histograms",
            samples.len()
        ),
        identical,
    );

    let mut values = Values::new();
    if samples.is_empty() {
        out.check("builds produced timings", false);
    } else {
        let (p50, p99) = stats::whole_run(&samples);
        let quiet = stats::quiet(&samples, measured_s);
        out.note(format!(
            "builds: n = {}, p50 {p50:.1} ms, p99 {p99:.1} ms; fastest quarter: p50 {:.1} ms, \
             p90 {:.1} ms",
            quiet.n, quiet.p50, quiet.p90
        ));
        values.insert("lat_p50_ms", quiet.p50);
    }

    // Accuracy over every realized path plus the domain sample.
    let (estimates, truths): (Vec<f64>, Vec<u64>) = exact
        .iter_nonzero()
        .chain(sample.iter().cloned())
        .map(|(path, count)| (reference.estimate(&path), count))
        .unzip();
    crate::serve::accuracy(&mut values, &mut out.per_layer, &estimates, &truths);
    values.insert("setup_s", setup_s);

    if opts.trace {
        // The build, decomposed into its layers' public calls: count,
        // order (ordering + permutation into its index space), histogram.
        for r in 0..REPLAYS {
            let op = r as u64;
            let catalog = tracer
                .span("pathenum.count", op, |_| {
                    SparseCatalog::compute_parallel(&graph, config.k, 1)
                })
                .expect("catalog");
            let (ordering, runs) = tracer.span("core.order", op, |_| {
                let ordering = config.ordering.build_sparse(&graph, &catalog, config.k);
                let runs = sparse_ordered_frequencies(&catalog, ordering.as_ref());
                (ordering, runs)
            });
            std::hint::black_box(
                tracer
                    .span("histogram.build", op, |_| {
                        LabelPathHistogram::from_sparse_frequencies(
                            ordering,
                            &runs,
                            config.histogram,
                            config.beta,
                        )
                    })
                    .expect("histogram"),
            );
            assert!(
                catalog == exact,
                "replayed count diverged from the exact catalog"
            );
        }
        let per = |name: &str| tracer.totals(name).mean(1e9);
        let rows: Vec<LayerRow> = ["pathenum.count", "core.order", "histogram.build"]
            .iter()
            .map(|name| LayerRow {
                name: (*name).to_owned(),
                busy: per(name),
                self_time: per(name),
            })
            .collect();
        let table = LayerTable::new("build: one full build", "s", per("core.build"), rows);
        let v = &mut out.per_layer;
        v.insert("core.cold_build_s", cold_s);
        v.insert("pathenum.count_s", per("pathenum.count"));
        v.insert("core.order_s", per("core.order"));
        v.insert("histogram.build_s", per("histogram.build"));
        v.insert("core.build_unattributed_s", table.unattributed());
        v.insert(
            "pathenum.bytes_per_path",
            exact.size_bytes() as f64 / exact.nonzero_count().max(1) as f64,
        );
        workload::stage_metrics(v, &stages_before, &stages_after, samples.len() as u64);
        out.tables.push(table);
        out.tracer = Some(tracer);
    }
    values.insert("peak_rss_mb", workload::peak_rss_mb());
    out.end_to_end = values;
    out
}
