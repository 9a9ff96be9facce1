//! The `maintain` workload: reads beside writes. A closed-loop reader
//! runs `serve-hot`'s mix against a maintained slot while a writer, on a
//! fixed cadence, queues churn batches and runs the maintenance pass that
//! composes, counts, merges, re-derives, snapshots, restores and
//! compare-and-swaps them into the slot — plus any rebuild the default
//! policy asks for.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use phe_core::{LabelPath, PathSelectivityEstimator};
use phe_graph::{Graph, GraphDelta, LabelId};
use phe_pathenum::compute_delta;
use phe_service::{MaintenanceConfig, MaintenanceCoordinator, RunOutcome, ServableEstimator};

use crate::inputs::{self, stream, Draw};
use crate::rng::Rng;
use crate::serve::{self, Deployment, ServeShape, SLOT};
use crate::stats::{self, Sample};
use crate::trace::{LayerRow, LayerTable, Tracer};
use crate::workload::{self, Outcome, RunOpts, Values};

/// Churn batches the writer queues before each pass.
const BATCHES_PER_CYCLE: usize = 4;

struct Cadence {
    interval: Duration,
    fraction: f64,
}

impl Cadence {
    fn for_run(opts: &RunOpts) -> Cadence {
        if opts.smoke {
            Cadence {
                interval: Duration::from_millis(100),
                fraction: 0.02,
            }
        } else {
            // A pass with a policy rebuild takes about two thirds of the
            // interval, so the reader still gets time between passes.
            Cadence {
                interval: Duration::from_millis(400),
                fraction: 0.0025,
            }
        }
    }

    fn cycles(&self, opts: &RunOpts) -> usize {
        ((opts.seconds / self.interval.as_secs_f64()).round() as usize).max(2)
    }
}

/// What one writer cycle did.
struct Cycle {
    sample: Sample,
    lateness_ms: f64,
    rebuilt: bool,
}

/// Sleeps until `due`; returns how late the wake-up was, ms.
fn wait_until(due: Instant) -> f64 {
    std::thread::sleep(due.saturating_duration_since(Instant::now()));
    Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Replays the measured cycles call by call — the same batches, the same
/// rebuild decisions — timing each layer's public call in its own span.
/// The replay keeps the writer's cadence while the reader still runs, so
/// the layers see the contention the measured passes saw.
fn replay(
    tracer: &mut Tracer,
    base: &phe_service::registry::MaintenanceState,
    chain: &[Vec<GraphDelta>],
    rebuilt: &[bool],
    interval: Duration,
) -> (f64, f64) {
    let k = base.estimator.config().k;
    let mut owned: Option<(Graph, PathSelectivityEstimator)> = None;
    let (mut touched, mut composed_edges) = (0usize, 0usize);
    let start = Instant::now();
    for (c, batches) in chain.iter().enumerate() {
        wait_until(start + interval * c as u32);
        let op = c as u64;
        let (graph, estimator) = match &owned {
            Some((g, e)) => (g, e),
            None => (&base.graph, &base.estimator),
        };
        let composed = tracer.span("graph.compose", op, |_| GraphDelta::compose(batches));
        let new_graph = tracer
            .span("graph.apply_delta", op, |_| graph.apply_delta(&composed))
            .expect("chain batches apply");
        let run = tracer
            .span("pathenum.delta_count", op, |_| {
                compute_delta(graph, &new_graph, &composed, k)
            })
            .expect("delta counting");
        let catalog = estimator.sparse_catalog().expect("maintained");
        let merged = tracer
            .span("pathenum.merge", op, |_| catalog.merge_delta(&run))
            .expect("merge");
        let (applied, applied_graph) = tracer
            .span("core.apply_delta", op, |_| {
                estimator.apply_delta(graph, &composed)
            })
            .expect("apply_delta");
        assert!(
            applied.sparse_catalog() == Some(&merged),
            "replayed merge diverged from apply_delta"
        );
        let snapshot = tracer
            .span("core.snapshot", op, |_| applied.snapshot())
            .expect("snapshot");
        std::hint::black_box(
            tracer
                .span("servable.from_snapshot", op, |_| {
                    ServableEstimator::from_snapshot(&snapshot)
                })
                .expect("restore"),
        );
        let next = if rebuilt[c] {
            let fresh = tracer
                .span("core.rebuild", op, |_| {
                    PathSelectivityEstimator::build(&applied_graph, *applied.config())
                })
                .expect("rebuild");
            let snapshot = tracer
                .span("core.snapshot", op, |_| fresh.snapshot())
                .expect("snapshot");
            std::hint::black_box(
                tracer
                    .span("servable.from_snapshot", op, |_| {
                        ServableEstimator::from_snapshot(&snapshot)
                    })
                    .expect("restore"),
            );
            fresh
        } else {
            applied
        };
        touched += run.len();
        composed_edges += composed.edge_count();
        owned = Some((applied_graph, next));
    }
    let n = chain.len().max(1) as f64;
    (touched as f64 / n, composed_edges as f64 / n)
}

/// Runs the `maintain` workload.
pub fn maintain(opts: &RunOpts) -> Outcome {
    const POOL: usize = 4096;
    const PATHS_PER_REQUEST: usize = 16;
    let shape = ServeShape::for_run(opts);
    let cadence = Cadence::for_run(opts);
    let cycles = cadence.cycles(opts);
    let ((dep, reader_lines, chain, final_graph, coordinator), setup_s) = workload::timed_setups(
        || {
            let dep = Deployment::start(&shape, opts.seed, true);
            let pool = inputs::path_pool(&dep.realized, POOL, opts.seed);
            let mut rng = Rng::new(opts.seed, stream::REQUESTS);
            let reader = inputs::requests(
                pool.len(),
                8192,
                PATHS_PER_REQUEST,
                Draw::Zipf(0.99),
                &mut rng,
                |picks| {
                    let paths: Vec<&[LabelId]> = picks
                        .iter()
                        .map(|&i| dep.realized[pool[i]].0.as_slice())
                        .collect();
                    inputs::estimate_line(&paths)
                },
            );
            let (chain, final_graph) = inputs::churn_chain(
                &dep.graph,
                cycles,
                BATCHES_PER_CYCLE,
                cadence.fraction,
                opts.seed,
            );
            // The default policy and queue cap `phe serve` runs with;
            // the writer drives the passes itself instead of a ticker.
            let coordinator = MaintenanceCoordinator::new(
                std::sync::Arc::clone(&dep.registry),
                std::sync::Arc::clone(&dep.metrics),
                MaintenanceConfig::default(),
            );
            (dep, reader.lines, chain, final_graph, coordinator)
        },
        |(dep, ..)| dep.stop(),
    );
    let mut out = Outcome::default();
    let base = dep.registry.maintenance(SLOT).expect("maintained slot");
    let counters = dep.metrics.cache_counters();
    let mut tracer = Tracer::new(opts.trace);
    let stop = AtomicBool::new(false);
    let window = Instant::now() + opts.warmup();
    let far = window + Duration::from_secs(3600);
    let mut log: Vec<Cycle> = Vec::with_capacity(cycles);
    let mut versions_ok = true;
    let mut replayed = (0.0, 0.0);
    let (mut stages_before, mut stages_after) = (Vec::new(), Vec::new());
    let (mut hits_before, mut hits_after) = ((0, 0), (0, 0));
    let mut measured_s = 0.0;
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut local = Tracer::new(false);
            serve::closed_loop(dep.addr(), &reader_lines, window, far, &stop, &mut local, 0)
        });
        wait_until(window);
        stages_before = workload::stage_snapshot();
        hits_before = (counters.hits(), counters.misses());
        let mut version = dep.registry.get(SLOT).map_or(0, |g| g.version());
        for (c, batches) in chain.iter().enumerate() {
            let due = window + cadence.interval * c as u32;
            let lateness_ms = wait_until(due);
            for batch in batches.iter().cloned() {
                out.attempted += 1;
                if coordinator.enqueue(SLOT, batch).is_err() {
                    out.failed += 1;
                }
            }
            let start = Instant::now();
            let outcome = coordinator.run_slot(SLOT);
            let busy = start.elapsed();
            tracer.record(
                "maintenance.run_slot",
                c as u64,
                start,
                busy.as_nanos() as u64,
            );
            out.attempted += 1;
            let rebuilt = match outcome {
                RunOutcome::Published {
                    version: now,
                    batches,
                    rebuilt,
                } => {
                    // One publish for the compacted batches, one more when
                    // a policy rebuild followed.
                    let expected = version + 1 + u64::from(rebuilt.is_some());
                    versions_ok &= now == expected && batches == BATCHES_PER_CYCLE;
                    version = now;
                    rebuilt.is_some()
                }
                other => {
                    out.failed += 1;
                    out.note(format!("cycle {c}: pass did not publish: {other}"));
                    false
                }
            };
            log.push(Cycle {
                sample: Sample {
                    at: (Instant::now() - window).as_secs_f64(),
                    ms: busy.as_secs_f64() * 1e3,
                },
                lateness_ms,
                rebuilt,
            });
        }
        measured_s = (Instant::now() - window).as_secs_f64();
        stages_after = workload::stage_snapshot();
        hits_after = (counters.hits(), counters.misses());
        if opts.trace {
            let rebuilt: Vec<bool> = log.iter().map(|c| c.rebuilt).collect();
            replayed = replay(&mut tracer, &base, &chain, &rebuilt, cadence.interval);
        }
        // ORDERING: a stop flag only; the reader's results come back
        // through the join.
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread panicked")
    });

    // Reader figures over the measured cycles only.
    let reads: Vec<Sample> = reader
        .samples
        .iter()
        .copied()
        .filter(|s| s.at <= measured_s)
        .collect();
    out.attempted += reader.attempted;
    out.failed += reader.failed;
    if let Some(e) = &reader.first_error {
        out.note(format!("reader: first failure: {e}"));
    }
    out.note(format!(
        "reader: {} measured round trips, {} sent, {} failed",
        reads.len(),
        reader.attempted,
        reader.failed
    ));
    let lateness: Vec<f64> = log.iter().map(|c| c.lateness_ms).collect();
    out.note(format!(
        "writer: {} cycles every {} ms, {} batches each; lateness p50 {:.3} ms, max {:.3} ms",
        log.len(),
        cadence.interval.as_millis(),
        BATCHES_PER_CYCLE,
        stats::median(&lateness),
        lateness.iter().copied().fold(0.0, f64::max)
    ));
    let rebuilds = log.iter().filter(|c| c.rebuilt).count();
    out.note(format!(
        "policy rebuilds: {rebuilds} of {} passes",
        log.len()
    ));

    let mut values = Values::new();
    let samples: Vec<Sample> = log.iter().map(|c| c.sample).collect();
    let (p50, p99) = stats::whole_run(&samples);
    let quiet = stats::quiet(&samples, measured_s);
    out.note(format!(
        "publish passes: n = {}, p50 {p50:.3} ms, p99 {p99:.3} ms; fastest quarter: \
         p50 {:.3} ms, p90 {:.3} ms",
        quiet.n, quiet.p50, quiet.p90
    ));
    values.insert("lat_p50_ms", quiet.p50);
    values.insert("setup_s", setup_s);

    // After the last pass: the maintained graph is the chain's end, the
    // served statistics equal a fresh build of it on every realized path,
    // and every pass advanced the version exactly as it published.
    out.check(
        "slot version advanced once per publish (plus once per policy rebuild)",
        versions_ok,
    );
    let state = dep.registry.maintenance(SLOT).expect("maintained slot");
    let same_graph = state.graph.iter_edges().eq(final_graph.iter_edges());
    out.check("maintained graph equals the churn chain's end", same_graph);
    let fresh = PathSelectivityEstimator::build(&final_graph, dep.config).expect("fresh build");
    let served = dep.registry.get(SLOT).expect("slot");
    let truth: Vec<_> = fresh
        .sparse_catalog()
        .expect("retain_sparse keeps the catalog")
        .iter_nonzero()
        .collect();
    let mut estimates = Vec::with_capacity(truth.len());
    let mut mismatches = 0usize;
    for (path, _) in &truth {
        let got = served.estimator().estimate(&LabelPath::new(path));
        if got.to_bits() != fresh.estimate(path).to_bits() {
            mismatches += 1;
        }
        estimates.push(got);
    }
    out.check(
        format!(
            "served estimates equal a fresh build on all {} realized paths",
            truth.len()
        ),
        mismatches == 0,
    );
    let counts: Vec<u64> = truth.iter().map(|(_, c)| *c).collect();
    serve::accuracy(&mut values, &mut out.per_layer, &estimates, &counts);

    if opts.trace {
        let per = |name: &str| tracer.totals(name).busy_ns as f64 / log.len().max(1) as f64 / 1e6;
        let rows = |names: &[&str]| -> Vec<LayerRow> {
            names
                .iter()
                .map(|name| LayerRow {
                    name: (*name).to_owned(),
                    busy: per(name),
                    self_time: tracer.totals(name).self_ns as f64 / log.len().max(1) as f64 / 1e6,
                })
                .collect()
        };
        let publish = LayerTable::new(
            "maintain: publish pass (run_slot)",
            "ms",
            per("maintenance.run_slot"),
            rows(&[
                "graph.compose",
                "core.apply_delta",
                "core.snapshot",
                "servable.from_snapshot",
                "core.rebuild",
            ]),
        );
        let apply = LayerTable::new(
            "maintain: apply_delta (unattributed = core rederive)",
            "ms",
            per("core.apply_delta"),
            rows(&[
                "graph.apply_delta",
                "pathenum.delta_count",
                "pathenum.merge",
            ]),
        );
        let v = &mut out.per_layer;
        v.insert("graph.compose_ms", per("graph.compose"));
        v.insert("graph.apply_delta_ms", per("graph.apply_delta"));
        v.insert("graph.composed_edges", replayed.1);
        v.insert("pathenum.delta_count_ms", per("pathenum.delta_count"));
        v.insert("pathenum.merge_ms", per("pathenum.merge"));
        v.insert("pathenum.touched_paths", replayed.0);
        let catalog = state.estimator.sparse_catalog().expect("maintained");
        v.insert(
            "pathenum.bytes_per_path",
            catalog.size_bytes() as f64 / catalog.nonzero_count().max(1) as f64,
        );
        v.insert("core.apply_delta_ms", per("core.apply_delta"));
        v.insert("core.rederive_ms", apply.unattributed());
        v.insert("core.snapshot_ms", per("core.snapshot"));
        v.insert("core.rebuild_ms", per("core.rebuild"));
        v.insert(
            "core.rebuilds_per_publish",
            rebuilds as f64 / log.len().max(1) as f64,
        );
        v.insert("servable.from_snapshot_ms", per("servable.from_snapshot"));
        v.insert("maintenance.unattributed_ms", publish.unattributed());
        let read = stats::quiet(&reads, measured_s);
        v.insert("reader.lat_p50_ms", read.p50);
        v.insert("reader.lat_p90_ms", read.p90);
        v.insert("reader.req_per_s", reads.len() as f64 / measured_s);
        let (h, m) = (hits_after.0 - hits_before.0, hits_after.1 - hits_before.1);
        v.insert("cache.path_hit_rate", h as f64 / (h + m).max(1) as f64);
        // Only the measured passes: the replay runs the same stages again.
        workload::stage_metrics(v, &stages_before, &stages_after, log.len() as u64);
        out.tables.push(publish);
        out.tables.push(apply);
        out.tracer = Some(tracer);
    }
    dep.stop();
    values.insert("peak_rss_mb", workload::peak_rss_mb());
    out.end_to_end = values;
    out
}
