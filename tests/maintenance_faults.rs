//! Fault-injection suite for the maintenance loop (`phe-service`'s
//! [`MaintenanceCoordinator`]): every scenario scripts an exact failure
//! interleaving through the coordinator's [`FailurePlan`] and asserts the
//! two invariants the design claims:
//!
//! * **lineage consistency** — whatever fails, the slot converges to a
//!   published state identical to a from-scratch build of the final
//!   graph (the compacted merge is bit-identical to a recount);
//! * **exactly-once batches** — the queue never loses a batch (failures
//!   retain it for retry) and never double-applies one (batches pop only
//!   after their statistics won the compare-and-swap; a superseded pass
//!   purges them instead of replaying them against a foreign lineage).

use std::collections::HashSet;
use std::sync::Arc;

use phe::core::{EstimatorConfig, LabelPath, OrderingKind, PathSelectivityEstimator};
use phe::datasets::{erdos_renyi, LabelDistribution};
use phe::graph::{Graph, GraphDelta, LabelId, VertexId};
use phe::service::registry::MaintenanceState;
use phe::service::{
    EnqueueError, EstimatorRegistry, FailAction, FailPoint, Gate, MaintenanceConfig,
    MaintenanceCoordinator, RunOutcome, ServableEstimator, ServiceMetrics,
};

const K: usize = 3;
const BETA: usize = 8;
const LABELS: u16 = 4;

fn config() -> EstimatorConfig {
    config_for(OrderingKind::SumBased)
}

fn config_for(ordering: OrderingKind) -> EstimatorConfig {
    EstimatorConfig {
        k: K,
        beta: BETA,
        ordering,
        threads: 1,
        retain_sparse: true,
        ..EstimatorConfig::default()
    }
}

fn base_graph(seed: u64) -> Graph {
    erdos_renyi(
        80,
        640,
        LABELS,
        LabelDistribution::Zipf { exponent: 1.0 },
        seed,
    )
}

/// The servable snapshot derivation the coordinator itself uses.
fn servable_of(est: &PathSelectivityEstimator) -> ServableEstimator {
    let snapshot = est.snapshot().expect("snapshot");
    ServableEstimator::from_snapshot(&snapshot).expect("servable from snapshot")
}

/// A registry + coordinator serving one maintained slot built over
/// `graph` with `config`, exactly as a `rebuild --maintain` would leave
/// it.
fn maintained_slot_with(
    name: &str,
    graph: &Graph,
    config: EstimatorConfig,
) -> (
    Arc<EstimatorRegistry>,
    Arc<ServiceMetrics>,
    Arc<MaintenanceCoordinator>,
) {
    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 1024));
    let estimator = PathSelectivityEstimator::build(graph, config).expect("base build");
    let version = registry.register_if_version_maintained(
        name,
        servable_of(&estimator),
        0,
        Some(MaintenanceState {
            graph: graph.clone(),
            estimator,
        }),
    );
    assert_eq!(version, Some(1));
    let coordinator = MaintenanceCoordinator::new(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        MaintenanceConfig {
            publish_interval: std::time::Duration::from_secs(3600), // ticked by hand
            ..MaintenanceConfig::default()
        },
    );
    (registry, metrics, coordinator)
}

/// [`maintained_slot_with`] under the default sum-based configuration.
fn maintained_slot(
    name: &str,
    graph: &Graph,
) -> (
    Arc<EstimatorRegistry>,
    Arc<ServiceMetrics>,
    Arc<MaintenanceCoordinator>,
) {
    maintained_slot_with(name, graph, config())
}

/// A small valid churn batch against `graph`: `removals` existing edges
/// dropped, `insertions` fresh recombinations of the same label's
/// endpoints added. Deterministic in `seed`.
fn churn(graph: &Graph, seed: u64, removals: usize, insertions: usize) -> GraphDelta {
    let mut x = seed | 1;
    let mut step = |m: usize| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % m as u64) as usize
    };
    let mut edges: Vec<(u32, u16, u32)> = Vec::new();
    for label in 0..graph.label_count() as u16 {
        for (s, t) in graph.forward_csr(LabelId(label)).iter_edges() {
            edges.push((s.0, label, t.0));
        }
    }
    let mut delta = GraphDelta::new();
    let mut removed = HashSet::new();
    let mut attempts = 0;
    while removed.len() < removals && attempts < removals * 200 {
        attempts += 1;
        let (s, l, t) = edges[step(edges.len())];
        if removed.insert((s, l, t)) {
            delta.remove(VertexId(s), LabelId(l), VertexId(t));
        }
    }
    let mut added = HashSet::new();
    let mut attempts = 0;
    while added.len() < insertions && attempts < insertions * 200 {
        attempts += 1;
        let (s, l, _) = edges[step(edges.len())];
        let (_, l2, t) = edges[step(edges.len())];
        if l != l2
            || graph.has_edge(VertexId(s), LabelId(l), VertexId(t))
            || removed.contains(&(s, l, t))
        {
            continue;
        }
        if added.insert((s, l, t)) {
            delta.insert(VertexId(s), LabelId(l), VertexId(t));
        }
    }
    assert!(!delta.is_empty(), "churn produced an empty batch");
    delta
}

/// `n` batches, each valid against the graph left by its predecessors
/// (exactly how protocol `delta` ops arrive), plus the final graph.
fn sequential_batches(graph: &Graph, n: usize, seed: u64) -> (Vec<GraphDelta>, Graph) {
    let mut batches = Vec::new();
    let mut current = graph.clone();
    for i in 0..n {
        let delta = churn(&current, seed + i as u64 * 7919, 6, 6);
        current = current
            .apply_delta(&delta)
            .expect("sequential churn applies");
        batches.push(delta);
    }
    (batches, current)
}

/// Asserts the slot's maintained catalog is bit-identical to a fresh
/// single-threaded recount of `final_graph` — the lineage-consistency
/// oracle every scenario converges to.
fn assert_converged(registry: &EstimatorRegistry, name: &str, final_graph: &Graph) {
    assert_converged_with(registry, name, final_graph, config());
}

/// [`assert_converged`] for a slot built with `config`.
fn assert_converged_with(
    registry: &EstimatorRegistry,
    name: &str,
    final_graph: &Graph,
    config: EstimatorConfig,
) {
    let state = registry.maintenance(name).expect("slot stays maintained");
    let reference = PathSelectivityEstimator::build(final_graph, config).expect("recount");
    assert_eq!(
        state
            .estimator
            .sparse_catalog()
            .expect("maintained catalog"),
        reference.sparse_catalog().expect("reference catalog"),
        "maintained catalog diverged from a recount of the final graph"
    );
}

fn prometheus_value(metrics: &ServiceMetrics, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    let samples =
        phe::obs::parse_exposition(&metrics.render_prometheus()).expect("exposition parses");
    samples
        .iter()
        .find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .map(|s| s.value)
}

#[test]
fn counting_failure_mid_compaction_retains_queue_and_converges() {
    let graph = base_graph(11);
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph);
    let (batches, final_graph) = sequential_batches(&graph, 3, 101);
    for batch in &batches {
        coordinator.enqueue("main", batch.clone()).expect("enqueue");
    }

    // The compacted counting pass dies (an OOM-shaped failure).
    coordinator.failure_plan().inject(
        FailPoint::BeforeCount,
        FailAction::Fail("counting oom".into()),
    );
    let outcome = coordinator.run_slot("main");
    let RunOutcome::Failed { message, retained } = outcome else {
        panic!("expected Failed, got {outcome:?}");
    };
    assert!(message.contains("counting oom"), "{message}");
    assert_eq!(retained, 3, "failed pass must retain every batch");
    assert_eq!(coordinator.status("main").queued, 3);
    assert_eq!(
        registry.get("main").unwrap().version(),
        1,
        "nothing may publish on a failed pass"
    );

    // Next tick: the same batches, one compacted pass, converged.
    let outcome = coordinator.run_slot("main");
    assert_eq!(
        outcome,
        RunOutcome::Published {
            version: 2,
            batches: 3,
            rebuilt: None,
        },
        "retry must fold exactly the retained batches"
    );
    let status = coordinator.status("main");
    assert_eq!((status.queued, status.compacted, status.purged), (0, 3, 0));
    assert_eq!(coordinator.failure_plan().hits(FailPoint::BeforeCount), 2);
    assert_converged(&registry, "main", &final_graph);
}

#[test]
fn worker_crash_before_cas_is_recovered_and_retried() {
    let graph = base_graph(13);
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph);
    let (batches, final_graph) = sequential_batches(&graph, 3, 211);
    for batch in &batches {
        coordinator.enqueue("main", batch.clone()).expect("enqueue");
    }

    // The worker thread crashes after counting, before anything
    // publishes — all work lost, queue intact.
    coordinator.failure_plan().inject(
        FailPoint::BeforePublish,
        FailAction::Panic("worker crash".into()),
    );
    let outcome = coordinator.run_slot("main");
    let RunOutcome::Failed { message, retained } = outcome else {
        panic!("expected recovered panic, got {outcome:?}");
    };
    assert!(message.contains("worker crash"), "{message}");
    assert_eq!(retained, 3);
    assert_eq!(registry.get("main").unwrap().version(), 1);
    assert_eq!(
        registry
            .maintenance("main")
            .unwrap()
            .estimator
            .applied_deltas(),
        0,
        "a crashed pass must not advance the lineage"
    );

    // The crash released the single-flight mark: the next pass runs (not
    // Busy) and converges on the same batches.
    let outcome = coordinator.run_slot("main");
    assert_eq!(
        outcome,
        RunOutcome::Published {
            version: 2,
            batches: 3,
            rebuilt: None,
        }
    );
    let status = coordinator.status("main");
    assert_eq!((status.queued, status.compacted, status.purged), (0, 3, 0));
    assert_converged(&registry, "main", &final_graph);
}

#[test]
fn publish_superseded_by_concurrent_load_purges_queue() {
    let graph = base_graph(17);
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph);
    let (batches, _) = sequential_batches(&graph, 3, 307);
    for batch in &batches {
        coordinator.enqueue("main", batch.clone()).expect("enqueue");
    }

    // Park the worker in the race window between deriving its snapshot
    // and the compare-and-swap, land a `load` over it, then release.
    let gate = Gate::new();
    coordinator
        .failure_plan()
        .inject(FailPoint::BeforeCas, FailAction::Hold(Arc::clone(&gate)));
    let worker = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run_slot("main"))
    };
    gate.wait_arrived();
    let loaded = base_graph(99);
    let fresh = PathSelectivityEstimator::build(&loaded, config()).expect("loaded snapshot build");
    assert_eq!(registry.register("main", servable_of(&fresh)), 2);
    gate.release();

    let outcome = worker.join().expect("worker joins");
    assert_eq!(
        outcome,
        RunOutcome::Superseded { purged: 3 },
        "the stale compacted publish must lose the CAS and purge its queue"
    );
    // The load's statistics — not the worker's — are what serves, and the
    // queue cannot replay batches against the foreign lineage.
    assert_eq!(registry.get("main").unwrap().version(), 2);
    assert!(registry.maintenance("main").is_none());
    let status = coordinator.status("main");
    assert_eq!((status.queued, status.compacted, status.purged), (0, 0, 3));
    assert!(
        coordinator.enqueue("main", batches[0].clone()).is_err(),
        "a slot whose lineage a load killed must refuse new batches"
    );
}

#[test]
fn cancelling_batches_compact_to_a_no_op_without_publishing() {
    let graph = base_graph(29);
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph);

    // A batch and its exact inverse: valid sequentially, net nothing.
    let delta = churn(&graph, 601, 5, 5);
    let mut inverse = GraphDelta::new();
    for &(s, l, t) in delta.insertions() {
        inverse.remove(s, l, t);
    }
    for &(s, l, t) in delta.removals() {
        inverse.insert(s, l, t);
    }
    coordinator.enqueue("main", delta).expect("enqueue");
    coordinator
        .enqueue("main", inverse)
        .expect("enqueue inverse");

    // Composition cancels to empty: the batches are consumed without a
    // counting pass or a publish (no version bump, no new lineage).
    assert_eq!(coordinator.run_slot("main"), RunOutcome::Idle);
    assert_eq!(registry.get("main").unwrap().version(), 1);
    let status = coordinator.status("main");
    assert_eq!((status.queued, status.compacted, status.purged), (0, 2, 0));
    assert_converged(&registry, "main", &graph);
}

/// The delta queue is bounded. Past `max_queue_depth` the coordinator
/// refuses with a structured [`EnqueueError::QueueFull`] (counted as
/// `phe_maintenance_batches_total{event="rejected"}`), the refusal holds
/// even while a publish pass is parked mid-flight over the full queue,
/// and the cap reopens once the pass drains it — with the retried batch
/// converging the lineage as if nothing was ever refused.
#[test]
fn enqueue_past_cap_is_structured_backpressure_and_recovers() {
    let graph = base_graph(23);
    let (registry, metrics, _wide) = maintained_slot("main", &graph);
    // A second coordinator over the same slot, with a 2-batch cap.
    let coordinator = MaintenanceCoordinator::new(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        MaintenanceConfig {
            publish_interval: std::time::Duration::from_secs(3600),
            max_queue_depth: 2,
        },
    );
    let (batches, final_graph) = sequential_batches(&graph, 3, 501);

    assert_eq!(coordinator.enqueue("main", batches[0].clone()), Ok(1));
    assert_eq!(coordinator.enqueue("main", batches[1].clone()), Ok(2));
    let refused = coordinator
        .enqueue("main", batches[2].clone())
        .expect_err("third batch must hit the cap");
    assert_eq!(refused, EnqueueError::QueueFull { cap: 2 });
    assert!(refused.to_string().contains("cap of 2"), "{refused}");
    assert_eq!(
        prometheus_value(
            &metrics,
            "phe_maintenance_batches_total",
            &[("event", "rejected")],
        ),
        Some(1.0)
    );
    let status = coordinator.status("main");
    assert_eq!((status.queued, status.rejected), (2, 1));

    // Park a publish pass mid-flight: the queued batches are still
    // owned by the pass (peeked, not popped), so the cap still refuses.
    let gate = Gate::new();
    coordinator
        .failure_plan()
        .inject(FailPoint::BeforeCas, FailAction::Hold(Arc::clone(&gate)));
    let worker = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || coordinator.run_slot("main"))
    };
    gate.wait_arrived();
    assert_eq!(
        coordinator.enqueue("main", batches[2].clone()),
        Err(EnqueueError::QueueFull { cap: 2 })
    );
    gate.release();
    assert_eq!(
        worker.join().expect("publish pass"),
        RunOutcome::Published {
            version: 2,
            batches: 2,
            rebuilt: None,
        }
    );

    // The publish drained the queue; the refused batch retries cleanly
    // and the lineage converges as if the cap never fired.
    assert_eq!(coordinator.enqueue("main", batches[2].clone()), Ok(1));
    assert_eq!(
        coordinator.run_slot("main"),
        RunOutcome::Published {
            version: 3,
            batches: 1,
            rebuilt: None,
        }
    );
    assert_converged(&registry, "main", &final_graph);
    assert_eq!(
        prometheus_value(
            &metrics,
            "phe_maintenance_batches_total",
            &[("event", "rejected")],
        ),
        Some(2.0)
    );
}

/// A publish is already a fresh build, for every ordering a slot can
/// serve: over eight passes each publish advances the version by exactly
/// one and the lineage by one delta, keeps the origin's `build_id`, and
/// serves — and maintains — estimates bit-equal to a full build of the
/// maintained graph on every realized path.
#[test]
fn every_publish_equals_a_fresh_build_and_extends_the_lineage() {
    const PASSES: u64 = 8;
    for ordering in OrderingKind::ALL {
        let config = config_for(ordering);
        let graph = base_graph(37);
        let (registry, metrics, coordinator) = maintained_slot_with("main", &graph, config);
        let origin = registry
            .maintenance("main")
            .expect("maintained")
            .estimator
            .build_id();
        let (batches, final_graph) = sequential_batches(&graph, PASSES as usize, 907);
        for (pass, batch) in (1..=PASSES).zip(batches) {
            coordinator.enqueue("main", batch).expect("enqueue");
            assert_eq!(
                coordinator.run_slot("main"),
                RunOutcome::Published {
                    version: 1 + pass,
                    batches: 1,
                    rebuilt: None,
                },
                "{ordering:?} pass {pass}: one publish, one version"
            );
            let state = registry.maintenance("main").expect("still maintained");
            assert_eq!(state.estimator.applied_deltas(), pass, "{ordering:?}");
            assert_eq!(state.estimator.build_id(), origin, "{ordering:?}");
            let served = registry.get("main").expect("slot serves");
            assert_eq!(served.version(), 1 + pass);
            let fresh = PathSelectivityEstimator::build(&state.graph, config).expect("full build");
            let catalog = fresh.sparse_catalog().expect("fresh catalog");
            for (path, _) in catalog.iter_nonzero() {
                let want = fresh.estimate(&path).to_bits();
                assert_eq!(
                    state.estimator.estimate(&path).to_bits(),
                    want,
                    "{ordering:?} pass {pass} maintained {path:?}"
                );
                let got = served.estimator().estimate(&LabelPath::new(&path));
                assert_eq!(
                    got.to_bits(),
                    want,
                    "{ordering:?} pass {pass} served {path:?}"
                );
            }
            // The touched-path accuracy gauge follows the latest publish.
            let drift = state.estimator.drift().expect("a publish samples drift");
            assert_eq!(
                prometheus_value(&metrics, "phe_drift_sampled_paths", &[("slot", "main")]),
                Some(drift.sampled as f64)
            );
        }
        assert_converged_with(&registry, "main", &final_graph, config);
    }
}

/// A batch naming vertex `u32::MAX` is a contract violation, not an
/// overflow: the pass drops it as one, the slot keeps serving its
/// statistics, and the next valid batch publishes.
#[test]
fn batch_naming_vertex_u32_max_is_dropped_and_the_slot_keeps_serving() {
    let graph = base_graph(41);
    let (registry, metrics, coordinator) = maintained_slot("main", &graph);
    let mut overflow = GraphDelta::new();
    overflow.insert(VertexId(u32::MAX), LabelId(0), VertexId(0));
    coordinator.enqueue("main", overflow).expect("enqueue");

    let outcome = coordinator.run_slot("main");
    let RunOutcome::Failed { message, retained } = outcome else {
        panic!("expected the batch to be refused, got {outcome:?}");
    };
    assert!(message.contains("invalid graph delta"), "{message}");
    assert_eq!(
        retained, 0,
        "a contract violation can never succeed on retry"
    );
    assert_eq!(registry.get("main").unwrap().version(), 1);
    assert_eq!(metrics.report().deltas_failed, 1);
    let status = coordinator.status("main");
    assert_eq!((status.queued, status.purged), (0, 1));

    let (batches, final_graph) = sequential_batches(&graph, 1, 1103);
    coordinator
        .enqueue("main", batches[0].clone())
        .expect("enqueue");
    assert_eq!(
        coordinator.run_slot("main"),
        RunOutcome::Published {
            version: 2,
            batches: 1,
            rebuilt: None,
        }
    );
    assert_converged(&registry, "main", &final_graph);
}
