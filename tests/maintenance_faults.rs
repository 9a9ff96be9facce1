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
use std::time::Duration;

use phe::core::{
    DriftThreshold, EstimatorConfig, LabelPath, PathSelectivityEstimator, RebuildPolicy,
};
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
    EstimatorConfig {
        k: K,
        beta: BETA,
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
/// `graph`, exactly as a `rebuild --maintain` would leave it.
fn maintained_slot(
    name: &str,
    graph: &Graph,
    policy: RebuildPolicy,
) -> (
    Arc<EstimatorRegistry>,
    Arc<ServiceMetrics>,
    Arc<MaintenanceCoordinator>,
) {
    let metrics = Arc::new(ServiceMetrics::new());
    let registry = Arc::new(EstimatorRegistry::new(metrics.cache_counters(), 1024));
    let estimator = PathSelectivityEstimator::build(graph, config()).expect("base build");
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
            policy,
            ..MaintenanceConfig::default()
        },
    );
    (registry, metrics, coordinator)
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
    let state = registry.maintenance(name).expect("slot stays maintained");
    let reference = PathSelectivityEstimator::build(final_graph, config()).expect("recount");
    assert_eq!(
        state
            .estimator
            .sparse_catalog()
            .expect("maintained catalog"),
        reference.sparse_catalog().expect("reference catalog"),
        "maintained catalog diverged from a recount of the final graph"
    );
}

/// Asserts the slot's lineage was restarted by a policy rebuild that
/// re-derived from the maintained catalog: its `build_id` and every
/// realized-path estimate — maintained and served — equal a full build of
/// the maintained graph, and no counting time was spent.
fn assert_rederived_from_maintained_catalog(registry: &EstimatorRegistry, name: &str) {
    let state = registry.maintenance(name).expect("slot stays maintained");
    let reference = PathSelectivityEstimator::build(&state.graph, config()).expect("full build");
    assert_eq!(state.estimator.build_id(), reference.build_id());
    assert_eq!(
        state.estimator.build_stats().catalog_time,
        Duration::ZERO,
        "a policy rebuild must re-derive from the maintained catalog, not recount"
    );
    let served = registry.get(name).expect("slot serves");
    let catalog = reference.sparse_catalog().expect("reference catalog");
    for (path, _) in catalog.iter_nonzero() {
        let want = reference.estimate(&path).to_bits();
        assert_eq!(state.estimator.estimate(&path).to_bits(), want, "{path:?}");
        let got = served.estimator().estimate(&LabelPath::new(&path));
        assert_eq!(got.to_bits(), want, "served {path:?}");
    }
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
    let policy = RebuildPolicy {
        max_applied_deltas: 0,
        drift_scale: 0.0,
        drift_override: None,
    };
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph, policy);
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
    let policy = RebuildPolicy {
        max_applied_deltas: 0,
        drift_scale: 0.0,
        drift_override: None,
    };
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph, policy);
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
    let policy = RebuildPolicy {
        max_applied_deltas: 0,
        drift_scale: 0.0,
        drift_override: None,
    };
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph, policy);
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
fn drift_crossing_triggers_exactly_one_rebuild_and_resets_gauges() {
    let graph = base_graph(19);
    // A threshold any nonzero drift crosses, with the lineage arm off:
    // the rebuild below is attributable to drift alone.
    let policy = RebuildPolicy {
        max_applied_deltas: 0,
        drift_scale: 1.0,
        drift_override: Some(DriftThreshold {
            mean_abs_error_rate: 1e-9,
            max_q_error: 1.0 + 1e-9,
        }),
    };
    let (registry, metrics, coordinator) = maintained_slot("main", &graph, policy);
    let (batches, final_graph) = sequential_batches(&graph, 2, 401);
    for batch in &batches {
        coordinator.enqueue("main", batch.clone()).expect("enqueue");
    }

    let outcome = coordinator.run_slot("main");
    assert_eq!(
        outcome,
        RunOutcome::Published {
            version: 3, // v2 = compacted publish, v3 = the drift rebuild
            batches: 2,
            rebuilt: Some("drift".into()),
        },
        "the crossing must trigger a rebuild in the same pass"
    );
    assert_eq!(
        prometheus_value(
            &metrics,
            "phe_maintenance_rebuilds_total",
            &[("trigger", "drift")]
        ),
        Some(1.0)
    );
    // The rebuild reset the lineage and unpublished the drift gauges the
    // dead lineage sampled.
    let state = registry.maintenance("main").expect("still maintained");
    assert_eq!(state.estimator.applied_deltas(), 0);
    assert!(state.estimator.drift().is_none());
    assert_rederived_from_maintained_catalog(&registry, "main");
    assert_eq!(
        prometheus_value(&metrics, "phe_drift_mean_abs_error", &[("slot", "main")]),
        None,
        "drift gauges must not outlive the lineage they measured"
    );
    assert!(coordinator
        .status("main")
        .last_trigger
        .as_deref()
        .unwrap()
        .starts_with("drift"));

    // Exactly one: the post-rebuild lineage has no drift sample, so the
    // next pass is a no-op.
    assert_eq!(coordinator.run_slot("main"), RunOutcome::Idle);
    assert_eq!(
        prometheus_value(
            &metrics,
            "phe_maintenance_rebuilds_total",
            &[("trigger", "drift")]
        ),
        Some(1.0)
    );
    assert_converged(&registry, "main", &final_graph);
}

#[test]
fn applied_deltas_threshold_triggers_full_rebuild() {
    let graph = base_graph(23);
    let policy = RebuildPolicy {
        max_applied_deltas: 2,
        drift_scale: 0.0,
        drift_override: None,
    };
    let (registry, metrics, coordinator) = maintained_slot("main", &graph, policy);
    let (batches, final_graph) = sequential_batches(&graph, 2, 503);

    // First batch: ordinary compacted publish, lineage below threshold.
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
    assert_eq!(
        registry
            .maintenance("main")
            .unwrap()
            .estimator
            .applied_deltas(),
        1
    );

    // Second batch crosses max_applied_deltas: compacted publish, then a
    // full maintaining rebuild folds the lineage back to zero.
    coordinator
        .enqueue("main", batches[1].clone())
        .expect("enqueue");
    assert_eq!(
        coordinator.run_slot("main"),
        RunOutcome::Published {
            version: 4, // v3 = compacted publish, v4 = the rebuild
            batches: 1,
            rebuilt: Some("applied-deltas".into()),
        }
    );
    assert_eq!(
        registry
            .maintenance("main")
            .unwrap()
            .estimator
            .applied_deltas(),
        0
    );
    assert_rederived_from_maintained_catalog(&registry, "main");
    assert_eq!(
        prometheus_value(
            &metrics,
            "phe_maintenance_rebuilds_total",
            &[("trigger", "applied-deltas")],
        ),
        Some(1.0)
    );
    // Each of the two non-empty compacted passes started one delta.
    assert_eq!(metrics.report().deltas_started, 2);
    assert_eq!(
        prometheus_value(&metrics, "phe_deltas_total", &[("event", "started")]),
        Some(2.0)
    );
    assert!(coordinator
        .status("main")
        .last_trigger
        .as_deref()
        .unwrap()
        .starts_with("applied-deltas"));
    assert_converged(&registry, "main", &final_graph);
}

#[test]
fn cancelling_batches_compact_to_a_no_op_without_publishing() {
    let graph = base_graph(29);
    let policy = RebuildPolicy {
        max_applied_deltas: 0,
        drift_scale: 0.0,
        drift_override: None,
    };
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph, policy);

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

#[test]
fn failure_before_rebuild_retains_queue_and_next_tick_completes_it() {
    let graph = base_graph(31);
    let policy = RebuildPolicy {
        max_applied_deltas: 1, // every compacted publish demands a rebuild
        drift_scale: 0.0,
        drift_override: None,
    };
    let (registry, _metrics, coordinator) = maintained_slot("main", &graph, policy);
    let (batches, final_graph) = sequential_batches(&graph, 1, 701);
    coordinator
        .enqueue("main", batches[0].clone())
        .expect("enqueue");

    // The compacted publish lands (v2), then the policy rebuild dies.
    coordinator.failure_plan().inject(
        FailPoint::BeforeRebuild,
        FailAction::Fail("rebuild oom".into()),
    );
    let outcome = coordinator.run_slot("main");
    let RunOutcome::Failed { message, retained } = outcome else {
        panic!("expected rebuild failure, got {outcome:?}");
    };
    assert!(message.contains("rebuild oom"), "{message}");
    assert_eq!(retained, 0, "the compacted batch already published");
    assert_eq!(registry.get("main").unwrap().version(), 2);
    assert_converged(&registry, "main", &final_graph);

    // The trigger condition still holds; the next tick completes the
    // rebuild it owes.
    assert_eq!(
        coordinator.run_slot("main"),
        RunOutcome::Published {
            version: 3,
            batches: 0,
            rebuilt: Some("applied-deltas".into()),
        }
    );
    assert_eq!(
        registry
            .maintenance("main")
            .unwrap()
            .estimator
            .applied_deltas(),
        0
    );
    assert_converged(&registry, "main", &final_graph);
}

/// Satellite: the delta queue is bounded. Past `max_queue_depth` the
/// coordinator refuses with a structured [`EnqueueError::QueueFull`]
/// (counted as `phe_maintenance_batches_total{event="rejected"}`), the
/// refusal holds even while a publish pass is parked mid-flight over the
/// full queue, and the cap reopens once the pass drains it — with the
/// retried batch converging the lineage as if nothing was ever refused.
#[test]
fn enqueue_past_cap_is_structured_backpressure_and_recovers() {
    let graph = base_graph(23);
    let policy = RebuildPolicy {
        max_applied_deltas: 0,
        drift_scale: 0.0,
        drift_override: None,
    };
    let (registry, metrics, _wide) = maintained_slot("main", &graph, policy);
    // A second coordinator over the same slot, with a 2-batch cap.
    let coordinator = MaintenanceCoordinator::new(
        Arc::clone(&registry),
        Arc::clone(&metrics),
        MaintenanceConfig {
            publish_interval: std::time::Duration::from_secs(3600),
            policy,
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
