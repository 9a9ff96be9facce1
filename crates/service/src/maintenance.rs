//! The maintenance loop: self-managing freshness for maintained slots.
//!
//! Applying one change batch per request is correct, but the counting
//! pass dominates cost, so N small batches would pay N passes. The
//! [`MaintenanceCoordinator`] — one per server, the only write path for
//! `delta` ops — makes maintained slots self-managing instead: `delta`
//! ops *enqueue* parsed change batches, and on each publish interval (or
//! a forced `maintenance` `compact`) the worker folds every queued batch
//! into **one** composed delta ([`phe_graph::GraphDelta::compose`], which
//! cancels insert-then-remove churn) and runs one pass: count, merge,
//! re-derive, derive a servable, compare-and-swap publish. Queued batches
//! are *peeked*, not popped: they leave the queue only after the CAS
//! confirms their statistics won, so a crashed or failed pass retries the
//! same batches and a superseded pass cannot double-apply them.
//!
//! A publish is already a fresh build:
//! [`PathSelectivityEstimator::apply_delta`](phe_core::PathSelectivityEstimator::apply_delta)
//! re-derives the ordering over the new graph and the histogram over the
//! merged catalog, which equals a recount, so the served estimates equal
//! [`PathSelectivityEstimator::build`](phe_core::PathSelectivityEstimator::build)
//! of the maintained graph. No second rebuild follows; the lineage
//! (`applied_deltas`) only grows, and the [`phe_core::DriftReport`] each
//! publish samples is the current statistics' error on the touched paths.
//!
//! A publish interval of zero means *apply on arrival*: the ticker sleeps
//! until an enqueue wakes it, so each batch publishes as soon as it is
//! queued — still through the queue and the CAS.
//!
//! Every publish goes through the same
//! [`EstimatorRegistry::register_if_version_maintained`] compare-and-swap
//! as the protocol `rebuild` op, so a compacted publish can never
//! overwrite a fresher `load`: the CAS fails, the result is discarded,
//! and the queue is purged because the lineage its batches were written
//! against is gone.
//!
//! ## Fault injection
//!
//! The loop is built against a deterministic harness: a [`FailurePlan`]
//! names the points a real deployment fails at ([`FailPoint`]) and scripts
//! what happens there — an error return, a panic, or a [`Gate`] hold that
//! parks the worker while the test races a concurrent publish against it.
//! `tests/maintenance_faults.rs` drives every scenario the design claims
//! to survive.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use phe_graph::GraphDelta;

use crate::estimator::ServableEstimator;
use crate::metrics::ServiceMetrics;
use crate::registry::{EstimatorRegistry, MaintenanceState};
use crate::server::panic_message;

/// A named point in the maintenance worker where a [`FailurePlan`] can
/// interpose. Each corresponds to a real-world failure the loop must
/// survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailPoint {
    /// Before the compacted counting pass — a counting crash or OOM.
    BeforeCount,
    /// After counting, before the servable snapshot is derived — a lost
    /// publish: work done, nothing installed.
    BeforePublish,
    /// Immediately before the compare-and-swap — the window where a
    /// concurrent `load` races the worker and must win.
    BeforeCas,
}

/// A two-phase rendezvous for deterministic interleavings: the worker
/// [`Gate::pass`]es (announces arrival, then parks); the test
/// [`Gate::wait_arrived`]s, performs its concurrent action, and
/// [`Gate::release`]s the worker.
#[derive(Debug, Default)]
pub struct Gate {
    state: StdMutex<GateState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    arrived: bool,
    released: bool,
}

impl Gate {
    /// A fresh, unreleased gate.
    pub fn new() -> Arc<Gate> {
        Arc::new(Gate::default())
    }

    /// Worker side: announce arrival and park until released.
    pub fn pass(&self) {
        // The gate guards two plain booleans; a panicking holder cannot
        // leave them torn, so poisoning recovery is sound.
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.arrived = true;
        self.cv.notify_all();
        while !s.released {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Test side: block until the worker has arrived at the gate.
    pub fn wait_arrived(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while !s.arrived {
            s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Test side: let the worker proceed (idempotent; also unblocks a
    /// worker that arrives later).
    pub fn release(&self) {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.released = true;
        self.cv.notify_all();
    }
}

/// What happens when the worker reaches an armed [`FailPoint`].
#[derive(Debug, Clone)]
pub enum FailAction {
    /// The pass aborts with this error; queued batches are retained.
    Fail(String),
    /// The worker panics with this message (recovered by the runner, as
    /// a real worker-thread crash would be by the next tick).
    Panic(String),
    /// The worker parks at the [`Gate`] until the test releases it.
    Hold(Arc<Gate>),
}

/// A deterministic fault-injection script for the maintenance worker.
///
/// Actions are armed per point and consumed FIFO: each time the worker
/// reaches the point, the next armed action fires; with the queue
/// drained the point passes through. Hit counts are recorded whether or
/// not an action fired.
#[derive(Debug, Default)]
pub struct FailurePlan {
    armed: Mutex<HashMap<FailPoint, Vec<FailAction>>>,
    hits: Mutex<HashMap<FailPoint, u64>>,
}

impl FailurePlan {
    /// Arms `action` to fire on the next un-consumed hit of `point`.
    pub fn inject(&self, point: FailPoint, action: FailAction) {
        self.armed.lock().entry(point).or_default().push(action);
    }

    /// How many times the worker has reached `point`.
    pub fn hits(&self, point: FailPoint) -> u64 {
        self.hits.lock().get(&point).copied().unwrap_or(0)
    }

    /// Worker side: pass through `point`, firing the next armed action.
    fn hit(&self, point: FailPoint) -> Result<(), String> {
        *self.hits.lock().entry(point).or_insert(0) += 1;
        let action = self.armed.lock().get_mut(&point).and_then(|queue| {
            if queue.is_empty() {
                None
            } else {
                Some(queue.remove(0))
            }
        });
        match action {
            None => Ok(()),
            Some(FailAction::Fail(message)) => Err(format!("injected failure: {message}")),
            // LINT-ALLOW(panic): this IS the fault-injection harness —
            // the armed action's contract is a real worker-thread panic.
            Some(FailAction::Panic(message)) => panic!("injected panic: {message}"),
            Some(FailAction::Hold(gate)) => {
                gate.pass();
                Ok(())
            }
        }
    }
}

/// Tuning for the maintenance loop.
#[derive(Debug, Clone, Copy)]
pub struct MaintenanceConfig {
    /// How often the ticker compacts queued batches. Zero means apply on
    /// arrival: every enqueue wakes the ticker.
    pub publish_interval: Duration,
    /// Per-slot delta queue cap: an [`MaintenanceCoordinator::enqueue`]
    /// past this depth is refused with [`EnqueueError::QueueFull`]
    /// (structured backpressure) instead of growing the queue — and the
    /// parsed-but-unapplied batches it holds — without bound.
    pub max_queue_depth: usize,
}

impl Default for MaintenanceConfig {
    /// Two-second publish cadence, queues capped at 1024 batches per
    /// slot.
    fn default() -> MaintenanceConfig {
        MaintenanceConfig {
            publish_interval: Duration::from_secs(2),
            max_queue_depth: 1024,
        }
    }
}

/// Why [`MaintenanceCoordinator::enqueue`] refused a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnqueueError {
    /// The slot has no maintained lineage for batches to apply to.
    NoLineage {
        /// The slot that was addressed.
        slot: String,
    },
    /// The slot's queue is at [`MaintenanceConfig::max_queue_depth`];
    /// the batch was **not** queued. The caller should surface
    /// backpressure and retry after the next compacted publish.
    QueueFull {
        /// The configured cap the queue sits at.
        cap: usize,
    },
}

impl std::fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnqueueError::NoLineage { slot } => write!(
                f,
                "no maintained statistics for {slot:?}; run a rebuild with \
                 \"maintain\": true first"
            ),
            EnqueueError::QueueFull { cap } => write!(
                f,
                "maintenance delta queue at its cap of {cap} batches; \
                 retry after the next compacted publish"
            ),
        }
    }
}

impl std::error::Error for EnqueueError {}

/// A point-in-time view of one slot's maintenance loop, for the
/// `maintenance` protocol op and the `list` row join.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlotStatus {
    /// Batches currently queued for the next compacted publish.
    pub queued: usize,
    /// Batches ever enqueued.
    pub enqueued: u64,
    /// Batches refused at the queue cap (structured backpressure).
    pub rejected: u64,
    /// Batches folded into a published compacted pass.
    pub compacted: u64,
    /// Batches discarded because their target lineage disappeared.
    pub purged: u64,
    /// Outcome of the slot's most recent maintenance pass.
    pub last_outcome: Option<String>,
}

/// What one maintenance pass over a slot did.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Another rebuild or compaction holds the slot's single-flight
    /// mark; nothing was done.
    Busy,
    /// Nothing queued, or the queued batches composed to no change.
    Idle,
    /// The slot has no maintained lineage; any queued batches were
    /// purged (they can never apply).
    NoLineage {
        /// Batches dropped from the queue.
        purged: usize,
    },
    /// A publish landed: `batches` queued batches were folded into one
    /// pass whose statistics equal a fresh build of the maintained graph.
    Published {
        /// The slot version the publish installed.
        version: u64,
        /// Queued batches consumed by the compacted pass.
        batches: usize,
        /// Always `None`: a publish is already a fresh build, so no
        /// second rebuild follows it. Kept only for callers that still
        /// destructure it.
        rebuilt: Option<String>,
    },
    /// The compare-and-swap lost to a concurrent publish; the queue,
    /// which targeted the now-dead lineage, was purged.
    Superseded {
        /// Batches dropped from the queue.
        purged: usize,
    },
    /// The pass stopped before publishing; `retained` batches stay
    /// queued for the next tick.
    Failed {
        /// What went wrong.
        message: String,
        /// Batches left in the queue to retry.
        retained: usize,
    },
}

impl std::fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunOutcome::Busy => write!(f, "busy"),
            RunOutcome::Idle => write!(f, "idle"),
            RunOutcome::NoLineage { purged } => {
                write!(f, "no maintained lineage ({purged} purged)")
            }
            RunOutcome::Published {
                version, batches, ..
            } => write!(f, "published v{version} ({batches} batches)"),
            RunOutcome::Superseded { purged } => write!(f, "superseded ({purged} purged)"),
            RunOutcome::Failed { message, retained } => {
                write!(f, "failed: {message} ({retained} retained)")
            }
        }
    }
}

/// Per-slot queue and loop bookkeeping.
#[derive(Debug, Default)]
struct SlotQueue {
    batches: Vec<GraphDelta>,
    enqueued: u64,
    rejected: u64,
    compacted: u64,
    purged: u64,
    last_outcome: Option<String>,
}

/// What the ticker sleeps on.
#[derive(Debug, Default)]
struct TickerSignal {
    /// The owning server is shutting down.
    shutdown: bool,
    /// A batch was queued since the last pass.
    pending: bool,
}

/// At a zero publish interval, how long the ticker waits before retrying
/// batches a pass left queued (busy slot, failed pass).
const RETRY_AFTER: Duration = Duration::from_millis(250);

/// The per-process maintenance loop: one delta queue per maintained
/// slot and a compactor. See the module doc for the design; every
/// [`crate::Server`] owns one and runs its ticker.
pub struct MaintenanceCoordinator {
    registry: Arc<EstimatorRegistry>,
    metrics: Arc<ServiceMetrics>,
    config: MaintenanceConfig,
    slots: Mutex<HashMap<String, SlotQueue>>,
    plan: FailurePlan,
    signal: StdMutex<TickerSignal>,
    signal_cv: Condvar,
}

impl MaintenanceCoordinator {
    /// A coordinator over `registry`, reporting into `metrics`.
    pub fn new(
        registry: Arc<EstimatorRegistry>,
        metrics: Arc<ServiceMetrics>,
        config: MaintenanceConfig,
    ) -> Arc<MaintenanceCoordinator> {
        Arc::new(MaintenanceCoordinator {
            registry,
            metrics,
            config,
            slots: Mutex::new(HashMap::new()),
            plan: FailurePlan::default(),
            signal: StdMutex::new(TickerSignal::default()),
            signal_cv: Condvar::new(),
        })
    }

    /// The fault-injection script (inert unless actions are armed).
    pub fn failure_plan(&self) -> &FailurePlan {
        &self.plan
    }

    /// The current loop configuration.
    pub fn config(&self) -> MaintenanceConfig {
        self.config
    }

    /// Queues one parsed change batch for `name`'s next compacted
    /// publish. Returns the queue depth after the push.
    ///
    /// # Errors
    /// [`EnqueueError::NoLineage`] when the slot has no maintained
    /// lineage to apply batches to; [`EnqueueError::QueueFull`] when the
    /// queue sits at [`MaintenanceConfig::max_queue_depth`] (counted as
    /// `phe_maintenance_batches_total{event="rejected"}`; the batch is
    /// dropped and the caller must surface backpressure).
    pub fn enqueue(&self, name: &str, delta: GraphDelta) -> Result<usize, EnqueueError> {
        if self.registry.maintenance(name).is_none() {
            return Err(EnqueueError::NoLineage {
                slot: name.to_owned(),
            });
        }
        let cap = self.config.max_queue_depth;
        let mut slots = self.slots.lock();
        let queue = slots.entry(name.to_owned()).or_default();
        if queue.batches.len() >= cap {
            queue.rejected += 1;
            drop(slots);
            self.metrics.record_maintenance_batches("rejected", 1);
            return Err(EnqueueError::QueueFull { cap });
        }
        queue.batches.push(delta);
        queue.enqueued += 1;
        let depth = queue.batches.len();
        drop(slots);
        self.metrics.record_maintenance_batches("enqueued", 1);
        self.metrics.record_maintenance_queue_depth(name, depth);
        self.wake();
        Ok(depth)
    }

    /// The slot's loop status (all-zero defaults for unseen slots).
    pub fn status(&self, name: &str) -> SlotStatus {
        self.slots
            .lock()
            .get(name)
            .map(|q| SlotStatus {
                queued: q.batches.len(),
                enqueued: q.enqueued,
                rejected: q.rejected,
                compacted: q.compacted,
                purged: q.purged,
                last_outcome: q.last_outcome.clone(),
            })
            .unwrap_or_default()
    }

    /// Status of every slot the loop has touched, sorted by name.
    pub fn status_all(&self) -> Vec<(String, SlotStatus)> {
        let names: BTreeSet<String> = self.slots.lock().keys().cloned().collect();
        names
            .into_iter()
            .map(|name| {
                let status = self.status(&name);
                (name, status)
            })
            .collect()
    }

    /// One maintenance pass over every slot with queued batches; returns
    /// what each pass did.
    pub fn tick(&self) -> Vec<(String, RunOutcome)> {
        let names: BTreeSet<String> = self
            .slots
            .lock()
            .iter()
            .filter(|(_, q)| !q.batches.is_empty())
            .map(|(name, _)| name.clone())
            .collect();
        names
            .into_iter()
            .map(|name| {
                let outcome = self.run_slot(&name);
                (name, outcome)
            })
            .collect()
    }

    /// One maintenance pass over `name`: compact queued batches into a
    /// single counting pass + CAS publish. Serialized against
    /// protocol-level rebuilds and deltas through the slot's single-flight
    /// mark; panics (real or injected) are recovered and reported as
    /// [`RunOutcome::Failed`] with the queue intact.
    pub fn run_slot(&self, name: &str) -> RunOutcome {
        if !self.registry.try_begin_rebuild(name) {
            return RunOutcome::Busy;
        }
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_locked(name)))
                .unwrap_or_else(|panic| RunOutcome::Failed {
                    message: panic_message(panic.as_ref()).to_owned(),
                    retained: self.queue_len(name),
                });
        self.registry.finish_rebuild(name);
        self.record_outcome(name, &outcome);
        outcome
    }

    /// The pass body; the single-flight mark is held by the caller.
    fn run_locked(&self, name: &str) -> RunOutcome {
        // The CAS precondition and the base state come from one pinned
        // generation, so a `load` racing this pass makes the CAS fail.
        let Some((expected, state)) = self
            .registry
            .get(name)
            .and_then(|g| Some((g.version(), Arc::clone(g.maintenance()?))))
        else {
            return RunOutcome::NoLineage {
                purged: self.purge(name),
            };
        };
        // Peek — not pop — the batches queued so far. Later arrivals ride
        // the next pass; these leave the queue only after a winning CAS.
        let pending: Vec<GraphDelta> = self
            .slots
            .lock()
            .get(name)
            .map_or_else(Vec::new, |q| q.batches.clone());
        let batches = pending.len();
        if batches == 0 {
            return RunOutcome::Idle;
        }
        let failed = |message| RunOutcome::Failed {
            message,
            retained: batches,
        };
        if let Err(message) = self.plan.hit(FailPoint::BeforeCount) {
            return failed(message);
        }
        let composed = GraphDelta::compose(&pending);
        if composed.is_empty() {
            // The batches cancel to nothing: folding them in is a no-op,
            // so they are consumed without a publish.
            self.pop(name, batches, true);
            return RunOutcome::Idle;
        }
        self.metrics.record_delta_started();
        let (estimator, graph) = match state.estimator.apply_delta(&state.graph, &composed) {
            Ok(pair) => pair,
            Err(e) => {
                // A contract violation can never succeed on retry;
                // dropping the batches is the only way forward.
                self.pop(name, batches, false);
                self.metrics.record_delta_failed();
                return RunOutcome::Failed {
                    message: format!("compacted delta rejected: {e}"),
                    retained: 0,
                };
            }
        };
        if let Err(message) = self.plan.hit(FailPoint::BeforePublish) {
            return failed(message);
        }
        // Drift is published only once the CAS confirms these statistics
        // won.
        let drift = estimator.drift().copied();
        let servable = match ServableEstimator::from_maintained(&estimator) {
            Ok(servable) => servable,
            Err(message) => {
                self.metrics.record_delta_failed();
                return failed(format!("deriving servable: {message}"));
            }
        };
        if let Err(message) = self.plan.hit(FailPoint::BeforeCas) {
            return failed(message);
        }
        match self.registry.register_if_version_maintained(
            name,
            servable,
            expected,
            Some(MaintenanceState { graph, estimator }),
        ) {
            Some(version) => {
                self.pop(name, batches, true);
                if version > 1 {
                    self.metrics.record_swap();
                }
                if let Some(drift) = drift {
                    self.metrics.record_drift(name, &drift);
                }
                RunOutcome::Published {
                    version,
                    batches,
                    rebuilt: None,
                }
            }
            None => {
                // A fresher publish (a `load`) won the race; the queued
                // batches target a lineage that no longer exists and must
                // not be replayed against the new statistics.
                self.metrics.record_delta_superseded();
                RunOutcome::Superseded {
                    purged: self.purge(name),
                }
            }
        }
    }

    /// Spawns the publish-interval ticker; the owning server stops it
    /// with [`MaintenanceCoordinator::request_shutdown`] and joins it.
    pub(crate) fn start_ticker(self: &Arc<Self>) -> JoinHandle<()> {
        let this = Arc::clone(self);
        std::thread::spawn(move || {
            let mut backlog = false;
            loop {
                let interval = this.config.publish_interval;
                let on_arrival = interval.is_zero();
                let idle = |s: &mut TickerSignal| !(s.shutdown || (on_arrival && s.pending));
                // The signal is two booleans — recovering a poisoned lock
                // reads valid state, so the ticker survives a panicking
                // sibling instead of killing shutdown.
                let guard = this.signal.lock().unwrap_or_else(PoisonError::into_inner);
                let timeout = match (on_arrival, backlog) {
                    (false, _) => Some(interval),
                    (true, true) => Some(RETRY_AFTER),
                    (true, false) => None,
                };
                let mut signal = match timeout {
                    Some(timeout) => {
                        this.signal_cv
                            .wait_timeout_while(guard, timeout, idle)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                    None => this
                        .signal_cv
                        .wait_while(guard, idle)
                        .unwrap_or_else(PoisonError::into_inner),
                };
                if signal.shutdown {
                    return;
                }
                // Cleared before the pass peeks the queues: a batch queued
                // from here on raises the flag again and gets its own pass.
                signal.pending = false;
                drop(signal);
                this.tick();
                backlog = this.slots.lock().values().any(|q| !q.batches.is_empty());
            }
        })
    }

    /// Asks the ticker to exit at its next wakeup (immediate).
    pub(crate) fn request_shutdown(&self) {
        self.signal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.signal_cv.notify_all();
    }

    /// Tells the ticker a batch was queued (it acts on it at once only at
    /// a zero publish interval).
    fn wake(&self) {
        self.signal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending = true;
        self.signal_cv.notify_all();
    }

    fn queue_len(&self, name: &str) -> usize {
        self.slots.lock().get(name).map_or(0, |q| q.batches.len())
    }

    /// Removes the first `n` batches — the ones the finished pass peeked;
    /// `applied` says whether they published (vs. were rejected).
    fn pop(&self, name: &str, n: usize, applied: bool) {
        let depth = {
            let mut slots = self.slots.lock();
            let queue = slots.entry(name.to_owned()).or_default();
            let n = n.min(queue.batches.len());
            queue.batches.drain(..n);
            if applied {
                queue.compacted += n as u64;
            } else {
                queue.purged += n as u64;
            }
            queue.batches.len()
        };
        self.metrics
            .record_maintenance_batches(if applied { "compacted" } else { "purged" }, n as u64);
        self.metrics.record_maintenance_queue_depth(name, depth);
    }

    /// Drops the whole queue (the lineage its batches target is gone).
    fn purge(&self, name: &str) -> usize {
        let purged = {
            let mut slots = self.slots.lock();
            let queue = slots.entry(name.to_owned()).or_default();
            let purged = queue.batches.len();
            queue.batches.clear();
            queue.purged += purged as u64;
            purged
        };
        if purged > 0 {
            self.metrics
                .record_maintenance_batches("purged", purged as u64);
        }
        self.metrics.record_maintenance_queue_depth(name, 0);
        purged
    }

    fn record_outcome(&self, name: &str, outcome: &RunOutcome) {
        if matches!(outcome, RunOutcome::Idle | RunOutcome::Busy) {
            // Don't overwrite an interesting outcome with steady-state
            // idle ticks.
            return;
        }
        if let RunOutcome::Failed { message, .. } = outcome {
            eprintln!("maintenance pass for {name:?} failed: {message}");
        }
        self.slots
            .lock()
            .entry(name.to_owned())
            .or_default()
            .last_outcome = Some(outcome.to_string());
    }
}

impl std::fmt::Debug for MaintenanceCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintenanceCoordinator")
            .field("config", &self.config)
            .field("slots", &self.slots.lock().len())
            .finish_non_exhaustive()
    }
}
