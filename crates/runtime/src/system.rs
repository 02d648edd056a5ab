//! The distributed CA-action system: participating threads, the simulated
//! network beneath them, and run-wide statistics.
//!
//! §5.1: "For a given CA action, each participating thread is located in its
//! own node (or partition) … Every partition has a copy of the run-time
//! system, including the subsystems for concurrent exception handling and
//! resolution." [`System::spawn`] creates exactly that: one OS thread per
//! participant, bound 1:1 to a network partition, with the recovery driver
//! (see [`crate::context`]) as its partition executive.

use std::fmt;
use std::sync::Arc;

use caa_core::ids::ThreadId;
use caa_core::message::Message;
use caa_core::time::{VirtualDuration, VirtualInstant};
use caa_simnet::{
    ClockMode, FaultPlan, LatencyModel, NetArena, NetConfig, NetStats, Network, SchedStats,
};
use parking_lot::Mutex;

use crate::context::Ctx;
use crate::error::{RuntimeError, Step, Unwind};
use crate::observe::Observer;
use crate::pool::{spawn_pooled, TaskHandle};
use crate::protocol::{ResolutionProtocol, XrrResolution};

/// Run-wide counters maintained by the recovery driver.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct RuntimeStats {
    /// Completed coordinated recoveries (one per participant per action
    /// recovery).
    pub recoveries: u64,
    /// Exceptions raised by roles (including abortion-handler exceptions).
    pub exceptions_raised: u64,
    /// Invocations of the resolution procedure (graph search). The paper's
    /// algorithm performs exactly one per recovery; the Campbell–Randell
    /// baseline performs `N(N−1)(N−2)` (§5.3).
    pub resolutions_invoked: u64,
    /// Nested actions aborted by enclosing-level recovery.
    pub aborts: u64,
    /// Undo rounds executed by the signalling algorithm (§3.4 case 2).
    pub undo_rounds: u64,
    /// Corrupted messages absorbed outside the signalling window.
    pub corrupted_ignored: u64,
    /// Exit-protocol waits that expired with votes missing (the suspicion
    /// facility then presumes the silent peers crashed and the wait
    /// continues over the shrunken view).
    pub exit_timeouts: u64,
    /// Bounded signalling waits that expired against a degraded view (the
    /// suspicion facility presumes the silent peers crashed before the ƒ
    /// rule of §3.4 fills their announcements).
    pub signal_timeouts: u64,
    /// Bounded resolution waits that expired with a peer silent (the
    /// membership extension then presumes the peer crashed).
    pub resolution_timeouts: u64,
    /// Membership view changes applied (initiated locally or adopted from
    /// a peer's announcement; each participant counts its own).
    pub view_changes: u64,
    /// Completed epoch-numbered rejoins: restarted participants that were
    /// granted the current view by a survivor and re-entered their crashed
    /// action (counted once per re-entry, on the rejoining thread).
    pub rejoins: u64,
    /// Messages for not-yet-entered instances dropped because the retained
    /// list was full.
    pub retained_dropped: u64,
    /// Suspicion rounds the eviction quorum gate refused: the silent peers
    /// were recently alive and outnumbered the would-be survivors, so the
    /// suspecting thread gave up locally instead of evicting them.
    pub suspicions_refused: u64,
    /// Exit waits a rejoined participant gave up on without suspecting
    /// anyone (also counted in `exit_timeouts`).
    pub exit_give_ups: u64,
}

/// State shared between all participants of one [`System`].
pub(crate) struct SystemShared {
    pub(crate) protocol: Arc<dyn ResolutionProtocol>,
    /// The paper's `Treso`: virtual time charged per invocation of the
    /// resolution procedure.
    pub(crate) resolution_delay: VirtualDuration,
    pub(crate) stats: Mutex<RuntimeStats>,
    pub(crate) observer: Option<Arc<dyn Observer>>,
}

/// A registered-but-not-yet-dispatched participant body.
///
/// [`System::spawn`] registers the participant's network partition
/// immediately (ids are assigned in spawn order, and a registered
/// endpoint holds virtual time back), but hands the body to a pool
/// thread only when [`System::run`] is called — by which point every
/// participant is registered, so no start gate is needed and each worker
/// begins executing its body directly instead of parking on a gate
/// first. (The former gate cost one extra park/wake per participant per
/// run — measurable at sweep rates.)
type PendingBody = Box<dyn FnOnce() -> Result<(), RuntimeError> + Send + 'static>;

/// A dispatched participant's join handle.
type ParticipantHandle = TaskHandle<Result<(), RuntimeError>>;

/// A distributed object system hosting CA actions.
///
/// # Examples
///
/// ```
/// use caa_runtime::{ActionDef, System};
/// use caa_core::outcome::ActionOutcome;
/// use caa_core::time::secs;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = System::builder().build();
/// let action = ActionDef::builder("hello")
///     .role("solo", 0u32)
///     .build()?;
///
/// sys.spawn("T0", move |ctx| {
///     let outcome = ctx.enter(&action, "solo", |rc| rc.work(secs(1.0)))?;
///     assert_eq!(outcome, ActionOutcome::Success);
///     Ok(())
/// });
/// let report = sys.run();
/// assert!(report.is_ok());
/// # Ok(())
/// # }
/// ```
pub struct System {
    net: Network<Message>,
    shared: Arc<SystemShared>,
    pending: Vec<(Arc<str>, PendingBody)>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("threads", &self.pending.len())
            .field("protocol", &self.shared.protocol.name())
            .finish()
    }
}

impl System {
    /// Starts configuring a system.
    #[must_use]
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// The underlying network (message counters, current virtual time).
    #[must_use]
    pub fn network(&self) -> &Network<Message> {
        &self.net
    }

    /// Snapshot of the runtime counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.shared.stats.lock().clone()
    }

    /// Spawns a participating thread. Thread ids are assigned in spawn
    /// order starting from 0 — bind action roles accordingly.
    ///
    /// The body runs on its own OS thread (drawn from a process-wide pool
    /// of finished participants, so short-lived systems — e.g. sweep
    /// seeds — do not pay a fresh thread spawn per participant) with a
    /// dedicated network partition; it typically enters one or more CA
    /// actions and propagates [`Flow`](crate::Flow) with `?`.
    pub fn spawn(
        &mut self,
        name: impl Into<Arc<str>>,
        body: impl FnOnce(&mut Ctx) -> Step + Send + 'static,
    ) -> ThreadId {
        // One interning per participant: the endpoint, the context and the
        // report label all share the same text (and callers that already
        // hold an `Arc<str>` — e.g. sweep drivers with cached thread
        // names — pay no allocation at all).
        let name = name.into();
        let endpoint = self.net.endpoint(Arc::clone(&name));
        let me = ThreadId::new(endpoint.id().as_u32());
        let shared = Arc::clone(&self.shared);
        let thread_name = Arc::clone(&name);
        // Registration happens now (the endpoint above holds virtual time
        // back); the body is dispatched to a pool thread by `run`, once
        // every participant is registered.
        let job: PendingBody = Box::new(move || {
            let mut ctx = Ctx::new(me, thread_name, endpoint, shared);
            let result = body(&mut ctx);
            ctx.shutdown();
            match result {
                Ok(()) => Ok(()),
                Err(flow) => match flow.unwind {
                    Unwind::Fatal(e) => Err(e),
                    Unwind::Crash => Err(RuntimeError::Crashed),
                    other => Err(RuntimeError::Protocol(format!(
                        "control flow unwound to the thread top level: {other:?}"
                    ))),
                },
            }
        });
        self.pending.push((name, job));
        me
    }

    /// Waits for every participating thread and collects the run's results
    /// and statistics.
    #[must_use]
    pub fn run(self) -> SystemReport {
        self.run_reclaiming().0
    }

    /// [`System::run`], additionally reclaiming the network's allocations
    /// into a [`NetArena`] for the next system (see
    /// [`SystemBuilder::net_arena`]). Returns `None` for the arena when a
    /// clone of the network (or a leaked endpoint) is still alive — safe
    /// to call unconditionally; sweep drivers thread the arena through
    /// every seed so actor slots, delivery heaps and link rows are
    /// allocated once per worker instead of once per seed.
    #[must_use]
    pub fn run_reclaiming(mut self) -> (SystemReport, Option<NetArena<Message>>) {
        let threads: Vec<(Arc<str>, ParticipantHandle)> = self
            .pending
            .drain(..)
            .map(|(name, job)| (name, spawn_pooled(job)))
            .collect();
        let mut results = Vec::with_capacity(threads.len());
        for (name, handle) in threads {
            let result = match handle.join() {
                Ok(r) => r,
                Err(panic) => {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_owned());
                    Err(RuntimeError::Protocol(format!("thread panicked: {msg}")))
                }
            };
            results.push((name.to_string(), result));
        }
        let report = SystemReport {
            elapsed: self.net.now().duration_since(VirtualInstant::EPOCH),
            net_stats: self.net.stats(),
            sched_stats: self.net.sched_stats(),
            runtime_stats: self.shared.stats.lock().clone(),
            results,
        };
        // `System` has a `Drop` impl, so the network cannot be moved out;
        // clone the (Arc-backed) handle, drop the system, then reclaim
        // through the now-sole owner.
        let net = self.net.clone();
        drop(self);
        let arena = net.reclaim();
        (report, arena)
    }
}

impl Drop for System {
    /// Dispatches any never-run participant bodies when a `System` is
    /// dropped without [`System::run`]: the bodies execute (and their
    /// endpoints retire) exactly as they did under the former start-gate
    /// design, where dropping the system opened the gate.
    fn drop(&mut self) {
        for (_, job) in self.pending.drain(..) {
            drop(spawn_pooled(job));
        }
    }
}

/// Outcome of a whole system run.
#[derive(Debug)]
pub struct SystemReport {
    /// Per-thread results in spawn order.
    pub results: Vec<(String, Result<(), RuntimeError>)>,
    /// Message counters from the network.
    pub net_stats: NetStats,
    /// Scheduler park/wake handoff counters (wall-clock facts about the
    /// host scheduler, not deterministic — see [`SchedStats`]).
    pub sched_stats: SchedStats,
    /// Runtime counters.
    pub runtime_stats: RuntimeStats,
    /// Total (virtual) execution time.
    pub elapsed: VirtualDuration,
}

impl SystemReport {
    /// Whether every thread completed without a fatal error.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.results.iter().all(|(_, r)| r.is_ok())
    }

    /// Panics with a readable summary if any thread failed.
    ///
    /// # Panics
    ///
    /// When any thread returned an error.
    pub fn expect_ok(&self) {
        for (name, result) in &self.results {
            if let Err(e) = result {
                panic!("thread {name} failed: {e}");
            }
        }
    }

    /// Total execution time in seconds, the unit of the paper's tables.
    #[must_use]
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }
}

/// Builder for [`System`] ([C-BUILDER]).
pub struct SystemBuilder {
    mode: ClockMode,
    latency: LatencyModel,
    seed: u64,
    ack_timeout: Option<VirtualDuration>,
    faults: FaultPlan,
    resolution_delay: VirtualDuration,
    protocol: Arc<dyn ResolutionProtocol>,
    observer: Option<Arc<dyn Observer>>,
    tap: Option<Arc<dyn caa_simnet::NetTap>>,
    net_arena: Option<NetArena<Message>>,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            mode: ClockMode::Virtual,
            latency: LatencyModel::default(),
            seed: 0,
            ack_timeout: None,
            faults: FaultPlan::new(),
            resolution_delay: VirtualDuration::ZERO,
            protocol: Arc::new(XrrResolution),
            observer: None,
            tap: None,
            net_arena: None,
        }
    }
}

impl fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("mode", &self.mode)
            .field("latency", &self.latency)
            .field("seed", &self.seed)
            .field("protocol", &self.protocol.name())
            .finish()
    }
}

impl SystemBuilder {
    /// Virtual (default) or real time.
    #[must_use]
    pub fn clock(mut self, mode: ClockMode) -> Self {
        self.mode = mode;
        self
    }

    /// Message latency model — the paper's `Tmmax` lives here.
    #[must_use]
    pub fn latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Seed for deterministic latency sampling.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Acknowledgment timeout for the retransmission model (the >1 s knee
    /// of Figure 10).
    #[must_use]
    pub fn ack_timeout(mut self, timeout: VirtualDuration) -> Self {
        self.ack_timeout = Some(timeout);
        self
    }

    /// Message losses and corruptions to inject.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The paper's `Treso`: virtual time charged per invocation of the
    /// resolution procedure.
    #[must_use]
    pub fn resolution_delay(mut self, delay: VirtualDuration) -> Self {
        self.resolution_delay = delay;
        self
    }

    /// The resolution protocol (default: the paper's algorithm,
    /// [`XrrResolution`]).
    #[must_use]
    pub fn protocol(mut self, protocol: Arc<dyn ResolutionProtocol>) -> Self {
        self.protocol = protocol;
        self
    }

    /// Attaches an [`Observer`] receiving every protocol-significant
    /// runtime event (see [`crate::observe`]). Default: none — without an
    /// observer the runtime skips event construction entirely.
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches a network tap receiving every message send, loss and
    /// corruption (see [`caa_simnet::NetTap`]). Default: none.
    #[must_use]
    pub fn tap(mut self, tap: Arc<dyn caa_simnet::NetTap>) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Recycles the allocations of a previous system's network (see
    /// [`System::run_reclaiming`] and [`caa_simnet::NetArena`]). Purely an
    /// allocation cache: a system built from an arena behaves — and
    /// traces — byte-identically to a fresh one.
    #[must_use]
    pub fn net_arena(mut self, arena: NetArena<Message>) -> Self {
        self.net_arena = Some(arena);
        self
    }

    /// Builds the system.
    #[must_use]
    pub fn build(self) -> System {
        let net = Network::new_reusing(
            NetConfig {
                mode: self.mode,
                latency: self.latency,
                seed: self.seed,
                ack_timeout: self.ack_timeout,
                faults: self.faults,
                tap: self.tap,
            },
            self.net_arena,
        );
        System {
            net,
            shared: Arc::new(SystemShared {
                protocol: self.protocol,
                resolution_delay: self.resolution_delay,
                stats: Mutex::new(RuntimeStats::default()),
                observer: self.observer,
            }),
            pending: Vec::new(),
        }
    }
}
