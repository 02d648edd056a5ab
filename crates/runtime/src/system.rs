//! The distributed CA-action system: participating threads, the simulated
//! network beneath them, and run-wide statistics.
//!
//! §5.1: "For a given CA action, each participating thread is located in its
//! own node (or partition) … Every partition has a copy of the run-time
//! system, including the subsystems for concurrent exception handling and
//! resolution." [`System::spawn`] creates exactly that: one participant
//! per network partition, bound 1:1, with the recovery driver (see
//! [`crate::context`]) as its partition executive.
//!
//! The partitions are simulated, and so is their concurrency: the paper's
//! results are all virtual-time facts, so what the host spends moving
//! control between participants is pure overhead. [`System::run`] therefore
//! hosts every participant as a run-to-block fiber ([`caa_fiber`]) on the
//! calling thread — a participant runs until it blocks in the network,
//! and then the one the network says runs next
//! ([`FiberNetwork::next_runnable`]) runs: the blocked participant's fiber
//! asks and transfers the CPU straight to the pick's
//! ([`caa_simnet::Fibers`]), and `host` only starts the first pick and
//! takes back each participant that finishes. No OS thread is created, a
//! hand-off is one user-space stack switch, and because the canonical
//! trace is ordered by (virtual time, thread, sequence) the serial order
//! changes nothing that is observed.
//!
//! One thread is all a system ever has, and its types say so: the network
//! is a [`FiberNetwork`] (the simulator's plain core in an `Rc<RefCell<_>>`
//! — no mutex, condvar or atomic), the state the participants share is an
//! `Rc`, the run-wide counters are plain integers, and [`System`] and
//! [`Ctx`] are `!Send`. So is everything a run's participants share: a
//! definition with its graph and handlers, a message's removal sets, and
//! a [`SharedObject`](crate::SharedObject), whose state is a `RefCell`
//! that the objects layer's arbitration — not a lock — orders accesses
//! to; and so is what a recorded run writes down: the participants append
//! to one [`RunLog`] in a `RefCell`, which [`System::run`] hands back in
//! the [`SystemReport`].
//!
//! # The run pool
//!
//! What a run needs besides its messages — one actor slot, mailbox queue,
//! link row and 256 KiB guard-paged fiber stack per participant, the lists
//! a participant's context keeps (frame stack, inboxes, retained messages,
//! resolver states) and the host's own tables of participants and their
//! fibers — outlives
//! it: each host thread keeps those of the last system it finished
//! (`RUN_POOL`, a `thread_local!`), [`SystemBuilder::build`] takes them
//! and a [`System`] puts them back when it is dropped — at the end of
//! [`System::run`], or un-run, once its bodies have run. A second run on
//! the same thread therefore maps no stack and allocates no slot, whoever
//! the caller is — nor a participant's body or the cell its fiber shares
//! with the host, which live on the fiber's stack ([`caa_fiber::Fiber`]). The pool is an allocation
//! cache and nothing else: a recycled network is fully cleared
//! ([`caa_simnet::Network::reclaim`]), so a run reports the same whether
//! the pool was warm, cold or left empty by a run that could not be
//! reclaimed; a context's lists come back empty, and a resolver state is
//! reused only by a system of the protocol that made it. It holds at most
//! the slots of the largest system the thread has run and is freed when
//! the thread exits.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use caa_core::ids::ThreadId;
use caa_core::message::Message;
use caa_core::name::Name;
use caa_core::time::{VirtualDuration, VirtualInstant};
use caa_fiber::{Fiber, Group, Stack};
use caa_simnet::{
    ClockMode, FaultPlan, FiberNetwork, LatencyModel, NetArena, NetConfig, NetStats, SchedStats,
};

use crate::context::{Ctx, CtxScratch};
use crate::error::{RuntimeError, Step, Unwind};
use crate::observe::RunLog;
use caa_protocol::{ResolutionProtocol, XrrResolution};

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

/// State shared between all participants of one [`System`] — fibers of one
/// thread, so shared by `Rc` and counted in plain integers.
pub(crate) struct SystemShared {
    pub(crate) protocol: Arc<dyn ResolutionProtocol>,
    /// The paper's `Treso`: virtual time charged per invocation of the
    /// resolution procedure.
    pub(crate) resolution_delay: VirtualDuration,
    pub(crate) stats: RefCell<RuntimeStats>,
    /// The run's log, if it is recorded ([`SystemBuilder::record`]).
    pub(crate) log: Option<RefCell<RunLog>>,
    /// What earlier participants' contexts left for this system's to be
    /// made over, by thread id ([`Ctx::new`] takes its thread's,
    /// [`Ctx::shutdown`] puts it back).
    pub(crate) scratch: RefCell<Vec<CtxScratch>>,
}

/// A spawned participant, at its partition's index of the host's table:
/// its name, and its result once its body has ended.
///
/// [`System::spawn`] registers the participant's network partition
/// immediately (ids are assigned in spawn order, and a registered
/// endpoint holds virtual time back) and puts the body on a fiber of the
/// system's [`Group`], at the same index, but the fiber first runs in
/// [`System::run`] — by which point every participant is registered, so
/// no start gate is needed.
struct Participant {
    name: Name,
    result: Option<Result<(), RuntimeError>>,
}

/// What a participant's fiber returns.
type Outcome = Result<(), RuntimeError>;

/// What a finished system leaves for the next one built on its thread
/// (see the module docs).
#[derive(Default)]
struct RunPool {
    arena: NetArena<Message>,
    /// Finished participants' fiber stacks.
    stacks: Vec<Stack>,
    scratch: Vec<CtxScratch>,
    /// Empty: the host's tables of participants and of their fibers, for
    /// their capacity.
    participants: Vec<Option<Participant>>,
    fibers: Group<Outcome>,
}

thread_local! {
    /// The calling thread's idle run pool (see the module docs). `None`
    /// while a system built on this thread holds it, after a run that
    /// could not be reclaimed, and before the first run.
    static RUN_POOL: Cell<Option<RunPool>> = const { Cell::new(None) };

    /// The default protocol, one per thread: a system that names none
    /// shares it, so building one allocates nothing for it and the
    /// resolver states a participant's context keeps between runs stay
    /// valid from one such system to the next.
    static XRR: Arc<dyn ResolutionProtocol> = Arc::new(XrrResolution);
}

/// Usable stack per participant. The deepest bodies in the workspace (the
/// production cell's controller, the nesting tests) peak at 47 KiB in a
/// debug build and 9 KiB in a release sweep, and a panicking body that
/// prints a full backtrace at 28 KiB, so this is a fivefold margin. Pages
/// are committed only when touched, so the margin costs address space,
/// not memory; running out hits the stack's guard region and kills the
/// process rather than corrupting anything.
const PARTICIPANT_STACK_BYTES: usize = 256 * 1024;

/// Runs the participants' fibers to completion on the calling thread,
/// leaving each one's result in its participant and its stack in
/// `stacks`.
///
/// Run-to-block: a participant keeps the CPU until it blocks in the
/// network or finishes, and the network says who runs next. A blocked
/// participant's fiber asks it and hands the CPU on itself (see
/// [`caa_simnet::Fibers`]), so this loop starts the first pick, and after
/// that runs once per participant that finishes — and once per pick that
/// has no fiber: an endpoint registered outside `spawn`, or nobody. The
/// network's advance arbiter guarantees that whenever every live endpoint
/// is blocked at least one is woken, so when it names nobody the network
/// is also being driven from outside this loop, which a fiber-hosted
/// system cannot wait for.
fn host(
    net: &FiberNetwork<Message>,
    fibers: &mut Group<Outcome>,
    participants: &mut [Option<Participant>],
    stacks: &mut Vec<Stack>,
) {
    while !fibers.is_empty() {
        let Some(id) = net.next_runnable() else {
            panic!(
                "{} participants are blocked and none is runnable: the system's network is \
                 being driven from outside System::run, which cannot wait for another thread",
                fibers.len()
            );
        };
        let Some((index, outcome)) = fibers.resume(id.index()) else {
            continue; // the pick, or a fiber's pick, has no fiber
        };
        let result = outcome.unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(RuntimeError::Protocol(format!("thread panicked: {msg}")))
        });
        let finished = fibers
            .remove(index)
            .expect("a finished fiber stays until removed");
        stacks.push(finished.into_stack());
        participants[index]
            .as_mut()
            .expect("every fiber is a participant's")
            .result = Some(result);
    }
}

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
///
/// A system lives on one thread: it is built, spawned into, run and dropped
/// there, and it is `!Send` (so is the [`Ctx`] it hands each body).
pub struct System {
    /// Present until `Drop` takes it apart.
    net: Option<FiberNetwork<Message>>,
    shared: Rc<SystemShared>,
    /// The spawned participants by partition id (`None` at an endpoint
    /// registered outside `spawn`), none of them started, until `run` (or
    /// `Drop`) hosts them.
    participants: Vec<Option<Participant>>,
    /// Their bodies, by the same index.
    fibers: Group<Outcome>,
    /// Stacks for participants yet to spawn, and those of finished ones.
    stacks: Vec<Stack>,
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("threads", &self.fibers.len())
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
    pub fn network(&self) -> &FiberNetwork<Message> {
        self.net.as_ref().expect("the network leaves in Drop")
    }

    /// Snapshot of the runtime counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.shared.stats.borrow().clone()
    }

    /// Spawns a participating thread. Thread ids are assigned in spawn
    /// order starting from 0 — bind action roles accordingly.
    ///
    /// The body runs on a stack of its own (a fiber that [`System::run`]
    /// drives on the calling thread) with a dedicated network partition;
    /// it typically enters one or more CA actions and propagates
    /// [`Flow`](crate::Flow) with `?`. It may block only through its
    /// [`Ctx`]: the participants share one OS thread, so waiting for a peer
    /// on anything the simulated network cannot see (a channel, a barrier)
    /// waits forever.
    pub fn spawn(
        &mut self,
        name: impl Into<Name>,
        body: impl FnOnce(&mut Ctx) -> Step + 'static,
    ) -> ThreadId {
        // One interning per participant (none for a caller that holds the
        // name already): the endpoint, the context and the report label
        // all copy it.
        let name = name.into();
        let net = self.network();
        let endpoint = net.endpoint(name);
        let id = endpoint.id();
        let me = ThreadId::new(id.as_u32());
        let shared = Rc::clone(&self.shared);
        // Registration happens now (the endpoint above holds virtual time
        // back); the body starts in `run`, once every participant is
        // registered. It waits on the stack it will run on — a finished
        // participant's, when there is one.
        let stack = self
            .stacks
            .pop()
            .unwrap_or_else(|| Stack::new(PARTICIPANT_STACK_BYTES));
        let fiber = Fiber::new(stack, move || {
            let mut ctx = Ctx::new(me, name, endpoint, shared);
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
        let index = id.index();
        if self.participants.len() <= index {
            self.participants.resize_with(index + 1, || None);
        }
        self.participants[index] = Some(Participant { name, result: None });
        self.fibers.insert(index, fiber);
        me
    }

    /// Runs every participating thread to completion and collects the
    /// run's results and statistics. The participants run as fibers on the
    /// calling thread, one at a time, each until it blocks in the network;
    /// no OS thread is created, and the order is invisible in the results
    /// (traces are ordered by virtual time, thread and sequence). A
    /// participant that panics is reported as [`RuntimeError::Protocol`]
    /// under its name; its endpoint retires as the panic unwinds, so its
    /// peers conclude by timeout. A recorded run's log comes back in the
    /// report.
    ///
    /// # Panics
    ///
    /// When called from inside a participant body: systems do not nest.
    #[must_use]
    pub fn run(mut self) -> SystemReport {
        // Out of `self` while they run: a host that gives up leaves the
        // fibers (suspended mid-body) to be dropped before the network is.
        let mut participants = std::mem::take(&mut self.participants);
        let mut fibers = std::mem::take(&mut self.fibers);
        let net = self.net.as_ref().expect("the network leaves in Drop");
        host(net, &mut fibers, &mut participants, &mut self.stacks);
        // Sized up front: a flattened iterator's length is unknown, and
        // collecting it would grow the vector step by step.
        let mut results = Vec::with_capacity(participants.len());
        results.extend(participants.drain(..).flatten().map(|participant| {
            let result = participant.result;
            (
                participant.name,
                result.expect("host ends when every participant is done"),
            )
        }));
        self.participants = participants;
        self.fibers = fibers;
        SystemReport {
            elapsed: net.now().duration_since(VirtualInstant::EPOCH),
            net_stats: net.stats(),
            sched_stats: net.sched_stats(),
            runtime_stats: self.stats(),
            results,
            log: self
                .shared
                .log
                .as_ref()
                .map(RefCell::take)
                .unwrap_or_default(),
        }
        // Dropping the system returns its network to the run pool.
    }
}

impl Drop for System {
    /// Runs any never-run participant bodies when a `System` is dropped
    /// without [`System::run`] — the bodies execute (and their endpoints
    /// retire) as they always have, their results discarded — and hands the
    /// network's allocations to the calling thread's run pool. A clone of
    /// the network (or a leaked endpoint, or the suspended fibers of a run
    /// that `host` abandoned) still alive elsewhere means nothing is
    /// reclaimed: the pool stays empty until the next system refills it.
    fn drop(&mut self) {
        let Some(net) = self.net.take() else {
            return;
        };
        let mut participants = std::mem::take(&mut self.participants);
        let mut fibers = std::mem::take(&mut self.fibers);
        host(&net, &mut fibers, &mut participants, &mut self.stacks);
        participants.clear();
        fibers.clear();
        if let Some(arena) = net.reclaim() {
            let scratch = self.shared.scratch.take();
            // The thread's destructors may already have run (a system run
            // from another thread-local's `Drop`): the pool is then freed.
            let _ = RUN_POOL.try_with(|pool| {
                // Two systems built before either finished: keep the larger.
                let idle = pool
                    .take()
                    .filter(|idle| idle.arena.capacity() > arena.capacity());
                pool.set(Some(idle.unwrap_or(RunPool {
                    arena,
                    stacks: std::mem::take(&mut self.stacks),
                    scratch,
                    participants,
                    fibers,
                })));
            });
        }
    }
}

/// Outcome of a whole system run.
#[derive(Debug)]
pub struct SystemReport {
    /// Per-thread results in spawn order, each under the name its thread
    /// was spawned with.
    pub results: Vec<(Name, Result<(), RuntimeError>)>,
    /// Message counters from the network.
    pub net_stats: NetStats,
    /// Scheduler park/wake hand-off counters: what the simulator did, not
    /// the protocol — but a pure function of the seed (see [`SchedStats`]).
    pub sched_stats: SchedStats,
    /// Runtime counters.
    pub runtime_stats: RuntimeStats,
    /// Total (virtual) execution time.
    pub elapsed: VirtualDuration,
    /// The run's log, when the system was built to record one
    /// ([`SystemBuilder::record`]); empty, and unallocated, otherwise.
    pub log: RunLog,
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
    latency: LatencyModel,
    seed: u64,
    ack_timeout: Option<VirtualDuration>,
    faults: FaultPlan,
    resolution_delay: VirtualDuration,
    protocol: Arc<dyn ResolutionProtocol>,
    log: Option<RunLog>,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            latency: LatencyModel::default(),
            seed: 0,
            ack_timeout: None,
            faults: FaultPlan::new(),
            resolution_delay: VirtualDuration::ZERO,
            protocol: XRR.with(Arc::clone),
            log: None,
        }
    }
}

impl fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("latency", &self.latency)
            .field("seed", &self.seed)
            .field("protocol", &self.protocol.name())
            .finish()
    }
}

impl SystemBuilder {
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

    /// Records the run into `log`: every protocol-significant runtime
    /// event and every message send, loss and corruption, appended in each
    /// thread's program order (see [`crate::observe`]); the log comes back
    /// in [`SystemReport::log`]. Pass an empty log — a cleared one reuses
    /// its buffers. Default: no log — the runtime then builds no event.
    #[must_use]
    pub fn record(mut self, log: RunLog) -> Self {
        self.log = Some(log);
        self
    }

    /// Builds the system, over the calling thread's pooled network
    /// allocations when a run has left some (see the module docs).
    #[must_use]
    pub fn build(self) -> System {
        let pool = RUN_POOL
            .try_with(Cell::take)
            .ok()
            .flatten()
            .unwrap_or_default();
        let net = FiberNetwork::new_reusing(
            NetConfig {
                mode: ClockMode::Virtual,
                latency: self.latency,
                seed: self.seed,
                ack_timeout: self.ack_timeout,
                faults: self.faults,
            },
            Some(pool.arena),
        );
        System {
            net: Some(net),
            shared: Rc::new(SystemShared {
                protocol: self.protocol,
                resolution_delay: self.resolution_delay,
                stats: RefCell::new(RuntimeStats::default()),
                log: self.log.map(RefCell::new),
                scratch: RefCell::new(pool.scratch),
            }),
            participants: pool.participants,
            fibers: pool.fibers,
            stacks: pool.stacks,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Run-pool hygiene. libtest gives every test a thread of its own, so
    //! each one starts on an empty pool and sees nobody else's.

    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    use caa_core::exception::Exception;
    use caa_core::outcome::HandlerVerdict;
    use caa_core::time::secs;

    use super::*;
    use crate::action::ActionDef;

    /// Slots idle in the calling thread's pool, `None` when it is empty.
    fn pooled() -> Option<usize> {
        RUN_POOL.with(|pool| {
            let idle = pool.take();
            let slots = idle.as_ref().map(|idle| idle.arena.capacity());
            pool.set(idle);
            slots
        })
    }

    /// The builder of [`ring`]'s system.
    fn ring_builder(n: u32) -> SystemBuilder {
        System::builder()
            .latency(LatencyModel::UniformUpTo(secs(0.3)))
            .seed(u64::from(n))
    }

    /// `n` participants in one action over sampled latencies; the first
    /// raises, everyone recovers. Not yet run.
    fn ring(n: u32) -> System {
        let mut sys = ring_builder(n).build();
        spawn_ring(&mut sys, n);
        sys
    }

    /// Spawns [`ring`]'s participants into `sys`.
    fn spawn_ring(sys: &mut System, n: u32) {
        let mut def = ActionDef::builder("ring");
        for t in 0..n {
            def = def
                .role(format!("r{t}"), t)
                .fallback_handler(format!("r{t}"), |hc| {
                    hc.work(secs(0.2))?;
                    Ok(HandlerVerdict::Recovered)
                });
        }
        let def = def.build().expect("ring definition");
        for t in 0..n {
            let def = def.clone();
            sys.spawn(format!("T{t}"), move |ctx| {
                ctx.enter(&def, &format!("r{t}"), |rc| {
                    rc.work(secs(1.0))?;
                    if t == 0 {
                        rc.raise(Exception::new("oops"))?;
                    }
                    rc.work(secs(1.0))
                })
                .map(|_| ())
            });
        }
    }

    /// Everything a run reports: results, message, scheduler and runtime
    /// counters, virtual time.
    fn report_of(sys: System) -> String {
        format!("{:?}", sys.run())
    }

    /// The same system run where no pool exists yet.
    fn fresh_report(n: u32) -> String {
        std::thread::spawn(move || {
            assert_eq!(pooled(), None);
            report_of(ring(n))
        })
        .join()
        .expect("a fresh thread runs the ring")
    }

    #[test]
    fn six_then_two_then_six_report_as_on_fresh_threads() {
        for (n, pooled_before) in [(6, None), (2, Some(6)), (6, Some(6))] {
            assert_eq!(pooled(), pooled_before);
            assert_eq!(report_of(ring(n)), fresh_report(n), "{n} participants");
        }
        assert_eq!(pooled(), Some(6), "the largest system's slots stay");
    }

    #[test]
    fn a_panicking_participant_leaves_its_finished_stack_in_the_pool() {
        let mut sys = ring(2);
        sys.spawn("doomed", |_| panic!("boom"));
        let report = sys.run();
        assert!(
            matches!(&report.results[2].1, Err(RuntimeError::Protocol(m)) if m.contains("boom"))
        );
        // The panic was caught at the fiber's entry: the fiber finished,
        // so its stack is as reusable as the others'.
        assert_eq!(pooled(), Some(3));
        assert_eq!(report_of(ring(3)), fresh_report(3));
    }

    #[test]
    fn a_deadlocked_system_is_reclaimed_like_any_other() {
        let def = ActionDef::builder("pair")
            .role("a", 0u32)
            .role("b", 1u32)
            .build()
            .expect("pair definition");
        let mut sys = System::builder().build();
        // Nobody plays `b`: the unbounded exit wait is a genuine deadlock.
        sys.spawn("alone", move |ctx| {
            ctx.enter(&def, "a", |rc| rc.work(secs(0.1))).map(|_| ())
        });
        let report = sys.run();
        assert!(matches!(
            report.results[0].1,
            Err(RuntimeError::Deadlock(_))
        ));
        assert_eq!(pooled(), Some(1));
        assert_eq!(report_of(ring(3)), fresh_report(3));
        assert_eq!(pooled(), Some(3));
    }

    #[test]
    fn a_system_dropped_unrun_returns_its_arena() {
        assert_eq!(report_of(ring(3)), fresh_report(3));
        assert_eq!(pooled(), Some(3));
        let unrun = ring(3);
        assert_eq!(pooled(), None, "the un-run system holds the arena");
        drop(unrun); // bodies run in `Drop`, then the network is reclaimed
        assert_eq!(pooled(), Some(3));
        assert_eq!(report_of(ring(3)), fresh_report(3));
        assert_eq!(pooled(), Some(3));
    }

    #[test]
    fn half_run_fibers_never_reach_the_pool() {
        assert_eq!(report_of(ring(3)), fresh_report(3));
        let sys = ring(3);
        // An endpoint nobody drives counts as running, so virtual time
        // never advances: the participants block and `host` gives up with
        // their fibers suspended mid-body.
        let outsider = sys.network().endpoint("outsider");
        let gave_up = catch_unwind(AssertUnwindSafe(|| sys.run()))
            .expect_err("host must refuse to wait for another thread");
        // … in its own words, not the network's `RefCell`'s.
        let said = gave_up.downcast_ref::<String>().expect("a formatted panic");
        assert!(said.contains("none is runnable"), "{said}");
        drop(outsider);
        // `build` has no other source of stacks than the pool, and the
        // abandoned network never reached it.
        assert_eq!(pooled(), None, "a suspended fiber's stack was pooled");
        assert_eq!(report_of(ring(3)), fresh_report(3));
        assert_eq!(pooled(), Some(3));
    }

    #[test]
    fn a_network_handle_held_across_run_leaves_the_pool_empty() {
        assert_eq!(report_of(ring(3)), fresh_report(3));
        let sys = ring(3);
        let held = sys.network().clone();
        let report = report_of(sys);
        assert_eq!(pooled(), None, "reclaim needs sole ownership");
        assert!(held.stats().total_sent() > 0, "the handle still reads");
        assert_eq!(report, fresh_report(3));
        drop(held);
        assert_eq!(report_of(ring(3)), fresh_report(3));
        assert_eq!(pooled(), Some(3));
    }

    #[test]
    fn a_resolver_state_serves_only_systems_of_the_protocol_that_made_it() {
        use caa_core::inline::InlineVec;
        use caa_protocol::protocol::{ProtoActions, ProtoCtx, ProtoEvent, ResolverState};

        thread_local! {
            /// The tag of the system whose run is under way.
            static RUNNING: Cell<u32> = const { Cell::new(0) };
            /// States made, and states reused after a reset.
            static MADE: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
        }
        /// The paper's protocol, its states marked with the system they
        /// were made for — and recyclable, like the paper's own.
        #[derive(Debug)]
        struct Tagged(u32);
        struct TaggedState(u32, Box<dyn ResolverState>);
        impl ResolutionProtocol for Tagged {
            fn name(&self) -> &'static str {
                "tagged"
            }
            fn new_state(&self) -> Box<dyn ResolverState> {
                MADE.set((MADE.get().0 + 1, MADE.get().1));
                Box::new(TaggedState(self.0, XrrResolution.new_state()))
            }
        }
        impl ResolverState for TaggedState {
            fn on_event(&mut self, ctx: &ProtoCtx<'_>, event: ProtoEvent<'_>) -> ProtoActions {
                assert_eq!(
                    self.0,
                    RUNNING.get(),
                    "a state crossed over to another protocol"
                );
                self.1.on_event(ctx, event)
            }
            fn participant_state(&self) -> caa_core::state::ParticipantState {
                self.1.participant_state()
            }
            fn waiting_on(&self, ctx: &ProtoCtx<'_>) -> InlineVec<ThreadId, 8> {
                self.1.waiting_on(ctx)
            }
            fn reset(&mut self) -> bool {
                MADE.set((MADE.get().0, MADE.get().1 + 1));
                self.1.reset()
            }
        }
        let run = |protocol: &Arc<dyn ResolutionProtocol>, tag: u32| {
            RUNNING.set(tag);
            let mut sys = ring_builder(3).protocol(Arc::clone(protocol)).build();
            spawn_ring(&mut sys, 3);
            format!("{:?}", sys.run())
        };
        let one: Arc<dyn ResolutionProtocol> = Arc::new(Tagged(1));
        let two: Arc<dyn ResolutionProtocol> = Arc::new(Tagged(2));
        let first = run(&one, 1);
        assert_eq!(
            MADE.get(),
            (3, 3),
            "one state a participant, each left reset"
        );
        // The same protocol again: its states are taken up where they were
        // left, none is made.
        assert_eq!(run(&one, 1), first);
        assert_eq!(MADE.get().0, 3, "a warmed run made a resolver state");
        // Another protocol (here even of the same type and name): the states
        // in the pool are not its own, and it makes new ones.
        assert_eq!(run(&two, 2), first);
        assert_eq!(MADE.get().0, 6);
        assert_eq!(run(&two, 2), first);
        assert_eq!(MADE.get().0, 6);
        // And the default protocol's report is the same as ever.
        assert_eq!(report_of(ring(3)), fresh_report(3));
    }

    /// A recorded run's log: every thread's entries in its program order,
    /// a lost send as one `NetDropped`, a corrupted one as its `NetSent`
    /// and then its `NetCorrupted`.
    #[test]
    fn a_recorded_run_logs_each_thread_in_program_order() {
        use caa_core::ids::PartitionId;
        use caa_core::message::MessageKind;
        use caa_simnet::FaultSpec;

        use crate::observe::{Entry, EntryKind, RunLog};

        let link = |src, dst| FaultSpec::link(PartitionId::new(src), PartitionId::new(dst));
        let faults = FaultPlan::new()
            .lose(link(0, 1).class("App").count(1))
            .corrupt(link(0, 2).class("App").count(1));
        let def = ActionDef::builder("trio")
            .role("a", 0u32)
            .role("b", 1u32)
            .role("c", 2u32)
            .build()
            .expect("trio definition");
        let mut sys = ring_builder(3)
            .faults(faults)
            .record(RunLog::default())
            .build();
        for (t, role) in ["a", "b", "c"].into_iter().enumerate() {
            let def = def.clone();
            sys.spawn(format!("T{t}"), move |ctx| {
                ctx.enter(&def, role, |rc| {
                    if t == 0 {
                        rc.send_to_role("b", "lost", ())?;
                        rc.send_to_role("c", "corrupted", ())?;
                    }
                    rc.work(secs(1.0))
                })
                .map(|_| ())
            });
        }
        let report = sys.run();
        report.expect_ok();
        let entries = report.log.entries();

        let mut next_seq = [0; 3];
        for entry in entries {
            let seq = &mut next_seq[entry.thread as usize];
            assert_eq!(entry.seq, *seq, "{entry}");
            *seq += 1;
            assert_eq!(entry.label, 0, "one instance, kept once");
        }
        assert!(next_seq.iter().all(|&n| n > 0), "{next_seq:?}");
        assert_eq!(report.log.instances().len(), 1);

        let app = |kind: &EntryKind| match kind {
            EntryKind::NetSent(n) | EntryKind::NetDropped(n) | EntryKind::NetCorrupted(n) => {
                n.kind == MessageKind::App
            }
            EntryKind::Runtime(_) => false,
        };
        let sends: Vec<_> = entries.iter().filter(|e| app(&e.kind)).collect();
        let [lost, sent, corrupted] = sends.as_slice() else {
            panic!("two App sends make three entries: {sends:?}");
        };
        let EntryKind::NetDropped(dropped) = &lost.kind else {
            panic!("the lost send is logged as dropped alone: {lost}");
        };
        assert_eq!((lost.thread, dropped.dst.as_u32()), (0, 1));
        let (EntryKind::NetSent(event), EntryKind::NetCorrupted(again)) =
            (&sent.kind, &corrupted.kind)
        else {
            panic!("a corrupted send is logged as sent, then corrupted: {sent} / {corrupted}");
        };
        assert_eq!((sent.thread, event.dst.as_u32()), (0, 2));
        assert_eq!(
            (sent.at_ns, sent.label, event),
            (corrupted.at_ns, corrupted.label, again),
            "one message: the same record, link seq included"
        );
        let at = |wanted: &Entry| entries.iter().position(|e| std::ptr::eq(e, wanted));
        assert_eq!(
            at(corrupted),
            at(sent).map(|i| i + 1),
            "adjacent in the log"
        );
        assert_eq!(
            (corrupted.thread, corrupted.seq),
            (sent.thread, sent.seq + 1)
        );
        assert_eq!(report.net_stats.dropped("App"), 1);
        assert_eq!(report.net_stats.corrupted("App"), 1);
    }

    #[test]
    fn an_unrecorded_run_returns_an_empty_log_and_allocates_none_for_it() {
        let mut report = ring(3).run();
        report.expect_ok();
        assert!(report.log.entries().is_empty());
        // Nothing was ever pushed (a push grows this buffer first), so the
        // per-thread counters were never sized either.
        assert_eq!(report.log.parts_mut().0.capacity(), 0);
    }

    #[test]
    fn two_threads_pool_apart() {
        let turn = Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let first = report_of(ring(4));
                assert_eq!(pooled(), Some(4));
                turn.wait(); // the other thread starts with this pool warm
                turn.wait(); // … and has run by now
                assert_eq!(pooled(), Some(4), "the peer's run reached this pool");
                assert_eq!(report_of(ring(4)), first);
            });
            scope.spawn(|| {
                turn.wait();
                assert_eq!(pooled(), None, "a peer's slots were handed out");
                let report = report_of(ring(2));
                assert_eq!(pooled(), Some(2));
                turn.wait();
                assert_eq!(report, fresh_report(2));
            });
        });
    }
}
