//! The simulated message-passing network and its virtual-time scheduler.
//!
//! The paper's prototype runs each participating thread in its own Ada 95
//! partition on top of "a simple, and hence portable, subsystem for message
//! passing … messages are first kept in the cyclic buffer of the receiver
//! and then processed afterwards" (§5.1). [`Network`] reproduces that
//! substrate in-process:
//!
//! * each participant registers an [`Endpoint`] (one per partition);
//! * sends are asynchronous; per-link delivery is FIFO (Assumption 2) and
//!   reliable unless a [`FaultPlan`] injects losses or corruption;
//! * latencies come from a deterministic [`LatencyModel`], optionally
//!   inflated by the acknowledgment-timeout retransmission model;
//! * the network doubles as a conservative virtual-time scheduler:
//!   virtual time advances only when every live endpoint is blocked,
//!   directly to the earliest wake-up point. A global block with no
//!   wake-up point is a genuine deadlock and is reported as
//!   [`SimError::Deadlock`] to every participant — the property Theorem 1
//!   says the resolution algorithm never triggers.
//!
//! # Two hosts, one blocking funnel
//!
//! Every blocking operation of an [`Endpoint`] ends in one private
//! function, `block_until`, and the only thing that differs between the
//! two ways of driving an endpoint is what that function does when its
//! predicate does not hold yet:
//!
//! * called **inside a fiber** ([`caa_fiber::in_fiber`]) it releases the
//!   scheduler lock and [suspends](caa_fiber::suspend) the fiber; wake
//!   sites set the endpoint's [`Runnable`] mark, and whoever resumes the
//!   fibers — `caa-runtime`'s `System::run`, which hosts all participants
//!   of a system on the calling thread — tests that mark without taking
//!   any lock. A hand-off is a user-space stack switch;
//! * called **on a plain OS thread** (this crate's own tests and
//!   doc-tests, the benchmark's ping-pong kernel) it waits on the
//!   endpoint's private condvar and wake sites notify it. A hand-off is a
//!   futex sleep and wake-up.
//!
//! The choice is made per block from where the caller runs — there is no
//! option. The advance arbiter, heap keys, FIFO clamps and doorbell epochs
//! are shared by both, so what an endpoint *observes* is the same either
//! way; only how it sleeps differs.
//!
//! # One owner, one lock
//!
//! All simulator state of a network — the clock, every endpoint's blocked
//! state and wake-up point, every endpoint's `Mailbox` (delivery heap
//! plus the dense per-source link row of FIFO clamps and sequence
//! numbers), the fault budgets, the counters and the deadlock verdict —
//! lives in one `Sched` behind one mutex, and each operation (`send`,
//! `recv`, `try_recv`, `sleep`, `park_wait`, `begin_wait`,
//! `schedule_wake`, `retire`) takes that mutex once — a blocking one once
//! more each time it is resumed. Under `System::run` one thread runs every
//! endpoint and the lock is never contended; it is never held across a
//! suspend (the host runs other endpoints on this very thread, and they
//! take the same lock), and taps are called after it is released.
//!
//! Two things exist only for endpoints driven by concurrently running OS
//! threads: the per-endpoint condvar such a thread sleeps on, and the
//! atomic mirror of the clock, which lets a running thread read `now`
//! without the lock — time only advances when **every** live endpoint is
//! blocked, so a running reader can never race an advance. Such endpoints
//! serialise on the one mutex; what they observe does not depend on who
//! wins it, because delivery order is decided by heap keys and per-link
//! sequence numbers, not by lock order.
//!
//! # Arena reuse
//!
//! Callers execute thousands of sub-millisecond simulations; a
//! [`NetArena`] recycles the allocation-heavy parts (actor slots with
//! their condvars, runnable marks and fiber stacks, mailbox heaps, link
//! rows) from one finished network into the next (see
//! [`Network::new_reusing`] / [`Network::reclaim`]). This crate provides
//! the mechanism and holds no arena itself: between networks the arena
//! belongs to whoever reclaimed it. For `Network<Message>` that is
//! `caa-runtime`, which keeps one per host thread — `System::run` puts it
//! there, the next `SystemBuilder::build` on the thread takes it — so a
//! warmed-up thread neither allocates a slot nor maps a stack per run,
//! whatever runs the systems. Reuse is invisible to the simulation:
//! recycled state is fully cleared.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use caa_core::ids::PartitionId;
use caa_core::time::{VirtualDuration, VirtualInstant};
use caa_fiber::Stack;
use parking_lot::{Condvar, Mutex};

use crate::fault::FaultPlan;
use crate::latency::{effective_latency, LatencyModel};
use crate::stats::{Classify, NetStats};
use crate::tap::{NetTap, TapEvent};

/// How the network experiences time. Virtual time is the only mode: a
/// wall-clock mode existed for one smoke test and was the last reason a
/// system needed OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Virtual time: delays are simulated; wall-clock speed is limited only
    /// by the host CPU. Deterministic given a seed and a deterministic
    /// application.
    #[default]
    Virtual,
}

/// Configuration for a [`Network`].
#[derive(Clone, Default)]
pub struct NetConfig {
    /// How time passes (always virtual).
    pub mode: ClockMode,
    /// Per-message latency model (the paper's `Tmmax` lives here).
    pub latency: LatencyModel,
    /// Seed for deterministic latency sampling.
    pub seed: u64,
    /// Acknowledgment timeout; latencies beyond it trigger retransmissions
    /// (models the >1 s knee of Figure 10). `None` disables the model.
    pub ack_timeout: Option<VirtualDuration>,
    /// Scheduled message losses and corruptions.
    pub faults: FaultPlan,
    /// Observation hook for sends, losses and corruptions (see
    /// [`NetTap`]).
    pub tap: Option<Arc<dyn NetTap>>,
}

impl fmt::Debug for NetConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetConfig")
            .field("mode", &self.mode)
            .field("latency", &self.latency)
            .field("seed", &self.seed)
            .field("ack_timeout", &self.ack_timeout)
            .field("faults", &self.faults)
            .field("tap", &self.tap.as_ref().map(|_| "<tap>"))
            .finish()
    }
}

/// Why a blocking network operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Every live endpoint is blocked with no pending wake-up: the system
    /// can never make progress again.
    Deadlock(DeadlockInfo),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(info) => write!(f, "simulation deadlock: {info}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Diagnostic snapshot taken when a deadlock is detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// Virtual time at which the deadlock occurred.
    pub at: VirtualInstant,
    /// The blocked endpoints: `(name, what they were blocked on)`.
    pub blocked: Vec<(String, &'static str)>,
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}, all endpoints blocked:", self.at)?;
        for (name, kind) in &self.blocked {
            write!(f, " {name}({kind})")?;
        }
        Ok(())
    }
}

/// A message as delivered to a receiver.
#[derive(Debug)]
pub struct Received<M> {
    /// The sending partition.
    pub src: PartitionId,
    /// When the message was sent.
    pub sent_at: VirtualInstant,
    /// When the message became available to the receiver.
    pub delivered_at: VirtualInstant,
    /// The payload, or `None` if fault injection corrupted the message in
    /// transit (§3.4 treats corrupted messages as the failure exception).
    pub msg: Option<M>,
}

impl<M> Received<M> {
    /// Whether the message was corrupted in transit.
    #[must_use]
    pub fn is_corrupted(&self) -> bool {
        self.msg.is_none()
    }
}

/// What ended an [`Endpoint::park_wait`].
#[derive(Debug)]
pub enum Parked<M> {
    /// A message became deliverable (always reported before a same-instant
    /// doorbell, so parked waiters drain their inbox first).
    Msg(Received<M>),
    /// The endpoint's doorbell rang: virtual time reached the instant a
    /// peer (or the endpoint itself) scheduled with
    /// [`Network::schedule_wake`] for the current wait epoch
    /// ([`Endpoint::begin_wait`]). The doorbell is consumed.
    Doorbell,
    /// The caller-supplied deadline of [`Endpoint::park_wait_until`] was
    /// reached (with no message and no doorbell due at the same instant).
    /// The doorbell — which belongs to the wait's scheduler, e.g. an
    /// object arbitration — is left untouched.
    Deadline,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Recv,
    Sleep,
    /// [`Endpoint::park_wait`]: blocked until a message is deliverable or
    /// the endpoint's doorbell rings (see [`Network::schedule_wake`]).
    Park,
}

impl BlockKind {
    fn label(self) -> &'static str {
        match self {
            BlockKind::Recv => "recv",
            BlockKind::Sleep => "sleep",
            BlockKind::Park => "park",
        }
    }

    /// Whether an endpoint blocked this way re-evaluates its predicate
    /// when a message becomes deliverable.
    fn receives_messages(self) -> bool {
        matches!(self, BlockKind::Recv | BlockKind::Park)
    }
}

struct ActorSlot<M> {
    name: Arc<str>,
    alive: bool,
    running: bool,
    blocked_on: BlockKind,
    wake_at: Option<VirtualInstant>,
    /// This endpoint's private parking slot when an OS thread drives it.
    /// Every blocking wait parks here (or suspends, see `on_fiber`), and
    /// wake-ups are *targeted*: a delivery wakes only the receiver, a time
    /// advance only the endpoints whose wake-up point was reached, a
    /// doorbell only its owner — never the whole herd.
    cv: Arc<Condvar>,
    /// How the endpoint gave up the CPU when it last blocked: by
    /// suspending the fiber it runs in (woken by setting `runnable`) or by
    /// parking its OS thread on `cv` (woken by a notify).
    on_fiber: bool,
    /// For a fiber-hosted endpoint: a wake site has given it the CPU back
    /// since it last suspended — or it has not started yet. Shared with
    /// the endpoint's host (see [`Runnable`]), which tests and clears it
    /// without the scheduler lock; recycled with the slot like `cv`.
    runnable: Runnable,
    /// The stack of the fiber hosting this endpoint, parked here between
    /// runs so it is recycled with the slot ([`NetArena`]).
    stack: Option<Stack>,
    /// Pending explicit wake-up, if any ([`Network::schedule_wake`]):
    /// consumed by [`Endpoint::park_wait`] when virtual time reaches it.
    doorbell: Option<VirtualInstant>,
    /// Monotonic counter identifying the endpoint's *current* parked wait
    /// ([`Endpoint::begin_wait`]). [`Network::schedule_wake`] carries the
    /// epoch its computation was based on and is ignored when it does not
    /// match — a scheduler that raced against the end of an earlier wait
    /// (e.g. an object releaser whose winner was cancelled and has since
    /// started waiting elsewhere) cannot plant a stale doorbell into the
    /// new wait.
    wait_epoch: u64,
    /// The endpoint's receive side: delivery heap and per-source link row.
    mailbox: Mailbox<M>,
}

impl<M> ActorSlot<M> {
    /// A slot for a newly registered endpoint, built over the allocations
    /// of a `recycled` one where there is one: its condvar, runnable mark,
    /// parked fiber stack and (cleared) mailbox capacity.
    fn fresh(name: Arc<str>, recycled: Option<ActorSlot<M>>) -> ActorSlot<M> {
        let (cv, runnable, stack, mailbox) = match recycled {
            Some(old) => (old.cv, old.runnable, old.stack, old.mailbox),
            None => Default::default(),
        };
        runnable.set(true);
        ActorSlot {
            name,
            alive: true,
            running: true,
            blocked_on: BlockKind::Recv,
            wake_at: None,
            cv,
            on_fiber: false,
            runnable,
            stack,
            doorbell: None,
            wait_epoch: 0,
            mailbox,
        }
    }

    /// Gives a blocked endpoint the CPU back. A suspended fiber is marked
    /// runnable for its host; for a parked thread the condvar is returned,
    /// for the caller to notify once it has let go of the scheduler lock
    /// (or right away where it cannot).
    fn wake(&mut self) -> Option<&Arc<Condvar>> {
        if self.on_fiber {
            self.runnable.set(true);
            None
        } else {
            Some(&self.cv)
        }
    }
}

struct Envelope<M> {
    deliver_at: VirtualInstant,
    src: PartitionId,
    seq: u64,
    sent_at: VirtualInstant,
    msg: Option<M>,
}

impl<M> Envelope<M> {
    fn key(&self) -> (VirtualInstant, u32, u64) {
        (self.deliver_at, self.src.as_u32(), self.seq)
    }
}

impl<M> PartialEq for Envelope<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Envelope<M> {}
impl<M> PartialOrd for Envelope<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Envelope<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

#[derive(Default, Clone, Copy)]
struct LinkState {
    seq: u64,
    last_delivery: VirtualInstant,
}

/// One endpoint's receive side: the delivery heap plus the dense
/// per-source link row (`links_in[src]` is the `(src → this)` cell of the
/// network's link matrix). Part of the endpoint's [`ActorSlot`].
struct Mailbox<M> {
    queue: BinaryHeap<Reverse<Envelope<M>>>,
    links_in: Vec<LinkState>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Mailbox<M> {
        Mailbox {
            queue: BinaryHeap::new(),
            links_in: Vec::new(),
        }
    }
}

impl<M> Mailbox<M> {
    /// The `(src → this)` link cell, grown on demand (dense by source
    /// index; sources register before they can send, so the row length is
    /// bounded by the endpoint count).
    fn link(&mut self, src: PartitionId) -> &mut LinkState {
        let i = src.index();
        if self.links_in.len() <= i {
            self.links_in.resize(i + 1, LinkState::default());
        }
        &mut self.links_in[i]
    }

    fn pop_ready(&mut self, now: VirtualInstant) -> Option<Received<M>> {
        if self
            .queue
            .peek()
            .is_some_and(|Reverse(env)| env.deliver_at <= now)
        {
            let Reverse(env) = self.queue.pop().expect("peeked");
            Some(Received {
                src: env.src,
                sent_at: env.sent_at,
                delivered_at: env.deliver_at,
                msg: env.msg,
            })
        } else {
            None
        }
    }

    fn head_deliver_at(&self) -> Option<VirtualInstant> {
        self.queue.peek().map(|Reverse(env)| env.deliver_at)
    }

    /// Clears the mailbox for arena reuse, keeping heap and row capacity.
    fn recycle(&mut self) {
        self.queue.clear();
        self.links_in.clear();
    }
}

/// Everything the simulator knows, under the network's one lock: clock,
/// per-endpoint blocked state, wake-up points and mailboxes, fault
/// budgets, counters, deadlock state.
struct Sched<M> {
    now: VirtualInstant,
    /// One slot per endpoint, in registration order.
    actors: Vec<ActorSlot<M>>,
    /// Scheduled losses and corruptions; budgets are per directed link,
    /// so the order in which links consume them is free.
    faults: FaultPlan,
    stats: NetStats,
    /// Park/wake hand-off counters.
    handoffs: SchedStats,
    deadlocked: Option<DeadlockInfo>,
    /// Recycled actor slots handed out by [`Network::endpoint`] before
    /// any fresh allocation (see [`NetArena`]).
    spare_slots: Vec<ActorSlot<M>>,
}

struct Shared<M> {
    sched: Mutex<Sched<M>>,
    /// Mirror of `Sched::now` in nanoseconds. Running threads read it
    /// without a lock: virtual time only advances when every live endpoint
    /// is blocked, so no running reader can race an advance.
    now_ns: AtomicU64,
    latency: LatencyModel,
    seed: u64,
    ack_timeout: Option<VirtualDuration>,
    tap: Option<Arc<dyn NetTap>>,
}

/// Scheduler self-metrics: hand-offs of the CPU between endpoints. One
/// `park` is one blocked endpoint giving up the CPU — a fiber suspend
/// under `caa-runtime`'s `System::run`, a condvar wait (a futex sleep on
/// Linux) for an endpoint driven by an OS thread; one `wake` is one wake
/// site making one endpoint runnable again (each endpoint counted
/// separately in the broadcast on deadlock). Every site that counts holds
/// the network's lock.
///
/// These say what the *simulator* did, not what the protocol did, so
/// report them apart from the protocol's metrics. Under `System::run`
/// they are nonetheless a pure function of the seed: participants run to
/// their next block one at a time, in registration order, each resumed
/// when the host's pass reaches it with its [`Runnable`] mark set, so the
/// same seed parks and wakes identically on every run and the counts may
/// be gated by equality (the harness pins their sums over 150 seeds).
/// Only endpoints driven by concurrently running OS threads park
/// differently from run to run (same-instant events interleave as the OS
/// pleases, which never reaches virtual time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Times a blocked endpoint gave up the CPU.
    pub parks: u64,
    /// Times a wake site made an endpoint runnable.
    pub wakes: u64,
}

/// A fiber-hosted endpoint's wake-up mark, shared between the endpoint's
/// scheduler slot and whoever resumes its fiber (obtained from
/// [`Endpoint::runnable`] before the endpoint moves into its fiber). Wake
/// sites set it while holding the network's lock; the host tests it with
/// no lock at all, once per endpoint per pass.
///
/// The mark publishes no data of its own — a resumed endpoint re-takes the
/// network's lock before it reads anything a waker wrote — so every access
/// is `Relaxed`.
#[derive(Debug, Clone, Default)]
pub struct Runnable(Arc<AtomicBool>);

impl Runnable {
    /// Whether the endpoint has been made runnable since it last suspended
    /// (or has yet to start), clearing the mark. A `true` obliges the host
    /// to resume the endpoint's fiber — the wake-up is consumed.
    #[inline]
    #[must_use]
    pub fn take(&self) -> bool {
        self.0.load(Ordering::Relaxed) && self.0.swap(false, Ordering::Relaxed)
    }

    #[inline]
    fn set(&self, on: bool) {
        self.0.store(on, Ordering::Relaxed);
    }
}

/// Recycled allocations of a finished [`Network`]: its actor slots, with
/// their condvar and runnable-mark allocations, any fiber stacks parked in
/// them, and their mailboxes' heap and link-row capacity. Obtained from
/// [`Network::reclaim`], consumed by [`Network::new_reusing`]. Purely an
/// allocation cache — a network built from an arena is observably
/// identical to a fresh one.
pub struct NetArena<M> {
    slots: Vec<ActorSlot<M>>,
}

impl<M> NetArena<M> {
    /// An empty arena (equivalent to passing `None` to
    /// [`Network::new_reusing`]).
    #[must_use]
    pub fn new() -> NetArena<M> {
        NetArena { slots: Vec::new() }
    }

    /// How many endpoint slots the arena currently caches.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<M> Default for NetArena<M> {
    fn default() -> Self {
        NetArena::new()
    }
}

impl<M> fmt::Debug for NetArena<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetArena")
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// The simulated network (and, in virtual mode, the time scheduler).
///
/// Cheap to clone; all clones share state.
///
/// # Examples
///
/// ```
/// use caa_simnet::{Network, NetConfig, Classify};
/// use caa_core::time::secs;
///
/// #[derive(Debug)]
/// struct Ping(u32);
/// impl Classify for Ping {
///     fn class(&self) -> &'static str { "Ping" }
/// }
///
/// let net: Network<Ping> = Network::new(NetConfig::default());
/// let a = net.endpoint("a");
/// let mut b = net.endpoint("b");
/// let b_id = b.id();
///
/// let handle = std::thread::spawn(move || {
///     let got = b.recv().expect("no deadlock");
///     got.msg.expect("not corrupted").0
/// });
/// a.send(b_id, Ping(7));
/// a.retire();
/// assert_eq!(handle.join().unwrap(), 7);
/// # assert_eq!(net.stats().sent("Ping"), 1);
/// ```
pub struct Network<M> {
    shared: Arc<Shared<M>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M> fmt::Debug for Network<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sched = self.shared.sched.lock();
        f.debug_struct("Network")
            .field("now", &sched.now)
            .field("endpoints", &sched.actors.len())
            .finish()
    }
}

impl<M: Send + Classify> Network<M> {
    /// Creates a network with the given configuration.
    #[must_use]
    pub fn new(config: NetConfig) -> Self {
        Network::new_reusing(config, None)
    }

    /// [`Network::new`], recycling the allocations of a previously
    /// [`reclaim`](Network::reclaim)ed network. The arena is an allocation
    /// cache only: the new network starts from a fully cleared state and
    /// behaves byte-identically to a fresh one.
    #[must_use]
    pub fn new_reusing(config: NetConfig, arena: Option<NetArena<M>>) -> Self {
        let arena = arena.unwrap_or_default();
        Network {
            shared: Arc::new(Shared {
                sched: Mutex::new(Sched {
                    now: VirtualInstant::EPOCH,
                    actors: Vec::new(),
                    faults: config.faults,
                    stats: NetStats::default(),
                    handoffs: SchedStats::default(),
                    deadlocked: None,
                    spare_slots: arena.slots,
                }),
                now_ns: AtomicU64::new(VirtualInstant::EPOCH.as_nanos()),
                latency: config.latency,
                seed: config.seed,
                ack_timeout: config.ack_timeout,
                tap: config.tap,
            }),
        }
    }

    /// Takes the network apart and recycles its allocations into a
    /// [`NetArena`] for the next [`Network::new_reusing`]. Returns `None`
    /// when other clones of the network (or live endpoints) still exist —
    /// reclamation requires sole ownership, so it is safe to call
    /// opportunistically after every run.
    #[must_use]
    pub fn reclaim(self) -> Option<NetArena<M>> {
        let sched = Arc::try_unwrap(self.shared).ok()?.sched.into_inner();
        let mut slots = sched.actors;
        slots.extend(sched.spare_slots);
        for slot in &mut slots {
            slot.mailbox.recycle();
        }
        Some(NetArena { slots })
    }

    /// Registers a new endpoint (one partition / participating thread).
    ///
    /// The endpoint is counted as *running* from this moment, so register it
    /// before handing it to its thread — otherwise virtual time may advance
    /// past events the thread would have handled.
    pub fn endpoint(&self, name: impl Into<Arc<str>>) -> Endpoint<M> {
        let name = name.into();
        let mut sched = self.shared.sched.lock();
        let id =
            PartitionId::new(u32::try_from(sched.actors.len()).expect("fewer than 2^32 endpoints"));
        let recycled = sched.spare_slots.pop();
        let slot = ActorSlot::fresh(name, recycled);
        let runnable = slot.runnable.clone();
        sched.actors.push(slot);
        drop(sched);
        Endpoint {
            net: self.clone(),
            id,
            runnable,
        }
    }

    /// Current virtual time.
    ///
    /// A lock-free atomic read: the clock only moves while every live
    /// endpoint is blocked, so a running caller always sees the exact
    /// current instant.
    #[must_use]
    pub fn now(&self) -> VirtualInstant {
        VirtualInstant::from_nanos(self.shared.now_ns.load(Ordering::Acquire))
    }

    /// Snapshot of the message counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.shared.sched.lock().stats.clone()
    }

    /// Snapshot of the scheduler's park/wake hand-off counters (see
    /// [`SchedStats`]).
    #[must_use]
    pub fn sched_stats(&self) -> SchedStats {
        self.shared.sched.lock().handoffs
    }

    /// Takes the fiber stack parked in endpoint `id`'s slot, if one was
    /// left there by [`Network::park_stack`] — in this network or, through
    /// a [`NetArena`], in an earlier one.
    #[must_use]
    pub fn take_stack(&self, id: PartitionId) -> Option<Stack> {
        let mut sched = self.shared.sched.lock();
        sched.actors.get_mut(id.index())?.stack.take()
    }

    /// Parks a fiber stack in endpoint `id`'s slot once its fiber has
    /// finished, so that [`Network::reclaim`] carries it to the next
    /// network with the slot. (An unknown `id` just drops the stack.)
    pub fn park_stack(&self, id: PartitionId, stack: Stack) {
        let mut sched = self.shared.sched.lock();
        if let Some(slot) = sched.actors.get_mut(id.index()) {
            slot.stack = Some(stack);
        }
    }

    fn send_from(&self, src: PartitionId, dst: PartitionId, msg: M) {
        let class = msg.class();
        let correlation = msg.correlation();
        let mut guard = self.shared.sched.lock();
        let sched = &mut *guard;
        // Stable while we run: the sender's own endpoint is running, so
        // the advance arbiter cannot move the clock under us.
        let now = sched.now;
        // Fault decisions are pure functions of per-link budgets.
        let lost = sched.faults.should_lose(src, dst, class);
        let corrupted = !lost && sched.faults.should_corrupt(src, dst, class);
        if lost {
            sched.stats.record_dropped(class);
        } else {
            sched.stats.record_sent(class);
            if corrupted {
                sched.stats.record_corrupted(class);
            }
        }

        // Book the link slot, sample the latency, apply the per-link FIFO
        // clamp and enqueue. A lost message still occupies its slot in the
        // per-link sequence, so tap consumers see a unique (src, dst, seq)
        // per message whether it was delivered or lost. A destination that
        // never registered has no link row to book a sequence on (ids
        // normally only come from registration, so this needs a hand-built
        // `PartitionId`): the message was still *accepted* — counted above
        // and surfaced to the tap like a datagram to a dead host, with the
        // link sequence pinned to 0.
        let (mut seq, mut deliver_at, mut wake_dst) = (0, now, None);
        if let Some(slot) = sched.actors.get_mut(dst.index()) {
            let link = slot.mailbox.link(src);
            seq = link.seq;
            link.seq += 1;
            if !lost {
                let raw = self.shared.latency.sample(self.shared.seed, src, dst, seq);
                let eff = effective_latency(raw, self.shared.ack_timeout);
                deliver_at = now.saturating_add(eff);
                // Per-link FIFO (Assumption 2): never deliver before an
                // earlier message on the same link.
                if deliver_at <= link.last_delivery {
                    deliver_at = link
                        .last_delivery
                        .saturating_add(VirtualDuration::from_nanos(1));
                }
                link.last_delivery = deliver_at;
                if eff > raw && !raw.is_zero() {
                    sched.stats.record_retransmissions(
                        eff.as_nanos().saturating_sub(raw.as_nanos()) / raw.as_nanos().max(1),
                    );
                }
                // A message to a retired endpoint is lost like a datagram
                // to a dead host — but it was accepted, so counters and
                // tap still see it.
                if slot.alive {
                    slot.mailbox.queue.push(Reverse(Envelope {
                        deliver_at,
                        src,
                        seq,
                        sent_at: now,
                        msg: (!corrupted).then_some(msg),
                    }));
                    // If the destination is blocked waiting for messages,
                    // ensure the scheduler knows when it becomes wakeable
                    // — and wake it (alone) if the message is already
                    // deliverable. A message still in flight needs no
                    // wake-up: only a time advance can make it
                    // deliverable, and the advance arbiter wakes exactly
                    // the endpoints whose wake-up point was reached.
                    if !slot.running && slot.blocked_on.receives_messages() {
                        slot.wake_at = Some(match slot.wake_at {
                            Some(existing) => existing.min(deliver_at),
                            None => deliver_at,
                        });
                        if deliver_at <= now {
                            wake_dst = slot.wake().map(Arc::clone);
                            sched.handoffs.wakes += 1;
                        }
                    }
                }
            }
        }
        drop(guard);

        if let Some(tap) = &self.shared.tap {
            let event = TapEvent {
                src,
                dst,
                class,
                correlation,
                at: now,
                deliver_at,
                seq,
            };
            if lost {
                tap.on_dropped(&event);
            } else {
                tap.on_sent(&event);
                if corrupted {
                    tap.on_corrupted(&event);
                }
            }
        }
        if let Some(cv) = wake_dst {
            cv.notify_one();
        }
    }

    /// Core blocking primitive.
    ///
    /// Re-evaluates `pred` over the caller's own slot (mailbox included),
    /// under the network's lock, whenever woken; while blocked, `wake_hint`
    /// tells the scheduler the earliest instant at which `pred` could
    /// become true (None = only a message or retirement can help).
    ///
    /// This is the one place an endpoint gives up the CPU, and the one
    /// place that knows there are two ways to: inside a fiber the caller
    /// suspends (its host resumes it once a wake site has marked it
    /// runnable), on a plain OS thread it waits on its condvar. The lock is
    /// not held across a suspend — the host runs other endpoints on this
    /// very thread, and they take the same lock.
    fn block_until<T>(
        &self,
        id: PartitionId,
        kind: BlockKind,
        mut pred: impl FnMut(&mut ActorSlot<M>, VirtualInstant) -> Option<T>,
        mut wake_hint: impl FnMut(&ActorSlot<M>) -> Option<VirtualInstant>,
    ) -> Result<T, SimError> {
        let on_fiber = caa_fiber::in_fiber();
        let i = id.index();
        let mut guard = self.shared.sched.lock();
        loop {
            let sched = &mut *guard;
            if let Some(info) = &sched.deadlocked {
                return Err(SimError::Deadlock(info.clone()));
            }
            let slot = &mut sched.actors[i];
            if let Some(v) = pred(slot, sched.now) {
                slot.running = true;
                return Ok(v);
            }
            slot.running = false;
            slot.blocked_on = kind;
            slot.wake_at = wake_hint(slot);
            slot.on_fiber = on_fiber;
            // If our own blocking triggered an advance that reached our
            // wake-up point (or deadlock detection), the wake-up fired
            // before we could wait — re-evaluate instead of waiting for it.
            // An advance that stopped short of it woke somebody else:
            // nothing changed for this endpoint (the lock was held
            // throughout, its hint still lies ahead, and a second scan
            // would only find the endpoint just woken), so it parks now.
            let advanced = advance_if_blocked(sched, &self.shared.now_ns);
            let reached = sched.actors[i].wake_at.is_some_and(|w| w <= sched.now);
            if advanced && reached || sched.deadlocked.is_some() {
                continue;
            }
            sched.handoffs.parks += 1;
            if on_fiber {
                // Nothing ran between the predicate and here, so a mark
                // still set is a leftover of a wake-up already acted on
                // (our own advance above, on an earlier turn of the loop).
                sched.actors[i].runnable.set(false);
                drop(guard);
                caa_fiber::suspend();
                guard = self.shared.sched.lock();
            } else {
                // Each endpoint parks on its own slot; wake-ups are
                // targeted at exactly the endpoints whose predicate may
                // now hold.
                let cv = Arc::clone(&sched.actors[i].cv);
                cv.wait(&mut guard);
            }
        }
    }

    /// Rings endpoint `id`'s doorbell at virtual instant `at`, replacing
    /// any pending doorbell: the endpoint's next (or current)
    /// [`Endpoint::park_wait`] returns [`Parked::Doorbell`] once virtual
    /// time reaches `at`.
    ///
    /// This is the targeted-wake hook for *wait-condition* scheduling
    /// above the network (the runtime's wake-on-release object
    /// arbitration): the component that knows when a parked thread's wait
    /// condition can next hold schedules exactly that thread, instead of
    /// every waiter polling on a timer. Overwrite semantics are
    /// deliberate — the scheduler recomputes the wake-up on every state
    /// change, and the latest computation supersedes earlier ones.
    ///
    /// `epoch` must be the wait epoch the computation was based on (the
    /// value of [`Endpoint::begin_wait`] that the target published to the
    /// scheduler, e.g. in an object's waiter entry). A mismatch means the
    /// targeted wait has since ended — the doorbell would be stale, and
    /// is dropped. Unknown or retired endpoints are ignored too.
    pub fn schedule_wake(&self, id: PartitionId, at: VirtualInstant, epoch: u64) {
        let mut guard = self.shared.sched.lock();
        let sched = &mut *guard;
        let Some(slot) = sched.actors.get_mut(id.index()).filter(|slot| slot.alive) else {
            return;
        };
        if slot.wait_epoch != epoch {
            return; // stale: computed against an earlier, finished wait
        }
        slot.doorbell = Some(at);
        let mut wake = None;
        if !slot.running && slot.blocked_on == BlockKind::Park {
            // Re-derive the park's wake hint (min of next delivery and the
            // new doorbell).
            slot.wake_at = Some(match slot.mailbox.head_deliver_at() {
                Some(h) => h.min(at),
                None => at,
            });
            // Wake the owner only if the bell is already due — the
            // advance arbiter will deliver future bells at `at`.
            if at <= sched.now {
                wake = slot.wake().map(Arc::clone);
                sched.handoffs.wakes += 1;
            }
        }
        drop(guard);
        if let Some(cv) = wake {
            cv.notify_one();
        }
    }
}

/// One participant's connection to the [`Network`] — the paper's partition.
///
/// Sending is `&self`; receiving is `&mut self` (an endpoint has a single
/// consumer: its owning thread). Dropping the endpoint retires it.
pub struct Endpoint<M> {
    net: Network<M>,
    id: PartitionId,
    runnable: Runnable,
}

impl<M> fmt::Debug for Endpoint<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

impl<M: Send + Classify> Endpoint<M> {
    /// This endpoint's partition id.
    #[must_use]
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// The network this endpoint belongs to.
    #[must_use]
    pub fn network(&self) -> &Network<M> {
        &self.net
    }

    /// Current (virtual) time.
    #[must_use]
    pub fn now(&self) -> VirtualInstant {
        self.net.now()
    }

    /// This endpoint's wake-up mark, for whoever will resume the fiber it
    /// runs in (see [`Runnable`]); take it before moving the endpoint into
    /// that fiber. Unused by an endpoint an OS thread drives.
    #[must_use]
    pub fn runnable(&self) -> Runnable {
        self.runnable.clone()
    }

    /// Sends `msg` to `dst` asynchronously (fire and forget, like the
    /// paper's "asynchronous remote procedure calls (without out
    /// parameters)").
    pub fn send(&self, dst: PartitionId, msg: M) {
        self.net.send_from(self.id, dst, msg);
    }

    /// Receives the next message, blocking until one is deliverable.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    pub fn recv(&mut self) -> Result<Received<M>, SimError> {
        self.net.block_until(
            self.id,
            BlockKind::Recv,
            |slot, now| slot.mailbox.pop_ready(now),
            |slot| slot.mailbox.head_deliver_at(),
        )
    }

    /// Receives the next message if one is already deliverable.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the simulation already deadlocked.
    pub fn try_recv(&mut self) -> Result<Option<Received<M>>, SimError> {
        let mut guard = self.net.shared.sched.lock();
        let sched = &mut *guard;
        if let Some(info) = &sched.deadlocked {
            return Err(SimError::Deadlock(info.clone()));
        }
        Ok(sched.actors[self.id.index()].mailbox.pop_ready(sched.now))
    }

    /// Receives the next message, waiting at most `timeout`.
    ///
    /// Returns `Ok(None)` on timeout — the hook the runtime uses to treat
    /// lost messages as the failure exception (§3.4).
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    pub fn recv_timeout(
        &mut self,
        timeout: VirtualDuration,
    ) -> Result<Option<Received<M>>, SimError> {
        let deadline = self.net.now().saturating_add(timeout);
        self.recv_deadline(deadline)
    }

    /// Receives the next message, waiting until `deadline` at the latest —
    /// [`Endpoint::recv_timeout`] with an absolute instant instead of a
    /// duration, so per-round protocol waits (the §3.4 signalling timeout,
    /// the bounded exit wait, the membership extension's bounded resolution
    /// wait) can share one deadline across many receive calls without the
    /// caller re-deriving a remaining duration each time.
    ///
    /// Returns `Ok(None)` once virtual time reaches `deadline` with nothing
    /// deliverable.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    pub fn recv_deadline(
        &mut self,
        deadline: VirtualInstant,
    ) -> Result<Option<Received<M>>, SimError> {
        self.net.block_until(
            self.id,
            BlockKind::Recv,
            |slot, now| match slot.mailbox.pop_ready(now) {
                Some(r) => Some(Some(r)),
                None if now >= deadline => Some(None),
                None => None,
            },
            |slot| match slot.mailbox.head_deliver_at() {
                Some(h) => Some(h.min(deadline)),
                None => Some(deadline),
            },
        )
    }

    /// Parks until a message becomes deliverable or this endpoint's
    /// doorbell rings — the wait-condition-driven counterpart of polling
    /// with [`Endpoint::recv_timeout`]. While parked, the endpoint
    /// contributes no wake-up point beyond its doorbell (if set) and its
    /// next delivery (if any): a waiter whose condition can only be
    /// enabled by *another* thread parks unboundedly and is woken by a
    /// targeted [`Network::schedule_wake`] from whoever enables it.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress. With doorbell-less parked waiters this now also covers
    /// waits nobody will ever enable — a wait-for cycle that the old
    /// polling design would spin on forever.
    pub fn park_wait(&mut self) -> Result<Parked<M>, SimError> {
        self.park_wait_until(None)
    }

    /// Like [`Endpoint::park_wait`], but additionally wakes with
    /// [`Parked::Deadline`] once virtual time reaches `deadline` (when one
    /// is given). The deadline is independent of the doorbell: it belongs
    /// to the *caller* (e.g. a scheduled crash-stop instant bounding an
    /// object-acquisition wait), while the doorbell belongs to whatever
    /// scheduler the wait's epoch was published to — a deadline wake-up
    /// neither consumes nor reorders pending doorbells, and a message or
    /// doorbell due at the same instant is reported first.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    pub fn park_wait_until(
        &mut self,
        deadline: Option<VirtualInstant>,
    ) -> Result<Parked<M>, SimError> {
        self.net.block_until(
            self.id,
            BlockKind::Park,
            |slot, now| {
                if let Some(received) = slot.mailbox.pop_ready(now) {
                    return Some(Parked::Msg(received));
                }
                if slot.doorbell.is_some_and(|at| at <= now) {
                    slot.doorbell = None;
                    return Some(Parked::Doorbell);
                }
                if deadline.is_some_and(|at| at <= now) {
                    return Some(Parked::Deadline);
                }
                None
            },
            |slot| {
                let head = slot.mailbox.head_deliver_at();
                let bell = slot.doorbell;
                let hint = match (head, bell) {
                    (Some(h), Some(b)) => Some(h.min(b)),
                    (head, bell) => head.or(bell),
                };
                match (hint, deadline) {
                    (Some(h), Some(d)) => Some(h.min(d)),
                    (hint, deadline) => hint.or(deadline),
                }
            },
        )
    }

    /// Opens a new parked wait: discards any doorbell left over from an
    /// earlier wait and returns the wait's fresh epoch. Publish the epoch
    /// to whichever scheduler will compute this wait's wake-ups (e.g. an
    /// object's waiter queue); [`Network::schedule_wake`] calls carrying
    /// an older epoch are ignored from this point on, so a scheduler that
    /// raced against the end of the previous wait cannot ring a stale
    /// bell into this one.
    pub fn begin_wait(&self) -> u64 {
        let mut sched = self.net.shared.sched.lock();
        let slot = &mut sched.actors[self.id.index()];
        slot.doorbell = None;
        slot.wait_epoch += 1;
        slot.wait_epoch
    }

    /// Sleeps for `dur` — models local computation taking virtual time.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the simulation deadlocked while sleeping.
    pub fn sleep(&self, dur: VirtualDuration) -> Result<(), SimError> {
        if dur.is_zero() {
            return Ok(());
        }
        let deadline = self.net.now().saturating_add(dur);
        self.net.block_until(
            self.id,
            BlockKind::Sleep,
            |_, now| (now >= deadline).then_some(()),
            |_| Some(deadline),
        )
    }

    /// Retires the endpoint: the scheduler stops waiting for this
    /// participant and undelivered messages to it are discarded.
    pub fn retire(self) {
        drop(self);
    }
}

impl<M> Drop for Endpoint<M> {
    fn drop(&mut self) {
        let shared = &self.net.shared;
        let mut sched = shared.sched.lock();
        let slot = &mut sched.actors[self.id.index()];
        slot.alive = false;
        slot.running = false;
        advance_if_blocked(&mut sched, &shared.now_ns);
    }
}

/// The virtual-time advance arbiter (callable without `M: Classify`, for
/// `Drop`): if every live endpoint is blocked, advances time to the
/// earliest wake-up point and wakes **only** the endpoints whose
/// wake-up point was reached — the unique next runner(s), not the herd —
/// or, with no wake-up point anywhere, declares deadlock and wakes
/// everyone to report it. Returns whether it changed the world, so the
/// calling blocker re-evaluates instead of missing its own wake-up.
fn advance_if_blocked<M>(sched: &mut Sched<M>, now_ns: &AtomicU64) -> bool {
    if sched.deadlocked.is_some() {
        return false;
    }
    let live = sched.actors.iter().filter(|a| a.alive);
    let mut min_wake: Option<VirtualInstant> = None;
    for actor in live {
        if actor.running {
            return false; // someone can still make progress right now
        }
        if let Some(w) = actor.wake_at {
            if w <= sched.now {
                return false; // already wakeable; it was notified
            }
            min_wake = Some(match min_wake {
                Some(m) => m.min(w),
                None => w,
            });
        }
    }
    match min_wake {
        Some(t) => {
            sched.now = t;
            now_ns.store(t.as_nanos(), Ordering::Release);
            for actor in &mut sched.actors {
                if actor.alive && !actor.running && actor.wake_at.is_some_and(|w| w <= t) {
                    sched.handoffs.wakes += 1;
                    if let Some(cv) = actor.wake() {
                        cv.notify_one();
                    }
                }
            }
            true
        }
        None => {
            let any_live = sched.actors.iter().any(|a| a.alive);
            if !any_live {
                return false; // everyone retired: nothing to schedule
            }
            let info = DeadlockInfo {
                at: sched.now,
                blocked: sched
                    .actors
                    .iter()
                    .filter(|a| a.alive)
                    .map(|a| (a.name.to_string(), a.blocked_on.label()))
                    .collect(),
            };
            sched.deadlocked = Some(info);
            // Everyone must observe the deadlock: this is the one
            // remaining broadcast wake-up, and the simulation is over.
            for actor in &mut sched.actors {
                if actor.alive && !actor.running {
                    sched.handoffs.wakes += 1;
                    if let Some(cv) = actor.wake() {
                        cv.notify_one();
                    }
                }
            }
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::time::secs;
    use std::thread;

    #[derive(Debug, PartialEq)]
    struct Msg(u64);
    impl Classify for Msg {
        fn class(&self) -> &'static str {
            "Msg"
        }
    }

    fn virtual_net(latency: LatencyModel) -> Network<Msg> {
        Network::new(NetConfig {
            mode: ClockMode::Virtual,
            latency,
            seed: 42,
            ack_timeout: None,
            faults: FaultPlan::new(),
            tap: None,
        })
    }

    #[test]
    fn ping_pong_advances_virtual_time() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.5)));
        let mut a = net.endpoint("a");
        let mut b = net.endpoint("b");
        let (a_id, b_id) = (a.id(), b.id());

        let tb = thread::spawn(move || {
            let got = b.recv().unwrap();
            assert_eq!(got.msg.unwrap(), Msg(1));
            b.send(a_id, Msg(2));
            b.retire();
            got.delivered_at
        });
        a.send(b_id, Msg(1));
        let reply = a.recv().unwrap();
        assert_eq!(reply.msg.unwrap(), Msg(2));
        // Two half-second hops.
        assert_eq!(reply.delivered_at, VirtualInstant::EPOCH + secs(1.0));
        let t_b = tb.join().unwrap();
        assert_eq!(t_b, VirtualInstant::EPOCH + secs(0.5));
        a.retire();
        assert_eq!(net.stats().sent("Msg"), 2);
    }

    #[test]
    fn sleep_advances_time_without_busy_waiting() {
        let net = virtual_net(LatencyModel::default());
        let a = net.endpoint("a");
        let wall = std::time::Instant::now();
        a.sleep(secs(3600.0)).unwrap();
        assert!(net.now() >= VirtualInstant::EPOCH + secs(3600.0));
        assert!(
            wall.elapsed() < std::time::Duration::from_secs(5),
            "an hour of virtual time must take well under 5 s of wall time"
        );
        a.retire();
    }

    #[test]
    fn fifo_per_link_despite_random_latencies() {
        let net = virtual_net(LatencyModel::UniformUpTo(secs(1.0)));
        let a = net.endpoint("a");
        let mut b = net.endpoint("b");
        let b_id = b.id();
        for i in 0..50 {
            a.send(b_id, Msg(i));
        }
        a.retire();
        let t = thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..50 {
                got.push(b.recv().unwrap().msg.unwrap().0);
            }
            b.retire();
            got
        });
        let got = t.join().unwrap();
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "per-link FIFO violated");
    }

    #[test]
    fn deadlock_is_detected_and_reported_to_all() {
        let net = virtual_net(LatencyModel::default());
        let mut a = net.endpoint("alice");
        let mut b = net.endpoint("bob");
        // Both wait forever for messages nobody sends.
        let ta = thread::spawn(move || a.recv());
        let tb = thread::spawn(move || b.recv());
        let ra = ta.join().unwrap();
        let rb = tb.join().unwrap();
        for r in [ra, rb] {
            match r {
                Err(SimError::Deadlock(info)) => {
                    assert_eq!(info.blocked.len(), 2);
                    let names: Vec<_> = info.blocked.iter().map(|(n, _)| n.as_str()).collect();
                    assert!(names.contains(&"alice") && names.contains(&"bob"));
                }
                other => panic!("expected deadlock, got {other:?}"),
            }
        }
    }

    #[test]
    fn sleeping_peer_prevents_false_deadlock() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.1)));
        let mut a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        let tb = thread::spawn(move || {
            b.sleep(secs(5.0)).unwrap();
            b.send(a_id, Msg(9));
            b.retire();
        });
        let got = a.recv().unwrap();
        assert_eq!(got.msg.unwrap(), Msg(9));
        assert_eq!(got.delivered_at, VirtualInstant::EPOCH + secs(5.1));
        tb.join().unwrap();
        a.retire();
    }

    #[test]
    fn recv_timeout_returns_none_when_nothing_arrives() {
        let net = virtual_net(LatencyModel::default());
        let mut a = net.endpoint("a");
        // A timed wait has a wake-up point, so a lone endpoint is not a
        // deadlock: virtual time advances straight to the timeout.
        let got = a.recv_timeout(secs(2.0)).unwrap();
        assert!(got.is_none());
        assert!(net.now() >= VirtualInstant::EPOCH + secs(2.0));
        a.retire();
    }

    #[test]
    fn recv_timeout_returns_message_when_it_arrives_first() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.3)));
        let mut a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        let tb = thread::spawn(move || {
            b.send(a_id, Msg(5));
            b.retire();
        });
        let got = a.recv_timeout(secs(10.0)).unwrap();
        assert_eq!(got.unwrap().msg.unwrap(), Msg(5));
        tb.join().unwrap();
        a.retire();
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let net = virtual_net(LatencyModel::Fixed(secs(1.0)));
        let mut a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        assert!(a.try_recv().unwrap().is_none());
        b.send(a_id, Msg(1));
        // In flight, not yet deliverable.
        assert!(a.try_recv().unwrap().is_none());
        // Retire the idle endpoint: every live endpoint must be driven by a
        // thread, or it blocks virtual-time advancement.
        b.retire();
        // After sleeping past the latency it is deliverable.
        a.sleep(secs(1.5)).unwrap();
        assert_eq!(a.try_recv().unwrap().unwrap().msg.unwrap(), Msg(1));
        a.retire();
    }

    #[test]
    fn lost_messages_are_counted_and_not_delivered() {
        let net: Network<Msg> = Network::new(NetConfig {
            mode: ClockMode::Virtual,
            latency: LatencyModel::default(),
            seed: 1,
            ack_timeout: None,
            faults: FaultPlan::new().lose(crate::FaultSpec::any().count(1)),
            tap: None,
        });
        let mut a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        b.send(a_id, Msg(1)); // lost
        b.send(a_id, Msg(2)); // delivered
        b.retire();
        let got = a.recv().unwrap();
        assert_eq!(got.msg.unwrap(), Msg(2));
        assert_eq!(net.stats().dropped("Msg"), 1);
        assert_eq!(net.stats().sent("Msg"), 1);
        a.retire();
    }

    #[test]
    fn corrupted_messages_arrive_with_no_payload() {
        let net: Network<Msg> = Network::new(NetConfig {
            mode: ClockMode::Virtual,
            latency: LatencyModel::default(),
            seed: 1,
            ack_timeout: None,
            faults: FaultPlan::new().corrupt(crate::FaultSpec::any().count(1)),
            tap: None,
        });
        let mut a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        b.send(a_id, Msg(1));
        b.retire();
        let got = a.recv().unwrap();
        assert!(got.is_corrupted());
        assert_eq!(net.stats().corrupted("Msg"), 1);
        a.retire();
    }

    #[test]
    fn messages_to_retired_endpoints_are_discarded() {
        let net = virtual_net(LatencyModel::default());
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let b_id = b.id();
        b.retire();
        a.send(b_id, Msg(1)); // must not panic or deadlock
        a.retire();
    }

    #[test]
    fn dropping_an_endpoint_retires_it() {
        let net = virtual_net(LatencyModel::default());
        let mut a = net.endpoint("a");
        {
            let _b = net.endpoint("b");
            // _b dropped here without explicit retire.
        }
        // With b gone, a alone waiting forever is a deadlock.
        let r = a.recv();
        assert!(matches!(r, Err(SimError::Deadlock(_))));
    }

    #[test]
    fn park_wait_consumes_a_scheduled_doorbell_at_its_instant() {
        let net = virtual_net(LatencyModel::default());
        let mut a = net.endpoint("a");
        let epoch = a.begin_wait();
        net.schedule_wake(a.id(), VirtualInstant::EPOCH + secs(0.005), epoch);
        match a.park_wait().unwrap() {
            Parked::Doorbell => {}
            other => panic!("expected the doorbell, got {other:?}"),
        }
        assert_eq!(net.now(), VirtualInstant::EPOCH + secs(0.005));
        // The bell is consumed: a further park has no wake-up point and,
        // with no peers, is a detected deadlock (not a hang).
        assert!(matches!(a.park_wait(), Err(SimError::Deadlock(_))));
    }

    #[test]
    fn doorbell_with_a_stale_epoch_is_ignored() {
        let net = virtual_net(LatencyModel::default());
        let mut a = net.endpoint("a");
        let old = a.begin_wait();
        let _current = a.begin_wait();
        net.schedule_wake(a.id(), VirtualInstant::EPOCH + secs(0.001), old);
        assert!(
            matches!(a.park_wait(), Err(SimError::Deadlock(_))),
            "a doorbell computed for a finished wait must not wake the new one"
        );
    }

    #[test]
    fn deliverable_message_beats_a_same_instant_doorbell() {
        let net = virtual_net(LatencyModel::Fixed(secs(0.001)));
        let mut a = net.endpoint("a");
        let b = net.endpoint("b");
        let a_id = a.id();
        let epoch = a.begin_wait();
        // Bell and delivery land at the same virtual instant (1 ms): the
        // park must drain the message first, then report the bell.
        net.schedule_wake(a_id, VirtualInstant::EPOCH + secs(0.001), epoch);
        b.send(a_id, Msg(1));
        b.retire();
        match a.park_wait().unwrap() {
            Parked::Msg(m) => assert_eq!(m.msg.unwrap(), Msg(1)),
            other => panic!("message must be reported before the bell, got {other:?}"),
        }
        match a.park_wait().unwrap() {
            Parked::Doorbell => {}
            other => panic!("only one message was sent, got {other:?}"),
        }
        a.retire();
    }

    #[test]
    fn three_party_broadcast_order_is_deterministic() {
        // Run the same scenario twice; delivery times must be identical.
        let run = || {
            let net = virtual_net(LatencyModel::UniformUpTo(secs(1.0)));
            let a = net.endpoint("a");
            let mut b = net.endpoint("b");
            let mut c = net.endpoint("c");
            let (b_id, c_id) = (b.id(), c.id());
            for i in 0..10 {
                a.send(b_id, Msg(i));
                a.send(c_id, Msg(i));
            }
            a.retire();
            let tb = thread::spawn(move || {
                let mut ts = Vec::new();
                for _ in 0..10 {
                    ts.push(b.recv().unwrap().delivered_at);
                }
                b.retire();
                ts
            });
            let tc = thread::spawn(move || {
                let mut ts = Vec::new();
                for _ in 0..10 {
                    ts.push(c.recv().unwrap().delivered_at);
                }
                c.retire();
                ts
            });
            (tb.join().unwrap(), tc.join().unwrap())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn arena_reuse_replays_byte_identically() {
        // The same two-party exchange, fresh vs. recycled: every delivery
        // instant must match, and the arena must actually be reclaimed.
        let exchange = |arena: Option<NetArena<Msg>>| {
            let net = Network::new_reusing(
                NetConfig {
                    mode: ClockMode::Virtual,
                    latency: LatencyModel::UniformUpTo(secs(1.0)),
                    seed: 7,
                    ack_timeout: None,
                    faults: FaultPlan::new(),
                    tap: None,
                },
                arena,
            );
            let a = net.endpoint("a");
            let mut b = net.endpoint("b");
            let b_id = b.id();
            for i in 0..20 {
                a.send(b_id, Msg(i));
            }
            a.retire();
            let tb = thread::spawn(move || {
                let mut ts = Vec::new();
                for _ in 0..20 {
                    ts.push(b.recv().unwrap().delivered_at);
                }
                b.retire();
                ts
            });
            let ts = tb.join().unwrap();
            (ts, net.reclaim().expect("sole owner after join"))
        };
        let (fresh, arena) = exchange(None);
        assert_eq!(arena.capacity(), 2, "both endpoints reclaimed");
        let (reused, arena2) = exchange(Some(arena));
        assert_eq!(fresh, reused, "arena reuse must not change delivery");
        assert_eq!(arena2.capacity(), 2);
    }

    #[test]
    fn concurrent_senders_keep_link_fifo_and_exact_counts() {
        // Four OS threads send to one thread-hosted receiver at once, all
        // through the network's single lock: whatever order they win it
        // in, each link stays FIFO and every message is counted once.
        const SENDERS: u64 = 4;
        const EACH: u64 = 200;
        let net = virtual_net(LatencyModel::UniformUpTo(secs(1.0)));
        let mut rx = net.endpoint("rx");
        let rx_id = rx.id();
        let start = std::sync::Arc::new(std::sync::Barrier::new(SENDERS as usize));
        let senders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let tx = net.endpoint(format!("tx{s}"));
                let start = std::sync::Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    for i in 0..EACH {
                        tx.send(rx_id, Msg(s * EACH + i));
                    }
                    tx.retire();
                })
            })
            .collect();
        let receiver = thread::spawn(move || {
            let mut next = [0u64; SENDERS as usize];
            let mut last_delivery = VirtualInstant::EPOCH;
            for _ in 0..SENDERS * EACH {
                let got = rx.recv().unwrap();
                assert!(got.delivered_at >= last_delivery, "delivery went back");
                last_delivery = got.delivered_at;
                let s = got.src.index() - 1; // rx registered first
                let Msg(payload) = got.msg.unwrap();
                assert_eq!(payload, s as u64 * EACH + next[s], "link {s} reordered");
                next[s] += 1;
            }
            rx.retire();
            next
        });
        for sender in senders {
            sender.join().unwrap();
        }
        assert_eq!(receiver.join().unwrap(), [EACH; SENDERS as usize]);
        let stats = net.stats();
        assert_eq!(stats.sent("Msg"), SENDERS * EACH);
        assert_eq!(stats.total_sent(), SENDERS * EACH);
        assert_eq!(stats.dropped("Msg") + stats.corrupted("Msg"), 0);
    }

    #[test]
    fn sends_to_retired_and_unregistered_endpoints_are_counted_and_tapped() {
        #[derive(Default)]
        struct Sent(Mutex<Vec<TapEvent>>);
        impl NetTap for Sent {
            fn on_sent(&self, event: &TapEvent) {
                self.0.lock().push(event.clone());
            }
        }
        let tap = Arc::new(Sent::default());
        let net: Network<Msg> = Network::new(NetConfig {
            latency: LatencyModel::Fixed(secs(0.5)),
            tap: Some(Arc::clone(&tap) as _),
            ..NetConfig::default()
        });
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let (a_id, b_id) = (a.id(), b.id());
        b.retire();
        let nobody = PartitionId::new(9);
        a.send(b_id, Msg(1));
        a.send(b_id, Msg(2));
        a.send(nobody, Msg(3));
        a.retire();

        assert_eq!(net.stats().sent("Msg"), 3, "accepted, so counted");
        let at = VirtualInstant::EPOCH;
        let event = |dst, deliver_at, seq| TapEvent {
            src: a_id,
            dst,
            class: "Msg",
            correlation: 0,
            at,
            deliver_at,
            seq,
        };
        assert_eq!(
            *tap.0.lock(),
            vec![
                // A retired destination still books its link: sequence
                // numbers and the FIFO clamp advance as if it listened.
                event(b_id, at + secs(0.5), 0),
                event(b_id, at + secs(0.5) + VirtualDuration::from_nanos(1), 1),
                // No link row to book on: sequence pinned to 0, no delay.
                event(nobody, at, 0),
            ]
        );
    }

    #[test]
    fn reclaim_requires_sole_ownership() {
        let net = virtual_net(LatencyModel::default());
        let clone = net.clone();
        assert!(net.reclaim().is_none(), "a live clone blocks reclamation");
        drop(clone);
    }
}
