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
//! # One core, two hosts at the edge
//!
//! All simulator state of a network, and everything the simulator does
//! with it, is one plain single-owner value (`simcore::Core`): `&mut self`
//! methods over ordinary fields, with no lock, no atomic, no condvar and
//! no notion of what runs the endpoints. A blocking operation is, to the
//! core, a sequence of *turns*, each answering "ready, with this value" or
//! "park" — the endpoint is then marked blocked, its wake-up point is
//! published, and wake sites (a delivery, a doorbell, the advance arbiter)
//! will mark it runnable.
//!
//! The operations of [`Network`] and [`Endpoint`] are written once, in
//! this file, over a *host* — the type parameter `H` — which supplies the
//! two things the core cannot: exclusive access to it, and a way to give
//! up the CPU between turns. There are two:
//!
//! * [`Fibers`] ([`FiberNetwork`], [`FiberEndpoint`]) keeps the core in an
//!   `Rc<RefCell<_>>`. Every endpoint runs as a fiber of one thread; a
//!   blocked one [suspends](caa_fiber::suspend), and whoever resumes the
//!   fibers — `caa-runtime`'s `System::run`, the only user — asks
//!   [`take_runnable`](Network::take_runnable) which to resume. An
//!   operation costs a borrow flag, a hand-off is a user-space stack
//!   switch, and the types are `!Send`: a system's network holds no
//!   mutex, condvar or atomic *by construction*;
//! * [`Threads`] — the default, so plain `Network<M>` and `Endpoint<M>` —
//!   keeps the core behind one mutex, taken once per operation and once
//!   more each time a blocked operation is woken, with one condvar per
//!   endpoint for its thread to sleep on. A hand-off is a futex sleep and
//!   wake-up. This crate's thread tests and doc-tests and the benchmark's
//!   two simnet kernels run on it, `Send` endpoints and all; once those
//!   kernels move onto fibers it can be deleted with its file.
//!
//! The host is chosen by type — there is no option. The advance arbiter,
//! heap keys, FIFO clamps, doorbell epochs and every counter belong to the
//! core, so what an endpoint *observes* is the same under either host
//! (`tests::both_hosts_observe_the_same` drives one script under both);
//! only how it sleeps differs. Neither host holds the core across a
//! suspend or a wait. What the core decided about a sent message goes back
//! to its sender as the return value of [`Endpoint::send`]: the network
//! calls nothing of its caller's.
//!
//! # Arena reuse
//!
//! Callers execute thousands of sub-millisecond simulations; a
//! [`NetArena`] recycles the allocation-heavy parts (actor slots with
//! the fiber stacks parked in them, mailbox heaps, link rows) from one
//! finished network into the next (see [`Network::new_reusing`] /
//! [`Network::reclaim`]). This crate provides the mechanism and holds no
//! arena itself: between networks the arena belongs to whoever reclaimed
//! it. For `FiberNetwork<Message>` that is `caa-runtime`, which keeps one
//! per host thread — a finished `System` puts it there, the next
//! `SystemBuilder::build` on the thread takes it — so a warmed-up thread
//! neither allocates a slot nor maps a stack per run, whatever runs the
//! systems. Reuse is invisible to the simulation: recycled state is fully
//! cleared.

use std::fmt;
use std::marker::PhantomData;

use caa_core::ids::PartitionId;
use caa_core::name::Name;
use caa_core::time::{VirtualDuration, VirtualInstant};
use caa_fiber::Stack;

use crate::fault::FaultPlan;
use crate::host::{Fibers, Host};
use crate::latency::LatencyModel;
use crate::simcore::{Core, NetArena, SchedStats, Sent, Turn};
use crate::stats::{Classify, NetStats};
use crate::threads::Threads;

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
#[derive(Debug, Clone, Default)]
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

/// The simulated network (and, in virtual mode, the time scheduler), hosted
/// by `H`: OS threads unless said otherwise ([`Threads`]), or the fibers of
/// one thread ([`FiberNetwork`]). The operations are the same under
/// either — they are written once, over the host — and so is everything
/// an endpoint observes; only how a blocked endpoint sleeps differs.
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
pub struct Network<M, H: Host<M> = Threads<M>> {
    host: H,
    /// `M` is the host's business; the handle is as `Send` as the host.
    msg: PhantomData<fn(M)>,
}

/// A network whose endpoints all run as fibers of one thread — `!Send`,
/// and free of locks and atomics (see [`Fibers`]).
pub type FiberNetwork<M> = Network<M, Fibers<M>>;

/// An endpoint of a [`FiberNetwork`]. `!Send`.
pub type FiberEndpoint<M> = Endpoint<M, Fibers<M>>;

impl<M, H: Host<M>> Clone for Network<M, H> {
    fn clone(&self) -> Self {
        Network {
            host: self.host.clone(),
            msg: PhantomData,
        }
    }
}

impl<M, H: Host<M>> fmt::Debug for Network<M, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.host
            .with(|core| f.debug_tuple("Network").field(core).finish())
    }
}

impl<M> FiberNetwork<M> {
    /// Whether endpoint `id` has been made runnable since it last
    /// suspended (or has yet to start), clearing the mark. A `true`
    /// obliges the caller — whoever resumes the endpoints' fibers — to
    /// resume that endpoint's fiber: the wake-up is consumed.
    #[inline]
    #[must_use]
    pub fn take_runnable(&self, id: PartitionId) -> bool {
        self.host.with(|core| core.take_runnable(id))
    }
}

impl<M: Classify, H: Host<M>> Network<M, H> {
    /// Creates a network with the given configuration.
    #[must_use]
    pub fn new(config: NetConfig) -> Self {
        Network::new_reusing(config, None)
    }

    /// [`Network::new`], recycling the allocations of a previously
    /// [`reclaim`](Network::reclaim)ed network (of either host). The arena
    /// is an allocation cache only: the new network starts from a fully
    /// cleared state and behaves byte-identically to a fresh one.
    #[must_use]
    pub fn new_reusing(config: NetConfig, arena: Option<NetArena<M>>) -> Self {
        Network {
            host: H::new(Core::new(config, arena.unwrap_or_default())),
            msg: PhantomData,
        }
    }

    /// Takes the network apart and recycles its allocations into a
    /// [`NetArena`] for the next [`Network::new_reusing`]. Returns `None`
    /// when other clones of the network (or live endpoints) still exist —
    /// reclamation requires sole ownership, so it is safe to call
    /// opportunistically after every run.
    #[must_use]
    pub fn reclaim(self) -> Option<NetArena<M>> {
        self.host.into_core().map(Core::into_arena)
    }

    /// Registers a new endpoint (one partition / participating thread).
    ///
    /// The endpoint is counted as *running* from this moment, so register it
    /// before handing it to its thread — otherwise virtual time may advance
    /// past events the thread would have handled.
    pub fn endpoint(&self, name: impl Into<Name>) -> Endpoint<M, H> {
        let name = name.into();
        Endpoint {
            id: self.host.with(|core| core.register(name)),
            net: self.clone(),
        }
    }

    /// Current virtual time. The clock only moves while every live
    /// endpoint is blocked, so a running caller always sees the exact
    /// current instant.
    #[must_use]
    pub fn now(&self) -> VirtualInstant {
        self.host.with(|core| core.now())
    }

    /// Snapshot of the message counters.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.host.with(|core| core.stats().clone())
    }

    /// Snapshot of the scheduler's park/wake hand-off counters (see
    /// [`SchedStats`]).
    #[must_use]
    pub fn sched_stats(&self) -> SchedStats {
        self.host.with(|core| core.sched_stats())
    }

    /// Takes the fiber stack parked in endpoint `id`'s slot, if one was
    /// left there by [`Network::park_stack`] — in this network or, through
    /// a [`NetArena`], in an earlier one.
    #[must_use]
    pub fn take_stack(&self, id: PartitionId) -> Option<Stack> {
        self.host.with(|core| core.take_stack(id))
    }

    /// Parks a fiber stack in endpoint `id`'s slot once its fiber has
    /// finished, so that [`Network::reclaim`] carries it to the next
    /// network with the slot. (An unknown `id` just drops the stack.)
    pub fn park_stack(&self, id: PartitionId, stack: Stack) {
        self.host.with(|core| core.park_stack(id, stack));
    }

    /// Takes turns at endpoint `id`'s blocking operation until one is
    /// ready. This is the one place an endpoint gives up the CPU — how is
    /// the host's business.
    ///
    /// Always inlined, like the blocking operations that call it and the
    /// fiber host's `turn`: a fiber resumes in the middle of this loop with
    /// the CPU's return predictor holding its host's call chain, so each
    /// frame between the suspend and the caller that uses the value costs
    /// a mispredicted return on every hand-off (a tenth of a bare run's
    /// wall clock when the chain was four frames deep; a plain `#[inline]`
    /// does not persuade the compiler).
    #[inline(always)]
    fn block_on<T>(
        &self,
        id: PartitionId,
        mut turn: impl FnMut(&mut Core<M>) -> Turn<T>,
    ) -> Result<T, SimError> {
        loop {
            if let Some(done) = self.host.turn(id, &mut turn) {
                return done;
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
        self.host.with(|core| core.schedule_wake(id, at, epoch));
    }
}

/// One participant's connection to the [`Network`] — the paper's partition.
///
/// Sending is `&self`; receiving is `&mut self` (an endpoint has a single
/// consumer: its owning thread). Dropping the endpoint retires it.
pub struct Endpoint<M, H: Host<M> = Threads<M>> {
    net: Network<M, H>,
    id: PartitionId,
}

impl<M, H: Host<M>> fmt::Debug for Endpoint<M, H> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

impl<M: Classify, H: Host<M>> Endpoint<M, H> {
    /// This endpoint's partition id.
    #[must_use]
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// The network this endpoint belongs to.
    #[must_use]
    pub fn network(&self) -> &Network<M, H> {
        &self.net
    }

    /// Current (virtual) time.
    #[must_use]
    pub fn now(&self) -> VirtualInstant {
        self.net.now()
    }

    /// Sends `msg` to `dst` asynchronously (fire and forget, like the
    /// paper's "asynchronous remote procedure calls (without out
    /// parameters)"), and says what the network did with it: its class,
    /// when it was sent and is due, its slot in the link's sequence, and
    /// whether fault injection lost or corrupted it.
    pub fn send(&self, dst: PartitionId, msg: M) -> Sent {
        self.net.host.with(|core| core.send(self.id, dst, msg))
    }

    /// Receives the next message, blocking until one is deliverable.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the whole simulation can no longer make
    /// progress.
    #[inline(always)]
    pub fn recv(&mut self) -> Result<Received<M>, SimError> {
        let id = self.id;
        self.net
            .block_on(id, |core| core.recv_turn(id, None))
            .map(|received| received.expect("a receive with no deadline ends with a message"))
    }

    /// Receives the next message if one is already deliverable.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the simulation already deadlocked.
    pub fn try_recv(&mut self) -> Result<Option<Received<M>>, SimError> {
        self.net.host.with(|core| core.try_recv(self.id))
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
    #[inline(always)]
    pub fn recv_deadline(
        &mut self,
        deadline: VirtualInstant,
    ) -> Result<Option<Received<M>>, SimError> {
        let id = self.id;
        self.net
            .block_on(id, |core| core.recv_turn(id, Some(deadline)))
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
    #[inline(always)]
    pub fn park_wait_until(
        &mut self,
        deadline: Option<VirtualInstant>,
    ) -> Result<Parked<M>, SimError> {
        let id = self.id;
        self.net.block_on(id, |core| core.park_turn(id, deadline))
    }

    /// Opens a new parked wait: discards any doorbell left over from an
    /// earlier wait and returns the wait's fresh epoch. Publish the epoch
    /// to whichever scheduler will compute this wait's wake-ups (e.g. an
    /// object's waiter queue); [`Network::schedule_wake`] calls carrying
    /// an older epoch are ignored from this point on, so a scheduler that
    /// raced against the end of the previous wait cannot ring a stale
    /// bell into this one.
    pub fn begin_wait(&self) -> u64 {
        self.net.host.with(|core| core.begin_wait(self.id))
    }

    /// Sleeps for `dur` — models local computation taking virtual time.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if the simulation deadlocked while sleeping.
    #[inline(always)]
    pub fn sleep(&self, dur: VirtualDuration) -> Result<(), SimError> {
        if dur.is_zero() {
            return Ok(());
        }
        let id = self.id;
        let deadline = self.net.now().saturating_add(dur);
        self.net.block_on(id, |core| core.sleep_turn(id, deadline))
    }

    /// Retires the endpoint: the scheduler stops waiting for this
    /// participant and undelivered messages to it are discarded.
    pub fn retire(self) {
        drop(self);
    }
}

impl<M, H: Host<M>> Drop for Endpoint<M, H> {
    fn drop(&mut self) {
        self.net.host.with(|core| core.retire(self.id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caa_core::time::secs;
    use caa_fiber::Fiber;
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
            let net: Network<Msg> = Network::new_reusing(
                NetConfig {
                    mode: ClockMode::Virtual,
                    latency: LatencyModel::UniformUpTo(secs(1.0)),
                    seed: 7,
                    ack_timeout: None,
                    faults: FaultPlan::new(),
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
        // through the thread host's single lock: whatever order they win it
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
    fn sends_to_retired_and_unregistered_endpoints_are_counted_and_reported() {
        let net: Network<Msg> = Network::new(NetConfig {
            latency: LatencyModel::Fixed(secs(0.5)),
            ..NetConfig::default()
        });
        let a = net.endpoint("a");
        let b = net.endpoint("b");
        let b_id = b.id();
        b.retire();
        let nobody = PartitionId::new(9);
        let sent = [
            a.send(b_id, Msg(1)),
            a.send(b_id, Msg(2)),
            a.send(nobody, Msg(3)),
        ];
        a.retire();

        assert_eq!(net.stats().sent("Msg"), 3, "accepted, so counted");
        let at = VirtualInstant::EPOCH;
        let record = |deliver_at, seq| Sent {
            class: "Msg",
            at,
            deliver_at,
            seq,
            lost: false,
            corrupted: false,
        };
        assert_eq!(
            sent,
            [
                // A retired destination still books its link: sequence
                // numbers and the FIFO clamp advance as if it listened.
                record(at + secs(0.5), 0),
                record(at + secs(0.5) + VirtualDuration::from_nanos(1), 1),
                // No link row to book on: sequence pinned to 0, no delay.
                record(at, 0),
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

    // ------------------------------------------------------------------
    // The two hosts
    // ------------------------------------------------------------------

    #[test]
    fn thread_hosted_endpoints_are_send_and_fiber_hosted_ones_are_not() {
        fn assert_send<T: Send>() {}
        // What `perf/src/surface.rs` relies on when it moves endpoints
        // into scoped threads.
        assert_send::<Endpoint<Msg>>();
        assert_send::<Network<Msg>>();
        assert_send::<NetArena<Msg>>();

        // `T: !Send`, statically: with both impls applicable (`T: Send`)
        // the call below would be ambiguous and fail to compile.
        trait AmbiguousIfSend<A> {
            fn check() {}
        }
        impl<T: ?Sized> AmbiguousIfSend<()> for T {}
        impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}
        <FiberEndpoint<Msg> as AmbiguousIfSend<_>>::check();
        <FiberNetwork<Msg> as AmbiguousIfSend<_>>::check();
    }

    /// What one participant of the script below observed, line by line.
    type Log = Vec<String>;
    type Role<H> = fn(Endpoint<Msg, H>, [PartitionId; 3]) -> Log;

    fn at(instant: VirtualInstant) -> u64 {
        instant.as_nanos()
    }

    fn seen(log: &mut Log, what: &str, got: &Received<Msg>) {
        log.push(format!(
            "{what}: {:?} from {} sent {} delivered {}",
            got.msg,
            got.src.index(),
            at(got.sent_at),
            at(got.delivered_at)
        ));
    }

    fn script_config() -> NetConfig {
        let [a, b] = [0, 1].map(PartitionId::new);
        NetConfig {
            latency: LatencyModel::UniformUpTo(secs(0.4)),
            seed: 11,
            faults: FaultPlan::new()
                .lose(crate::FaultSpec::link(a, b).skip(1).count(1))
                .corrupt(crate::FaultSpec::link(b, a).count(1)),
            ..NetConfig::default()
        }
    }

    /// Sends (one of them lost), a corrupted reply, a `recv_deadline` that
    /// expires, a parked wait that a stale doorbell must not end and a
    /// current one does, then a wait for nothing.
    fn alice<H: Host<Msg>>(mut ep: Endpoint<Msg, H>, [_, b, c]: [PartitionId; 3]) -> Log {
        let mut log = Log::new();
        let stale = ep.begin_wait();
        let current = ep.begin_wait();
        assert_eq!((stale, current), (1, 2), "carol rings by these numbers");
        for payload in 1..=3 {
            ep.send(b, Msg(payload)); // the second is lost
        }
        ep.send(c, Msg(4));
        ep.send(c, Msg(5)); // still in flight when carol retires
        seen(&mut log, "reply", &ep.recv().unwrap());
        let deadline = ep.now() + secs(0.01);
        let nothing = ep.recv_deadline(deadline).unwrap();
        log.push(format!("deadline: {nothing:?} at {}", at(ep.now())));
        let parked = ep.park_wait().unwrap();
        log.push(format!("parked: {parked:?} at {}", at(ep.now())));
        log.push(format!("end: {:?}", ep.recv().unwrap_err()));
        log
    }

    fn bob<H: Host<Msg>>(mut ep: Endpoint<Msg, H>, [a, _, _]: [PartitionId; 3]) -> Log {
        let mut log = Log::new();
        for _ in 0..2 {
            seen(&mut log, "got", &ep.recv().unwrap());
        }
        ep.send(a, Msg(10)); // corrupted
        ep.sleep(secs(0.25)).unwrap();
        log.push(format!("slept until {}", at(ep.now())));
        log.push(format!("try: {:?}", ep.try_recv().unwrap().is_some()));
        log.push(format!("end: {:?}", ep.recv().unwrap_err()));
        log
    }

    fn carol<H: Host<Msg>>(mut ep: Endpoint<Msg, H>, [a, _, _]: [PartitionId; 3]) -> Log {
        let mut log = Log::new();
        seen(&mut log, "got", &ep.recv().unwrap());
        let net = ep.network();
        net.schedule_wake(a, VirtualInstant::EPOCH + secs(1.0), 1); // stale
        net.schedule_wake(a, VirtualInstant::EPOCH + secs(2.0), 2);
        ep.retire(); // with Msg(5) on its way here
        log
    }

    fn roles<H: Host<Msg>>() -> [Role<H>; 3] {
        [alice::<H>, bob::<H>, carol::<H>]
    }

    /// Everything the script's outcome consists of: each participant's
    /// log, the message counters and the final instant.
    fn outcome<H: Host<Msg>>(logs: Vec<Log>, net: &Network<Msg, H>) -> String {
        let logs: Vec<String> = logs.iter().map(|log| log.join("\n")).collect();
        let (stats, end) = (net.stats(), at(net.now()));
        format!("{}\n{stats:?}\nended at {end}", logs.join("\n--\n"))
    }

    fn script_on_threads() -> String {
        let net: Network<Msg> = Network::new(script_config());
        let endpoints = ["alice", "bob", "carol"].map(|name| net.endpoint(name));
        let ids = [0, 1, 2].map(|i| endpoints[i].id());
        let handles: Vec<_> = endpoints
            .into_iter()
            .zip(roles())
            .map(|(ep, role)| thread::spawn(move || role(ep, ids)))
            .collect();
        let logs = handles.into_iter().map(|h| h.join().unwrap()).collect();
        outcome(logs, &net)
    }

    /// Runs `bodies` as fibers the way `caa-runtime`'s host does: passes in
    /// registration order, resuming whoever the network marked runnable.
    fn run_fibers(net: &FiberNetwork<Msg>, bodies: Vec<(PartitionId, Fiber<Log>)>) -> Vec<Log> {
        let mut hosted: Vec<_> = bodies
            .into_iter()
            .map(|(id, fiber)| (id, fiber, None))
            .collect();
        while hosted.iter().any(|(_, _, log)| log.is_none()) {
            let mut resumed = false;
            for (id, fiber, log) in &mut hosted {
                if log.is_none() && net.take_runnable(*id) {
                    resumed = true;
                    *log = fiber.resume().map(|body| body.expect("no panic"));
                }
            }
            assert!(resumed, "blocked fibers and none runnable");
        }
        hosted.into_iter().filter_map(|(_, _, log)| log).collect()
    }

    fn script_on_fibers() -> String {
        let net: FiberNetwork<Msg> = Network::new(script_config());
        let endpoints = ["alice", "bob", "carol"].map(|name| net.endpoint(name));
        let ids = [0, 1, 2].map(|i| endpoints[i].id());
        let bodies = endpoints
            .into_iter()
            .zip(roles())
            .map(|(ep, role)| {
                let stack = Stack::new(256 * 1024);
                (ep.id(), Fiber::new(stack, move || role(ep, ids)))
            })
            .collect();
        let logs = run_fibers(&net, bodies);
        outcome(logs, &net)
    }

    #[test]
    fn both_hosts_observe_the_same() {
        let on_threads = script_on_threads();
        assert_eq!(on_threads, script_on_fibers());
        // The script did what it set out to.
        for line in [
            "reply: None from 1",             // the corrupted reply
            "deadline: None at",              // recv_deadline expired
            "parked: Doorbell at 2000000000", // not the stale bell at 1 s
            "got: Some(Msg(3)) from 0",       // Msg(2) was lost
            "try: false",
            r#"blocked: [("alice", "recv"), ("bob", "recv")]"#,
        ] {
            assert!(on_threads.contains(line), "{line:?} not in\n{on_threads}");
        }
        assert_eq!(
            on_threads.matches("end: Deadlock").count(),
            2,
            "{on_threads}"
        );
    }
}
