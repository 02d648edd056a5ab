//! The simulator itself: one plain, single-owner value.
//!
//! Everything a network knows — the clock, every endpoint's blocked state,
//! wake-up point and `Mailbox` (delivery heap plus the dense per-source
//! link row of FIFO clamps and sequence numbers), the fault budgets, the
//! counters, the deadlock verdict — is a field of one [`Core`], and
//! everything it does is a `&mut self` method of it: a send, a non-blocking
//! receive, a doorbell, a retirement, the advance arbiter, and one *turn*
//! of each blocking operation, which answers either "ready, with this
//! value" or "park" ([`Turn`]). Nothing here locks, waits, suspends or
//! notifies, and nothing knows what drives the endpoints: how callers get
//! their exclusive access and what a parked endpoint does until it is
//! marked runnable again is the business of a [`Host`](crate::host::Host).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use caa_core::ids::PartitionId;
use caa_core::name::Name;
use caa_core::time::{VirtualDuration, VirtualInstant};
use caa_fiber::Stack;

use crate::fault::FaultPlan;
use crate::latency::{effective_latency, LatencyModel};
use crate::net::{DeadlockInfo, NetConfig, Parked, Received, SimError};
use crate::stats::{Classify, NetStats};

/// What one turn of a blocking operation answers: `Some` when the
/// operation is over (with its value, or the deadlock that ended it),
/// `None` when the endpoint has to park — it is then marked blocked, its
/// wake-up point is published, the park is counted, and the caller takes
/// another turn once a wake site has marked it runnable.
pub type Turn<T> = Option<Result<T, SimError>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Recv,
    Sleep,
    /// [`Core::park_turn`]: blocked until a message is deliverable or the
    /// endpoint's doorbell rings (see [`Core::schedule_wake`]).
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
    name: Name,
    alive: bool,
    running: bool,
    blocked_on: BlockKind,
    wake_at: Option<VirtualInstant>,
    /// A wake site has given the endpoint the CPU back since it last
    /// parked — or it has not started yet. Wake-ups are *targeted*: a
    /// delivery marks only the receiver, a time advance only the endpoints
    /// whose wake-up point was reached, a doorbell only its owner — never
    /// the whole herd. Read and cleared by the host
    /// ([`Core::take_runnable`]).
    runnable: bool,
    /// The stack of the fiber hosting this endpoint, parked here between
    /// runs so it is recycled with the slot ([`NetArena`]).
    stack: Option<Stack>,
    /// Pending explicit wake-up, if any ([`Core::schedule_wake`]): consumed
    /// by [`Core::park_turn`] when virtual time reaches it.
    doorbell: Option<VirtualInstant>,
    /// Monotonic counter identifying the endpoint's *current* parked wait
    /// ([`Core::begin_wait`]). [`Core::schedule_wake`] carries the epoch
    /// its computation was based on and is ignored when it does not match
    /// — a scheduler that raced against the end of an earlier wait (e.g.
    /// an object releaser whose winner was cancelled and has since started
    /// waiting elsewhere) cannot plant a stale doorbell into the new wait.
    wait_epoch: u64,
    /// The endpoint's receive side: delivery heap and per-source link row.
    mailbox: Mailbox<M>,
}

impl<M> ActorSlot<M> {
    /// A slot for a newly registered endpoint, built over the allocations
    /// of a `recycled` one where there is one: its parked fiber stack and
    /// (cleared) mailbox capacity.
    fn fresh(name: Name, recycled: Option<ActorSlot<M>>) -> ActorSlot<M> {
        let (stack, mailbox) = match recycled {
            Some(old) => (old.stack, old.mailbox),
            None => Default::default(),
        };
        ActorSlot {
            name,
            alive: true,
            running: true,
            blocked_on: BlockKind::Recv,
            wake_at: None,
            runnable: true,
            stack,
            doorbell: None,
            wait_epoch: 0,
            mailbox,
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

/// The earlier of two optional instants (`None` = never).
fn earlier(a: Option<VirtualInstant>, b: Option<VirtualInstant>) -> Option<VirtualInstant> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Scheduler self-metrics: hand-offs of the CPU between endpoints. One
/// `park` is one blocked endpoint giving up the CPU — a fiber suspend
/// under `caa-runtime`'s `System::run`, a condvar wait (a futex sleep on
/// Linux) for an endpoint driven by an OS thread; one `wake` is one wake
/// site making one endpoint runnable again (each endpoint counted
/// separately in the broadcast on deadlock).
///
/// These say what the *simulator* did, not what the protocol did, so
/// report them apart from the protocol's metrics. Under `System::run`
/// they are nonetheless a pure function of the seed: participants run to
/// their next block one at a time, in registration order, each resumed
/// when the host's pass reaches it with its runnable mark set, so the
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

/// Recycled allocations of a finished network: its actor slots, with any
/// fiber stacks parked in them and their mailboxes' heap and link-row
/// capacity. Obtained from [`Network::reclaim`](crate::Network::reclaim),
/// consumed by [`Network::new_reusing`](crate::Network::new_reusing), of
/// either host. Purely an allocation cache — a network built from an arena
/// is observably identical to a fresh one.
pub struct NetArena<M> {
    slots: Vec<ActorSlot<M>>,
    /// An empty vector with room for as many slots again: the next
    /// network registers its endpoints into it as it takes them out of
    /// `slots`, and the two trade places when that network is reclaimed.
    registered: Vec<ActorSlot<M>>,
}

impl<M> NetArena<M> {
    /// An empty arena (equivalent to passing `None` to
    /// [`Network::new_reusing`](crate::Network::new_reusing)).
    #[must_use]
    pub fn new() -> NetArena<M> {
        NetArena {
            slots: Vec::new(),
            registered: Vec::new(),
        }
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

/// What [`Core::send`] decided about one message — what a tap is told once
/// the core has been released.
#[derive(Debug)]
pub struct Sent {
    /// The message's class label.
    pub class: &'static str,
    /// Virtual send time.
    pub at: VirtualInstant,
    /// Scheduled delivery (equals `at` for a lost message).
    pub deliver_at: VirtualInstant,
    /// The message's slot in its link's sequence.
    pub seq: u64,
    /// Fault injection lost it.
    pub lost: bool,
    /// Fault injection corrupted it (never set on a lost message).
    pub corrupted: bool,
}

/// Everything the simulator knows (see the module docs).
pub struct Core<M> {
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
    /// Recycled actor slots handed out by [`Core::register`] before any
    /// fresh allocation (see [`NetArena`]).
    spare_slots: Vec<ActorSlot<M>>,
    latency: LatencyModel,
    seed: u64,
    ack_timeout: Option<VirtualDuration>,
}

impl<M> fmt::Debug for Core<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Core")
            .field("now", &self.now)
            .field("endpoints", &self.actors.len())
            .finish()
    }
}

impl<M> Core<M> {
    /// A network at the epoch with no endpoints, over `arena`'s
    /// allocations. `config.tap` is not the core's business: taps are
    /// called by the host's shell once the core has been released.
    pub fn new(config: NetConfig, arena: NetArena<M>) -> Core<M> {
        Core {
            now: VirtualInstant::EPOCH,
            actors: arena.registered,
            faults: config.faults,
            stats: NetStats::default(),
            handoffs: SchedStats::default(),
            deadlocked: None,
            spare_slots: arena.slots,
            latency: config.latency,
            seed: config.seed,
            ack_timeout: config.ack_timeout,
        }
    }

    /// Takes the finished network apart into its recyclable allocations.
    pub fn into_arena(self) -> NetArena<M> {
        let (mut slots, mut registered) = (self.actors, self.spare_slots);
        slots.append(&mut registered);
        for slot in &mut slots {
            slot.mailbox.recycle();
        }
        NetArena { slots, registered }
    }

    /// Registers a new endpoint, counted as running from this moment.
    pub fn register(&mut self, name: Name) -> PartitionId {
        let id =
            PartitionId::new(u32::try_from(self.actors.len()).expect("fewer than 2^32 endpoints"));
        let recycled = self.spare_slots.pop();
        self.actors.push(ActorSlot::fresh(name, recycled));
        id
    }

    pub fn now(&self) -> VirtualInstant {
        self.now
    }

    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    pub fn sched_stats(&self) -> SchedStats {
        self.handoffs
    }

    pub fn take_stack(&mut self, id: PartitionId) -> Option<Stack> {
        self.actors.get_mut(id.index())?.stack.take()
    }

    pub fn park_stack(&mut self, id: PartitionId, stack: Stack) {
        if let Some(slot) = self.actors.get_mut(id.index()) {
            slot.stack = Some(stack);
        }
    }

    /// Whether endpoint `id` has been made runnable since it last parked
    /// (or has yet to start), clearing the mark: the wake-up is consumed,
    /// and the host owes the endpoint the CPU.
    pub fn take_runnable(&mut self, id: PartitionId) -> bool {
        self.actors
            .get_mut(id.index())
            .is_some_and(|slot| std::mem::take(&mut slot.runnable))
    }

    /// Books, times and enqueues one message.
    pub fn send(&mut self, src: PartitionId, dst: PartitionId, msg: M) -> Sent
    where
        M: Classify,
    {
        let class = msg.class();
        // Stable while the sender runs: its own endpoint is running, so
        // the advance arbiter cannot move the clock under it.
        let now = self.now;
        // Fault decisions are pure functions of per-link budgets.
        let lost = self.faults.should_lose(src, dst, class);
        let corrupted = !lost && self.faults.should_corrupt(src, dst, class);
        if lost {
            self.stats.record_dropped(class);
        } else {
            self.stats.record_sent(class);
            if corrupted {
                self.stats.record_corrupted(class);
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
        let (mut seq, mut deliver_at) = (0, now);
        if let Some(slot) = self.actors.get_mut(dst.index()) {
            let link = slot.mailbox.link(src);
            seq = link.seq;
            link.seq += 1;
            if !lost {
                let raw = self.latency.sample(self.seed, src, dst, seq);
                let eff = effective_latency(raw, self.ack_timeout);
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
                    self.stats.record_retransmissions(
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
                        slot.wake_at = earlier(slot.wake_at, Some(deliver_at));
                        if deliver_at <= now {
                            slot.runnable = true;
                            self.handoffs.wakes += 1;
                        }
                    }
                }
            }
        }
        Sent {
            class,
            at: now,
            deliver_at,
            seq,
            lost,
            corrupted,
        }
    }

    /// Rings endpoint `id`'s doorbell at `at` if `epoch` is still its
    /// current wait (see [`Network::schedule_wake`](crate::Network::schedule_wake)).
    pub fn schedule_wake(&mut self, id: PartitionId, at: VirtualInstant, epoch: u64) {
        let Some(slot) = self.actors.get_mut(id.index()).filter(|slot| slot.alive) else {
            return;
        };
        if slot.wait_epoch != epoch {
            return; // stale: computed against an earlier, finished wait
        }
        slot.doorbell = Some(at);
        if !slot.running && slot.blocked_on == BlockKind::Park {
            // Re-derive the park's wake hint (min of next delivery and the
            // new doorbell).
            slot.wake_at = earlier(slot.mailbox.head_deliver_at(), Some(at));
            // Wake the owner only if the bell is already due — the
            // advance arbiter will deliver future bells at `at`.
            if at <= self.now {
                slot.runnable = true;
                self.handoffs.wakes += 1;
            }
        }
    }

    /// Opens a new parked wait for `id`: discards any doorbell left over
    /// from an earlier wait and returns the wait's fresh epoch.
    pub fn begin_wait(&mut self, id: PartitionId) -> u64 {
        let slot = &mut self.actors[id.index()];
        slot.doorbell = None;
        slot.wait_epoch += 1;
        slot.wait_epoch
    }

    /// The next message for `id` if one is already deliverable.
    pub fn try_recv(&mut self, id: PartitionId) -> Result<Option<Received<M>>, SimError> {
        if let Some(info) = &self.deadlocked {
            return Err(SimError::Deadlock(info.clone()));
        }
        Ok(self.actors[id.index()].mailbox.pop_ready(self.now))
    }

    /// One turn of a receive: the next deliverable message, or `None` once
    /// virtual time has reached `deadline` (when there is one).
    pub fn recv_turn(
        &mut self,
        id: PartitionId,
        deadline: Option<VirtualInstant>,
    ) -> Turn<Option<Received<M>>> {
        self.turn(
            id,
            BlockKind::Recv,
            |slot, now| match slot.mailbox.pop_ready(now) {
                Some(received) => Some(Some(received)),
                None if deadline.is_some_and(|at| at <= now) => Some(None),
                None => None,
            },
            |slot| earlier(slot.mailbox.head_deliver_at(), deadline),
        )
    }

    /// One turn of a parked wait: a deliverable message first, then a due
    /// doorbell (consumed), then the caller's `deadline`.
    pub fn park_turn(
        &mut self,
        id: PartitionId,
        deadline: Option<VirtualInstant>,
    ) -> Turn<Parked<M>> {
        self.turn(
            id,
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
                earlier(
                    earlier(slot.mailbox.head_deliver_at(), slot.doorbell),
                    deadline,
                )
            },
        )
    }

    /// One turn of a sleep until `deadline`.
    pub fn sleep_turn(&mut self, id: PartitionId, deadline: VirtualInstant) -> Turn<()> {
        self.turn(
            id,
            BlockKind::Sleep,
            |_, now| (now >= deadline).then_some(()),
            |_| Some(deadline),
        )
    }

    /// The blocking funnel, one turn of it.
    ///
    /// Evaluates `pred` over the caller's own slot (mailbox included);
    /// when it does not hold, the endpoint is marked blocked with
    /// `wake_hint` as the earliest instant at which `pred` could become
    /// true (None = only a message or retirement can help), and the
    /// advance arbiter gets to run — this may be the block that lets time
    /// move.
    fn turn<T>(
        &mut self,
        id: PartitionId,
        kind: BlockKind,
        mut pred: impl FnMut(&mut ActorSlot<M>, VirtualInstant) -> Option<T>,
        wake_hint: impl Fn(&ActorSlot<M>) -> Option<VirtualInstant>,
    ) -> Turn<T> {
        let i = id.index();
        loop {
            if let Some(info) = &self.deadlocked {
                return Some(Err(SimError::Deadlock(info.clone())));
            }
            let slot = &mut self.actors[i];
            if let Some(v) = pred(slot, self.now) {
                slot.running = true;
                return Some(Ok(v));
            }
            slot.running = false;
            slot.blocked_on = kind;
            slot.wake_at = wake_hint(slot);
            // If our own blocking triggered an advance that reached our
            // wake-up point (or deadlock detection), the wake-up fired
            // before we could park — re-evaluate instead of waiting for it.
            // An advance that stopped short of it woke somebody else:
            // nothing changed for this endpoint (nobody else ran, its hint
            // still lies ahead, and a second scan would only find the
            // endpoint just woken), so it parks now.
            let advanced = self.advance_if_blocked();
            let reached = self.actors[i].wake_at.is_some_and(|w| w <= self.now);
            if advanced && reached || self.deadlocked.is_some() {
                continue;
            }
            self.handoffs.parks += 1;
            // Nothing ran between the predicate and here, so a mark still
            // set is a leftover of a wake-up already acted on (our own
            // advance above, on an earlier turn of the loop).
            self.actors[i].runnable = false;
            return None;
        }
    }

    /// Retires endpoint `id`: the scheduler stops waiting for it.
    pub fn retire(&mut self, id: PartitionId) {
        let slot = &mut self.actors[id.index()];
        slot.alive = false;
        slot.running = false;
        self.advance_if_blocked();
    }

    /// The virtual-time advance arbiter: if every live endpoint is
    /// blocked, advances time to the earliest wake-up point and wakes
    /// **only** the endpoints whose wake-up point was reached — the unique
    /// next runner(s), not the herd — or, with no wake-up point anywhere,
    /// declares deadlock and wakes everyone to report it. Returns whether
    /// it changed the world, so the calling blocker re-evaluates instead
    /// of missing its own wake-up.
    fn advance_if_blocked(&mut self) -> bool {
        if self.deadlocked.is_some() {
            return false;
        }
        let mut min_wake: Option<VirtualInstant> = None;
        for actor in self.actors.iter().filter(|a| a.alive) {
            if actor.running {
                return false; // someone can still make progress right now
            }
            if let Some(w) = actor.wake_at {
                if w <= self.now {
                    return false; // already wakeable; it was marked
                }
                min_wake = earlier(min_wake, Some(w));
            }
        }
        match min_wake {
            Some(t) => {
                self.now = t;
                for actor in &mut self.actors {
                    if actor.alive && !actor.running && actor.wake_at.is_some_and(|w| w <= t) {
                        self.handoffs.wakes += 1;
                        actor.runnable = true;
                    }
                }
                true
            }
            None => {
                if !self.actors.iter().any(|a| a.alive) {
                    return false; // everyone retired: nothing to schedule
                }
                self.deadlocked = Some(DeadlockInfo {
                    at: self.now,
                    blocked: self
                        .actors
                        .iter()
                        .filter(|a| a.alive)
                        .map(|a| (a.name.to_string(), a.blocked_on.label()))
                        .collect(),
                });
                // Everyone must observe the deadlock: this is the one
                // remaining broadcast wake-up, and the simulation is over.
                for actor in &mut self.actors {
                    if actor.alive && !actor.running {
                        self.handoffs.wakes += 1;
                        actor.runnable = true;
                    }
                }
                true
            }
        }
    }
}
