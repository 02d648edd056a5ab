//! The simulator itself: one plain, single-owner value.
//!
//! Everything a network knows — the clock, every endpoint's state (running,
//! waiting on a [`Wait`], or retired) and `Mailbox` (delivery queue plus the
//! dense per-source link row of FIFO clamps and sequence numbers), the fault
//! budgets, the counters, the run order's pass, the deadlock verdict — is a
//! field of one [`Core`], and everything it does is a `&mut self` method of
//! it: a send, a non-blocking receive, a doorbell, a retirement, the advance
//! arbiter, the choice of who runs next, and one *turn* of a wait, which
//! answers either "ready, with this value" or "park" ([`Turn`]).
//!
//! What happens next is decided from two things alone. A waiting
//! endpoint's wake-up point follows from what it waits for by one rule,
//! `ActorSlot::rearm` — the one function that sets it, called wherever
//! what it depends on changes (a state change, a send, a doorbell) — and
//! the advance arbiter and a turn read what it set. The order woken
//! endpoints resume in is [`Core::next_runnable`]'s.
//! Nothing here locks, waits, suspends or notifies, and nothing knows what
//! drives the endpoints: how callers get their exclusive access and what a
//! parked endpoint does until it is marked runnable again is the business
//! of a [`Host`](crate::host::Host).

use std::collections::VecDeque;
use std::fmt;

use caa_core::ids::PartitionId;
use caa_core::name::Name;
use caa_core::time::{VirtualDuration, VirtualInstant};

use crate::fault::FaultPlan;
use crate::latency::{effective_latency, LatencyModel};
use crate::net::{DeadlockInfo, NetConfig, Parked, Received, SimError};
use crate::stats::{Classify, NetStats};

/// What one turn of a wait answers: `Some` when the wait is over (with
/// what ended it, or the deadlock that did), `None` when the endpoint has
/// to park — it is then waiting, the park is counted, and the caller takes
/// another turn once a wake site has marked it runnable.
pub type Turn<T> = Option<Result<T, SimError>>;

/// What a blocked endpoint waits for: its deadline, if any, and whether a
/// deliverable message or a due doorbell ends the wait too. A receive
/// takes messages; a sleep takes neither and ends at its deadline alone,
/// so only receives are left in a deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wait {
    pub deadline: Option<VirtualInstant>,
    pub takes_messages: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Registered and not blocked (it may not have started yet): while any
    /// endpoint runs, virtual time stands still.
    Running,
    Waiting(Wait),
    /// Retired: the scheduler no longer waits for it, and messages to it
    /// are discarded.
    Retired,
}

struct ActorSlot<M> {
    name: Name,
    state: State,
    /// The earliest instant at which the endpoint's wait can end, if it is
    /// waiting: set by [`ActorSlot::rearm`] alone.
    wake_at: Option<VirtualInstant>,
    /// A wake site has given the endpoint the CPU back since it last
    /// parked — or it has not started yet. Wake-ups are *targeted*: a
    /// delivery marks only the receiver, a time advance only the endpoints
    /// whose wake-up point was reached, a doorbell only its owner — never
    /// the whole herd. Read and cleared by [`Core::next_runnable`].
    runnable: bool,
    /// Pending explicit wake-up, if any ([`Core::schedule_wake`]): consumed
    /// by [`Core::wait_turn`] when virtual time reaches it. Armed only
    /// while a doorbell wait is open ([`Core::new_epoch`] disarms it at
    /// either end), so a wait that is not one never wakes for it.
    doorbell: Option<VirtualInstant>,
    /// Monotonic counter identifying the endpoint's *current* doorbell
    /// wait ([`Core::new_epoch`]). [`Core::schedule_wake`] carries the
    /// epoch its computation was based on and is ignored when it does not
    /// match — a scheduler that raced against the end of an earlier wait
    /// (e.g. an object releaser whose winner was cancelled and has since
    /// started waiting elsewhere) cannot plant a stale doorbell into the
    /// new wait, nor into a receive after it.
    wait_epoch: u64,
    /// The endpoint's receive side: delivery queue and per-source link row.
    mailbox: Mailbox<M>,
}

impl<M> ActorSlot<M> {
    /// A slot for a newly registered endpoint, over the (cleared) mailbox
    /// capacity of a `recycled` one where there is one.
    fn fresh(name: Name, recycled: Option<ActorSlot<M>>) -> ActorSlot<M> {
        ActorSlot {
            name,
            state: State::Running,
            wake_at: None,
            runnable: true,
            doorbell: None,
            wait_epoch: 0,
            mailbox: recycled.map(|old| old.mailbox).unwrap_or_default(),
        }
    }

    /// The wait this endpoint is blocked in, if it is.
    fn wait(&self) -> Option<Wait> {
        match self.state {
            State::Waiting(wait) => Some(wait),
            State::Running | State::Retired => None,
        }
    }

    /// Whether a message or a doorbell can end the endpoint's current wait.
    fn takes_messages(&self) -> bool {
        self.wait().is_some_and(|wait| wait.takes_messages)
    }

    /// The one wake-up rule, and the one place `wake_at` is set: the
    /// earliest instant at which a waiting endpoint's wait can end — its
    /// next delivery and its doorbell, if the wait takes messages, and its
    /// deadline. `None` for an endpoint that is not waiting, or that only a
    /// message sent later can wake. Called after every change to what it
    /// reads while the endpoint may be waiting: its state, its mailbox's
    /// head, its doorbell.
    fn rearm(&mut self) {
        self.wake_at = match self.state {
            State::Waiting(wait) if wait.takes_messages => earlier(
                earlier(self.mailbox.head_deliver_at(), self.doorbell),
                wait.deadline,
            ),
            State::Waiting(wait) => wait.deadline,
            State::Running | State::Retired => None,
        };
    }

    /// What ends `wait` at `now`, consuming it: a deliverable message
    /// first, then a due doorbell, then the deadline.
    fn take_due(&mut self, wait: Wait, now: VirtualInstant) -> Option<Parked<M>> {
        if wait.takes_messages {
            if let Some(received) = self.mailbox.pop_ready(now) {
                return Some(Parked::Msg(received));
            }
            if self.doorbell.is_some_and(|at| at <= now) {
                self.doorbell = None;
                return Some(Parked::Doorbell);
            }
        }
        wait.deadline
            .is_some_and(|at| at <= now)
            .then_some(Parked::Deadline)
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
    /// The delivery order: unique per mailbox, since `(src, seq)` is.
    fn key(&self) -> (VirtualInstant, u32, u64) {
        (self.deliver_at, self.src.as_u32(), self.seq)
    }
}

#[derive(Default, Clone, Copy)]
struct LinkState {
    seq: u64,
    last_delivery: VirtualInstant,
}

/// One endpoint's receive side: the delivery queue plus the dense
/// per-source link row (`links_in[src]` is the `(src → this)` cell of the
/// network's link matrix). Part of the endpoint's [`ActorSlot`].
///
/// The queue is kept sorted by [`Envelope::key`], so the next delivery is
/// its front. A mailbox holds a few envelopes at a time, and per-link FIFO
/// makes each send's place the back or close to it: a send finds it
/// scanning from the back, and a receive pops the front.
struct Mailbox<M> {
    queue: VecDeque<Envelope<M>>,
    links_in: Vec<LinkState>,
}

impl<M> Default for Mailbox<M> {
    fn default() -> Mailbox<M> {
        Mailbox {
            queue: VecDeque::new(),
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

    /// Queues `env` in delivery order.
    fn push(&mut self, env: Envelope<M>) {
        let key = env.key();
        let at = self
            .queue
            .iter()
            .rposition(|queued| queued.key() < key)
            .map_or(0, |before| before + 1);
        self.queue.insert(at, env);
    }

    fn pop_ready(&mut self, now: VirtualInstant) -> Option<Received<M>> {
        let env = self.queue.pop_front_if(|env| env.deliver_at <= now)?;
        Some(Received {
            src: env.src,
            sent_at: env.sent_at,
            delivered_at: env.deliver_at,
            msg: env.msg,
        })
    }

    fn head_deliver_at(&self) -> Option<VirtualInstant> {
        self.queue.front().map(|env| env.deliver_at)
    }

    /// Clears the mailbox for arena reuse, keeping queue and row capacity.
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
/// their next block one at a time, in the order
/// [`Network::next_runnable`](crate::Network::next_runnable) picks, so the
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

/// Recycled allocations of a finished network: its actor slots, with their
/// mailboxes' queue and link-row capacity. Obtained from
/// [`Network::reclaim`](crate::Network::reclaim), consumed by
/// [`Network::new_reusing`](crate::Network::new_reusing), of either host. Purely an allocation cache — a network built from an arena
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

/// What the network did with one message: what the simulator decided
/// when it booked, timed and enqueued it, handed back to the sender by
/// [`Endpoint::send`](crate::Endpoint::send).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sent {
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
    /// Where [`Core::next_runnable`]'s current pass has got to, and whether
    /// it has found anybody yet.
    pass: (usize, bool),
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
    /// allocations.
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
            pass: (0, false),
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

    /// The endpoint to resume next, its mark cleared: the next marked one
    /// in passes over the endpoints in registration order. An endpoint
    /// woken by one resumed earlier in the same pass runs in that pass if
    /// it comes later, in the next pass otherwise. `None` when a whole pass
    /// found nobody (the next call starts a new one).
    pub fn next_runnable(&mut self) -> Option<PartitionId> {
        let (from, found) = self.pass;
        let wrap = if found { self.actors.len() } else { 0 };
        let next = (from..self.actors.len())
            .chain(0..wrap)
            .find(|&i| self.actors[i].runnable);
        self.pass = next.map_or((0, false), |i| (i + 1, true));
        let i = next?;
        self.actors[i].runnable = false;
        Some(PartitionId::new(u32::try_from(i).expect("registered")))
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
        // per-link sequence, so every message has a unique (src, dst, seq)
        // whether it was delivered or lost. A destination that never
        // registered has no link row to book a sequence on (ids normally
        // only come from registration, so this needs a hand-built
        // `PartitionId`): the message was still *accepted* — counted above
        // and reported to the sender like a datagram to a dead host, with
        // the link sequence pinned to 0.
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
                // the sender's record still see it.
                if slot.state != State::Retired {
                    slot.mailbox.push(Envelope {
                        deliver_at,
                        src,
                        seq,
                        sent_at: now,
                        msg: (!corrupted).then_some(msg),
                    });
                    slot.rearm();
                    // Wake a receiver (alone) the message is already
                    // deliverable to. One still in flight needs no wake-up:
                    // only a time advance can make it deliverable, and the
                    // advance arbiter reads the receiver's wake-up point.
                    if deliver_at <= now && slot.takes_messages() {
                        slot.runnable = true;
                        self.handoffs.wakes += 1;
                    }
                }
            }
        }
        Sent {
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
        let Some(slot) = self.actors.get_mut(id.index()) else {
            return;
        };
        if slot.state == State::Retired || slot.wait_epoch != epoch {
            return; // stale: computed against an earlier, finished wait
        }
        slot.doorbell = Some(at);
        slot.rearm();
        // Wake the owner only if the bell is already due — the advance
        // arbiter delivers a future bell at its wake-up point.
        if at <= self.now && slot.takes_messages() {
            slot.runnable = true;
            self.handoffs.wakes += 1;
        }
    }

    /// Starts a fresh wait epoch for `id` — what opens a doorbell wait and
    /// what ends one: disarms the doorbell and makes every wake computed
    /// against an earlier epoch stale. Returns the new epoch.
    pub fn new_epoch(&mut self, id: PartitionId) -> u64 {
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

    /// One turn of `wait`: what ends it now, if anything does (a
    /// deliverable message first, then a due doorbell, consumed, then the
    /// deadline); otherwise the endpoint waits, and the advance arbiter gets
    /// to run — this may be the block that lets time move.
    pub fn wait_turn(&mut self, id: PartitionId, wait: Wait) -> Turn<Parked<M>> {
        let i = id.index();
        loop {
            if let Some(info) = &self.deadlocked {
                return Some(Err(SimError::Deadlock(info.clone())));
            }
            let (now, slot) = (self.now, &mut self.actors[i]);
            if let Some(parked) = slot.take_due(wait, now) {
                slot.state = State::Running;
                slot.rearm();
                return Some(Ok(parked));
            }
            slot.state = State::Waiting(wait);
            slot.rearm();
            // If our own blocking triggered an advance that reached our
            // wake-up point (or deadlock detection), the wake-up fired
            // before we could park — re-evaluate instead of waiting for it.
            // An advance that stopped short of it woke somebody else:
            // nothing changed for this endpoint (nobody else ran, its
            // wake-up point still lies ahead, and a second scan would only
            // find the endpoint just woken), so it parks now.
            let advanced = self.advance_if_blocked();
            let reached = self.actors[i].wake_at.is_some_and(|w| w <= self.now);
            if advanced && reached || self.deadlocked.is_some() {
                continue;
            }
            self.handoffs.parks += 1;
            // Nothing ran between the check and here, so a mark still set
            // is a leftover of a wake-up already acted on (our own advance
            // above, on an earlier turn of the loop).
            self.actors[i].runnable = false;
            return None;
        }
    }

    /// Retires endpoint `id`: the scheduler stops waiting for it, and it
    /// is never resumed again — a mark left over from the wait it ended
    /// last is dropped.
    pub fn retire(&mut self, id: PartitionId) {
        let slot = &mut self.actors[id.index()];
        (slot.state, slot.runnable) = (State::Retired, false);
        slot.rearm();
        self.advance_if_blocked();
    }

    /// The virtual-time advance arbiter: if every live endpoint is
    /// waiting, advances time to the earliest wake-up point and wakes
    /// **only** the endpoints whose wake-up point was reached — the unique
    /// next runner(s), not the herd — or, with no wake-up point anywhere,
    /// declares deadlock and wakes everyone to report it. Returns whether
    /// it changed the world, so the calling blocker re-evaluates instead
    /// of missing its own wake-up.
    fn advance_if_blocked(&mut self) -> bool {
        if self.deadlocked.is_some() {
            return false;
        }
        let (mut min_wake, mut waiting) = (None, false);
        for actor in &self.actors {
            match actor.state {
                State::Running => return false, // it can still make progress
                State::Retired => {}
                State::Waiting(_) => {
                    waiting = true;
                    if let Some(w) = actor.wake_at {
                        if w <= self.now {
                            return false; // already wakeable; it was marked
                        }
                        min_wake = earlier(min_wake, Some(w));
                    }
                }
            }
        }
        if !waiting {
            return false; // everyone retired: nothing to schedule
        }
        let due = match min_wake {
            Some(t) => {
                self.now = t;
                Some(t)
            }
            None => {
                self.deadlocked = Some(self.deadlock_report());
                // Everyone must observe the deadlock: this is the one
                // remaining broadcast wake-up, and the simulation is over.
                None
            }
        };
        for actor in &mut self.actors {
            let woken = match due {
                Some(t) => actor.wake_at.is_some_and(|w| w <= t),
                None => actor.wait().is_some(),
            };
            if woken {
                self.handoffs.wakes += 1;
                actor.runnable = true;
            }
        }
        true
    }

    /// What a deadlock reports: when, and who was left waiting.
    fn deadlock_report(&self) -> DeadlockInfo {
        DeadlockInfo {
            at: self.now,
            blocked: self
                .actors
                .iter()
                .filter(|a| a.wait().is_some())
                .map(|a| a.name.to_string())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;
    use crate::fault::FaultSpec;
    use crate::net::ClockMode;

    /// A message whose class says what the fault plan does to it.
    #[derive(Debug)]
    struct Msg(&'static str);

    impl Classify for Msg {
        fn class(&self) -> &'static str {
            self.0
        }
    }

    /// What a delivery shows: when, from whom, and whether it was corrupted.
    type Delivery = (VirtualInstant, PartitionId, bool);

    /// The order the mailbox used to keep: a min-heap by key.
    type Reference = BinaryHeap<Reverse<(VirtualInstant, PartitionId, u64, bool)>>;

    #[test]
    fn a_doorbell_rung_after_a_wait_blocked_keeps_the_wait_bounded() {
        let mut core: Core<Msg> = Core::new(NetConfig::default(), NetArena::new());
        let (waiter, peer) = (core.register(Name::new("w")), core.register(Name::new("p")));
        let epoch = core.new_epoch(waiter);
        let ns = VirtualInstant::from_nanos;
        let wait = Wait {
            deadline: Some(ns(5)),
            takes_messages: true,
        };
        assert!(
            core.wait_turn(waiter, wait).is_none(),
            "the peer still runs"
        );
        core.schedule_wake(waiter, ns(10), epoch);
        core.retire(peer); // every live endpoint waits: time advances
        assert_eq!(core.next_runnable(), Some(waiter));
        let ended = core
            .wait_turn(waiter, wait)
            .expect("woken")
            .expect("no deadlock");
        assert!(matches!(ended, Parked::Deadline), "{ended:?}");
        assert_eq!(core.now(), ns(5));
    }

    #[test]
    fn the_run_order_is_passes_in_registration_order() {
        let mut core: Core<Msg> = Core::new(NetConfig::default(), NetArena::new());
        let ids: Vec<PartitionId> = (0..3).map(|_| core.register(Name::new("n"))).collect();
        // Every endpoint starts marked, and a pass takes each mark once.
        let first: Vec<_> = std::iter::from_fn(|| core.next_runnable()).collect();
        assert_eq!(first, ids);
        assert_eq!(core.next_runnable(), None, "a whole pass found nobody");
        // Woken behind the pass: the next one. Ahead of it: this one.
        core.actors[2].runnable = true;
        assert_eq!(core.next_runnable(), Some(ids[2]));
        core.actors[0].runnable = true;
        core.actors[1].runnable = true;
        assert_eq!(core.next_runnable(), Some(ids[0]));
        core.actors[2].runnable = true;
        assert_eq!(core.next_runnable(), Some(ids[1]));
        assert_eq!(core.next_runnable(), Some(ids[2]));
        assert_eq!(core.next_runnable(), None);
    }

    #[test]
    fn the_mailbox_delivers_in_the_order_of_the_heap_it_replaced() {
        // Latencies of 1–4 ns over five senders to one endpoint: same-instant
        // ties across links, FIFO clamps within one, and a lost message
        // still taking its slot in the link's sequence.
        let mut state = 0x6d61_696c_626f_7821_u64;
        let mut next = move |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % below
        };
        for seed in 0..200 {
            let faults = FaultPlan::new()
                .lose(FaultSpec::any().class("lost"))
                .corrupt(FaultSpec::any().class("corrupted"));
            let config = NetConfig {
                mode: ClockMode::Virtual,
                latency: LatencyModel::UniformUpTo(VirtualDuration::from_nanos(4)),
                seed,
                ack_timeout: None,
                faults,
            };
            let mut core: Core<Msg> = Core::new(config, NetArena::new());
            let ids: Vec<PartitionId> = (0..5).map(|_| core.register(Name::new("n"))).collect();
            let dst = ids[0];
            let mut heap = Reference::new();
            let mut sends = 0;
            let pop = |core: &mut Core<Msg>, heap: &mut Reference, now| {
                let got: Option<Delivery> = core.actors[dst.index()]
                    .mailbox
                    .pop_ready(now)
                    .map(|r| (r.delivered_at, r.src, r.msg.is_none()));
                let due = heap
                    .peek()
                    .is_some_and(|Reverse((at, ..))| *at <= now)
                    .then(|| heap.pop().expect("peeked").0);
                let want: Option<Delivery> =
                    due.map(|(at, src, _, corrupted)| (at, src, corrupted));
                assert_eq!(got, want, "seed {seed}, at {now:?}");
                got.is_some()
            };
            for _ in 0..300 {
                match next(8) {
                    0 => {
                        core.now = core
                            .now
                            .saturating_add(VirtualDuration::from_nanos(next(3)))
                    }
                    1 | 2 => {
                        let now = core.now;
                        pop(&mut core, &mut heap, now);
                    }
                    _ => {
                        let src = ids[next(ids.len() as u64) as usize];
                        let class = ["kept", "kept", "lost", "corrupted"][next(4) as usize];
                        let sent = core.send(src, dst, Msg(class));
                        assert_eq!(sent.lost, class == "lost");
                        if !sent.lost {
                            heap.push(Reverse((sent.deliver_at, src, sent.seq, sent.corrupted)));
                            sends += 1;
                        }
                    }
                }
            }
            while pop(&mut core, &mut heap, VirtualInstant::FAR_FUTURE) {}
            assert!(heap.is_empty() && sends > 0);
        }
    }
}
