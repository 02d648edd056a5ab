//! Sans-IO round state: the action frame, and what each coordination
//! round of the recovery protocol *decides*.
//!
//! `Ctx::collect` (see [`crate::context`]) runs the one bounded-collect
//! loop; this module holds what differs between rounds, as pure
//! `event → action` state in the shape [`ResolverState::on_event`] has. A
//! [`Round`] says whether it is complete ([`Round::status`]) and whom it
//! found silent at its deadline ([`Round::expired`]); the frame it runs in
//! says what an arriving message means ([`Frame::absorb`], [`unframed`],
//! [`corrupted`]). Each answer is a [`RoundAction`] the driver executes.
//! Nothing here sends, receives, observes or reads a clock, so every
//! decision is unit-tested below without a network, a system or a thread.
//! (The eviction quorum gate lives with the view it guards:
//! [`FrameMembership::suspect`].)

use std::collections::VecDeque;
use std::rc::Rc;

use caa_core::exception::{Exception, ExceptionId, Signal};
use caa_core::ids::{ActionId, RoleId, ThreadId};
use caa_core::inline::InlineVec;
use caa_core::message::{Message, SignalRound};

use crate::action::DefInner;
use crate::context::AppMsg;
use crate::error::Unwind;
use crate::membership::{FrameMembership, ViewSnapshot, GROUP_INLINE};
use crate::objects::TxControl;
use crate::protocol::{ProtoActions, ProtoCtx, ResolutionProtocol, ResolverState};

/// One entry of the action stack (`SA`), grouped by responsibility.
///
/// What a round keeps per participant — announcements, votes, the peers
/// heard from — lives inline in the frame ([`InlineVec`] tables keyed by
/// the member, spilling to the heap only past [`GROUP_INLINE`] members),
/// and what has to be on the heap — the inboxes, the list of touched
/// objects, the resolver's state — keeps its allocation from one instance
/// to the next: a frame is boxed once and then stays put, *left* in place
/// when its action ends ([`Frame::leave`]) and *re-entered* in place by the
/// participant's next action ([`Frame::reenter`]). Entering an action,
/// running its rounds and leaving it allocate nothing, and move a pointer
/// where they used to move the kilobyte the frame is.
pub(crate) struct Frame {
    pub(crate) id: Identity,
    pub(crate) inbox: Inboxes,
    pub(crate) recovery: Recovery,
    pub(crate) signals: SignalTable,
    pub(crate) exit: ExitBarrier,
    /// This participant's membership view of the instance: starts as the
    /// full group, shrinks when a bounded wait presumes a peer crashed.
    pub(crate) view: FrameMembership,
    /// External objects this thread touched within the action.
    pub(crate) objects: Vec<Box<dyn TxControl>>,
}

/// A participant's frames — its action stack, its spare pool — by box:
/// a frame is over a kilobyte, and entering or leaving an action moves a
/// pointer to it, never the frame.
#[allow(clippy::vec_box)]
pub(crate) type Frames = Vec<Box<Frame>>;

/// Which instance a frame is and how this thread is bound to it.
pub(crate) struct Identity {
    pub(crate) action: ActionId,
    /// The definition — kept by a left frame until it is re-entered, so
    /// that re-entering the same action (the usual case: a participant
    /// loops over the same actions) touches no reference count.
    pub(crate) def: Rc<DefInner>,
    pub(crate) role: RoleId,
}

/// What arrived for a frame and waits to be consumed.
#[derive(Default)]
pub(crate) struct Inboxes {
    /// Control messages for this action stashed by the router for the
    /// recovery driver (the trigger that interrupted the body, §3.3.2's
    /// "retain"). Drained when recovery starts.
    pub(crate) control: VecDeque<Message>,
    /// Buffered application messages.
    pub(crate) app: VecDeque<AppMsg>,
    /// Rejoin requests that arrived while a recovery was in flight,
    /// granted when the frame reaches its exit protocol.
    pub(crate) joins: Vec<ThreadId>,
}

/// A frame's progress through coordinated recovery.
#[derive(Default)]
pub(crate) struct Recovery {
    /// Protocol state for this frame's resolution: the (reset) one an
    /// earlier instance of the frame left, else made when the frame first
    /// takes part in a resolution ([`Frame::proto_ctx`]) — most frames
    /// never recover, and their state was a boxed allocation per entry.
    pub(crate) resolver: Option<Box<dyn ResolverState>>,
    /// Resolution completed — later Exception/Suspended messages for this
    /// instance are stragglers and are dropped (termination model: nothing
    /// new can be raised within the action after handlers start).
    pub(crate) recovered: bool,
    /// Enclosing-level recovery is aborting this frame (its abortion
    /// handler may be running). In-flight recovery messages for the
    /// instance — e.g. a `Commit` whose resolution raced with the
    /// enclosing trigger — are stragglers and are dropped.
    pub(crate) aborting: bool,
    /// Set while this frame's exception handler runs.
    pub(crate) in_handler: Option<ExceptionId>,
    /// While a recovery is in flight (resolution start through signalling
    /// end): the members the recovery started with. Signalling ranges over
    /// `cohort ∩ current members` — peers readmitted mid-recovery have no
    /// handler verdict to announce. Also the join-deferral gate: rejoin
    /// grants are queued while this is `Some` and flushed before the exit
    /// protocol, so the view never grows mid-resolution or mid-signalling.
    pub(crate) cohort: Option<ViewSnapshot>,
    /// The exception this frame's recovery resolved to (set the moment the
    /// resolver reports agreement), handed to rejoiners so a restarted
    /// participant knows recovery already happened.
    pub(crate) resolved_exception: Option<ExceptionId>,
}

impl Frame {
    /// A new frame for `def`'s actions, as [`Frame::leave`] leaves one:
    /// [`Frame::reenter`] it before use.
    pub(crate) fn new(def: &Rc<DefInner>) -> Box<Frame> {
        Box::new(Frame {
            id: Identity {
                action: ActionId::top_level(0),
                def: Rc::clone(def),
                role: RoleId::new(0),
            },
            inbox: Inboxes::default(),
            recovery: Recovery::default(),
            signals: SignalTable::default(),
            exit: ExitBarrier::default(),
            view: FrameMembership::new(&def.group),
            objects: Vec::new(),
        })
    }

    /// Binds a left frame to instance `action` of `def`, played as `role`,
    /// over the action's full group — the only way a frame is entered.
    pub(crate) fn reenter(&mut self, action: ActionId, def: &Rc<DefInner>, role: RoleId) {
        if !Rc::ptr_eq(&self.id.def, def) {
            self.id.def = Rc::clone(def);
        }
        self.id.action = action;
        self.id.role = role;
        self.view.reset(&def.group);
    }

    /// Ends the frame's instance in place: its inboxes and object list
    /// emptied (their capacity kept), its resolver state reset (dropped if
    /// it cannot be), its rounds and recovery back to where an entry starts
    /// them. Only the identity and the view are left to
    /// [`Frame::reenter`].
    pub(crate) fn leave(&mut self) {
        self.inbox.control.clear();
        self.inbox.app.clear();
        self.inbox.joins.clear();
        self.objects.clear();
        let recovery = &mut self.recovery;
        recovery.resolver.take_if(|state| !state.reset());
        recovery.recovered = false;
        recovery.aborting = false;
        recovery.in_handler = None;
        recovery.cohort = None;
        recovery.resolved_exception = None;
        self.signals.announced.clear();
        self.signals.corrupted = false;
        self.exit.votes.clear();
        self.exit.epoch = 0;
        self.exit.is_rejoiner = false;
    }

    /// Fast-forwards a just-entered frame to the state a `JoinGrant`
    /// describes: the granter's view, its exit epoch, and — when recovery
    /// already resolved — the resolved exception, so the restarted
    /// participant skips straight to the exit protocol.
    pub(crate) fn rejoin(
        &mut self,
        view: FrameMembership,
        exit_epoch: u32,
        resolved: Option<ExceptionId>,
    ) {
        self.view = view;
        self.exit.epoch = exit_epoch;
        self.exit.is_rejoiner = true;
        self.recovery.recovered = resolved.is_some();
        self.recovery.resolved_exception = resolved;
    }

    /// The members the signalling rounds range over: the recovery cohort
    /// that is still live. Peers readmitted mid-recovery never took part in
    /// this recovery's handling and have no verdict to announce, so they
    /// are excluded; crash-free frames never shrink the view and the
    /// cohort equals the full group.
    pub(crate) fn signalling_group(&self) -> ViewSnapshot {
        match &self.recovery.cohort {
            Some(cohort) => cohort
                .iter()
                .copied()
                .filter(|&t| self.view.members().contains(&t))
                .collect(),
            None => ViewSnapshot::from_slice(self.view.members()),
        }
    }

    /// The frame's resolver — a fresh state of `protocol` the first time —
    /// together with the static context its events take: this thread, the
    /// instance, the *current* view and the action's exception graph.
    pub(crate) fn proto_ctx(
        &mut self,
        me: ThreadId,
        protocol: &dyn ResolutionProtocol,
    ) -> (&mut dyn ResolverState, ProtoCtx<'_>) {
        let ctx = ProtoCtx {
            me,
            action: self.id.action,
            group: self.view.members(),
            graph: &self.id.def.graph,
        };
        let resolver = self
            .recovery
            .resolver
            .get_or_insert_with(|| protocol.new_state());
        (resolver.as_mut(), ctx)
    }

    /// Stamps this frame's membership view into the `Commit`s a resolver is
    /// about to send.
    pub(crate) fn stamp_commits(&mut self, actions: &mut ProtoActions) {
        let epoch = self.view.epoch();
        if epoch == 0 {
            // Crash-free recoveries (epoch 0, nothing removed) keep the
            // resolver's pre-stamped empty set — no work at all.
            return;
        }
        let removed = self.view.removed_shared();
        for (_, msg) in &mut actions.outbound {
            if let Message::Commit {
                view_epoch,
                view_removed,
                ..
            } = msg
            {
                *view_epoch = epoch;
                *view_removed = Rc::clone(&removed);
            }
        }
    }

    /// Decides what one message addressed to this frame's instance means
    /// while `round` is in progress, recording whatever it carries for a
    /// later round (signals, votes, application traffic, stashed triggers).
    /// `is_top` tells whether the frame is the active one.
    pub(crate) fn absorb(&mut self, msg: Message, is_top: bool, round: Round) -> RoundAction {
        if !matches!(msg, Message::App { .. }) {
            // Protocol traffic proves the sender advanced this instance's
            // protocol: liveness evidence for the eviction quorum gate.
            self.view.hear(msg.from());
        }
        let recovery = &self.recovery;
        match msg {
            Message::Exception { .. }
            | Message::Suspended { .. }
            | Message::ViewChange { .. }
            | Message::Commit { .. }
            | Message::Resolve { .. } => {
                let trigger = !matches!(msg, Message::Commit { .. } | Message::Resolve { .. });
                if recovery.aborting {
                    // In-flight recovery traffic for an instance the
                    // enclosing level is aborting — e.g. a commit whose
                    // nested resolution completed at a peer while this
                    // thread had already abandoned it — is a straggler
                    // (§3.3.1 gives the enclosing recovery precedence).
                    return RoundAction::Continue;
                }
                if recovery.recovered {
                    return match msg {
                        // Post-recovery suspicion from a peer's signalling
                        // or exit wait (set-wise: already-known removals
                        // are no-ops): adopt without disturbing whatever
                        // round this frame is in — the rounds re-derive
                        // their group from the view each pass.
                        // Announcements from threads this view already
                        // removed are adopted like any other: in a
                        // symmetric mutual-eviction race (both sides time
                        // out within one message latency and evict each
                        // other) mutual adoption collapses both views into
                        // one removal set covering both announcers — each
                        // side observes its own eviction and steps aside
                        // consistently. The asymmetric case (a partitioned
                        // minority counter-evicting a recently-alive
                        // majority) never reaches this point: the eviction
                        // quorum gate refuses the suspicion on the
                        // announcer's side before anything is broadcast.
                        Message::ViewChange { removed, .. } => RoundAction::Adopt(removed),
                        // Straggler after commit: the termination model
                        // admits nothing new once handlers started.
                        _ => RoundAction::Continue,
                    };
                }
                if !is_top && trigger {
                    // A trigger (or a view change) for a not-yet-recovered
                    // enclosing action: recovery is (or will be) running
                    // there. Stash it and unwind, aborting nested frames on
                    // the way.
                    self.inbox.control.push_back(msg);
                    return RoundAction::Interrupt(Unwind::Outer {
                        target: self.id.action,
                        eab: None,
                    });
                }
                if !is_top {
                    return RoundAction::Violation(
                        "resolution message received for enclosing action while nested".into(),
                    );
                }
                match round {
                    Round::Resolution => RoundAction::Resolve(msg),
                    Round::Body if trigger => {
                        // Control for the active action interrupts its body.
                        self.inbox.control.push_back(msg);
                        RoundAction::Interrupt(Unwind::Suspend)
                    }
                    Round::Body => RoundAction::Violation(format!(
                        "unexpected {} while body running",
                        msg.kind()
                    )),
                    Round::Exit => match msg {
                        Message::Exception { .. } | Message::Suspended { .. } => {
                            // A peer started recovery while we were leaving:
                            // stash the trigger and join it.
                            self.inbox.control.push_back(msg);
                            RoundAction::End(RoundEnd::Recover)
                        }
                        // A peer's exit wait expired and it suspected
                        // someone — possibly us. This cannot be a missed
                        // recovery: any trigger would have arrived long
                        // before a suspicion announcement (suspicion needs a
                        // full bounded wait to expire first). Adopt the
                        // removals and keep exiting over the new view.
                        Message::ViewChange { removed, .. } => RoundAction::Adopt(removed),
                        other => RoundAction::Violation(format!(
                            "unexpected {} during exit",
                            other.kind()
                        )),
                    },
                    // Unreachable in a signalling exchange (the frame is
                    // marked recovered) and in the grant wait (no frame).
                    Round::Signalling(_) | Round::Join { .. } => RoundAction::Continue,
                }
            }
            Message::ToBeSignalled {
                from,
                round,
                signal,
                ..
            } => {
                self.signals.record(round, from, signal);
                RoundAction::Continue
            }
            Message::ExitVote { from, epoch, .. } => {
                self.exit.record(epoch, from);
                RoundAction::Continue
            }
            Message::JoinRequest { from, .. } => {
                if recovery.aborting || self.view.evicted {
                    // Nothing worth granting: this frame's view is moot.
                    RoundAction::Continue
                } else if recovery.cohort.is_some() {
                    // Mid-recovery: the view must not grow while
                    // resolution or signalling ranges over it. Granted
                    // when the recovery's exit epoch opens.
                    self.inbox.joins.push(from);
                    RoundAction::Continue
                } else {
                    RoundAction::Grant(from)
                }
            }
            // A grant ends the requester's grant wait (see [`unframed`]); one
            // landing here is a duplicate from an additional granter,
            // arriving after the first already readmitted us.
            Message::JoinGrant { .. } => RoundAction::Continue,
            Message::App {
                from, tag, payload, ..
            } => {
                self.inbox.app.push_back(AppMsg { from, tag, payload });
                RoundAction::Continue
            }
        }
    }

    /// Answers a restarted participant's `JoinRequest`: re-admits it into
    /// the view (epoch-numbered rejoin) and builds the grant carrying the
    /// current view, exit epoch and resolved exception so the joiner can
    /// fast-forward. If this thread already voted in the current exit
    /// epoch, the vote is re-sent — the original broadcast went to the
    /// joiner's pre-crash endpoint and was discarded. `None` when `joiner`
    /// was never part of this action's group.
    pub(crate) fn grant_join(&mut self, me: ThreadId, joiner: ThreadId) -> Option<JoinGranted> {
        if !self.id.def.group.contains(&joiner) {
            return None;
        }
        // (A joiner the view never removed — it restarted before anyone
        // suspected it — simply gets its unchanged membership confirmed.)
        let readmitted = self.view.adopt_rejoin(joiner);
        let action = self.id.action;
        let exit_epoch = self.exit.epoch;
        Some(JoinGranted {
            readmitted,
            grant: Message::JoinGrant {
                action,
                from: me,
                thread: joiner,
                epoch: self.view.epoch(),
                removed: self.view.removed_shared(),
                exit_epoch,
                resolved: self.recovery.resolved_exception,
            },
            revote: self
                .exit
                .voted(exit_epoch, me)
                .then_some(Message::ExitVote {
                    action,
                    from: me,
                    epoch: exit_epoch,
                }),
        })
    }
}

/// A survivor's answer to a `JoinRequest` (see [`Frame::grant_join`]): the
/// epoch the joiner was re-admitted at (when the view had removed it), the
/// `JoinGrant`, and this thread's exit vote again if it already voted.
#[derive(Debug)]
pub(crate) struct JoinGranted {
    pub(crate) readmitted: Option<u32>,
    pub(crate) grant: Message,
    pub(crate) revote: Option<Message>,
}

/// Upper bound on retained messages: instances a thread never enters (e.g.
/// a peer's raise inside an action abandoned by recovery) would otherwise
/// accumulate their triggers forever.
const RETAINED_CAP: usize = 4096;

/// Decides what a message for an instance that has no frame here means:
/// the grant a [`Round::Join`] wait is for, a straggler if the instance
/// `finished` at this thread, else retained up to the cap.
pub(crate) fn unframed(
    msg: Message,
    round: Round,
    me: ThreadId,
    finished: bool,
    retained: usize,
) -> RoundAction {
    match (round, &msg) {
        (
            Round::Join { action },
            Message::JoinGrant {
                action: a, thread, ..
            },
        ) if *a == action && *thread == me => RoundAction::End(RoundEnd::Granted(msg)),
        // Straggler of a finished or aborted instance (during the grant
        // wait that includes the crashed instance itself).
        _ if finished => RoundAction::Continue,
        _ if retained < RETAINED_CAP => RoundAction::Retain(msg),
        _ => RoundAction::CapDropped,
    }
}

/// Decides what a corrupted message (payload unrecoverable) means to the
/// active frame while `round` is in progress.
pub(crate) fn corrupted(frame: Option<&mut Frame>, round: Round, me: ThreadId) -> RoundAction {
    match (round, frame) {
        // A corrupted message during normal computation raises the action's
        // corruption exception (Figure 7's `l_mes`).
        (Round::Body, Some(frame))
            if frame.recovery.in_handler.is_none() && !frame.recovery.recovered =>
        {
            let e = Exception::new(frame.id.def.corruption_exception)
                .with_origin(me)
                .with_detail("corrupted message delivered");
            RoundAction::Interrupt(Unwind::Raise(e))
        }
        // §3.4 treats lost information during a signalling exchange as ƒ.
        (Round::Signalling(_), Some(frame)) => {
            frame.signals.corrupted = true;
            RoundAction::Continue
        }
        (Round::Join { .. }, _) => RoundAction::Continue,
        // Lost information elsewhere — Assumption 1 excludes it for the
        // resolution algorithm (the signalling algorithm is the layer with
        // the ƒ extension) — is counted and ignored.
        _ => RoundAction::CountCorrupted,
    }
}

/// What a signalling exchange collected, reduced to what the case analysis
/// of §3.4 reads off it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Collected {
    /// Some member announced ƒ (or was silent at expiry, which counts as ƒ).
    pub(crate) failure: bool,
    /// Some member announced µ.
    pub(crate) undo: bool,
}

impl Collected {
    /// An exchange that did not coordinate: ƒ.
    pub(crate) const FAILED: Collected = Collected {
        failure: true,
        undo: false,
    };
}

/// Signalling announcements seen (§3.4): one row per announcing member,
/// one slot per exchange.
#[derive(Default)]
pub(crate) struct SignalTable {
    announced: InlineVec<(ThreadId, [Option<Signal>; 2]), GROUP_INLINE>,
    /// A corrupted message arrived during a signalling collection.
    corrupted: bool,
}

impl SignalTable {
    fn slot(round: SignalRound) -> usize {
        match round {
            SignalRound::First => 0,
            SignalRound::AfterUndo => 1,
        }
    }

    /// Records `from`'s announcement for `round` (the latest one wins).
    pub(crate) fn record(&mut self, round: SignalRound, from: ThreadId, signal: Signal) {
        let row = match self.announced.iter().position(|(t, _)| *t == from) {
            Some(row) => row,
            None => {
                self.announced.push((from, [None, None]));
                self.announced.len() - 1
            }
        };
        self.announced[row].1[Self::slot(round)] = Some(signal);
    }

    /// What `thread` announced for `round`, if anything yet.
    fn announcement(&self, round: SignalRound, thread: ThreadId) -> Option<&Signal> {
        let (_, slots) = self.announced.iter().find(|(t, _)| *t == thread)?;
        slots[Self::slot(round)].as_ref()
    }

    /// `group`'s announcements for `round`, in group order.
    fn announcements<'a>(
        &'a self,
        round: SignalRound,
        group: &'a [ThreadId],
    ) -> impl Iterator<Item = Option<&'a Signal>> + 'a {
        group.iter().map(move |&t| self.announcement(round, t))
    }

    /// What `group` announced for `round`, once every member has.
    fn complete(&self, round: SignalRound, group: &[ThreadId]) -> Option<Collected> {
        let mut collected = Collected::default();
        for signal in self.announcements(round, group) {
            match signal? {
                Signal::Failure => collected.failure = true,
                Signal::Undo => collected.undo = true,
                Signal::None | Signal::Exception(_) => {}
            }
        }
        Some(collected)
    }

    /// The wait expired: the silent members of `group`, and the conclusion.
    /// §3.4 extension: a missing announcement (lost message or crashed
    /// peer) is treated as ƒ; all fault-free threads still signal
    /// coordinated exceptions. Fill and conclude over the group as it was
    /// when the wait expired — every member of it reaches ƒ through its
    /// own timeout, so the round's outcome stays agreed even when the
    /// suspicion the driver runs next shrinks the view.
    fn expire(
        &mut self,
        round: SignalRound,
        group: &[ThreadId],
        me: ThreadId,
    ) -> (ViewSnapshot, Collected) {
        let mut silent = ViewSnapshot::new();
        for &t in group {
            if self.announcement(round, t).is_none() {
                if t != me {
                    silent.push(t);
                }
                self.record(round, t, Signal::Failure);
            }
        }
        let collected = self
            .complete(round, group)
            .expect("every member announced or was filled in");
        (silent, collected)
    }

    /// §3.4 case 3: some thread announced ƒ, or information was lost while
    /// collecting — ƒ dominates.
    pub(crate) fn failed(&self, collected: Collected) -> bool {
        self.corrupted || collected.failure
    }
}

/// The synchronous exit protocol's vote barrier (§5.1).
#[derive(Default)]
pub(crate) struct ExitBarrier {
    /// Exit votes seen, as `(epoch, voter)` pairs of the current epoch and
    /// later ones (a peer that recovered ahead of this thread votes in the
    /// next epoch before this thread opens it).
    votes: InlineVec<(u32, ThreadId), GROUP_INLINE>,
    /// The exit epoch this thread votes in next: 0 for normal completion,
    /// bumped by each completed recovery.
    pub(crate) epoch: u32,
    /// This frame was re-entered through [`Ctx::rejoin`](crate::Ctx::rejoin)
    /// after a crash. Rejoiners that time out waiting for exit votes give
    /// up silently (finalize `Failed`) instead of suspecting the
    /// survivors: a rejoiner may be missing votes that were broadcast while
    /// it was down, and its suspicion would evict threads that are
    /// perfectly alive.
    is_rejoiner: bool,
}

impl ExitBarrier {
    /// Records `from`'s vote for `epoch`. A vote of an epoch this thread
    /// has left behind is never read again and is not kept.
    pub(crate) fn record(&mut self, epoch: u32, from: ThreadId) {
        if epoch >= self.epoch && !self.voted(epoch, from) {
            self.votes.push((epoch, from));
        }
    }

    /// Casts this thread's own vote; returns the epoch it votes in.
    pub(crate) fn vote(&mut self, me: ThreadId) -> u32 {
        self.record(self.epoch, me);
        self.epoch
    }

    /// A completed recovery opens the next exit epoch: the votes of the
    /// one it closes no longer count.
    pub(crate) fn open_next_epoch(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.votes.retain(|&(e, _)| e >= epoch);
    }

    fn voted(&self, epoch: u32, thread: ThreadId) -> bool {
        self.votes.contains(&(epoch, thread))
    }

    /// The members of `view` whose vote in the current epoch is missing.
    fn silent<'a>(&'a self, view: &'a [ThreadId]) -> impl Iterator<Item = ThreadId> + 'a {
        view.iter().copied().filter(|&t| !self.voted(self.epoch, t))
    }
}

/// What a thread's receive loop is waiting on: one of the four
/// bounded-collect rounds of the protocol, or nothing in particular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Round {
    /// Not a round: a role body (or handler) at a poll point.
    Body,
    /// §3.3.2: every member's `Exception`/`Suspended` entry, then the
    /// elected resolver's `Commit`.
    Resolution,
    /// §3.4: one exchange of `toBeSignalled` announcements.
    Signalling(SignalRound),
    /// §5.1: the exit-vote barrier of the frame's current exit epoch.
    Exit,
    /// Epoch-numbered rejoin: a restarted participant (which has no frame
    /// yet) waits for the first `JoinGrant` re-admitting it into `action`.
    Join { action: ActionId },
}

/// What a round decision wants the driver to do.
#[derive(Debug)]
pub(crate) enum RoundAction {
    /// Nothing (more): the event was recorded, buffered or dropped as a
    /// straggler. Keep collecting.
    Continue,
    End(RoundEnd),
    /// The wait expired with `suspects` silent: run a suspicion round on
    /// them (if any), then conclude with `then` or — `None` — re-arm the
    /// deadline and keep collecting over the new view.
    Suspect {
        suspects: ViewSnapshot,
        then: Option<RoundEnd>,
    },
    /// A rejoiner's exit wait expired: it gives up on the missing votes
    /// without suspecting anyone.
    GiveUp,
    /// Feed the control message to the resolution machinery.
    Resolve(Message),
    /// Merge a peer's removal set into the addressed frame's view.
    Adopt(Rc<[ThreadId]>),
    /// Grant this restarted participant's rejoin at the addressed frame.
    Grant(ThreadId),
    /// For an action this thread has not entered yet: "retain the Exception
    /// or Suspended message till Ti enters A*" (§3.3.2).
    Retain(Message),
    /// Retainable, but [`RETAINED_CAP`] messages are held: dropped, counted.
    CapDropped,
    /// Count a corrupted message that is otherwise ignored.
    CountCorrupted,
    /// Recovery takes over: unwind the role body.
    Interrupt(Unwind),
    /// The event cannot occur in a correct run.
    Violation(String),
}

/// How a round ended.
#[derive(Debug)]
pub(crate) enum RoundEnd {
    /// Resolution reached agreement on this exception.
    Resolved(ExceptionId),
    /// The signalling exchange concluded with these announcements.
    Signals(Collected),
    /// Every member of the view voted to exit.
    Exited,
    /// A survivor granted the rejoin: its `JoinGrant`.
    Granted(Message),
    /// A peer started recovery while this thread was leaving: its trigger
    /// is stashed, join it.
    Recover,
    /// The round goes on without this thread: a view change removed it, or
    /// a restarted participant's wait expired (on exit votes it can never
    /// collect, or with no survivor granting its rejoin).
    Excluded,
}

impl Round {
    /// Does the round's predicate hold over the view as it is *now*?
    /// Suspicion shrinks the view mid-round and a granted rejoin grows it
    /// (the readmitted thread's vote is required again), so nothing derived
    /// from the view is cached across passes.
    pub(crate) fn status(self, frame: Option<&Frame>) -> Option<RoundEnd> {
        let frame = frame?;
        match self {
            // A concurrent view change evicted this thread — possibly
            // carried by the very message that concluded resolution (a
            // commit whose membership moved on): the survivors go on among
            // themselves.
            Round::Resolution | Round::Exit if frame.view.evicted => Some(RoundEnd::Excluded),
            Round::Resolution => frame.recovery.resolved_exception.map(RoundEnd::Resolved),
            Round::Signalling(round) => frame
                .signals
                .complete(round, &frame.signalling_group())
                .map(RoundEnd::Signals),
            Round::Exit => frame
                .exit
                .silent(frame.view.members())
                .next()
                .is_none()
                .then_some(RoundEnd::Exited),
            Round::Body | Round::Join { .. } => None,
        }
    }

    /// The round's deadline expired: who is silent, and what follows.
    /// (`protocol` for a resolution wait that expires on a frame no event
    /// was fed to yet: its fresh state still names whom it waits on.)
    pub(crate) fn expired(
        self,
        frame: Option<&mut Frame>,
        me: ThreadId,
        protocol: &dyn ResolutionProtocol,
    ) -> RoundAction {
        let Some(frame) = frame else {
            // The grant wait: no survivor answered.
            return RoundAction::End(RoundEnd::Excluded);
        };
        match self {
            // Presume the peers the resolver is blocked on crashed; the
            // applied view change opens a fresh round for the shrunken view.
            Round::Resolution => {
                let (resolver, ctx) = frame.proto_ctx(me, protocol);
                let suspects = resolver.waiting_on(&ctx);
                if suspects.is_empty() {
                    return RoundAction::Violation(
                        "bounded resolution wait expired but the protocol reports no suspects \
                         (resolution protocol without membership support?)"
                            .into(),
                    );
                }
                RoundAction::Suspect {
                    suspects,
                    then: None,
                }
            }
            // The §3.4 timeout is a per-round deadline — unrelated traffic
            // must not extend the wait — so expiry concludes the exchange.
            Round::Signalling(round) => {
                let (silent, collected) =
                    frame.signals.expire(round, &frame.signalling_group(), me);
                // When the view is already degraded — a crash was detected
                // earlier in this action's life — a missing announcement is
                // presumed another crash, not a §3.4-tolerated loss:
                // suspect the silent peers so the exit protocol will not
                // wait for them. Against a pristine view the two are
                // indistinguishable and the pure ƒ rule stands alone (a
                // genuinely crashed peer is still caught by the exit
                // round's suspicion).
                let armed = frame.view.epoch() > 0 && !frame.view.evicted;
                RoundAction::Suspect {
                    suspects: if armed { silent } else { ViewSnapshot::new() },
                    then: Some(RoundEnd::Signals(collected)),
                }
            }
            Round::Exit if frame.exit.is_rejoiner => RoundAction::GiveUp,
            // Round-agnostic suspicion: presume the silent peers crashed
            // and keep collecting votes over the shrunken view — the action
            // concludes among the survivors instead of resolving to ƒ
            // wholesale.
            Round::Exit => RoundAction::Suspect {
                suspects: frame.exit.silent(frame.view.members()).collect(),
                then: None,
            },
            Round::Body | Round::Join { .. } => RoundAction::Continue,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::action::ActionDef;
    use crate::membership::Eviction;
    use crate::protocol::{ProtoEvent, XrrResolution};
    use caa_core::state::ParticipantState;

    /// Every field of `frame` but the resolver state, as text: what the
    /// frame-reuse test compares a re-entered frame and a new one by. (A
    /// re-entered frame keeps the reset resolver state of an earlier
    /// instance, which a new frame makes on first use.)
    pub(crate) fn snapshot(frame: &Frame) -> String {
        let (id, inbox, recovery) = (&frame.id, &frame.inbox, &frame.recovery);
        let (signals, exit) = (&frame.signals, &frame.exit);
        format!(
            "{:?}",
            (
                (id.action, id.role, Rc::as_ptr(&id.def)),
                (inbox.control.len(), inbox.app.len(), inbox.joins.len()),
                frame.objects.len(),
                (recovery.recovered, recovery.aborting, recovery.in_handler),
                (&recovery.cohort, recovery.resolved_exception),
                (&signals.announced, signals.corrupted),
                (&exit.votes, exit.epoch, exit.is_rejoiner),
                &frame.view,
            )
        )
    }

    fn t(n: u32) -> ThreadId {
        ThreadId::new(n)
    }

    const ACTION: ActionId = ActionId::top_level(7);

    /// The frame thread 0 enters for `def`'s first role.
    fn entered(def: &ActionDef) -> Frame {
        let mut frame = Frame::new(&def.inner);
        frame.reenter(ACTION, &def.inner, RoleId::new(0));
        *frame
    }

    /// Thread 0's frame of a three-party action: no network, no system.
    fn frame() -> Frame {
        let def = ActionDef::builder("a")
            .role("r0", 0u32)
            .role("r1", 1u32)
            .role("r2", 2u32)
            .build()
            .expect("valid definition");
        entered(&def)
    }

    fn exception(from: u32) -> Message {
        Message::Exception {
            action: ACTION,
            from: t(from),
            exception: Exception::new("e"),
        }
    }

    fn join_grant(thread: u32) -> Message {
        Message::JoinGrant {
            action: ACTION,
            from: t(1),
            thread: t(thread),
            epoch: 2,
            removed: Rc::from([]),
            exit_epoch: 1,
            resolved: None,
        }
    }

    // -- signalling table ------------------------------------------------

    const FIRST: Round = Round::Signalling(SignalRound::First);

    /// `group`'s announcements for the first exchange, in group order.
    fn announced(table: &SignalTable, group: &[ThreadId]) -> Vec<Option<Signal>> {
        table
            .announcements(SignalRound::First, group)
            .map(|s| s.cloned())
            .collect()
    }

    #[test]
    fn signalling_completes_over_a_shrunk_view() {
        let mut f = frame();
        f.signals.record(SignalRound::First, t(0), Signal::None);
        f.signals.record(SignalRound::First, t(1), Signal::Undo);
        assert!(FIRST.status(Some(&f)).is_none(), "T2 has not announced");
        // A view change adopted mid-round removes the silent member: the
        // re-derived group is complete.
        f.view.adopt_removals(&[t(2)]).expect("T2 was live");
        match FIRST.status(Some(&f)) {
            Some(RoundEnd::Signals(collected)) => assert_eq!(
                collected,
                Collected {
                    failure: false,
                    undo: true
                }
            ),
            other => panic!("expected the two survivors' signals, got {other:?}"),
        }
        assert_eq!(
            announced(&f.signals, &f.signalling_group()),
            [Some(Signal::None), Some(Signal::Undo)]
        );
    }

    #[test]
    fn the_latest_announcement_wins_and_exchanges_do_not_mix() {
        let mut table = SignalTable::default();
        let group = [t(0), t(1)];
        table.record(SignalRound::First, t(1), Signal::Undo);
        table.record(SignalRound::First, t(0), Signal::None);
        table.record(SignalRound::First, t(1), Signal::Failure);
        assert_eq!(
            announced(&table, &group),
            [Some(Signal::None), Some(Signal::Failure)]
        );
        assert_eq!(
            table.complete(SignalRound::First, &group),
            Some(Collected {
                failure: true,
                undo: false
            })
        );
        // The exchange after the undo starts from nothing.
        assert!(table.complete(SignalRound::AfterUndo, &group).is_none());
        table.record(SignalRound::AfterUndo, t(0), Signal::Undo);
        table.record(SignalRound::AfterUndo, t(1), Signal::Undo);
        assert_eq!(
            table.complete(SignalRound::AfterUndo, &group),
            Some(Collected {
                failure: false,
                undo: true
            })
        );
        assert_eq!(
            announced(&table, &group),
            [Some(Signal::None), Some(Signal::Failure)],
            "the first exchange is untouched by the second"
        );
        // An announcement from outside the group is never read.
        table.record(SignalRound::First, t(9), Signal::Failure);
        assert_eq!(
            table.complete(SignalRound::First, &[t(0)]),
            Some(Collected::default())
        );
    }

    #[test]
    fn signalling_expiry_fills_failure_over_the_group_as_it_was() {
        let mut f = frame();
        f.signals.record(SignalRound::First, t(0), Signal::None);
        // Pristine view (epoch 0): a missing announcement is a §3.4 loss,
        // nobody is suspected, and the round concludes with ƒ for the
        // silent members of the group at expiry.
        match FIRST.expired(Some(&mut f), t(0), &XrrResolution) {
            RoundAction::Suspect {
                suspects,
                then: Some(RoundEnd::Signals(collected)),
            } => {
                assert!(suspects.is_empty());
                assert!(collected.failure && !collected.undo);
                assert!(f.signals.failed(collected));
            }
            other => panic!("expected an ƒ-filled conclusion, got {other:?}"),
        }
        assert_eq!(
            announced(&f.signals, &[t(0), t(1), t(2)]),
            [
                Some(Signal::None),
                Some(Signal::Failure),
                Some(Signal::Failure)
            ],
            "the silent members read ƒ, in group order"
        );
    }

    #[test]
    fn expiry_names_the_silent_members_in_group_order_and_keeps_what_was_said() {
        let mut table = SignalTable::default();
        let group = [t(1), t(2), t(5), t(7)];
        table.record(SignalRound::First, t(5), Signal::Undo);
        // This thread (T2) never recorded its own announcement either: it
        // is filled with ƒ like the others but is not its own suspect.
        let (silent, collected) = table.expire(SignalRound::First, &group, t(2));
        assert_eq!(&silent[..], [t(1), t(7)]);
        assert_eq!(
            collected,
            Collected {
                failure: true,
                undo: true
            }
        );
        assert_eq!(
            announced(&table, &group),
            [
                Some(Signal::Failure),
                Some(Signal::Failure),
                Some(Signal::Undo),
                Some(Signal::Failure)
            ]
        );
        // A late announcement still replaces the presumed ƒ.
        table.record(SignalRound::First, t(7), Signal::None);
        assert_eq!(
            table.announcement(SignalRound::First, t(7)),
            Some(&Signal::None)
        );
    }

    #[test]
    fn signalling_expiry_suspects_only_against_a_degraded_view() {
        let mut f = frame();
        f.view.adopt_removals(&[t(2)]).expect("T2 was live");
        f.signals.record(SignalRound::First, t(0), Signal::None);
        match FIRST.expired(Some(&mut f), t(0), &XrrResolution) {
            RoundAction::Suspect { suspects, then } => {
                assert_eq!(&suspects[..], [t(1)], "epoch > 0: silence is another crash");
                assert!(matches!(then, Some(RoundEnd::Signals(c)) if c.failure));
                assert_eq!(
                    announced(&f.signals, &[t(0), t(1)]),
                    [Some(Signal::None), Some(Signal::Failure)]
                );
            }
            other => panic!("expected suspicion, got {other:?}"),
        }
        // An evicted frame suspects nobody, whatever the epoch.
        let mut f = frame();
        f.view.adopt_removals(&[t(2)]).expect("T2 was live");
        f.view.evicted = true;
        assert!(matches!(
            FIRST.expired(Some(&mut f), t(0), &XrrResolution),
            RoundAction::Suspect { suspects, .. } if suspects.is_empty()
        ));
    }

    #[test]
    fn corruption_during_signalling_forces_failure() {
        let mut f = frame();
        assert!(matches!(
            corrupted(Some(&mut f), FIRST, t(0)),
            RoundAction::Continue
        ));
        assert!(f.signals.failed(Collected::default()));
        // Elsewhere it is counted — or, in a body, raised.
        assert!(matches!(
            corrupted(Some(&mut f), Round::Exit, t(0)),
            RoundAction::CountCorrupted
        ));
        assert!(matches!(
            corrupted(Some(&mut f), Round::Body, t(0)),
            RoundAction::Interrupt(Unwind::Raise(_))
        ));
    }

    // -- the resolver, made on first use ---------------------------------

    #[test]
    fn a_frame_that_never_recovers_holds_no_resolver_state() {
        let mut f = frame();
        assert!(f.recovery.resolver.is_none());
        // A whole crash-free life: application traffic, the exit barrier,
        // one expiry of its wait.
        let app = Message::App {
            action: ACTION,
            from: t(1),
            tag: "work",
            payload: caa_core::message::AppPayload::new(7u32),
        };
        assert!(matches!(
            f.absorb(app, true, Round::Body),
            RoundAction::Continue
        ));
        f.exit.vote(t(0));
        f.exit.record(0, t(1));
        assert!(matches!(
            Round::Exit.expired(Some(&mut f), t(0), &XrrResolution),
            RoundAction::Suspect { .. }
        ));
        f.exit.record(0, t(2));
        assert!(matches!(
            Round::Exit.status(Some(&f)),
            Some(RoundEnd::Exited)
        ));
        assert!(f.recovery.resolver.is_none());
    }

    #[test]
    fn a_resolution_timeout_on_a_never_fed_frame_asks_a_fresh_state() {
        // The state is made for the question: nobody has an entry yet, so
        // everybody is silent.
        let mut f = frame();
        match Round::Resolution.expired(Some(&mut f), t(0), &XrrResolution) {
            RoundAction::Suspect {
                suspects,
                then: None,
            } => assert_eq!(&suspects[..], [t(0), t(1), t(2)]),
            other => panic!("expected the whole group as suspects, got {other:?}"),
        }
        assert!(f.recovery.resolver.is_some());

        // A protocol without membership support names nobody: still the
        // violation it always was.
        #[derive(Debug)]
        struct Mute;
        impl ResolverState for Mute {
            fn on_event(&mut self, _: &ProtoCtx<'_>, _: ProtoEvent<'_>) -> ProtoActions {
                ProtoActions::default()
            }
            fn participant_state(&self) -> ParticipantState {
                ParticipantState::Normal
            }
        }
        impl ResolutionProtocol for Mute {
            fn name(&self) -> &'static str {
                "mute"
            }
            fn new_state(&self) -> Box<dyn ResolverState> {
                Box::new(Mute)
            }
        }
        assert!(matches!(
            Round::Resolution.expired(Some(&mut frame()), t(0), &Mute),
            RoundAction::Violation(_)
        ));
    }

    // -- exit barrier ----------------------------------------------------

    #[test]
    fn exit_completes_when_suspicion_shrinks_the_view() {
        let mut f = frame();
        assert_eq!(f.exit.vote(t(0)), 0);
        f.exit.record(0, t(1));
        assert!(Round::Exit.status(Some(&f)).is_none(), "T2 has not voted");
        match Round::Exit.expired(Some(&mut f), t(0), &XrrResolution) {
            RoundAction::Suspect {
                suspects,
                then: None,
            } => {
                assert_eq!(&suspects[..], [t(2)]);
                assert!(matches!(
                    f.view.suspect(&suspects),
                    Ok(Eviction::Evict { .. })
                ));
            }
            other => panic!("expected suspicion and a re-armed wait, got {other:?}"),
        }
        assert!(matches!(
            Round::Exit.status(Some(&f)),
            Some(RoundEnd::Exited)
        ));
    }

    #[test]
    fn exit_requires_a_readmitted_members_vote_again() {
        let mut f = frame();
        f.view.suspect(&[t(2)]).expect("T2 was live");
        f.exit.vote(t(0));
        f.exit.record(0, t(1));
        assert!(matches!(
            Round::Exit.status(Some(&f)),
            Some(RoundEnd::Exited)
        ));
        // A granted rejoin grows the view mid-round.
        let granted = f.grant_join(t(0), t(2)).expect("T2 is in the group");
        assert_eq!(granted.readmitted, Some(2));
        assert!(Round::Exit.status(Some(&f)).is_none());
        f.exit.record(0, t(2));
        assert!(matches!(
            Round::Exit.status(Some(&f)),
            Some(RoundEnd::Exited)
        ));
    }

    #[test]
    fn votes_of_a_stale_epoch_do_not_count() {
        let mut exit = ExitBarrier::default();
        let view = [t(0), t(1), t(2)];
        exit.vote(t(0));
        exit.record(0, t(1));
        // T2 recovered ahead of this thread and already votes in epoch 1.
        exit.record(1, t(2));
        assert_eq!(exit.silent(&view).collect::<Vec<_>>(), [t(2)]);
        exit.open_next_epoch();
        assert_eq!(exit.epoch, 1);
        assert_eq!(
            exit.silent(&view).collect::<Vec<_>>(),
            [t(0), t(1)],
            "epoch 0's votes are void, the early epoch-1 vote stands"
        );
        // A straggler of the closed epoch changes nothing.
        exit.record(0, t(1));
        assert!(!exit.voted(1, t(1)) && !exit.voted(0, t(1)));
        assert_eq!(exit.vote(t(0)), 1);
        exit.record(1, t(1));
        exit.record(1, t(1));
        assert_eq!(exit.silent(&view).next(), None);
    }

    #[test]
    fn rejoiner_gives_up_and_never_suspects() {
        let view = FrameMembership::new(&[t(0), t(1), t(2)]);
        let mut f = frame();
        f.rejoin(view, 1, Some(ExceptionId::new("e")));
        assert!(f.recovery.recovered);
        assert_eq!(f.exit.vote(t(0)), 1, "votes in the granter's exit epoch");
        assert!(matches!(
            Round::Exit.expired(Some(&mut f), t(0), &XrrResolution),
            RoundAction::GiveUp
        ));
    }

    #[test]
    fn evicted_frames_are_excluded_from_resolution_and_exit() {
        let mut f = frame();
        f.exit.vote(t(0));
        f.view.evicted = true;
        for round in [Round::Resolution, Round::Exit] {
            assert!(matches!(round.status(Some(&f)), Some(RoundEnd::Excluded)));
        }
        // Signalling runs to its own conclusion even when evicted.
        assert!(FIRST.status(Some(&f)).is_none());
    }

    // -- join / grant construction ---------------------------------------

    #[test]
    fn grant_revotes_only_if_already_voted_in_the_current_exit_epoch() {
        let mut f = frame();
        let granted = f.grant_join(t(0), t(1)).expect("T1 is in the group");
        assert_eq!(granted.readmitted, None, "T1 was never removed");
        assert!(granted.revote.is_none(), "no vote cast yet");
        f.exit.vote(t(0));
        let granted = f.grant_join(t(0), t(1)).expect("T1 is in the group");
        assert!(matches!(
            granted.revote,
            Some(Message::ExitVote { epoch: 0, from, .. }) if from == t(0)
        ));
        // A recovery opens the next exit epoch: the old vote does not count.
        f.exit.open_next_epoch();
        f.recovery.resolved_exception = Some(ExceptionId::new("e"));
        let granted = f.grant_join(t(0), t(1)).expect("T1 is in the group");
        assert!(granted.revote.is_none());
        assert!(matches!(
            granted.grant,
            Message::JoinGrant { thread, exit_epoch: 1, resolved: Some(_), .. } if thread == t(1)
        ));
        assert!(f.grant_join(t(0), t(9)).is_none(), "T9 is not in the group");
    }

    #[test]
    fn join_requests_are_deferred_while_a_recovery_is_in_flight() {
        let mut f = frame();
        let request = || Message::JoinRequest {
            action: ACTION,
            from: t(2),
        };
        assert!(matches!(
            f.absorb(request(), true, Round::Body),
            RoundAction::Grant(j) if j == t(2)
        ));
        f.recovery.cohort = Some(ViewSnapshot::from_slice(f.view.members()));
        assert!(matches!(
            f.absorb(request(), true, Round::Resolution),
            RoundAction::Continue
        ));
        assert_eq!(f.inbox.joins, [t(2)]);
    }

    #[test]
    fn the_grant_wait_ends_on_its_own_grant_only() {
        let join = Round::Join { action: ACTION };
        assert!(matches!(
            unframed(join_grant(0), join, t(0), true, 0),
            RoundAction::End(RoundEnd::Granted(Message::JoinGrant { epoch: 2, .. }))
        ));
        // A grant for another thread, or outside a grant wait, is an
        // ordinary message of a finished instance.
        assert!(matches!(
            unframed(join_grant(1), join, t(0), true, 0),
            RoundAction::Continue
        ));
        assert!(matches!(
            unframed(join_grant(0), Round::Body, t(0), true, 0),
            RoundAction::Continue
        ));
        assert!(matches!(
            join.expired(None, t(0), &XrrResolution),
            RoundAction::End(RoundEnd::Excluded)
        ));
    }

    // -- groups past the inline capacity, sparse ids ----------------------

    /// Thread `group[0]`'s frame of an action over `group`.
    fn frame_over(group: &[u32]) -> Frame {
        let mut builder = ActionDef::builder("a");
        for &thread in group {
            builder = builder.role(format!("r{thread}"), thread);
        }
        let def = builder.build().expect("valid definition");
        entered(&def)
    }

    /// Every per-participant table of a frame, driven through one
    /// signalling exchange and one exit barrier over `group`: nothing
    /// about them may depend on how many members there are or on what
    /// their ids look like.
    fn rounds_behave_over(group: &[u32]) {
        let members: Vec<ThreadId> = group.iter().map(|&n| t(n)).collect();
        let (me, last) = (members[0], *members.last().expect("nonempty"));
        let mut f = frame_over(group);
        assert_eq!(f.signalling_group()[..], members[..]);

        // Signalling: complete only once the last member announced.
        for &peer in &members[..members.len() - 1] {
            f.signals.record(SignalRound::First, peer, Signal::None);
            assert!(FIRST.status(Some(&f)).is_none());
        }
        f.signals.record(SignalRound::First, last, Signal::Undo);
        assert!(matches!(
            FIRST.status(Some(&f)),
            Some(RoundEnd::Signals(Collected {
                failure: false,
                undo: true
            }))
        ));
        // The second exchange expires with only this thread announced.
        f.signals.record(SignalRound::AfterUndo, me, Signal::Undo);
        match Round::Signalling(SignalRound::AfterUndo).expired(Some(&mut f), me, &XrrResolution) {
            RoundAction::Suspect {
                suspects,
                then: Some(RoundEnd::Signals(collected)),
            } => {
                assert!(suspects.is_empty(), "pristine view: nobody is suspected");
                assert!(collected.failure);
            }
            other => panic!("expected an ƒ-filled conclusion, got {other:?}"),
        }
        let filled: Vec<_> = f
            .signals
            .announcements(SignalRound::AfterUndo, &members)
            .map(|s| s.cloned())
            .collect();
        assert_eq!(filled[0], Some(Signal::Undo));
        assert!(filled[1..].iter().all(|s| *s == Some(Signal::Failure)));

        // Exit: votes arrive in reverse order; the silent set is whoever
        // is left, in view order; the last one is suspected at expiry.
        f.exit.vote(me);
        for (i, &peer) in members.iter().enumerate().skip(2).rev() {
            f.exit.record(0, peer);
            f.view.hear(peer);
            assert_eq!(
                f.exit.silent(f.view.members()).collect::<Vec<_>>(),
                members[1..i]
            );
        }
        match Round::Exit.expired(Some(&mut f), me, &XrrResolution) {
            RoundAction::Suspect {
                suspects,
                then: None,
            } => {
                assert_eq!(&suspects[..], &members[1..2]);
                assert!(matches!(
                    f.view.suspect(&suspects),
                    Ok(Eviction::Evict { epoch: 1, .. })
                ));
            }
            other => panic!("expected suspicion of the one silent member, got {other:?}"),
        }
        assert!(matches!(
            Round::Exit.status(Some(&f)),
            Some(RoundEnd::Exited)
        ));
    }

    #[test]
    fn a_group_of_twelve_outgrows_the_inline_tables_and_nothing_else() {
        let group: Vec<u32> = (0..12).collect();
        assert!(group.len() > GROUP_INLINE);
        rounds_behave_over(&group);
    }

    #[test]
    fn a_sparse_group_is_keyed_by_member_not_by_index() {
        rounds_behave_over(&[3, 70, 4000]);
    }

    // -- the tables against the maps they replace ------------------------

    /// The tree-backed tables these replaced, kept as the reference the
    /// inline ones are compared against.
    mod reference {
        use super::*;
        use std::collections::{BTreeMap, BTreeSet};

        #[derive(Default)]
        pub(super) struct SignalTable {
            announced: BTreeMap<(SignalRound, ThreadId), Signal>,
        }

        impl SignalTable {
            pub(super) fn record(&mut self, round: SignalRound, from: ThreadId, signal: Signal) {
                self.announced.insert((round, from), signal);
            }

            pub(super) fn complete(
                &self,
                round: SignalRound,
                group: &[ThreadId],
            ) -> Option<Vec<Signal>> {
                group
                    .iter()
                    .all(|&t| self.announced.contains_key(&(round, t)))
                    .then(|| self.collected(round, group))
            }

            fn collected(&self, round: SignalRound, group: &[ThreadId]) -> Vec<Signal> {
                group
                    .iter()
                    .map(|&t| self.announced[&(round, t)].clone())
                    .collect()
            }

            pub(super) fn expire(
                &mut self,
                round: SignalRound,
                group: &[ThreadId],
                me: ThreadId,
            ) -> (Vec<ThreadId>, Vec<Signal>) {
                let silent = group
                    .iter()
                    .copied()
                    .filter(|&t| t != me && !self.announced.contains_key(&(round, t)))
                    .collect();
                for &t in group {
                    self.announced.entry((round, t)).or_insert(Signal::Failure);
                }
                (silent, self.collected(round, group))
            }
        }

        #[derive(Default)]
        pub(super) struct ExitBarrier {
            votes: BTreeMap<u32, BTreeSet<ThreadId>>,
            pub(super) epoch: u32,
        }

        impl ExitBarrier {
            pub(super) fn record(&mut self, epoch: u32, from: ThreadId) {
                self.votes.entry(epoch).or_default().insert(from);
            }

            pub(super) fn voted(&self, epoch: u32, thread: ThreadId) -> bool {
                self.votes.get(&epoch).is_some_and(|v| v.contains(&thread))
            }

            pub(super) fn silent(&self, view: &[ThreadId]) -> Vec<ThreadId> {
                view.iter()
                    .copied()
                    .filter(|&t| !self.voted(self.epoch, t))
                    .collect()
            }
        }
    }

    /// Up to fourteen distinct sparse ids, ascending — a group.
    fn random_group(rng: &mut proptest::test_runner::TestRng) -> Vec<ThreadId> {
        let mut ids: Vec<ThreadId> = (0..1 + rng.below(14))
            .map(|_| t(rng.below(5_000) as u32))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    fn pick<T: Clone>(rng: &mut proptest::test_runner::TestRng, from: &[T]) -> T {
        from[rng.below(from.len() as u64) as usize].clone()
    }

    fn summary(signals: &[Signal]) -> Collected {
        Collected {
            failure: signals.contains(&Signal::Failure),
            undo: signals.contains(&Signal::Undo),
        }
    }

    #[test]
    fn the_signal_table_answers_like_the_tree_map_it_replaces() {
        let mut rng = proptest::test_runner::TestRng::new(0x5167a1);
        let signals = [
            Signal::None,
            Signal::Undo,
            Signal::Failure,
            Signal::Exception(ExceptionId::new("e")),
        ];
        let rounds = [SignalRound::First, SignalRound::AfterUndo];
        for _ in 0..300 {
            let ids = random_group(&mut rng);
            let (mut table, mut tree) = (SignalTable::default(), reference::SignalTable::default());
            for _ in 0..rng.below(60) {
                let round = pick(&mut rng, &rounds);
                // Any subset of the ids, in order: the view of the moment.
                let group: Vec<ThreadId> =
                    ids.iter().copied().filter(|_| rng.below(4) > 0).collect();
                match rng.below(8) {
                    0 => {
                        let me = pick(&mut rng, &ids);
                        let (silent, collected) = table.expire(round, &group, me);
                        let (tree_silent, tree_signals) = tree.expire(round, &group, me);
                        assert_eq!(&silent[..], &tree_silent[..]);
                        assert_eq!(collected, summary(&tree_signals));
                    }
                    1 | 2 => {
                        let expected = tree.complete(round, &group);
                        assert_eq!(
                            table.complete(round, &group),
                            expected.as_deref().map(summary)
                        );
                        if let Some(expected) = expected {
                            let in_order: Vec<Signal> = table
                                .announcements(round, &group)
                                .map(|s| s.expect("complete").clone())
                                .collect();
                            assert_eq!(in_order, expected);
                        }
                    }
                    _ => {
                        let (from, signal) = (pick(&mut rng, &ids), pick(&mut rng, &signals));
                        table.record(round, from, signal.clone());
                        tree.record(round, from, signal);
                    }
                }
            }
        }
    }

    #[test]
    fn the_exit_barrier_answers_like_the_tree_map_it_replaces() {
        let mut rng = proptest::test_runner::TestRng::new(0xe817);
        for _ in 0..300 {
            let ids = random_group(&mut rng);
            let (mut barrier, mut tree) =
                (ExitBarrier::default(), reference::ExitBarrier::default());
            for _ in 0..rng.below(80) {
                match rng.below(10) {
                    0 => {
                        barrier.open_next_epoch();
                        tree.epoch += 1;
                    }
                    1 => {
                        let me = pick(&mut rng, &ids);
                        assert_eq!(barrier.vote(me), tree.epoch);
                        tree.record(tree.epoch, me);
                    }
                    _ => {
                        // Votes of the epoch before, this one and the two
                        // after it, duplicates included.
                        let epoch = (barrier.epoch + rng.below(4) as u32).saturating_sub(1);
                        let from = pick(&mut rng, &ids);
                        barrier.record(epoch, from);
                        tree.record(epoch, from);
                    }
                }
                // What the rounds read: the current epoch's votes.
                let view: Vec<ThreadId> =
                    ids.iter().copied().filter(|_| rng.below(4) > 0).collect();
                assert_eq!(
                    barrier.silent(&view).collect::<Vec<_>>(),
                    tree.silent(&view)
                );
                let probe = pick(&mut rng, &ids);
                assert_eq!(
                    barrier.voted(barrier.epoch, probe),
                    tree.voted(tree.epoch, probe)
                );
            }
        }
    }

    // -- routing decisions -----------------------------------------------

    #[test]
    fn unframed_messages_are_retained_up_to_the_cap() {
        assert!(matches!(
            unframed(exception(1), Round::Body, t(0), false, 0),
            RoundAction::Retain(_)
        ));
        assert!(matches!(
            unframed(exception(1), Round::Body, t(0), false, RETAINED_CAP),
            RoundAction::CapDropped
        ));
        assert!(matches!(
            unframed(exception(1), Round::Body, t(0), true, 0),
            RoundAction::Continue
        ));
    }

    #[test]
    fn a_trigger_means_what_the_round_in_progress_says() {
        let mut f = frame();
        assert!(matches!(
            f.absorb(exception(1), true, Round::Body),
            RoundAction::Interrupt(Unwind::Suspend)
        ));
        assert!(matches!(
            f.absorb(exception(1), true, Round::Resolution),
            RoundAction::Resolve(_)
        ));
        assert!(matches!(
            f.absorb(exception(1), true, Round::Exit),
            RoundAction::End(RoundEnd::Recover)
        ));
        // For an enclosing frame it unwinds the nested ones.
        assert!(matches!(
            f.absorb(exception(1), false, Round::Body),
            RoundAction::Interrupt(Unwind::Outer { target, eab: None }) if target == ACTION
        ));
        assert_eq!(f.inbox.control.len(), 3, "stashed for the recovery driver");
        assert!(f.view.heard(t(1)));
        // Once recovered (or aborting) it is a straggler.
        f.recovery.recovered = true;
        assert!(matches!(
            f.absorb(exception(1), true, Round::Exit),
            RoundAction::Continue
        ));
    }
}
