//! Sans-IO round state: the action frame, and what each coordination
//! round of the recovery protocol *decides*.
//!
//! A host blocks every round in one wait of its own; this module holds
//! what differs between rounds, as pure `event → action` state in the
//! shape [`ResolverState::on_event`] has. A [`Round`] says whether it is
//! complete ([`Round::status`]) and what its deadline decides
//! ([`Round::expired`]: the quorum gate's verdict on the silent peers,
//! then the conclusion). The frame it runs in says what an arriving
//! message means ([`classify`]: [`Frame::absorb`], or the retention and
//! corruption rules), adopting a removal set there and naming the view
//! step and what the resolver hears ([`Feed`]). Each answer is a
//! [`RoundAction`] the host performs, or for a deadline an [`Expiry`].
//! So are the decisions taken between rounds: where an unwind lands at a
//! frame and what an abortion handler's result carries on (the §3.3.1
//! cascade: [`land`], [`aborted`]), §3.4's case analysis ([`signalling`]:
//! exchange, undo or conclude), how an action leaves once its exit round
//! ended ([`leave`]), and whether a rejoin grant re-admits
//! ([`FrameMembership::sync_grant`]). A
//! decision that no correct run takes is a [`Violation`], never an error
//! made on the spot. Nothing here sends, receives, observes or reads a
//! clock, so every decision is unit-tested below without a network, a
//! system or a thread. (The quorum gate and the set-wise merge live with
//! the view they guard, [`FrameMembership`].)

use std::collections::VecDeque;
use std::rc::Rc;

use caa_core::exception::{Exception, ExceptionId, Signal};
use caa_core::ids::{ActionId, RoleId, ThreadId};
use caa_core::inline::InlineVec;
use caa_core::message::{AppMsg, Message, SignalRound};
use caa_core::outcome::ActionOutcome;
use caa_exgraph::ExceptionGraph;

use crate::membership::{synthesize_crashes, FrameMembership, Suspicion, ThreadSet};
use crate::membership::{ViewSnapshot, ViewStep, GROUP_INLINE};
use crate::protocol::{ProtoActions, ProtoCtx, ProtoEvent, ResolutionProtocol, ResolverState};

/// What the protocol reads of a CA action's definition: its ordered group,
/// its exception graph and the exception a corrupted message raises. A
/// host's definition `D` owns one and lends it to the frames of its
/// instances (`D: AsRef<ActionSpec>`), so entering an action copies
/// nothing.
#[derive(Debug)]
pub struct ActionSpec {
    /// All participating threads, sorted ascending (the ordered group
    /// `GA`); inline like every table keyed by a member.
    pub group: ViewSnapshot,
    /// The exception graph concurrent exceptions are resolved in.
    pub graph: Rc<ExceptionGraph>,
    /// What a corrupted message raises in a running body (Figure 7's
    /// `l_mes`).
    pub corruption_exception: ExceptionId,
}

impl AsRef<ActionSpec> for ActionSpec {
    #[inline]
    fn as_ref(&self) -> &ActionSpec {
        self
    }
}

/// One entry of the action stack (`SA`), grouped by responsibility; `D` is
/// the host's definition of the action.
///
/// Only the identity is public: a host moves the rest on through the
/// frame's steps ([`Frame::absorb`], [`Frame::begin_recovery`] …
/// [`Frame::vote_exit`]), in the order the protocol fixes.
///
/// What a round keeps per participant — announcements, votes, the peers
/// heard from — lives inline in the frame ([`ThreadSet`]s, spilling to the
/// heap only for a thread index past 63), and what has to be on the heap —
/// the inboxes, the resolver's state — keeps its allocation from one
/// instance to the next: a frame is boxed once and then stays put, *left*
/// in place when its action ends ([`Frame::leave`]) and *re-entered* in
/// place by the participant's next action ([`Frame::reenter`]). Entering
/// an action, running its rounds and leaving it allocate nothing, and move
/// a pointer where they used to move the kilobyte the frame is.
pub struct Frame<D> {
    /// The instance, its definition and this thread's part in it.
    pub id: Identity<D>,
    /// What arrived and waits to be consumed.
    inbox: Inboxes,
    /// Progress through coordinated recovery.
    recovery: Recovery,
    /// §3.4's announcements.
    signals: SignalTable,
    /// §5.1's vote barrier.
    exit: ExitBarrier,
    /// This participant's membership view of the instance: starts as the
    /// full group, shrinks when a bounded wait presumes a peer crashed.
    view: FrameMembership,
}

/// Which instance a frame is and how this thread is bound to it.
pub struct Identity<D> {
    /// The instance.
    pub action: ActionId,
    /// The definition — kept by a left frame until it is re-entered, so
    /// that re-entering the same action (the usual case: a participant
    /// loops over the same actions) touches no reference count.
    pub def: Rc<D>,
    /// The role this thread plays.
    pub role: RoleId,
    /// This thread: the one the definition binds to `role`.
    pub me: ThreadId,
}

impl<D: AsRef<ActionSpec>> Identity<D> {
    /// What the protocol reads of the definition.
    #[inline]
    pub fn spec(&self) -> &ActionSpec {
        (*self.def).as_ref()
    }
}

/// What arrived for a frame and waits to be consumed.
#[derive(Default)]
struct Inboxes {
    /// Control messages for this action stashed by the router for the
    /// recovery driver (the trigger that interrupted the body, §3.3.2's
    /// "retain"). Drained when recovery starts.
    control: VecDeque<Message>,
    /// Buffered application messages.
    app: VecDeque<AppMsg>,
    /// Rejoin requests that arrived while a recovery was in flight,
    /// granted when the frame reaches its exit protocol.
    joins: Vec<ThreadId>,
}

/// A frame's progress through coordinated recovery.
#[derive(Default)]
struct Recovery {
    /// Protocol state for this frame's resolution: the (reset) one an
    /// earlier instance of the frame left, else made when the frame first
    /// takes part in a resolution (`Frame::proto_ctx`) — most frames
    /// never recover, and their state was a boxed allocation per entry.
    resolver: Option<Box<dyn ResolverState>>,
    /// Resolution completed — later Exception/Suspended messages for this
    /// instance are stragglers and are dropped (termination model: nothing
    /// new can be raised within the action after handlers start).
    recovered: bool,
    /// Enclosing-level recovery is aborting this frame (its abortion
    /// handler may be running). In-flight recovery messages for the
    /// instance — e.g. a `Commit` whose resolution raced with the
    /// enclosing trigger — are stragglers and are dropped.
    aborting: bool,
    /// Set while this frame's exception handler runs.
    in_handler: Option<ExceptionId>,
    /// While a recovery is in flight (resolution start through signalling
    /// end): the members the recovery started with. Signalling ranges over
    /// `cohort ∩ current members` — peers readmitted mid-recovery have no
    /// handler verdict to announce. Also the join-deferral gate: rejoin
    /// grants are queued while this is `Some` and flushed before the exit
    /// protocol, so the view never grows mid-resolution or mid-signalling.
    cohort: Option<ThreadSet>,
    /// The exception this frame's recovery resolved to (set the moment the
    /// resolver reports agreement), handed to rejoiners so a restarted
    /// participant knows recovery already happened.
    resolved_exception: Option<ExceptionId>,
}

impl<D: AsRef<ActionSpec>> Frame<D> {
    /// A new frame for `def`'s actions, as [`Frame::leave`] leaves one:
    /// [`Frame::reenter`] it before use.
    #[cold]
    pub fn new(def: &Rc<D>) -> Box<Frame<D>> {
        Box::new(Frame {
            id: Identity {
                action: ActionId::top_level(0),
                def: Rc::clone(def),
                role: RoleId::new(0),
                me: ThreadId::new(0),
            },
            inbox: Inboxes::default(),
            recovery: Recovery::default(),
            signals: SignalTable::default(),
            exit: ExitBarrier::default(),
            view: FrameMembership::new(&(**def).as_ref().group),
        })
    }

    /// Binds a left frame to instance `action` of `def`, played as `role`
    /// by thread `me`, over the action's full group — the only way a frame
    /// is entered.
    #[inline]
    pub fn reenter(&mut self, action: ActionId, def: &Rc<D>, role: RoleId, me: ThreadId) {
        if !Rc::ptr_eq(&self.id.def, def) {
            self.id.def = Rc::clone(def);
        }
        self.id.action = action;
        self.id.role = role;
        self.id.me = me;
        self.view.reset(&self.id.spec().group);
    }

    /// Ends the frame's instance in place: its inboxes emptied (their
    /// capacity kept), its resolver state reset (dropped if it cannot be),
    /// its rounds and recovery back to where an entry starts them. Only the
    /// identity and the view are left to [`Frame::reenter`].
    #[inline]
    pub fn leave(&mut self) {
        self.inbox.control.clear();
        self.inbox.app.clear();
        self.inbox.joins.clear();
        let resolver = self.recovery.resolver.take();
        let resolver = resolver.and_then(|mut state| state.reset().then_some(state));
        self.recovery = Recovery {
            resolver,
            ..Recovery::default()
        };
        self.signals.clear();
        self.exit.clear();
    }

    /// Fast-forwards a just-entered frame to the state a `JoinGrant`
    /// describes: the granter's view, its exit epoch, and — when recovery
    /// already resolved — the resolved exception, so the restarted
    /// participant skips straight to the exit protocol.
    #[inline]
    pub fn rejoin(
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

    /// The members the signalling rounds range over, ascending: the
    /// recovery cohort that is still live. Peers readmitted mid-recovery
    /// never took part in this recovery's handling and have no verdict to
    /// announce, so they are excluded; crash-free frames never shrink the
    /// view and the cohort equals the full group.
    #[inline]
    fn signalling_members(&self) -> impl Iterator<Item = &ThreadId> {
        let cohort = self.recovery.cohort.as_ref();
        let members = self.view.members().iter();
        members.filter(move |&&t| cohort.is_none_or(|cohort| cohort.contains(t)))
    }

    /// `Frame::signalling_members`, as a snapshot to announce to.
    #[inline]
    fn signalling_group(&self) -> ViewSnapshot {
        self.signalling_members().copied().collect()
    }

    /// The frame's resolver — a fresh state of `protocol` the first time —
    /// together with the static context its events take: this thread, the
    /// instance, the *current* view and the action's exception graph.
    #[inline]
    fn proto_ctx(
        &mut self,
        protocol: &dyn ResolutionProtocol,
    ) -> (&mut dyn ResolverState, ProtoCtx<'_>) {
        let ctx = ProtoCtx {
            me: self.id.me,
            action: self.id.action,
            group: self.view.members(),
            graph: &self.id.spec().graph,
        };
        let resolver = self
            .recovery
            .resolver
            .get_or_insert_with(|| protocol.new_state());
        (resolver.as_mut(), ctx)
    }

    /// Decides what one message addressed to this frame's instance means
    /// while `round` is in progress, recording whatever it carries for a
    /// later round (signals, votes, application traffic, stashed triggers,
    /// a removal set for the view). `is_top` tells whether the frame is
    /// the active one.
    #[inline]
    pub fn absorb<F>(&mut self, msg: Message, is_top: bool, round: Round) -> RoundAction<F> {
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
                        // or exit wait, adopted without disturbing the
                        // round in progress: it re-derives its group from
                        // the view each pass. An announcer this view
                        // already removed is adopted too: in a symmetric
                        // mutual-eviction race (both time out within one
                        // latency) both views collapse into one removal set
                        // naming both, and each side steps aside. The
                        // asymmetric case (a minority counter-evicting a
                        // recently-alive majority) never gets here: the
                        // quorum gate refuses it before any broadcast.
                        msg @ Message::ViewChange { .. } => self.control(msg, false),
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
                    return RoundAction::Violation(Violation(
                        "resolution message received for enclosing action while nested".into(),
                    ));
                }
                match round {
                    Round::Resolution => self.control(msg, true),
                    Round::Body | Round::Object if trigger => {
                        // Control for the active action interrupts its body.
                        self.inbox.control.push_back(msg);
                        RoundAction::Interrupt(Unwind::Suspend)
                    }
                    Round::Body | Round::Object => RoundAction::Violation(Violation(format!(
                        "unexpected {} while body running",
                        msg.kind()
                    ))),
                    Round::Exit => match msg {
                        Message::Exception { .. } | Message::Suspended { .. } => {
                            // A peer started recovery while we were leaving:
                            // stash the trigger and join it.
                            self.inbox.control.push_back(msg);
                            RoundAction::End(RoundEnd::Recover)
                        }
                        // A peer's exit wait expired and it suspected
                        // someone, maybe us — not a missed recovery: a
                        // trigger arrives long before a suspicion, which
                        // waits out a whole bound first. Adopt the removals
                        // and keep exiting over the new view.
                        msg @ Message::ViewChange { .. } => self.control(msg, false),
                        other => RoundAction::Violation(Violation(format!(
                            "unexpected {} during exit",
                            other.kind()
                        ))),
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

    /// A control message in the resolution round (§3.3.2) if `resolving`,
    /// else a view change for the exit round or a recovered frame. A
    /// removal set is merged first, so a commit racing ahead of its
    /// `ViewChange` still shrinks the view; the resolver then hears the
    /// step or the message, and a `ViewChange` opens a fresh round.
    #[inline]
    fn control<F>(&mut self, msg: Message, resolving: bool) -> RoundAction<F> {
        let (removed, view_change) = match &msg {
            Message::ViewChange { removed, .. } => (Some(removed), true),
            Message::Commit { view_removed, .. } => (Some(view_removed), false),
            _ => (None, false),
        };
        let adopts = removed.is_some();
        let me = self.id.me;
        let step = removed.and_then(|removed| self.view.adopt_removals(me, removed));
        let hears = self.hears_steps(resolving);
        let feed = match &step {
            Some(step) if view_change && hears => Some(Feed::ViewChange(step.removed.clone())),
            _ if view_change || adopts && !hears => None,
            _ => Some(Feed::Control(msg)),
        };
        let rearm = resolving && view_change;
        RoundAction::Control { step, feed, rearm }
    }

    /// The one rule for whether the resolver hears of a view step or a
    /// commit: in resolution, while this thread is still in the view.
    #[inline]
    fn hears_steps(&self, resolving: bool) -> bool {
        resolving && !self.view.evicted
    }

    /// What the frame's resolver (made on first use) answers to `feed`, the
    /// view stamped into its `Commit`s; a resolved exception is recorded.
    #[inline]
    pub fn feed(&mut self, protocol: &dyn ResolutionProtocol, feed: Feed) -> ProtoActions {
        let (resolver, ctx) = self.proto_ctx(protocol);
        let mut actions = match feed {
            Feed::Raise(e) => resolver.on_event(&ctx, ProtoEvent::LocalRaise(&e)),
            Feed::Suspend => resolver.on_event(&ctx, ProtoEvent::LocalSuspend),
            Feed::Control(msg) => resolver.on_event(&ctx, ProtoEvent::Control(&msg)),
            Feed::ViewChange(removed) => {
                resolver.on_view_change(&ctx, &removed, &synthesize_crashes(&removed))
            }
        };
        // Epoch 0 (crash-free): the resolver's pre-stamped empty set stands.
        if self.view.epoch() > 0 {
            let removed = self.view.removed_shared();
            for (_, msg) in &mut actions.outbound {
                if let Message::Commit { view_removed, .. } = msg {
                    *view_removed = Rc::clone(&removed);
                }
            }
        }
        if actions.resolved.is_some() {
            self.recovery.resolved_exception = actions.resolved;
        }
        actions
    }

    /// Answers a restarted participant's `JoinRequest`: re-admits it into
    /// the view (epoch-numbered rejoin) and builds the grant carrying the
    /// current view, exit epoch and resolved exception so the joiner can
    /// fast-forward. If this thread already voted in the current exit
    /// epoch, the vote is re-sent — the original broadcast went to the
    /// joiner's pre-crash endpoint and was discarded. `None` when `joiner`
    /// was never part of this action's group.
    #[inline]
    pub fn grant_join(&mut self, joiner: ThreadId) -> Option<JoinGranted> {
        if !self.id.spec().group.contains(&joiner) {
            return None;
        }
        let me = self.id.me;
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

    // -- the steps between rounds, in the order a recovery takes them --

    /// An enclosing recovery aborts this frame (§3.3.1): its recovery
    /// traffic is stragglers from now on.
    #[inline]
    pub fn abort(&mut self) {
        self.recovery.aborting = true;
    }

    /// Begins a recovery (§3.3.2): pins the members it starts with — the
    /// signalling cohort and the join-deferral window — and forgets what an
    /// earlier recovery resolved. Then [`Frame::next_opening`] until it
    /// answers [`Opening::Announce`].
    #[inline]
    pub fn begin_recovery(&mut self) {
        self.recovery.cohort = Some(self.view.members().iter().copied().collect());
        self.recovery.resolved_exception = None;
    }

    /// The next step of a recovery's opening: a stashed trigger absorbed as
    /// if it arrived now, then this thread's own transition — unless a view
    /// change among them removed it.
    #[inline]
    pub fn next_opening<F>(&mut self) -> Opening<F> {
        match self.inbox.control.pop_front() {
            Some(msg) => Opening::Stashed(self.absorb(msg, true, Round::Resolution)),
            None if self.view.evicted => Opening::Excluded,
            None => Opening::Announce,
        }
    }

    /// Hands back the `outbound` list of an answer [`Frame::feed`] gave,
    /// once the host sent what was in it, for the resolver to fill again.
    #[inline]
    pub fn recycle(&mut self, outbound: Vec<(ThreadId, Message)>) {
        if let Some(resolver) = &mut self.recovery.resolver {
            resolver.recycle(outbound);
        }
    }

    /// The resolution round ended with `end`: agreement marks the frame
    /// recovered and starts its handler (until [`Frame::handled`]); `None`
    /// when a view change evicted this thread.
    #[inline]
    pub fn resolved(&mut self, end: RoundEnd) -> Option<ExceptionId> {
        let RoundEnd::Resolved(resolved) = end else {
            return None;
        };
        self.recovery.recovered = true;
        self.recovery.in_handler = Some(resolved);
        Some(resolved)
    }

    /// The exception this thread's handler is handling, while it runs.
    #[inline]
    pub fn handling(&self) -> Option<&ExceptionId> {
        self.recovery.in_handler.as_ref()
    }

    /// This thread's handler returned or unwound.
    #[inline]
    pub fn handled(&mut self) {
        self.recovery.in_handler = None;
    }

    /// Records this thread's own `signal` for exchange `round` of §3.4 and
    /// answers whom to announce it to: the recovery cohort still live.
    #[inline]
    pub fn announce_signal(&mut self, round: SignalRound, signal: &Signal) -> ViewSnapshot {
        self.signals.record(round, self.id.me, signal.clone());
        self.signalling_group()
    }

    /// The recovery's rounds are over: opens the next exit epoch, then
    /// closes the join-deferral window and answers the rejoins it deferred,
    /// in arrival order, to grant in that epoch.
    #[inline]
    pub fn end_recovery(&mut self) -> ViewSnapshot {
        self.exit.open_next_epoch();
        self.recovery.cohort = None;
        self.inbox.joins.drain(..).collect()
    }

    /// Casts this thread's exit vote (§5.1): its epoch and the view to
    /// announce it to — `None` when a view change removed this thread,
    /// whose vote the survivors no longer count.
    #[inline]
    pub fn vote_exit(&mut self) -> Option<(u32, ViewSnapshot)> {
        if self.view.evicted {
            return None;
        }
        let epoch = self.exit.vote(self.id.me);
        Some((epoch, ViewSnapshot::from_slice(self.view.members())))
    }

    /// The exit epoch this thread votes in next.
    #[inline]
    pub fn exit_epoch(&self) -> u32 {
        self.exit.epoch
    }

    /// The next buffered application message, in arrival order.
    #[inline]
    pub fn next_app(&mut self) -> Option<AppMsg> {
        self.inbox.app.pop_front()
    }

    /// Forgets the resolver state an earlier instance left, for a host that
    /// runs the frame under another protocol.
    #[inline]
    pub fn forget_resolver(&mut self) {
        self.recovery.resolver = None;
    }
}

/// A step of a recovery's opening ([`Frame::next_opening`]).
#[derive(Debug)]
pub enum Opening<F> {
    /// What absorbing a stashed trigger decided: perform it, ask again.
    Stashed(RoundAction<F>),
    /// Feed the resolver this thread's own raise or suspension.
    Announce,
    /// A stashed view change removed this thread: it gives up silently.
    Excluded,
}

/// A survivor's answer to a `JoinRequest` (see [`Frame::grant_join`]): the
/// epoch the joiner was re-admitted at (when the view had removed it), the
/// `JoinGrant`, and this thread's exit vote again if it already voted.
#[derive(Debug)]
pub struct JoinGranted {
    /// The epoch the joiner was re-admitted at.
    pub readmitted: Option<u32>,
    /// The `JoinGrant` to send it.
    pub grant: Message,
    /// This thread's exit vote, to send it again.
    pub revote: Option<Message>,
}

/// What a received message means while `round` is in progress, with the
/// index of the frame it addresses: asked of the frame of its instance on
/// `stack`, or — when it has none here — of the retention rule
/// (`unframed`; `finished` holds the sorted serials of the instances this
/// thread left, `retained` how many messages it holds back).
#[inline]
pub fn classify<D: AsRef<ActionSpec>, F>(
    msg: Option<Message>,
    round: Round,
    stack: &mut [impl AsMut<Frame<D>>],
    finished: &[u64],
    retained: usize,
    me: ThreadId,
) -> (usize, RoundAction<F>) {
    let depth = stack.len();
    let Some(msg) = msg else {
        let top = depth.saturating_sub(1);
        return (top, corrupted(stack.last_mut().map(AsMut::as_mut), round));
    };
    let action = msg.action();
    match stack
        .iter_mut()
        .position(|f| f.as_mut().id.action == action)
    {
        Some(i) => (i, stack[i].as_mut().absorb(msg, i + 1 == depth, round)),
        None => {
            let finished = finished.binary_search(&action.serial()).is_ok();
            (depth, unframed(msg, round, me, finished, retained))
        }
    }
}

/// Upper bound on retained messages: instances a thread never enters (e.g.
/// a peer's raise inside an action abandoned by recovery) would otherwise
/// accumulate their triggers forever.
const RETAINED_CAP: usize = 4096;

/// Decides what a message for an instance that has no frame here means:
/// the grant a [`Round::Join`] wait is for, a straggler if the instance
/// `finished` at this thread, else retained up to the cap.
#[inline]
fn unframed<F>(
    msg: Message,
    round: Round,
    me: ThreadId,
    finished: bool,
    retained: usize,
) -> RoundAction<F> {
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
#[inline]
fn corrupted<D: AsRef<ActionSpec>, F>(
    frame: Option<&mut Frame<D>>,
    round: Round,
) -> RoundAction<F> {
    match (round, frame) {
        // A corrupted message during normal computation raises the action's
        // corruption exception (Figure 7's `l_mes`).
        (Round::Body | Round::Object, Some(frame))
            if frame.recovery.in_handler.is_none() && !frame.recovery.recovered =>
        {
            let e = Exception::new(frame.id.spec().corruption_exception)
                .with_origin(frame.id.me)
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
pub struct Collected {
    /// Some member announced ƒ (or was silent at expiry, which counts as ƒ).
    pub failure: bool,
    /// Some member announced µ.
    pub undo: bool,
}

impl Collected {
    /// An exchange that did not coordinate: ƒ.
    pub const FAILED: Collected = Collected {
        failure: true,
        undo: false,
    };
}

/// Signalling announcements seen (§3.4), one `Exchange` per exchange.
#[derive(Debug, Default)]
struct SignalTable {
    exchanges: [Exchange; 2],
    /// A corrupted message arrived during a signalling collection.
    corrupted: bool,
}

/// One exchange's announcements, as what §3.4 reads of them: who
/// announced, and who said ƒ and who said µ in their latest announcement.
#[derive(Debug, Default)]
struct Exchange {
    announced: ThreadSet,
    failure: ThreadSet,
    undo: ThreadSet,
}

impl Exchange {
    #[inline]
    fn record(&mut self, from: ThreadId, signal: &Signal) {
        self.announced.insert(from);
        self.failure.set(from, *signal == Signal::Failure);
        self.undo.set(from, *signal == Signal::Undo);
    }

    #[inline]
    fn clear(&mut self) {
        self.announced.clear();
        self.failure.clear();
        self.undo.clear();
    }
}

impl SignalTable {
    #[inline]
    fn slot(round: SignalRound) -> usize {
        match round {
            SignalRound::First => 0,
            SignalRound::AfterUndo => 1,
        }
    }

    /// Records `from`'s announcement for `round` (the latest one wins).
    #[inline]
    fn record(&mut self, round: SignalRound, from: ThreadId, signal: Signal) {
        self.exchanges[Self::slot(round)].record(from, &signal);
    }

    /// What `group` announced for `round`, once every member has.
    #[inline]
    fn complete<'a>(
        &self,
        round: SignalRound,
        group: impl IntoIterator<Item = &'a ThreadId>,
    ) -> Option<Collected> {
        let exchange = &self.exchanges[Self::slot(round)];
        let mut collected = Collected::default();
        for &t in group {
            if !exchange.announced.contains(t) {
                return None;
            }
            collected.failure |= exchange.failure.contains(t);
            collected.undo |= exchange.undo.contains(t);
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
    #[inline]
    fn expire(
        &mut self,
        round: SignalRound,
        group: &[ThreadId],
        me: ThreadId,
    ) -> (ViewSnapshot, Collected) {
        let exchange = &mut self.exchanges[Self::slot(round)];
        let mut silent = ViewSnapshot::new();
        for &t in group {
            if !exchange.announced.contains(t) {
                if t != me {
                    silent.push(t);
                }
                exchange.record(t, &Signal::Failure);
            }
        }
        let collected = self
            .complete(round, group)
            .expect("every member announced or was filled in");
        (silent, collected)
    }

    /// §3.4 case 3: some thread announced ƒ, or information was lost while
    /// collecting — ƒ dominates.
    #[inline]
    fn failed(&self, collected: Collected) -> bool {
        self.corrupted || collected.failure
    }

    /// Forgets every announcement and the corruption mark.
    #[inline]
    fn clear(&mut self) {
        for exchange in &mut self.exchanges {
            exchange.clear();
        }
        self.corrupted = false;
    }
}

/// The synchronous exit protocol's vote barrier (§5.1).
#[derive(Debug, Default)]
struct ExitBarrier {
    /// Who voted in the current epoch.
    votes: ThreadSet,
    /// Votes of later epochs, as `(epoch, voter)` pairs until their epoch
    /// opens (a peer that recovered ahead of this thread votes in the next
    /// epoch before this thread opens it).
    early: InlineVec<(u32, ThreadId), GROUP_INLINE>,
    /// The exit epoch this thread votes in next: 0 for normal completion,
    /// bumped by each completed recovery.
    epoch: u32,
    /// This frame was fast-forwarded by a rejoin grant ([`Frame::rejoin`])
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
    #[inline]
    fn record(&mut self, epoch: u32, from: ThreadId) {
        if epoch == self.epoch {
            self.votes.insert(from);
        } else if epoch > self.epoch && !self.early.contains(&(epoch, from)) {
            self.early.push((epoch, from));
        }
    }

    /// Casts this thread's own vote; returns the epoch it votes in.
    #[inline]
    fn vote(&mut self, me: ThreadId) -> u32 {
        self.votes.insert(me);
        self.epoch
    }

    /// A completed recovery opens the next exit epoch: the votes of the
    /// one it closes no longer count, the early ones for it do.
    #[inline]
    fn open_next_epoch(&mut self) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.votes.clear();
        for &(e, voter) in self.early.iter() {
            if e == epoch {
                self.votes.insert(voter);
            }
        }
        self.early.retain(|&(e, _)| e > epoch);
    }

    #[inline]
    fn voted(&self, epoch: u32, thread: ThreadId) -> bool {
        if epoch == self.epoch {
            self.votes.contains(thread)
        } else {
            self.early.contains(&(epoch, thread))
        }
    }

    /// The members of `view` whose vote in the current epoch is missing.
    #[inline]
    fn silent<'a>(&'a self, view: &'a [ThreadId]) -> impl Iterator<Item = ThreadId> + 'a {
        view.iter().copied().filter(|&t| !self.votes.contains(t))
    }

    /// Back to epoch 0 with no votes, for the frame's next instance.
    #[inline]
    fn clear(&mut self) {
        self.votes.clear();
        self.early.clear();
        self.epoch = 0;
        self.is_rejoiner = false;
    }
}

/// What a thread's wait serves: one of the four bounded-collect rounds of
/// the protocol, a shared-object acquisition, or nothing in particular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Round {
    /// Not a round: a role body (or handler) at a poll point.
    Body,
    /// A role body's shared-object acquisition
    /// (the host's acquisition): a body poll point that also wakes
    /// on its doorbell. A message means what it means to the body. The
    /// scheduled crash instant is only the wait's deadline here, so what
    /// is due at that instant — messages, the doorbell — is taken first.
    Object,
    /// §3.3.2: every member's `Exception`/`Suspended` entry, then the
    /// elected resolver's `Commit`.
    Resolution,
    /// §3.4: one exchange of `toBeSignalled` announcements.
    Signalling(SignalRound),
    /// §5.1: the exit-vote barrier of the frame's current exit epoch.
    Exit,
    /// Epoch-numbered rejoin: a restarted participant (which has no frame
    /// yet) waits for the first `JoinGrant` re-admitting it into `action`.
    Join {
        /// The instance the restarted participant rejoins.
        action: ActionId,
    },
}

/// What a round decision wants the driver to do.
#[derive(Debug)]
pub enum RoundAction<F> {
    /// Nothing (more): the event was recorded, buffered or dropped as a
    /// straggler. Keep collecting.
    Continue,
    /// The round ended.
    End(RoundEnd),
    /// A message for the addressed frame's recovery: count and log the
    /// `step` it made the view take, feed the active frame's resolver, and
    /// — `rearm` — restart the round's bound.
    Control {
        /// The step the view took.
        step: Option<ViewStep>,
        /// What the resolver hears.
        feed: Option<Feed>,
        /// Whether the round's bound starts afresh.
        rearm: bool,
    },
    /// Grant this restarted participant's rejoin at the addressed frame.
    Grant(ThreadId),
    /// For an action this thread has not entered yet: "retain the Exception
    /// or Suspended message till Ti enters A*" (§3.3.2).
    Retain(Message),
    /// Retainable, but `RETAINED_CAP` messages are held: dropped, counted.
    CapDropped,
    /// Count a corrupted message that is otherwise ignored.
    CountCorrupted,
    /// Recovery takes over: unwind the role body.
    Interrupt(Unwind<F>),
    /// The event cannot occur in a correct run.
    Violation(Violation),
}

/// What a round's deadline decides ([`Round::expired`]).
///
/// Made and performed once per expired deadline, and moved once: boxing
/// the suspicion would add an allocation to every expiry.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Expiry {
    /// Nothing: a body's own deadline.
    Ignored,
    /// The round ends, suspecting nobody.
    End(RoundEnd),
    /// The wait expired with these suspects silent,
    /// and the suspicion was decided; then conclude with the end or — `None`
    /// — re-arm the deadline and keep collecting over the new view.
    Suspect(ViewSnapshot, Result<Suspicion, Violation>, Option<RoundEnd>),
    /// The expiry cannot occur in a correct run.
    Violation(Violation),
}

/// What a frame's resolver is fed ([`Frame::feed`]): this thread's raise or
/// suspension, a control message, or a view step's removals (presume-ƒ).
#[derive(Debug)]
pub enum Feed {
    /// This thread raised the exception.
    Raise(Exception),
    /// This thread suspends.
    Suspend,
    /// A control message arrived.
    Control(Message),
    /// The view removed these threads.
    ViewChange(ViewSnapshot),
}

/// A decision no correct run takes, named: the thread performing it ends
/// with a protocol error carrying the text.
#[derive(Debug, PartialEq, Eq)]
pub struct Violation(pub String);

/// How a round ended.
#[derive(Debug)]
pub enum RoundEnd {
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
    #[inline]
    pub fn status<D: AsRef<ActionSpec>>(self, frame: Option<&Frame<D>>) -> Option<RoundEnd> {
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
                .complete(round, frame.signalling_members())
                .map(RoundEnd::Signals),
            Round::Exit => frame
                .exit
                .silent(frame.view.members())
                .next()
                .is_none()
                .then_some(RoundEnd::Exited),
            Round::Body | Round::Object | Round::Join { .. } => None,
        }
    }

    /// The round's deadline expired: who is silent, what the quorum gate
    /// makes of them, and what follows. (`protocol` for a resolution wait
    /// that expires on a frame no event was fed to yet: its fresh state
    /// still names whom it waits on.)
    #[inline]
    pub fn expired<D: AsRef<ActionSpec>>(
        self,
        frame: Option<&mut Frame<D>>,
        protocol: &dyn ResolutionProtocol,
    ) -> Expiry {
        let frame = match (self, frame) {
            // A body's own deadline: nothing follows.
            (Round::Body | Round::Object, _) => return Expiry::Ignored,
            // The grant wait: no survivor answered.
            (_, None) => return Expiry::End(RoundEnd::Excluded),
            (_, Some(frame)) => frame,
        };
        match self {
            // Presume the peers the resolver is blocked on crashed; the
            // applied view change opens a fresh round for the shrunken view.
            Round::Resolution => {
                let (resolver, ctx) = frame.proto_ctx(protocol);
                let suspects = resolver.waiting_on(&ctx);
                if suspects.is_empty() {
                    return Expiry::Violation(Violation(
                        "bounded resolution wait expired but the protocol reports no suspects \
                         (resolution protocol without membership support?)"
                            .into(),
                    ));
                }
                let decided = frame.view.suspect(&suspects, frame.hears_steps(true));
                Expiry::Suspect(suspects, decided, None)
            }
            // The §3.4 timeout is a per-round deadline — unrelated traffic
            // must not extend the wait — so expiry concludes the exchange.
            Round::Signalling(round) => {
                let (silent, collected) =
                    frame
                        .signals
                        .expire(round, &frame.signalling_group(), frame.id.me);
                // Against a degraded view (a crash was detected earlier in
                // this action) a missing announcement is presumed another
                // crash, not a §3.4 loss: suspect the silent peers, so the
                // exit round will not wait for them. Against a pristine view
                // the ƒ rule stands alone (the exit round catches a crash).
                let then = RoundEnd::Signals(collected);
                if frame.view.epoch() > 0 && !frame.view.evicted && !silent.is_empty() {
                    let decided = frame.view.suspect(&silent, false);
                    Expiry::Suspect(silent, decided, Some(then))
                } else {
                    Expiry::End(then)
                }
            }
            Round::Exit if frame.exit.is_rejoiner => Expiry::Suspect(
                ViewSnapshot::new(),
                Ok(Suspicion::GiveUp),
                Some(RoundEnd::Excluded),
            ),
            // Round-agnostic suspicion: presume the silent peers crashed
            // and keep collecting votes over the shrunken view — the action
            // concludes among the survivors instead of resolving to ƒ
            // wholesale.
            Round::Exit => {
                let silent: ViewSnapshot = frame.exit.silent(frame.view.members()).collect();
                let decided = frame.view.suspect(&silent, false);
                Expiry::Suspect(silent, decided, None)
            }
            Round::Body | Round::Object | Round::Join { .. } => Expiry::Ignored,
        }
    }
}

/// Why a role body is being unwound; `F` is the host's fatal error.
#[derive(Debug)]
pub enum Unwind<F> {
    /// The role itself raised an exception in its active action.
    Raise(Exception),
    /// A peer's exception (already recorded at the active frame) requires
    /// this role to suspend and join recovery of its active action.
    Suspend,
    /// Recovery is required at the enclosing action `target`; frames below
    /// it must abort on the way out. `eab` carries the exception raised by
    /// the most recently executed abortion handler (only the handler of the
    /// action directly inside `target` survives, per §3.3.1).
    Outer {
        /// Where recovery runs.
        target: ActionId,
        /// The last abortion handler's exception.
        eab: Option<Exception>,
    },
    /// The participant crash-stopped (simulated process death): frames are
    /// discarded silently on the way out, no handlers run, no messages are
    /// sent.
    Crash,
    /// Unrecoverable error; propagates to the thread's top level.
    Fatal(F),
}

/// Where an unwind that reached a frame lands (§3.3.1).
#[derive(Debug)]
pub enum Landing<F> {
    /// Recovery starts at this frame, with this thread's raise or its
    /// suspension: what the resolver is fed first.
    Recover(Feed),
    /// Recovery lands further out, at `target`: this frame is aborted on
    /// the way, and its abortion handler's result ([`aborted`]) carries the
    /// cascade on.
    Abort {
        /// Where recovery runs.
        target: ActionId,
    },
    /// A crash-stop or a fatal error passes through: the frame is discarded
    /// with no handler.
    Dead(Unwind<F>),
}

/// Where `unwind` lands at the frame of instance `at`.
#[inline]
pub fn land<F>(unwind: Unwind<F>, at: ActionId) -> Landing<F> {
    match unwind {
        Unwind::Raise(e) => Landing::Recover(Feed::Raise(e)),
        Unwind::Suspend => Landing::Recover(Feed::Suspend),
        // Recovery lands here: the abortion-handler exception of the
        // directly nested action (if any) is raised, else this thread
        // suspends.
        Unwind::Outer { target, eab } if target == at => Landing::Recover(match eab {
            Some(e) => Feed::Raise(e),
            None => Feed::Suspend,
        }),
        Unwind::Outer { target, .. } => Landing::Abort { target },
        dead @ (Unwind::Crash | Unwind::Fatal(_)) => Landing::Dead(dead),
    }
}

/// What the abortion handler of a frame aborted on the way to `target`
/// came to: `Ok((eab, next))` — the frame is aborted reporting `eab`, and
/// `next` carries the cascade on — or `Err(dead)` when the handler
/// crash-stopped or failed fatally. A handler reports `Eab` by returning or
/// raising it; a trigger for an action further out extends the cascade.
#[inline]
pub fn aborted<F>(
    result: Result<Option<Exception>, Unwind<F>>,
    target: ActionId,
) -> Result<(Option<ExceptionId>, Unwind<F>), Unwind<F>> {
    let eab = match result {
        Ok(eab) => eab,
        Err(Unwind::Raise(e)) => Some(e),
        Err(Unwind::Suspend) => None,
        Err(outer @ Unwind::Outer { .. }) => return Ok((None, outer)),
        Err(dead) => return Err(dead),
    };
    Ok((eab.as_ref().map(|e| *e.id()), Unwind::Outer { target, eab }))
}

/// Where a frame's §3.4 signalling stands: the handler returned, this
/// thread undid its effects as [`SignalStep::Undo`] asked (coming to µ,
/// or ƒ if an undo operation failed), or an exchange collected.
#[derive(Debug)]
pub enum Signalled {
    /// The handler returned.
    Handled,
    /// This thread undid its effects.
    Undone {
        /// µ, or ƒ when an undo operation failed.
        signal: Signal,
        /// Whether it was a lone thread's local undo.
        alone: bool,
    },
    /// An exchange collected.
    Exchanged(SignalRound, Collected),
}

/// What §3.4's signalling asks of the driver next: an exchange of this
/// signal, an undo — case 2's, or (`alone`) a lone thread's local one —,
/// or the signal this thread leaves with.
#[derive(Debug, PartialEq, Eq)]
pub enum SignalStep {
    /// Announce this signal in this exchange and collect the others'.
    Exchange(SignalRound, Signal),
    /// Undo this thread's effects.
    Undo {
        /// A lone thread's local undo rather than case 2's round.
        alone: bool,
    },
    /// The signal this thread leaves with.
    Done(Signal),
}

/// §3.4's case analysis for a thread whose handler came to `mine`, at
/// `frame`, after `at`.
#[inline]
pub fn signalling<D: AsRef<ActionSpec>>(
    frame: &Frame<D>,
    mine: &Signal,
    at: Signalled,
) -> SignalStep {
    match at {
        // Removed from the view: the survivors no longer expect our
        // announcements; any broadcast would only confuse their rounds.
        Signalled::Handled if frame.view.evicted => SignalStep::Done(Signal::Failure),
        // The group is the current view: presumed-crashed members are not
        // waited on. Alone, no coordination is needed; µ still requires
        // the local undo.
        Signalled::Handled if frame.signalling_members().count() == 1 => match mine {
            Signal::Undo => SignalStep::Undo { alone: true },
            other => SignalStep::Done(other.clone()),
        },
        Signalled::Handled => SignalStep::Exchange(SignalRound::First, mine.clone()),
        Signalled::Undone { signal, alone } if alone => SignalStep::Done(signal),
        Signalled::Undone { signal, .. } => SignalStep::Exchange(SignalRound::AfterUndo, signal),
        // Case 3: ƒ dominates — every thread signals ƒ.
        Signalled::Exchanged(_, collected) if frame.signals.failed(collected) => {
            SignalStep::Done(Signal::Failure)
        }
        // Case 1: everyone signals its own exception (or nothing).
        Signalled::Exchanged(SignalRound::First, c) if !c.undo => SignalStep::Done(mine.clone()),
        // Case 2: µ requested — all threads undo, then exchange again.
        Signalled::Exchanged(SignalRound::First, _) => SignalStep::Undo { alone: false },
        Signalled::Exchanged(SignalRound::AfterUndo, _) => SignalStep::Done(Signal::Undo),
    }
}

/// How an action leaves once its exit round ended.
#[derive(Debug, PartialEq, Eq)]
pub enum Leave {
    /// The action ends with this outcome.
    Finalize(ActionOutcome),
    /// A peer started recovery while this thread was leaving: join it.
    Recover,
}

/// How an action leaves once its exit round ended with `end`; `signalled`
/// is what its recovery's signalling concluded, `None` when the body
/// completed normally.
#[inline]
pub fn leave(end: RoundEnd, signalled: Option<ActionOutcome>) -> Result<Leave, Violation> {
    match (end, signalled) {
        (RoundEnd::Exited, outcome) => {
            Ok(Leave::Finalize(outcome.unwrap_or(ActionOutcome::Success)))
        }
        (RoundEnd::Recover, None) => Ok(Leave::Recover),
        // Stragglers cannot re-trigger (the frame is marked recovered).
        (RoundEnd::Recover, Some(_)) => {
            Err(Violation("recovery re-triggered after signalling".into()))
        }
        // A peer's view change removed this thread (or a rejoiner gave up):
        // the survivors conclude without us. ƒ dominates whatever the
        // signalling concluded, so objects are tainted, not left hanging.
        _ => Ok(Leave::Finalize(ActionOutcome::Failed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ProtoEvent, XrrResolution};
    use caa_core::state::ParticipantState;
    use caa_exgraph::ExceptionGraphBuilder;

    fn t(n: u32) -> ThreadId {
        ThreadId::new(n)
    }

    const ACTION: ActionId = ActionId::top_level(7);

    /// Thread `group[0]`'s frame of an action over `group` (ascending),
    /// whose graph knows the universal exception alone.
    fn frame_over(group: &[u32]) -> Frame<ActionSpec> {
        let graph = ExceptionGraphBuilder::new()
            .exception(ExceptionId::universal())
            .build()
            .expect("a valid graph");
        let spec = Rc::new(ActionSpec {
            group: group.iter().map(|&n| t(n)).collect(),
            graph: Rc::new(graph),
            corruption_exception: ExceptionId::new("l_mes"),
        });
        let mut frame = Frame::new(&spec);
        frame.reenter(ACTION, &spec, RoleId::new(0), t(group[0]));
        *frame
    }

    /// Thread 0's frame of a three-party action: no network, no system.
    fn frame() -> Frame<ActionSpec> {
        frame_over(&[0, 1, 2])
    }

    /// A host's fatal error, as far as these tables care.
    type Fatal = &'static str;

    /// [`Frame::absorb`] for a host whose fatal errors are [`Fatal`].
    fn absorb(
        f: &mut Frame<ActionSpec>,
        msg: Message,
        is_top: bool,
        round: Round,
    ) -> RoundAction<Fatal> {
        f.absorb(msg, is_top, round)
    }

    /// [`super::corrupted`], likewise.
    fn corrupted(frame: Option<&mut Frame<ActionSpec>>, round: Round) -> RoundAction<Fatal> {
        super::corrupted(frame, round)
    }

    /// [`super::unframed`], likewise.
    fn unframed(
        msg: Message,
        round: Round,
        me: ThreadId,
        finished: bool,
        retained: usize,
    ) -> RoundAction<Fatal> {
        super::unframed(msg, round, me, finished, retained)
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

    /// What the first exchange reads of each member of `group`, in group
    /// order: `None` while it is silent, else whether it said ƒ or µ.
    fn announced(table: &SignalTable, group: &[ThreadId]) -> Vec<Option<Collected>> {
        group
            .iter()
            .map(|t| table.complete(SignalRound::First, [t]))
            .collect()
    }

    /// What the rounds read of a member that announced nothing special
    /// (no signal, or its own exception), ƒ, or µ.
    const NONE: Collected = Collected {
        failure: false,
        undo: false,
    };
    const FAIL: Collected = Collected::FAILED;
    const UNDO: Collected = Collected {
        failure: false,
        undo: true,
    };

    #[test]
    fn signalling_completes_over_a_shrunk_view() {
        let mut f = frame();
        f.signals.record(SignalRound::First, t(0), Signal::None);
        f.signals.record(SignalRound::First, t(1), Signal::Undo);
        assert!(FIRST.status(Some(&f)).is_none(), "T2 has not announced");
        // A view change adopted mid-round removes the silent member: the
        // re-derived group is complete.
        f.view.adopt_removals(t(0), &[t(2)]).expect("T2 was live");
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
            [Some(NONE), Some(UNDO)]
        );
    }

    #[test]
    fn the_latest_announcement_wins_and_exchanges_do_not_mix() {
        let mut table = SignalTable::default();
        let group = [t(0), t(1)];
        table.record(SignalRound::First, t(1), Signal::Undo);
        table.record(SignalRound::First, t(0), Signal::None);
        table.record(SignalRound::First, t(1), Signal::Failure);
        assert_eq!(announced(&table, &group), [Some(NONE), Some(FAIL)]);
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
            [Some(NONE), Some(FAIL)],
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
        match FIRST.expired(Some(&mut f), &XrrResolution) {
            Expiry::End(RoundEnd::Signals(collected)) => {
                assert!(collected.failure && !collected.undo);
                assert!(f.signals.failed(collected));
            }
            other => panic!("expected an ƒ-filled conclusion, got {other:?}"),
        }
        assert_eq!(
            announced(&f.signals, &[t(0), t(1), t(2)]),
            [Some(NONE), Some(FAIL), Some(FAIL)],
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
            [Some(FAIL), Some(FAIL), Some(UNDO), Some(FAIL)]
        );
        // A late announcement still replaces the presumed ƒ.
        table.record(SignalRound::First, t(7), Signal::None);
        assert_eq!(announced(&table, &[t(7)]), [Some(NONE)]);
    }

    #[test]
    fn signalling_expiry_suspects_only_against_a_degraded_view() {
        let mut f = frame();
        f.view.adopt_removals(t(0), &[t(2)]).expect("T2 was live");
        f.signals.record(SignalRound::First, t(0), Signal::None);
        match FIRST.expired(Some(&mut f), &XrrResolution) {
            Expiry::Suspect(suspects, Ok(Suspicion::Evict(step, _, feed)), then) => {
                assert_eq!(&suspects[..], [t(1)], "epoch > 0: silence is another crash");
                assert_eq!(
                    (step.epoch, &step.removed[..], feed),
                    (2, &[t(1)][..], false)
                );
                assert!(matches!(then, Some(RoundEnd::Signals(c)) if c.failure));
                assert_eq!(
                    announced(&f.signals, &[t(0), t(1)]),
                    [Some(NONE), Some(FAIL)]
                );
            }
            other => panic!("expected suspicion, got {other:?}"),
        }
        // An evicted frame suspects nobody, whatever the epoch.
        let mut f = frame();
        f.view.adopt_removals(t(0), &[t(2)]).expect("T2 was live");
        f.view.evicted = true;
        assert!(matches!(
            FIRST.expired(Some(&mut f), &XrrResolution),
            Expiry::End(RoundEnd::Signals(_))
        ));
    }

    #[test]
    fn corruption_during_signalling_forces_failure() {
        let mut f = frame();
        assert!(matches!(
            corrupted(Some(&mut f), FIRST),
            RoundAction::Continue
        ));
        assert!(f.signals.failed(Collected::default()));
        // Elsewhere it is counted — or, in a body, raised.
        assert!(matches!(
            corrupted(Some(&mut f), Round::Exit),
            RoundAction::CountCorrupted
        ));
        assert!(matches!(
            corrupted(Some(&mut f), Round::Body),
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
            absorb(&mut f, app, true, Round::Body),
            RoundAction::Continue
        ));
        f.exit.vote(t(0));
        f.exit.record(0, t(1));
        assert!(matches!(
            Round::Exit.expired(Some(&mut f), &XrrResolution),
            Expiry::Suspect(..)
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
        match Round::Resolution.expired(Some(&mut f), &XrrResolution) {
            Expiry::Suspect(suspects, _, None) => {
                assert_eq!(&suspects[..], [t(0), t(1), t(2)]);
            }
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
            Round::Resolution.expired(Some(&mut frame()), &Mute),
            Expiry::Violation(_)
        ));
    }

    // -- exit barrier ----------------------------------------------------

    #[test]
    fn exit_completes_when_suspicion_shrinks_the_view() {
        let mut f = frame();
        assert_eq!(f.exit.vote(t(0)), 0);
        f.exit.record(0, t(1));
        assert!(Round::Exit.status(Some(&f)).is_none(), "T2 has not voted");
        match Round::Exit.expired(Some(&mut f), &XrrResolution) {
            Expiry::Suspect(suspects, Ok(Suspicion::Evict(_, recipients, _)), None) => {
                assert_eq!(&suspects[..], [t(2)]);
                assert_eq!(&recipients[..], [t(0), t(1), t(2)]);
            }
            other => panic!("expected an eviction and a re-armed wait, got {other:?}"),
        }
        assert!(matches!(
            Round::Exit.status(Some(&f)),
            Some(RoundEnd::Exited)
        ));
    }

    #[test]
    fn exit_requires_a_readmitted_members_vote_again() {
        let mut f = frame();
        f.view.suspect(&[t(2)], false).expect("T2 was live");
        f.exit.vote(t(0));
        f.exit.record(0, t(1));
        assert!(matches!(
            Round::Exit.status(Some(&f)),
            Some(RoundEnd::Exited)
        ));
        // A granted rejoin grows the view mid-round.
        let granted = f.grant_join(t(2)).expect("T2 is in the group");
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
            Round::Exit.expired(Some(&mut f), &XrrResolution),
            Expiry::Suspect(_, Ok(Suspicion::GiveUp), Some(RoundEnd::Excluded))
        ));
        assert_eq!(f.view.members(), [t(0), t(1), t(2)], "nobody suspected");
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
        let granted = f.grant_join(t(1)).expect("T1 is in the group");
        assert_eq!(granted.readmitted, None, "T1 was never removed");
        assert!(granted.revote.is_none(), "no vote cast yet");
        f.exit.vote(t(0));
        let granted = f.grant_join(t(1)).expect("T1 is in the group");
        assert!(matches!(
            granted.revote,
            Some(Message::ExitVote { epoch: 0, from, .. }) if from == t(0)
        ));
        // A recovery opens the next exit epoch: the old vote does not count.
        f.exit.open_next_epoch();
        f.recovery.resolved_exception = Some(ExceptionId::new("e"));
        let granted = f.grant_join(t(1)).expect("T1 is in the group");
        assert!(granted.revote.is_none());
        assert!(matches!(
            granted.grant,
            Message::JoinGrant { thread, exit_epoch: 1, resolved: Some(_), .. } if thread == t(1)
        ));
        assert!(f.grant_join(t(9)).is_none(), "T9 is not in the group");
    }

    #[test]
    fn join_requests_are_deferred_while_a_recovery_is_in_flight() {
        let mut f = frame();
        let request = || Message::JoinRequest {
            action: ACTION,
            from: t(2),
        };
        assert!(matches!(
            absorb(&mut f, request(), true, Round::Body),
            RoundAction::Grant(j) if j == t(2)
        ));
        f.recovery.cohort = Some(f.view.members().iter().copied().collect());
        assert!(matches!(
            absorb(&mut f, request(), true, Round::Resolution),
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
            join.expired::<ActionSpec>(None, &XrrResolution),
            Expiry::End(RoundEnd::Excluded)
        ));
    }

    // -- leaving and re-entering ------------------------------------------

    /// Every part of `f` but the resolver state, as text: what a left and
    /// re-entered frame is compared with a new one by. (A left frame keeps
    /// the reset resolver state of an earlier instance, which a new frame
    /// makes on first use.)
    fn snapshot(f: &Frame<ActionSpec>) -> String {
        let (id, inbox, recovery) = (&f.id, &f.inbox, &f.recovery);
        format!(
            "{:?}",
            (
                (id.action, id.role, id.me, Rc::as_ptr(&id.def)),
                (inbox.control.len(), inbox.app.len(), inbox.joins.len()),
                (recovery.recovered, recovery.aborting, recovery.in_handler),
                (&recovery.cohort, recovery.resolved_exception),
                (&f.signals, &f.exit, &f.view),
            )
        )
    }

    /// Feeds `f`'s resolver what `action` says it hears, if anything.
    fn hear(f: &mut Frame<ActionSpec>, action: RoundAction<Fatal>) {
        match action {
            RoundAction::Continue | RoundAction::Control { feed: None, .. } => {}
            RoundAction::Control {
                feed: Some(feed), ..
            } => drop(f.feed(&XrrResolution, feed)),
            other => panic!("a resolution message decided {other:?}"),
        }
    }

    #[test]
    fn a_left_frame_is_reentered_as_a_new_one() {
        let mut f = frame();
        let spec = Rc::clone(&f.id.def);
        let app = || Message::App {
            action: ACTION,
            from: t(1),
            tag: "unread",
            payload: caa_core::message::AppPayload::new(1u32),
        };
        absorb(&mut f, app(), true, Round::Body);
        // T2 raises and T0's body is interrupted: the trigger is stashed,
        // absorbed when the recovery opens, then T0 suspends.
        assert!(matches!(
            absorb(&mut f, exception(2), true, Round::Body),
            RoundAction::Interrupt(Unwind::Suspend)
        ));
        f.begin_recovery();
        loop {
            match f.next_opening::<Fatal>() {
                Opening::Stashed(action) => hear(&mut f, action),
                Opening::Announce => break,
                Opening::Excluded => panic!("nobody evicted T0"),
            }
        }
        drop(f.feed(&XrrResolution, Feed::Suspend));
        let suspended = Message::Suspended {
            action: ACTION,
            from: t(1),
        };
        let action = absorb(&mut f, suspended, true, Round::Resolution);
        hear(&mut f, action);
        // A restarted T2's rejoin waits for the recovery to end.
        let request = || Message::JoinRequest {
            action: ACTION,
            from: t(2),
        };
        absorb(&mut f, request(), true, Round::Resolution);
        let commit = Message::Commit {
            action: ACTION,
            from: t(2),
            resolved: ExceptionId::new("e"),
            view_removed: Rc::from([]),
        };
        let action = absorb(&mut f, commit, true, Round::Resolution);
        hear(&mut f, action);
        let end = Round::Resolution.status(Some(&f)).expect("T2 committed");
        let resolved = f.resolved(end).expect("T0 is in the view");
        assert_eq!(f.handling(), Some(&resolved), "left while handling");
        absorb(&mut f, app(), true, Round::Body);

        // Both exchanges of §3.4's case 2, the second one corrupted.
        let signalled = |round, from| Message::ToBeSignalled {
            action: ACTION,
            from: t(from),
            round,
            signal: Signal::Undo,
        };
        for round in [SignalRound::First, SignalRound::AfterUndo] {
            f.announce_signal(round, &Signal::Undo);
            absorb(&mut f, signalled(round, 1), true, Round::Signalling(round));
        }
        corrupted(Some(&mut f), Round::Signalling(SignalRound::AfterUndo));
        assert!(f.signals.corrupted);

        // The exit barrier: the deferred joiner granted, votes of this
        // epoch and the next, and T2's silence suspected.
        assert_eq!(&f.end_recovery()[..], [t(2)]);
        assert!(f.grant_join(t(2)).is_some());
        assert_eq!(f.vote_exit().map(|(epoch, _)| epoch), Some(1));
        let vote = |from, epoch| Message::ExitVote {
            action: ACTION,
            from: t(from),
            epoch,
        };
        absorb(&mut f, vote(1, 1), true, Round::Exit);
        absorb(&mut f, vote(1, 2), true, Round::Exit);
        assert!(matches!(
            Round::Exit.expired(Some(&mut f), &XrrResolution),
            Expiry::Suspect(_, Ok(Suspicion::Evict(..)), None)
        ));
        assert!(f.view.epoch() > 0 && !f.exit.early.is_empty());
        // An enclosing recovery aborts the frame while a later recovery of
        // its own holds another rejoin back.
        f.recovery.cohort = Some(f.view.members().iter().copied().collect());
        absorb(&mut f, request(), true, Round::Body);
        f.abort();
        assert!(f.inbox.app.len() == 2 && f.inbox.joins.len() == 1);

        let next = ActionId::top_level(8);
        f.leave();
        f.reenter(next, &spec, RoleId::new(0), t(0));
        let mut new = Frame::new(&spec);
        new.reenter(next, &spec, RoleId::new(0), t(0));
        assert_eq!(snapshot(&f), snapshot(&new));
        let resolver = f.recovery.resolver.as_ref().expect("T0 recovered once");
        assert_eq!(resolver.participant_state(), ParticipantState::Normal);
    }

    // -- groups past the inline capacity, sparse ids ----------------------

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
        match Round::Signalling(SignalRound::AfterUndo).expired(Some(&mut f), &XrrResolution) {
            // A pristine view: nobody is suspected.
            Expiry::End(RoundEnd::Signals(collected)) => assert!(collected.failure),
            other => panic!("expected an ƒ-filled conclusion, got {other:?}"),
        }
        let filled: Vec<_> = members
            .iter()
            .map(|t| f.signals.complete(SignalRound::AfterUndo, [t]))
            .collect();
        assert_eq!(filled[0], Some(UNDO));
        assert!(filled[1..].iter().all(|c| *c == Some(FAIL)));

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
        match Round::Exit.expired(Some(&mut f), &XrrResolution) {
            Expiry::Suspect(suspects, Ok(Suspicion::Evict(step, ..)), None) => {
                assert_eq!(&suspects[..], &members[1..2]);
                assert_eq!((step.epoch, &step.removed[..]), (1, &members[1..2]));
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

            pub(super) fn voters(&self, epoch: u32) -> Vec<ThreadId> {
                self.votes
                    .get(&epoch)
                    .map_or_else(Vec::new, |v| v.iter().copied().collect())
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
                        // What the round reads of each member alone.
                        for t in &group {
                            let expected = tree.complete(round, std::slice::from_ref(t));
                            assert_eq!(
                                table.complete(round, [t]),
                                expected.as_deref().map(summary)
                            );
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
                // The sets kept: this epoch's voters, and the early votes
                // of the next two epochs.
                assert_eq!(
                    barrier.votes.iter().collect::<Vec<_>>(),
                    tree.voters(tree.epoch)
                );
                for epoch in tree.epoch + 1..tree.epoch + 3 {
                    let mut early: Vec<ThreadId> = barrier
                        .early
                        .iter()
                        .filter(|&&(e, _)| e == epoch)
                        .map(|&(_, voter)| voter)
                        .collect();
                    early.sort_unstable();
                    assert_eq!(early, tree.voters(epoch), "epoch {epoch}");
                }
            }
        }
    }

    #[test]
    fn a_round_action_stays_small() {
        // Every delivered message's decision is moved through one (272
        // bytes while it carried the expiry's payloads too).
        // What the host's fatal error is does not change it: the largest
        // variant is a control decision.
        assert_eq!(std::mem::size_of::<RoundAction<Fatal>>(), 152);
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
            absorb(&mut f, exception(1), true, Round::Body),
            RoundAction::Interrupt(Unwind::Suspend)
        ));
        assert!(matches!(
            absorb(&mut f, exception(1), true, Round::Resolution),
            RoundAction::Control {
                step: None,
                feed: Some(Feed::Control(Message::Exception { .. })),
                rearm: false,
            }
        ));
        assert!(matches!(
            absorb(&mut f, exception(1), true, Round::Exit),
            RoundAction::End(RoundEnd::Recover)
        ));
        // For an enclosing frame it unwinds the nested ones.
        assert!(matches!(
            absorb(&mut f, exception(1), false, Round::Body),
            RoundAction::Interrupt(Unwind::Outer { target, eab: None }) if target == ACTION
        ));
        assert_eq!(f.inbox.control.len(), 3, "stashed for the recovery driver");
        assert!(f.view.heard(t(1)));
        // Once recovered (or aborting) it is a straggler.
        f.recovery.recovered = true;
        assert!(matches!(
            absorb(&mut f, exception(1), true, Round::Exit),
            RoundAction::Continue
        ));
    }

    // -- between rounds: the cascade, leaving, releasing, violations -----

    const OUTER: ActionId = ActionId::top_level(3);

    fn raised(name: &str) -> Exception {
        Exception::new(name).with_origin(t(0))
    }

    /// What a landing says, as text: the start, the target, or the unwind.
    fn landed(unwind: Unwind<Fatal>) -> String {
        format!("{:?}", land(unwind, ACTION))
    }

    #[test]
    fn an_unwind_lands_where_section_3_3_1_says() {
        assert!(landed(Unwind::Raise(raised("e"))).starts_with("Recover(Raise("));
        assert_eq!(landed(Unwind::Suspend), "Recover(Suspend)");
        // At its target, the nested action's `Eab` is raised here, or this
        // thread suspends.
        let eab = Some(raised("eab"));
        let at_target = landed(Unwind::Outer {
            target: ACTION,
            eab,
        });
        assert!(at_target.starts_with("Recover(Raise(") && at_target.contains("eab"));
        let at_target = landed(Unwind::Outer {
            target: ACTION,
            eab: None,
        });
        assert_eq!(at_target, "Recover(Suspend)");
        // Past the frame: it is aborted on the way, whatever `Eab` was.
        for eab in [None, Some(raised("eab"))] {
            assert!(matches!(
                land::<Fatal>(Unwind::Outer { target: OUTER, eab }, ACTION),
                Landing::Abort { target: OUTER }
            ));
        }
        assert!(matches!(
            land(Unwind::<Fatal>::Crash, ACTION),
            Landing::Dead(Unwind::Crash)
        ));
        let fatal: Unwind<Fatal> = Unwind::Fatal("raise in handler");
        assert!(matches!(
            land(fatal, ACTION),
            Landing::Dead(Unwind::Fatal(_))
        ));
    }

    #[test]
    fn an_abortion_handler_reports_eab_or_carries_the_cascade_deeper() {
        let eab_id = ExceptionId::new("eab");
        let to_outer = |eab: Option<ExceptionId>| {
            move |next: &Unwind<Fatal>| {
                matches!(next, Unwind::Outer { target: OUTER, eab: e }
                    if e.as_ref().map(|e| *e.id()) == eab)
            }
        };
        // Returning or raising `Eab` reports it, and the cascade goes on
        // toward the original target carrying it.
        let results: [Result<_, Unwind<Fatal>>; 2] =
            [Ok(Some(raised("eab"))), Err(Unwind::Raise(raised("eab")))];
        for result in results {
            let (eab, next) = aborted(result, OUTER).expect("aborted, not dead");
            assert_eq!(eab, Some(eab_id));
            assert!(to_outer(Some(eab_id))(&next));
        }
        // No `Eab`: returned none, or suspended.
        let results: [Result<_, Unwind<Fatal>>; 2] = [Ok(None), Err(Unwind::Suspend)];
        for result in results {
            let (eab, next) = aborted(result, OUTER).expect("aborted, not dead");
            assert_eq!(eab, None);
            assert!(to_outer(None)(&next));
        }
        // A trigger further out extends the cascade past the target; the
        // frame itself reports no `Eab`.
        let deeper = ActionId::top_level(1);
        let (eab, next) = aborted::<Fatal>(
            Err(Unwind::Outer {
                target: deeper,
                eab: Some(raised("inner")),
            }),
            OUTER,
        )
        .expect("aborted, not dead");
        assert_eq!(eab, None);
        assert!(matches!(next, Unwind::Outer { target, eab: Some(_) } if target == deeper));
        // A handler that crashes or fails fatally leaves the frame dead.
        assert!(matches!(
            aborted::<Fatal>(Err(Unwind::Crash), OUTER),
            Err(Unwind::Crash)
        ));
        let fatal = Unwind::Fatal("raise in handler");
        assert!(matches!(
            aborted::<Fatal>(Err(fatal), OUTER),
            Err(Unwind::Fatal(_))
        ));
    }

    #[test]
    fn an_action_leaves_as_its_exit_round_ended() {
        let signalled = ActionOutcome::Signalled(ExceptionId::new("s"));
        let left = |end, signalled| leave(end, signalled).expect("no violation");
        assert_eq!(
            left(RoundEnd::Exited, None),
            Leave::Finalize(ActionOutcome::Success)
        );
        assert_eq!(
            left(RoundEnd::Exited, Some(signalled.clone())),
            Leave::Finalize(signalled.clone())
        );
        assert_eq!(left(RoundEnd::Recover, None), Leave::Recover);
        for signalled in [None, Some(signalled)] {
            assert_eq!(
                left(RoundEnd::Excluded, signalled),
                Leave::Finalize(ActionOutcome::Failed)
            );
        }
    }

    fn violated<T: std::fmt::Debug>(decision: Result<T, Violation>) -> String {
        decision.expect_err("a violation").0
    }

    #[test]
    fn a_trigger_after_signalling_is_a_violation() {
        let signalled = Some(ActionOutcome::Undone);
        let Violation(what) = leave(RoundEnd::Recover, signalled).expect_err("a violation");
        assert_eq!(what, "recovery re-triggered after signalling");
    }

    #[test]
    fn a_grant_that_does_not_readmit_the_joiner_is_a_violation() {
        let group = [t(0), t(1), t(2)];
        let view = FrameMembership::sync_grant(&group, 1, &[t(2)], t(0)).expect("re-admits T0");
        assert_eq!((view.epoch(), view.members()), (1, &[t(0), t(1)][..]));
        let what = violated(FrameMembership::sync_grant(&group, 1, &[t(0)], t(0)));
        assert!(what.starts_with("join grant rejected: "), "{what}");
    }

    /// A resolver that says it waits on a thread outside the group.
    #[derive(Debug)]
    struct Liar;

    impl ResolverState for Liar {
        fn on_event(&mut self, _: &ProtoCtx<'_>, _: ProtoEvent<'_>) -> ProtoActions {
            ProtoActions::default()
        }
        fn participant_state(&self) -> ParticipantState {
            ParticipantState::Suspended
        }
        fn waiting_on(&self, _: &ProtoCtx<'_>) -> InlineVec<ThreadId, 8> {
            InlineVec::from_slice(&[t(9)])
        }
    }

    impl ResolutionProtocol for Liar {
        fn name(&self) -> &'static str {
            "liar"
        }
        fn new_state(&self) -> Box<dyn ResolverState> {
            Box::new(Liar)
        }
    }

    #[test]
    fn a_suspicion_the_view_cannot_apply_is_a_violation() {
        let mut f = frame();
        match Round::Resolution.expired(Some(&mut f), &Liar) {
            Expiry::Suspect(suspects, Err(Violation(what)), None) => {
                assert_eq!(&suspects[..], [t(9)], "the timeout still names them");
                assert!(
                    what.starts_with("membership view change rejected: "),
                    "{what}"
                );
            }
            other => panic!("expected a violation, got {other:?}"),
        }
        assert_eq!(f.view.epoch(), 0, "the view took no step");
    }

    fn numbers(threads: &[ThreadId]) -> Vec<u32> {
        threads.iter().map(|t| t.as_u32()).collect()
    }

    fn ids(numbers: &[u32]) -> Rc<[ThreadId]> {
        numbers.iter().map(|&n| t(n)).collect()
    }

    fn view_change(removed: &[u32]) -> Message {
        Message::ViewChange {
            action: ACTION,
            from: t(1),
            removed: ids(removed),
        }
    }

    fn commit(removed: &[u32]) -> Message {
        Message::Commit {
            action: ACTION,
            from: t(2),
            resolved: ExceptionId::new("e"),
            view_removed: ids(removed),
        }
    }

    /// What an absorbed message asks of the driver, as text: the view step
    /// (epoch and removals), what the resolver hears, whether the round
    /// re-arms — or that the message is stashed or dropped.
    fn route(action: RoundAction<Fatal>) -> String {
        match action {
            RoundAction::Control { step, feed, rearm } => {
                let step = step.map_or("-".into(), |step| {
                    format!("e{} {:?}", step.epoch, numbers(&step.removed))
                });
                let feed = match feed {
                    None => "-".into(),
                    Some(Feed::ViewChange(removed)) => format!("view {:?}", numbers(&removed)),
                    Some(Feed::Control(msg)) => msg.kind().to_string(),
                    Some(other) => format!("{other:?}"),
                };
                format!("{step} | {feed}{}", if rearm { " | rearm" } else { "" })
            }
            RoundAction::Interrupt(_) => "stash".into(),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn each_route_that_adopts_a_removal_set_names_its_step_and_feed() {
        // T0's frame of {T0, T1, T2}: (round, is the frame on top,
        // recovered, evicted before) and the message → what the driver is
        // asked to do, and whether T0 is evicted after.
        type Row = (Round, bool, bool, bool, Message, &'static str, bool);
        let (res, exit) = (Round::Resolution, Round::Exit);
        let rows: [Row; 20] = [
            // Resolution: a view change is adopted, fed and re-arms the
            // round — fed only when it stepped the view and left us in it.
            (
                res,
                true,
                false,
                false,
                view_change(&[2]),
                "e1 [2] | view [2] | rearm",
                false,
            ),
            (
                res,
                true,
                false,
                false,
                view_change(&[2, 2, 1]),
                "e1 [1, 2] | view [1, 2] | rearm",
                false,
            ),
            (
                res,
                true,
                false,
                false,
                view_change(&[0, 2]),
                "e1 [0, 2] | - | rearm",
                true,
            ),
            (
                res,
                true,
                false,
                false,
                view_change(&[9]),
                "- | - | rearm",
                false,
            ),
            (
                res,
                true,
                false,
                true,
                view_change(&[2]),
                "e1 [2] | - | rearm",
                true,
            ),
            // A commit's removal set is adopted, and the commit fed unless
            // the committed view excludes us.
            (
                res,
                true,
                false,
                false,
                commit(&[2]),
                "e1 [2] | Commit",
                false,
            ),
            (res, true, false, false, commit(&[]), "- | Commit", false),
            (res, true, false, false, commit(&[0]), "e1 [0] | -", true),
            (res, true, false, true, commit(&[]), "- | -", true),
            // Other control traffic is fed as it is, evicted or not.
            (
                res,
                true,
                false,
                false,
                exception(1),
                "- | Exception",
                false,
            ),
            (res, true, false, true, exception(1), "- | Exception", true),
            // The exit round and a recovered frame adopt and feed nothing.
            (
                exit,
                true,
                false,
                false,
                view_change(&[2]),
                "e1 [2] | -",
                false,
            ),
            (
                exit,
                true,
                false,
                false,
                view_change(&[0]),
                "e1 [0] | -",
                true,
            ),
            (exit, true, false, false, view_change(&[9]), "- | -", false),
            (
                FIRST,
                true,
                true,
                false,
                view_change(&[2]),
                "e1 [2] | -",
                false,
            ),
            (
                res,
                true,
                true,
                false,
                view_change(&[0, 1]),
                "e1 [0, 1] | -",
                true,
            ),
            (
                Round::Body,
                false,
                true,
                false,
                view_change(&[1]),
                "e1 [1] | -",
                false,
            ),
            (exit, true, true, false, commit(&[2]), "Continue", false),
            // A body, or a nested frame's, stashes a view change unadopted
            // for the recovery that drains it.
            (
                Round::Body,
                true,
                false,
                false,
                view_change(&[2]),
                "stash",
                false,
            ),
            (
                Round::Object,
                false,
                false,
                false,
                view_change(&[2]),
                "stash",
                false,
            ),
        ];
        for (round, is_top, recovered, before, msg, expect, evicted) in rows {
            let mut f = frame();
            f.recovery.recovered = recovered;
            f.view.evicted = before;
            let what = format!(
                "{} in {round:?} (top {is_top}, recovered {recovered})",
                msg.kind()
            );
            assert_eq!(route(absorb(&mut f, msg, is_top, round)), expect, "{what}");
            assert_eq!(f.view.evicted, evicted, "{what}");
            assert_eq!(f.view.epoch() > 0, expect.starts_with('e'), "{what}");
        }
    }

    /// What an expiry asks of the driver, as text: the timeout's suspects,
    /// what the quorum gate decided, and whether the round ends or
    /// re-arms.
    fn expiry(action: Expiry) -> String {
        match action {
            Expiry::Suspect(suspects, decided, then) => {
                let decided = match decided {
                    Ok(Suspicion::Evict(step, recipients, feed)) => format!(
                        "evict e{} {:?} to {:?}{}",
                        step.epoch,
                        numbers(&step.removed),
                        numbers(&recipients),
                        if feed { ", fed" } else { "" }
                    ),
                    Ok(other) => format!("{other:?}"),
                    Err(Violation(what)) => what,
                };
                let then = if then.is_some() { "end" } else { "rearm" };
                format!("{:?}: {decided}; {then}", numbers(&suspects))
            }
            Expiry::End(_) => "end".into(),
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn an_expiry_puts_the_silent_peers_through_the_quorum_gate() {
        // T0's frame of {T0, T1, T2}, having heard from `heard`: the round
        // that expires → the suspects, the gate's decision and what
        // follows, and whether T0 gave up (evicted).
        type Setup = fn(&mut Frame<ActionSpec>);
        let resolving: Setup = |f| {
            f.feed(&XrrResolution, Feed::Suspend);
        };
        let voted: Setup = |f| {
            f.exit.vote(t(0));
        };
        let degraded: Setup = |f| {
            f.view.adopt_removals(t(0), &[t(2)]).expect("T2 was live");
            f.signals.record(SignalRound::First, t(0), Signal::None);
        };
        let pristine: Setup = |f| {
            f.signals.record(SignalRound::First, t(0), Signal::None);
        };
        let rejoined: Setup = |f| {
            f.rejoin(FrameMembership::new(&[t(0), t(1), t(2)]), 0, None);
            f.exit.vote(t(0));
        };
        type Row = (Round, Setup, &'static [u32], &'static str, bool);
        let rows: [Row; 10] = [
            // Resolution: the peers the resolver waits on, evicted and fed —
            // unless the gate finds a recently-alive majority silent.
            (
                Round::Resolution,
                resolving,
                &[],
                "[1, 2]: evict e1 [1, 2] to [0, 1, 2], fed; rearm",
                false,
            ),
            (
                Round::Resolution,
                resolving,
                &[1],
                "[1, 2]: evict e1 [1, 2] to [0, 1, 2], fed; rearm",
                false,
            ),
            (
                Round::Resolution,
                resolving,
                &[1, 2],
                "[1, 2]: Refused { survivors: 1, recently_alive: 2 }; rearm",
                true,
            ),
            // Signalling: against a degraded view the silent are evicted
            // and the exchange ends; a pristine view suspects nobody.
            (
                FIRST,
                degraded,
                &[1],
                "[1]: evict e2 [1] to [0, 1]; end",
                false,
            ),
            (FIRST, pristine, &[1, 2], "end", false),
            // Exit: the missing voters, or a refusal; a rejoiner gives up.
            (
                Round::Exit,
                voted,
                &[],
                "[1, 2]: evict e1 [1, 2] to [0, 1, 2]; rearm",
                false,
            ),
            (
                Round::Exit,
                voted,
                &[2],
                "[1, 2]: evict e1 [1, 2] to [0, 1, 2]; rearm",
                false,
            ),
            (
                Round::Exit,
                voted,
                &[1, 2],
                "[1, 2]: Refused { survivors: 1, recently_alive: 2 }; rearm",
                true,
            ),
            (Round::Exit, rejoined, &[1, 2], "[]: GiveUp; end", false),
            // A body's own deadline decides nothing.
            (Round::Body, voted, &[1, 2], "Ignored", false),
        ];
        for (round, setup, heard, expect, evicted) in rows {
            let mut f = frame();
            setup(&mut f);
            for &peer in heard {
                f.view.hear(t(peer));
            }
            let what = format!("{round:?}, heard {heard:?}");
            let decided = round.expired(Some(&mut f), &XrrResolution);
            assert_eq!(expiry(decided), expect, "{what}");
            assert_eq!(f.view.evicted, evicted, "{what}");
        }
    }

    #[test]
    fn section_3_4_concludes_exchanges_or_undoes() {
        use Signal::{Failure as F, Undo as U};
        let e = Signal::Exception(ExceptionId::new("s"));
        let (first, after) = (SignalRound::First, SignalRound::AfterUndo);
        let ok = Collected::default();
        let undo = Collected {
            failure: false,
            undo: true,
        };
        let failed = Collected::FAILED;
        // (where signalling stands, this thread's handler signal, the
        // frame evicted / alone in its group) → the step, without and with
        // a corrupted message in the exchange (ƒ dominates the exchanges
        // alone).
        type Row = (Signalled, Signal, (bool, bool), SignalStep, SignalStep);
        let done = SignalStep::Done;
        let rows: [Row; 14] = [
            (
                Signalled::Handled,
                e.clone(),
                (true, false),
                done(F),
                done(F),
            ),
            (Signalled::Handled, U, (true, true), done(F), done(F)),
            (
                Signalled::Handled,
                U,
                (false, true),
                SignalStep::Undo { alone: true },
                SignalStep::Undo { alone: true },
            ),
            (
                Signalled::Handled,
                e.clone(),
                (false, true),
                done(e.clone()),
                done(e.clone()),
            ),
            (
                Signalled::Handled,
                e.clone(),
                (false, false),
                SignalStep::Exchange(first, e.clone()),
                SignalStep::Exchange(first, e.clone()),
            ),
            (
                Signalled::Undone {
                    signal: U,
                    alone: true,
                },
                U,
                (false, true),
                done(U),
                done(U),
            ),
            (
                Signalled::Undone {
                    signal: F,
                    alone: true,
                },
                U,
                (false, true),
                done(F),
                done(F),
            ),
            (
                Signalled::Undone {
                    signal: U,
                    alone: false,
                },
                U,
                (false, false),
                SignalStep::Exchange(after, U),
                SignalStep::Exchange(after, U),
            ),
            // Case 1, case 2 (µ), case 3 (ƒ) after the first exchange.
            (
                Signalled::Exchanged(first, ok),
                e.clone(),
                (false, false),
                done(e.clone()),
                done(F),
            ),
            (
                Signalled::Exchanged(first, undo),
                e.clone(),
                (false, false),
                SignalStep::Undo { alone: false },
                done(F),
            ),
            (
                Signalled::Exchanged(first, failed),
                e.clone(),
                (false, false),
                done(F),
                done(F),
            ),
            // After the undo exchange: µ, or ƒ.
            (
                Signalled::Exchanged(after, undo),
                U,
                (false, false),
                done(U),
                done(F),
            ),
            (
                Signalled::Exchanged(after, ok),
                U,
                (false, false),
                done(U),
                done(F),
            ),
            (
                Signalled::Exchanged(after, failed),
                U,
                (false, false),
                done(F),
                done(F),
            ),
        ];
        for (at, mine, (evicted, alone), clean, corrupted) in rows {
            let what = format!("{at:?}, mine {mine:?}, evicted {evicted}, alone {alone}");
            for (is_corrupted, expect) in [(false, clean), (true, corrupted)] {
                let mut f = frame();
                if alone {
                    f.view.adopt_removals(t(0), &[t(1), t(2)]).expect("live");
                }
                f.view.evicted = evicted;
                f.signals.corrupted = is_corrupted;
                let at = match &at {
                    Signalled::Handled => Signalled::Handled,
                    Signalled::Undone { signal, alone } => Signalled::Undone {
                        signal: signal.clone(),
                        alone: *alone,
                    },
                    Signalled::Exchanged(round, collected) => {
                        Signalled::Exchanged(*round, *collected)
                    }
                };
                assert_eq!(
                    signalling(&f, &mine, at),
                    expect,
                    "{what}, corrupted {is_corrupted}"
                );
            }
        }
    }
}
