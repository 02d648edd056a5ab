//! Per-thread execution context: action stack, message routing and the
//! coordinated-recovery driver.
//!
//! Each participating thread owns a [`Ctx`]. Entering a CA action pushes a
//! frame on the paper's `SA` stack; every runtime operation the role
//! performs is a *poll point* at which pending control messages are
//! processed — the `Result`-based stand-in for Ada 95's asynchronous
//! transfer of control (see the crate documentation). The driver in this module
//! performs, per action frame, what [`caa_protocol`] decides — resolution
//! (§3.3.2, through the system's [`ResolutionProtocol`]) with the
//! membership extension's bounded wait, the abortion cascade (§3.3.1),
//! §3.4's signalling and the exit protocol (§5.1) — and runs the exception
//! handlers under the termination model (§3.1).
//!
//! # One wait
//!
//! Recovery is a sequence of uniform coordination rounds — resolution, the
//! two signalling exchanges, the exit barrier, and a restarted
//! participant's wait for a rejoin grant ([`Ctx::rejoin`]): announce to the
//! participants, wait until all have answered or the bound expires, treat
//! silence as ƒ. Every blocking point — those rounds (`Ctx::collect`), a
//! body's computation and receives, a shared-object acquisition — is one
//! `Ctx::wait` for the round it serves: until a message, the doorbell or
//! the deadline (the round's or the crash instant), then performing what
//! the round decides. What a round *decides* is pure `event → action`
//! state in [`caa_protocol::rounds`]: `Round::status`; `Round::expired`
//! (the quorum gate on the silent peers, the view step and its recipients,
//! the conclusion); `Frame::absorb` for a message (a removal set adopted,
//! and what the resolver hears); between rounds, where an unwind lands
//! (§3.3.1's cascade), §3.4's cases (`rounds::signalling`) and how an
//! action leaves. So is the order of a recovery's steps, which the frame
//! takes itself: `Frame::begin_recovery`, then `Frame::next_opening` until
//! the stashed triggers are absorbed and it says to announce this thread's
//! transition (or, evicted, to give up silently); `Frame::resolved` and
//! `Frame::handled` around the handler; `Frame::announce_signal` per §3.4
//! exchange; `Frame::end_recovery` (the next exit epoch, the deferred
//! rejoins to grant); `Frame::vote_exit`. An object's arbitration lives
//! with the object ([`crate::objects`]). `Ctx` is the thin driver that
//! owns the endpoint and the frame stack and performs what it is told
//! (`Ctx::perform`, and `Ctx::expire` for a deadline's `Expiry`): it
//! counts, logs, sends, waits and runs the user's code — the body, the
//! handlers, the abortion handler and the undo hook.
//!
//! A frame ([`caa_protocol::Frame`]) is reached through `Ctx::frame` /
//! `Ctx::frame_mut`; `Ctx` reads its identity and nothing else of it.
//! Rounds range over its *current view*, so a shrunk membership completes
//! among the survivors.
//!
//! **Adding a round:** add a `Round` variant with its `status` and
//! `expired` arms in `caa_protocol::rounds` (what completes it, who is
//! silent at expiry and what that concludes) and its arm in `timed_out`
//! here (what its timeout counts and logs), keep what it collects in a
//! frame part that `Frame::absorb` fills, give the frame a step that
//! records this thread's own part and answers whom to announce it to (as
//! `Frame::announce_signal` and `Frame::vote_exit` do), and call
//! `self.collect(Round::…, timeout)` after announcing with `Ctx::broadcast`.
//! The driver changes only if the round needs an effect no `RoundAction`
//! or `Expiry` names. A round that a peer's doorbell ends, like the object
//! round (`Round::Object`), keeps its state in a value of its own
//! (`objects::Acquisition`) and loops over `Ctx::wait`, answering
//! `Performed::Rang`.

use std::rc::Rc;
use std::sync::Arc;

use caa_core::exception::{Exception, ExceptionId, Signal};
use caa_core::ids::{ActionId, PartitionId, RoleId, ThreadId};
use caa_core::inline::InlineVec;
use caa_core::message::{AppMsg, AppPayload, Message, SignalRound};
use caa_core::name::Name;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::{VirtualDuration, VirtualInstant};
use caa_protocol::membership::{FrameMembership, Suspicion, ViewStep};
use caa_protocol::rounds::{
    self, aborted, leave, Collected, Expiry, Feed, Landing, Leave, Opening,
};
use caa_protocol::rounds::{Round, RoundAction, RoundEnd, SignalStep, Signalled, Violation};
use caa_protocol::ResolutionProtocol;
use caa_simnet::{FiberEndpoint, Parked};

use crate::action::{make_action_id, ActionDef, DefInner};
use crate::error::{Flow, RuntimeError, Step, Unwind};
use crate::objects::{self, release_on_exit, Acquisition, Release, SharedObject, TxControl};
use crate::observe::{EntryKind, EventKind};
use crate::system::{RuntimeStats, SystemShared};

/// A frame of this runtime's actions.
type Frame = caa_protocol::Frame<DefInner>;

/// One entry of the action stack: the protocol's frame (boxed: entering
/// and leaving move a pointer) and the objects touched within the action.
struct Level {
    frame: Box<Frame>,
    objects: Vec<Box<dyn TxControl>>,
}

impl AsMut<Frame> for Level {
    fn as_mut(&mut self) -> &mut Frame {
        &mut self.frame
    }
}

/// What a participant's context keeps on the heap, as one run's context
/// leaves it for the next run's ([`Ctx::shutdown`]): every list empty, its
/// capacity kept. A system hands these out from the host thread's run pool
/// (see [`crate::system`]), so a warmed participant sizes nothing.
#[derive(Default)]
pub(crate) struct CtxScratch {
    stack: Vec<Level>,
    retained: Vec<Message>,
    /// The frames popped so far, left ([`Frame::leave`]) for the next
    /// entries to re-enter.
    spare: Vec<Level>,
    /// The protocol that made the resolver states among `spare`: they
    /// serve a system of that protocol only.
    protocol: Option<Arc<dyn ResolutionProtocol>>,
}

/// The execution context of one participating thread.
///
/// Obtained inside [`System::spawn`](crate::System::spawn). All blocking
/// operations are poll points: they may return `Err(`[`Flow`]`)` when
/// coordinated recovery takes over — propagate it with `?`.
pub struct Ctx {
    me: ThreadId,
    name: Name,
    endpoint: FiberEndpoint<Message>,
    system: Rc<SystemShared>,
    /// The action stack, innermost last.
    stack: Vec<Level>,
    /// Popped frames, left for the next entries to re-enter, and the
    /// protocol their resolver states are of (the system's own).
    spare: Vec<Level>,
    spare_protocol: Option<Arc<dyn ResolutionProtocol>>,
    /// A scheduled crash-stop instant ([`Ctx::schedule_crash`]): the
    /// thread dies at the first poll point at or after it — mid-body,
    /// mid-collection, mid-signalling or mid-exit alike.
    crash_at: Option<VirtualInstant>,
    /// Messages for action instances not yet entered (§3.3.2 "retain the
    /// Exception or Suspended message till Ti enters A*").
    retained: Vec<Message>,
    /// Per `(definition id, parent action serial)`: the next local instance
    /// number this thread will enter. Scoping instance numbers to the
    /// parent instance keeps ids aligned across threads even when recovery
    /// made some of them skip nested actions. Sorted by key.
    entry_counts: InlineVec<((u32, u64), u32), 8>,
    /// Serials of action instances this thread has finished or aborted,
    /// sorted; their late messages are stragglers and are dropped.
    finished: InlineVec<u64, 8>,
    /// The outermost action a crash-stop discarded, recorded when the crash
    /// unwind pops it. [`Ctx::rejoin`] consumes this to know which instance
    /// a restarted participant should ask to re-enter.
    last_crash: Option<ActionId>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("thread", &self.me)
            .field("name", &self.name)
            .field("depth", &self.stack.len())
            .finish()
    }
}

/// Looks `role` up in `def`.
fn role_id(def: &DefInner, role: &str) -> Result<RoleId, Flow> {
    def.role_id(role).ok_or_else(|| {
        Flow::from(RuntimeError::UnknownRole {
            action: def.name.to_string(),
            role: role.to_owned(),
        })
    })
}

/// What [`Ctx::perform`] left the round in — or, from [`Ctx::wait`], that
/// the wait's doorbell rang.
enum Performed {
    /// Keep collecting until the current deadline.
    Continue,
    /// Keep collecting; the view changed, so the bound starts afresh.
    Rearm,
    End(RoundEnd),
    /// The doorbell of the object round's wait rang.
    Rang,
}

impl Ctx {
    pub(crate) fn new(
        me: ThreadId,
        name: Name,
        endpoint: FiberEndpoint<Message>,
        system: Rc<SystemShared>,
    ) -> Self {
        // The one this thread id's context left last run, so that a
        // participant meets lists sized by its own history.
        let left = system
            .scratch
            .borrow_mut()
            .get_mut(me.index())
            .map(std::mem::take);
        let mut scratch = left.unwrap_or_default();
        let same_protocol = |made_by| Arc::ptr_eq(made_by, &system.protocol);
        if !scratch.protocol.as_ref().is_some_and(same_protocol) {
            for level in &mut scratch.spare {
                level.frame.forget_resolver();
            }
            scratch.protocol = Some(Arc::clone(&system.protocol));
        }
        Ctx {
            me,
            name,
            endpoint,
            system,
            stack: scratch.stack,
            spare: scratch.spare,
            spare_protocol: scratch.protocol,
            crash_at: None,
            retained: scratch.retained,
            entry_counts: InlineVec::new(),
            finished: InlineVec::new(),
            last_crash: None,
        }
    }

    /// This thread's identifier (total order; ties in recovery are broken
    /// toward the biggest id, §3.3.2).
    #[must_use]
    pub fn thread_id(&self) -> ThreadId {
        self.me
    }

    /// Appends one step to the system's log, if the run is recorded (see
    /// [`crate::observe`]). The event payload is only built — and the
    /// clock only read — when it is, so unrecorded runs pay nothing on the
    /// protocol's hot paths.
    fn observe(&self, action: ActionId, kind: impl FnOnce() -> EventKind) {
        if let Some(log) = &self.system.log {
            let kind = EntryKind::Runtime(kind());
            log.borrow_mut()
                .push(self.endpoint.now(), self.me, action, kind);
        }
    }

    /// [`Ctx::observe`] for a step of the active action.
    fn observe_top(&self, kind: impl FnOnce() -> EventKind) {
        self.observe(self.frame().id.action, kind);
    }

    /// This thread's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> VirtualInstant {
        self.endpoint.now()
    }

    /// Nesting depth: 0 outside any action.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The name of the active action, if any.
    #[must_use]
    pub fn action_name(&self) -> Option<&str> {
        self.stack
            .last()
            .map(|level| level.frame.id.def.name.as_str())
    }

    /// The resolving exception currently being handled, if this thread is
    /// executing an exception handler.
    #[must_use]
    pub fn handling(&self) -> Option<&ExceptionId> {
        self.stack.last().and_then(|level| level.frame.handling())
    }

    /// The active (innermost) frame. Every protocol phase runs inside
    /// [`Ctx::drive`], which holds the frame open until it returns.
    fn frame(&self) -> &Frame {
        &self.stack.last().expect("frame active").frame
    }

    fn frame_mut(&mut self) -> &mut Frame {
        &mut self.stack.last_mut().expect("frame active").frame
    }

    /// Sends `msg` to `to` — the runtime's one send site — and, if the run
    /// is recorded, logs what the network did with it.
    fn send(&self, to: ThreadId, msg: Message) {
        let dst = PartitionId::new(to.as_u32());
        let Some(log) = &self.system.log else {
            self.endpoint.send(dst, msg);
            return;
        };
        let (action, kind) = (msg.action(), msg.kind());
        let sent = self.endpoint.send(dst, msg);
        log.borrow_mut()
            .push_send(self.endpoint.id(), dst, action, kind, sent);
    }

    /// Sends `msg(peer)` to every member of `view` but this thread, in view
    /// order.
    fn broadcast(&self, view: &[ThreadId], msg: impl Fn(ThreadId) -> Message) {
        for &peer in view.iter().filter(|&&t| t != self.me) {
            self.send(peer, msg(peer));
        }
    }

    /// The instant `timeout` from now (a round's deadline), if bounded.
    fn deadline_in(&self, timeout: Option<VirtualDuration>) -> Option<VirtualInstant> {
        timeout.map(|t| self.now().saturating_add(t))
    }

    // ------------------------------------------------------------------
    // Role-facing operations (poll points)
    // ------------------------------------------------------------------

    /// Performs `dur` of local computation (virtual time).
    ///
    /// The computation is *interruptible*: if a control message demanding
    /// recovery arrives mid-way, control transfers immediately — the
    /// `Result`-based counterpart of the Ada 95 asynchronous transfer of
    /// control the paper's prototype uses (§5.1). Application messages
    /// arriving mid-way are buffered and the computation continues.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] when recovery interrupts this thread.
    pub fn work(&mut self, dur: VirtualDuration) -> Step {
        let deadline = self.now().saturating_add(dur);
        // A wait hands over what is deliverable now before it waits for
        // anything later, in delivery order — the messages a `poll` would
        // drain first — so only the end of the computation polls: for what
        // arrives at the deadline instant itself.
        while !deadline.duration_since(self.now()).is_zero() {
            self.wait(Round::Body, Some(deadline))?;
        }
        self.poll()
    }

    /// Simulates a **crash-stop** of this participant: every open action
    /// frame is discarded without running handlers or sending messages
    /// (the process simply dies), transaction layers this thread had
    /// registered are broken, and the thread terminates with
    /// [`RuntimeError::Crashed`]. Peers observe only silence: their
    /// bounded waits — the [`resolution
    /// timeout`](crate::ActionDefBuilder::resolution_timeout)'s membership
    /// view change, the §3.4 signalling timeout, and the [`exit
    /// timeout`](crate::ActionDefBuilder::exit_timeout) — resolve the
    /// silence instead of deadlocking on it.
    ///
    /// # Errors
    ///
    /// Always returns `Err` — propagate it with `?`; it unwinds to the
    /// thread's top level.
    pub fn crash_stop(&mut self) -> Step<()> {
        Err(Flow::new(Unwind::Crash))
    }

    /// Schedules a crash-stop `after` from now: the process dies at the
    /// first poll point at or after that virtual instant, *wherever* it
    /// then is — computing, collecting resolution messages, exchanging
    /// signals or exit votes. This is how fault-injection harnesses model
    /// "the node dies at instant T" without structuring the role body
    /// around the death (contrast [`Ctx::crash_stop`], which dies exactly
    /// where it is called). A thread parked on a shared-object
    /// acquisition wakes at the instant and dies there too.
    ///
    /// The schedule is a property of the thread, not of the active action:
    /// it survives action exits and recoveries until it fires.
    pub fn schedule_crash(&mut self, after: VirtualDuration) {
        self.crash_at = Some(self.now().saturating_add(after));
    }

    /// Dies if a scheduled crash instant has been reached.
    fn crash_check(&self) -> Step {
        match self.crash_at {
            Some(at) if self.now() >= at => Err(Flow::new(Unwind::Crash)),
            _ => Ok(()),
        }
    }

    /// Waits once for `round`: blocks until a message, the doorbell or the
    /// deadline — `deadline` or the scheduled crash instant, whichever
    /// comes first — and performs what the round decides about it
    /// ([`Performed::Rang`] for the doorbell). Every blocking point of the
    /// participant comes through here, so a scheduled crash-stop bounds
    /// every one of them: reaching the crash instant kills the thread. A
    /// round dies before it waits once that instant has passed — but for
    /// the object round, which takes what is due at the instant first
    /// ([`Round::Object`]).
    ///
    /// # Errors
    ///
    /// [`Flow`] on a scheduled crash, a simulation error, or a decision
    /// that unwinds.
    #[inline(always)] // a resumed fiber returns through here: see `Network::block_on`
    fn wait(&mut self, round: Round, deadline: Option<VirtualInstant>) -> Step<Performed> {
        if round != Round::Object {
            self.crash_check()?;
        }
        let effective = match (deadline, self.crash_at) {
            (Some(d), Some(c)) => Some(d.min(c)),
            (d, c) => d.or(c),
        };
        let (index, action) = match self.endpoint.wait(effective)? {
            Parked::Msg(received) => self.classify(received.msg, round),
            Parked::Doorbell => return Ok(Performed::Rang),
            Parked::Deadline => {
                // The crash instant takes precedence over the round's own.
                self.crash_check()?;
                let protocol = &*self.system.protocol;
                let frame = self.stack.last_mut().map(AsMut::as_mut);
                let expiry = round.expired(frame, protocol);
                return self.expire(round, expiry);
            }
        };
        self.perform(index, action)
    }

    /// Raises exception `e` in the active action (§3.1 *raise*). The
    /// returned [`Flow`] must be propagated with `?`; the runtime then
    /// coordinates recovery across all participants.
    ///
    /// # Errors
    ///
    /// Always returns `Err`: either the raise itself (to be propagated), or
    /// a fatal error when called outside an action or from a handler.
    pub fn raise(&mut self, e: impl Into<Exception>) -> Step<()> {
        if self.stack.is_empty() {
            return Err(RuntimeError::NoActiveAction("raise").into());
        }
        if self.frame().handling().is_some() {
            return Err(RuntimeError::RaiseInHandler.into());
        }
        let e = e.into().with_origin(self.me);
        Err(Flow::new(Unwind::Raise(e)))
    }

    /// Sends an application message to the thread performing `role` in the
    /// active action. A poll point.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption, or fatally when `role` is
    /// not part of the active action.
    pub fn send_to_role(
        &mut self,
        role: &str,
        tag: &'static str,
        payload: impl std::any::Any,
    ) -> Step {
        self.poll()?;
        let frame = self
            .stack
            .last()
            .map(|level| &level.frame)
            .ok_or_else(|| Flow::from(RuntimeError::NoActiveAction("send_to_role")))?;
        let def = &frame.id.def;
        let role_id = role_id(def, role)?;
        let msg = Message::App {
            action: frame.id.action,
            from: self.me,
            tag,
            payload: AppPayload::new(payload),
        };
        self.send(def.thread_of(role_id), msg);
        Ok(())
    }

    /// Receives the next application message addressed to this role within
    /// the active action, blocking as needed. A poll point.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption.
    pub fn recv_app(&mut self) -> Step<AppMsg> {
        loop {
            if let Some(msg) = self.recv_app_until(None)? {
                return Ok(msg);
            }
        }
    }

    /// Like [`Ctx::recv_app`] but gives up after `timeout`, returning
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption.
    pub fn recv_app_timeout(&mut self, timeout: VirtualDuration) -> Step<Option<AppMsg>> {
        let deadline = self.deadline_in(Some(timeout));
        self.recv_app_until(deadline)
    }

    fn recv_app_until(&mut self, deadline: Option<VirtualInstant>) -> Step<Option<AppMsg>> {
        loop {
            self.poll()?;
            let Some(level) = self.stack.last_mut() else {
                return Err(RuntimeError::NoActiveAction("recv_app").into());
            };
            if let Some(msg) = level.frame.next_app() {
                return Ok(Some(msg));
            }
            if deadline.is_some_and(|d| d.duration_since(self.now()).is_zero()) {
                return Ok(None);
            }
            self.wait(Round::Body, deadline)?;
        }
    }

    /// Reads external object `obj` within the active action, acquiring it
    /// (and waiting for competing actions to release it) if needed.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption.
    pub fn read<T: Clone + 'static, R>(
        &mut self,
        obj: &SharedObject<T>,
        f: impl FnOnce(&T) -> R,
    ) -> Step<R> {
        self.access(obj, |t, _dirty| f(t))
    }

    /// Mutates external object `obj` within the active action, acquiring it
    /// (and waiting for competing actions to release it) if needed. The
    /// update is transactional: it commits or rolls back with the action.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] on recovery interruption.
    pub fn update<T: Clone + 'static, R>(
        &mut self,
        obj: &SharedObject<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Step<R> {
        self.access(obj, |t, dirty| {
            *dirty = true;
            f(t)
        })
    }

    /// The object round: registers the request, then waits — a poll point
    /// — answering each doorbell with an attempt until one is granted, or
    /// takes the request back when recovery or the crash instant ends the
    /// wait first (see [`crate::objects`]).
    fn access<T: Clone + 'static, R>(
        &mut self,
        obj: &SharedObject<T>,
        f: impl FnOnce(&mut T, &mut bool) -> R,
    ) -> Step<R> {
        self.poll()?;
        if self.stack.is_empty() {
            return Err(RuntimeError::NoActiveAction("object access").into());
        }
        let action = self.frame().id.action;
        let chain = self
            .stack
            .iter()
            .map(|level| level.frame.id.action)
            .collect();
        let request = Acquisition::request(obj, self.me, chain, &self.endpoint);
        let mut f = Some(f);
        let (value, opened) = loop {
            match self.wait(Round::Object, None) {
                Ok(Performed::Rang) => {
                    if let Some(granted) = request.attempt(&mut f, &self.endpoint) {
                        break granted;
                    }
                }
                Ok(_) => {}
                Err(flow) => {
                    request.withdraw(&self.endpoint);
                    return Err(flow);
                }
            }
        };
        // Register the object with every frame on the stack: acquisition
        // may have opened layers for enclosing actions too, and each frame
        // must commit or roll back its own layer when it completes.
        // Dedup by identity, not name — two distinct objects may share one.
        let obj_id = TxControl::object_id(obj);
        for level in &mut self.stack {
            if !level.objects.iter().any(|o| o.object_id() == obj_id) {
                level.objects.push(Box::new(obj.clone()));
            }
        }
        if opened > 0 {
            let object = obj.name();
            let waited_ns = self
                .now()
                .as_nanos()
                .saturating_sub(request.since.as_nanos());
            self.observe(action, || EventKind::ObjectAcquired { object, waited_ns });
        }
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Entering actions
    // ------------------------------------------------------------------

    /// Enters `def` playing `role`, runs `body` cooperatively with the other
    /// roles, and completes the action under the termination model.
    ///
    /// At the top level (depth 0) the outcome is returned. Inside an
    /// enclosing action, a non-success outcome is *raised* in the enclosing
    /// action instead ("the exceptions concurrently signalled from the
    /// nested action will simply be handled as if they are concurrently
    /// raised in the enclosing action", §3.1), so `Ok` is only ever
    /// `ActionOutcome::Success` there.
    ///
    /// # Errors
    ///
    /// Returns [`Flow`] when recovery at an enclosing level interrupts the
    /// action, and fatally on binding errors (unknown role, wrong thread).
    pub fn enter(
        &mut self,
        def: &ActionDef,
        role: &str,
        body: impl FnOnce(&mut Ctx) -> Step,
    ) -> Step<ActionOutcome> {
        let inner = &def.inner;
        let role_id = self.bind_role(inner, role)?;

        let depth = u32::try_from(self.stack.len()).expect("nesting depth bounded");
        let parent_serial = self
            .stack
            .last()
            .map_or(0, |level| level.frame.id.action.serial());
        let key = (def.def_id, parent_serial);
        let at = match self.entry_counts.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => at,
            Err(at) => {
                self.entry_counts.insert(at, (key, 0));
                at
            }
        };
        let instance = &mut self.entry_counts[at].1;
        let action = make_action_id(def.def_id, parent_serial, *instance, depth);
        *instance += 1;
        self.push_frame(action, inner, role_id);

        // "if Ti enters A then <A> → SAi; consume messages having arrived".
        let mut initial: Option<Feed> = None;
        // In place and in arrival order: the messages retained before this
        // entry are looked at once each, and whatever handling one of them
        // retains lands behind them (usually there is none, and no list).
        let (mut at, mut unseen) = (0, self.retained.len());
        while unseen > 0 {
            unseen -= 1;
            if self.retained[at].action() != action {
                at += 1;
                continue;
            }
            let msg = self.retained.remove(at);
            // Signals, votes and application traffic are buffered as usual;
            // a retained trigger is stashed and starts the action in
            // recovery (any other outcome is as moot as the message).
            let top = self.stack.len() - 1;
            let decision = self.frame_mut().absorb(msg, true, Round::Body);
            if let Err(flow) = self.perform(top, decision) {
                if matches!(flow.unwind, Unwind::Suspend) {
                    initial = Some(Feed::Suspend);
                }
            }
        }

        self.observe_enter(action, inner, role_id);
        let outcome = self.drive(inner, initial, body)?;
        if !outcome.is_success() && !self.stack.is_empty() {
            // Auto-raise the signalled exception in the enclosing
            // action (distributed signalling, §3.1).
            let id = outcome
                .exception_id()
                .expect("non-success outcome always carries an exception");
            return Err(Flow::new(Unwind::Raise(
                Exception::new(id).with_origin(self.me),
            )));
        }
        Ok(outcome)
    }

    /// Resolves `role` in `def` and checks that this thread is the one
    /// bound to it.
    fn bind_role(&self, def: &DefInner, role: &str) -> Result<RoleId, Flow> {
        let role_id = role_id(def, role)?;
        if def.thread_of(role_id) != self.me {
            return Err(RuntimeError::RoleMismatch {
                action: def.name.to_string(),
                role: role.to_owned(),
            }
            .into());
        }
        Ok(role_id)
    }

    /// Pushes a frame for instance `action` of `def`, played as `role`: a
    /// spare one re-entered, or — while the participant has none — a new
    /// one.
    fn push_frame(&mut self, action: ActionId, def: &Rc<DefInner>, role: RoleId) {
        let mut level = self.spare.pop().unwrap_or_else(|| Level {
            frame: Frame::new(def),
            objects: Vec::new(),
        });
        level.frame.reenter(action, def, role, self.me);
        self.stack.push(level);
    }

    fn observe_enter(&self, action: ActionId, def: &DefInner, role: RoleId) {
        self.observe(action, || EventKind::Enter {
            name: def.name,
            role: def.roles[role.index()].name,
            depth: u32::try_from(self.stack.len()).expect("nesting depth fits u32"),
        });
    }

    /// Simulates the down-time of a crashed participant before its
    /// restart: cancels any pending crash schedule (the process already
    /// died; a stale schedule would re-kill the restart at its first poll
    /// point) and idles `dur` of virtual time at the thread's top level.
    /// Traffic arriving during the down-time is the peers' business —
    /// stragglers for the dead instance are dropped by the normal routing
    /// rules. Follow with [`Ctx::rejoin`].
    ///
    /// # Errors
    ///
    /// Fatally, on simulation failure.
    pub fn restart_after(&mut self, dur: VirtualDuration) -> Step {
        self.crash_at = None;
        self.work(dur)
    }

    /// Re-enters the action this thread last crashed out of, as a restarted
    /// participant (epoch-numbered rejoin; see [`caa_protocol::membership`]).
    ///
    /// Call at the thread's top level after a crash-stop [`Flow`] (see
    /// [`Flow::is_crash`]) unwound the stack. The restarted participant
    /// broadcasts a `JoinRequest` to every other member of the action's
    /// group — it cannot know who survived — and waits a bounded window for
    /// the first `JoinGrant`. A grant carries the granter's current view,
    /// exit epoch and resolved exception; the rejoiner fast-forwards to
    /// that view, re-enters the action (observing a `Rejoin` and a second
    /// `Enter` for the same instance) and completes its exit protocol as a
    /// member again.
    ///
    /// Returns `Ok(None)` — benign — when there is nothing to rejoin: no
    /// crash was recorded, or no survivor answered within the window (all
    /// finished the action, or all crashed too). Returns the re-entered
    /// action's outcome otherwise.
    ///
    /// # Errors
    ///
    /// Fatally on binding errors (unknown role, wrong thread,
    /// [`RuntimeError::RejoinInAction`]) and on inconsistent grants.
    pub fn rejoin(&mut self, def: &ActionDef, role: &str) -> Step<Option<ActionOutcome>> {
        // The restart cancels whatever killed us; a stale schedule would
        // re-kill the rejoiner at its first poll point.
        self.crash_at = None;
        let Some(action) = self.last_crash.take() else {
            return Ok(None);
        };
        if !self.stack.is_empty() {
            return Err(RuntimeError::RejoinInAction.into());
        }
        let inner = &def.inner;
        let role_id = self.bind_role(inner, role)?;
        let me = self.me;
        self.broadcast(&inner.spec.group, |peer| {
            self.observe(action, || EventKind::JoinRequested { to: peer });
            Message::JoinRequest { action, from: me }
        });
        // The window only needs to cover a request/grant round trip, so the
        // (short, unscaled) signalling timeout fits; survivors blocked on
        // our exit vote wait out the much longer exit timeout, keeping a
        // successful rejoin comfortably inside their patience.
        let window = inner
            .signal_timeout
            .or(inner.exit_timeout)
            .unwrap_or_else(|| caa_core::time::secs(60.0));
        let round = Round::Join { action };
        let RoundEnd::Granted(Message::JoinGrant {
            epoch,
            removed,
            exit_epoch,
            resolved,
            ..
        }) = self.collect(round, Some(window))?
        else {
            return Ok(None);
        };
        let view = match FrameMembership::sync_grant(&inner.spec.group, epoch, &removed, me) {
            Ok(view) => view,
            Err(violation) => return self.violated(violation),
        };
        let view_epoch = view.epoch();
        self.finished.retain(|&serial| serial != action.serial());
        self.system.stats.borrow_mut().rejoins += 1;
        self.push_frame(action, inner, role_id);
        self.frame_mut().rejoin(view, exit_epoch, resolved);
        self.observe(action, || EventKind::Rejoin {
            epoch: view_epoch,
            thread: me,
        });
        self.observe_enter(action, inner, role_id);
        // The catch-up body is trivial: the rejoiner's pre-crash work is
        // lost (its transaction layers were broken at the crash) and must
        // not be redone — what remains is finishing the protocol rounds as
        // a member: join any in-flight recovery, vote, exit.
        let outcome = self.drive(inner, None, |_| Ok(()))?;
        Ok(Some(outcome))
    }

    /// Runs the action's phases until an outcome is reached, recovering as
    /// many times as enclosing-level aborts demand. The frame is always
    /// popped before returning.
    ///
    /// `def` is the active frame's definition, borrowed from the caller for
    /// as long as the frame is active: what the phases run of it — the
    /// role's handlers, abortion handler and undo hook — is called through
    /// this borrow, not through a reference count taken on the frame's.
    fn drive(
        &mut self,
        def: &DefInner,
        initial: Option<Feed>,
        body: impl FnOnce(&mut Ctx) -> Step,
    ) -> Step<ActionOutcome> {
        let mut attempt = match initial {
            Some(start) => self.phase_recover(def, start),
            None => match body(self) {
                Ok(()) => self.phase_exit(def, None),
                Err(flow) => Err(flow),
            },
        };
        loop {
            match attempt {
                Ok(outcome) => return Ok(outcome),
                Err(flow) => {
                    let start = self.unwind_top(def, flow.unwind)?;
                    attempt = self.phase_recover(def, start);
                }
            }
        }
    }

    /// Performs where `unwind` lands at the top frame, an instance of `def`
    /// ([`rounds::land`]): the recovery that starts there, or — the frame
    /// aborted on the way out or dead, and popped — the flow that carries
    /// the unwind on (§3.3.1).
    fn unwind_top(&mut self, def: &DefInner, unwind: Unwind) -> Result<Feed, Flow> {
        let dead = match rounds::land(unwind, self.frame().id.action) {
            Landing::Recover(start) => return Ok(start),
            Landing::Abort { target } => {
                self.system.stats.borrow_mut().aborts += 1;
                // From here on, recovery messages for the instance are
                // stragglers. Its abortion handler runs while the frame is
                // still active, so it can use the context.
                let frame = self.frame_mut();
                frame.abort();
                let result = match &def.roles[frame.id.role.index()].abort {
                    Some(handler) => handler(self).map_err(|flow| flow.unwind),
                    None => Ok(None),
                };
                match aborted(result, target) {
                    Ok((eab, next)) => {
                        // Effects that cannot be undone taint the object.
                        self.close_frame(Release::Undo, || EventKind::Abort { eab });
                        return Err(Flow::new(next));
                    }
                    Err(dead) => dead,
                }
            }
            Landing::Dead(dead) => dead,
        };
        match dead {
            // Like a process death: layers broken, no message sent, and a
            // `Crash` entry for the never-closed one. Frames pop
            // innermost-out, so the last one recorded is the outermost
            // action the crash discarded — the one a restart rejoins.
            Unwind::Crash => {
                self.last_crash = Some(self.frame().id.action);
                self.close_frame(Release::Undo, || EventKind::Crash);
            }
            _ => self.close_frame(Release::Rollback, || EventKind::Abort { eab: None }),
        }
        Err(Flow::new(dead))
    }

    /// Ends the top frame: pops its layer on every object it registered as
    /// `how` says, logs `end` and pops the frame.
    fn close_frame(&mut self, how: Release, end: impl FnOnce() -> EventKind) {
        self.release(how);
        self.observe_top(end);
        self.pop_frame();
    }

    /// [`objects::release`] over the top frame's objects.
    fn release(&mut self, how: Release) -> bool {
        let level = self.stack.last_mut().expect("frame active");
        let action = level.frame.id.action;
        objects::release(&mut level.objects, action, how, &self.endpoint)
    }

    fn pop_frame(&mut self) {
        if let Some(mut level) = self.stack.pop() {
            let serial = level.frame.id.action.serial();
            if let Err(at) = self.finished.binary_search(&serial) {
                self.finished.insert(at, serial);
            }
            level.frame.leave();
            level.objects.clear();
            self.spare.push(level);
        }
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// The exit protocol, then leaving the action as [`rounds::leave`]
    /// decides: `signalled` is what a recovery's signalling concluded,
    /// `None` after a body that completed normally.
    fn phase_exit(
        &mut self,
        def: &DefInner,
        signalled: Option<ActionOutcome>,
    ) -> Step<ActionOutcome> {
        let end = self.run_exit()?;
        match leave(end, signalled) {
            Ok(Leave::Finalize(outcome)) => self.finalize(outcome),
            Ok(Leave::Recover) => self.phase_recover(def, Feed::Suspend),
            Err(violation) => self.violated(violation),
        }
    }

    /// One full recovery: resolution, handling, signalling, exit.
    fn phase_recover(&mut self, def: &DefInner, start: Feed) -> Step<ActionOutcome> {
        self.system.stats.borrow_mut().recoveries += 1;
        let resolved = match self.run_recovery(start)? {
            Some(resolved) => resolved,
            // A concurrent view change evicted this thread: the survivors
            // resolve among themselves, we give up locally (ƒ).
            None => return self.finalize(ActionOutcome::Failed),
        };
        let verdict = self.run_handler(def, resolved)?;
        let my_signal = self.run_signalling(def, verdict)?;
        self.observe_top(|| EventKind::SignalOutcome {
            signal: my_signal.clone(),
        });
        // The recovery rounds are over: re-admit any restarted participant
        // that asked to rejoin while they ran.
        let (top, joiners) = (self.stack.len() - 1, self.frame_mut().end_recovery());
        for &joiner in &joiners {
            self.grant_join(top, joiner);
        }
        self.phase_exit(def, Some(my_signal.into()))
    }

    /// Releases the objects as `outcome` says and pops the frame.
    fn finalize(&mut self, outcome: ActionOutcome) -> Step<ActionOutcome> {
        self.close_frame(release_on_exit(&outcome), || EventKind::Exit {
            outcome: outcome.clone(),
        });
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Recovery: resolution
    // ------------------------------------------------------------------

    /// Runs resolution until agreement, or until a concurrent view change
    /// evicts this thread (`Ok(None)`: the survivors resolve without us and
    /// the caller must give up locally).
    fn run_recovery(&mut self, start: Feed) -> Step<Option<ExceptionId>> {
        self.frame_mut().begin_recovery();
        self.observe_top(|| EventKind::RecoveryStart {
            raised: matches!(start, Feed::Raise(_)),
        });
        let top = self.stack.len() - 1;
        loop {
            match self.frame_mut().next_opening() {
                Opening::Stashed(decision) => {
                    self.perform(top, decision)?;
                }
                Opening::Announce => break,
                Opening::Excluded => return Ok(None),
            }
        }
        if let Feed::Raise(e) = &start {
            self.system.stats.borrow_mut().exceptions_raised += 1;
            // "inform external objects (used by Ti within A) of the
            // exception".
            let level = self.stack.last().expect("frame active");
            for obj in &level.objects {
                obj.inform_exception(level.frame.id.action, e.id().name());
            }
            self.observe_top(|| EventKind::Raise { exception: *e.id() });
        }
        self.feed(start)?;
        let timeout = self.frame().id.def.resolution_timeout;
        let end = self.collect(Round::Resolution, timeout)?;
        let Some(resolved) = self.frame_mut().resolved(end) else {
            return Ok(None);
        };
        self.observe_top(|| EventKind::Resolved {
            exception: resolved,
        });
        Ok(Some(resolved))
    }

    /// Feeds the active frame's resolver ([`Frame::feed`]) and performs its
    /// answer: sends its outbound messages and charges `Treso` per
    /// resolution invocation.
    fn feed(&mut self, feed: Feed) -> Step {
        let frame = &mut self.stack.last_mut().expect("frame active").frame;
        let mut actions = frame.feed(&*self.system.protocol, feed);
        for (to, msg) in actions.outbound.drain(..) {
            self.send(to, msg);
        }
        self.frame_mut().recycle(actions.outbound);
        if actions.resolve_invocations > 0 {
            self.system.stats.borrow_mut().resolutions_invoked +=
                u64::from(actions.resolve_invocations);
            self.observe_top(|| EventKind::ResolutionInvoked {
                invocations: actions.resolve_invocations,
            });
            let delay = self.system.resolution_delay * actions.resolve_invocations;
            if !delay.is_zero() {
                self.endpoint.sleep(delay)?;
            }
        }
        Ok(())
    }

    /// The one bounded-collect round (see the module docs), entered after
    /// the caller announced to the view. Each pass polls `round`'s predicate
    /// over the view as it is now, then waits until the round's deadline —
    /// `timeout` from the last arming, unbounded when `None` — for what the
    /// round decides about the arrival or the expiry.
    fn collect(&mut self, round: Round, timeout: Option<VirtualDuration>) -> Step<RoundEnd> {
        let mut deadline = self.deadline_in(timeout);
        loop {
            if let Some(end) = round.status(self.stack.last().map(|level| &*level.frame)) {
                return Ok(end);
            }
            match self.wait(round, deadline)? {
                Performed::Continue | Performed::Rang => {}
                Performed::Rearm => deadline = self.deadline_in(timeout),
                Performed::End(end) => return Ok(end),
            }
        }
    }

    /// Executes one round decision. `index` is the frame it addresses.
    fn perform(&mut self, index: usize, action: RoundAction<RuntimeError>) -> Step<Performed> {
        match action {
            RoundAction::Continue => {}
            RoundAction::End(end) => return Ok(Performed::End(end)),
            RoundAction::Control { step, feed, rearm } => {
                if let Some(step) = step {
                    self.observe_view_step(index, &step);
                }
                if let Some(feed) = feed {
                    self.feed(feed)?;
                }
                if rearm {
                    return Ok(Performed::Rearm);
                }
            }
            RoundAction::Grant(joiner) => self.grant_join(index, joiner),
            RoundAction::Retain(msg) => self.retained.push(msg),
            RoundAction::CapDropped => self.system.stats.borrow_mut().retained_dropped += 1,
            RoundAction::CountCorrupted => self.system.stats.borrow_mut().corrupted_ignored += 1,
            RoundAction::Interrupt(unwind) => return Err(Flow::new(unwind)),
            RoundAction::Violation(Violation(what)) => {
                return Err(RuntimeError::Protocol(what).into());
            }
        }
        Ok(Performed::Continue)
    }

    /// Performs what `round`'s expired deadline decided: counts and logs
    /// the timeout, performs the quorum gate's decision on the silent peers
    /// at the active frame, then ends or re-arms the round.
    fn expire(&mut self, round: Round, expiry: Expiry) -> Step<Performed> {
        let (suspects, decided, then) = match expiry {
            Expiry::Ignored => return Ok(Performed::Continue),
            Expiry::End(end) => return Ok(Performed::End(end)),
            Expiry::Suspect(suspects, decided, then) => (suspects, decided, then),
            Expiry::Violation(violation) => return self.violated(violation),
        };
        let (epoch, stats) = (self.frame().exit_epoch(), &self.system.stats);
        let timeout = timed_out(round, &suspects, epoch, &mut stats.borrow_mut());
        if let Some(timeout) = timeout {
            self.observe_top(|| timeout);
        }
        match decided {
            Ok(Suspicion::Refused { .. }) => stats.borrow_mut().suspicions_refused += 1,
            Ok(Suspicion::GiveUp) => stats.borrow_mut().exit_give_ups += 1,
            Ok(Suspicion::Evict(step, recipients, feed)) => {
                let index = self.stack.len() - 1;
                self.observe_view_step(index, &step);
                // Announce first: per-link FIFO then shows every
                // survivor the change before what we derive from it.
                let (action, me) = (self.stack[index].frame.id.action, self.me);
                let removed: Rc<[ThreadId]> = Rc::from(&step.removed[..]);
                self.broadcast(&recipients, |_| Message::ViewChange {
                    action,
                    from: me,
                    removed: Rc::clone(&removed),
                });
                if feed {
                    self.feed(Feed::ViewChange(step.removed))?;
                }
            }
            Err(violation) => return self.violated(violation),
        }
        Ok(then.map_or(Performed::Rearm, Performed::End))
    }

    /// Performs a violation a round decided between waits: the thread ends
    /// as [`Ctx::perform`] ends it.
    fn violated<T>(&mut self, violation: Violation) -> Step<T> {
        let top = self.stack.len().saturating_sub(1);
        self.perform(top, RoundAction::Violation(violation))?;
        unreachable!("a violation ends the thread")
    }

    /// Counts and logs one step of the view of the frame at `index`: a
    /// local eviction or an adopted removal set.
    fn observe_view_step(&self, index: usize, step: &ViewStep) {
        self.system.stats.borrow_mut().view_changes += 1;
        self.observe(self.stack[index].frame.id.action, || {
            EventKind::ViewChange {
                epoch: step.epoch,
                removed: step.removed[..].into(),
            }
        });
    }

    /// Answers a restarted participant's `JoinRequest` at the frame at
    /// `index` with the grant the frame builds ([`Frame::grant_join`]).
    fn grant_join(&mut self, index: usize, joiner: ThreadId) {
        let frame = &mut self.stack[index].frame;
        let action = frame.id.action;
        let Some(granted) = frame.grant_join(joiner) else {
            return; // never part of this action's group; ignore
        };
        if let Some(epoch) = granted.readmitted {
            self.observe(action, || EventKind::Rejoin {
                epoch,
                thread: joiner,
            });
        }
        self.send(joiner, granted.grant);
        if let Some(vote) = granted.revote {
            self.send(joiner, vote);
        }
    }

    // ------------------------------------------------------------------
    // Recovery: handling
    // ------------------------------------------------------------------

    /// Runs the role's handler for `resolved` (the frame marks itself
    /// handling it from [`Frame::resolved`] to [`Frame::handled`]).
    fn run_handler(&mut self, def: &DefInner, resolved: ExceptionId) -> Step<HandlerVerdict> {
        let handler = def.handler_for(self.frame().id.role, resolved);
        self.observe_top(|| EventKind::HandlerStart {
            exception: resolved,
        });
        let verdict = match handler {
            Some(h) => h(self),
            None => Ok(DefInner::default_verdict(resolved)),
        };
        if let Some(level) = self.stack.last_mut() {
            level.frame.handled();
        }
        let verdict = verdict?;
        self.observe_top(|| EventKind::HandlerEnd {
            verdict: verdict.clone(),
        });
        Ok(verdict)
    }

    // ------------------------------------------------------------------
    // Recovery: signalling (§3.4)
    // ------------------------------------------------------------------

    /// Performs the steps of §3.4's case analysis ([`rounds::signalling`])
    /// for a handler that came to `verdict`.
    fn run_signalling(&mut self, def: &DefInner, verdict: HandlerVerdict) -> Step<Signal> {
        let mine = verdict.to_signal();
        let mut at = Signalled::Handled;
        loop {
            at = match rounds::signalling(self.frame(), &mine, at) {
                SignalStep::Done(signal) => return Ok(signal),
                SignalStep::Undo { alone } => self.perform_undo(def, alone),
                SignalStep::Exchange(round, signal) => {
                    Signalled::Exchanged(round, self.signal_round(round, signal)?)
                }
            }
        }
    }

    /// Undoes this thread's effects — case 2's undo round, counted, or the
    /// local undo of a thread that signals `alone`: rolls back every object
    /// it touched and runs the role's undo hook (of `def`, the top frame's
    /// definition). It comes to µ on success, ƒ when some undo operation
    /// failed.
    fn perform_undo(&mut self, def: &DefInner, alone: bool) -> Signalled {
        self.system.stats.borrow_mut().undo_rounds += u64::from(!alone);
        let role = self.frame().id.role;
        let mut ok = true;
        if let Some(hook) = &def.roles[role.index()].undo {
            match hook(self) {
                Ok(hook_ok) => ok &= hook_ok,
                Err(_) => ok = false,
            }
        }
        ok &= self.release(Release::Undo);
        let signal = if ok { Signal::Undo } else { Signal::Failure };
        Signalled::Undone { signal, alone }
    }

    /// One exchange of the signalling algorithm: broadcast my signal for
    /// `round`, collect everyone's. A round that ends any other way than
    /// with the group's signals did not coordinate: ƒ.
    fn signal_round(&mut self, round: SignalRound, mine: Signal) -> Step<Collected> {
        let me = self.me;
        let frame = self.frame_mut();
        let group = frame.announce_signal(round, &mine);
        let (action, timeout) = (frame.id.action, frame.id.def.signal_timeout);
        self.broadcast(&group, |_| Message::ToBeSignalled {
            action,
            from: me,
            round,
            signal: mine.clone(),
        });
        match self.collect(Round::Signalling(round), timeout)? {
            RoundEnd::Signals(collected) => Ok(collected),
            _ => Ok(Collected::FAILED),
        }
    }

    // ------------------------------------------------------------------
    // Exit protocol (§5.1)
    // ------------------------------------------------------------------

    fn run_exit(&mut self) -> Step<RoundEnd> {
        let Some((epoch, view)) = self.frame_mut().vote_exit() else {
            return Ok(RoundEnd::Excluded);
        };
        let (me, frame) = (self.me, self.frame());
        let (action, timeout) = (frame.id.action, frame.id.def.exit_timeout);
        self.observe(action, || EventKind::ExitStart { epoch });
        self.broadcast(&view, |_| Message::ExitVote {
            action,
            from: me,
            epoch,
        });
        self.collect(Round::Exit, timeout)
    }

    // ------------------------------------------------------------------
    // Message routing
    // ------------------------------------------------------------------

    /// What a received message — `None` if it arrived corrupted — means
    /// while `round` is in progress ([`rounds::classify`]), with the index
    /// of the frame it addresses.
    fn classify(
        &mut self,
        msg: Option<Message>,
        round: Round,
    ) -> (usize, RoundAction<RuntimeError>) {
        let (finished, retained) = (&self.finished, self.retained.len());
        rounds::classify(msg, round, &mut self.stack, finished, retained, self.me)
    }

    /// Non-blocking poll point: absorbs everything deliverable now; unwinds
    /// if recovery must take over (or a scheduled crash instant passed).
    fn poll(&mut self) -> Step {
        self.crash_check()?;
        while let Some(received) = self.endpoint.try_recv()? {
            let (index, action) = self.classify(received.msg, Round::Body);
            self.perform(index, action)?;
        }
        Ok(())
    }

    /// Called by the system when the thread body finishes: release the
    /// endpoint, and leave the context's lists to the next run's.
    pub(crate) fn shutdown(mut self) {
        self.endpoint.retire();
        // A body that ended inside an action (it can only have panicked
        // its way out) leaves frames behind: they are not recycled.
        self.stack.clear();
        self.retained.clear();
        let mut all = self.system.scratch.borrow_mut();
        if all.len() <= self.me.index() {
            all.resize_with(self.me.index() + 1, CtxScratch::default);
        }
        all[self.me.index()] = CtxScratch {
            stack: self.stack,
            retained: self.retained,
            spare: self.spare,
            protocol: self.spare_protocol,
        };
    }
}

/// Counts in `stats` that `round`'s wait expired with `suspects` silent;
/// the event that logs it (an exit timeout names the frame's `exit_epoch`),
/// `None` for a wait that is not a frame's round.
fn timed_out(
    round: Round,
    suspects: &[ThreadId],
    exit_epoch: u32,
    stats: &mut RuntimeStats,
) -> Option<EventKind> {
    let suspects: Box<[ThreadId]> = suspects.into();
    Some(match round {
        Round::Resolution => {
            stats.resolution_timeouts += 1;
            EventKind::ResolutionTimeout { suspects }
        }
        Round::Signalling(round) => {
            stats.signal_timeouts += 1;
            EventKind::SignalTimeout { round, suspects }
        }
        Round::Exit => {
            stats.exit_timeouts += 1;
            EventKind::ExitTimeout { epoch: exit_epoch }
        }
        Round::Body | Round::Object | Round::Join { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use caa_core::outcome::{ActionOutcome, HandlerVerdict};
    use caa_core::time::secs;

    use super::*;
    use crate::System;

    thread_local! {
        /// The address of action A's frame, once its undo hook saw the
        /// frame in the middle of a recovery.
        static A_FRAME: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn address(frame: &Frame) -> usize {
        std::ptr::from_ref(frame) as usize
    }

    /// What an expired wait counts and logs, by the round it served: a
    /// frame's round names its suspects (an exit timeout its epoch), and a
    /// body's, an object's or a grant wait's deadline is no round timeout.
    #[test]
    fn a_timeout_counts_and_logs_by_round() {
        let mut stats = RuntimeStats::default();
        let t = ThreadId::new;
        let rounds = [
            Round::Resolution,
            Round::Signalling(SignalRound::First),
            Round::Signalling(SignalRound::AfterUndo),
            Round::Exit,
            Round::Body,
            Round::Object,
            Round::Join {
                action: ActionId::top_level(7),
            },
        ];
        let logged = rounds
            .map(|round| timed_out(round, &[t(1), t(2)], 3, &mut stats).map(|e| e.to_string()));
        assert_eq!(
            logged,
            [
                Some("resolution timeout suspects T1 T2".to_owned()),
                Some("signal timeout round-1 suspects T1 T2".to_owned()),
                Some("signal timeout round-2 suspects T1 T2".to_owned()),
                Some("exit timeout e3".to_owned()),
                None,
                None,
                None,
            ]
        );
        let counted = (
            stats.resolution_timeouts,
            stats.signal_timeouts,
            stats.exit_timeouts,
        );
        assert_eq!(counted, (1, 2, 1));
    }

    /// A participant's next action re-enters the boxed frame its last one
    /// left, objects list emptied — after an instance that went through
    /// object traffic, buffered application messages, resolution, a
    /// handler and both signalling exchanges of an undo. (That the frame
    /// is then, field for field, the frame a first entry makes is
    /// `caa_protocol::rounds`'s test.)
    #[test]
    fn a_frame_left_after_an_undo_is_reentered_as_new() {
        let undo = |_: &mut Ctx| Ok(HandlerVerdict::Undo);
        let a = ActionDef::builder("a")
            .role("a0", 0u32)
            .role("a1", 1u32)
            .fallback_handler("a0", undo)
            .fallback_handler("a1", undo)
            .undo_hook("a0", |uc| {
                let level = uc.stack.last().expect("A's frame");
                assert!(!level.objects.is_empty(), "A touched the object");
                A_FRAME.set(Some(address(&level.frame)));
                Ok(true)
            })
            .build()
            .expect("action A");
        let b = ActionDef::builder("b")
            .role("b0", 0u32)
            .build()
            .expect("action B");
        let object = SharedObject::new("o", 0u32);
        let mut sys = System::builder().build();
        let a1 = a.clone();
        sys.spawn("T0", move |ctx| {
            let outcome = ctx.enter(&a, "a0", |rc| {
                rc.update(&object, |v| *v += 1)?;
                rc.work(secs(1.0))?;
                rc.raise(Exception::new("e"))
            })?;
            assert_eq!(outcome, ActionOutcome::Undone);
            assert_eq!(ctx.spare.len(), 1, "A's frame was left to the pool");
            ctx.enter(&b, "b0", |bc| {
                let level = bc.stack.last().expect("B's frame");
                let a_frame = A_FRAME.take().expect("A recovered through its undo");
                assert_eq!(address(&level.frame), a_frame, "B re-entered A's frame");
                assert!(Rc::ptr_eq(&level.frame.id.def, &b.inner));
                assert!(level.objects.is_empty(), "A's objects stayed with A");
                Ok(())
            })
            .map(drop)
        });
        sys.spawn("T1", move |ctx| {
            ctx.enter(&a1, "a1", |rc| {
                rc.send_to_role("a0", "unread", 1u32)?;
                rc.work(secs(10.0))
            })
            .map(drop)
        });
        sys.run().expect_ok();
    }
}
