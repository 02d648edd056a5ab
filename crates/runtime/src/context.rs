//! Per-thread execution context: action stack, message routing and the
//! coordinated-recovery driver.
//!
//! Each participating thread owns a [`Ctx`]. Entering a CA action pushes a
//! frame on the paper's `SA` stack; every runtime operation the role
//! performs is a *poll point* at which pending control messages are
//! processed — the `Result`-based stand-in for Ada 95's asynchronous
//! transfer of control (see `DESIGN.md`). The driver in this module
//! realises, per action frame:
//!
//! * the resolution algorithm of §3.3.2 (delegated to the system's
//!   [`ResolutionProtocol`]), with
//!   the crash-aware bounded wait of the membership extension
//!   ([`crate::membership`]): a silent peer is presumed crashed, removed
//!   from the frame's membership view and resolved as a synthesized crash
//!   exception;
//! * the abortion cascade over nested actions (§3.3.1);
//! * exception handling under the termination model (§3.1);
//! * the signalling algorithm of §3.4 with its µ/ƒ coordination;
//! * the synchronous exit protocol (§5.1).
//!
//! # One collect round
//!
//! Recovery is a sequence of uniform coordination rounds — resolution, the
//! two signalling exchanges, the exit barrier, and a restarted
//! participant's wait for a rejoin grant ([`Ctx::rejoin`]): announce to the
//! participants, wait until all have answered or the bound expires, treat
//! silence as ƒ. `Ctx::collect` is the only loop that waits on a round: it
//! polls the round's predicate over the view as it is *now*, receives
//! until the round's deadline, routes what arrives, and on expiry asks the
//! round for its silent set, runs suspicion on it (`Ctx::suspect_round`:
//! quorum gate, view change, announcement) and re-arms or concludes. What
//! a round *decides* at each of those points is pure `event → action`
//! state in the private `rounds` module (in the shape of
//! [`ResolverState::on_event`]):
//! `Round::status`, `Round::expired`, and — for a message — `Frame::absorb`
//! of the frame it addresses, each answering with a `RoundAction`. That
//! module never touches the endpoint, the system or this context; `Ctx` is
//! the thin driver that owns the endpoint and the frame stack, performs
//! the actions (`Ctx::perform`) and appends to the run's log. Poll points
//! of a role body go through the same two steps, as `Round::Body`.
//!
//! A frame is a constructor plus parts grouped by responsibility — identity
//! (`id`), inboxes (`inbox`), recovery state (`recovery`), signalling table
//! (`signals`), exit barrier (`exit`), view/liveness (`view`) and objects —
//! reached through `Ctx::frame`/`Ctx::frame_mut`. Rounds range over the
//! frame's *current view*, so a recovery that shrank the membership
//! completes among the survivors.
//!
//! **Adding a round:** add a `Round` variant with its `status` and
//! `expired` arms in `rounds.rs` (what completes it, who is silent at
//! expiry, what expiry concludes), keep what it collects in a frame part
//! that `Frame::absorb` fills, and call `self.collect(Round::…, timeout)`
//! after announcing with `Ctx::broadcast`. The driver changes only if the
//! round needs an effect no existing `RoundAction` names.

use std::rc::Rc;
use std::sync::Arc;

use caa_core::exception::{Exception, ExceptionId, Signal};
use caa_core::ids::{ActionId, PartitionId, RoleId, ThreadId};
use caa_core::inline::InlineVec;
use caa_core::message::{AppPayload, Message, SignalRound};
use caa_core::name::Name;
use caa_core::outcome::{ActionOutcome, HandlerVerdict};
use caa_core::time::{VirtualDuration, VirtualInstant};
use caa_simnet::{FiberEndpoint, Parked, Received};

use crate::action::{make_action_id, ActionDef, DefInner};
use crate::error::{Flow, RuntimeError, Step, Unwind};
use crate::membership::{synthesize_crashes, Eviction, FrameMembership, ViewSnapshot};
use crate::objects::{AccessOutcome, ObjectError, SharedObject, TxControl, Wake, CHAIN_INLINE};
use crate::observe::{EntryKind, Event, EventKind};
use crate::protocol::{ProtoActions, ProtoCtx, ProtoEvent, ResolutionProtocol, ResolverState};
use crate::rounds::{corrupted, unframed, Collected, Frame, Frames, Round, RoundAction, RoundEnd};
use crate::system::SystemShared;

/// An application message delivered to a role.
#[derive(Debug)]
pub struct AppMsg {
    /// The sending thread.
    pub from: ThreadId,
    /// The application-chosen tag.
    pub tag: &'static str,
    /// The payload.
    pub payload: AppPayload,
}

/// How a role body was started or restarted into recovery.
#[derive(Debug)]
enum RecoveryStart {
    /// This thread raised the exception.
    Raise(Exception),
    /// This thread suspends because of peers' exceptions.
    Suspend,
}

/// What a participant's context keeps on the heap, as one run's context
/// leaves it for the next run's ([`Ctx::shutdown`]): every list empty, its
/// capacity kept. A system hands these out from the host thread's run pool
/// (see [`crate::system`]), so a warmed participant sizes nothing.
#[derive(Default)]
pub(crate) struct CtxScratch {
    stack: Frames,
    retained: Vec<Message>,
    /// The frames popped so far, left ([`Frame::leave`]) for the next
    /// entries to re-enter.
    spare: Frames,
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
    /// The action stack, innermost last. Boxed, so that entering and
    /// leaving move a pointer, not a frame.
    stack: Frames,
    /// Popped frames, left for the next entries to re-enter, and the
    /// protocol their resolver states are of (the system's own).
    spare: Frames,
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

/// Emits a trace line when `CAA_TRACE` is set (diagnostics for protocol
/// debugging; no-op otherwise).
macro_rules! trace {
    ($self:expr, $($arg:tt)*) => {
        if crate::trace_enabled() {
            eprintln!(
                "[{} {} d{}] {}",
                $self.endpoint.now(),
                $self.name,
                $self.stack.len(),
                format_args!($($arg)*)
            );
        }
    };
}

/// An internal inconsistency: fatal to the thread.
fn protocol_error(what: impl Into<String>) -> Flow {
    RuntimeError::Protocol(what.into()).into()
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

/// What [`Ctx::perform`] left the round in.
enum Performed {
    /// Keep collecting until the current deadline.
    Continue,
    /// Keep collecting; the view changed, so the bound starts afresh.
    Rearm,
    End(RoundEnd),
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
            for frame in &mut scratch.spare {
                frame.recovery.resolver = None;
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
            let event = Event {
                at: self.endpoint.now(),
                thread: self.me,
                action,
                kind: kind(),
            };
            log.borrow_mut().push(EntryKind::Runtime(event));
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
        self.stack.last().map(|f| f.id.def.name.as_str())
    }

    /// The resolving exception currently being handled, if this thread is
    /// executing an exception handler.
    #[must_use]
    pub fn handling(&self) -> Option<&ExceptionId> {
        self.stack
            .last()
            .and_then(|f| f.recovery.in_handler.as_ref())
    }

    /// The active (innermost) frame. Every protocol phase runs inside
    /// [`Ctx::drive`], which holds the frame open until it returns.
    fn frame(&self) -> &Frame {
        self.stack.last().expect("frame active")
    }

    fn frame_mut(&mut self) -> &mut Frame {
        self.stack.last_mut().expect("frame active")
    }

    /// Sends `msg` to `to` — the runtime's one send site — and, if the run
    /// is recorded, logs what the network did with it.
    fn send(&self, to: ThreadId, msg: Message) {
        let dst = PartitionId::new(to.as_u32());
        let Some(log) = &self.system.log else {
            self.endpoint.send(dst, msg);
            return;
        };
        let action = msg.action();
        let sent = self.endpoint.send(dst, msg);
        log.borrow_mut()
            .push_send(self.endpoint.id(), dst, action, sent);
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
        // A blocking receive hands over what is deliverable now before it
        // waits for anything later, in delivery order — the messages a
        // `poll` would drain first — so only the end of the computation
        // polls: for what arrives at the deadline instant itself.
        while !deadline.duration_since(self.now()).is_zero() {
            match self.recv_until(Some(deadline))? {
                None => break,
                Some(received) => self.absorb_or_unwind(received)?,
            }
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

    /// Receives the next message, waiting at most until `deadline` (when
    /// given). All protocol waits funnel through here so a scheduled
    /// crash-stop bounds every one of them: reaching the crash instant
    /// kills the thread, reaching the caller's deadline returns
    /// `Ok(None)`.
    ///
    /// # Errors
    ///
    /// [`Flow`] on a scheduled crash or a simulation error.
    #[inline(always)] // a resumed fiber returns through here: see `Network::block_on`
    fn recv_until(&mut self, deadline: Option<VirtualInstant>) -> Step<Option<Received<Message>>> {
        self.crash_check()?;
        let effective = match (deadline, self.crash_at) {
            (Some(d), Some(c)) => Some(d.min(c)),
            (d, c) => d.or(c),
        };
        let received = match effective {
            Some(at) => self.endpoint.recv_deadline(at)?,
            None => Some(self.endpoint.recv()?),
        };
        if received.is_none() {
            // Woke at the effective deadline: the crash instant takes
            // precedence over the caller's timeout.
            self.crash_check()?;
        }
        Ok(received)
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
        let frame = match self.stack.last() {
            Some(f) => f,
            None => return Err(RuntimeError::NoActiveAction("raise").into()),
        };
        if frame.recovery.in_handler.is_some() {
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
            let Some(frame) = self.stack.last_mut() else {
                return Err(RuntimeError::NoActiveAction("recv_app").into());
            };
            if let Some(msg) = frame.inbox.app.pop_front() {
                return Ok(Some(msg));
            }
            if deadline.is_some_and(|d| d.duration_since(self.now()).is_zero()) {
                return Ok(None);
            }
            match self.recv_until(deadline)? {
                Some(received) => self.absorb_or_unwind(received)?,
                None => return Ok(None),
            }
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

    /// Forwards an arbitration-computed wake-up to the network as a
    /// scheduled doorbell: the wake-on-release half of the object
    /// scheduler (see [`crate::objects`] — every grant, release and
    /// cancellation computes the next eligible waiter and its on-grid
    /// attempt instant; this delivers it).
    fn forward_wake(&self, wake: Wake) {
        if let Some((thread, at, epoch)) = wake {
            self.endpoint
                .network()
                .schedule_wake(PartitionId::new(thread.as_u32()), at, epoch);
        }
    }

    fn access<T: Clone + 'static, R>(
        &mut self,
        obj: &SharedObject<T>,
        f: impl FnOnce(&mut T, &mut bool) -> R,
    ) -> Step<R> {
        self.poll()?;
        if self.stack.is_empty() {
            return Err(RuntimeError::NoActiveAction("object access").into());
        }
        let chain: InlineVec<ActionId, CHAIN_INLINE> =
            self.stack.iter().map(|fr| fr.id.action).collect();
        let action = *chain.last().expect("stack nonempty");
        // Open a fresh parked wait (discarding any stale doorbell; the
        // returned epoch tags every wake computed for this request), then
        // register and park until the arbitration schedules this thread's
        // next on-grid attempt (wake-on-release: the enabling event — a
        // release, grant or cancellation elsewhere — computes and
        // schedules it; `enqueue_waiter` seeds the first attempt when the
        // requester is already the eligible minimum). The wait is a poll
        // point: messages still arrive, and recovery can interrupt it (the
        // request is then withdrawn).
        let epoch = self.endpoint.begin_wait();
        let wait_start = self.now();
        self.forward_wake(obj.enqueue_waiter(self.me, wait_start, &chain, epoch));
        let mut f = Some(f);
        let (value, opened) = loop {
            match self.endpoint.park_wait_until(self.crash_at) {
                Ok(Parked::Deadline) => {
                    // The scheduled crash instant arrived while parked:
                    // withdraw the request and die.
                    self.forward_wake(obj.cancel_waiter(self.me, self.now()));
                    return Err(Flow::new(Unwind::Crash));
                }
                Ok(Parked::Doorbell) => {
                    // A scheduled attempt instant arrived. `try_access` is
                    // authoritative: a stale doorbell (the arbitration
                    // moved on) simply fails and the thread re-parks until
                    // the next event re-schedules it.
                    match obj.try_access(self.me, self.now(), &chain, &mut f) {
                        AccessOutcome::Done {
                            value,
                            opened,
                            wake,
                        } => {
                            self.forward_wake(wake);
                            break (value, opened);
                        }
                        AccessOutcome::NotYet => {}
                    }
                }
                Ok(Parked::Msg(received)) => {
                    if let Err(flow) = self.absorb_or_unwind(received) {
                        self.forward_wake(obj.cancel_waiter(self.me, self.now()));
                        return Err(flow);
                    }
                }
                Err(e) => {
                    self.forward_wake(obj.cancel_waiter(self.me, self.now()));
                    return Err(e.into());
                }
            }
        };
        // Register the object with every frame on the stack: acquisition
        // may have opened layers for enclosing actions too, and each frame
        // must commit or roll back its own layer when it completes.
        // Dedup by identity, not name — two distinct objects may share one.
        let obj_id = TxControl::object_id(obj);
        for frame in &mut self.stack {
            if !frame.objects.iter().any(|o| o.object_id() == obj_id) {
                frame.objects.push(Box::new(obj.clone()));
            }
        }
        if opened > 0 {
            let object = obj.name();
            let waited_ns = self.now().as_nanos().saturating_sub(wait_start.as_nanos());
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
        let parent_serial = self.stack.last().map_or(0, |f| f.id.action.serial());
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
        let mut initial: Option<RecoveryStart> = None;
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
            if let Err(flow) = self.perform(Round::Body, top, decision) {
                if matches!(flow.unwind, Unwind::Suspend) {
                    initial = Some(RecoveryStart::Suspend);
                }
            }
        }

        trace!(self, "enter {} as {} ({})", inner.name, role, action);
        self.observe_enter(action, inner, role_id);
        let outcome = self.drive(inner, initial, body);
        match &outcome {
            Ok(o) => trace!(self, "leave {} ({action}): {o}", inner.name),
            Err(f) => trace!(
                self,
                "unwind from {} ({action}): {:?}",
                inner.name,
                f.unwind
            ),
        }

        let outcome = outcome?;
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
        let mut frame = self.spare.pop().unwrap_or_else(|| Frame::new(def));
        frame.reenter(action, def, role);
        self.stack.push(frame);
    }

    fn observe_enter(&self, action: ActionId, def: &DefInner, role: RoleId) {
        self.observe(action, || EventKind::Enter {
            name: def.name,
            role: def.roles[role.index()].name,
            depth: self.stack.len(),
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
    /// participant (epoch-numbered rejoin; see [`crate::membership`]).
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
    /// Fatally on binding errors (unknown role, wrong thread, non-empty
    /// stack) and on inconsistent grants.
    pub fn rejoin(&mut self, def: &ActionDef, role: &str) -> Step<Option<ActionOutcome>> {
        // The restart cancels whatever killed us; a stale schedule would
        // re-kill the rejoiner at its first poll point.
        self.crash_at = None;
        let Some(action) = self.last_crash.take() else {
            return Ok(None);
        };
        if !self.stack.is_empty() {
            return Err(protocol_error(
                "rejoin requires an empty action stack (top-level restart)",
            ));
        }
        let inner = &def.inner;
        let role_id = self.bind_role(inner, role)?;
        trace!(self, "rejoin request for {} ({action})", inner.name);
        let me = self.me;
        self.broadcast(&inner.group, |peer| {
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
        let RoundEnd::Granted(Message::JoinGrant {
            epoch,
            removed,
            exit_epoch,
            resolved,
            ..
        }) = self.collect(Round::Join { action }, Some(window))?
        else {
            trace!(self, "rejoin window expired for {action}");
            return Ok(None);
        };
        let view = FrameMembership::sync_grant(&inner.group, epoch, &removed, me)
            .map_err(|reason| protocol_error(format!("join grant rejected: {reason}")))?;
        let view_epoch = view.epoch();
        trace!(
            self,
            "rejoin {} ({action}) at v{view_epoch} e{exit_epoch}",
            inner.name
        );
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
        initial: Option<RecoveryStart>,
        body: impl FnOnce(&mut Ctx) -> Step,
    ) -> Step<ActionOutcome> {
        let mut attempt = match initial {
            Some(start) => self.phase_recover(def, start),
            None => match body(self) {
                Ok(()) => self.phase_exit(def),
                Err(flow) => Err(flow),
            },
        };
        loop {
            match attempt {
                Ok(outcome) => return Ok(outcome),
                Err(flow) => {
                    let start = self.flow_to_start(def, flow)?;
                    attempt = self.phase_recover(def, start);
                }
            }
        }
    }

    /// Converts an unwinding [`Flow`] into a recovery start for the current
    /// frame, or performs this frame's part of the abortion cascade and
    /// re-propagates.
    fn flow_to_start(&mut self, def: &DefInner, flow: Flow) -> Result<RecoveryStart, Flow> {
        match flow.unwind {
            Unwind::Raise(e) => Ok(RecoveryStart::Raise(e)),
            Unwind::Suspend => Ok(RecoveryStart::Suspend),
            Unwind::Outer { target, eab } => {
                if self.frame().id.action == target {
                    // Recovery lands at this level: the abortion-handler
                    // exception of the directly nested action (if any) is
                    // raised here, else we suspend (§3.3.1).
                    match eab {
                        Some(e) => Ok(RecoveryStart::Raise(e)),
                        None => Ok(RecoveryStart::Suspend),
                    }
                } else {
                    // This frame is being aborted on the way out.
                    let my_eab = self.abort_current_frame(def)?;
                    Err(Flow::new(Unwind::Outer {
                        target,
                        eab: my_eab,
                    }))
                }
            }
            dead @ (Unwind::Crash | Unwind::Fatal(_)) => Err(self.unwind_dead(dead)),
        }
    }

    /// A crash-stop or fatal unwind passes through the top frame: no
    /// handler runs, the frame is simply discarded.
    fn unwind_dead(&mut self, unwind: Unwind) -> Flow {
        match unwind {
            // The process is "dead": unwind every frame silently.
            Unwind::Crash => self.crash_current_frame(),
            _ => self.discard_current_frame(),
        }
        Flow { unwind }
    }

    /// Aborts the top frame (an instance of `def`): rolls back its objects,
    /// runs its abortion handler (which may produce `Eab`), and pops it.
    fn abort_current_frame(&mut self, def: &DefInner) -> Result<Option<Exception>, Flow> {
        self.system.stats.borrow_mut().aborts += 1;
        let frame = self.frame_mut();
        // From here on, recovery messages for this instance are
        // stragglers: its own recovery (if any) is abandoned in favour of
        // the enclosing level's.
        frame.recovery.aborting = true;
        let role = frame.id.role;
        // Run the abortion handler while the frame is still active so it
        // can use the context (work, app messages). Deeper-outer triggers
        // during the handler extend the cascade.
        let mut deeper: Option<(ActionId, Option<Exception>)> = None;
        let mut eab = None;
        if let Some(handler) = &def.roles[role.index()].abort {
            match handler(self) {
                Ok(result) => eab = result,
                Err(flow) => match flow.unwind {
                    // An abortion handler may report Eab by raising.
                    Unwind::Raise(e) => eab = Some(e),
                    Unwind::Suspend => {}
                    Unwind::Outer { target, eab: e } => deeper = Some((target, e)),
                    dead @ (Unwind::Crash | Unwind::Fatal(_)) => return Err(self.unwind_dead(dead)),
                },
            }
        }
        // Undo the aborted action's effects; effects that cannot be undone
        // taint the object (ƒ semantics).
        self.release_rollback_or_taint();
        self.observe_top(|| EventKind::Abort {
            eab: eab.as_ref().map(|e| *e.id()),
        });
        self.pop_frame();
        if let Some((target, e)) = deeper {
            // The cascade continues past the original target.
            return Err(Flow::new(Unwind::Outer { target, eab: e }));
        }
        Ok(eab)
    }

    /// Takes the objects the top frame registered (each completion path
    /// releases them exactly once), with its action and the release instant.
    fn take_objects(&mut self) -> (ActionId, VirtualInstant, Vec<Box<dyn TxControl>>) {
        let now = self.endpoint.now();
        let frame = self.frame_mut();
        (frame.id.action, now, std::mem::take(&mut frame.objects))
    }

    /// Gives the (released) list [`Ctx::take_objects`] took back to the top
    /// frame, emptied: the list keeps its capacity for the frames to come.
    fn return_objects(&mut self, mut objects: Vec<Box<dyn TxControl>>) {
        objects.clear();
        self.frame_mut().objects = objects;
    }

    /// Rolls the top frame's layer back on every object it registered —
    /// tainting instead where the object is irreversible (ƒ semantics) — and
    /// forwards each release's wake-up to the next waiter. Returns `false`
    /// when some effect could not be undone.
    fn release_rollback_or_taint(&mut self) -> bool {
        let (action, now, objects) = self.take_objects();
        let mut undone = true;
        for obj in &objects {
            match obj.rollback(action, now) {
                Ok(wake) => self.forward_wake(wake),
                Err(ObjectError::UndoImpossible { .. }) => {
                    if let Ok(wake) = obj.commit_tainted(action, now) {
                        self.forward_wake(wake);
                    }
                    undone = false;
                }
                Err(ObjectError::NotAcquired { .. }) => {}
            }
        }
        self.return_objects(objects);
        undone
    }

    /// Pops the top frame without ceremony (fatal-error path).
    fn discard_current_frame(&mut self) {
        let (action, now, objects) = self.take_objects();
        for obj in &objects {
            if let Ok(wake) = obj.rollback(action, now) {
                self.forward_wake(wake);
            }
        }
        self.return_objects(objects);
        self.observe_top(|| EventKind::Abort { eab: None });
        self.pop_frame();
    }

    /// Crash-stop: discards the top frame like a process death — objects
    /// this thread registered are rolled back (the crashed node's
    /// transaction layers are broken), no handlers run, no messages are
    /// sent. Emits a [`EventKind::Crash`] event so traces and oracles can
    /// account for the never-closed entry.
    fn crash_current_frame(&mut self) {
        self.release_rollback_or_taint();
        let action = self.frame().id.action;
        self.observe(action, || EventKind::Crash);
        // The unwind pops frames innermost-out; the last one recorded
        // is the outermost action the crash discarded — the instance a
        // restart would ask to rejoin.
        self.last_crash = Some(action);
        self.pop_frame();
    }

    fn pop_frame(&mut self) {
        if let Some(mut frame) = self.stack.pop() {
            let serial = frame.id.action.serial();
            if let Err(at) = self.finished.binary_search(&serial) {
                self.finished.insert(at, serial);
            }
            frame.leave();
            self.spare.push(frame);
        }
    }

    // ------------------------------------------------------------------
    // Phases
    // ------------------------------------------------------------------

    /// Exit protocol after a body that completed normally, then finalize
    /// `Success` if no recovery begins.
    fn phase_exit(&mut self, def: &DefInner) -> Step<ActionOutcome> {
        match self.run_exit()? {
            RoundEnd::Exited => self.finalize(ActionOutcome::Success),
            RoundEnd::Recover => self.phase_recover(def, RecoveryStart::Suspend),
            // A peer's view change removed this thread (or a rejoiner gave
            // up): the survivors conclude without us — resolve locally to
            // abortion (ƒ) so objects are tainted, not left hanging.
            _ => self.finalize(ActionOutcome::Failed),
        }
    }

    /// One full recovery: resolution, handling, signalling, exit.
    fn phase_recover(&mut self, def: &DefInner, start: RecoveryStart) -> Step<ActionOutcome> {
        self.system.stats.borrow_mut().recoveries += 1;
        let resolved = match self.run_recovery(start)? {
            Some(resolved) => resolved,
            // A concurrent view change evicted this thread: the survivors
            // resolve among themselves, we give up locally (ƒ).
            None => return self.finalize(ActionOutcome::Failed),
        };
        let verdict = self.run_handler(def, resolved)?;
        let my_signal = self.run_signalling(def, verdict)?;
        self.frame_mut().exit.open_next_epoch();
        self.observe_top(|| EventKind::SignalOutcome {
            signal: my_signal.clone(),
        });
        // The recovery rounds are over: re-admit any restarted participant
        // that asked to rejoin while they ran. Done after the new exit
        // epoch opens so grants carry the epoch the joiner must vote in.
        self.flush_pending_joins();
        let outcome = match my_signal {
            Signal::None => ActionOutcome::Success,
            Signal::Exception(id) => ActionOutcome::Signalled(id),
            Signal::Undo => ActionOutcome::Undone,
            Signal::Failure => ActionOutcome::Failed,
        };
        match self.run_exit()? {
            RoundEnd::Exited => self.finalize(outcome),
            // Stragglers cannot re-trigger (the frame is marked recovered);
            // a genuine trigger here is a protocol bug.
            RoundEnd::Recover => Err(protocol_error("recovery re-triggered after signalling")),
            // This thread was removed from the view between signalling and
            // exit: ƒ dominates whatever the signalling round concluded.
            _ => self.finalize(ActionOutcome::Failed),
        }
    }

    /// Commits or finalizes objects per outcome and pops the frame.
    fn finalize(&mut self, outcome: ActionOutcome) -> Step<ActionOutcome> {
        let (action, now, objects) = self.take_objects();
        for obj in &objects {
            let released = match &outcome {
                // Forward recovery leaves objects in (new) valid states.
                ActionOutcome::Success | ActionOutcome::Signalled(_) => obj.commit(action, now),
                // Rollback already happened during the undo round; any
                // layer still open (acquired after undo) is discarded.
                ActionOutcome::Undone => obj.rollback(action, now),
                // ƒ: effects may not have been undone; leave them visible
                // and taint the objects.
                ActionOutcome::Failed => obj.commit_tainted(action, now),
            };
            if let Ok(wake) = released {
                self.forward_wake(wake);
            }
        }
        self.return_objects(objects);
        self.observe_top(|| EventKind::Exit {
            outcome: outcome.clone(),
        });
        self.pop_frame();
        Ok(outcome)
    }

    // ------------------------------------------------------------------
    // Recovery: resolution
    // ------------------------------------------------------------------

    /// Runs resolution until agreement, or until a concurrent view change
    /// evicts this thread (`Ok(None)`: the survivors resolve without us and
    /// the caller must give up locally).
    fn run_recovery(&mut self, start: RecoveryStart) -> Step<Option<ExceptionId>> {
        trace!(self, "recovery start: {start:?}");
        let frame = self.frame_mut();
        // Open the join-deferral window and pin the signalling cohort:
        // the view must not grow while resolution or signalling ranges
        // over it (see `Recovery::cohort`).
        frame.recovery.cohort = Some(ViewSnapshot::from_slice(frame.view.members()));
        frame.recovery.resolved_exception = None;
        self.observe_top(|| EventKind::RecoveryStart {
            raised: matches!(start, RecoveryStart::Raise(_)),
        });
        // Feed the stashed trigger(s) first, then our own transition.
        // (One at a time, so the inbox keeps its buffer; nothing stashes
        // into it while recovery is under way.)
        while let Some(msg) = self.frame_mut().inbox.control.pop_front() {
            self.absorb_active_control(msg)?;
        }
        if self.frame().view.evicted {
            // A pending view change removed us before we ever announced
            // our own transition: stay silent and give up.
            return Ok(None);
        }
        match &start {
            RecoveryStart::Raise(e) => {
                self.system.stats.borrow_mut().exceptions_raised += 1;
                // "inform external objects (used by Ti within A) of the
                // exception".
                let frame = self.frame();
                let action = frame.id.action;
                for obj in &frame.objects {
                    obj.inform_exception(action, e.id().name());
                }
                self.observe_top(|| EventKind::Raise { exception: *e.id() });
                self.feed_resolver(ProtoEvent::LocalRaise(e))?;
            }
            RecoveryStart::Suspend => self.feed_resolver(ProtoEvent::LocalSuspend)?,
        }
        let timeout = self.frame().id.def.resolution_timeout;
        let RoundEnd::Resolved(resolved) = self.collect(Round::Resolution, timeout)? else {
            return Ok(None);
        };
        trace!(self, "resolved: {resolved}");
        self.frame_mut().recovery.recovered = true;
        self.observe_top(|| EventKind::Resolved {
            exception: resolved,
        });
        Ok(Some(resolved))
    }

    /// The active frame's resolver (made on first use) and its context.
    fn resolver(&mut self) -> (&mut dyn ResolverState, ProtoCtx<'_>) {
        let frame = self.stack.last_mut().expect("frame active");
        frame.proto_ctx(self.me, &*self.system.protocol)
    }

    fn feed_resolver(&mut self, event: ProtoEvent<'_>) -> Step {
        let (resolver, ctx) = self.resolver();
        let actions = resolver.on_event(&ctx, event);
        self.dispatch_proto_actions(actions)
    }

    /// Sends a resolver's outbound messages (with the frame's membership
    /// view stamped into outgoing `Commit`s), charges `Treso` per
    /// resolution invocation and records the resolved exception, if any.
    fn dispatch_proto_actions(&mut self, mut actions: ProtoActions) -> Step {
        self.frame_mut().stamp_commits(&mut actions);
        for (to, msg) in actions.outbound.drain(..) {
            self.send(to, msg);
        }
        if let Some(resolver) = &mut self.frame_mut().recovery.resolver {
            resolver.recycle(actions.outbound);
        }
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
        if actions.resolved.is_some() {
            self.frame_mut().recovery.resolved_exception = actions.resolved;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Recovery: membership (crash-aware resolution, see crate::membership)
    // ------------------------------------------------------------------

    /// Feeds one resolution-control message for the active frame to the
    /// right machine: a `ViewChange` announcement goes to the membership
    /// layer, everything else to the resolver — a `Commit` first adopts
    /// the membership view piggybacked on it, so a commit racing ahead of
    /// its `ViewChange` announcement still shrinks this frame's view.
    fn absorb_active_control(&mut self, msg: Message) -> Step {
        let top = self.stack.len() - 1;
        match &msg {
            Message::ViewChange { removed, .. } => {
                return match self.adopt_removal_set(top, removed) {
                    // Removals naming us mean the survivors resolve without
                    // us; do not re-elect over a view we are not part of.
                    Some(fresh) if !self.frame().view.evicted => self.feed_view_change(&fresh),
                    _ => Ok(()),
                };
            }
            Message::Commit { view_removed, .. } => {
                self.adopt_removal_set(top, view_removed);
                if self.frame().view.evicted {
                    // The committed view excludes us: give up instead
                    // of acting on a resolution we are not part of.
                    return Ok(());
                }
            }
            _ => {}
        }
        self.feed_resolver(ProtoEvent::Control(&msg))
    }

    /// The one bounded-collect round (see the module docs), entered after
    /// the caller announced to the view. Each pass polls `round`'s predicate
    /// over the view as it is now, then receives until the round's deadline
    /// — `timeout` from the last arming, unbounded when `None` — and
    /// performs what the round decides about the arrival or the expiry.
    fn collect(&mut self, round: Round, timeout: Option<VirtualDuration>) -> Step<RoundEnd> {
        let mut deadline = self.deadline_in(timeout);
        loop {
            if let Some(end) = round.status(self.stack.last().map(Box::as_ref)) {
                return Ok(end);
            }
            let (index, action) = match self.recv_until(deadline)? {
                Some(received) => self.classify(received, round),
                None => {
                    trace!(self, "{round:?}: bounded wait expired");
                    let top = self.stack.len().saturating_sub(1);
                    let protocol = &*self.system.protocol;
                    (
                        top,
                        round.expired(self.stack.last_mut().map(Box::as_mut), self.me, protocol),
                    )
                }
            };
            match self.perform(round, index, action)? {
                Performed::Continue => {}
                Performed::Rearm => deadline = self.deadline_in(timeout),
                Performed::End(end) => return Ok(end),
            }
        }
    }

    /// Executes one round decision. `index` is the frame it addresses.
    fn perform(&mut self, round: Round, index: usize, action: RoundAction) -> Step<Performed> {
        match action {
            RoundAction::Continue => {}
            RoundAction::End(end) => return Ok(Performed::End(end)),
            RoundAction::Suspect { suspects, then } => {
                if !suspects.is_empty() {
                    self.suspect_round(round, &suspects)?;
                }
                return Ok(then.map_or(Performed::Rearm, Performed::End));
            }
            RoundAction::GiveUp => {
                self.system.stats.borrow_mut().exit_give_ups += 1;
                self.observe_timeout(round, &[]);
                return Ok(Performed::End(RoundEnd::Excluded));
            }
            RoundAction::Resolve(msg) => {
                // An applied view change opens a fresh round for the
                // shrunken view.
                let view_change = matches!(msg, Message::ViewChange { .. });
                self.absorb_active_control(msg)?;
                if view_change {
                    return Ok(Performed::Rearm);
                }
            }
            RoundAction::Adopt(removed) => {
                self.adopt_removal_set(index, &removed);
            }
            RoundAction::Grant(joiner) => self.grant_join(index, joiner),
            RoundAction::Retain(msg) => self.retained.push(msg),
            RoundAction::CapDropped => self.system.stats.borrow_mut().retained_dropped += 1,
            RoundAction::CountCorrupted => self.system.stats.borrow_mut().corrupted_ignored += 1,
            RoundAction::Interrupt(unwind) => return Err(Flow::new(unwind)),
            RoundAction::Violation(what) => return Err(protocol_error(what)),
        }
        Ok(Performed::Continue)
    }

    /// Round-agnostic suspicion: the bounded wait of `round` expired with
    /// the listed peers silent. Observes the round's timeout event and —
    /// unless the quorum gate refuses — removes the suspects from the
    /// active frame's view and announces the change. For resolution rounds
    /// the resolver is then re-fed with a crash exception synthesized per
    /// suspect (presume-ƒ); signalling and exit rounds need no synthesis —
    /// their own ƒ rules cover the silence.
    fn suspect_round(&mut self, round: Round, suspects: &[ThreadId]) -> Step {
        let action = self.frame().id.action;
        trace!(self, "suspect in {round:?}: {suspects:?}");
        self.observe_timeout(round, suspects);
        let decision = self.frame_mut().view.suspect(suspects).map_err(|reason| {
            protocol_error(format!("membership view change rejected: {reason}"))
        })?;
        let (epoch, recipients) = match decision {
            Eviction::Refused {
                survivors,
                recently_alive,
            } => {
                trace!(
                    self,
                    "suspicion refused: {survivors} survivor(s) vs \
                     {recently_alive} recently-alive suspect(s); giving up"
                );
                self.system.stats.borrow_mut().suspicions_refused += 1;
                return Ok(());
            }
            Eviction::Evict { epoch, recipients } => (epoch, recipients),
        };
        self.system.stats.borrow_mut().view_changes += 1;
        self.observe_top(|| EventKind::ViewChange {
            epoch,
            removed: suspects.to_vec(),
        });
        // Announce before continuing the round: per-link FIFO then
        // guarantees every survivor sees the view change before any later
        // message this participant derives from it.
        let removed: Rc<[ThreadId]> = Rc::from(suspects);
        let me = self.me;
        self.broadcast(&recipients, |_| Message::ViewChange {
            action,
            from: me,
            epoch,
            removed: Rc::clone(&removed),
        });
        match round {
            Round::Resolution => self.feed_view_change(suspects),
            _ => Ok(()),
        }
    }

    /// Counts and reports the expiry of `round`'s bounded wait with
    /// `suspects` silent.
    fn observe_timeout(&self, round: Round, suspects: &[ThreadId]) {
        let suspects = suspects.to_vec();
        let epoch = self.frame().exit.epoch;
        let mut stats = self.system.stats.borrow_mut();
        let kind = match round {
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
                EventKind::ExitTimeout { epoch }
            }
            // Only rounds of a frame time out on peers.
            Round::Body | Round::Join { .. } => return,
        };
        drop(stats);
        self.observe_top(|| kind);
    }

    /// Merges a removal set announced by a peer — a `ViewChange` step set
    /// or the cumulative set piggybacked on a `Commit` — into the view of
    /// the frame at `index` (set-wise, see [`crate::membership`]) and
    /// returns the freshly removed threads, if any. A removal naming this
    /// thread itself marks the frame evicted: a peer suspected us wrongly —
    /// we are alive — and the survivors have moved on without us.
    fn adopt_removal_set(&mut self, index: usize, removed: &[ThreadId]) -> Option<Vec<ThreadId>> {
        let frame = &mut self.stack[index];
        let (epoch, fresh) = frame.view.adopt_removals(removed)?;
        if fresh.contains(&self.me) {
            frame.view.evicted = true;
        }
        let action = frame.id.action;
        trace!(self, "adopt view change v{epoch}: -{fresh:?}");
        self.system.stats.borrow_mut().view_changes += 1;
        self.observe(action, || EventKind::ViewChange {
            epoch,
            removed: fresh.clone(),
        });
        Some(fresh)
    }

    /// Answers a restarted participant's `JoinRequest` at the frame at
    /// `index` with the grant the frame builds ([`Frame::grant_join`]).
    fn grant_join(&mut self, index: usize, joiner: ThreadId) {
        let me = self.me;
        let frame = &mut self.stack[index];
        let action = frame.id.action;
        let Some(granted) = frame.grant_join(me, joiner) else {
            return; // never part of this action's group; ignore
        };
        if let Some(epoch) = granted.readmitted {
            trace!(self, "readmit {joiner} at v{epoch}");
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

    /// Ends the join-deferral window a recovery opened: clears the
    /// signalling cohort and grants the rejoin requests that arrived while
    /// resolution/signalling ranged over it.
    fn flush_pending_joins(&mut self) {
        let top = self.stack.len() - 1;
        self.stack[top].recovery.cohort = None;
        // (By index, so the list keeps its buffer; with the cohort gone a
        // request is granted on arrival, not queued here.)
        for at in 0..self.stack[top].inbox.joins.len() {
            let joiner = self.stack[top].inbox.joins[at];
            self.grant_join(top, joiner);
        }
        self.stack[top].inbox.joins.clear();
    }

    /// Notifies the resolver of an applied view change: `removed` threads
    /// are gone, and a synthesized crash exception stands in for each one
    /// that never announced anything. May conclude the resolution (this
    /// participant may now hold the quorum and the election).
    fn feed_view_change(&mut self, removed: &[ThreadId]) -> Step {
        let synthesized = synthesize_crashes(removed);
        let (resolver, ctx) = self.resolver();
        let actions = resolver.on_view_change(&ctx, removed, &synthesized);
        self.dispatch_proto_actions(actions)
    }

    // ------------------------------------------------------------------
    // Recovery: handling
    // ------------------------------------------------------------------

    fn run_handler(&mut self, def: &DefInner, resolved: ExceptionId) -> Step<HandlerVerdict> {
        let frame = self.frame_mut();
        frame.recovery.in_handler = Some(resolved);
        let handler = def.handler_for(frame.id.role, resolved);
        self.observe_top(|| EventKind::HandlerStart {
            exception: resolved,
        });
        let verdict = match handler {
            Some(h) => h(self),
            None => Ok(DefInner::default_verdict(resolved)),
        };
        if let Some(frame) = self.stack.last_mut() {
            frame.recovery.in_handler = None;
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

    fn run_signalling(&mut self, def: &DefInner, verdict: HandlerVerdict) -> Step<Signal> {
        let my_signal = verdict.to_signal();
        if self.frame().view.evicted {
            // Removed from the view: the survivors no longer expect our
            // announcements; any broadcast would only confuse their rounds.
            return Ok(Signal::Failure);
        }
        // Coordinate over the current view: presumed-crashed members are
        // not waited on (their silence would otherwise force ƒ through
        // the signalling timeout even after recovery handled the crash).
        if self.frame().signalling_group().len() == 1 {
            // No coordination needed; µ still requires the local undo.
            return match my_signal {
                Signal::Undo => Ok(self.perform_undo(def)),
                other => Ok(other),
            };
        }

        let collected = self.signal_round(SignalRound::First, my_signal.clone())?;
        if self.frame().signals.failed(collected) {
            // Case 3: ƒ dominates — every thread signals ƒ.
            return Ok(Signal::Failure);
        }
        if !collected.undo {
            // Case 1: everyone signals its own exception (or nothing).
            return Ok(my_signal);
        }
        // Case 2: µ requested — all threads undo, then exchange again.
        self.system.stats.borrow_mut().undo_rounds += 1;
        let after_undo = self.perform_undo(def);
        let collected = self.signal_round(SignalRound::AfterUndo, after_undo)?;
        if self.frame().signals.failed(collected) {
            Ok(Signal::Failure)
        } else {
            Ok(Signal::Undo)
        }
    }

    /// Undoes this thread's effects: rolls back every object it touched and
    /// runs the role's undo hook (of `def`, the top frame's definition).
    /// Returns the signal to announce (µ on success, ƒ when some undo
    /// operation failed).
    fn perform_undo(&mut self, def: &DefInner) -> Signal {
        let role = self.frame().id.role;
        let mut ok = true;
        if let Some(hook) = &def.roles[role.index()].undo {
            match hook(self) {
                Ok(hook_ok) => ok &= hook_ok,
                Err(_) => ok = false,
            }
        }
        ok &= self.release_rollback_or_taint();
        if ok {
            Signal::Undo
        } else {
            Signal::Failure
        }
    }

    /// One exchange of the signalling algorithm: broadcast my signal for
    /// `round`, collect everyone's. A round that ends any other way than
    /// with the group's signals did not coordinate: ƒ.
    fn signal_round(&mut self, round: SignalRound, mine: Signal) -> Step<Collected> {
        let me = self.me;
        let frame = self.frame_mut();
        frame.signals.record(round, me, mine.clone());
        let (action, group) = (frame.id.action, frame.signalling_group());
        let timeout = frame.id.def.signal_timeout;
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
        if self.frame().view.evicted {
            // A peer's view change removed us: the survivors no longer
            // count our vote, and broadcasting one would only confuse the
            // epochs they are collecting.
            return Ok(RoundEnd::Excluded);
        }
        let me = self.me;
        let frame = self.frame_mut();
        let epoch = frame.exit.vote(me);
        let (action, timeout) = (frame.id.action, frame.id.def.exit_timeout);
        let view = ViewSnapshot::from_slice(frame.view.members());
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

    /// Non-blocking poll point: absorbs everything deliverable now; unwinds
    /// if recovery must take over (or a scheduled crash instant passed).
    fn poll(&mut self) -> Step {
        self.crash_check()?;
        while let Some(received) = self.endpoint.try_recv()? {
            self.absorb_or_unwind(received)?;
        }
        Ok(())
    }

    /// Routes one message during *body* execution: control messages for the
    /// active action interrupt it.
    fn absorb_or_unwind(&mut self, received: Received<Message>) -> Step {
        let (index, action) = self.classify(received, Round::Body);
        self.perform(Round::Body, index, action).map(drop)
    }

    /// Asks the frame of a received message's instance — or, when it has
    /// none here, the retention rule — what the message means while `round`
    /// is in progress. Returns the decision and the frame's index.
    fn classify(&mut self, received: Received<Message>, round: Round) -> (usize, RoundAction) {
        let depth = self.stack.len();
        let Some(msg) = received.msg else {
            let top = depth.saturating_sub(1);
            return (
                top,
                corrupted(self.stack.last_mut().map(Box::as_mut), round, self.me),
            );
        };
        trace!(
            self,
            "recv {} from {} for {}",
            msg.kind(),
            msg.from(),
            msg.action()
        );
        let action = msg.action();
        match self.stack.iter().position(|f| f.id.action == action) {
            Some(i) => (i, self.stack[i].absorb(msg, i + 1 == depth, round)),
            None => {
                let finished = self.finished.binary_search(&action.serial()).is_ok();
                let retained = self.retained.len();
                (depth, unframed(msg, round, self.me, finished, retained))
            }
        }
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

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use caa_core::outcome::{ActionOutcome, HandlerVerdict};
    use caa_core::state::ParticipantState;
    use caa_core::time::secs;

    use super::*;
    use crate::rounds::tests::snapshot;
    use crate::System;

    thread_local! {
        /// The address of action A's frame, once its undo hook saw the
        /// frame in the middle of a recovery.
        static A_FRAME: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn address(frame: &Frame) -> usize {
        std::ptr::from_ref(frame) as usize
    }

    /// A frame a participant re-enters from its spare pool is, field for
    /// field, the frame a first entry makes — after serving an instance
    /// that went through object traffic, buffered application messages,
    /// resolution, a handler and both signalling exchanges of an undo.
    #[test]
    fn a_frame_left_after_an_undo_is_reentered_as_new() {
        let undo = |_: &mut Ctx| Ok(HandlerVerdict::Undo);
        let a = ActionDef::builder("a")
            .role("a0", 0u32)
            .role("a1", 1u32)
            .fallback_handler("a0", undo)
            .fallback_handler("a1", undo)
            .undo_hook("a0", |uc| {
                let frame = uc.frame();
                let recovery = &frame.recovery;
                assert!(recovery.recovered && recovery.cohort.is_some());
                assert!(recovery.resolved_exception.is_some());
                assert!(!frame.objects.is_empty() && !frame.inbox.app.is_empty());
                A_FRAME.set(Some(address(frame)));
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
                let frame = bc.frame();
                let a_frame = A_FRAME.take().expect("A recovered through its undo");
                assert_eq!(address(frame), a_frame, "B re-entered A's frame");
                let mut new = Frame::new(&b.inner);
                new.reenter(frame.id.action, &b.inner, frame.id.role);
                assert_eq!(snapshot(frame), snapshot(&new));
                let resolver = frame.recovery.resolver.as_ref();
                assert!(resolver.is_none_or(|r| r.participant_state() == ParticipantState::Normal));
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
