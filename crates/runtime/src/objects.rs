//! Transactional external objects (§2.2, §3.1 "External Objects") with
//! simulation-mediated, deterministic acquisition.
//!
//! Objects external to a CA action "can hence be shared with other actions
//! concurrently, must be atomic and individually responsible for their own
//! integrity". Each [`SharedObject`] therefore implements its own little
//! transaction stack:
//!
//! * the first access by an action *acquires* the object and opens a
//!   transaction layer initialised from the committed (or enclosing) state;
//! * a nested action opens a sub-layer over its parent's layer — CA actions
//!   are "a disciplined approach to using multi-threaded nested
//!   transactions";
//! * on successful completion the layer commits into its parent (or the
//!   committed state); on abort/undo the layer is discarded, restoring the
//!   prior state;
//! * when recovery begins the object is *informed of the exception*
//!   (§3.3.2: "inform external objects … of the exception") and records it;
//! * an object may be declared non-undoable, in which case rolling it back
//!   fails and the signalling algorithm converts the undo exception µ into
//!   the failure exception ƒ (§3.4).
//!
//! # Determinism
//!
//! Access arbitration is mediated through the virtual-time simulation.
//! Every access first *registers* the requesting thread in the object's
//! waiter queue; attempts happen on the requester's **quantum grid** —
//! the scheduler-visible instants `registration + k·OBJECT_QUANTUM`
//! (one millisecond of virtual time per tick), `k ≥ 1` — and a request
//! is granted only when
//!
//! 1. every open transaction layer belongs to the requester's action chain
//!    (no competing holder),
//! 2. the requester is the **minimum** waiter by
//!    `(registration virtual time, thread id)` among the waiters
//!    compatible with the open layers, and
//! 3. no grant, release or cancellation has already happened on this object
//!    at the *current* virtual instant (strict `<` gating).
//!
//! Because virtual time only advances when every participant is blocked,
//! all same-instant registrations are present in the queue before any of
//! them can be granted a quantum later, so the grant order is a pure
//! function of `(registration virtual time, participant id)` —
//! independent of the order in which the host resumes participants.
//! Condition 3 makes decisions taken at instant *t* insensitive to the
//! order of other object operations happening at *t*: they are observed
//! either as "still pending" or as "done at *t*", and both verdicts deny
//! the grant. The access itself (the closure over the working state)
//! executes in the same borrow as the grant, so no competing operation can
//! interleave.
//!
//! No lock guards any of it: the participants of a system are fibers of
//! one thread, and the arbitration above, not mutual exclusion, is what
//! orders their accesses. An object's state is a `RefCell` behind an
//! `Rc`, and so an object serves the systems of the thread that made it.
//!
//! ## Wake-on-release scheduling
//!
//! Conditions 1–3 only change at *arbitration events* — a grant, a layer
//! pop (release), a cancellation, or a registration. Waiters therefore do
//! **not** poll their quantum grid: they park on the simulation
//! ([`caa_simnet::Endpoint::park_wait`]) and every event recomputes the
//! one waiter that can now win — the minimum compatible waiter — and
//! schedules a doorbell ([`caa_simnet::Network::schedule_wake`]) at the
//! first tick of **that waiter's own grid** strictly after the event.
//! Every granted access is thereby granted at exactly the instant the
//! original polling design would have granted it (the winner's first
//! on-grid attempt that post-dates the enabling event), so traces are
//! byte-identical — while the per-tick retry wake-ups of every blocked
//! waiter disappear. A scheduled attempt that a later same-instant event
//! invalidates simply fails its (authoritative) `try_access` re-check and
//! re-parks; failed attempts set no gate and are invisible to traces,
//! exactly as under polling.
//!
//! Layer pops are commutative under same-instant cross-thread races: a
//! commit splices the owning action's layer out of the stack wherever it
//! sits and merges downward, and a rollback truncates the layer **and every
//! layer above it** (all necessarily descendants, whose effects §3.3.1
//! rolls back with their aborting ancestor). Every pop pair —
//! commit/commit, commit/rollback, rollback/rollback — therefore reaches
//! the same final state in either wall-clock order, so the committed state
//! is as replay-deterministic as the grant order.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use caa_core::ids::{ActionId, ThreadId};
use caa_core::inline::InlineVec;
use caa_core::name::Name;
use caa_core::time::{VirtualDuration, VirtualInstant};

/// Arbitration quantum: every access is granted on a tick of the
/// requester's quantum grid (`registration + k·OBJECT_QUANTUM`, `k ≥ 1`),
/// so every access costs at least one quantum of virtual time and all
/// grant decisions happen at scheduler-visible instants.
pub(crate) const OBJECT_QUANTUM: VirtualDuration = VirtualDuration::from_millis(1);

/// A wake-up the arbitration computed for the next eligible waiter:
/// `(thread, instant, wait epoch)`, forwarded by the caller to
/// [`caa_simnet::Network::schedule_wake`]. The epoch is the one the
/// waiter registered with ([`caa_simnet::Endpoint::begin_wait`]), so a
/// wake computed just before the waiter abandoned its request cannot
/// ring into a later, unrelated wait. `None` when no waiter can
/// currently win (the next arbitration event will recompute).
pub(crate) type Wake = Option<(ThreadId, VirtualInstant, u64)>;

/// First tick of the grid anchored at `registered_at` strictly after
/// `after` — the earliest instant the old per-quantum polling loop would
/// have attempted (and, conditions holding, been granted) an access.
fn next_attempt_tick(registered_at: VirtualInstant, after: VirtualInstant) -> VirtualInstant {
    let quantum = OBJECT_QUANTUM.as_nanos();
    let anchor = registered_at.as_nanos();
    let after = after.as_nanos();
    let k = if after <= anchor {
        1
    } else {
        (after - anchor) / quantum + 1
    };
    VirtualInstant::from_nanos(anchor.saturating_add(k.saturating_mul(quantum)))
}

/// Errors reported by object transaction control.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ObjectError {
    /// The action does not currently hold this object.
    NotAcquired {
        /// The object's name.
        object: String,
    },
    /// Rollback was requested but the object is not undoable.
    UndoImpossible {
        /// The object's name.
        object: String,
    },
}

impl fmt::Display for ObjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectError::NotAcquired { object } => {
                write!(f, "object {object} is not held by this action")
            }
            ObjectError::UndoImpossible { object } => {
                write!(f, "object {object} cannot undo its effects")
            }
        }
    }
}

impl std::error::Error for ObjectError {}

/// How many action ids a chain (a requester's open actions, outermost
/// first) holds inline.
pub(crate) const CHAIN_INLINE: usize = 4;

struct TxLayer<T> {
    owner: ActionId,
    working: T,
    dirty: bool,
}

/// One pending acquisition request.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Waiter {
    /// Virtual time of registration (primary grant key; a thread has at
    /// most one outstanding request per object, so `(registered_at,
    /// thread)` identifies the request).
    registered_at: VirtualInstant,
    /// The requesting thread (tie-break for same-instant registrations).
    thread: ThreadId,
    /// The requester's action chain (outermost first, requesting action
    /// last). A waiter only competes for a grant while every open layer
    /// belongs to its chain; incompatible waiters do not block compatible
    /// ones (otherwise a competing queue-head would deadlock against the
    /// current holder's own re-accesses). Inline up to the nesting depths
    /// that occur.
    chain: InlineVec<ActionId, CHAIN_INLINE>,
    /// The wait epoch the requester parks under
    /// ([`caa_simnet::Endpoint::begin_wait`]); carried in every [`Wake`]
    /// computed for this waiter so stale wakes cannot target a later wait.
    epoch: u64,
}

impl Waiter {
    fn key(&self) -> (VirtualInstant, ThreadId) {
        (self.registered_at, self.thread)
    }
}

struct ObjectInner<T> {
    committed: T,
    layers: Vec<TxLayer<T>>,
    /// Exceptions this object has been informed of (names), most recent
    /// last. Cleared on commit of the outermost layer.
    informed: Vec<String>,
    /// Set when a failure exception left possibly-erroneous state behind.
    tainted: bool,
    /// Pending acquisition requests, granted in `(registered_at, thread)`
    /// order.
    waiters: Vec<Waiter>,
    /// Latest virtual instant at which a request was granted; at most one
    /// grant per object per instant keeps same-instant accesses ordered.
    last_grant_at: Option<VirtualInstant>,
    /// Latest virtual instant at which a layer was popped; a release at
    /// instant `t` only enables grants strictly after `t`.
    last_release_at: Option<VirtualInstant>,
    /// Latest virtual instant at which a waiter was cancelled (recovery
    /// interrupted its wait); gates grants exactly like a release.
    last_cancel_at: Option<VirtualInstant>,
}

struct ObjectShared<T> {
    /// Copied into every `ObjectAcquired` event.
    name: Name,
    undoable: bool,
    state: RefCell<ObjectInner<T>>,
}

/// Outcome of one arbitration attempt (see [`SharedObject`] internals).
pub(crate) enum AccessOutcome<R> {
    /// Conditions not met; park until an arbitration event schedules the
    /// next attempt.
    NotYet,
    /// Granted and executed. `opened` is the number of transaction layers
    /// newly opened for the requesting chain (> 0 exactly on acquisition).
    Done {
        /// Closure result.
        value: R,
        /// Newly opened layers.
        opened: usize,
        /// Follow-up wake-up for the next eligible waiter, if any (a
        /// grant is an arbitration event).
        wake: Wake,
    },
}

/// The next waiter that can win under the minimum-compatible-waiter rule
/// given the current layers, and the first tick of its grid strictly
/// after every grant gate — the wake every arbitration event schedules.
///
/// The gates are folded in (not just `now`) because an object can outlive
/// the [`System`](crate::System) that last touched it: a fresh system's
/// clock restarts at the epoch while the object still carries the old
/// run's gate stamps, and the polling design this reproduces kept
/// attempting every quantum until the grid marched past them.
fn winner_wake<T>(inner: &ObjectInner<T>, now: VirtualInstant) -> Wake {
    let now = [
        inner.last_grant_at,
        inner.last_release_at,
        inner.last_cancel_at,
    ]
    .iter()
    .flatten()
    .copied()
    .fold(now, VirtualInstant::max);
    let mut best: Option<&Waiter> = None;
    for waiter in &inner.waiters {
        let compatible = inner
            .layers
            .iter()
            .all(|layer| waiter.chain.contains(&layer.owner));
        if compatible && best.is_none_or(|b| waiter.key() < b.key()) {
            best = Some(waiter);
        }
    }
    best.map(|w| (w.thread, next_attempt_tick(w.registered_at, now), w.epoch))
}

/// An atomic object shared between CA actions.
///
/// Clone handles freely; all clones refer to the same object. Access from
/// within an action goes through
/// [`Ctx::read`](crate::Ctx::read) / [`Ctx::update`](crate::Ctx::update),
/// which acquire the object for the action and register it for commit,
/// rollback and exception notification. Direct snapshots for assertions are
/// available through [`SharedObject::committed`].
///
/// # Examples
///
/// ```
/// use caa_runtime::SharedObject;
///
/// let press_state = SharedObject::new("press", 0u32);
/// assert_eq!(press_state.committed(), 0);
/// assert!(press_state.is_undoable());
/// ```
pub struct SharedObject<T> {
    shared: Rc<ObjectShared<T>>,
}

impl<T> Clone for SharedObject<T> {
    fn clone(&self) -> Self {
        SharedObject {
            shared: Rc::clone(&self.shared),
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for SharedObject<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.shared.state.borrow();
        f.debug_struct("SharedObject")
            .field("name", &self.shared.name)
            .field("committed", &inner.committed)
            .field("open_layers", &inner.layers.len())
            .field("waiters", &inner.waiters.len())
            .field("tainted", &inner.tainted)
            .finish()
    }
}

fn new_inner<T>(initial: T) -> ObjectInner<T> {
    ObjectInner {
        committed: initial,
        layers: Vec::new(),
        informed: Vec::new(),
        tainted: false,
        waiters: Vec::new(),
        last_grant_at: None,
        last_release_at: None,
        last_cancel_at: None,
    }
}

impl<T: Clone + 'static> SharedObject<T> {
    /// Creates an undoable object with the given committed state.
    #[must_use]
    pub fn new(name: impl Into<Name>, initial: T) -> Self {
        SharedObject {
            shared: Rc::new(ObjectShared {
                name: name.into(),
                undoable: true,
                state: RefCell::new(new_inner(initial)),
            }),
        }
    }

    /// The object's name.
    #[must_use]
    pub fn name(&self) -> Name {
        self.shared.name
    }

    /// Whether rollback of this object can succeed.
    #[must_use]
    pub fn is_undoable(&self) -> bool {
        self.shared.undoable
    }

    /// Snapshot of the committed (outside-any-action) state.
    #[must_use]
    pub fn committed(&self) -> T {
        self.shared.state.borrow().committed.clone()
    }

    /// Mutates the committed state directly, outside any CA action — the
    /// hook for the *environment* (e.g. the production cell's blank
    /// supplier adding a blank to the feed belt).
    ///
    /// This path is **not** arbitrated through the simulation: callers must
    /// not race it against in-action access at the same virtual instant
    /// (the production cell's environment only touches the cell before and
    /// after runs).
    ///
    /// # Errors
    ///
    /// [`ObjectError::NotAcquired`] when a CA action currently holds the
    /// object: mutating under an open transaction would violate isolation.
    pub fn mutate_committed<R>(&self, f: impl FnOnce(&mut T) -> R) -> Result<R, ObjectError> {
        let mut inner = self.shared.state.borrow_mut();
        if !inner.layers.is_empty() {
            return Err(ObjectError::NotAcquired {
                object: self.shared.name.to_string(),
            });
        }
        Ok(f(&mut inner.committed))
    }

    /// Returns the object to the state [`SharedObject::new`] would make it
    /// in with `initial` — nothing open, nobody waiting, not tainted, no
    /// instant of an earlier system remembered — keeping its allocations.
    /// For a driver that runs system after system over the same objects:
    /// call it between runs, never while an action holds the object.
    pub fn reset(&self, initial: T) {
        let mut inner = self.shared.state.borrow_mut();
        inner.committed = initial;
        inner.layers.clear();
        inner.informed.clear();
        inner.tainted = false;
        inner.waiters.clear();
        inner.last_grant_at = None;
        inner.last_release_at = None;
        inner.last_cancel_at = None;
    }

    /// Whether a failure exception left possibly-erroneous state behind.
    #[must_use]
    pub fn is_tainted(&self) -> bool {
        self.shared.state.borrow().tainted
    }

    /// The exceptions this object has been informed of since its last
    /// top-level commit (diagnostics).
    #[must_use]
    pub fn informed_exceptions(&self) -> Vec<String> {
        self.shared.state.borrow().informed.clone()
    }

    /// Registers `thread` in the waiter queue at virtual time `now` with
    /// its action chain and park epoch (idempotent while the request is
    /// outstanding, refreshing the epoch).
    ///
    /// Returns the requester's **own** first attempt tick (as a [`Wake`])
    /// when the requester is currently the next eligible waiter, `None`
    /// otherwise (it then parks until an arbitration event schedules it).
    /// A registration never reschedules *other* waiters: it cannot
    /// improve their eligibility (its key is ≥ every present key), and an
    /// already scheduled winner keeps its pending — still correct —
    /// doorbell.
    pub(crate) fn enqueue_waiter(
        &self,
        thread: ThreadId,
        now: VirtualInstant,
        chain: &[ActionId],
        epoch: u64,
    ) -> Wake {
        let mut inner = self.shared.state.borrow_mut();
        match inner.waiters.iter_mut().find(|w| w.thread == thread) {
            Some(waiter) => waiter.epoch = epoch,
            None => inner.waiters.push(Waiter {
                registered_at: now,
                thread,
                chain: InlineVec::from_slice(chain),
                epoch,
            }),
        }
        match winner_wake(&inner, now) {
            wake @ Some((winner, _, _)) if winner == thread => wake,
            _ => None,
        }
    }

    /// Withdraws `thread`'s pending request (coordinated recovery
    /// interrupted its wait). Gates same-instant grants like a release,
    /// and — as an arbitration event — returns the wake-up for the next
    /// eligible waiter (the cancelled thread may have been the scheduled
    /// winner).
    pub(crate) fn cancel_waiter(&self, thread: ThreadId, now: VirtualInstant) -> Wake {
        let mut inner = self.shared.state.borrow_mut();
        let before = inner.waiters.len();
        inner.waiters.retain(|w| w.thread != thread);
        if inner.waiters.len() == before {
            return None; // no pending request: not an event
        }
        inner.last_cancel_at = Some(now);
        winner_wake(&inner, now)
    }

    /// One arbitration attempt by `thread` at virtual time `now`, on
    /// behalf of the action chain `chain` (outermost first, requesting
    /// action last — never empty). On grant the missing chain layers are
    /// opened, the waiter is dequeued, and `f` is taken and run over the
    /// top working state — all in one borrow, so the grant and the access
    /// are atomic. `f` is left untouched when the attempt is denied.
    pub(crate) fn try_access<R, F: FnOnce(&mut T, &mut bool) -> R>(
        &self,
        thread: ThreadId,
        now: VirtualInstant,
        chain: &[ActionId],
        f: &mut Option<F>,
    ) -> AccessOutcome<R> {
        let mut inner = self.shared.state.borrow_mut();
        // Instant gating: any same-instant grant, release or cancellation
        // (whether it already happened or is still to happen) denies this
        // attempt, making the verdict independent of wall-clock order.
        let blocked_now = [
            inner.last_grant_at,
            inner.last_release_at,
            inner.last_cancel_at,
        ]
        .iter()
        .any(|t| t.is_some_and(|t| t >= now));
        if blocked_now {
            return AccessOutcome::NotYet;
        }
        let action = *chain.last().expect("chain is never empty");
        if inner
            .layers
            .iter()
            .any(|layer| !chain.contains(&layer.owner))
        {
            return AccessOutcome::NotYet; // competing holder
        }
        // Minimum-compatible-waiter rule: among the waiters whose chains
        // are compatible with the open layers, strictly earlier
        // registrations (and, at the same instant, smaller thread ids) go
        // first. Incompatible waiters — blocked on the current holder —
        // do not outrank the holder's own chain.
        let my_key = match inner.waiters.iter().find(|w| w.thread == thread) {
            Some(w) => w.key(),
            None => return AccessOutcome::NotYet, // cancelled meanwhile
        };
        let outranked = inner.waiters.iter().any(|w| {
            w.key() < my_key
                && inner
                    .layers
                    .iter()
                    .all(|layer| w.chain.contains(&layer.owner))
        });
        if outranked {
            return AccessOutcome::NotYet;
        }
        // Granted: open the missing chain layers, run the access.
        inner.waiters.retain(|w| w.thread != thread);
        inner.last_grant_at = Some(now);
        let opened = open_missing_layers(&mut inner, chain);
        if crate::trace_enabled() {
            eprintln!(
                "[obj {}] grant to {thread} for {action} at {now} (opened {opened}, depth {})",
                self.shared.name,
                inner.layers.len()
            );
        }
        let top = inner.layers.last_mut().expect("chain layer just ensured");
        debug_assert_eq!(top.owner, action);
        let mut dirty = top.dirty;
        let f = f.take().expect("closure consumed only on grant");
        let value = f(&mut top.working, &mut dirty);
        top.dirty = dirty;
        // The grant is an arbitration event: a chain-compatible waiter
        // (e.g. a sibling role of the same action) may now be eligible.
        let wake = winner_wake(&inner, now);
        AccessOutcome::Done {
            value,
            opened,
            wake,
        }
    }

    /// Directly opens transaction layers for `action` (and any enclosing
    /// actions missing one) when no competing action holds the object.
    /// Returns `false` if a competing layer exists.
    ///
    /// This is the unarbitrated path used by unit tests and internal
    /// tooling; runtime access goes through [`SharedObject::try_access`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn try_acquire(&self, action: ActionId, enclosing: &[ActionId]) -> bool {
        let mut inner = self.shared.state.borrow_mut();
        let chain: Vec<ActionId> = enclosing.iter().copied().chain([action]).collect();
        if inner
            .layers
            .iter()
            .any(|layer| !chain.contains(&layer.owner))
        {
            return false;
        }
        open_missing_layers(&mut inner, &chain);
        true
    }

    /// Reads through the layer owned by `action`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn with_working<R>(
        &self,
        action: ActionId,
        f: impl FnOnce(&mut T, &mut bool) -> R,
    ) -> Result<R, ObjectError> {
        let mut inner = self.shared.state.borrow_mut();
        match inner.layers.last_mut() {
            Some(top) if top.owner == action => {
                let mut dirty = top.dirty;
                let r = f(&mut top.working, &mut dirty);
                top.dirty = dirty;
                Ok(r)
            }
            _ => Err(ObjectError::NotAcquired {
                object: self.shared.name.to_string(),
            }),
        }
    }
}

/// Opens a layer for every chain member missing one, in chain order.
/// Returns the number of layers opened.
fn open_missing_layers<T: Clone>(inner: &mut ObjectInner<T>, chain: &[ActionId]) -> usize {
    let mut opened = 0;
    for &owner in chain {
        if inner.layers.iter().any(|l| l.owner == owner) {
            continue;
        }
        let working = inner
            .layers
            .last()
            .map_or_else(|| inner.committed.clone(), |top| top.working.clone());
        inner.layers.push(TxLayer {
            owner,
            working,
            dirty: false,
        });
        opened += 1;
    }
    opened
}

/// Action-facing transaction control, object-type erased so an action frame
/// can track heterogeneous objects.
///
/// Layer pops are *releases* — arbitration events — so the mutating
/// operations return the [`Wake`] for the next eligible waiter; the
/// calling [`Ctx`](crate::Ctx) forwards it to the network as a scheduled
/// doorbell (wake-on-release).
pub(crate) trait TxControl {
    /// Stable identity of the underlying object (names need not be
    /// unique): the shared allocation's address.
    fn object_id(&self) -> usize;
    /// Commits the layer owned by `action` into the layer below it (or the
    /// committed state). Stamps the release instant for grant gating.
    fn commit(&self, action: ActionId, now: VirtualInstant) -> Result<Wake, ObjectError>;
    /// Discards the layer owned by `action`, restoring the prior state.
    /// Fails for irreversible objects whose layer was modified.
    fn rollback(&self, action: ActionId, now: VirtualInstant) -> Result<Wake, ObjectError>;
    /// Records that recovery started in the owning action (§3.3.2 "inform
    /// external objects of the exception").
    fn inform_exception(&self, action: ActionId, exception: &str);
    /// Commits the layer but marks the object tainted: a failure exception
    /// ƒ left effects that "may have not been undone completely".
    fn commit_tainted(&self, action: ActionId, now: VirtualInstant) -> Result<Wake, ObjectError>;
}

impl<T: Clone + 'static> SharedObject<T> {
    /// Position of `action`'s layer, if open.
    fn layer_index(inner: &ObjectInner<T>, action: ActionId) -> Option<usize> {
        inner.layers.iter().position(|l| l.owner == action)
    }
}

impl<T: Clone + 'static> TxControl for SharedObject<T> {
    fn object_id(&self) -> usize {
        Rc::as_ptr(&self.shared) as *const () as usize
    }

    fn commit(&self, action: ActionId, now: VirtualInstant) -> Result<Wake, ObjectError> {
        let mut inner = self.shared.state.borrow_mut();
        let Some(index) = Self::layer_index(&inner, action) else {
            return Err(ObjectError::NotAcquired {
                object: self.shared.name.to_string(),
            });
        };
        if crate::trace_enabled() {
            eprintln!(
                "[obj {}] commit by {action} (layer {index} of {})",
                self.shared.name,
                inner.layers.len()
            );
        }
        // Splice the layer out wherever it sits and merge downward: pops of
        // a completing action's layers commute with pops of its enclosing
        // action's layers, so same-instant completions by different
        // participants reach the same final state in any wall-clock order.
        let layer = inner.layers.remove(index);
        match index.checked_sub(1).map(|i| &mut inner.layers[i]) {
            Some(parent) => {
                parent.working = layer.working;
                parent.dirty |= layer.dirty;
            }
            None => {
                inner.committed = layer.working;
                if inner.layers.is_empty() {
                    inner.informed.clear();
                }
            }
        }
        inner.last_release_at = Some(now);
        Ok(winner_wake(&inner, now))
    }

    fn rollback(&self, action: ActionId, now: VirtualInstant) -> Result<Wake, ObjectError> {
        let mut inner = self.shared.state.borrow_mut();
        let Some(index) = Self::layer_index(&inner, action) else {
            return Err(ObjectError::NotAcquired {
                object: self.shared.name.to_string(),
            });
        };
        if crate::trace_enabled() {
            eprintln!(
                "[obj {}] rollback by {action} (layer {index} of {})",
                self.shared.name,
                inner.layers.len()
            );
        }
        if !self.shared.undoable && inner.layers[index..].iter().any(|l| l.dirty) {
            return Err(ObjectError::UndoImpossible {
                object: self.shared.name.to_string(),
            });
        }
        // Discard the layer AND everything above it. Any layer above was
        // opened while this one existed, so its owner's chain contains
        // `action` — it is a descendant, and §3.3.1 rolls nested effects
        // back with their aborting ancestor. This also keeps pops
        // commutative when a descendant's straggler commit races an
        // enclosing rollback at the same virtual instant: whichever order
        // the OS schedules, the descendant's working copy (which embeds
        // the rolled-back state) never reaches `committed`.
        inner.layers.truncate(index);
        inner.last_release_at = Some(now);
        Ok(winner_wake(&inner, now))
    }

    fn inform_exception(&self, action: ActionId, exception: &str) {
        let mut inner = self.shared.state.borrow_mut();
        if inner.layers.iter().any(|l| l.owner == action) {
            inner.informed.push(exception.to_owned());
        }
    }

    fn commit_tainted(&self, action: ActionId, now: VirtualInstant) -> Result<Wake, ObjectError> {
        {
            let mut inner = self.shared.state.borrow_mut();
            inner.tainted = true;
        }
        self.commit(action, now)
    }
}

/// Creates an object whose effects cannot be undone (e.g. a physical
/// actuator). Rolling it back after modification fails, which converts the
/// undo exception µ into the failure exception ƒ during signalling (§3.4).
///
/// # Examples
///
/// ```
/// use caa_runtime::objects::irreversible;
///
/// let forge = irreversible("forge", 0u32);
/// assert!(!forge.is_undoable());
/// ```
#[must_use]
pub fn irreversible<T: Clone + 'static>(name: impl Into<Name>, initial: T) -> SharedObject<T> {
    SharedObject {
        shared: Rc::new(ObjectShared {
            name: name.into(),
            undoable: false,
            state: RefCell::new(new_inner(initial)),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aid(serial: u64) -> ActionId {
        ActionId::top_level(serial)
    }

    fn at(ns: u64) -> VirtualInstant {
        VirtualInstant::from_nanos(ns)
    }

    const NOW: VirtualInstant = VirtualInstant::EPOCH;

    #[test]
    fn a_reset_object_is_as_new() {
        let obj = SharedObject::new("o", 1u64);
        let (t1, t2) = (ThreadId::new(1), ThreadId::new(2));
        // Held by one action, waited for by another, informed and tainted.
        assert!(obj.enqueue_waiter(t1, at(5), &[aid(1)], 0).is_some());
        let mut bump = Some(|v: &mut u64, dirty: &mut bool| {
            *v += 1;
            *dirty = true;
        });
        assert!(matches!(
            obj.try_access(t1, at(6), &[aid(1)], &mut bump),
            AccessOutcome::Done { .. }
        ));
        let _ = obj.enqueue_waiter(t2, at(7), &[aid(2)], 0);
        obj.inform_exception(aid(1), "e");
        obj.commit_tainted(aid(1), at(8)).expect("held");
        assert!(obj.is_tainted() && obj.committed() == 2);
        obj.reset(1);
        assert_eq!(
            format!("{obj:?}"),
            format!("{:?}", SharedObject::new("o", 1u64))
        );
        assert!(obj.informed_exceptions().is_empty());
        // No instant of the earlier use gates the first grant of the next:
        // a request at the epoch is scheduled as on a new object.
        let fresh = SharedObject::new("o", 1u64);
        assert_eq!(
            obj.enqueue_waiter(t1, NOW, &[aid(3)], 0),
            fresh.enqueue_waiter(t1, NOW, &[aid(3)], 0)
        );
    }

    #[test]
    fn acquire_modify_commit() {
        let obj = SharedObject::new("belt", vec![1, 2]);
        let a = aid(1);
        assert!(obj.try_acquire(a, &[]));
        obj.with_working(a, |v, dirty| {
            v.push(3);
            *dirty = true;
        })
        .unwrap();
        // Uncommitted work is invisible outside.
        assert_eq!(obj.committed(), vec![1, 2]);
        obj.commit(a, NOW).unwrap();
        assert_eq!(obj.committed(), vec![1, 2, 3]);
    }

    #[test]
    fn rollback_restores_prior_state() {
        let obj = SharedObject::new("table", 10u32);
        let a = aid(1);
        assert!(obj.try_acquire(a, &[]));
        obj.with_working(a, |v, dirty| {
            *v = 99;
            *dirty = true;
        })
        .unwrap();
        obj.rollback(a, NOW).unwrap();
        assert_eq!(obj.committed(), 10);
        assert!(!obj.is_tainted());
    }

    #[test]
    fn competing_action_must_wait() {
        let obj = SharedObject::new("press", 0u32);
        let a = aid(1);
        let b = aid(2);
        assert!(obj.try_acquire(a, &[]));
        assert!(!obj.try_acquire(b, &[]), "b is not nested inside a");
        obj.commit(a, NOW).unwrap();
        assert!(obj.try_acquire(b, &[]), "free after commit");
    }

    #[test]
    fn nested_action_layers_commit_into_parent() {
        let obj = SharedObject::new("robot", 0u32);
        let outer = aid(1);
        let inner = ActionId::nested(2, &outer);
        assert!(obj.try_acquire(outer, &[]));
        obj.with_working(outer, |v, d| {
            *v = 1;
            *d = true;
        })
        .unwrap();
        assert!(obj.try_acquire(inner, &[outer]));
        obj.with_working(inner, |v, d| {
            *v += 10;
            *d = true;
        })
        .unwrap();
        // Inner commit merges into outer's layer, not the committed state.
        obj.commit(inner, NOW).unwrap();
        assert_eq!(obj.committed(), 0);
        obj.commit(outer, NOW).unwrap();
        assert_eq!(obj.committed(), 11);
    }

    #[test]
    fn nested_rollback_preserves_parent_work() {
        let obj = SharedObject::new("robot", 0u32);
        let outer = aid(1);
        let inner = ActionId::nested(2, &outer);
        obj.try_acquire(outer, &[]);
        obj.with_working(outer, |v, d| {
            *v = 5;
            *d = true;
        })
        .unwrap();
        obj.try_acquire(inner, &[outer]);
        obj.with_working(inner, |v, d| {
            *v = 999;
            *d = true;
        })
        .unwrap();
        obj.rollback(inner, NOW).unwrap();
        obj.with_working(outer, |v, _| assert_eq!(*v, 5)).unwrap();
        obj.commit(outer, NOW).unwrap();
        assert_eq!(obj.committed(), 5);
    }

    #[test]
    fn out_of_order_pops_commute() {
        // Same-instant completions: the enclosing action's layer may be
        // committed while the nested layer is still open; the nested commit
        // then lands in the committed state. Both orders agree.
        let obj = SharedObject::new("metrics", 0u32);
        let outer = aid(1);
        let inner = ActionId::nested(2, &outer);
        obj.try_acquire(outer, &[]);
        obj.with_working(outer, |v, d| {
            *v = 1;
            *d = true;
        })
        .unwrap();
        obj.try_acquire(inner, &[outer]);
        obj.with_working(inner, |v, d| {
            *v += 10;
            *d = true;
        })
        .unwrap();
        // Outer commits first (spliced from the middle), inner second.
        obj.commit(outer, NOW).unwrap();
        obj.commit(inner, NOW).unwrap();
        assert_eq!(obj.committed(), 11, "same result as inner-then-outer");
    }

    #[test]
    fn enclosing_rollback_discards_straggler_nested_layer_in_either_order() {
        // The race: an enclosing recovery rolls back action O on one thread
        // while a straggler commit completes nested N on another, at the
        // same virtual instant. Both wall-clock orders must agree — and
        // must NOT resurrect O's rolled-back effects via N's working copy.
        let run = |nested_commit_first: bool| {
            let obj = SharedObject::new("o", 0u32);
            let outer = aid(1);
            let nested = ActionId::nested(2, &outer);
            obj.try_acquire(outer, &[]);
            obj.with_working(outer, |v, d| {
                *v = 10;
                *d = true;
            })
            .unwrap();
            obj.try_acquire(nested, &[outer]);
            obj.with_working(nested, |v, d| {
                *v += 5;
                *d = true;
            })
            .unwrap();
            if nested_commit_first {
                obj.commit(nested, NOW).unwrap();
                obj.rollback(outer, NOW).unwrap();
            } else {
                obj.rollback(outer, NOW).unwrap();
                let _ = obj.commit(nested, NOW); // straggler: layer gone
            }
            obj.committed()
        };
        assert_eq!(run(true), 0, "rolled-back effects must not survive");
        assert_eq!(run(false), 0);
        assert_eq!(run(true), run(false), "pop order must not matter");
    }

    #[test]
    fn irreversible_object_refuses_dirty_rollback() {
        let obj = irreversible("forge", 0u32);
        assert!(!obj.is_undoable());
        let a = aid(1);
        obj.try_acquire(a, &[]);
        // Clean layer can still be discarded.
        obj.rollback(a, NOW).unwrap();
        obj.try_acquire(a, &[]);
        obj.with_working(a, |v, d| {
            *v = 1;
            *d = true;
        })
        .unwrap();
        assert_eq!(
            obj.rollback(a, NOW).unwrap_err(),
            ObjectError::UndoImpossible {
                object: "forge".into()
            }
        );
    }

    #[test]
    fn tainted_commit_records_failure() {
        let obj = SharedObject::new("deposit", 0u32);
        let a = aid(1);
        obj.try_acquire(a, &[]);
        obj.with_working(a, |v, d| {
            *v = 7;
            *d = true;
        })
        .unwrap();
        obj.commit_tainted(a, NOW).unwrap();
        assert!(obj.is_tainted());
        assert_eq!(obj.committed(), 7, "ƒ leaves the erroneous effects visible");
    }

    #[test]
    fn inform_exception_is_recorded_until_commit() {
        let obj = SharedObject::new("arm1", 0u32);
        let a = aid(1);
        obj.try_acquire(a, &[]);
        obj.inform_exception(a, "l_plate");
        assert_eq!(obj.informed_exceptions(), vec!["l_plate".to_owned()]);
        obj.commit(a, NOW).unwrap();
        assert!(obj.informed_exceptions().is_empty());
    }

    #[test]
    fn operations_without_acquisition_fail() {
        let obj = SharedObject::new("lone", 0u32);
        let a = aid(1);
        assert!(matches!(
            obj.with_working(a, |_, _| ()).unwrap_err(),
            ObjectError::NotAcquired { .. }
        ));
        assert!(obj.commit(a, NOW).is_err());
        assert!(obj.rollback(a, NOW).is_err());
    }

    #[test]
    fn reacquire_by_same_action_is_idempotent() {
        let obj = SharedObject::new("belt", 0u32);
        let a = aid(1);
        assert!(obj.try_acquire(a, &[]));
        assert!(obj.try_acquire(a, &[]));
        obj.commit(a, NOW).unwrap();
        // After commit the layer is gone; commit again fails.
        assert!(obj.commit(a, NOW).is_err());
    }

    #[test]
    fn error_display() {
        let e = ObjectError::UndoImpossible {
            object: "press".into(),
        };
        assert_eq!(e.to_string(), "object press cannot undo its effects");
    }

    // ---------------- arbitration semantics ----------------

    fn tid(t: u32) -> ThreadId {
        ThreadId::new(t)
    }

    fn grant<T: Clone + 'static>(
        obj: &SharedObject<T>,
        thread: ThreadId,
        now: VirtualInstant,
        action: ActionId,
    ) -> bool {
        let mut f = Some(|_: &mut T, _: &mut bool| ());
        matches!(
            obj.try_access(thread, now, &[action], &mut f),
            AccessOutcome::Done { .. }
        )
    }

    #[test]
    fn min_waiter_wins_regardless_of_attempt_order() {
        let obj = SharedObject::new("o", 0u32);
        // Both register at the same instant; the smaller thread id must win
        // even when the larger one attempts first.
        obj.enqueue_waiter(tid(2), at(0), &[aid(2)], 0);
        obj.enqueue_waiter(tid(1), at(0), &[aid(1)], 0);
        assert!(!grant(&obj, tid(2), at(1), aid(2)), "t2 is not min");
        assert!(grant(&obj, tid(1), at(1), aid(1)), "t1 is min");
    }

    #[test]
    fn earlier_registration_outranks_smaller_thread_id() {
        let obj = SharedObject::new("o", 0u32);
        obj.enqueue_waiter(tid(5), at(0), &[aid(5)], 0);
        obj.enqueue_waiter(tid(1), at(10), &[aid(1)], 0);
        assert!(!grant(&obj, tid(1), at(20), aid(1)));
        assert!(grant(&obj, tid(5), at(20), aid(5)));
    }

    #[test]
    fn at_most_one_grant_per_instant() {
        let obj = SharedObject::new("o", 0u32);
        let (a, b) = (aid(1), ActionId::nested(2, &aid(1))); // same chain
        obj.enqueue_waiter(tid(1), at(0), &[a], 0);
        obj.enqueue_waiter(tid(2), at(0), &[a, b], 0);
        assert!(grant(&obj, tid(1), at(5), a));
        // Same chain, so layers do not block t2 — but the instant does.
        let mut f = Some(|_: &mut u32, _: &mut bool| ());
        assert!(
            !matches!(
                obj.try_access(tid(2), at(5), &[a, b], &mut f),
                AccessOutcome::Done { .. }
            ),
            "second grant at the same instant must be denied"
        );
        assert!(f.is_some(), "denied attempts must not consume the closure");
        assert!(matches!(
            obj.try_access(tid(2), at(6), &[a, b], &mut f),
            AccessOutcome::Done { .. }
        ));
    }

    #[test]
    fn release_gates_same_instant_grants() {
        let obj = SharedObject::new("o", 0u32);
        let holder = aid(1);
        obj.try_acquire(holder, &[]);
        obj.enqueue_waiter(tid(2), at(0), &[aid(2)], 0);
        obj.commit(holder, at(5)).unwrap();
        assert!(
            !grant(&obj, tid(2), at(5), aid(2)),
            "release at t enables grants only strictly after t"
        );
        assert!(grant(&obj, tid(2), at(6), aid(2)));
    }

    #[test]
    fn cancellation_gates_same_instant_grants() {
        let obj = SharedObject::new("o", 0u32);
        obj.enqueue_waiter(tid(1), at(0), &[aid(1)], 0);
        obj.enqueue_waiter(tid(2), at(0), &[aid(2)], 0);
        obj.cancel_waiter(tid(1), at(5));
        assert!(!grant(&obj, tid(2), at(5), aid(2)));
        assert!(grant(&obj, tid(2), at(6), aid(2)));
    }

    #[test]
    fn incompatible_earlier_waiter_does_not_block_holder_reaccess() {
        // Priority inversion guard: a competing waiter that registered
        // first (but cannot proceed while the holder's layer is open) must
        // not outrank the holder's own re-access.
        let obj = SharedObject::new("o", 0u32);
        let holder = aid(1);
        obj.try_acquire(holder, &[]);
        obj.enqueue_waiter(tid(2), at(0), &[aid(2)], 0); // competing, earlier
        obj.enqueue_waiter(tid(1), at(10), &[holder], 0); // holder re-access
        assert!(grant(&obj, tid(1), at(11), holder));
        obj.commit(holder, at(12)).unwrap();
        assert!(grant(&obj, tid(2), at(13), aid(2)));
    }

    #[test]
    fn competing_holder_denies_grant() {
        let obj = SharedObject::new("o", 0u32);
        obj.try_acquire(aid(1), &[]);
        obj.enqueue_waiter(tid(2), at(0), &[aid(2)], 0);
        assert!(!grant(&obj, tid(2), at(3), aid(2)));
        obj.commit(aid(1), at(4)).unwrap();
        assert!(grant(&obj, tid(2), at(9), aid(2)));
    }

    #[test]
    fn access_runs_atomically_with_grant_and_reports_opened_layers() {
        let obj = SharedObject::new("o", 0u32);
        obj.enqueue_waiter(tid(1), at(0), &[aid(1)], 0);
        let mut f = Some(|v: &mut u32, d: &mut bool| {
            *v = 42;
            *d = true;
            *v
        });
        match obj.try_access(tid(1), at(1), &[aid(1)], &mut f) {
            AccessOutcome::Done { value, opened, .. } => {
                assert_eq!(value, 42);
                assert_eq!(opened, 1, "first access opens the layer");
            }
            AccessOutcome::NotYet => panic!("grant expected"),
        }
        // Re-access by the holder: no new layers.
        obj.enqueue_waiter(tid(1), at(2), &[aid(1)], 0);
        let mut f = Some(|v: &mut u32, _: &mut bool| *v);
        match obj.try_access(tid(1), at(3), &[aid(1)], &mut f) {
            AccessOutcome::Done { value, opened, .. } => {
                assert_eq!(value, 42);
                assert_eq!(opened, 0);
            }
            AccessOutcome::NotYet => panic!("holder re-access must be granted"),
        }
    }

    // ---------------- wake-on-release scheduling ----------------

    const Q: u64 = OBJECT_QUANTUM.as_nanos();

    #[test]
    fn next_attempt_tick_lands_on_the_registration_grid() {
        let r = at(500);
        // First attempt: one quantum after registration.
        assert_eq!(next_attempt_tick(r, at(500)), at(500 + Q));
        // An event inside the first quantum does not delay the attempt.
        assert_eq!(next_attempt_tick(r, at(500 + Q - 1)), at(500 + Q));
        // An event exactly on a grid tick pushes to the next tick
        // (strictly-after semantics, matching the `>= now` gate).
        assert_eq!(next_attempt_tick(r, at(500 + Q)), at(500 + 2 * Q));
        // Later events land on the first grid tick after them.
        assert_eq!(next_attempt_tick(r, at(500 + 2 * Q + 7)), at(500 + 3 * Q));
    }

    #[test]
    fn enqueue_schedules_only_the_eligible_minimum_waiter() {
        let obj = SharedObject::new("o", 0u32);
        assert_eq!(
            obj.enqueue_waiter(tid(2), at(0), &[aid(2)], 7),
            Some((tid(2), at(Q), 7)),
            "first waiter on a free object schedules its first tick"
        );
        assert_eq!(
            obj.enqueue_waiter(tid(5), at(0), &[aid(5)], 0),
            None,
            "outranked same-instant waiter parks unscheduled"
        );
        assert_eq!(
            obj.enqueue_waiter(tid(1), at(0), &[aid(1)], 9),
            Some((tid(1), at(Q), 9)),
            "a smaller same-instant thread id displaces the winner"
        );
    }

    #[test]
    fn enqueue_against_a_competing_holder_parks_unscheduled() {
        let obj = SharedObject::new("o", 0u32);
        obj.try_acquire(aid(1), &[]);
        assert_eq!(
            obj.enqueue_waiter(tid(2), at(0), &[aid(2)], 0),
            None,
            "incompatible waiter must wait for the release event"
        );
        // The release schedules the parked waiter on its own grid.
        let wake = obj.commit(aid(1), at(5)).unwrap();
        assert_eq!(
            wake,
            Some((tid(2), at(Q), 0)),
            "woken at its first grid tick after the release"
        );
    }

    #[test]
    fn release_after_the_first_tick_schedules_the_next_grid_tick() {
        let obj = SharedObject::new("o", 0u32);
        obj.try_acquire(aid(1), &[]);
        obj.enqueue_waiter(tid(2), at(100), &[aid(2)], 0);
        // Holder releases two-and-a-bit quanta later: the waiter's next
        // on-grid attempt is strictly after the release instant.
        let wake = obj.commit(aid(1), at(100 + 2 * Q + 3)).unwrap();
        assert_eq!(wake, Some((tid(2), at(100 + 3 * Q), 0)));
    }

    #[test]
    fn cancel_of_the_scheduled_winner_promotes_the_next_waiter() {
        let obj = SharedObject::new("o", 0u32);
        obj.enqueue_waiter(tid(1), at(0), &[aid(1)], 0);
        obj.enqueue_waiter(tid(2), at(10), &[aid(2)], 0);
        let wake = obj.cancel_waiter(tid(1), at(20));
        assert_eq!(wake, Some((tid(2), at(10 + Q), 0)));
        assert_eq!(
            obj.cancel_waiter(tid(1), at(21)),
            None,
            "cancelling an absent waiter is not an arbitration event"
        );
    }

    #[test]
    fn grant_schedules_a_chain_compatible_follower() {
        let obj = SharedObject::new("o", 0u32);
        let a = aid(1);
        let nested = ActionId::nested(2, &a);
        obj.enqueue_waiter(tid(1), at(0), &[a], 0);
        obj.enqueue_waiter(tid(2), at(0), &[a, nested], 0);
        let mut f = Some(|_: &mut u32, _: &mut bool| ());
        match obj.try_access(tid(1), at(Q), &[a], &mut f) {
            AccessOutcome::Done { wake, .. } => {
                // t2 shares the chain, so the grant event schedules it for
                // the next tick (the same-instant gate forbids this one).
                assert_eq!(wake, Some((tid(2), at(2 * Q), 0)));
            }
            AccessOutcome::NotYet => panic!("grant expected"),
        }
    }

    #[test]
    fn grant_does_not_schedule_incompatible_waiters() {
        let obj = SharedObject::new("o", 0u32);
        obj.enqueue_waiter(tid(1), at(0), &[aid(1)], 0);
        obj.enqueue_waiter(tid(2), at(0), &[aid(2)], 0);
        let mut f = Some(|_: &mut u32, _: &mut bool| ());
        match obj.try_access(tid(1), at(Q), &[aid(1)], &mut f) {
            AccessOutcome::Done { wake, .. } => {
                assert_eq!(wake, None, "competing waiter stays parked until release");
            }
            AccessOutcome::NotYet => panic!("grant expected"),
        }
    }
}
