//! CA action definitions (§3.1).
//!
//! "The interface to a CA action specifies the objects that are to be
//! manipulated by the CA action and the roles that are to manipulate these
//! objects. In order to perform a CA action, a group of execution threads
//! must come together and agree to perform each role in the CA action
//! concurrently with one thread per role."
//!
//! An [`ActionDef`] declares the roles (each statically bound to the thread
//! that will perform it — §3.3.1 assumes "each participating thread knows
//! the set of all participating threads"), the exception graph used for
//! resolution, the interface exceptions `ε` that may be signalled, and the
//! per-role handlers: exception handlers, abortion handlers and undo hooks.

use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};

use caa_core::exception::{Exception, ExceptionId};
use caa_core::ids::{ActionId, RoleId, ThreadId};
use caa_core::name::Name;
use caa_core::outcome::HandlerVerdict;
use caa_core::time::VirtualDuration;
use caa_exgraph::{ExceptionGraph, ExceptionGraphBuilder};

use crate::context::Ctx;
use crate::error::Step;
use caa_protocol::membership::ViewSnapshot;
use caa_protocol::ActionSpec;

/// Exception-handler body: attempts forward recovery for the resolving
/// exception the thread was committed to, then reports a verdict.
pub type Handler = Rc<dyn Fn(&mut Ctx) -> Step<HandlerVerdict>>;

/// Abortion-handler body: runs when an enclosing action aborts this action;
/// may produce an exception `Eab` to be raised in the enclosing action.
pub type AbortHandler = Rc<dyn Fn(&mut Ctx) -> Step<Option<Exception>>>;

/// Undo hook: application-level compensation executed during the undo round
/// of the signalling algorithm (§3.4). Returns whether undo succeeded.
pub type UndoHook = Rc<dyn Fn(&mut Ctx) -> Step<bool>>;

static NEXT_DEF_ID: AtomicU32 = AtomicU32::new(1);

/// How many roles a definition's table is first sized for.
const USUAL_ROLES: usize = 4;

/// Errors reported while building an [`ActionDef`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DefError {
    /// The action declares no roles.
    NoRoles,
    /// Two roles share a name.
    DuplicateRole(String),
    /// Two roles are bound to the same thread.
    DuplicateThread(ThreadId),
    /// A handler refers to a role name that was never declared.
    UnknownRole(String),
}

impl fmt::Display for DefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefError::NoRoles => f.write_str("a CA action needs at least one role"),
            DefError::DuplicateRole(name) => write!(f, "role {name} declared twice"),
            DefError::DuplicateThread(t) => {
                write!(f, "thread {t} bound to more than one role")
            }
            DefError::UnknownRole(name) => {
                write!(f, "handler refers to undeclared role {name}")
            }
        }
    }
}

impl std::error::Error for DefError {}

pub(crate) struct DefInner {
    /// Copied into every `Enter` event the runtime emits.
    pub(crate) name: Name,
    /// The declared roles in declaration order (roles are dense
    /// [`RoleId`]s): one table, one allocation.
    pub(crate) roles: Vec<Role>,
    /// What the protocol reads of the definition: the group, the graph and
    /// the corruption exception.
    pub(crate) spec: ActionSpec,
    pub(crate) interface: Vec<ExceptionId>,
    /// The handlers registered for a (role, exception) pair, one per pair:
    /// a handful, searched by comparing ids (two pointer compares a row).
    pub(crate) handlers: Vec<(RoleId, ExceptionId, Handler)>,
    pub(crate) signal_timeout: Option<VirtualDuration>,
    pub(crate) exit_timeout: Option<VirtualDuration>,
    pub(crate) resolution_timeout: Option<VirtualDuration>,
}

impl AsRef<ActionSpec> for DefInner {
    fn as_ref(&self) -> &ActionSpec {
        &self.spec
    }
}

/// One role of a definition: its name, the thread bound to it, and its
/// catch-all handler, abortion handler and undo hook, where one was
/// registered.
pub(crate) struct Role {
    /// Copied into every `Enter` event the runtime emits.
    pub(crate) name: Name,
    pub(crate) thread: ThreadId,
    pub(crate) fallback: Option<Handler>,
    pub(crate) abort: Option<AbortHandler>,
    pub(crate) undo: Option<UndoHook>,
}

/// A per-role registration that names no exception.
enum Registration {
    Fallback(Handler),
    Abort(AbortHandler),
    Undo(UndoHook),
}

impl Registration {
    /// Stores the registration in `role`, replacing an earlier one of its
    /// kind.
    fn apply(self, role: &mut Role) {
        match self {
            Registration::Fallback(f) => role.fallback = Some(f),
            Registration::Abort(f) => role.abort = Some(f),
            Registration::Undo(f) => role.undo = Some(f),
        }
    }
}

impl DefInner {
    pub(crate) fn role_id(&self, name: &str) -> Option<RoleId> {
        self.roles
            .iter()
            .position(|r| *r.name == *name)
            .map(|i| RoleId::new(u32::try_from(i).expect("role count bounded")))
    }

    pub(crate) fn thread_of(&self, role: RoleId) -> ThreadId {
        self.roles[role.index()].thread
    }

    /// Handler lookup: exact (role, exception) match, then the role's
    /// fallback. Returns `None` when the default policy applies.
    pub(crate) fn handler_for(&self, role: RoleId, exception: ExceptionId) -> Option<&Handler> {
        self.handlers
            .iter()
            .find(|(r, e, _)| *r == role && *e == exception)
            .map(|(.., handler)| handler)
            .or(self.roles[role.index()].fallback.as_ref())
    }

    /// The default verdict when no handler exists: the universal exception
    /// "usually leads to the signalling of a undo or failure exception"
    /// (§3.2), and an unhandled exception "will be propagated" (§2.1). An
    /// unhandled crash exception is presume-ƒ: the action failed and the
    /// dead participant's effects cannot be assumed undone.
    pub(crate) fn default_verdict(exception: ExceptionId) -> HandlerVerdict {
        if exception.is_universal() {
            HandlerVerdict::Undo
        } else if exception.is_crash() {
            HandlerVerdict::Fail
        } else {
            HandlerVerdict::Signal(exception)
        }
    }
}

impl fmt::Debug for DefInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActionDef")
            .field("name", &self.name)
            .field("roles", &role_names(&self.roles))
            .field("group", &self.spec.group)
            .finish()
    }
}

/// The names of `roles`, in declaration order (for `Debug`).
fn role_names(roles: &[Role]) -> Vec<Name> {
    roles.iter().map(|role| role.name).collect()
}

/// An immutable CA action definition; cheap to clone and share between
/// the participants of a system.
///
/// # Examples
///
/// ```
/// use caa_runtime::ActionDef;
/// use caa_core::ids::ThreadId;
/// use caa_core::outcome::HandlerVerdict;
/// use caa_exgraph::ExceptionGraphBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = ExceptionGraphBuilder::new()
///     .resolves("dual_motor_failures", ["vm_stop", "rm_stop"])
///     .build()?;
/// let def = ActionDef::builder("Move_Loaded_Table")
///     .role("table", ThreadId::new(0))
///     .role("sensor", ThreadId::new(1))
///     .graph(graph)
///     .interface(["L_PLATE"])
///     .handler("table", "dual_motor_failures", |_ctx| {
///         Ok(HandlerVerdict::Recovered)
///     })
///     .build()?;
/// assert_eq!(def.name(), "Move_Loaded_Table");
/// assert_eq!(def.roles().len(), 2);
/// assert_eq!(def.roles().next().map(|name| name.as_str()), Some("table"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct ActionDef {
    pub(crate) inner: Rc<DefInner>,
    /// What tells this definition's instances from those of any other in
    /// the process (see [`make_action_id`]); clones share it.
    pub(crate) def_id: u32,
}

impl ActionDef {
    /// Starts building an action definition.
    pub fn builder(name: impl Into<Name>) -> ActionDefBuilder {
        ActionDefBuilder {
            name: name.into(),
            roles: Vec::new(),
            pending: Vec::new(),
            graph: None,
            interface: Vec::new(),
            handlers: Vec::new(),
            signal_timeout: None,
            exit_timeout: None,
            resolution_timeout: None,
            corruption_exception: ExceptionId::new("l_mes"),
        }
    }

    /// The action's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.inner.name.as_str()
    }

    /// The declared role names, in declaration order.
    pub fn roles(&self) -> impl ExactSizeIterator<Item = Name> + '_ {
        self.inner.roles.iter().map(|role| role.name)
    }

    /// The participating threads, sorted ascending.
    #[must_use]
    pub fn group(&self) -> &[ThreadId] {
        &self.inner.spec.group
    }

    /// The exception graph used to resolve concurrent exceptions.
    #[must_use]
    pub fn graph(&self) -> &ExceptionGraph {
        &self.inner.spec.graph
    }

    /// The interface exceptions `ε` this action may signal (µ and ƒ are
    /// always possible and not listed).
    #[must_use]
    pub fn interface(&self) -> &[ExceptionId] {
        &self.inner.interface
    }

    /// This definition again, as if it had been built a second time: the
    /// same roles, graph, handlers and timeouts (shared, not copied) under
    /// a definition id of its own, so the instances entered through the
    /// result are numbered apart from those entered through `self`. What a
    /// driver that keeps definitions between systems uses in place of a
    /// rebuild.
    #[must_use]
    pub fn reissued(&self) -> ActionDef {
        ActionDef {
            inner: Rc::clone(&self.inner),
            def_id: NEXT_DEF_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for ActionDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

/// Builder for [`ActionDef`] ([C-BUILDER]).
#[must_use = "builders do nothing until .build() is called"]
pub struct ActionDefBuilder {
    name: Name,
    /// The declared roles, as the definition will hold them: `build` moves
    /// the table in as it is.
    roles: Vec<Role>,
    /// Registrations naming a role that is not declared (yet): they take
    /// effect when it is, and fail the build if it never is.
    pending: Vec<(Name, Registration)>,
    graph: Option<Rc<ExceptionGraph>>,
    interface: Vec<ExceptionId>,
    handlers: Vec<(Name, ExceptionId, Handler)>,
    signal_timeout: Option<VirtualDuration>,
    exit_timeout: Option<VirtualDuration>,
    resolution_timeout: Option<VirtualDuration>,
    corruption_exception: ExceptionId,
}

impl fmt::Debug for ActionDefBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActionDefBuilder")
            .field("name", &self.name)
            .field("roles", &role_names(&self.roles))
            .finish()
    }
}

impl ActionDefBuilder {
    /// Declares a role and binds it to the thread that will perform it.
    /// Role names — here and in the handler registrations below — are
    /// interned [`Name`]s: a caller that holds one already (a sweep driver
    /// with its role names) pays no lookup for them.
    pub fn role(mut self, name: impl Into<Name>, thread: impl Into<ThreadId>) -> Self {
        let name = name.into();
        let mut role = Role {
            name,
            thread: thread.into(),
            fallback: None,
            abort: None,
            undo: None,
        };
        // What was registered for the role before it was declared, in
        // registration order (to a duplicate declaration nothing is owed:
        // the build fails).
        if !self.pending.is_empty() && !self.roles.iter().any(|r| r.name == name) {
            let (mine, others): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
                .into_iter()
                .partition(|(registered_for, _)| *registered_for == name);
            self.pending = others;
            for (_, registration) in mine {
                registration.apply(&mut role);
            }
        }
        if self.roles.is_empty() {
            // The table is allocated here, for a group of the usual size.
            self.roles.reserve(USUAL_ROLES);
        }
        self.roles.push(role);
        self
    }

    /// Files a registration under `role`: straight into the role's entry
    /// when it is declared already (the usual order), held back otherwise.
    fn register(mut self, role: Name, registration: Registration) -> Self {
        match self.roles.iter().position(|declared| declared.name == role) {
            Some(declared) => registration.apply(&mut self.roles[declared]),
            None => self.pending.push((role, registration)),
        }
        self
    }

    /// Sets the exception graph. Without one, every exception resolves
    /// through a minimal graph containing only the universal exception.
    pub fn graph(mut self, graph: ExceptionGraph) -> Self {
        self.graph = Some(Rc::new(graph));
        self
    }

    /// [`ActionDefBuilder::graph`] with an already-shared graph: action
    /// definitions built from the same graph share one allocation.
    /// Scenario executors cache resolution lattices across seeds this way
    /// (the lattice is a pure function of the declared exceptions).
    pub fn graph_shared(mut self, graph: Rc<ExceptionGraph>) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Declares the interface exceptions `ε` this action may signal.
    pub fn interface<I, T>(mut self, exceptions: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<ExceptionId>,
    {
        self.interface
            .extend(exceptions.into_iter().map(Into::into));
        self
    }

    /// Registers `role`'s handler for the resolving exception `exception`.
    pub fn handler(
        mut self,
        role: impl Into<Name>,
        exception: impl Into<ExceptionId>,
        f: impl Fn(&mut Ctx) -> Step<HandlerVerdict> + 'static,
    ) -> Self {
        self.handlers
            .push((role.into(), exception.into(), Rc::new(f)));
        self
    }

    /// Registers a catch-all handler consulted when `role` has no handler
    /// for the resolving exception.
    pub fn fallback_handler(
        self,
        role: impl Into<Name>,
        f: impl Fn(&mut Ctx) -> Step<HandlerVerdict> + 'static,
    ) -> Self {
        self.fallback_handler_shared(role, Rc::new(f))
    }

    /// [`ActionDefBuilder::fallback_handler`] with an already-shared
    /// handler: roles (and definitions) registered with clones of one
    /// [`Handler`] share one closure. A handler that behaves differently per
    /// participant reads [`Ctx::thread_id`] — how a scenario executor
    /// registers one closure per action instead of one per role.
    pub fn fallback_handler_shared(self, role: impl Into<Name>, handler: Handler) -> Self {
        self.register(role.into(), Registration::Fallback(handler))
    }

    /// Registers `role`'s abortion handler, run when an enclosing action
    /// aborts this one; it may return an exception `Eab` to be raised in
    /// the enclosing action (§3.3.1).
    pub fn abort_handler(
        self,
        role: impl Into<Name>,
        f: impl Fn(&mut Ctx) -> Step<Option<Exception>> + 'static,
    ) -> Self {
        self.abort_handler_shared(role, Rc::new(f))
    }

    /// [`ActionDefBuilder::abort_handler`] with an already-shared handler
    /// (see [`ActionDefBuilder::fallback_handler_shared`]).
    pub fn abort_handler_shared(self, role: impl Into<Name>, handler: AbortHandler) -> Self {
        self.register(role.into(), Registration::Abort(handler))
    }

    /// Registers `role`'s undo hook, executed during the undo round of the
    /// signalling algorithm; returns whether application-level compensation
    /// succeeded (§3.4).
    pub fn undo_hook(
        self,
        role: impl Into<Name>,
        f: impl Fn(&mut Ctx) -> Step<bool> + 'static,
    ) -> Self {
        self.register(role.into(), Registration::Undo(Rc::new(f)))
    }

    /// Bounds how long the signalling algorithm waits for each peer
    /// announcement; a missing announcement is then treated as the failure
    /// exception ƒ (the §3.4 crash/loss extension).
    pub fn signal_timeout(mut self, timeout: VirtualDuration) -> Self {
        self.signal_timeout = Some(timeout);
        self
    }

    /// Bounds how long the exit protocol waits for peer votes — the §3.4
    /// timeout generalised from signalling to exit. When the bound expires
    /// with votes missing, the peer is presumed crashed and the action
    /// resolves to abortion (outcome ƒ / [`ActionOutcome::Failed`]) instead
    /// of deadlocking. The bound must exceed any live participant's exit
    /// skew (latency plus scheduling), or slow peers are misclassified as
    /// crashed. Without it (the default) the exit wait is unbounded.
    ///
    /// [`ActionOutcome::Failed`]: caa_core::outcome::ActionOutcome::Failed
    pub fn exit_timeout(mut self, timeout: VirtualDuration) -> Self {
        self.exit_timeout = Some(timeout);
        self
    }

    /// Bounds how long the resolution algorithm's collection loop waits
    /// for a peer's `Exception`/`Suspended`/`Commit` before presuming the
    /// silent peer crashed — the membership extension (see
    /// [`caa_protocol::membership`]). When the per-round bound expires, the
    /// threads this participant is blocked on are removed from the
    /// action's membership view, a crash exception is synthesized on their
    /// behalf, a `ViewChange` is broadcast so all survivors agree on the
    /// new view, and resolution re-runs over the live members.
    ///
    /// Like [`ActionDefBuilder::exit_timeout`], the bound must exceed any
    /// live participant's response skew (latency plus scheduling plus
    /// resolution delay) or slow peers are misclassified as crashed.
    /// Without it (the default) the collection wait is unbounded and a
    /// crashed peer deadlocks the recovery — the pre-membership behaviour.
    pub fn resolution_timeout(mut self, timeout: VirtualDuration) -> Self {
        self.resolution_timeout = Some(timeout);
        self
    }

    /// The internal exception raised when a corrupted message is delivered
    /// while this action runs (defaults to `l_mes`, as in the production
    /// cell's Figure 7).
    pub fn corruption_exception(mut self, exception: impl Into<ExceptionId>) -> Self {
        self.corruption_exception = exception.into();
        self
    }

    /// Validates and freezes the definition.
    ///
    /// # Errors
    ///
    /// See [`DefError`].
    pub fn build(self) -> Result<ActionDef, DefError> {
        let roles = self.roles;
        if roles.is_empty() {
            return Err(DefError::NoRoles);
        }
        for (declared, role) in roles.iter().enumerate() {
            let earlier = &roles[..declared];
            if earlier.iter().any(|r| r.name == role.name) {
                return Err(DefError::DuplicateRole(role.name.to_string()));
            }
            if earlier.iter().any(|r| r.thread == role.thread) {
                return Err(DefError::DuplicateThread(role.thread));
            }
        }
        if let Some((undeclared, _)) = self.pending.first() {
            return Err(DefError::UnknownRole(undeclared.to_string()));
        }
        let mut group: ViewSnapshot = roles.iter().map(|role| role.thread).collect();
        group.sort_unstable();

        let graph = match self.graph {
            Some(g) => g,
            None => Rc::new(
                ExceptionGraphBuilder::new()
                    .exception(ExceptionId::universal())
                    .build()
                    .expect("singleton universal graph is valid"),
            ),
        };

        let role_id_of = |name: Name| -> Result<RoleId, DefError> {
            roles
                .iter()
                .position(|r| r.name == name)
                .map(|i| RoleId::new(u32::try_from(i).expect("bounded")))
                .ok_or_else(|| DefError::UnknownRole(name.to_string()))
        };

        // A later registration for a (role, exception) pair replaces an
        // earlier one.
        let mut handlers: Vec<(RoleId, ExceptionId, Handler)> = Vec::new();
        for (role, exc, f) in self.handlers {
            let role = role_id_of(role)?;
            match handlers
                .iter_mut()
                .find(|(r, e, _)| (*r, *e) == (role, exc))
            {
                Some(registered) => registered.2 = f,
                None => handlers.push((role, exc, f)),
            }
        }

        Ok(ActionDef {
            def_id: NEXT_DEF_ID.fetch_add(1, Ordering::Relaxed),
            inner: Rc::new(DefInner {
                name: self.name,
                roles,
                spec: ActionSpec {
                    group,
                    graph,
                    corruption_exception: self.corruption_exception,
                },
                interface: self.interface,
                handlers,
                signal_timeout: self.signal_timeout,
                exit_timeout: self.exit_timeout,
                resolution_timeout: self.resolution_timeout,
            }),
        })
    }
}

/// Builds the id of the `instance`-th entry into definition `def_id` within
/// the parent action instance `parent_serial` (0 for top-level entries).
///
/// Instance numbering is scoped to the *parent instance*: cooperating
/// threads always agree on their common parent (the exit and recovery
/// protocols synchronise its completion), so they mint identical ids for
/// each nested action even when earlier recoveries made some of them skip
/// nested actions the others entered. The serial is a 64-bit mix of the
/// three components; collisions are vanishingly unlikely for realistic run
/// lengths.
pub(crate) fn make_action_id(
    def_id: u32,
    parent_serial: u64,
    instance: u32,
    depth: u32,
) -> ActionId {
    let mut z = (u64::from(def_id) << 40)
        ^ parent_serial.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (u64::from(instance).wrapping_add(1) << 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ActionId::with_depth(z, depth)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DefInner {
        #[cfg(test)]
        fn role_of_thread(&self, thread: ThreadId) -> Option<RoleId> {
            self.roles
                .iter()
                .position(|role| role.thread == thread)
                .map(|i| RoleId::new(u32::try_from(i).expect("role count bounded")))
        }
    }

    #[test]
    fn builder_validates_roles() {
        assert_eq!(
            ActionDef::builder("x").build().unwrap_err(),
            DefError::NoRoles
        );
        let err = ActionDef::builder("x")
            .role("a", ThreadId::new(0))
            .role("a", ThreadId::new(1))
            .build()
            .unwrap_err();
        assert_eq!(err, DefError::DuplicateRole("a".into()));
        let err = ActionDef::builder("x")
            .role("a", ThreadId::new(0))
            .role("b", ThreadId::new(0))
            .build()
            .unwrap_err();
        assert_eq!(err, DefError::DuplicateThread(ThreadId::new(0)));
        let err = ActionDef::builder("x")
            .role("a", ThreadId::new(0))
            .handler("ghost", "e", |_| Ok(HandlerVerdict::Recovered))
            .build()
            .unwrap_err();
        assert_eq!(err, DefError::UnknownRole("ghost".into()));
    }

    #[test]
    fn group_is_sorted_regardless_of_declaration_order() {
        let def = ActionDef::builder("x")
            .role("b", ThreadId::new(5))
            .role("a", ThreadId::new(2))
            .build()
            .unwrap();
        assert_eq!(def.group(), &[ThreadId::new(2), ThreadId::new(5)]);
        let declared: Vec<&str> = def.roles().map(Name::as_str).collect();
        assert_eq!(declared, ["b", "a"]);
    }

    #[test]
    fn default_graph_contains_only_universal() {
        let def = ActionDef::builder("x")
            .role("a", ThreadId::new(0))
            .build()
            .unwrap();
        assert_eq!(def.graph().len(), 1);
        assert!(def.graph().root().is_universal());
    }

    #[test]
    fn handler_lookup_precedence() {
        let def = ActionDef::builder("x")
            .role("a", ThreadId::new(0))
            .handler("a", "e1", |_| Ok(HandlerVerdict::Recovered))
            .fallback_handler("a", |_| Ok(HandlerVerdict::Fail))
            .build()
            .unwrap();
        let role = RoleId::new(0);
        assert!(def
            .inner
            .handler_for(role, ExceptionId::new("e1"))
            .is_some());
        // Unknown exception falls back to the role's fallback handler.
        assert!(def
            .inner
            .handler_for(role, ExceptionId::new("other"))
            .is_some());
        let bare = ActionDef::builder("y")
            .role("a", ThreadId::new(0))
            .build()
            .unwrap();
        assert!(bare
            .inner
            .handler_for(role, ExceptionId::new("other"))
            .is_none());
    }

    #[test]
    fn registrations_take_effect_in_order_wherever_the_role_is_declared() {
        // Handlers are told apart by identity: none runs here.
        let (first, second): (Handler, Handler) = (
            Rc::new(|_| Ok(HandlerVerdict::Recovered)),
            Rc::new(|_| Ok(HandlerVerdict::Fail)),
        );
        // Declared first: the later registration replaces the earlier.
        let def = ActionDef::builder("x")
            .role("a", ThreadId::new(0))
            .fallback_handler_shared("a", Rc::clone(&first))
            .fallback_handler_shared("a", Rc::clone(&second))
            .build()
            .unwrap();
        let registered = def.inner.roles[0].fallback.as_ref().unwrap();
        assert!(Rc::ptr_eq(registered, &second));
        // Registered before the role is declared, and once more after.
        let def = ActionDef::builder("x")
            .fallback_handler_shared("a", Rc::clone(&second))
            .abort_handler("a", |_| Ok(None))
            .role("b", ThreadId::new(1))
            .role("a", ThreadId::new(0))
            .fallback_handler_shared("a", Rc::clone(&first))
            .undo_hook("b", |_| Ok(true))
            .build()
            .unwrap();
        let a = &def.inner.roles[def.inner.role_id("a").unwrap().index()];
        assert!(Rc::ptr_eq(a.fallback.as_ref().unwrap(), &first));
        assert!(a.abort.is_some() && a.undo.is_none());
        let b = &def.inner.roles[def.inner.role_id("b").unwrap().index()];
        assert!(b.fallback.is_none() && b.abort.is_none() && b.undo.is_some());
        // One shared handler serves several roles.
        let def = ActionDef::builder("x")
            .role("a", ThreadId::new(0))
            .role("b", ThreadId::new(1))
            .fallback_handler_shared("a", Rc::clone(&first))
            .fallback_handler_shared("b", Rc::clone(&first))
            .build()
            .unwrap();
        assert!(def
            .inner
            .roles
            .iter()
            .all(|role| Rc::ptr_eq(role.fallback.as_ref().unwrap(), &first)));
        // A role that is never declared fails the build.
        let err = ActionDef::builder("x")
            .role("a", ThreadId::new(0))
            .abort_handler("ghost", |_| Ok(None))
            .build()
            .unwrap_err();
        assert_eq!(err, DefError::UnknownRole("ghost".into()));
    }

    #[test]
    fn default_verdicts() {
        assert_eq!(
            DefInner::default_verdict(ExceptionId::universal()),
            HandlerVerdict::Undo
        );
        assert_eq!(
            DefInner::default_verdict(ExceptionId::new("L_PLATE")),
            HandlerVerdict::Signal(ExceptionId::new("L_PLATE"))
        );
    }

    #[test]
    fn action_ids_are_deterministic_and_distinct() {
        let a = make_action_id(7, 0, 42, 3);
        let b = make_action_id(7, 0, 42, 3);
        assert_eq!(a, b, "same inputs must mint the same id on every thread");
        assert_eq!(a.depth(), 3);
        // Varying any component changes the id.
        assert_ne!(make_action_id(8, 0, 42, 3).serial(), a.serial());
        assert_ne!(make_action_id(7, 1, 42, 3).serial(), a.serial());
        assert_ne!(make_action_id(7, 0, 43, 3).serial(), a.serial());
        // A nested action under two different parent instances differs even
        // at the same local index.
        let p1 = make_action_id(1, 0, 0, 0);
        let p2 = make_action_id(1, 0, 1, 0);
        assert_ne!(
            make_action_id(2, p1.serial(), 0, 1),
            make_action_id(2, p2.serial(), 0, 1)
        );
    }

    #[test]
    fn def_ids_are_unique() {
        let a = ActionDef::builder("a")
            .role("r", ThreadId::new(0))
            .build()
            .unwrap();
        let b = ActionDef::builder("b")
            .role("r", ThreadId::new(0))
            .build()
            .unwrap();
        assert_ne!(a.def_id, b.def_id);
        // A reissue shares everything but the id; a clone shares the id too.
        let again = a.reissued();
        assert!(Rc::ptr_eq(&a.inner, &again.inner));
        assert_ne!(a.def_id, again.def_id);
        assert_eq!(a.def_id, a.clone().def_id);
    }

    #[test]
    fn role_queries() {
        let def = ActionDef::builder("x")
            .role("table", ThreadId::new(3))
            .role("robot", ThreadId::new(1))
            .build()
            .unwrap();
        let table = def.inner.role_id("table").unwrap();
        assert_eq!(def.inner.thread_of(table), ThreadId::new(3));
        assert_eq!(
            def.inner.role_of_thread(ThreadId::new(1)),
            def.inner.role_id("robot")
        );
        assert_eq!(def.inner.role_of_thread(ThreadId::new(9)), None);
        assert!(def.inner.role_id("ghost").is_none());
    }
}
