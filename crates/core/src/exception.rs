//! Exceptions of the CA-action model (§3.1).
//!
//! For a given CA action two sets of exceptions exist: the *internal*
//! exceptions `e = {e1, e2, …}` declared with the action and handled by its
//! roles, and the *interface* exceptions `ε = {ε1, ε2, …}` that can be
//! signalled to the enclosing action. Two interface exceptions are
//! pre-defined: the **undo** exception `µ` (the action aborted and all of its
//! effects were undone) and the **failure** exception `ƒ` (the action aborted
//! but its effects may not have been undone completely). Every exception
//! graph is rooted at the **universal** exception, raised when concurrently
//! raised exceptions cannot be resolved to anything more specific.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::ids::ThreadId;
use crate::name::Name;

/// Reserved name of the undo exception `µ`.
pub const UNDO_NAME: &str = "__undo";
/// Reserved name of the failure exception `ƒ`.
pub const FAILURE_NAME: &str = "__failure";
/// Reserved name of the universal exception (root of every exception graph).
pub const UNIVERSAL_NAME: &str = "__universal";
/// Reserved name of the abortion exception raised inside a nested action when
/// its enclosing action aborts it (§3.3.1).
pub const ABORTION_NAME: &str = "__abortion";
/// Reserved name of the crash exception synthesized on behalf of a
/// presumed-crashed participant when a bounded resolution wait expires (the
/// membership extension's presume-ƒ rule: a participant crash is "just
/// another exception" to be resolved concurrently).
pub const CRASH_NAME: &str = "__crash";

/// The pre-defined exceptions' names, in the order of [`SYMBOLS`]. The
/// interning table starts out holding these very slots, so a pre-defined
/// id is a pointer to one of them, made without a lookup — and equals the
/// id of its name made any other way.
pub(crate) static RESERVED: [&str; 5] = [
    UNDO_NAME,
    FAILURE_NAME,
    UNIVERSAL_NAME,
    ABORTION_NAME,
    CRASH_NAME,
];

/// The paper's symbols for the pre-defined exceptions, parallel to
/// [`RESERVED`].
const SYMBOLS: [&str; 5] = ["µ", "ƒ", "universal", "abortion", "crash"];

/// Indices into [`RESERVED`] and [`SYMBOLS`].
const UNDO: usize = 0;
const FAILURE: usize = 1;
const UNIVERSAL: usize = 2;
const ABORTION: usize = 3;
const CRASH: usize = 4;

/// An exception's identity: its name, interned.
///
/// Exception identity is by name, matching the paper's model where "the types
/// common to all participating threads … [include] names of all the
/// exceptions" (§5.1). An id is a [`Name`]: `Copy`, compared by pointer,
/// ordered and hashed by its text — so the `Ord` implementation
/// (lexicographic) gives protocols a deterministic tie-break.
///
/// # Examples
///
/// ```
/// use caa_core::exception::ExceptionId;
///
/// let vm_stop = ExceptionId::new("vm_stop");
/// assert_eq!(vm_stop.name(), "vm_stop");
/// assert!(!vm_stop.is_special());
/// assert!(ExceptionId::undo().is_undo());
/// assert_eq!(ExceptionId::new("__undo"), ExceptionId::undo());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExceptionId(Name);

impl ExceptionId {
    /// Creates an exception id with the given name.
    ///
    /// Names starting with `__` are reserved for the pre-defined exceptions;
    /// use the dedicated constructors ([`ExceptionId::undo`] etc.) for those.
    #[must_use]
    pub fn new(name: impl Into<Name>) -> Self {
        ExceptionId(name.into())
    }

    fn reserved(which: usize) -> Self {
        ExceptionId(Name::reserved(&RESERVED[which]))
    }

    /// Which pre-defined exception this is, if any.
    fn which_reserved(self) -> Option<usize> {
        RESERVED
            .iter()
            .position(|reserved| self.0 == Name::reserved(reserved))
    }

    /// The undo exception `µ`.
    #[must_use]
    pub fn undo() -> Self {
        ExceptionId::reserved(UNDO)
    }

    /// The failure exception `ƒ`.
    #[must_use]
    pub fn failure() -> Self {
        ExceptionId::reserved(FAILURE)
    }

    /// The universal exception, root of every exception graph (§3.2).
    #[must_use]
    pub fn universal() -> Self {
        ExceptionId::reserved(UNIVERSAL)
    }

    /// The abortion exception used to abort a nested action (§3.3.1).
    #[must_use]
    pub fn abortion() -> Self {
        ExceptionId::reserved(ABORTION)
    }

    /// The crash exception synthesized for a presumed-crashed participant
    /// by the membership extension's bounded resolution wait. Exception
    /// graphs that do not declare it resolve it through the universal root.
    #[must_use]
    pub fn crash() -> Self {
        ExceptionId::reserved(CRASH)
    }

    /// The exception's name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.0.as_str()
    }

    /// Whether this is the undo exception `µ`.
    #[must_use]
    pub fn is_undo(&self) -> bool {
        *self == ExceptionId::undo()
    }

    /// Whether this is the failure exception `ƒ`.
    #[must_use]
    pub fn is_failure(&self) -> bool {
        *self == ExceptionId::failure()
    }

    /// Whether this is the universal exception.
    #[must_use]
    pub fn is_universal(&self) -> bool {
        *self == ExceptionId::universal()
    }

    /// Whether this is the abortion exception.
    #[must_use]
    pub fn is_abortion(&self) -> bool {
        *self == ExceptionId::abortion()
    }

    /// Whether this is the synthesized crash exception.
    #[must_use]
    pub fn is_crash(&self) -> bool {
        *self == ExceptionId::crash()
    }

    /// The paper's symbol for a pre-defined exception (`µ`, `ƒ`,
    /// `universal`, `abortion`, `crash`); `None` for any other.
    #[must_use]
    pub fn symbol(&self) -> Option<&'static str> {
        self.which_reserved().map(|which| SYMBOLS[which])
    }

    /// The text [`Display`](fmt::Display) writes: the [symbol] of a
    /// pre-defined exception, the name itself otherwise. `'static`, so
    /// renderers that write bytes rather than going through a formatter —
    /// and span names — can use it directly.
    ///
    /// [symbol]: ExceptionId::symbol
    #[must_use]
    pub fn display_name(&self) -> &'static str {
        self.symbol().unwrap_or(self.name())
    }

    /// Whether this is one of the pre-defined exceptions (µ, ƒ, universal,
    /// abortion or crash).
    #[must_use]
    pub fn is_special(&self) -> bool {
        self.which_reserved().is_some()
    }
}

impl fmt::Display for ExceptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

impl From<&str> for ExceptionId {
    fn from(name: &str) -> Self {
        ExceptionId::new(name)
    }
}

impl From<String> for ExceptionId {
    fn from(name: String) -> Self {
        ExceptionId::new(name)
    }
}

impl Borrow<str> for ExceptionId {
    fn borrow(&self) -> &str {
        self.name()
    }
}

impl AsRef<str> for ExceptionId {
    fn as_ref(&self) -> &str {
        self.name()
    }
}

/// A raised exception: an [`ExceptionId`] plus diagnostic context.
///
/// The coordination protocols operate on the id alone; the origin and detail
/// travel with it so handlers and logs can explain *why* recovery started.
///
/// # Examples
///
/// ```
/// use caa_core::exception::Exception;
/// use caa_core::ids::ThreadId;
///
/// let e = Exception::new("vm_stop")
///     .with_origin(ThreadId::new(1))
///     .with_detail("vertical motor stalled at 80%");
/// assert_eq!(e.id().name(), "vm_stop");
/// assert_eq!(e.origin(), Some(ThreadId::new(1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Exception {
    id: ExceptionId,
    origin: Option<ThreadId>,
    /// Free text, so not a [`Name`] (the interning table only grows):
    /// shared, so cloning an exception — which the resolution algorithm
    /// does once per broadcast recipient — never copies it.
    detail: Option<Arc<str>>,
}

impl Exception {
    /// Creates an exception with the given id and no context.
    #[must_use]
    pub fn new(id: impl Into<ExceptionId>) -> Self {
        Exception {
            id: id.into(),
            origin: None,
            detail: None,
        }
    }

    /// Records which thread raised this exception.
    #[must_use]
    pub fn with_origin(mut self, origin: ThreadId) -> Self {
        self.origin = Some(origin);
        self
    }

    /// Attaches a human-readable explanation.
    #[must_use]
    pub fn with_detail(mut self, detail: impl AsRef<str>) -> Self {
        self.detail = Some(Arc::from(detail.as_ref()));
        self
    }

    /// The exception's identity.
    #[must_use]
    pub fn id(&self) -> &ExceptionId {
        &self.id
    }

    /// The thread that raised this exception, if recorded.
    #[must_use]
    pub fn origin(&self) -> Option<ThreadId> {
        self.origin
    }

    /// The attached explanation, if any.
    #[must_use]
    pub fn detail(&self) -> Option<&str> {
        self.detail.as_deref()
    }
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)?;
        if let Some(origin) = self.origin {
            write!(f, " (raised by {origin})")?;
        }
        if let Some(detail) = &self.detail {
            write!(f, ": {detail}")?;
        }
        Ok(())
    }
}

impl From<ExceptionId> for Exception {
    fn from(id: ExceptionId) -> Self {
        Exception::new(id)
    }
}

/// What one participant intends to signal to the enclosing action after
/// exception handling (§3.4): `ε ∈ {φ, ε1, ε2, …, µ, ƒ}`.
///
/// # Examples
///
/// ```
/// use caa_core::exception::{ExceptionId, Signal};
///
/// let s = Signal::Exception(ExceptionId::new("L_PLATE"));
/// assert!(!s.is_none());
/// assert_eq!(Signal::Undo, Signal::from(ExceptionId::undo()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Signal {
    /// `φ`: the participant has nothing to signal; the action completed
    /// successfully from its point of view.
    None,
    /// An ordinary interface exception `ε`.
    Exception(ExceptionId),
    /// The undo exception `µ`: all effects of the action must be undone.
    Undo,
    /// The failure exception `ƒ`: the action aborted and its effects may not
    /// have been undone completely.
    Failure,
}

impl Signal {
    /// Whether this is `φ` (nothing to signal).
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, Signal::None)
    }

    /// Whether this signal forces coordination (µ or ƒ, §3.4).
    #[must_use]
    pub fn needs_coordination(&self) -> bool {
        matches!(self, Signal::Undo | Signal::Failure)
    }

    /// The exception id this signal delivers to the enclosing action, if any.
    #[must_use]
    pub fn exception_id(&self) -> Option<ExceptionId> {
        match self {
            Signal::None => None,
            Signal::Exception(id) => Some(*id),
            Signal::Undo => Some(ExceptionId::undo()),
            Signal::Failure => Some(ExceptionId::failure()),
        }
    }
}

impl From<ExceptionId> for Signal {
    fn from(id: ExceptionId) -> Self {
        if id.is_undo() {
            Signal::Undo
        } else if id.is_failure() {
            Signal::Failure
        } else {
            Signal::Exception(id)
        }
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Signal::None => f.write_str("φ"),
            Signal::Exception(id) => write!(f, "{id}"),
            Signal::Undo => f.write_str("µ"),
            Signal::Failure => f.write_str("ƒ"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_exceptions_are_recognised() {
        assert!(ExceptionId::undo().is_undo());
        assert!(ExceptionId::failure().is_failure());
        assert!(ExceptionId::universal().is_universal());
        assert!(ExceptionId::abortion().is_abortion());
        for special in [
            ExceptionId::undo(),
            ExceptionId::failure(),
            ExceptionId::universal(),
            ExceptionId::abortion(),
        ] {
            assert!(special.is_special(), "{special} should be special");
        }
        assert!(!ExceptionId::new("vm_stop").is_special());
    }

    #[test]
    fn ids_compare_by_name() {
        let a = ExceptionId::new("a");
        let b = ExceptionId::new("b");
        assert!(a < b);
        assert_eq!(a, ExceptionId::new("a"));
    }

    #[test]
    fn display_uses_greek_letters_for_specials() {
        assert_eq!(ExceptionId::undo().to_string(), "µ");
        assert_eq!(ExceptionId::failure().to_string(), "ƒ");
        assert_eq!(ExceptionId::new("s_stuck").to_string(), "s_stuck");
    }

    #[test]
    fn exception_carries_context() {
        let e = Exception::new("l_plate")
            .with_origin(ThreadId::new(3))
            .with_detail("plate lost between table and press");
        assert_eq!(e.id(), &ExceptionId::new("l_plate"));
        assert_eq!(e.origin(), Some(ThreadId::new(3)));
        assert_eq!(e.detail(), Some("plate lost between table and press"));
        let displayed = e.to_string();
        assert!(displayed.contains("l_plate"));
        assert!(displayed.contains("T3"));
    }

    #[test]
    fn signal_from_exception_id_maps_specials() {
        assert_eq!(Signal::from(ExceptionId::undo()), Signal::Undo);
        assert_eq!(Signal::from(ExceptionId::failure()), Signal::Failure);
        assert_eq!(
            Signal::from(ExceptionId::new("T_SENSOR")),
            Signal::Exception(ExceptionId::new("T_SENSOR"))
        );
    }

    #[test]
    fn signal_exception_ids() {
        assert_eq!(Signal::None.exception_id(), None);
        assert_eq!(Signal::Undo.exception_id(), Some(ExceptionId::undo()));
        assert_eq!(Signal::Failure.exception_id(), Some(ExceptionId::failure()));
        assert!(Signal::None.is_none());
        assert!(Signal::Undo.needs_coordination());
        assert!(Signal::Failure.needs_coordination());
        assert!(!Signal::Exception(ExceptionId::new("x")).needs_coordination());
    }

    #[test]
    fn id_borrows_as_str() {
        use std::collections::HashSet;
        let mut set: HashSet<ExceptionId> = HashSet::new();
        set.insert(ExceptionId::new("rm_stop"));
        // Borrow<str> lets us query by &str without allocating.
        assert!(set.contains("rm_stop"));
        assert_eq!(ExceptionId::new("rm_stop").as_ref(), "rm_stop");
    }
}
