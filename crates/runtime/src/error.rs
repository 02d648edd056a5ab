//! Errors and the non-local control flow of role bodies.
//!
//! Rust has no asynchronous exceptions, so the paper's Ada 95 asynchronous
//! transfer of control (ATC) is replaced by a `Result`-based design: every
//! runtime operation a role performs returns [`Step`], and when coordinated
//! recovery must take over, the operation returns `Err(`[`Flow`]`)` which the
//! role body propagates with `?`. The action machinery catches the [`Flow`]
//! at the action boundary and runs the §3.3.2 protocol; role code never
//! inspects it.

use std::error::Error;
use std::fmt;

use caa_simnet::SimError;

/// A unit of fallible role progress. `Err` means control is being
/// transferred to the coordinated exception-handling machinery; propagate it
/// with `?`.
pub type Step<T = ()> = Result<T, Flow>;

/// Opaque token transferring control from a role body to the CA-action
/// runtime.
///
/// Role bodies obtain one from [`Ctx::raise`](crate::Ctx::raise) or from any
/// runtime operation interrupted by a concurrent exception, and must
/// propagate it with `?`. Constructing or swallowing a `Flow` outside the
/// runtime is not possible.
pub struct Flow {
    pub(crate) unwind: Unwind,
}

impl fmt::Debug for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Flow({:?})", self.unwind)
    }
}

impl Flow {
    pub(crate) fn new(unwind: Unwind) -> Self {
        Flow { unwind }
    }

    /// Whether this transfer of control is a simulated crash-stop.
    ///
    /// Fault-injection harnesses use this to tell an injected process death
    /// apart from ordinary recovery flow at a thread's top level: a crash
    /// `Flow` escaping the outermost action is the point at which a restart
    /// (and possibly an epoch-numbered rejoin via
    /// [`Ctx::rejoin`](crate::Ctx::rejoin)) may be simulated.
    #[must_use]
    pub fn is_crash(&self) -> bool {
        matches!(self.unwind, Unwind::Crash)
    }
}

/// Internal reason a role body is being unwound: fatal with a [`RuntimeError`].
pub(crate) type Unwind = caa_protocol::rounds::Unwind<RuntimeError>;

/// Unrecoverable failure of a participating thread.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The simulation can make no further progress (virtual mode only) —
    /// the condition Theorem 1 proves the protocols never create.
    Deadlock(String),
    /// A role was entered by a thread that is not bound to it.
    RoleMismatch {
        /// The action being entered.
        action: String,
        /// The role the thread tried to play.
        role: String,
    },
    /// An action was entered with a role name not declared in its
    /// definition.
    UnknownRole {
        /// The action being entered.
        action: String,
        /// The undeclared role name.
        role: String,
    },
    /// An operation that requires an active action was invoked outside any
    /// action (e.g. `raise` at a thread's top level).
    NoActiveAction(&'static str),
    /// [`Ctx::rejoin`](crate::Ctx::rejoin) was invoked inside an action: a
    /// restarted participant rejoins from its thread's top level, with an
    /// empty action stack.
    RejoinInAction,
    /// `raise` was invoked from within an exception handler; handlers must
    /// report failure through their verdict instead (termination model).
    RaiseInHandler,
    /// A protocol invariant was violated; indicates a bug in a
    /// [`ResolutionProtocol`](caa_protocol::ResolutionProtocol)
    /// implementation.
    Protocol(String),
    /// The participant crash-stopped via
    /// [`Ctx::crash_stop`](crate::Ctx::crash_stop) — an *injected* fault,
    /// not a runtime failure. Fault-injection harnesses treat this result
    /// as expected.
    Crashed,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Deadlock(info) => write!(f, "simulation deadlock: {info}"),
            RuntimeError::RoleMismatch { action, role } => {
                write!(f, "thread is not bound to role {role} of action {action}")
            }
            RuntimeError::UnknownRole { action, role } => {
                write!(f, "action {action} declares no role named {role}")
            }
            RuntimeError::NoActiveAction(op) => {
                write!(f, "{op} requires an active CA action")
            }
            RuntimeError::RejoinInAction => {
                f.write_str("rejoin requires an empty action stack (top-level restart)")
            }
            RuntimeError::RaiseInHandler => {
                f.write_str("handlers cannot raise; return a verdict instead")
            }
            RuntimeError::Protocol(msg) => write!(f, "protocol invariant violated: {msg}"),
            RuntimeError::Crashed => f.write_str("participant crash-stopped (injected fault)"),
        }
    }
}

impl Error for RuntimeError {}

impl From<SimError> for RuntimeError {
    fn from(err: SimError) -> Self {
        match err {
            SimError::Deadlock(info) => RuntimeError::Deadlock(info.to_string()),
            other => RuntimeError::Protocol(other.to_string()),
        }
    }
}

impl From<SimError> for Flow {
    fn from(err: SimError) -> Self {
        Flow::new(Unwind::Fatal(err.into()))
    }
}

impl From<RuntimeError> for Flow {
    fn from(err: RuntimeError) -> Self {
        Flow::new(Unwind::Fatal(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RuntimeError::RoleMismatch {
            action: "Unload_Table".into(),
            role: "robot".into(),
        };
        assert_eq!(
            e.to_string(),
            "thread is not bound to role robot of action Unload_Table"
        );
        assert!(RuntimeError::RaiseInHandler.to_string().contains("verdict"));
        assert!(RuntimeError::NoActiveAction("raise")
            .to_string()
            .contains("raise"));
    }

    #[test]
    fn error_trait_bounds() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<RuntimeError>();
    }

    #[test]
    fn flow_debug_is_nonempty() {
        let f = Flow::new(Unwind::Suspend);
        assert!(format!("{f:?}").contains("Suspend"));
    }
}
