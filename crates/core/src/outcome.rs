//! Outcomes of actions and handler verdicts (§3.1 control flow).
//!
//! The termination model applies: "in any exceptional situations, handlers
//! take over the duties of participating threads in a CA action and complete
//! the action either successfully or by signalling an exception ε to the
//! enclosing action".

use std::fmt;

use crate::exception::{ExceptionId, Signal};

/// How one participant's involvement in a CA action concluded.
///
/// # Examples
///
/// ```
/// use caa_core::outcome::ActionOutcome;
/// use caa_core::exception::ExceptionId;
///
/// let ok = ActionOutcome::Success;
/// assert!(ok.is_success());
/// let sig = ActionOutcome::Signalled(ExceptionId::new("L_PLATE"));
/// assert_eq!(sig.signalled(), Some(&ExceptionId::new("L_PLATE")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ActionOutcome {
    /// The action completed successfully — either no exception occurred, or
    /// forward error recovery repaired the state and the action "exit\[ed\]
    /// with a successful outcome" (Figure 1).
    Success,
    /// The action signalled interface exception `ε` to the enclosing action.
    Signalled(ExceptionId),
    /// The action aborted and **all** of its effects were undone (`µ`).
    Undone,
    /// The action aborted but its effects may not have been undone
    /// completely (`ƒ`). The enclosing action is responsible for handling
    /// the remaining errors.
    Failed,
}

impl ActionOutcome {
    /// Whether the action completed successfully.
    #[must_use]
    pub fn is_success(&self) -> bool {
        matches!(self, ActionOutcome::Success)
    }

    /// The signalled interface exception, if any.
    ///
    /// `Undone` and `Failed` report the pre-defined exceptions µ and ƒ via
    /// [`ActionOutcome::exception_id`]; this accessor returns only ordinary
    /// interface exceptions.
    #[must_use]
    pub fn signalled(&self) -> Option<&ExceptionId> {
        match self {
            ActionOutcome::Signalled(id) => Some(id),
            _ => None,
        }
    }

    /// The exception delivered to the enclosing context, if any (including
    /// µ for `Undone` and ƒ for `Failed`).
    #[must_use]
    pub fn exception_id(&self) -> Option<ExceptionId> {
        match self {
            ActionOutcome::Success => None,
            ActionOutcome::Signalled(id) => Some(*id),
            ActionOutcome::Undone => Some(ExceptionId::undo()),
            ActionOutcome::Failed => Some(ExceptionId::failure()),
        }
    }
}

impl fmt::Display for ActionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ActionOutcome::Success => f.write_str("success"),
            ActionOutcome::Signalled(id) => write!(f, "signalled {id}"),
            ActionOutcome::Undone => f.write_str("undone (µ)"),
            ActionOutcome::Failed => f.write_str("failed (ƒ)"),
        }
    }
}

impl From<Signal> for ActionOutcome {
    /// The outcome a participant reports after signalling (φ means the
    /// handler recovered and the action succeeded for this participant).
    fn from(signal: Signal) -> Self {
        match signal {
            Signal::None => ActionOutcome::Success,
            Signal::Exception(id) => ActionOutcome::Signalled(id),
            Signal::Undo => ActionOutcome::Undone,
            Signal::Failure => ActionOutcome::Failed,
        }
    }
}

/// What an exception handler decides after attempting recovery.
///
/// A handler "take\[s\] over the duties" of its thread and must either
/// complete the action or escalate. The verdict feeds the signalling
/// algorithm of §3.4.
///
/// # Examples
///
/// ```
/// use caa_core::outcome::HandlerVerdict;
/// use caa_core::exception::{ExceptionId, Signal};
///
/// assert_eq!(HandlerVerdict::Recovered.to_signal(), Signal::None);
/// assert_eq!(
///     HandlerVerdict::Signal(ExceptionId::new("NCS_FAIL")).to_signal(),
///     Signal::Exception(ExceptionId::new("NCS_FAIL")),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HandlerVerdict {
    /// Forward recovery succeeded; the action can complete normally.
    Recovered,
    /// Recovery was only partially successful; signal `ε` to the enclosing
    /// action.
    Signal(ExceptionId),
    /// Request abortion with undo: every participant must undo the action's
    /// effects and signal `µ`.
    Undo,
    /// Recovery failed and undo is not possible: every participant must
    /// signal `ƒ`.
    Fail,
}

impl HandlerVerdict {
    /// The signal this verdict contributes to the signalling algorithm.
    #[must_use]
    pub fn to_signal(&self) -> Signal {
        match self {
            HandlerVerdict::Recovered => Signal::None,
            HandlerVerdict::Signal(id) => Signal::from(*id),
            HandlerVerdict::Undo => Signal::Undo,
            HandlerVerdict::Fail => Signal::Failure,
        }
    }
}

impl fmt::Display for HandlerVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandlerVerdict::Recovered => f.write_str("recovered"),
            HandlerVerdict::Signal(id) => write!(f, "signal {id}"),
            HandlerVerdict::Undo => f.write_str("undo (µ)"),
            HandlerVerdict::Fail => f.write_str("fail (ƒ)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_accessors() {
        assert!(ActionOutcome::Success.is_success());
        assert_eq!(ActionOutcome::Success.exception_id(), None);
        assert_eq!(
            ActionOutcome::Undone.exception_id(),
            Some(ExceptionId::undo())
        );
        assert_eq!(
            ActionOutcome::Failed.exception_id(),
            Some(ExceptionId::failure())
        );
        let sig = ActionOutcome::Signalled(ExceptionId::new("x"));
        assert_eq!(sig.signalled(), Some(&ExceptionId::new("x")));
        assert_eq!(ActionOutcome::Undone.signalled(), None);
    }

    #[test]
    fn outcome_from_signal() {
        assert_eq!(ActionOutcome::from(Signal::None), ActionOutcome::Success);
        assert_eq!(ActionOutcome::from(Signal::Undo), ActionOutcome::Undone);
        assert_eq!(ActionOutcome::from(Signal::Failure), ActionOutcome::Failed);
        assert_eq!(
            ActionOutcome::from(Signal::Exception(ExceptionId::new("e"))),
            ActionOutcome::Signalled(ExceptionId::new("e"))
        );
    }

    #[test]
    fn verdict_to_signal() {
        assert_eq!(HandlerVerdict::Recovered.to_signal(), Signal::None);
        assert_eq!(HandlerVerdict::Undo.to_signal(), Signal::Undo);
        assert_eq!(HandlerVerdict::Fail.to_signal(), Signal::Failure);
        // Signalling µ/ƒ through the generic Signal variant maps to the
        // dedicated coordination-forcing variants.
        assert_eq!(
            HandlerVerdict::Signal(ExceptionId::undo()).to_signal(),
            Signal::Undo
        );
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(ActionOutcome::Undone.to_string(), "undone (µ)");
        assert_eq!(HandlerVerdict::Fail.to_string(), "fail (ƒ)");
        assert_eq!(
            ActionOutcome::Signalled(ExceptionId::new("L_PLATE")).to_string(),
            "signalled L_PLATE"
        );
    }
}
