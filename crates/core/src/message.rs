//! Protocol messages exchanged between participating threads.
//!
//! §3.3.1 defines the three messages of the resolution algorithm
//! (`Exception`, `Suspended`, `Commit`) and §3.4 adds `toBeSignalled` for the
//! signalling algorithm. The run-time additionally uses a synchronous-exit
//! vote (§5.1: "a simple protocol is also implemented for participating
//! threads to leave a CA action synchronously") and an opaque application
//! payload for the cooperating roles' own communication. Application-related
//! message passing "is treated independently" (§3.3.1), which the counters in
//! `caa-simnet` preserve by classifying messages by [`MessageKind`].

use std::any::Any;
use std::fmt;
use std::rc::Rc;

use crate::exception::{Exception, ExceptionId, Signal};
use crate::ids::{ActionId, ThreadId};

/// A shared, empty removed-thread set — the `view_removed` payload of
/// every crash-free [`Message::Commit`]. Cloning the returned `Rc` is
/// allocation-free, so the common case (no view changes) costs nothing
/// per recipient *or* per message. One set per thread: a run's messages
/// never leave the thread that runs it.
#[must_use]
pub fn no_removals() -> Rc<[ThreadId]> {
    thread_local! {
        static EMPTY: Rc<[ThreadId]> = Rc::from([]);
    }
    EMPTY.with(Rc::clone)
}

/// Round number of the signalling algorithm: the first exchange, or the
/// second exchange forced by a failed undo (§3.4, case 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SignalRound {
    /// First exchange of intended signals.
    First,
    /// Second exchange after every participant attempted its undo operations.
    AfterUndo,
}

impl fmt::Display for SignalRound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalRound::First => f.write_str("round-1"),
            SignalRound::AfterUndo => f.write_str("round-2"),
        }
    }
}

/// An opaque, in-process application payload exchanged between cooperating
/// roles of the same action.
///
/// The coordination protocols never inspect application payloads; they only
/// count them (the paper's complexity results exclude application traffic).
/// Payloads are `Any` because the whole system runs on one thread of one
/// process; a wire format would replace this with serialized bytes. A
/// payload of one of the common scalar types (a counter, an index, a flag)
/// is held inline; any other value is boxed.
pub struct AppPayload(Repr);

/// Declares [`Repr`]: one inline variant per listed scalar type, and the
/// box for everything else.
macro_rules! payload_repr {
    ($($variant:ident($scalar:ty)),* $(,)?) => {
        enum Repr {
            $($variant($scalar),)*
            Boxed(Box<dyn Any>),
        }

        impl Repr {
            fn new<T: Any>(value: T) -> Repr {
                // `Option<T>` behind `dyn Any` is how a generic value is
                // moved out as the concrete type it turns out to be.
                let mut value = Some(value);
                $(
                    let slot: &mut dyn Any = &mut value;
                    if let Some(scalar) = slot.downcast_mut::<Option<$scalar>>() {
                        return Repr::$variant(scalar.take().expect("wrapped above"));
                    }
                )*
                Repr::Boxed(Box::new(value.take().expect("no scalar type took it")))
            }

            fn as_any(&self) -> &dyn Any {
                match self {
                    $(Repr::$variant(scalar) => scalar,)*
                    Repr::Boxed(boxed) => &**boxed,
                }
            }

            fn downcast<T: Any>(self) -> Result<T, Repr> {
                match self {
                    $(Repr::$variant(scalar) => {
                        let mut scalar = Some(scalar);
                        let slot: &mut dyn Any = &mut scalar;
                        match slot.downcast_mut::<Option<T>>() {
                            Some(value) => Ok(value.take().expect("wrapped above")),
                            None => Err(Repr::$variant(scalar.expect("not taken"))),
                        }
                    })*
                    Repr::Boxed(boxed) => boxed.downcast::<T>().map(|b| *b).map_err(Repr::Boxed),
                }
            }
        }
    };
}

payload_repr!(
    U8(u8),
    U16(u16),
    U32(u32),
    U64(u64),
    Usize(usize),
    I32(i32),
    I64(i64),
    Bool(bool),
    F64(f64),
);

impl AppPayload {
    /// Wraps a value as an application payload.
    #[must_use]
    pub fn new<T: Any>(value: T) -> Self {
        AppPayload(Repr::new(value))
    }

    /// Recovers the payload by type, or returns `self` unchanged.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the payload is not a `T`, so the caller can
    /// try another type.
    pub fn downcast<T: Any>(self) -> Result<T, AppPayload> {
        self.0.downcast().map_err(AppPayload)
    }

    /// Borrows the payload by type, if it is a `T`.
    #[must_use]
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_any().downcast_ref::<T>()
    }
}

impl fmt::Debug for AppPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("AppPayload(..)")
    }
}

/// A message of the coordination protocols.
///
/// # Examples
///
/// ```
/// use caa_core::message::{Message, MessageKind};
/// use caa_core::ids::{ActionId, ThreadId};
/// use caa_core::exception::Exception;
///
/// let m = Message::Exception {
///     action: ActionId::top_level(1),
///     from: ThreadId::new(0),
///     exception: Exception::new("vm_stop"),
/// };
/// assert_eq!(m.kind(), MessageKind::Exception);
/// ```
#[derive(Debug)]
pub enum Message {
    /// `Exception(A, Ti, E)`: sent by thread `Ti` to all other threads of
    /// action `A` when exception `E` is raised by `Ti` (§3.3.1).
    Exception {
        /// The action in whose context the exception was raised.
        action: ActionId,
        /// The raising thread.
        from: ThreadId,
        /// The raised exception.
        exception: Exception,
    },
    /// `Suspended(A, Ti, S)`: sent by each thread that did not raise an
    /// exception but received `Exception` or `Suspended` messages (§3.3.1).
    Suspended {
        /// The action whose recovery suspends this thread.
        action: ActionId,
        /// The suspending thread.
        from: ThreadId,
    },
    /// `Commit(A, E)`: sent by the resolving thread to all other threads once
    /// it completes resolution; `E` is the resolving exception (§3.3.1).
    ///
    /// The crash-aware extension piggybacks the resolver's membership view
    /// on the commit: `view_epoch` and the *cumulative* `view_removed` set
    /// (both trivial — epoch 0, empty — for crash-free recoveries). A
    /// receiver that learns the resolving exception before a racing
    /// [`ViewChange`](Message::ViewChange) announcement reaches it still
    /// adopts the shrunken view, so its signalling and exit rounds do not
    /// wait on presumed-crashed peers.
    Commit {
        /// The action being recovered.
        action: ActionId,
        /// The thread that performed resolution.
        from: ThreadId,
        /// The resolving exception every participant must handle.
        resolved: ExceptionId,
        /// The resolver's membership epoch at commit time.
        view_epoch: u32,
        /// Every thread the resolver's view removed since epoch 0. Shared
        /// (`Rc`) so a commit broadcast to `N − 1` peers clones one
        /// reference per recipient instead of deep-copying the set; use
        /// [`no_removals`] for the crash-free (empty) case.
        view_removed: Rc<[ThreadId]>,
    },
    /// Auxiliary agreement message used by *baseline* resolution protocols
    /// (e.g. the propose/confirm rounds of Romanovsky et al. 1996). The
    /// paper's own algorithm never sends these; they exist so the
    /// comparative experiments of §5.3 run over the identical substrate.
    Resolve {
        /// The action being recovered.
        action: ActionId,
        /// The sending thread.
        from: ThreadId,
        /// Protocol-defined stage label (e.g. `"propose"`, `"confirm"`).
        stage: &'static str,
        /// The exception this stage is about.
        exception: ExceptionId,
    },
    /// `toBeSignalled(Ti, ε)`: sent by thread `Ti` to all participating
    /// threads when it intends to signal `ε` to the enclosing action (§3.4).
    ToBeSignalled {
        /// The nested action whose outcome is being coordinated.
        action: ActionId,
        /// The announcing thread.
        from: ThreadId,
        /// Which exchange this announcement belongs to.
        round: SignalRound,
        /// The intended signal (`φ`, `ε`, `µ` or `ƒ`).
        signal: Signal,
    },
    /// Membership view change of the crash-aware resolution extension: the
    /// sender's bounded resolution wait expired, it presumes the `removed`
    /// threads crashed, and it re-runs resolution over the shrunken view.
    /// Receivers apply the same removal (synthesizing the crash exception
    /// for each removed thread) so every survivor agrees on the membership
    /// `epoch` — and therefore on the resolving exception — before any
    /// handler starts.
    ViewChange {
        /// The action whose membership shrinks.
        action: ActionId,
        /// The thread announcing the view change.
        from: ThreadId,
        /// The new membership epoch (the initial full view is epoch 0).
        epoch: u32,
        /// The threads presumed crashed and removed by this view change.
        /// Shared (`Rc`) so the announcement broadcast clones a reference
        /// per survivor instead of deep-copying the set.
        removed: Rc<[ThreadId]>,
    },
    /// Epoch-numbered rejoin, step 1: a restarted participant asks the
    /// survivors of the action instance for the current membership view
    /// and a state summary so it can re-enter. The requester broadcasts to
    /// every other group member (it cannot know which survived) and acts
    /// on the first grant; duplicate grants are idempotent.
    JoinRequest {
        /// The action instance the restarted thread wants to re-enter.
        action: ActionId,
        /// The restarted (previously removed) thread.
        from: ThreadId,
    },
    /// Epoch-numbered rejoin, step 2: a survivor answers a
    /// [`JoinRequest`](Message::JoinRequest) directly to the requester.
    /// Every survivor that still holds the frame open receives the
    /// broadcast request and independently adopts the growth step —
    /// `thread` re-enters — so the group keeps agreeing on the live
    /// member *set* without a grant broadcast (epoch numbers are
    /// per-thread counters under set-based agreement); the rejoiner
    /// acts on the first grant it receives and drops the duplicates.
    JoinGrant {
        /// The action instance being rejoined.
        action: ActionId,
        /// The granting survivor.
        from: ThreadId,
        /// The re-admitted thread.
        thread: ThreadId,
        /// The granter's membership epoch *after* re-admitting `thread`.
        epoch: u32,
        /// State summary: the granter's cumulative removed set *after*
        /// re-admission (`thread` is no longer in it), so the rejoiner
        /// fast-forwards a fresh full view straight to the granter's
        /// post-grant view. Shared (`Rc`): the broadcast clones a
        /// reference per recipient.
        removed: Rc<[ThreadId]>,
        /// State summary: the frame's current exit epoch, so the rejoiner
        /// votes in the exit round the survivors are (or will be) in.
        exit_epoch: u32,
        /// State summary: the resolving exception the survivors committed
        /// to, when recovery already resolved (`None` for a crash during
        /// normal computation or unresolved recovery).
        resolved: Option<ExceptionId>,
    },
    /// Vote of the synchronous exit protocol (§5.1): a participant is ready
    /// to leave the action; all must be ready before any leaves.
    ExitVote {
        /// The action being left.
        action: ActionId,
        /// The voting thread.
        from: ThreadId,
        /// Exit epoch: distinguishes the normal-completion vote from a
        /// post-recovery vote when both occur in one action instance.
        epoch: u32,
    },
    /// Application-level communication between cooperating roles.
    App {
        /// The action inside which the roles cooperate.
        action: ActionId,
        /// The sending thread.
        from: ThreadId,
        /// An application-chosen tag for dispatching.
        tag: &'static str,
        /// The payload; opaque to the runtime.
        payload: AppPayload,
    },
}

impl Message {
    /// The classification of this message, used by the per-kind counters
    /// that verify the paper's message-complexity claims.
    #[must_use]
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Exception { .. } => MessageKind::Exception,
            Message::Suspended { .. } => MessageKind::Suspended,
            Message::Commit { .. } => MessageKind::Commit,
            Message::Resolve { .. } => MessageKind::Resolve,
            Message::ViewChange { .. } => MessageKind::ViewChange,
            Message::JoinRequest { .. } => MessageKind::JoinRequest,
            Message::JoinGrant { .. } => MessageKind::JoinGrant,
            Message::ToBeSignalled { .. } => MessageKind::ToBeSignalled,
            Message::ExitVote { .. } => MessageKind::ExitVote,
            Message::App { .. } => MessageKind::App,
        }
    }

    /// The action instance this message concerns.
    #[must_use]
    pub fn action(&self) -> ActionId {
        match self {
            Message::Exception { action, .. }
            | Message::Suspended { action, .. }
            | Message::Commit { action, .. }
            | Message::Resolve { action, .. }
            | Message::ViewChange { action, .. }
            | Message::JoinRequest { action, .. }
            | Message::JoinGrant { action, .. }
            | Message::ToBeSignalled { action, .. }
            | Message::ExitVote { action, .. }
            | Message::App { action, .. } => *action,
        }
    }

    /// The sending thread.
    #[must_use]
    pub fn from(&self) -> ThreadId {
        match self {
            Message::Exception { from, .. }
            | Message::Suspended { from, .. }
            | Message::Commit { from, .. }
            | Message::Resolve { from, .. }
            | Message::ViewChange { from, .. }
            | Message::JoinRequest { from, .. }
            | Message::JoinGrant { from, .. }
            | Message::ToBeSignalled { from, .. }
            | Message::ExitVote { from, .. }
            | Message::App { from, .. } => *from,
        }
    }

    /// Whether this is a control-plane message of the coordination
    /// protocols (everything except application payloads).
    #[must_use]
    pub fn is_control(&self) -> bool {
        !matches!(self, Message::App { .. })
    }
}

/// Classification of protocol messages for statistics (§3.3.3, §3.4 count
/// messages per kind; application traffic is excluded from those counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Resolution algorithm: a raised exception is broadcast.
    Exception,
    /// Resolution algorithm: a thread announces it has suspended.
    Suspended,
    /// Resolution algorithm: the resolver announces the resolving exception.
    Commit,
    /// Baseline resolution protocols: auxiliary agreement stages.
    Resolve,
    /// Membership: a bounded resolution wait expired and the sender removed
    /// the presumed-crashed threads from its view.
    ViewChange,
    /// Membership: a restarted participant asks a survivor for the view
    /// and a state summary (epoch-numbered rejoin, step 1).
    JoinRequest,
    /// Membership: a survivor re-admits a restarted participant at the
    /// next epoch (epoch-numbered rejoin, step 2).
    JoinGrant,
    /// Signalling algorithm: an intended signal is broadcast.
    ToBeSignalled,
    /// Synchronous exit protocol vote.
    ExitVote,
    /// Application traffic between cooperating roles.
    App,
}

impl MessageKind {
    /// All message kinds, in a stable order (useful for reports).
    pub const ALL: [MessageKind; 10] = [
        MessageKind::Exception,
        MessageKind::Suspended,
        MessageKind::Commit,
        MessageKind::Resolve,
        MessageKind::ViewChange,
        MessageKind::JoinRequest,
        MessageKind::JoinGrant,
        MessageKind::ToBeSignalled,
        MessageKind::ExitVote,
        MessageKind::App,
    ];

    /// Whether messages of this kind count toward the resolution-algorithm
    /// complexity results of §3.3.3. `ViewChange`, `JoinRequest` and
    /// `JoinGrant` are excluded: the §3.3.3 bounds assume crash-free
    /// resolution, and the membership messages only occur on the
    /// presumed-crash / rejoin paths.
    #[must_use]
    pub fn counts_for_resolution(self) -> bool {
        matches!(
            self,
            MessageKind::Exception
                | MessageKind::Suspended
                | MessageKind::Commit
                | MessageKind::Resolve
        )
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MessageKind::Exception => "Exception",
            MessageKind::Suspended => "Suspended",
            MessageKind::Commit => "Commit",
            MessageKind::Resolve => "Resolve",
            MessageKind::ViewChange => "ViewChange",
            MessageKind::JoinRequest => "JoinRequest",
            MessageKind::JoinGrant => "JoinGrant",
            MessageKind::ToBeSignalled => "toBeSignalled",
            MessageKind::ExitVote => "ExitVote",
            MessageKind::App => "App",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_action() -> ActionId {
        ActionId::top_level(42)
    }

    #[test]
    fn kinds_are_classified() {
        let a = sample_action();
        let t = ThreadId::new(1);
        let msgs = vec![
            Message::Exception {
                action: a,
                from: t,
                exception: Exception::new("e1"),
            },
            Message::Suspended { action: a, from: t },
            Message::Commit {
                action: a,
                from: t,
                resolved: ExceptionId::new("e1"),
                view_epoch: 0,
                view_removed: no_removals(),
            },
            Message::Resolve {
                action: a,
                from: t,
                stage: "propose",
                exception: ExceptionId::new("e1"),
            },
            Message::ViewChange {
                action: a,
                from: t,
                epoch: 1,
                removed: Rc::from(vec![ThreadId::new(2)]),
            },
            Message::JoinRequest { action: a, from: t },
            Message::JoinGrant {
                action: a,
                from: t,
                thread: ThreadId::new(2),
                epoch: 2,
                removed: Rc::from(vec![ThreadId::new(2)]),
                exit_epoch: 1,
                resolved: Some(ExceptionId::new("e1")),
            },
            Message::ToBeSignalled {
                action: a,
                from: t,
                round: SignalRound::First,
                signal: Signal::None,
            },
            Message::ExitVote {
                action: a,
                from: t,
                epoch: 0,
            },
            Message::App {
                action: a,
                from: t,
                tag: "position",
                payload: AppPayload::new(7u32),
            },
        ];
        let kinds: Vec<MessageKind> = msgs.iter().map(Message::kind).collect();
        assert_eq!(kinds, MessageKind::ALL.to_vec());
        for m in &msgs {
            assert_eq!(m.action(), a);
            assert_eq!(m.from(), t);
        }
    }

    #[test]
    fn control_vs_app() {
        let a = sample_action();
        let control = Message::Suspended {
            action: a,
            from: ThreadId::new(0),
        };
        let app = Message::App {
            action: a,
            from: ThreadId::new(0),
            tag: "x",
            payload: AppPayload::new((1, 2)),
        };
        assert!(control.is_control());
        assert!(!app.is_control());
    }

    #[test]
    fn resolution_counting_kinds() {
        assert!(MessageKind::Exception.counts_for_resolution());
        assert!(MessageKind::Suspended.counts_for_resolution());
        assert!(MessageKind::Commit.counts_for_resolution());
        assert!(MessageKind::Resolve.counts_for_resolution());
        assert!(!MessageKind::ViewChange.counts_for_resolution());
        assert!(!MessageKind::JoinRequest.counts_for_resolution());
        assert!(!MessageKind::JoinGrant.counts_for_resolution());
        assert!(!MessageKind::ToBeSignalled.counts_for_resolution());
        assert!(!MessageKind::ExitVote.counts_for_resolution());
        assert!(!MessageKind::App.counts_for_resolution());
    }

    #[test]
    fn app_payload_downcast() {
        let p = AppPayload::new(String::from("blank#3"));
        assert!(p.downcast_ref::<String>().is_some());
        let p = p.downcast::<u32>().unwrap_err();
        assert_eq!(p.downcast::<String>().unwrap(), "blank#3");
    }

    #[test]
    fn a_scalar_payload_answers_like_a_boxed_one() {
        // Held inline, told apart by type exactly as a box would be.
        let p = AppPayload::new(7u64);
        assert_eq!(p.downcast_ref::<u64>(), Some(&7));
        assert!(p.downcast_ref::<u32>().is_none());
        let p = p.downcast::<i64>().unwrap_err();
        let p = p.downcast::<usize>().unwrap_err();
        assert_eq!(p.downcast::<u64>().unwrap(), 7);
        assert!(AppPayload::new(true).downcast::<bool>().unwrap());
        assert_eq!(AppPayload::new(2.5f64).downcast::<f64>().unwrap(), 2.5);
        assert_eq!(AppPayload::new(3u8).downcast::<u8>().unwrap(), 3);
        // Not a listed scalar: boxed, same contract.
        assert_eq!(AppPayload::new(9i8).downcast::<i8>().unwrap(), 9);
        assert_eq!(
            AppPayload::new((1u64, 2u64)).downcast_ref::<(u64, u64)>(),
            Some(&(1, 2))
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(MessageKind::ToBeSignalled.to_string(), "toBeSignalled");
        assert_eq!(SignalRound::First.to_string(), "round-1");
        assert_eq!(SignalRound::AfterUndo.to_string(), "round-2");
    }
}
