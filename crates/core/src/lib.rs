//! Core model types for **coordinated exception handling in distributed
//! object systems** — a reproduction of Xu, Romanovsky & Randell
//! (ICDCS 1998).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`ids`] — ordered thread identifiers, action instances, roles,
//!   partitions;
//! * [`exception`] — exception identities, the pre-defined exceptions `µ`
//!   (undo), `ƒ` (failure), universal and abortion, and the [`Signal`]s of
//!   the signalling algorithm;
//! * [`name`] — interned names: `Copy` handles, one copy of each text per
//!   process, compared by pointer;
//! * [`inline`] — small-vector storage keeping the protocols' tiny live
//!   sets off the heap on the execute hot path;
//! * [`state`] — the N/X/S participant states of the resolution algorithm;
//! * [`membership`] — per-action-instance membership views (epoch + live
//!   member set) for the crash-aware resolution extension;
//! * [`message`] — the protocol messages (`Exception`, `Suspended`,
//!   `Commit`, `ViewChange`, `toBeSignalled`, exit votes, application
//!   payloads);
//! * [`outcome`] — action outcomes and handler verdicts under the
//!   termination model;
//! * [`time`] — virtual-time instants and durations used by the simulated
//!   network and the experiment harness.
//!
//! The crate is deliberately free of concurrency and I/O so that the
//! protocol crates (`caa-exgraph`, `caa-simnet`, `caa-runtime`) can be
//! tested against pure data.
//!
//! # Determinism
//!
//! Nothing here reads a clock or a random source: time is the explicit
//! [`time::VirtualInstant`]/[`time::VirtualDuration`] pair, and every id
//! is caller-assigned. This is the foundation of the workspace-wide
//! byte-exact replay guarantee — all nondeterminism upstream must enter
//! through a seed.
//!
//! # Examples
//!
//! ```
//! use caa_core::exception::{Exception, ExceptionId};
//! use caa_core::ids::ThreadId;
//! use caa_core::state::ParticipantState;
//!
//! // A thread raises an exception and moves to the exceptional state.
//! let raised = Exception::new("vm_stop").with_origin(ThreadId::new(1));
//! let state = ParticipantState::Exceptional;
//! assert!(state.is_halted());
//! assert_eq!(raised.id(), &ExceptionId::new("vm_stop"));
//! ```
//!
//! [`Signal`]: exception::Signal

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod exception;
pub mod ids;
pub mod inline;
pub mod membership;
pub mod message;
pub mod name;
pub mod outcome;
pub mod state;
pub mod time;

pub use exception::{Exception, ExceptionId, Signal};
pub use ids::{ActionId, PartitionId, RoleId, ThreadId};
pub use inline::InlineVec;
pub use membership::{MembershipView, ViewChangeOutcome};
pub use message::{AppPayload, Message, MessageKind, SignalRound};
pub use name::Name;
pub use outcome::{ActionOutcome, HandlerVerdict};
pub use state::ParticipantState;
pub use time::{millis, secs, VirtualDuration, VirtualInstant};
