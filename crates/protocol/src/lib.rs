//! The recovery protocol of coordinated atomic actions — Xu, Romanovsky &
//! Randell (ICDCS 1998), §3.3–3.4 — as a library with no I/O.
//!
//! What a participant *decides* lives here, and nothing else: the
//! resolution algorithm of §3.3.2 behind the pluggable
//! [`ResolutionProtocol`] ([`protocol`]), the membership view the
//! crash-aware extension adds ([`membership`]), and the action frame with
//! its coordination rounds — resolution, §3.4's signalling, the exit
//! barrier, rejoin — and the decisions between them ([`rounds`]). Every
//! decision is a value: a message or a deadline goes in, a
//! [`RoundAction`](rounds::RoundAction) or an [`Expiry`](rounds::Expiry)
//! comes out. Sending, waiting, the clock, counting and logging are the
//! host's (`caa-runtime` performs them on the simulated network), so a
//! frame can be driven by hand, message by message, with no network at
//! all.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod membership;
pub mod protocol;
pub mod rounds;

pub use protocol::{ResolutionProtocol, XrrResolution};
pub use rounds::{ActionSpec, Frame};
