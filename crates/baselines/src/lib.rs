//! Baseline exception-resolution algorithms for the comparative experiments
//! of §5.3 and §3.3.3 (Xu, Romanovsky & Randell, ICDCS 1998).
//!
//! Both baselines implement the protocol's
//! [`ResolutionProtocol`](caa_protocol::ResolutionProtocol), so a
//! `caa_runtime::System` can swap algorithms while "the rest of the CA
//! action support \[is\] kept unchanged" — exactly how the paper built its
//! comparison:
//!
//! * [`CrResolution`] — Campbell & Randell 1986: flooding re-broadcast,
//!   every thread resolves repeatedly (`N(N−1)(N−2)` invocations), O(N³)
//!   messages, no commit round;
//! * [`Rom96Resolution`] — Romanovsky et al. 1996: three explicit
//!   exchanges (announce / propose / confirm), `3N(N−1)` messages per
//!   nesting level, one resolution invocation per thread.
//!
//! # Determinism
//!
//! Both baselines are pure state machines over delivered messages — no
//! clocks, no randomness — so comparative experiments replay exactly and
//! measured message counts are properties of the algorithm, not the run.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use caa_baselines::CrResolution;
//! use caa_runtime::System;
//!
//! let sys = System::builder().protocol(Arc::new(CrResolution)).build();
//! # drop(sys);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cr86;
mod rom96;

pub use cr86::CrResolution;
pub use rom96::Rom96Resolution;
