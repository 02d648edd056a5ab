//! Distributed CA-action run-time with coordinated exception handling — the
//! system implementation of Xu, Romanovsky & Randell (ICDCS 1998).
//!
//! A [`System`] hosts participating threads, each bound to a network
//! partition (the paper's architecture, Figure 8) and each a blocking
//! closure on a stack of its own: [`System::run`] drives them as
//! run-to-block fibers on the calling thread, so a simulated system costs
//! no OS thread and a hand-off between participants no system call. Threads
//! enter [`ActionDef`]s — Coordinated Atomic actions — through
//! [`Ctx::enter`], cooperate via role-to-role messages and transactional
//! [`SharedObject`]s, and recover from exceptions — resolution (§3.3.2,
//! default [`XrrResolution`], pluggable for the baseline comparisons of
//! §5.3), the membership extension, the abortion cascade (§3.3.1),
//! signalling (§3.4) and exit (§5.1) — by the protocol of
//! [`caa_protocol`], which decides; this crate performs what it decides
//! and runs the exception **handlers** under the termination model (§3.1).
//!
//! Rust has no asynchronous exceptions, so the Ada 95 ATC of the paper's
//! prototype becomes a `Result`-based design: all role operations return
//! [`Step`], and coordinated recovery takes over when an operation returns
//! `Err(`[`Flow`]`)` — propagate it with `?` and the action boundary
//! catches it.
//!
//! # Determinism
//!
//! On the virtual-time network every run is byte-replayable, including
//! shared-object traffic: [`SharedObject`] acquisition is **mediated
//! through the simulation** — requests queue per object and grants follow
//! a deterministic `(registration virtual time, thread id)` order at
//! scheduler-visible quantum ticks (see [`objects`]), costing each access
//! one quantum of virtual time. Scheduling is **wake-on-release**: a
//! blocked waiter parks until the arbitration event that can actually
//! enable it (a release, grant or cancellation) schedules its next
//! on-grid attempt as a targeted doorbell
//! ([`caa_simnet::Network::schedule_wake`]). Fault tolerance is bounded,
//! not hung on: the §3.4 signalling timeout treats missing announcements as ƒ, and the
//! same timeout generalised to the exit protocol
//! ([`ActionDefBuilder::exit_timeout`]) resolves a crash-stopped peer's
//! missing vote ([`Ctx::crash_stop`]) to abortion at a deterministic
//! virtual deadline.
//!
//! # Examples
//!
//! Two roles cooperate; one raises; both run their handlers for the
//! resolved exception; the action still exits with success after forward
//! recovery:
//!
//! ```
//! use caa_runtime::{ActionDef, System};
//! use caa_core::exception::Exception;
//! use caa_core::outcome::{ActionOutcome, HandlerVerdict};
//! use caa_core::time::secs;
//! use caa_exgraph::ExceptionGraphBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = ExceptionGraphBuilder::new().primitive("sensor_glitch").build()?;
//! let action = ActionDef::builder("calibrate")
//!     .role("driver", 0u32)
//!     .role("monitor", 1u32)
//!     .graph(graph)
//!     .handler("driver", "sensor_glitch", |_| Ok(HandlerVerdict::Recovered))
//!     .handler("monitor", "sensor_glitch", |_| Ok(HandlerVerdict::Recovered))
//!     .build()?;
//!
//! let mut sys = System::builder().build();
//! let a = action.clone();
//! sys.spawn("T0", move |ctx| {
//!     let outcome = ctx.enter(&a, "driver", |rc| {
//!         rc.work(secs(0.1))?;
//!         rc.raise(Exception::new("sensor_glitch"))
//!     })?;
//!     assert_eq!(outcome, ActionOutcome::Success);
//!     Ok(())
//! });
//! sys.spawn("T1", move |ctx| {
//!     let outcome = ctx.enter(&action, "monitor", |rc| rc.work(secs(5.0)))?;
//!     assert_eq!(outcome, ActionOutcome::Success);
//!     Ok(())
//! });
//! sys.run().expect_ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod action;
pub mod context;
mod error;
pub mod objects;
pub mod observe;
mod system;

pub use action::{ActionDef, ActionDefBuilder, DefError};
pub use context::Ctx;
pub use error::{Flow, RuntimeError, Step};
pub use objects::SharedObject;
pub use system::{RuntimeStats, System, SystemBuilder, SystemReport};

// The benchmark's frozen surface (`perf/src/surface.rs`) imports the
// resolution protocol as `caa_runtime::protocol` and `XrrResolution` from
// here; these two re-exports keep those paths alone. Workspace code
// imports from `caa_protocol`.
pub use caa_protocol::{protocol, XrrResolution};
