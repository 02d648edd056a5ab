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
//! [`SharedObject`]s, and recover from exceptions through:
//!
//! * the **resolution algorithm** of §3.3.2 (default
//!   [`XrrResolution`], pluggable via [`protocol::ResolutionProtocol`] for
//!   the baseline comparisons of §5.3),
//! * the **membership extension** ([`membership`]): a bounded resolution
//!   wait whose expiry presumes silent peers crashed, shrinks the
//!   per-instance membership view and resolves a synthesized crash
//!   exception among the survivors,
//! * the **abortion cascade** over nested actions (§3.3.1),
//! * exception **handlers** under the termination model (§3.1),
//! * the **signalling algorithm** of §3.4 coordinating `ε`/µ/ƒ, and
//! * a synchronous **exit protocol** (§5.1) — signalling and exit range
//!   over the current membership view.
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
//! ([`caa_simnet::Network::schedule_wake`]) — grant order and grant
//! instants are identical to the historical per-quantum polling design,
//! but the per-tick retry wake-ups are gone. Fault tolerance is bounded,
//! not hung on:
//! the §3.4 signalling timeout treats missing announcements as ƒ, and the
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
pub mod membership;
pub mod objects;
pub mod observe;
pub mod protocol;
mod rounds;
mod system;

pub use action::{ActionDef, ActionDefBuilder, DefError};
pub use context::{AppMsg, Ctx};
pub use error::{Flow, RuntimeError, Step};
pub use objects::SharedObject;
pub use protocol::XrrResolution;
pub use system::{RuntimeStats, System, SystemBuilder, SystemReport};

/// Whether `CAA_TRACE` is set: the runtime then prints its own per-thread
/// protocol trace to stderr. Read once per process — the check sits on
/// per-message paths.
pub(crate) fn trace_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("CAA_TRACE").is_some())
}
