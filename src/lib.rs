//! **caa** — Coordinated exception handling in distributed object systems.
//!
//! A production-quality Rust reproduction of *“Coordinated Exception
//! Handling in Distributed Object Systems: from Model to System
//! Implementation”* (J. Xu, A. Romanovsky, B. Randell, ICDCS 1998): the CA
//! (Coordinated Atomic) action model, exception graphs with
//! smallest-covering-subtree resolution, the paper's distributed resolution
//! and signalling algorithms, the baseline algorithms it is compared
//! against, and the FZI production-cell case study — all on a deterministic
//! virtual-time network substrate.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `caa-core` | exceptions, ids, states, messages, outcomes, time |
//! | [`exgraph`] | `caa-exgraph` | exception graphs and resolution (§3.2) |
//! | [`simnet`] | `caa-simnet` | virtual-time scheduler + simulated FIFO network (§5.1) |
//! | [`protocol`] | `caa-protocol` | the recovery protocol with no I/O: resolution, signalling, exit, membership (§3.3–3.4) |
//! | [`runtime`] | `caa-runtime` | the CA-action runtime that performs it: contexts, hosting, objects, the log |
//! | [`baselines`] | `caa-baselines` | Campbell–Randell 1986 and Romanovsky 1996 (§5.3) |
//! | [`prodcell`] | `caa-prodcell` | the production-cell case study (§4) |
//! | [`harness`] | `caa-harness` | deterministic scenario/chaos harness: seed sweeps, traces, oracles |
//!
//! # Quick start
//!
//! ```
//! use caa::runtime::{ActionDef, System};
//! use caa::core::exception::Exception;
//! use caa::core::outcome::{ActionOutcome, HandlerVerdict};
//! use caa::core::time::secs;
//! use caa::exgraph::ExceptionGraphBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Declare an action whose two roles cooperate; if both sensors fail at
//! // once, the concurrently raised exceptions resolve to a covering one.
//! let graph = ExceptionGraphBuilder::new()
//!     .resolves("both_sensors", ["sensor_a", "sensor_b"])
//!     .build()?;
//! let action = ActionDef::builder("calibrate")
//!     .role("left", 0u32)
//!     .role("right", 1u32)
//!     .graph(graph)
//!     .handler("left", "both_sensors", |_| Ok(HandlerVerdict::Recovered))
//!     .handler("right", "both_sensors", |_| Ok(HandlerVerdict::Recovered))
//!     .build()?;
//!
//! let mut sys = System::builder().build();
//! let a = action.clone();
//! sys.spawn("T0", move |ctx| {
//!     let outcome = ctx.enter(&a, "left", |rc| {
//!         rc.work(secs(0.1))?;
//!         rc.raise(Exception::new("sensor_a"))
//!     })?;
//!     assert_eq!(outcome, ActionOutcome::Success);
//!     Ok(())
//! });
//! sys.spawn("T1", move |ctx| {
//!     let outcome = ctx.enter(&action, "right", |rc| {
//!         rc.work(secs(0.1))?;
//!         rc.raise(Exception::new("sensor_b"))
//!     })?;
//!     assert_eq!(outcome, ActionOutcome::Success);
//!     Ok(())
//! });
//! sys.run().expect_ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use caa_baselines as baselines;
pub use caa_core as core;
pub use caa_exgraph as exgraph;
pub use caa_harness as harness;
pub use caa_prodcell as prodcell;
pub use caa_protocol as protocol;
pub use caa_runtime as runtime;
pub use caa_simnet as simnet;
