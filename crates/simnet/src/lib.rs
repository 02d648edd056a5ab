//! Virtual-time scheduler and simulated FIFO message-passing network — the
//! substrate beneath the CA-action runtime (reproducing §5.1 of Xu,
//! Romanovsky & Randell, ICDCS 1998).
//!
//! The paper's prototype ran on distributed Ada 95 partitions connected by
//! "a simple, and hence portable, subsystem for message passing" with
//! per-receiver cyclic buffers. This crate provides the same contract for
//! in-process reproduction:
//!
//! * **Reliable FIFO links** (the algorithm's Assumptions 1–2), with
//!   optional [`FaultPlan`] loss/corruption injection for the §3.4
//!   failure-exception extension;
//! * **Deterministic latencies** via [`LatencyModel`] — the paper's `Tmmax`
//!   parameter — plus the acknowledgment-timeout retransmission model that
//!   reproduces the >1 s knee of Figure 10;
//! * **Virtual time** ([`ClockMode::Virtual`]): endpoints are driven by
//!   blocking code — fibers that `caa-runtime` runs one at a time on a
//!   single thread ([`FiberNetwork`]), or plain OS threads ([`Network`]
//!   as is) — but time is simulated and advances only when all of them
//!   are blocked,
//!   so a 260-virtual-second experiment finishes in milliseconds and a
//!   global deadlock is *detected and reported* rather than hanging the
//!   test suite (the property Theorem 1 proves the protocols never
//!   exhibit);
//! * **Message counters** ([`NetStats`]) for verifying the paper's
//!   message-complexity results empirically.
//!
//! # Determinism
//!
//! Given a seed and a deterministic application, a virtual-time run is
//! bit-reproducible: latencies are a pure hash of
//! `(seed, src, dst, link sequence)`, per-link FIFO nudges resolve ties,
//! and fault budgets are consumed **per directed link** as a pure
//! function of per-link sequence numbers — so even unpinned
//! ([`FaultSpec::any`]) loss/corruption rules affect the identical
//! messages on every replay. The only nondeterminism OS scheduling can
//! introduce — and only for endpoints driven by concurrent OS threads —
//! is *wall-clock* interleaving of same-instant events, which never
//! feeds back into virtual time.
//!
//! # One core, two hosts
//!
//! The simulator is one plain single-owner value — clock, mailboxes,
//! fault budgets, counters, the advance arbiter — with no lock, atomic or
//! condvar in it. [`Network`] and [`Endpoint`] are written once over a
//! *host* that supplies exclusive access to that core and a way to give
//! up the CPU: [`Fibers`] keeps it in an `Rc<RefCell<_>>` and suspends
//! the calling fiber ([`FiberNetwork`], [`FiberEndpoint`]: `!Send`, what
//! a `caa-runtime` `System` runs on); [`Threads`], the default, keeps it
//! behind a mutex and parks the calling OS thread on its endpoint's
//! condvar (`Network<M>`, `Endpoint<M>`: `Send`). What an endpoint
//! observes is the same under both.
//!
//! # Targeted wake-ups
//!
//! Scheduling is wake-targeted, not broadcast: every endpoint parks on
//! its own slot (a runnable mark that its fiber's host reads, which the
//! thread host turns into a notification of that endpoint's condvar), a
//! delivery wakes only its (already-deliverable)
//! receiver, and a time advance wakes only the endpoints whose wake-up
//! point was reached — the unique next runners instead of the herd. For
//! wait conditions the network cannot see (e.g. the runtime's
//! shared-object arbitration), [`Endpoint::park_wait`] parks a thread
//! with no polling timer at all and [`Network::schedule_wake`] lets
//! whoever *enables* the condition ring that thread's doorbell at a
//! chosen virtual instant — wake-on-release rather than
//! wake-every-quantum. Wake-up routing is pure wall-clock optimisation:
//! it decides how participants sleep, never what they observe, so traces
//! are byte-identical to the broadcast design's.
//!
//! # Examples
//!
//! ```
//! use caa_simnet::{Classify, ClockMode, LatencyModel, NetConfig, Network};
//! use caa_core::time::secs;
//!
//! #[derive(Debug)]
//! struct Hello;
//! impl Classify for Hello {
//!     fn class(&self) -> &'static str { "Hello" }
//! }
//!
//! let net: Network<Hello> = Network::new(NetConfig {
//!     mode: ClockMode::Virtual,
//!     latency: LatencyModel::UniformUpTo(secs(0.2)),
//!     seed: 7,
//!     ..NetConfig::default()
//! });
//! let a = net.endpoint("a");
//! let mut b = net.endpoint("b");
//! let b_id = b.id();
//! a.send(b_id, Hello);
//! let worker = std::thread::spawn(move || b.recv().map(|r| r.delivered_at));
//! a.retire();
//! let delivered_at = worker.join().unwrap().unwrap();
//! assert!(delivered_at.as_secs_f64() <= 0.2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod fault;
mod host;
mod latency;
mod net;
mod simcore;
mod stats;
mod tap;
mod threads;

pub use fault::{FaultPlan, FaultSpec};
pub use host::Fibers;
pub use latency::{effective_latency, LatencyModel};
pub use net::{
    ClockMode, DeadlockInfo, Endpoint, FiberEndpoint, FiberNetwork, NetConfig, Network, Parked,
    Received, SimError,
};
pub use simcore::{NetArena, SchedStats};
pub use stats::{Classify, NetStats};
pub use tap::{NetTap, TapEvent};
pub use threads::Threads;
