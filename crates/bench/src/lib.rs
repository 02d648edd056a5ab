//! The paper's evaluation (§5 of Xu, Romanovsky & Randell, ICDCS 1998) as
//! scenarios, and the workspace's one command line.
//!
//! * [`scenarios`] — the §5.2 nested-abort experiment (Figures 9/10) and
//!   the §5.3 algorithm comparison (Figures 12/13), parameterised by
//!   `Tmmax`, `Tabo` and `Treso`;
//! * [`cli`] — the `caa` binary: `replay`, `sweep`, `bench`, `fuzz`,
//!   `merge`, `diff`, `tables` and `hashes` over one argument parser.
//!   `caa tables all` prints the same rows and series the paper reports,
//!   each next to the printed value:
//!   `cargo run --release -p caa-bench --bin caa -- tables all`;
//! * `benches/layers.rs` times the layers of a seed on their own
//!   (`cargo bench -p caa-bench --bench layers`).
//!
//! # Determinism
//!
//! The *simulated* quantities (virtual durations, message counts) are
//! seed-determined and identical on every run; only the wall-clock cost
//! of simulating them — what `layers` and `caa bench` measure — varies
//! with the host.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod scenarios;

pub use scenarios::{
    lemma1_bound, nested_abort, resolution_messages, simultaneous_raise, simultaneous_raise_xrr,
    NestedAbortParams, SimultaneousRaiseParams,
};
