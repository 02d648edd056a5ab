//! **caa-harness** — deterministic simulation testing for the coordinated
//! exception-handling runtime, in the spirit of FoundationDB-style
//! simulation: a single `u64` seed determines an entire distributed
//! scenario (action topology, workload, fault schedule), the virtual-time
//! network executes it deterministically, a structured trace records every
//! protocol step, and invariant oracles derived from the paper's theorems
//! judge the result.
//!
//! The paper validates its resolution and signalling algorithms on one
//! hand-built case study; this crate turns that into an unbounded,
//! machine-explorable scenario space:
//!
//! * [`plan`] — seeded scenario generation: randomized nesting trees, role
//!   groups, exception graphs, concurrent raises, handler verdicts
//!   (forward recovery, µ, ƒ, interface signals), abortion-handler
//!   exceptions, shared-object workloads (cycle-free by construction),
//!   crash-stop participants, message loss/corruption and signalling
//!   crashes;
//! * [`exec`] — materialises a plan into real [`caa_runtime`] actions,
//!   shared objects and crash injections, and runs it on the virtual-time
//!   network;
//! * [`arena`] — per-worker execution arenas recycling network storage,
//!   trace buffers and resolution lattices across seeds, so the sweep hot
//!   path stops paying per-seed setup/teardown allocation;
//! * [`trace`] — the structured event log captured through
//!   [`caa_runtime::observe`] and [`caa_simnet::NetTap`] hooks, with a
//!   canonical byte-stable rendering (object acquisitions included);
//! * [`oracle`] — resolution agreement, single-resolution, the Lemma 1
//!   completion bound, §3.3.3 message complexity, nesting/abortion/crash
//!   consistency, the exit-timeout liveness bound and byte-exact replay;
//! * [`mod@sweep`] — fans thousands of seeds across OS threads and reports any
//!   violating seed for one-command replay; owns the tooling's one worker
//!   pool;
//! * [`edit`] — the one edit grammar for plans: concrete `add` / `drop` /
//!   `set` edits, the fuzzer's draw, the shrinker (1-minimal drop lists),
//!   and the one corpus format, a seed plus an edit list ([`Recipe`]);
//! * [`mod@fuzz`] — coverage-guided exploration: draws edits of frontier
//!   plans toward protocol paths fresh seeds starve;
//! * [`prodcell`] — the §4 production cell driven as a harness scenario,
//!   replay-checked byte-exactly.
//!
//! # Quick start
//!
//! Sweep seeds and fail loudly on the first counterexample:
//!
//! ```
//! use caa_harness::sweep::{sweep, SweepConfig};
//!
//! let report = sweep(&SweepConfig {
//!     seeds: 25,
//!     check_replay: true,
//!     ..SweepConfig::default()
//! });
//! assert!(report.all_passed(), "{}", report.summary());
//! ```
//!
//! Replay a single seed and inspect its trace:
//!
//! ```
//! use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
//! use caa_harness::{exec, oracle, ExecutionArena};
//!
//! let plan = ScenarioPlan::generate(7, &ScenarioConfig::default());
//! let artifacts = exec::execute_in(&plan, &mut ExecutionArena::default());
//! assert!(oracle::check_run(&artifacts).is_empty());
//! println!("{}", artifacts.trace.render());
//! ```
//!
//! From a shell, every way in is a subcommand of the one `caa` binary
//! (`crates/bench/src/cli.rs`):
//!
//! ```text
//! cargo run --release -p caa-bench --bin caa -- replay 7
//! cargo run --release -p caa-bench --bin caa -- sweep --seeds 10000 --shard 2/8
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod edit;
pub mod exec;
pub mod fuzz;
mod inthash;
pub mod metrics;
pub mod oracle;
pub mod plan;
pub mod prodcell;
mod render;
pub mod rng;
mod scratch;
pub mod spans;
pub mod sweep;
pub mod trace;

pub use arena::ExecutionArena;
pub use edit::{apply, load_corpus_plan, Edit, Recipe};
pub use exec::{execute_in, RunArtifacts};
pub use fuzz::{fuzz, CoverageDoc, FuzzConfig, FuzzReport, COVERAGE_SCHEMA};
pub use oracle::{check_invariants, check_replay, check_run, Violation};
pub use plan::{validate_plan, ScenarioConfig, ScenarioPlan};
pub use sweep::{
    merge_signatures, run_plan_checked, sweep, PathCoverage, SeedResult, Shard, SignatureMap,
    SweepConfig, SweepReport,
};
pub use trace::{Trace, TraceRecorder};
