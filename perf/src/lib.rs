//! `caa-perf` — the repository's benchmark: five named workloads, the
//! end-to-end metrics a user of the system would see, and a per-layer
//! cost model taken from outside the layers.
//!
//! ```text
//! # the form BENCHMARK.json's command takes (one pass of one workload):
//! caa-perf --workload mixed --seed 1 --seconds 20 --trace 0
//! # every workload, both passes, each in its own pinned process:
//! caa-perf run [--seed S] [--workload W] [--smoke]
//! # the same code against itself, in two interleaved sets:
//! caa-perf aa [--pairs N] [--seed S] [--workload W]
//! # one set-up timed from process start (a run spawns these):
//! caa-perf setup --workload W [--seed S]
//! ```
//!
//! See `README.md` for the workloads, the metric glossary and which layer
//! metric is expected to move which end-to-end metric.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod host;
pub mod json;
pub mod manifest;
pub mod paper_values;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod surface;
pub mod windows;
pub mod worker;
pub mod workloads;
