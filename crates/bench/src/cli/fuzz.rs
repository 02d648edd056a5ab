//! `caa fuzz` — the coverage-guided exploration driver.
//!
//! Runs the harness's fuzz loop ([`caa_harness::fuzz::fuzz`]): generation 0
//! executes fresh seeds, then every generation mutates energy-weighted
//! frontier plans toward novel protocol-path signatures. Fully
//! deterministic for a fixed flag set — worker count only changes wall
//! clock, and any find replays from its persisted lineage via
//! `caa replay --corpus`.
//!
//! ```text
//! # The nightly shape: a budget, a fresh-seed baseline, a shard split,
//! # and a machine-readable coverage.json per shard (`caa merge` unions
//! # the shards):
//! caa fuzz --budget 50000 --baseline [--shard 2/8] [--out coverage.json] \
//!     [--triage triage.md]
//!
//! # The tier-1 shape: a tiny smoke loop proving the feedback loop still
//! # finds novelty beyond its initial seeds:
//! caa fuzz --fuzz-smoke
//! ```
//!
//! `--shard k/n` gives each shard a disjoint generation-0 seed range and
//! its own mutation stream (the master fuzz seed is offset by the shard
//! index), so shards explore without coordination and their
//! `coverage.json` documents union meaningfully. With neither `--out` nor
//! `--triage` the coverage document is printed.
//!
//! Exit status: `1` when a violation was found or a `--min-gain-pct` gate
//! failed, `4` when `--max-handoffs-per-seed` caught a scheduler hand-off
//! regression — the guard and the status `caa bench` applies to sweeps.

use std::io::Write;
use std::path::PathBuf;

use caa_harness::fuzz::{fuzz, CoverageDoc, FuzzConfig};
use caa_harness::plan::ScenarioConfig;
use caa_harness::sweep::Shard;

use super::{usage_error, write_file, Args, Run};

pub(super) fn run(args: &Args, out: &mut dyn Write) -> Run {
    let mut config = FuzzConfig {
        corpus_dir: Some(PathBuf::from("target/caa-corpus")),
        ..FuzzConfig::default()
    };
    if args.switch("--fuzz-smoke") {
        // The tier-1 preset: small enough for a debug-profile CI lane,
        // large enough that the frontier provably schedules mutations and
        // finds signatures fresh seeds missed. Explicit flags override it.
        config.executions = 160;
        config.initial_seeds = 48;
        config.batch = 32;
        config.compare_fresh = true;
    }
    config.executions = args.get_or("--budget", config.executions)?;
    config.initial_seeds = args.get_or("--initial", config.initial_seeds)?;
    config.start_seed = args.get_or("--start", config.start_seed)?;
    config.batch = args.get_or("--batch", config.batch)?;
    config.fuzz_seed = args.get_or("--fuzz-seed", config.fuzz_seed)?;
    config.workers = args.get_or("--workers", config.workers)?;
    config.compare_fresh |= args.switch("--baseline");
    config.check_replay = args.switch("--check-replay");
    if let Some(dir) = args.value("--corpus") {
        config.corpus_dir = Some(PathBuf::from(dir));
    }
    if args.switch("--multi-crash") {
        // The crash-heavy scenario space: nearly every plan carries a
        // crash schedule, so multi-crash and rejoin-mid-recovery paths
        // dominate the frontier. The config is persisted with every
        // corpus entry, so finds replay through `caa replay --corpus`.
        config.scenario = ScenarioConfig::multi_crash();
    }
    if let Some(shard) = args.get::<Shard>("--shard")? {
        // Disjoint generation-0 ranges and distinct mutation streams per
        // shard; the budget is per shard (n shards explore n× the budget).
        config.start_seed += shard.index * config.initial_seeds;
        config.fuzz_seed = config.fuzz_seed.wrapping_add(shard.index);
    }
    let min_gain_pct: Option<f64> = args.get("--min-gain-pct")?;
    let max_handoffs_per_seed: Option<u64> = args.get("--max-handoffs-per-seed")?;
    if min_gain_pct.is_some() && !config.compare_fresh {
        return Err(usage_error(
            "--min-gain-pct needs --baseline (or --fuzz-smoke)",
        ));
    }

    let report = fuzz(&config);
    eprint!("{}", report.summary());

    if let Some(ceiling) = max_handoffs_per_seed {
        let per_seed = report.metrics.parks_per_seed();
        if per_seed > ceiling {
            eprintln!(
                "HANDOFF CEILING VIOLATED: fuzz loop parked ~{per_seed} times per execution, \
                 above the --max-handoffs-per-seed ceiling of {ceiling}"
            );
            return Ok(4);
        }
        eprintln!("handoff ceiling ok: ~{per_seed} parks/execution ≤ {ceiling}");
    }

    let doc = CoverageDoc::from_fuzz(&report);
    let (out_path, triage_path) = (args.value("--out"), args.value("--triage"));
    if let Some(path) = out_path {
        write_file(path, &doc.render())?;
        eprintln!("coverage written to {path}");
    }
    if let Some(path) = triage_path {
        write_file(path, &doc.triage())?;
        eprintln!("triage report written to {path}");
    }
    if out_path.is_none() && triage_path.is_none() {
        write!(out, "{}", doc.render())?;
    }

    let mut failed = false;
    if let (Some(min), Some(gain)) = (min_gain_pct, report.gain_pct()) {
        if gain < min {
            eprintln!("signature gain {gain:+.1}% is below the --min-gain-pct {min} gate");
            failed = true;
        } else {
            eprintln!("signature gain {gain:+.1}% clears the --min-gain-pct {min} gate");
        }
    }
    if !report.violations.is_empty() {
        eprintln!("{} violating lineage(s) found", report.violations.len());
        failed = true;
    }
    Ok(i32::from(failed))
}
