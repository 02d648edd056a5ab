//! `caa sweep` and `caa bench` — drive a seed range through
//! [`caa_harness::sweep::sweep`].
//!
//! `caa sweep [--space NAME] --seeds N [--start SEED] [--shard k/n]
//! [--metrics-out PATH]` explores the range in a scenario space (the
//! default one without `--space`) with byte-exact replay checking, prints
//! the sweep summary (throughput, paths hit, virtual-time protocol latency
//! quantiles, per-class message counts, scheduler hand-offs, a replay
//! command per violating seed) and exits 1 if any seed violated an oracle.
//! `--metrics-out` writes the sweep's machine-readable `metrics.json`.
//! `--shard k/n` restricts the run to one deterministic shard of the range
//! (see [`Shard`]), so CI matrices or several machines split one big sweep
//! without coordination; `caa merge` unions the shards' documents.
//!
//! `caa bench` is the sweep-throughput benchmark behind `BENCH_sweep.json`.
//! It measures how fast the harness explores seeds, under the honest
//! accounting the sweep summary uses: **seeds/s** (what a CI budget buys)
//! and **executions/s** (the real work rate — with `check_replay` every
//! seed executes twice). Three configurations:
//!
//! * `default` — the acceptance-sweep scenario space, no replay check;
//! * `default+replay` — the same space with byte-exact replay checking;
//! * `object-heavy` — the space of that name: every plan carries a
//!   contended shared-object pool with ≥ 4 participants.
//!
//! The bench JSON — a flat, diff-friendly document, also printed — goes to
//! `--out`, and the merged `metrics.json` of all three cases next to it;
//! with no `--out` both land under `target/caa/`, never on the
//! `BENCH_sweep.json` committed at the workspace root (the longer-lived
//! trajectory: labeled runs of this bench, `{"runs": [{label, cases}, …]}`).
//!
//! `--min-seeds-per-sec N` turns the run into a perf smoke gate: exit 3 if
//! any case explores fewer than `N` seeds/s. CI passes a deliberately
//! generous floor — an order of magnitude below the trajectory — so
//! hardware jitter never trips it but a structural collapse (an accidental
//! O(n²), a lost wake-up path, a per-seed allocation storm) cannot slip
//! through unnoticed.
//!
//! `--max-handoffs-per-seed N` gates the scheduler's park counter the same
//! way (exit 4): a virtual-time seed costs a fixed number of hand-offs
//! between its participants (57/seed over the default space), and a lost
//! targeted-wakeup optimisation shows up as that number exploding long
//! before wall-clock noise would reveal it. Since participants run as
//! fibers the count is exact for a seed; the gate stays a ceiling so that
//! it survives changes to the scenario generator.

use std::fmt::Write as _;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use caa_harness::metrics::{metrics_json, SweepMetrics};
use caa_harness::plan::{Space, SPACES};
use caa_harness::sweep::{effective_workers, sweep, Shard, SweepConfig, SweepReport};

use super::{write_file, Args, Run};

pub(super) fn run_sweep(args: &Args, out: &mut dyn Write) -> Run {
    let seeds: u64 = args.get_or("--seeds", 1000)?;
    let start: u64 = args.get_or("--start", 0)?;
    let shard: Option<Shard> = args.get("--shard")?;
    let space: Space = args.get_or("--space", Space::default())?;
    let report = sweep(&SweepConfig {
        start_seed: start,
        seeds,
        shard,
        scenario: (space.config)(),
        check_replay: true,
        ..SweepConfig::default()
    });
    write!(out, "{}", report.summary())?;
    if let Some(path) = args.value("--metrics-out") {
        write_file(path, &report.metrics_json())?;
        writeln!(out, "metrics written to {path}")?;
    }
    if let Some(shard) = shard {
        writeln!(
            out,
            "(shard {}/{} of seeds {start}..{})",
            shard.index,
            shard.count,
            start + seeds
        )?;
    }
    Ok(i32::from(!report.all_passed()))
}

fn bench_json(results: &[(&str, SweepReport)], seeds: u64, workers: usize) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"sweep\",");
    let _ = writeln!(out, "  \"seeds_per_case\": {seeds},");
    let _ = writeln!(out, "  \"workers\": {},", effective_workers(workers));
    let _ = writeln!(out, "  \"cases\": [");
    for (i, (name, report)) in results.iter().enumerate() {
        let wall = report.wall.as_secs_f64();
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"config\": \"{name}\",");
        let _ = writeln!(out, "      \"seeds\": {},", report.seeds_run);
        let _ = writeln!(out, "      \"executions\": {},", report.executions_run);
        let _ = writeln!(out, "      \"wall_s\": {wall:.4},");
        let _ = writeln!(out, "      \"seeds_per_s\": {:.1},", report.seeds_per_sec());
        let _ = writeln!(
            out,
            "      \"executions_per_s\": {:.1},",
            report.executions_per_sec()
        );
        let _ = writeln!(out, "      \"trace_entries\": {},", report.trace_entries);
        let _ = writeln!(
            out,
            "      \"trace_entries_per_s\": {:.0},",
            report.trace_entries as f64 / wall.max(1e-9)
        );
        let _ = writeln!(out, "      \"virtual_secs\": {:.0}", report.virtual_secs);
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

pub(super) fn run_bench(args: &Args, out: &mut dyn Write) -> Run {
    let seeds: u64 = args.get_or("--seeds", 2000)?;
    let workers: usize = args.get_or("--workers", 0)?;
    let shard: Option<Shard> = args.get("--shard")?;
    let out_path = Path::new(args.value("--out").unwrap_or("target/caa/BENCH_sweep.json"));
    let min_seeds_per_sec: Option<f64> = args.get("--min-seeds-per-sec")?;
    let max_handoffs_per_seed: Option<u64> = args.get("--max-handoffs-per-seed")?;

    let [default, object_heavy, _] = SPACES;
    let cases = [
        (default.name, default, false),
        ("default+replay", default, true),
        (object_heavy.name, object_heavy, false),
    ];
    let started = Instant::now();
    let mut results = Vec::new();
    for (name, space, check_replay) in cases {
        let report = sweep(&SweepConfig {
            start_seed: 0,
            seeds,
            workers,
            scenario: (space.config)(),
            check_replay,
            corpus_dir: None,
            shard,
        });
        eprintln!("{name}: {}", report.summary());
        if !report.all_passed() {
            eprintln!("bench sweep '{name}' found violating seeds");
            return Ok(1);
        }
        results.push((name, report));
    }
    let doc = bench_json(&results, seeds, workers);
    let dir = out_path.parent().unwrap_or(Path::new(""));
    if !dir.as_os_str().is_empty() {
        std::fs::create_dir_all(dir)?;
    }
    write_file(out_path, &doc)?;
    write!(out, "{doc}")?;
    eprintln!("wrote {} in {:.2?}", out_path.display(), started.elapsed());

    // Union of every case's metrics, written next to the bench JSON.
    let mut merged = SweepMetrics::default();
    let mut seeds_total = 0;
    for (_, report) in &results {
        merged.merge(&report.metrics);
        seeds_total += report.seeds_run;
    }
    let metrics_path = dir.join("metrics.json");
    write_file(&metrics_path, &metrics_json(&merged, seeds_total, true))?;
    eprintln!("wrote {}", metrics_path.display());

    if let Some(ceiling) = max_handoffs_per_seed {
        let mut exceeded = false;
        for (name, report) in &results {
            let per_seed = report.metrics.parks_per_seed();
            if per_seed > ceiling {
                eprintln!(
                    "HANDOFF CEILING VIOLATED: case '{name}' parked ~{per_seed} times per seed, \
                     above the --max-handoffs-per-seed ceiling of {ceiling}"
                );
                exceeded = true;
            }
        }
        if exceeded {
            return Ok(4);
        }
        eprintln!("handoff ceiling ok: every case ≤ {ceiling} parks/seed");
    }

    if let Some(floor) = min_seeds_per_sec {
        let mut collapsed = false;
        for (name, report) in &results {
            let rate = report.seeds_per_sec();
            if rate < floor {
                eprintln!(
                    "PERF FLOOR VIOLATED: case '{name}' explored {rate:.0} seeds/s, \
                     below the --min-seeds-per-sec floor of {floor:.0}"
                );
                collapsed = true;
            }
        }
        if collapsed {
            return Ok(3);
        }
        eprintln!("perf floor ok: every case ≥ {floor:.0} seeds/s");
    }
    Ok(0)
}
