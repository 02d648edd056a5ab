//! One run of one workload in one process: the untraced pass that
//! produces the end-to-end metrics, or the traced pass that produces the
//! per-layer ones. Prints what it measures as it goes and, as the last
//! line of standard output, the result as one JSON object.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::host;
use crate::json;
use crate::manifest::{Manifest, MetricDecl};
use crate::spans::SpanLog;
use crate::stats::{median, quartiles};
use crate::surface;
use crate::workloads::{applies, build, Bench, Metrics, Round, Workload};

/// What the command line asked of this run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The workload to run.
    pub workload: Workload,
    /// Selects the inputs: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// The traced (per-layer) pass instead of the untraced (end-to-end).
    pub trace: bool,
    /// One short round: for the name-consistency test.
    pub smoke: bool,
}

impl Opts {
    /// Seconds to keep starting rounds for; a smoke run stops after the
    /// minimum number of rounds.
    fn budget(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds
        }
    }
}

/// Where a run leaves its artifacts (violating seeds' corpus entries,
/// Chrome traces): `perf/out`, wherever the crate was built.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set-up is timed this many times per run and its median reported, so
/// one slow start does not read as a regression. Each is a process of its
/// own timed from the first line of its `main` (this one, then
/// `caa-perf setup` children), so cost moved into whatever a process does
/// once — parsing the declaration, lazy statics — shows like any other.
const SETUPS: usize = 3;

/// The host's hand-off and arithmetic cost, sampled around every round so
/// a reader can tell host drift from a change in the code.
#[derive(Debug, Default)]
struct HostSamples {
    handoff_rt_us: Vec<f64>,
    cpu_cal_ms: Vec<f64>,
}

impl HostSamples {
    /// Takes one sample of each (~20 ms) and returns it.
    fn sample(&mut self, smoke: bool) -> (f64, f64) {
        let scale = if smoke { 10 } else { 1 };
        let handoff = host::handoff_rt_us(3000 / scale);
        let cpu = host::cpu_cal_ms(4_000_000 / scale);
        self.handoff_rt_us.push(handoff);
        self.cpu_cal_ms.push(cpu);
        (handoff, cpu)
    }
}

/// Ops attempted and failed, and the determinism reference of each kind
/// of round.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    untraced_digest: Option<u64>,
    traced_digest: Option<u64>,
    /// Ops whose failure has been printed: every round repeats the same
    /// inputs, so a failing op fails again each round and is counted each
    /// time, but one replay command is enough.
    reported: BTreeSet<u64>,
}

impl Tally {
    /// Accounts one round: every op whose outputs were wrong fails, and a
    /// round whose digest differs from the first of its kind fails whole.
    /// Returns whether the bench is still usable (it is not after a
    /// panic).
    fn account(&mut self, round: std::thread::Result<Round>, traced: bool) -> bool {
        let round = match round {
            Ok(round) => round,
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("(no message)");
                println!("FAILED: the round panicked: {what}");
                self.attempted += 1;
                self.failed += 1;
                return false;
            }
        };
        self.attempted += round.ops;
        let reference = if traced {
            &mut self.traced_digest
        } else {
            &mut self.untraced_digest
        };
        let first = *reference.get_or_insert(round.digest);
        if first != round.digest {
            println!(
                "FAILED: round digest {:016x} differs from the first round's {first:016x}: \
                 the same inputs gave different outputs",
                round.digest
            );
            self.failed += round.ops;
            return true;
        }
        for failure in &round.failures {
            if !self.reported.insert(failure.seed) {
                continue;
            }
            println!(
                "FAILED: op {}: {}\n  replay: {}",
                failure.seed, failure.what, failure.replay
            );
        }
        self.failed += round.failures.len() as u64;
        true
    }
}

fn guarded(call: impl FnOnce() -> Round) -> std::thread::Result<Round> {
    catch_unwind(AssertUnwindSafe(call))
}

/// What every process of a run does first: read the declaration, enter
/// the measurement conditions, say what is being run, build the workload.
fn start(opts: &Opts) -> Result<(Manifest, bool, Box<dyn Bench>), String> {
    let manifest = Manifest::load()?;
    let pinned = host::enter_measurement_conditions();
    println!(
        "== {} (seed {}, {} pass, {}) ==",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        if pinned {
            format!("pinned to CPU {:?}", host::allowed_cpus())
        } else {
            String::from("UNPINNED: expect bimodal throughput")
        },
    );
    let bench = build(opts.workload, opts.seed, opts.smoke, out_dir());
    Ok((manifest, pinned, bench))
}

/// The rest of set-up: the first host sample, the workload's state and a
/// warm-up round, which is also the determinism reference. Returns whether
/// the bench is usable and the seconds since `process_start`.
fn finish_set_up(
    opts: &Opts,
    bench: &mut dyn Bench,
    tally: &mut Tally,
    host_samples: &mut HostSamples,
    process_start: Instant,
) -> (bool, f64) {
    host_samples.sample(opts.smoke);
    let warm_up = guarded(|| {
        bench.set_up();
        bench.round()
    });
    let usable = tally.account(warm_up, false);
    (usable, process_start.elapsed().as_secs_f64())
}

/// `caa-perf setup`: one set-up, timed from process start, its seconds as
/// the last line of standard output. A run spawns these to time set-up
/// more than once (see [`SETUPS`]).
///
/// # Errors
///
/// When `BENCHMARK.json` does not parse.
pub fn set_up_only(opts: &Opts, process_start: Instant) -> Result<u8, String> {
    let (_, _, mut bench) = start(opts)?;
    let (usable, seconds) = finish_set_up(
        opts,
        bench.as_mut(),
        &mut Tally::default(),
        &mut HostSamples::default(),
        process_start,
    );
    println!("{seconds}");
    Ok(u8::from(!usable))
}

/// Times one more set-up in a child process, under this process's pin and
/// allocator setting (both are inherited).
fn spawn_set_up(opts: &Opts) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("setup")
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .filter(|_| output.status.success())
        .and_then(|line| line.parse().ok())
        .ok_or_else(|| format!("a set-up process failed ({})", output.status))
}

fn micros_per_op(wall: Duration, ops: u64) -> f64 {
    wall.as_secs_f64() * 1e6 / ops.max(1) as f64
}

/// Runs the workload and prints the result. Returns the process exit
/// code: 0 when every op's outputs were correct.
///
/// # Errors
///
/// When the run cannot produce the metrics `BENCHMARK.json` declares.
pub fn run(opts: &Opts, process_start: Instant) -> Result<u8, String> {
    let (manifest, pinned, mut bench) = start(opts)?;
    let mut tally = Tally::default();
    let mut metrics = Metrics::new();
    let declared = if opts.trace {
        traced_pass(opts, bench.as_mut(), &mut tally, &mut metrics, pinned)?;
        &manifest.per_layer
    } else {
        untraced_pass(
            opts,
            bench.as_mut(),
            &mut tally,
            &mut metrics,
            process_start,
        )?;
        &manifest.end_to_end
    };
    if let Some(digest) = tally.untraced_digest {
        println!("digest {digest:016x} (for information; never compared to a committed value)");
    }
    let line = result_line(opts, declared, &metrics, &tally)?;
    println!("{line}");
    Ok(u8::from(tally.failed > 0))
}

/// The hand-off round trip of the reference host that `ops_per_s` is
/// stated for (its unit is `1/ref_s`, not `1/s`). This shared host moves
/// between a fast and a slow state every few seconds, a quarter apart,
/// and the hand-off probe follows it for every workload — `posthoc`,
/// which never hands off, included (the README has the runs). A round
/// timed while the probe read `h` is reported as if it had read this.
const REFERENCE_HANDOFF_US: f64 = 5.0;

/// Set-up (timed [`SETUPS`] times, as measured), then rounds for
/// `--seconds`. Every round has a host sample on either side; its rate is
/// printed as measured and, scaled by the mean of the two hand-off
/// samples, for the reference host.
fn untraced_pass(
    opts: &Opts,
    bench: &mut dyn Bench,
    tally: &mut Tally,
    metrics: &mut Metrics,
    process_start: Instant,
) -> Result<(), String> {
    let mut host_samples = HostSamples::default();
    let (mut usable, own) = finish_set_up(opts, bench, tally, &mut host_samples, process_start);
    let mut setups = vec![own];
    if usable && !opts.smoke {
        for _ in 1..SETUPS {
            setups.push(spawn_set_up(opts)?);
        }
    }
    println!(
        "set-up, process start to ready, {} processes: {}",
        setups.len(),
        setups
            .iter()
            .map(|s| format!("{s:.3}s"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut raw_rates = Vec::new();
    let mut rates = Vec::new();
    let min_rounds = if opts.smoke { 1 } else { 3 };
    let measuring = Instant::now();
    let (mut handoff_before, mut cpu_before) = host_samples.sample(opts.smoke);
    while usable && (rates.len() < min_rounds || measuring.elapsed().as_secs_f64() < opts.budget())
    {
        let started = Instant::now();
        let round = guarded(|| bench.round());
        let wall = started.elapsed().as_secs_f64();
        let (handoff_after, cpu_after) = host_samples.sample(opts.smoke);
        let ops = round.as_ref().map_or(0, |r| r.ops);
        usable = tally.account(round, false);
        if usable {
            let raw = ops as f64 / wall;
            let rate = raw * (handoff_before + handoff_after) / 2.0 / REFERENCE_HANDOFF_US;
            println!(
                "round {:>2}: {ops} ops in {wall:.3}s = {raw:.1} ops/s, {rate:.1} on the reference host | host handoff {handoff_before:.2}/{handoff_after:.2} us, cpu {cpu_before:.2}/{cpu_after:.2} ms",
                rates.len() + 1,
            );
            raw_rates.push(raw);
            rates.push(rate);
        }
        (handoff_before, cpu_before) = (handoff_after, cpu_after);
    }
    if rates.is_empty() {
        // Nothing could be timed; the result line still has to carry a
        // number, and `failed` says why it means nothing.
        raw_rates.push(f64::MIN_POSITIVE);
        rates.push(f64::MIN_POSITIVE);
    }
    let (q1, q3) = quartiles(&rates);
    println!(
        "ops_per_s over {} rounds: median {:.1}, quartiles {q1:.1} .. {q3:.1} (as measured: median {:.1}); host handoff median {:.2} us, cpu median {:.2} ms",
        rates.len(),
        median(&rates),
        median(&raw_rates),
        median(&host_samples.handoff_rt_us),
        median(&host_samples.cpu_cal_ms),
    );
    let virt = bench.virt_per_op();
    metrics.insert("setup_s", median(&setups));
    metrics.insert("ops_per_s", median(&rates));
    metrics.insert("peak_rss_mib", host::peak_rss_mib());
    metrics.insert("resolve_virt_mean_ms", virt.resolve_ms);
    metrics.insert("msgs_per_seed", virt.msgs);
    Ok(())
}

/// Layer kernels once, then untraced and traced rounds in alternation for
/// `--seconds`, so the two see the same host.
fn traced_pass(
    opts: &Opts,
    bench: &mut dyn Bench,
    tally: &mut Tally,
    metrics: &mut Metrics,
    pinned: bool,
) -> Result<(), String> {
    let mut host_samples = HostSamples::default();
    host_samples.sample(opts.smoke);
    kernels(opts.smoke, metrics);
    let warm_up = guarded(|| {
        bench.set_up();
        bench.round()
    });
    let mut usable = tally.account(warm_up, false);

    let mut log = SpanLog::default();
    // One entry per adjacent (untraced, traced) pair of rounds: the
    // untraced round's ops/s as measured, and the traced round's cost
    // over the untraced one's with each priced in the hand-offs sampled
    // on either side of it.
    let mut raw_rates = Vec::new();
    let mut overheads = Vec::new();
    let min_rounds = if opts.smoke { 1 } else { 2 };
    let measuring = Instant::now();
    let (mut handoff_before, _) = host_samples.sample(opts.smoke);
    while usable
        && (overheads.len() < min_rounds || measuring.elapsed().as_secs_f64() < opts.budget())
    {
        let started = Instant::now();
        let untraced = guarded(|| bench.round());
        let untraced_us = micros_per_op(started.elapsed(), untraced.as_ref().map_or(0, |r| r.ops));
        usable = tally.account(untraced, false);
        if !usable {
            break;
        }
        let (handoff_between, _) = host_samples.sample(opts.smoke);
        let started = Instant::now();
        let traced = guarded(|| bench.traced_round(&mut log));
        let traced_us = micros_per_op(started.elapsed(), traced.as_ref().map_or(0, |r| r.ops));
        usable = tally.account(traced, true);
        let (handoff_after, _) = host_samples.sample(opts.smoke);
        if usable {
            println!("untraced round {untraced_us:.2} us/op, traced round {traced_us:.2} us/op");
            raw_rates.push(1e6 / untraced_us);
            let untraced_rt = untraced_us / (handoff_before + handoff_between);
            let traced_rt = traced_us / (handoff_between + handoff_after);
            overheads.push(traced_rt / untraced_rt - 1.0);
        }
        handoff_before = handoff_after;
    }

    bench.layer_metrics(&log, metrics);
    let handoff = median(&host_samples.handoff_rt_us);
    metrics.insert("host.handoff_rt_us", handoff);
    metrics.insert("host.cpu_cal_ms", median(&host_samples.cpu_cal_ms));
    metrics.insert("host.sys_cpu_share", host::sys_cpu_share());
    metrics.insert("host.pinned", f64::from(u8::from(pinned)));
    if let Some(&pingpong) = metrics.get("simnet.pingpong_rt_us") {
        metrics.insert("simnet.pingpong_overhead_x", pingpong / handoff);
    }
    if let Some(&execute_us) = metrics.get("harness.exec.execute_us") {
        // Execute priced in host hand-offs: the figure that repeats to a
        // few percent when ops/s does not, because the hand-off cost is
        // what drifts.
        metrics.insert("harness.exec.cost_rt", execute_us / handoff);
        let parks = metrics.get("simnet.parks_per_seed").copied().unwrap_or(0.0);
        metrics.insert(
            "harness.exec.handoff_est_share",
            parks * handoff / 2.0 / execute_us,
        );
    }
    if !overheads.is_empty() {
        // Pair by pair, so host drift between pairs cancels.
        metrics.insert("trace_overhead_share", median(&overheads));
        metrics.insert("host.ops_per_s_raw", median(&raw_rates));
    }
    metrics.insert(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );

    let path = out_dir().join(format!("trace-{}.json", opts.workload.name()));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, log.chrome_json(200)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{} spans kept; the first 200 ops written to {} (Chrome trace-event JSON)",
        log.spans().len(),
        path.display()
    );
    Ok(())
}

/// Each layer's kernel on its own, no harness around it: the median of
/// five batches, as cost per operation.
fn kernels(smoke: bool, metrics: &mut Metrics) {
    let scale = if smoke { 10 } else { 1 };
    let per_op = |batch: u32, unit_ns: f64, kernel: &dyn Fn(u32) -> Duration| {
        let batch = batch / scale;
        let samples: Vec<f64> = (0..5)
            .map(|_| kernel(batch).as_secs_f64() * 1e9 / unit_ns / f64::from(batch))
            .collect();
        median(&samples)
    };
    metrics.insert(
        "simnet.pingpong_rt_us",
        per_op(4000, 1e3, &surface::simnet_pingpong),
    );
    metrics.insert(
        "simnet.sleep_wake_us",
        per_op(20_000, 1e3, &surface::simnet_sleep_wake),
    );
    metrics.insert(
        "runtime.protocol.round_us_n5",
        per_op(1000, 1e3, &surface::protocol_round_n5),
    );
    metrics.insert(
        "exgraph.lattice_build_us_n5",
        per_op(500, 1e3, &surface::lattice_build_n5),
    );
    metrics.insert(
        "exgraph.resolve_ns_n5",
        per_op(20_000, 1.0, &surface::resolve_n5),
    );
    metrics.insert(
        "telemetry.hist_record_ns",
        per_op(1_000_000, 1.0, &surface::hist_record),
    );
}

/// The result object: every declared metric of this pass, by name, with
/// its unit. Also prints each for a human.
fn result_line(
    opts: &Opts,
    declared: &[MetricDecl],
    metrics: &Metrics,
    tally: &Tally,
) -> Result<String, String> {
    if let Some(stray) = metrics
        .keys()
        .find(|name| !declared.iter().any(|d| d.name == **name))
    {
        return Err(format!(
            "the run produced {stray}, which BENCHMARK.json does not declare for this pass"
        ));
    }
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
    );
    for (i, decl) in declared.iter().enumerate() {
        let value = match metrics.get(decl.name.as_str()) {
            Some(&value) => value,
            // Every run reports every declared per-layer name; a layer
            // this workload does not exercise reads 0 (see `applies`).
            None if opts.trace && !applies(&decl.name, opts.workload) => 0.0,
            None => return Err(format!("declared metric {} was not produced", decl.name)),
        };
        if !value.is_finite() {
            return Err(format!(
                "metric {} is not a finite number: {value}",
                decl.name
            ));
        }
        println!("{:<44} {value:>16.4} {}", decl.name, decl.unit);
        if i > 0 {
            line.push_str(", ");
        }
        json::write_str(&mut line, &decl.name);
        let _ = write!(line, ": {{\"value\": {value}, \"unit\": ");
        json::write_str(&mut line, &decl.unit);
        line.push('}');
    }
    line.push_str("}}");
    Ok(line)
}
