//! The whole suite from one command: `run` measures every workload, each
//! pass in a process of its own (so peak memory, CPU accounting and the
//! pin are per workload), and `aa` runs the suite in two interleaved sets
//! to show that the same code agrees with itself within the bounds
//! `BENCHMARK.json` sets.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::manifest::{Manifest, MetricDecl};
use crate::stats::{median, spread};
use crate::workloads::Workload;

/// What `run` and `aa` take from the command line.
#[derive(Debug, Clone)]
pub struct SuiteOpts {
    /// Workloads to run (all five unless `--workload` named one).
    pub workloads: Vec<Workload>,
    /// Base seed.
    pub seed: u64,
    /// One short round per pass.
    pub smoke: bool,
}

/// One child run's parsed result line.
#[derive(Debug, Clone)]
struct ChildResult {
    correct: bool,
    /// The result line as printed.
    line: String,
    values: BTreeMap<String, f64>,
}

/// Runs one pass of one workload in a child process. With `echo`, the
/// child's report is passed through; the result line is always parsed.
fn child(
    opts: &SuiteOpts,
    manifest: &Manifest,
    workload: Workload,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &manifest.run_seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let line = lines.pop().unwrap_or_default().to_owned();
    if echo {
        for l in &lines {
            println!("{l}");
        }
        println!();
    }
    let doc = json::parse(&line).map_err(|e| {
        format!(
            "the {} run ({}) printed no result: {e}",
            workload.name(),
            output.status
        )
    })?;
    let values = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line lacks metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Value::as_bool) == Some(true)
            && output.status.success(),
        line,
        values,
    })
}

/// `run`: both passes of every workload. The last line printed is one
/// JSON object holding every run's result line by workload and pass.
///
/// # Errors
///
/// When a child could not be run or printed no result.
pub fn run(opts: &SuiteOpts) -> Result<u8, String> {
    let manifest = Manifest::load()?;
    let mut document = String::from("{\"workloads\": {");
    let mut all_correct = true;
    for (i, &workload) in opts.workloads.iter().enumerate() {
        let untraced = child(opts, &manifest, workload, opts.seed, false, true)?;
        let traced = child(opts, &manifest, workload, opts.seed, true, true)?;
        all_correct &= untraced.correct && traced.correct;
        if i > 0 {
            document.push_str(", ");
        }
        json::write_str(&mut document, workload.name());
        let _ = write!(
            document,
            ": {{\"end_to_end\": {}, \"per_layer\": {}}}",
            untraced.line, traced.line
        );
    }
    let _ = write!(document, "}}, \"correct\": {all_correct}}}");
    println!(
        "{}",
        if all_correct {
            "every op of every workload produced correct outputs"
        } else {
            "FAILED: some ops produced wrong outputs (see the FAILED lines above)"
        }
    );
    println!("{document}");
    Ok(u8::from(!all_correct))
}

/// End-to-end metrics that are virtual-time facts: a pure function of the
/// seed, so two runs with the same seed must agree to the last bit.
const EXACT: [&str; 2] = ["resolve_virt_mean_ms", "msgs_per_seed"];

/// By how much `b` is worse than `a`, as a share of `a`.
fn worse_by(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if decl.lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

/// `aa`: the untraced pass of the suite `2 × pairs` times, alternating
/// which set a run belongs to; pair `i` of both sets uses the same seed,
/// and different pairs use different seeds. Checks, per end-to-end metric
/// and workload, what the benchmark's acceptance check does: each set's
/// interquartile spread within the bound (`setup_s` exempt), the sets'
/// medians within the bound of each other — and exact equality, pair by
/// pair, for the virtual-time metrics.
///
/// # Errors
///
/// When a child could not be run or printed no result.
pub fn aa(opts: &SuiteOpts, pairs: u32) -> Result<u8, String> {
    let manifest = Manifest::load()?;
    // samples[workload][metric] = [set A values, set B values]
    let mut samples: BTreeMap<&str, BTreeMap<String, [Vec<f64>; 2]>> = BTreeMap::new();
    let mut ok = true;
    for pair in 0..pairs {
        // Consecutive base seeds would select adjacent windows; a prime
        // stride spreads them.
        let seed = opts.seed + u64::from(pair) * 7919;
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for set in order {
            for &workload in &opts.workloads {
                let result = child(opts, &manifest, workload, seed, false, false)?;
                if !result.correct {
                    println!("FAILED: {} seed {seed} was not correct", workload.name());
                    ok = false;
                }
                let by_metric = samples.entry(workload.name()).or_default();
                for (name, value) in result.values {
                    by_metric.entry(name).or_default()[set].push(value);
                }
                eprintln!(
                    "pair {}/{pairs} set {} {} done",
                    pair + 1,
                    ["A", "B"][set],
                    workload.name()
                );
            }
        }
    }

    println!(
        "{:<8} {:<21} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound"
    );
    for (workload, by_metric) in &samples {
        for decl in &manifest.end_to_end {
            let Some([a, b]) = by_metric.get(&decl.name) else {
                println!("FAILED: {workload} never reported {}", decl.name);
                ok = false;
                continue;
            };
            let bound = decl.bound.unwrap_or(0.0);
            let gap = worse_by(decl, median(a), median(b)).abs();
            let (spread_a, spread_b) = (spread(a), spread(b));
            let mut verdict = Vec::new();
            if gap > bound {
                verdict.push("MEDIANS DISAGREE");
            }
            if decl.name != "setup_s" && spread_a.max(spread_b) > bound {
                verdict.push("SPREAD OVER BOUND");
            } else if decl.name != "setup_s" && spread_a.max(spread_b) > bound / 3.0 {
                verdict.push("spread over a third of the bound");
            }
            if EXACT.contains(&decl.name.as_str()) && a != b {
                verdict.push("NOT BIT-EQUAL PAIR BY PAIR");
            }
            if verdict.iter().any(|v| v.starts_with(char::is_uppercase)) {
                ok = false;
            }
            println!(
                "{workload:<8} {:<21} {:>14.4} {:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                decl.name,
                median(a),
                median(b),
                gap * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0,
                if verdict.is_empty() {
                    String::from("ok")
                } else {
                    verdict.join(", ")
                },
            );
        }
    }
    println!(
        "{}",
        if ok {
            "A/A: the two sets agree within every bound"
        } else {
            "A/A FAILED"
        }
    );
    Ok(u8::from(!ok))
}
