//! Command-line entry of `caa-perf` (see the crate docs for the forms).

use std::process::ExitCode;
use std::time::Instant;

use caa_perf::manifest::Manifest;
use caa_perf::suite::{self, SuiteOpts};
use caa_perf::worker::{self, Opts};
use caa_perf::workloads::Workload;

const USAGE: &str =
    "usage: caa-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
       caa-perf run [--seed <n>] [--workload <name>] [--smoke]
       caa-perf aa [--pairs <n>] [--seed <n>] [--workload <name>] [--smoke]
       caa-perf setup --workload <name> [--seed <n>] [--smoke]   (one timed set-up; a run spawns these)
workloads: mixed objects crash paper posthoc";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("bad value for {flag}: {value:?}"))
}

fn main_inner(process_start: Instant) -> Result<u8, String> {
    let mut args = std::env::args().skip(1).peekable();
    let subcommand = args.next_if(|a| !a.starts_with("--")).unwrap_or_default();
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut pairs = 5u32;
    while let Some(flag) = args.next() {
        // `run` and `aa` measure for the `run_seconds` BENCHMARK.json
        // fixes, so what they check is what the bounds were set for.
        let allowed: &[&str] = match subcommand.as_str() {
            "" => &["--workload", "--seed", "--seconds", "--trace", "--smoke"],
            "aa" => &["--workload", "--seed", "--pairs", "--smoke"],
            _ => &["--workload", "--seed", "--smoke"],
        };
        if !allowed.contains(&flag.as_str()) {
            return Err(format!(
                "unknown argument {flag:?} for `caa-perf {subcommand}`"
            ));
        }
        match flag.as_str() {
            "--workload" => {
                let name: String = parse(&flag, args.next())?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = parse(&flag, args.next())?,
            "--seconds" => {
                let s: f64 = parse(&flag, args.next())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => trace = parse::<u8>(&flag, args.next())? != 0,
            "--pairs" => pairs = parse(&flag, args.next())?,
            "--smoke" => smoke = true,
            _ => unreachable!("checked against the subcommand's flags above"),
        }
    }
    let suite_opts = || SuiteOpts {
        workloads: workload.map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]),
        seed,
        smoke,
    };
    let worker_opts = || -> Result<Opts, String> {
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: match seconds {
                Some(s) => s,
                None => Manifest::load()?.run_seconds,
            },
            trace,
            smoke,
        })
    };
    match subcommand.as_str() {
        "" => worker::run(&worker_opts()?, process_start),
        "setup" => worker::set_up_only(&worker_opts()?, process_start),
        "run" => suite::run(&suite_opts()),
        "aa" => suite::aa(&suite_opts(), pairs),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match main_inner(process_start) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("caa-perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
