//! What the benchmark asks of the host: a CPU to itself, its own memory
//! and CPU accounting from `/proc`, and two calibration loops that price
//! the host's context switch and its arithmetic.
//!
//! Sizing runs on a shared 2-vCPU box showed single-worker sweep
//! throughput to be bimodal by 5× unpinned (a seed's participant threads
//! migrate between CPUs, so every park/wake becomes a cross-CPU wake-up)
//! and unimodal pinned; what noise remains follows the host's
//! context-switch cost, not its compute speed. Hence the pin and the two
//! calibrations.

use std::process::Command;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find_map(|line| line.strip_prefix(key).map(|rest| rest.trim().to_owned()))
}

/// The CPUs this process may run on, from `Cpus_allowed_list`
/// (e.g. `0-1` or `0,2-3`). Empty when `/proc` does not say.
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let Some(list) = proc_field("/proc/self/status", "Cpus_allowed_list:") else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Puts the process under the benchmark's measurement conditions and
/// returns whether it is pinned to a single CPU.
///
/// Two conditions, both set by re-executing this process once with the
/// same arguments:
///
/// * **one CPU** — under `taskset -c <highest allowed CPU>` (the quieter
///   one on the sizing box) unless `Cpus_allowed_list` already names a
///   single CPU. Where `taskset` is missing or may not set affinity the
///   run goes ahead unpinned and reports `host.pinned = 0`;
/// * **one allocator arena** — `MALLOC_ARENA_MAX=1`. glibc otherwise
///   gives each participant thread an arena of its own as scheduling
///   happens to dictate, which made peak RSS jitter by ±15 % between
///   identical runs (5.0–6.8 MiB on `objects`; 5.2–5.5 with one arena).
///   On one CPU there is no allocator parallelism to lose.
///
/// Each condition is checked on its own, so a caller that happens to
/// export the allocator setting is pinned all the same. The re-executed
/// process carries a private marker, `CAA_PERF_REEXECUTED`, whose only
/// effect is that it never re-executes again, whatever `/proc` says.
#[must_use]
pub fn enter_measurement_conditions() -> bool {
    const ARENA: &str = "MALLOC_ARENA_MAX";
    const REEXECUTED: &str = "CAA_PERF_REEXECUTED";
    let cpus = allowed_cpus();
    let single = cpus.len() == 1;
    if std::env::var_os(REEXECUTED).is_some() {
        return single;
    }
    let one_arena = std::env::var_os(ARENA).is_some_and(|v| v == "1");
    let pin_to = cpus
        .last()
        .filter(|_| !single)
        .map(ToString::to_string)
        .filter(|cpu| {
            Command::new("taskset")
                .args(["-c", cpu, "true"])
                .status()
                .is_ok_and(|s| s.success())
        });
    if pin_to.is_none() && one_arena {
        return single;
    }
    let Ok(exe) = std::env::current_exe() else {
        return single;
    };
    let mut command = match pin_to {
        Some(cpu) => {
            let mut taskset = Command::new("taskset");
            taskset.args(["-c", &cpu]).arg(exe);
            taskset
        }
        None => Command::new(exe),
    };
    match command
        .args(std::env::args_os().skip(1))
        .env(ARENA, "1")
        .env(REEXECUTED, "1")
        .status()
    {
        Ok(status) => std::process::exit(status.code().unwrap_or(1)),
        Err(_) => single,
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    proc_field("/proc/self/status", "VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Share of this process's CPU time spent in the kernel:
/// `stime / (utime + stime)` from `/proc/self/stat`.
#[must_use]
pub fn sys_cpu_share() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next().and_then(|f| f.parse::<f64>().ok());
    let stime = fields.next().and_then(|f| f.parse::<f64>().ok());
    match (utime, stime) {
        (Some(u), Some(s)) if u + s > 0.0 => s / (u + s),
        _ => 0.0,
    }
}

/// Microseconds per round trip of a two-thread condvar ping-pong: the
/// price of the hand-off every simulated park/wake pays on this host,
/// right now. On one CPU each leg is a context switch.
#[must_use]
pub fn handoff_rt_us(round_trips: u32) -> f64 {
    // `true` = the main thread's turn.
    let turn = Mutex::new(true);
    let flipped = Condvar::new();
    let pass = |mine: bool| {
        let mut guard = flipped
            .wait_while(turn.lock().expect("calibration lock"), |t| *t != mine)
            .expect("calibration lock");
        *guard = !mine;
        flipped.notify_one();
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(|| (0..round_trips).for_each(|_| pass(false)));
        (0..round_trips).for_each(|_| pass(true));
    });
    started.elapsed().as_secs_f64() * 1e6 / f64::from(round_trips.max(1))
}

/// Milliseconds for a fixed integer loop that touches no memory and makes
/// no system call: moves with the host's clock speed and steal time, not
/// with its scheduler.
#[must_use]
pub fn cpu_cal_ms(steps: u32) -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane_on_linux() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mib() > 0.0);
        assert!((0.0..=1.0).contains(&sys_cpu_share()));
    }

    #[test]
    fn calibrations_take_time() {
        assert!(handoff_rt_us(50) > 0.0);
        assert!(cpu_cal_ms(100_000) > 0.0);
    }
}
