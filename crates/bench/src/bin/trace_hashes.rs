//! `trace_hashes` — per-seed trace fingerprints for pre/post refactor
//! comparison.
//!
//! Prints one line per seed: the seed, whether the generated plan contains
//! a crash-stop participant (`crashfree` / `crash`), and the FNV-1a hash of
//! the canonical rendered trace. Protocol refactors that must keep
//! crash-free behaviour byte-identical run this tool before and after the
//! change and diff the `crashfree` lines (crash seeds are allowed to move
//! when the crash model itself changes). A trailing section hashes
//! production-cell runs the same way.
//!
//! Fingerprints are computed by streaming
//! ([`Trace::render_fingerprint`](caa_harness::trace::Trace::render_fingerprint)):
//! each entry renders into one reusable line buffer and folds into the
//! running hash, so a hash-gate sweep never materialises a full rendered
//! trace — by construction the value equals `fnv1a64(render())`, keeping
//! old and new hash files comparable.
//!
//! ```text
//! cargo run --release -p caa-bench --bin trace_hashes -- \
//!     [--seeds N] [--prodcell N] [--workers N] [--shard k/n] [--digest] > hashes.txt
//! ```
//!
//! `--digest` folds the listing instead of printing it: one FNV-1a line
//! per (section, 1 000-seed block), sections being `crashfree`, `crash` and
//! `prodcell`. The default 12 000-seed + 32-prodcell run digests to a few
//! dozen lines, small enough to commit — the tier-1 test
//! `crates/bench/tests/trace_hashes_digest.rs` compares it against
//! `tests/golden/trace_hashes_12k.digest`, so the pre/post gate is a test
//! rather than a manual ritual. A differing block names the seed range to
//! diff in the full listing.
//!
//! `--shard k/n` restricts the run to one deterministic shard of the seed
//! range (same split as `sweep_bench` and the replay example — see
//! `caa_harness::sweep::Shard`), so a 12k-seed gate can be split across CI
//! jobs and the sorted union of the shard outputs equals the unsharded
//! output. The prodcell section is emitted by shard 0 only (it is not
//! seed-range work).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::sweep::Shard;
use caa_harness::trace::{fnv1a64, fnv1a64_fold};

/// Seeds per `--digest` block.
const DIGEST_BLOCK: u64 = 1_000;

/// Prints one line per (section, block) of `lines` (already in listing
/// order): how many listing lines fell into it and the FNV-1a fold of
/// those lines, newline-terminated, in listing order.
fn print_digest(lines: &[(u64, &'static str, String)]) {
    for section in ["crashfree", "crash", "prodcell"] {
        let mut blocks: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for (seed, _, line) in lines.iter().filter(|(_, s, _)| *s == section) {
            let (count, hash) = blocks
                .entry(seed / DIGEST_BLOCK)
                .or_insert((0, fnv1a64(b"")));
            *count += 1;
            *hash = fnv1a64_fold(fnv1a64_fold(*hash, line.as_bytes()), b"\n");
        }
        for (block, (count, hash)) in blocks {
            println!("{section} block {block} lines {count} fnv {hash:016x}");
        }
    }
}

fn main() {
    let mut seeds: u64 = 12_000;
    let mut prodcell: u64 = 32;
    let mut workers: usize = 0;
    let mut shard: Option<Shard> = None;
    let mut digest = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--seeds" => seeds = value("--seeds").parse().expect("--seeds: u64"),
            "--prodcell" => prodcell = value("--prodcell").parse().expect("--prodcell: u64"),
            "--workers" => workers = value("--workers").parse().expect("--workers: usize"),
            "--shard" => {
                shard = Some(Shard::parse(&value("--shard")).unwrap_or_else(|e| {
                    eprintln!("bad --shard value: {e}");
                    std::process::exit(2);
                }));
            }
            "--digest" => digest = true,
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let workers = if workers == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        workers
    };

    let config = ScenarioConfig::default();
    let next = AtomicU64::new(0);
    let lines: Mutex<Vec<(u64, &'static str, String)>> =
        Mutex::new(Vec::with_capacity(seeds as usize));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut arena = ExecutionArena::new();
                loop {
                    let seed = next.fetch_add(1, Ordering::Relaxed);
                    if seed >= seeds {
                        return;
                    }
                    if let Some(shard) = shard {
                        if seed % shard.count != shard.index {
                            continue;
                        }
                    }
                    let plan = ScenarioPlan::generate(seed, &config);
                    let tag = if plan.crashes.is_empty() {
                        "crashfree"
                    } else {
                        "crash"
                    };
                    let artifacts = execute_in(&plan, &mut arena);
                    let hash = artifacts.trace.render_fingerprint();
                    arena.recycle_trace(artifacts.trace);
                    lines.lock().expect("collector").push((
                        seed,
                        tag,
                        format!("seed {seed} {tag} {hash:016x}"),
                    ));
                }
            });
        }
    });
    let mut lines = lines.into_inner().expect("collector");
    lines.sort_by_key(|(seed, ..)| *seed);
    if shard.is_none_or(|s| s.index == 0) {
        for seed in 0..prodcell {
            let run = caa_harness::prodcell::run_seed(seed, 2, false);
            let hash = run.trace.render_fingerprint();
            lines.push((seed, "prodcell", format!("prodcell {seed} {hash:016x}")));
        }
    }
    if digest {
        print_digest(&lines);
    } else {
        for (.., line) in &lines {
            println!("{line}");
        }
    }
}
