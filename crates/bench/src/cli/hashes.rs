//! `caa hashes` — per-seed trace fingerprints for pre/post refactor
//! comparison.
//!
//! Prints one line per seed: the seed, whether the generated plan contains
//! a crash-stop participant (`crashfree` / `crash`), and the trace's
//! fingerprint
//! ([`Trace::render_fingerprint`](caa_harness::trace::Trace::render_fingerprint)):
//! the XXH64 hash ([`hash64`](caa_harness::trace::hash64)) of the canonical
//! rendering's lines with every number as its eight bytes instead of its
//! digits. Two traces fingerprint equal exactly when they render equal.
//! Protocol refactors that must keep crash-free behaviour byte-identical
//! run this before and after the change and diff the `crashfree` lines
//! (crash seeds are allowed to move when the crash model itself changes). A
//! trailing section hashes production-cell runs the same way.
//!
//! The lines are assembled in a per-thread scratch buffer and hashed once,
//! so a hash-gate sweep allocates no rendered trace. A fingerprint is not
//! `hash64(render())`: listings (and digests) printed before the
//! fingerprint stopped hashing decimal text are not comparable with
//! today's, and a pre/post gate compares two listings made by the same
//! fingerprint.
//!
//! ```text
//! caa hashes [--seeds N] [--prodcell N] [--workers N] [--shard k/n] [--digest] > hashes.txt
//! ```
//!
//! `--digest` hashes the listing instead of printing it: one `hash64` line
//! per (section, 1 000-seed block), sections being `crashfree`, `crash` and
//! `prodcell`, then `object-heavy` and `multi-crash` — the first
//! [`SPACE_SEEDS`] seeds of [`ScenarioConfig::object_heavy`] and
//! [`ScenarioConfig::multi_crash`], the spaces where object arbitration's
//! doorbells and crash instants decide who the scheduler wakes. Those two
//! sections are digest-only (a listing stays the default space's). The
//! default 12 000-seed + 32-prodcell run digests to a few
//! dozen lines, small enough to commit — the tier-1 test
//! `crates/bench/tests/trace_hashes_digest.rs` compares it against
//! `tests/golden/trace_hashes_12k.digest`, so the pre/post gate is a test
//! rather than a manual ritual. A differing block names the seed range to
//! diff in the full listing.
//!
//! `--shard k/n` restricts the run to one deterministic shard of the seed
//! range (same split as `caa sweep` and `caa bench` — see
//! [`Shard`]), so a 12k-seed gate can be split across CI jobs and the
//! sorted union of the shard outputs equals the unsharded output. The
//! prodcell section is emitted by shard 0 only (it is not seed-range work).

use std::collections::BTreeMap;
use std::io::{self, Write};

use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::sweep::{run_workers, Shard};
use caa_harness::trace::Hash64;

use super::{Args, Run};

/// Seeds per `--digest` block.
const DIGEST_BLOCK: u64 = 1_000;

/// Seeds of each extra scenario space a `--digest` covers.
const SPACE_SEEDS: u64 = 2_000;

/// One listing line: its seed, its section and its text.
type Line = (u64, &'static str, String);

/// Prints one line per (section, block) of `lines` (already in listing
/// order): how many listing lines fell into it and the hash of those
/// lines, newline-terminated, in listing order.
fn print_digest(out: &mut dyn Write, lines: &[Line]) -> io::Result<()> {
    for section in [
        "crashfree",
        "crash",
        "prodcell",
        "object-heavy",
        "multi-crash",
    ] {
        let mut blocks: BTreeMap<u64, (u64, Hash64)> = BTreeMap::new();
        for (seed, _, line) in lines.iter().filter(|(_, s, _)| *s == section) {
            let (count, hash) = blocks.entry(seed / DIGEST_BLOCK).or_default();
            *count += 1;
            hash.write(line.as_bytes());
            hash.write(b"\n");
        }
        for (block, (count, hash)) in blocks {
            let hash = hash.finish();
            writeln!(
                out,
                "{section} block {block} lines {count} xxh64 {hash:016x}"
            )?;
        }
    }
    Ok(())
}

pub(super) fn run(args: &Args, out: &mut dyn Write) -> Run {
    let seeds: u64 = args.get_or("--seeds", 12_000)?;
    let prodcell: u64 = args.get_or("--prodcell", 32)?;
    let workers: usize = args.get_or("--workers", 0)?;
    let shard: Option<Shard> = args.get("--shard")?;
    let digest = args.switch("--digest");

    let mut lines = listing(&ScenarioConfig::default(), None, seeds, workers, shard);
    if shard.is_none_or(|s| s.index == 0) {
        for seed in 0..prodcell {
            let run = caa_harness::prodcell::run_seed(seed, 2, false);
            let hash = run.trace.render_fingerprint();
            lines.push((seed, "prodcell", format!("prodcell {seed} {hash:016x}")));
        }
    }
    if digest {
        for (config, section) in [
            (ScenarioConfig::object_heavy(), "object-heavy"),
            (ScenarioConfig::multi_crash(), "multi-crash"),
        ] {
            lines.extend(listing(&config, Some(section), SPACE_SEEDS, workers, shard));
        }
        print_digest(out, &lines)?;
    } else {
        for (.., line) in &lines {
            writeln!(out, "{line}")?;
        }
    }
    Ok(0)
}

/// The listing lines of `config`'s first `seeds` seeds, in seed order:
/// under `section`, or — the default space's — tagged `crashfree` or
/// `crash` by whether the plan crashes a participant.
fn listing(
    config: &ScenarioConfig,
    section: Option<&'static str>,
    seeds: u64,
    workers: usize,
    shard: Option<Shard>,
) -> Vec<Line> {
    let per_worker = run_workers(seeds, workers, shard, |arena, tickets| {
        let mut lines: Vec<Line> = Vec::new();
        for seed in tickets {
            let plan = ScenarioPlan::generate(seed, config);
            let artifacts = execute_in(&plan, arena);
            let hash = artifacts.trace.render_fingerprint();
            arena.recycle_trace(artifacts.trace);
            let line = match section {
                Some(section) => (seed, section, format!("{section} {seed} {hash:016x}")),
                None => {
                    let tag = if plan.crashes.is_empty() {
                        "crashfree"
                    } else {
                        "crash"
                    };
                    (seed, tag, format!("seed {seed} {tag} {hash:016x}"))
                }
            };
            lines.push(line);
        }
        lines
    });
    let mut lines: Vec<Line> = per_worker.into_iter().flatten().collect();
    lines.sort_by_key(|(seed, ..)| *seed);
    lines
}
