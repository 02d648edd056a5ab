//! `caa hashes` — per-seed trace fingerprints for pre/post refactor
//! comparison.
//!
//! ```text
//! caa hashes [--space NAME] [--seeds N] [--workers N] [--shard k/n] [--digest] > hashes.txt
//! ```
//!
//! Prints one line per seed of a scenario space (the default one without
//! `--space`; 12 000 seeds of it, 2 000 of another, unless `--seeds` says
//! otherwise): the space's name, the seed and the trace's fingerprint
//! ([`Trace::render_fingerprint`](caa_harness::trace::Trace::render_fingerprint),
//! the [`hash64`](caa_harness::trace::hash64) of the canonical rendering's
//! lines with every number as its eight bytes), equal for two traces
//! exactly when they render equal. A default-space line reads `seed N
//! crashfree|crash …` instead, by whether the plan crashes a participant:
//! a refactor that must keep crash-free behaviour byte-identical diffs the
//! `crashfree` lines before and after. The default listing ends with 32
//! production-cell runs (`prodcell`), hashed the same way. Listings made
//! before the fingerprint stopped hashing decimal text are not comparable
//! with today's.
//!
//! `--digest` hashes a listing instead of printing it: one line per
//! (section, 1 000-seed block), the sections being `crashfree`, `crash`
//! and `prodcell` for the default space and the space's name for another.
//! Without `--space` it walks the table of spaces ([`SPACES`]) in order;
//! that digest is committed as `tests/golden/trace_hashes_12k.digest`, and
//! the tier-1 test `crates/bench/tests/trace_hashes_digest.rs` compares
//! them. A differing block names the space and seed range to diff.
//!
//! `--shard k/n` restricts the run to one deterministic shard of the seed
//! range (the split of `caa sweep` and `caa bench` — see [`Shard`]); the
//! sorted union of the shards' listings is the unsharded listing. Shard 0
//! alone emits the prodcell section.

use std::collections::BTreeMap;
use std::io::{self, Write};

use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioPlan, Space, SPACES};
use caa_harness::sweep::{run_workers, Shard};
use caa_harness::trace::Hash64;

use super::{Args, Run};

/// Seeds per `--digest` block.
const DIGEST_BLOCK: u64 = 1_000;

/// Production-cell runs at the end of the default space's listing.
const PRODCELL_RUNS: u64 = 32;

/// One listing line: its seed, its section and its text.
type Line = (u64, &'static str, String);

pub(super) fn run(args: &Args, out: &mut dyn Write) -> Run {
    let space: Option<Space> = args.get("--space")?;
    let seeds: Option<u64> = args.get("--seeds")?;
    let workers: usize = args.get_or("--workers", 0)?;
    let shard: Option<Shard> = args.get("--shard")?;

    if !args.switch("--digest") {
        for (.., line) in listing(space.unwrap_or_default(), seeds, workers, shard) {
            writeln!(out, "{line}")?;
        }
        return Ok(0);
    }
    let spaces = space.map_or(SPACES.to_vec(), |space| vec![space]);
    for space in spaces {
        print_digest(out, space, &listing(space, seeds, workers, shard))?;
    }
    Ok(0)
}

/// Prints one line per (section, block) of `space`'s listing `lines`: how
/// many listing lines fell into it and the hash of those lines,
/// newline-terminated, in listing order.
fn print_digest(out: &mut dyn Write, space: Space, lines: &[Line]) -> io::Result<()> {
    let sections = if space.is_default() {
        vec!["crashfree", "crash", "prodcell"]
    } else {
        vec![space.name]
    };
    for section in sections {
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

/// The listing lines of `space`'s first `seeds` seeds (by default 12 000
/// of the default space, 2 000 of another), in seed order, and after them
/// the default space's production-cell section.
fn listing(space: Space, seeds: Option<u64>, workers: usize, shard: Option<Shard>) -> Vec<Line> {
    let seeds = seeds.unwrap_or(if space.is_default() { 12_000 } else { 2_000 });
    let config = (space.config)();
    let per_worker = run_workers(seeds, workers, shard, |arena, tickets| {
        let mut lines: Vec<Line> = Vec::new();
        for seed in tickets {
            let plan = ScenarioPlan::generate(seed, &config);
            let artifacts = execute_in(&plan, arena);
            let hash = artifacts.trace.render_fingerprint();
            arena.recycle_trace(artifacts.trace);
            let line = if space.is_default() {
                let tag = if plan.crashes.is_empty() {
                    "crashfree"
                } else {
                    "crash"
                };
                (seed, tag, format!("seed {seed} {tag} {hash:016x}"))
            } else {
                let name = space.name;
                (seed, name, format!("{name} {seed} {hash:016x}"))
            };
            lines.push(line);
        }
        lines
    });
    let mut lines: Vec<Line> = per_worker.into_iter().flatten().collect();
    lines.sort_by_key(|(seed, ..)| *seed);
    if space.is_default() && shard.is_none_or(|s| s.index == 0) {
        for seed in 0..PRODCELL_RUNS {
            let run = caa_harness::prodcell::run_seed(seed, 2, false);
            let hash = run.trace.render_fingerprint();
            lines.push((seed, "prodcell", format!("prodcell {seed} {hash:016x}")));
        }
    }
    lines
}
