//! `caa hashes --shard k/n` contract: shards are disjoint, and the
//! sorted union of all shards' seed lines equals the unsharded output —
//! so a 12k-seed hash gate can split across CI jobs exactly like
//! `caa bench` does. (The prodcell section is emitted by shard 0 only;
//! it is not seed-range work.)

use std::collections::BTreeMap;
fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|arg| (*arg).to_owned()).collect();
    let mut out = Vec::new();
    let status = caa_bench::cli::run(&args, &mut out);
    assert_eq!(status, 0, "caa {args:?} failed");
    String::from_utf8(out).expect("utf8 output")
}

#[test]
fn sharded_hash_runs_union_to_the_unsharded_output() {
    let full = run(&["hashes", "--seeds", "48"]);
    let mut union: BTreeMap<u64, String> = BTreeMap::new();
    let mut prodcell_lines = Vec::new();
    for index in 0..3 {
        let shard = run(&["hashes", "--seeds", "48", "--shard", &format!("{index}/3")]);
        for line in shard.lines() {
            if line.starts_with("prodcell") {
                assert_eq!(index, 0, "only shard 0 may emit the prodcell section");
                prodcell_lines.push(line.to_owned());
                continue;
            }
            let seed: u64 = line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("seed field");
            assert_eq!(
                seed % 3,
                index,
                "shard {index}/3 emitted a seed outside its residue class"
            );
            let previous = union.insert(seed, line.to_owned());
            assert!(previous.is_none(), "seed {seed} appeared in two shards");
        }
    }
    let mut rebuilt: Vec<String> = union.into_values().collect();
    rebuilt.extend(prodcell_lines);
    let rebuilt = rebuilt.join("\n") + "\n";
    assert_eq!(
        rebuilt, full,
        "sorted union of the shards must equal the unsharded run"
    );
}
