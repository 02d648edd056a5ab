//! The 12k-seed pre/post trace gate as a tier-1 test: `caa hashes
//! --digest` (12 000 default-config seeds + 32 production-cell runs, one
//! `hash64` line per section and 1 000-seed block) must equal the committed
//! `tests/golden/trace_hashes_12k.digest`.
//!
//! Every crash-free, crash and prodcell trace is a pure function of its
//! seed, so a runtime, simnet or harness refactor that claims unchanged
//! behaviour keeps this file untouched. On a mismatch the test names the
//! differing blocks and writes the full per-seed listing under `target/`
//! for diffing against a listing from the parent commit. Only a deliberate
//! behaviour change may re-bless it:
//!
//! ```text
//! CAA_GOLDEN_BLESS=1 cargo test -p caa-bench --test trace_hashes_digest
//! ```

fn run(args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|arg| (*arg).to_owned()).collect();
    let mut out = Vec::new();
    let status = caa_bench::cli::run(&args, &mut out);
    assert_eq!(status, 0, "caa {args:?} failed");
    String::from_utf8(out).expect("utf8 output")
}

#[test]
fn twelve_k_seed_digest_matches_the_committed_golden_file() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_hashes_12k.digest"
    );
    let digest = run(&["hashes", "--digest"]);
    if std::env::var_os("CAA_GOLDEN_BLESS").is_some() {
        std::fs::write(path, &digest).expect("write golden digest");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden digest present (bless once with CAA_GOLDEN_BLESS=1)");
    if golden == digest {
        return;
    }
    let differing: Vec<&str> = digest
        .lines()
        .filter(|line| !golden.lines().any(|g| g == *line))
        .collect();
    let listing_path = concat!(env!("CARGO_TARGET_TMPDIR"), "/trace_hashes_12k.listing.txt");
    std::fs::write(listing_path, run(&["hashes"])).expect("write per-seed listing");
    panic!(
        "trace digest drift in {} block(s) ({} golden vs {} now):\n  {}\n\
         full per-seed listing written to {listing_path}",
        differing.len(),
        golden.lines().count(),
        digest.lines().count(),
        differing.join("\n  "),
    );
}
