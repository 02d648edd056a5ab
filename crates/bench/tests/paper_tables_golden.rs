//! The paper's evaluation as a tier-1 gate: `caa tables all` (Figures 9,
//! 10, 12, 13, the §3.3.3 message counts, the signalling table and
//! Lemma 1, each measured next to the paper's printed value) must equal
//! the committed `tests/golden/paper_tables.txt`.
//!
//! Every number in it is a virtual-time fact of a seeded run on the bare
//! runtime, so a change that claims unchanged behaviour — a host-speed
//! change above all — keeps this file untouched. Only a deliberate change
//! to the protocol, the latency model or a scenario may re-bless it:
//!
//! ```text
//! CAA_GOLDEN_BLESS=1 cargo test -p caa-bench --test paper_tables_golden
//! ```

#[test]
fn paper_tables_match_the_committed_golden_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/paper_tables.txt");
    let mut out = Vec::new();
    let status = caa_bench::cli::run(&["tables".to_owned(), "all".to_owned()], &mut out);
    assert_eq!(status, 0, "caa tables all failed");
    let tables = String::from_utf8(out).expect("utf8 output");
    if std::env::var_os("CAA_GOLDEN_BLESS").is_some() {
        std::fs::write(path, &tables).expect("write golden tables");
        eprintln!("blessed {path}");
        return;
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden tables present (bless once with CAA_GOLDEN_BLESS=1)");
    if golden != tables {
        let line = golden
            .lines()
            .zip(tables.lines())
            .take_while(|(g, t)| g == t)
            .count();
        panic!(
            "caa tables drifted from {path} at line {}:\n  golden: {}\n  now:    {}",
            line + 1,
            golden.lines().nth(line).unwrap_or("<end of file>"),
            tables.lines().nth(line).unwrap_or("<end of output>"),
        );
    }
}
