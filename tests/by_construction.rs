//! Source scans for the things the workspace promises *by construction*
//! (CI's `check` job also runs them as a step of their own):
//!
//! * the network a `System` runs on, and the runtime that drives it, are
//!   single-threaded code — outside their unit tests, the simulator's core
//!   and the runtime's context, rounds, system, membership, objects and
//!   protocol modules name no `Mutex`, `Condvar`, atomic or `parking_lot`
//!   item;
//! * a run has one owner, and the types say so: outside unit tests and
//!   comments, the core, the runtime and the production cell name `Send`
//!   or `Sync` only where the observer hook is declared; no mutex is left
//!   in the runtime, the bench crate or the production cell; `parking_lot`
//!   is a dependency of the simulator (its thread host) and the harness
//!   (the trace recorder) alone; the scenario executor keeps no
//!   thread-local; and the harness has one entry point per job — one
//!   execute function, one plan runner;
//! * `unsafe` is written in `crates/fiber` and nowhere else in library
//!   sources (`crates/*/src`, `compat/*/src`, `perf/src`, `src`). Test and
//!   bench targets are outside the scan: two of them wrap the global
//!   allocator to count allocations;
//! * a sweep worker's per-seed path formats, copies and hashes no string:
//!   the seed runners, the worker loop, the scenario executor and the
//!   metrics recorder's per-run functions name no `format!`, `to_string`,
//!   `to_owned` or by-name counter, and nothing in the harness adds to a
//!   wall-clock counter by name;
//! * the tooling has one front door: one `caa` binary over one argument
//!   parser, one worker pool, one bench target, two `compat/` shims — and
//!   every committed `BENCH*.json` parses;
//! * names are interned symbols: outside their unit tests the core, the
//!   simulator, the runtime, the harness and the telemetry crate hold no
//!   reference-counted text but the free-text detail an `Exception` may
//!   carry, `ExceptionId` and `Name` are `Copy`, and what managed the
//!   counts before (the frame's parts, shared span names) is gone;
//! * the workspace hashes bytes one way: no FNV-1a identifier or offset
//!   constant is left in any crate's `src` (`caa_harness::trace::hash64`
//!   is the one hash; `perf/` keeps its own round digest);
//! * plans are edited one way: `caa_harness::edit` is the one grammar the
//!   fuzzer draws from and the shrinker drops from, and a recipe the one
//!   corpus format — the mutator table, the shrink-step type, the mutation
//!   seed list, index-addressed action edits, their two files and the
//!   shrinker's old module are gone.

use std::fs;
use std::path::{Path, PathBuf};

const SINGLE_THREADED: [&str; 7] = [
    "crates/simnet/src/simcore.rs",
    "crates/runtime/src/context.rs",
    "crates/runtime/src/rounds.rs",
    "crates/runtime/src/system.rs",
    "crates/runtime/src/membership.rs",
    "crates/runtime/src/objects.rs",
    "crates/runtime/src/protocol.rs",
];

const THREAD_ITEMS: [&str; 4] = ["Mutex", "Condvar", "Atomic", "parking_lot"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("a readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// A source file's code outside its unit tests (its trailing
/// `#[cfg(test)] mod`).
fn outside_unit_tests(source: &str) -> &str {
    source
        .rfind("\n#[cfg(test)]\n")
        .map_or(source, |tests| &source[..tests])
}

/// The files under the `dirs` whose code outside unit tests names `item`,
/// relative to the workspace root and sorted.
fn files_naming(item: &str, dirs: &[&str]) -> Vec<String> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_files(&root().join(dir), &mut files);
    }
    let mut naming: Vec<String> = files
        .iter()
        .filter(|file| {
            let source = fs::read_to_string(file).expect("a readable source file");
            outside_unit_tests(&source).contains(item)
        })
        .map(|file| {
            let relative = file.strip_prefix(root()).expect("under the root");
            relative.to_string_lossy().into_owned()
        })
        .collect();
    naming.sort();
    naming
}

/// The names in `dir`, sorted.
fn entries(dir: &str) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(root().join(dir))
        .map(|entries| {
            entries
                .map(|entry| entry.expect("a readable directory entry").file_name())
                .map(|name| name.to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// Whether `line` uses the `unsafe` keyword (a block, function, impl,
/// trait, extern block or attribute) — not `unsafe_code` in a lint
/// attribute, and not the word in prose.
fn uses_unsafe(line: &str) -> bool {
    line.match_indices("unsafe").any(|(at, word)| {
        let before = line[..at].chars().next_back();
        let after = line[at + word.len()..].trim_start();
        !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
            && (after.starts_with(['{', '('])
                || ["fn ", "impl", "extern", "trait "]
                    .iter()
                    .any(|keyword| after.starts_with(keyword)))
    })
}

#[test]
fn the_core_and_the_runtime_name_no_thread_primitive() {
    for file in SINGLE_THREADED {
        let source = fs::read_to_string(root().join(file)).expect(file);
        for (number, line) in outside_unit_tests(&source).lines().enumerate() {
            for item in THREAD_ITEMS {
                assert!(
                    !line.contains(item),
                    "{file}:{}: `{item}` in code that is single-threaded by construction: {line}",
                    number + 1
                );
            }
        }
    }
}

#[test]
fn unsafe_is_written_in_the_fiber_crate_only() {
    let mut files = Vec::new();
    for tree in ["crates", "compat"] {
        for member in fs::read_dir(root().join(tree)).expect(tree) {
            let member = member.expect("a readable directory entry").path();
            if !member.ends_with("fiber") {
                rust_files(&member.join("src"), &mut files);
            }
        }
    }
    rust_files(&root().join("src"), &mut files);
    rust_files(&root().join("perf/src"), &mut files);
    assert!(files.len() > 50, "the scan found the sources: {files:?}");
    for file in files {
        let source = fs::read_to_string(&file).expect("a readable source file");
        for (number, line) in source.lines().enumerate() {
            assert!(
                !uses_unsafe(line),
                "{}:{}: `unsafe` outside crates/fiber: {line}",
                file.display(),
                number + 1
            );
        }
    }
}

#[test]
fn the_unsafe_scan_sees_what_it_looks_for() {
    for line in [
        "    unsafe { arch::switch(slot, *slot) };",
        "pub(crate) unsafe fn prepare(top: *mut u8) {}",
        "unsafe impl Send for Stack {}",
        "#[unsafe(naked)]",
        "unsafe extern \"C\" fn entry() {}",
    ] {
        assert!(uses_unsafe(line), "{line}");
    }
    for line in [
        "#![forbid(unsafe_code)]",
        "#![deny(unsafe_op_in_unsafe_fn)]",
        "//! no `unsafe` outside `crates/fiber`",
    ] {
        assert!(!uses_unsafe(line), "{line}");
    }
    let fiber = fs::read_to_string(root().join("crates/fiber/src/lib.rs")).expect("fiber");
    assert!(fiber.lines().any(uses_unsafe), "the fiber crate has some");
}

/// Whether `line`, with any trailing comment cut off, names the `Send`
/// or the `Sync` trait — the word, not `Sender` or `SyncError`.
fn names_send_or_sync(line: &str) -> bool {
    let code = line.split_once("//").map_or(line, |(code, _)| code);
    ["Send", "Sync"].iter().any(|word| {
        code.match_indices(word).any(|(at, _)| {
            let before = code[..at].chars().next_back();
            let after = code[at + word.len()..].chars().next();
            !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
                && !after.is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    })
}

#[test]
fn a_run_is_owned_by_one_thread_in_the_types() {
    let mut files = Vec::new();
    for dir in [
        "crates/core/src",
        "crates/runtime/src",
        "crates/prodcell/src",
    ] {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 20, "the scan found the sources: {files:?}");
    files.sort();
    let mut bounds: Vec<String> = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("a readable source file");
        let relative = file.strip_prefix(root()).expect("under the root");
        for line in outside_unit_tests(&source).lines() {
            if !line.trim_start().starts_with("//") && names_send_or_sync(line) {
                bounds.push(format!("{}: {}", relative.display(), line.trim()));
            }
        }
    }
    assert_eq!(
        bounds,
        ["crates/runtime/src/observe.rs: pub trait Observer: Send + Sync {"],
        "a run's participants are fibers of one thread: what they share needs no thread bound"
    );
    assert_eq!(
        files_naming(
            "Mutex",
            &[
                "crates/runtime/src",
                "crates/bench/src",
                "crates/prodcell/src"
            ]
        ),
        [""; 0],
        "the simulation orders what a run shares; no lock does"
    );
    let dependents: Vec<String> = entries("crates")
        .into_iter()
        .filter(|krate| {
            let manifest = root().join("crates").join(krate).join("Cargo.toml");
            fs::read_to_string(manifest).is_ok_and(|text| text.contains("parking_lot"))
        })
        .collect();
    assert_eq!(
        dependents,
        ["harness", "simnet"],
        "`parking_lot` serves the simulator's thread host and the trace recorder alone"
    );
    assert_eq!(
        files_naming("thread_local!", &["crates/harness/src"]),
        [
            "crates/harness/src/oracle.rs",
            "crates/harness/src/spans.rs",
            "crates/harness/src/trace.rs",
        ],
        "the handlers find the running plan through their arena, not a thread-local"
    );
}

#[test]
fn the_bound_scan_sees_what_it_looks_for() {
    for line in [
        "pub trait ResolverState: Send {",
        "pub type Handler = Rc<dyn Fn(&mut Ctx) -> Step<HandlerVerdict> + Send + Sync>;",
        "impl<T: Clone + Send + 'static> SharedObject<T> {",
        "fn assert_traits<T: Sync>(_: &T) {}",
    ] {
        assert!(names_send_or_sync(line), "{line}");
    }
    for line in [
        "let (sender, receiver) = std::sync::mpsc::channel::<Sender>();",
        "use std::sync::Arc;",
        "fn send_to_role(&mut self) {} // not Send",
        "SyncError::Poisoned",
    ] {
        assert!(!names_send_or_sync(line), "{line}");
    }
}

/// The top-level `pub fn`s of `source`, outside its unit tests.
fn public_functions(source: &str) -> Vec<&str> {
    outside_unit_tests(source)
        .lines()
        .filter_map(|line| line.strip_prefix("pub fn "))
        .map(|rest| rest.split(['(', '<']).next().expect("a name"))
        .collect()
}

#[test]
fn the_harness_has_one_entry_point_per_job() {
    let read = |file: &str| fs::read_to_string(root().join(file)).expect(file);
    assert_eq!(
        public_functions(&read("crates/harness/src/exec.rs")),
        ["execute_in"],
        "one way to execute a plan; a caller with no arena passes a fresh one"
    );
    assert_eq!(
        public_functions(&read("crates/harness/src/sweep.rs")),
        [
            "write_corpus_files",
            "merge_signatures",
            "run_plan_checked",
            "effective_workers",
            "run_workers",
            "sweep",
        ],
        "one way to run and check a plan; a seed's plan is `ScenarioPlan::generate`'s"
    );
}

/// The body of `fn name` in `source`: from its signature's opening brace
/// to the matching one.
fn function_body<'a>(source: &'a str, name: &str) -> &'a str {
    let at = source
        .find(&format!("fn {name}("))
        .or_else(|| source.find(&format!("fn {name}<")))
        .unwrap_or_else(|| panic!("no `fn {name}`"));
    let open = at + source[at..].find(" {\n").expect("a body") + 1;
    let mut depth = 0;
    for (offset, byte) in source[open..].bytes().enumerate() {
        match byte {
            b'{' => depth += 1,
            b'}' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return &source[open..=open + offset];
        }
    }
    panic!("`fn {name}` never closes");
}

#[test]
fn the_per_seed_path_names_no_string_work() {
    const STRING_WORK: [&str; 4] = ["add_named", "format!", "to_string", "to_owned"];
    let read = |file: &str| fs::read_to_string(root().join(file)).expect(file);
    let sweep = read("crates/harness/src/sweep.rs");
    let metrics = read("crates/harness/src/metrics.rs");
    let exec = read("crates/harness/src/exec.rs");
    let mut scanned: Vec<(String, &str)> =
        vec![("harness::exec".to_owned(), outside_unit_tests(&exec))];
    // The public plan runner, what it delegates to, and the worker loop
    // (the whole of `sweep`: what follows the loop runs once per sweep).
    for name in ["run_plan_checked", "run_plan_from", "sweep"] {
        scanned.push((format!("sweep::{name}"), function_body(&sweep, name)));
    }
    for name in ["record_run", "record_net_stats", "record_sched_stats"] {
        let body = function_body(&metrics, name);
        scanned.push((format!("MetricsRecorder::{name}"), body));
    }
    for (what, code) in scanned {
        assert!(code.lines().count() >= 3, "{what}: scanned {code:?}");
        for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
            for word in STRING_WORK {
                assert!(
                    !line.contains(word),
                    "{what} names `{word}` on the per-seed path: {line}"
                );
            }
        }
    }
    assert_eq!(
        files_naming("add_wall(\"", &["crates/harness/src"]),
        [""; 0],
        "wall-clock counters are added to by handle (`WallCounter`)"
    );
}

#[test]
fn the_tooling_has_one_front_door() {
    assert_eq!(entries("crates/bench/src/bin"), ["caa.rs"]);
    assert_eq!(entries("crates/bench/benches"), ["layers.rs"]);
    assert_eq!(
        entries("crates/harness/examples"),
        [""; 0],
        "the harness's command line is `caa`, not an example"
    );
    assert_eq!(entries("compat"), ["README.md", "parking_lot", "proptest"]);
    assert_eq!(
        files_naming("env::args", &["crates"]),
        ["crates/bench/src/bin/caa.rs"],
        "one argument parser, fed by one binary"
    );
    assert_eq!(
        files_naming("thread::scope", &["crates/harness/src", "crates/bench/src"]),
        ["crates/harness/src/sweep.rs"],
        "one worker pool"
    );
}

#[test]
fn every_committed_bench_document_parses() {
    let documents: Vec<String> = entries("")
        .into_iter()
        .filter(|name| name.starts_with("BENCH") && name.ends_with(".json"))
        .collect();
    assert!(
        documents.len() >= 3 && documents.iter().any(|name| name == "BENCHMARK.json"),
        "{documents:?}"
    );
    for name in documents {
        let text = fs::read_to_string(root().join(&name)).expect("a readable document");
        if let Err(e) = caa_telemetry::json::parse(&text) {
            panic!("{name} does not parse: {e}");
        }
    }
}

/// Where a run's names live; `Exception::detail` is free text, not a name.
const NAMED: [&str; 5] = [
    "crates/core/src",
    "crates/simnet/src",
    "crates/runtime/src",
    "crates/harness/src",
    "crates/telemetry/src",
];

#[test]
fn names_are_symbols_not_reference_counts() {
    let mut files = Vec::new();
    for dir in NAMED {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 40, "the scan found the sources: {files:?}");
    let mut counted: Vec<String> = Vec::new();
    for file in &files {
        let source = fs::read_to_string(file).expect("a readable source file");
        let relative = file.strip_prefix(root()).expect("under the root");
        for line in outside_unit_tests(&source).lines() {
            if line.contains("Arc<str>") {
                counted.push(format!("{}: {}", relative.display(), line.trim()));
            }
        }
    }
    assert_eq!(
        counted,
        ["crates/core/src/exception.rs: detail: Option<Arc<str>>,"],
        "a name held as reference-counted text: intern it (`caa_core::name::Name`)"
    );
    for gone in [
        "FrameParts",
        "into_parts",
        "shared_name",
        "SpanName::shared",
    ] {
        assert_eq!(
            files_naming(gone, &["crates", "src", "examples"]),
            [""; 0],
            "`{gone}` managed what frames reset in place and interned names replaced"
        );
    }
}

#[test]
fn exception_ids_and_names_are_copy() {
    fn copy<T: Copy>() {}
    copy::<caa_core::exception::ExceptionId>();
    copy::<caa_core::name::Name>();
}

/// Every crate's `src` directory.
fn crate_sources() -> Vec<String> {
    entries("crates")
        .iter()
        .map(|krate| format!("crates/{krate}/src"))
        .collect()
}

#[test]
fn the_workspace_hashes_bytes_one_way() {
    let sources = crate_sources();
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    assert!(
        files_naming("", &sources).len() > 50,
        "the scan found the sources"
    );
    for fnv in ["fnv1a", "0xcbf2_9ce4_8422_2325"] {
        assert_eq!(
            files_naming(fnv, &sources),
            [""; 0],
            "bytes are hashed by `caa_harness::trace::hash64`, not `{fnv}`"
        );
    }
}

#[test]
fn plans_are_edited_one_way() {
    let sources = crate_sources();
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    assert!(
        files_naming("edit::", &sources).len() > 2,
        "the scan found the edit grammar's users"
    );
    for gone in [
        "MUTATORS",
        "WorkloadStep",
        "Lineage",
        "with_action_mut",
        "lineage.txt",
        "workload.txt",
    ] {
        assert_eq!(
            files_naming(gone, &sources),
            [""; 0],
            "`{gone}` belongs to an edit vocabulary `caa_harness::edit` replaced"
        );
    }
    assert!(
        !root().join("crates/harness/src/bisect.rs").exists(),
        "shrinking lives in `caa_harness::edit`"
    );
}
