//! Source scans for the things the workspace promises *by construction*
//! (CI's `check` job also runs them as a step of their own):
//!
//! * the network a `System` runs on, and the runtime that drives it, are
//!   single-threaded code — outside their unit tests, the simulator's core,
//!   the runtime's context, system and objects modules and the protocol's
//!   rounds, membership and protocol modules name no `Mutex`, `Condvar`,
//!   atomic or `parking_lot` item;
//! * the protocol is a library with no I/O: `caa-protocol` depends on the
//!   core and the exception graphs alone, none of its files names the
//!   simulator, the fiber host, a `RefCell` or a lock, and the baselines
//!   depend on it, not on the runtime or the simulator;
//! * a run has one owner, and the types say so: outside unit tests and
//!   comments, the core, the protocol, the runtime and the production cell name neither
//!   `Send` nor `Sync`; no mutex is left in the runtime, the harness, the
//!   bench crate or the production cell; no crate depends on
//!   `parking_lot` (the simulator's thread host locks through `std::sync`);
//!   the scenario executor keeps no thread-local; and the harness has one
//!   entry point per job — one execute function, one plan runner;
//! * a run records into its own log, which `System::run` hands back: no
//!   library source names the observer and tap hooks, the trace recorder
//!   that served them or the records they were called with (`Event`,
//!   `TapEvent`, which stated an entry's instant, thread and action a
//!   second time), and `SystemBuilder` has one setting for it, `record`;
//! * a log entry keeps each fact of its run once: `observe::Entry` names
//!   no `ActionId` (the log keeps each instance's id once, and an entry
//!   its number), `observe::Net` holds no `&'static str` (a message's
//!   class is its `MessageKind`), and no harness reader — the oracles,
//!   the metrics, the span tree, the path coverage — compares a message
//!   class by its text;
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
//!   parser, one worker pool, one bench target, one `compat/` shim — and
//!   every committed `BENCH*.json` parses;
//! * names are interned symbols: outside their unit tests the core, the
//!   simulator, the runtime, the harness and the telemetry crate hold no
//!   reference-counted text but the free-text detail an `Exception` may
//!   carry, `ExceptionId` and `Name` are `Copy`, and what managed the
//!   counts before (the frame's parts, shared span names) is gone;
//! * the workspace hashes bytes one way: no FNV-1a identifier or offset
//!   constant is left in any crate's `src` (`caa_harness::trace::hash64`
//!   is the one hash; `perf/` keeps its own round digest);
//! * no crate's `src` reads an environment variable (`env::var`,
//!   `var_os`) outside its unit tests: a run is seen through its log
//!   (`caa replay <seed>`, or `SystemBuilder::record` and
//!   `Trace::from_log(..).render()`), not a switch like the old
//!   `CAA_TRACE`. `perf/src/host.rs` keeps its own re-exec variables and
//!   is outside the scan;
//! * every wait is a round boundary: no source in the workspace names the
//!   simulator's retired blocking calls (`park_wait`, `recv_deadline`,
//!   `recv_timeout`) — an endpoint blocks in its one `wait`; the runtime's
//!   context names no object-arbitration call (an object's arbitration
//!   lives in `runtime::objects`), has no ad-hoc `protocol_error`, and
//!   builds `RuntimeError::Protocol` in one place, `Ctx::perform`'s arm for
//!   the `Violation`s the rounds return — beside which only `system.rs`'s
//!   panic and unwind reports and `error.rs`'s conversion of a simulator
//!   error build one;
//! * plans are edited one way: `caa_harness::edit` is the one grammar the
//!   fuzzer draws from and the shrinker drops from, and a recipe the one
//!   corpus format — the mutator table, the shrink-step type, the mutation
//!   seed list, index-addressed action edits, their two files and the
//!   shrinker's old module are gone.
//! * a view has one membership semantics, the set-wise one in
//!   `caa_protocol::membership`: no source names the epoch-step view
//!   (`MembershipView`, `ViewChangeOutcome`, `sync_to`), the core has no
//!   `membership` module, no message but a `JoinGrant` carries an epoch
//!   (`Commit` has no `view_epoch`, `ViewChange` no `epoch`), and the
//!   context counts a view step in one place;
//! * `Ctx` performs, the frame decides: the runtime's context takes no
//!   view step itself (it calls no `adopt_removals`, no `suspect(`, no
//!   `synthesize_crashes`), has no route of its own for one (no
//!   `adopt_removal_set`, `absorb_active_control`, `suspect_round` or
//!   `observe_timeout`), and builds a `Message::ViewChange` at one site —
//!   the announcement of an eviction `rounds` decided;
//! * the frame keeps its state private: `caa_protocol::Frame` declares no
//!   public field but its identity, and its parts (`Inboxes`, `Recovery`,
//!   `SignalTable`, `ExitBarrier`) are not public — a host moves them on
//!   through the frame's steps, in the order the protocol fixes;
//! * a delivered message meets no heap and no pair table: outside its unit
//!   tests the simulator's core names no `BinaryHeap` (a mailbox is a
//!   sorted deque), and the signal table, its exchanges and the exit
//!   barrier declare no `InlineVec<(ThreadId, …)>` row (a round's tallies
//!   are thread sets);
//! * what happens next is the simulator's one decision: the simulator's
//!   core has one kind of wait (no `BlockKind`, no `sleep_turn`), sets a
//!   wake-up point in one function (`ActorSlot::rearm`, the one
//!   `wake_at =`) and keeps no fiber stack; no source names
//!   `take_runnable`, `take_stack` or `park_stack` (the run order is
//!   `next_runnable`'s, which both hosts read, and the runtime pools its
//!   own stacks);
//! * the runtime's and the protocol's sources carry no `allow(dead_code)`:
//!   code only tests call is `#[cfg(test)]`;
//! * a scenario space is named one way: `caa_harness::plan::SPACES` is the
//!   one table, the bench crate's sources reach the non-default spaces
//!   through it alone, and no source, CI file or doc names the flags it
//!   replaced (`--multi-crash`, `--prodcell`);
//! * the per-message chain inlines across crate lines: outside their unit
//!   tests, every function with a body in the simulator's network and the
//!   protocol's membership carries `#[inline]`, `#[inline(always)]` or
//!   `#[cold]` (under fat LTO these two modules still read faster marked;
//!   the simulator's core and host and the protocol's rounds do not), and
//!   the functions a resumed fiber returns through — `Network::block_on`,
//!   `Endpoint::{recv, wait, sleep}`, `Fibers::{with, turn}`, `Ctx::wait`,
//!   `Fiber::resume` — are `#[inline(always)]`;
//! * the release profile is one file: `.cargo/config.toml`'s
//!   `[profile.release]` (fat LTO), which cargo reads for every build
//!   started in the checkout, the benchmark's under `perf/` included; no
//!   workspace manifest has a `[profile` table, and `perf/Cargo.toml`'s
//!   own table repeats what the config file says and nothing else.

use std::fs;
use std::path::{Path, PathBuf};

const SINGLE_THREADED: [&str; 7] = [
    "crates/simnet/src/simcore.rs",
    "crates/runtime/src/context.rs",
    "crates/protocol/src/rounds.rs",
    "crates/runtime/src/system.rs",
    "crates/protocol/src/membership.rs",
    "crates/runtime/src/objects.rs",
    "crates/protocol/src/protocol.rs",
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

/// Whether `code` names `word` as a whole identifier: `Event`, not
/// `EventKind` or `ProtoEvent`.
fn names_word(code: &str, word: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    code.match_indices(word).any(|(at, _)| {
        !ident(code[..at].chars().next_back()) && !ident(code[at + word.len()..].chars().next())
    })
}

/// [`files_naming`] for `word` as a whole identifier.
fn files_naming_word(word: &str, dirs: &[&str]) -> Vec<String> {
    let mut naming = files_naming(word, dirs);
    naming.retain(|file| {
        let source = fs::read_to_string(root().join(file)).expect("a readable source file");
        names_word(outside_unit_tests(&source), word)
    });
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

/// The crates `crates/<krate>/Cargo.toml` names under `[dependencies]`.
fn dependencies(krate: &str) -> Vec<String> {
    let path = root().join("crates").join(krate).join("Cargo.toml");
    let manifest = fs::read_to_string(path).expect("a readable manifest");
    let (_, section) = manifest
        .split_once("\n[dependencies]\n")
        .expect("a [dependencies] section");
    section
        .lines()
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| {
            line.split(['.', ' ', '='])
                .next()
                .unwrap_or(line)
                .to_owned()
        })
        .collect()
}

#[test]
fn the_protocol_is_a_library_with_no_io() {
    assert_eq!(
        dependencies("protocol"),
        ["caa-core", "caa-exgraph"],
        "the protocol decides; where it runs and what is logged are the runtime's"
    );
    let mut files = Vec::new();
    rust_files(&root().join("crates/protocol/src"), &mut files);
    assert!(files.len() >= 4, "the scan found the sources: {files:?}");
    for file in &files {
        let source = fs::read_to_string(file).expect("a readable source file");
        for host in ["caa_simnet", "caa_fiber", "RefCell", "Mutex", "parking_lot"] {
            assert!(
                !source.contains(host),
                "{}: `{host}` — a frame is driven by whoever hands it messages",
                file.display()
            );
        }
    }
    let baselines = dependencies("baselines");
    assert!(baselines.iter().any(|krate| krate == "caa-protocol"));
    for host in ["caa-runtime", "caa-simnet", "caa-fiber"] {
        assert!(
            !baselines.iter().any(|krate| krate == host),
            "the baselines implement the protocol's trait and need no `{host}`"
        );
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
        "crates/protocol/src",
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
        bounds, [""; 0],
        "a run's participants are fibers of one thread: what they share needs no thread bound"
    );
    assert_eq!(
        files_naming(
            "Mutex",
            &[
                "crates/runtime/src",
                "crates/harness/src",
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
        dependents, [""; 0],
        "no crate depends on parking_lot: the thread host locks through `std::sync`"
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
fn a_run_records_into_its_own_log_through_no_hook() {
    let mut dirs: Vec<String> = ["crates", "compat"]
        .iter()
        .flat_map(|parent| {
            entries(parent)
                .into_iter()
                .map(move |krate| format!("{parent}/{krate}/src"))
        })
        .collect();
    dirs.extend(["perf/src".to_owned(), "src".to_owned()]);
    let dirs: Vec<&str> = dirs.iter().map(String::as_str).collect();
    assert!(dirs.len() > 10, "the scan found the crates: {dirs:?}");
    for hook in ["Observer", "NetTap", "TraceRecorder"] {
        assert_eq!(
            files_naming(hook, &dirs),
            [""; 0],
            "`{hook}` is gone: a run appends to its own log and hands it back"
        );
    }
    // A log entry states its instant, thread and action once: the hooks'
    // records that carried them again are gone with the hooks.
    for record in ["TapEvent", "action_serial"] {
        assert_eq!(
            files_naming(record, &dirs),
            [""; 0],
            "`{record}` is gone: an entry states each fact once"
        );
    }
    assert_eq!(
        files_naming_word("Event", &dirs),
        [""; 0],
        "`observe::Event` is gone: an entry states each fact once"
    );
    // One builder setting records a run.
    let system = fs::read_to_string(root().join("crates/runtime/src/system.rs")).expect("system");
    let builder = system
        .split_once("impl SystemBuilder {")
        .expect("the builder's methods")
        .1;
    let settings: Vec<&str> = builder
        .lines()
        .filter_map(|line| line.trim().strip_prefix("pub fn "))
        .filter_map(|line| line.split_once("(mut self").map(|(name, _)| name))
        .collect();
    assert_eq!(
        settings,
        [
            "latency",
            "seed",
            "ack_timeout",
            "faults",
            "resolution_delay",
            "protocol",
            "record"
        ]
    );
}

/// Whether `line` is code that spells a message class as text: a quoted
/// `MessageKind` label, which can only be compared with a class label.
fn compares_a_class_by_text(line: &str) -> bool {
    !line.trim_start().starts_with("//")
        && caa_core::message::MessageKind::ALL
            .iter()
            .any(|kind| line.contains(&format!("\"{kind}\"")))
}

#[test]
fn a_log_entry_keeps_each_fact_of_its_run_once() {
    let read = |file: &str| fs::read_to_string(root().join(file)).expect(file);
    let observe = read("crates/runtime/src/observe.rs");
    let entry = struct_body(&observe, "Entry");
    assert!(entry.contains("pub label: u32,"), "scanned {entry:?}");
    assert!(
        !names_word(entry, "ActionId"),
        "an entry holds its instance's number; the log keeps each `ActionId` once: {entry}"
    );
    let net = struct_body(&observe, "Net");
    assert!(net.contains("pub dst: PartitionId,"), "scanned {net:?}");
    assert!(
        !net.contains("&'static str"),
        "a message's class is its `MessageKind`, not its label: {net}"
    );
    for reader in ["oracle", "metrics", "spans", "sweep"] {
        let file = format!("crates/harness/src/{reader}.rs");
        let source = read(&file);
        let code = outside_unit_tests(&source);
        assert!(code.lines().count() > 200, "scanned {file}");
        for line in code.lines() {
            assert!(
                !compares_a_class_by_text(line),
                "{file} compares a message class by its text (compare `Net::kind`): {line}"
            );
        }
    }
}

#[test]
fn the_class_scan_sees_what_it_looks_for() {
    for line in [
        "if matches!(send.class, \"Exception\" | \"Suspended\" | \"Commit\") {",
        "row.fanout += u64::from(net.class == \"toBeSignalled\");",
        "let app = class == \"App\";",
    ] {
        assert!(compares_a_class_by_text(line), "{line}");
    }
    for line in [
        "row.fanout += u64::from(net.kind == MessageKind::ToBeSignalled);",
        "json::write_str(&mut body, segment.class.label());",
        "// the \"Commit\" broadcast",
        "let name = \"Committed\";",
    ] {
        assert!(!compares_a_class_by_text(line), "{line}");
    }
}

#[test]
fn the_word_scan_sees_what_it_looks_for() {
    for line in [
        "use caa_runtime::observe::{Event, EventKind};",
        "fn push(&mut self, event: observe::Event) {",
        "Event",
    ] {
        assert!(names_word(line, "Event"), "{line}");
    }
    for line in [
        "use caa_runtime::observe::{EntryKind, EventKind};",
        "ProtoEvent::LocalRaise(e)",
        "/// Events by value",
        "fn events_of(trace: &Trace) {}",
    ] {
        assert!(!names_word(line, "Event"), "{line}");
    }
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
    braced(source, at, &format!("fn {name}"))
}

/// The fields of `struct name` (of any visibility) in `source`, braces
/// included.
fn struct_body<'a>(source: &'a str, name: &str) -> &'a str {
    let header = format!("struct {name} {{\n");
    let at = source
        .find(&header)
        .unwrap_or_else(|| panic!("no `{header}`"));
    braced(source, at, &format!("struct {name}"))
}

/// From the first ` {` line end at or after `at` in `source` to the
/// matching closing brace.
fn braced<'a>(source: &'a str, at: usize, what: &str) -> &'a str {
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
    panic!("`{what}` never closes");
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
    assert_eq!(entries("compat"), ["README.md", "proptest"]);
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
const NAMED: [&str; 6] = [
    "crates/core/src",
    "crates/simnet/src",
    "crates/protocol/src",
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
fn no_library_crate_reads_an_environment_variable() {
    let sources = crate_sources();
    let sources: Vec<&str> = sources.iter().map(String::as_str).collect();
    assert!(
        files_naming("", &sources).len() > 50,
        "the scan found the sources"
    );
    for read in ["env::var", "var_os"] {
        assert_eq!(
            files_naming(read, &sources),
            [""; 0],
            "a run is seen through its log, not through an environment switch"
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

/// Every `.rs` file of the workspace's own code — crates, shims, the
/// facade, tests, examples and the benchmark — but this scan's.
fn workspace_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for dir in [
        "crates",
        "compat",
        "src",
        "tests",
        "examples",
        "perf/src",
        "perf/tests",
    ] {
        rust_files(&root().join(dir), &mut files);
    }
    files.retain(|file| !file.ends_with("tests/by_construction.rs"));
    files
}

#[test]
fn an_endpoint_blocks_in_one_wait() {
    let files = workspace_sources();
    assert!(files.len() > 100, "the scan found the sources: {files:?}");
    for file in &files {
        let source = fs::read_to_string(file).expect("a readable source file");
        for gone in ["park_wait", "recv_deadline", "recv_timeout"] {
            assert!(
                !source.contains(gone),
                "{}: `{gone}` — an endpoint blocks in its one `wait`",
                file.display()
            );
        }
    }
}

/// The runtime's context, whole (its unit tests too).
fn context_source() -> String {
    fs::read_to_string(root().join("crates/runtime/src/context.rs")).expect("context.rs")
}

#[test]
fn the_context_leaves_object_arbitration_to_the_objects() {
    let context = context_source();
    for call in [
        "enqueue_waiter",
        "try_access",
        "cancel_waiter",
        "AccessOutcome",
        "schedule_wake",
    ] {
        assert!(
            !context.contains(call),
            "context.rs names `{call}`: an object round is an `objects::Acquisition`"
        );
    }
}

#[test]
fn a_protocol_error_is_a_violation_a_round_returns() {
    assert_eq!(
        files_naming("protocol_error", &["crates/runtime/src"]),
        [""; 0],
        "a decision no correct run takes is a `rounds::Violation`"
    );
    // Where runtime code builds `RuntimeError::Protocol` (a match arm that
    // only reads one, like `Display`'s, builds nothing).
    let mut built = Vec::new();
    let mut files = Vec::new();
    rust_files(&root().join("crates/runtime/src"), &mut files);
    for file in &files {
        let source = fs::read_to_string(file).expect("a readable source file");
        let mut within = "";
        for line in outside_unit_tests(&source).lines() {
            let code = line.trim_start();
            if let Some(at) = code.find("fn ") {
                if !code.starts_with("//") {
                    let name = &code[at + 3..];
                    within = &name[..name.find(['(', '<']).unwrap_or(name.len())];
                }
            }
            let builds = code.contains("RuntimeError::Protocol(") && !code.contains(") =>");
            if builds && !code.starts_with("//") {
                let name = file.file_name().expect("a file").to_string_lossy();
                built.push(format!("{name}: {within}"));
            }
        }
    }
    built.sort();
    assert_eq!(
        built,
        [
            "context.rs: perform",
            "error.rs: from",
            "system.rs: host",
            "system.rs: spawn",
        ],
        "`RuntimeError::Protocol` is built for a round's `Violation` (in \
         `Ctx::perform`), a panic or an unwind that escaped (in `system.rs`) \
         and a simulator error converted (in `error.rs`) only"
    );
    let context = context_source();
    let perform = &context[context.find("fn perform(").expect("Ctx::perform")..];
    let arm = perform
        .lines()
        .position(|line| line.contains("RuntimeError::Protocol("))
        .expect("perform builds the error");
    assert!(
        perform
            .lines()
            .nth(arm - 1)
            .is_some_and(|line| { line.contains("RoundAction::Violation(") }),
        "`Ctx::perform` builds it in its `Violation` arm"
    );
}

#[test]
fn the_epoch_step_view_is_gone() {
    for file in &workspace_sources() {
        let source = fs::read_to_string(file).expect("a readable source file");
        for gone in ["MembershipView", "ViewChangeOutcome", "sync_to"] {
            assert!(
                !source.contains(gone),
                "{}: `{gone}` — a view adopts removal sets and readmissions \
                 (`caa_protocol::membership::FrameMembership`)",
                file.display()
            );
        }
    }
}

#[test]
fn the_core_has_no_membership_module() {
    let core = fs::read_to_string(root().join("crates/core/src/lib.rs")).expect("core lib.rs");
    assert!(
        !root().join("crates/core/src/membership.rs").exists() && !core.contains("mod membership"),
        "a view is the protocol's (`caa_protocol::membership`)"
    );
}

#[test]
fn no_message_but_a_join_grant_carries_an_epoch() {
    let message =
        fs::read_to_string(root().join("crates/core/src/message.rs")).expect("message.rs");
    assert!(
        !message.contains("view_epoch"),
        "a `Commit` carries the removed set alone: no receiver reads an epoch"
    );
    let at = message
        .find("    ViewChange {\n")
        .expect("Message::ViewChange");
    let fields = braced(&message, at, "Message::ViewChange");
    assert!(
        !fields
            .lines()
            .any(|line| line.trim_start().starts_with("epoch:")),
        "a `ViewChange` carries the removed set alone: no receiver reads an epoch"
    );
}

#[test]
fn the_context_counts_a_view_step_in_one_place() {
    assert_eq!(
        context_source().matches("view_changes +=").count(),
        1,
        "context.rs counts a local eviction and an adopted announcement \
         in one method"
    );
}

#[test]
fn the_context_performs_the_view_steps_the_frame_decides() {
    let context = context_source();
    for call in ["adopt_removals", "suspect(", "synthesize_crashes"] {
        assert!(
            !context.contains(call),
            "context.rs names `{call}`: a view step is decided in `rounds` \
             (`Frame::absorb`, `Round::expired`) and performed by `Ctx::perform`"
        );
    }
    for route in [
        "adopt_removal_set",
        "absorb_active_control",
        "suspect_round",
        "observe_timeout",
    ] {
        assert!(
            !context.contains(&format!("fn {route}")),
            "context.rs defines `{route}`: a view step has one route, a \
             `RoundAction` that `Ctx::perform` performs or an `Expiry` that \
             `Ctx::expire` does"
        );
    }
    assert_eq!(
        context.matches("Message::ViewChange").count(),
        1,
        "context.rs builds a `ViewChange` at one site, announcing an eviction \
         the round decided, and matches on none"
    );
}

#[test]
fn the_frame_keeps_its_state_private() {
    let source = fs::read_to_string(root().join("crates/protocol/src/rounds.rs")).expect("rounds");
    let rounds = outside_unit_tests(&source);
    let public: Vec<&str> = struct_body(rounds, "Frame<D>")
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("pub"))
        .collect();
    assert_eq!(
        public,
        ["pub id: Identity<D>,"],
        "a host reads a frame's identity and moves the rest on through the \
         frame's steps (`Frame::begin_recovery`, `Frame::vote_exit`, …)"
    );
    for part in ["Inboxes", "Recovery", "SignalTable", "ExitBarrier"] {
        assert!(
            !rounds.contains(&format!("pub struct {part} ")),
            "`{part}` is a part of the frame only the protocol names"
        );
    }
}

#[test]
fn a_delivered_message_meets_no_heap_and_no_pair_table() {
    let simcore = fs::read_to_string(root().join("crates/simnet/src/simcore.rs")).expect("simcore");
    assert!(
        !outside_unit_tests(&simcore).contains("BinaryHeap"),
        "simcore.rs names `BinaryHeap`: a mailbox is a `VecDeque` kept in \
         delivery order, which a send enters from the back and a receive \
         leaves at the front"
    );
    let rounds = fs::read_to_string(root().join("crates/protocol/src/rounds.rs")).expect("rounds");
    for table in ["SignalTable", "ExitBarrier", "Exchange"] {
        assert!(
            !struct_body(&rounds, table).contains("InlineVec<(ThreadId"),
            "`{table}` keeps a row per member: a round's tallies are \
             `ThreadSet`s, asked one bit per member"
        );
    }
}

#[test]
fn what_happens_next_is_the_simulators_one_decision() {
    let simcore = fs::read_to_string(root().join("crates/simnet/src/simcore.rs")).expect("simcore");
    for gone in ["BlockKind", "sleep_turn", "Stack"] {
        assert!(
            !names_word(&simcore, gone),
            "simcore.rs names `{gone}`: a wait is one `Wait`, and the runtime \
             keeps the fiber stacks"
        );
    }
    let code = outside_unit_tests(&simcore);
    let setter = code.find("    fn rearm(").expect("ActorSlot::rearm");
    assert_eq!(
        (code.matches("wake_at =").count(), code.find("wake_at =")),
        (1, code[setter..].find("wake_at =").map(|at| setter + at)),
        "a wake-up point is set in one function, `ActorSlot::rearm`"
    );
    let files = workspace_sources();
    assert!(files.len() > 100, "the scan found the sources: {files:?}");
    for file in &files {
        let source = fs::read_to_string(file).expect("a readable source file");
        for gone in ["take_runnable", "take_stack", "park_stack"] {
            assert!(
                !source.contains(gone),
                "{}: `{gone}` — the network says who runs next \
                 (`FiberNetwork::next_runnable`), and `System` pools its stacks",
                file.display()
            );
        }
    }
}

#[test]
fn the_runtime_allows_no_dead_code() {
    let mut files = Vec::new();
    rust_files(&root().join("crates/runtime/src"), &mut files);
    rust_files(&root().join("crates/protocol/src"), &mut files);
    assert!(files.len() > 5, "the scan found the sources: {files:?}");
    for file in files {
        let source = fs::read_to_string(&file).expect("a readable source file");
        assert!(
            !source.contains("allow(dead_code)"),
            "{}: code only tests call is `#[cfg(test)]`",
            file.display()
        );
    }
}

#[test]
fn a_scenario_space_is_named_one_way() {
    assert_eq!(
        files_naming("pub const SPACES", &["crates"]),
        ["crates/harness/src/plan.rs"],
        "one table of scenario spaces"
    );
    for constructor in [
        "ScenarioConfig::object_heavy",
        "ScenarioConfig::multi_crash",
    ] {
        assert_eq!(
            files_naming(constructor, &["crates/bench/src"]),
            [""; 0],
            "a command names its space from the table, not by `{constructor}`"
        );
    }
    let mut files = workspace_sources();
    for doc in [
        ".github/workflows/ci.yml",
        "README.md",
        "docs/ARCHITECTURE.md",
        "compat/README.md",
        "crates/fiber/README.md",
        "perf/README.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        files.push(root().join(doc));
    }
    for file in &files {
        let text = fs::read_to_string(file).expect("a readable file");
        for gone in ["--multi-crash", "--prodcell"] {
            assert!(
                !text.contains(gone),
                "{}: `{gone}` — a command takes `--space <name>`, and the \
                 production-cell section is a fixed 32 runs",
                file.display()
            );
        }
    }
}

/// The modules of a message's send, wait and round steps on their way from
/// `Ctx` whose annotations still pay under fat LTO: `Endpoint` / `Network`
/// in the simulator, `FrameMembership` / `ThreadSet` in the protocol.
/// Without them `paper` or `mixed` read below the noise; `simcore.rs`,
/// `host.rs` and `rounds.rs` read the same with or without theirs, and
/// carry none (docs/ARCHITECTURE.md, "The release profile").
const PER_MESSAGE_CHAIN: [&str; 2] = [
    "crates/simnet/src/net.rs",
    "crates/protocol/src/membership.rs",
];

/// The functions every blocking point of a participant returns through
/// after a fiber switch, by file: forced inline, because a resumed fiber
/// mispredicts every return it makes before its next call. A participant
/// that parks in a run hands the CPU on through `transfer`, and is handed
/// it back there.
const ALWAYS_INLINED: [(&str, &str); 9] = [
    ("crates/simnet/src/net.rs", "block_on"),
    ("crates/simnet/src/net.rs", "recv"),
    ("crates/simnet/src/net.rs", "wait"),
    ("crates/simnet/src/net.rs", "sleep"),
    ("crates/simnet/src/host.rs", "with"),
    ("crates/simnet/src/host.rs", "turn"),
    ("crates/runtime/src/context.rs", "wait"),
    ("crates/fiber/src/lib.rs", "resume"),
    ("crates/fiber/src/lib.rs", "transfer"),
];

/// The name of the function `line` declares, if it declares one.
fn declared_function(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    for prefix in ["pub(crate) ", "pub(super) ", "pub ", "const ", "unsafe "] {
        rest = rest.strip_prefix(prefix).unwrap_or(rest);
    }
    let name = rest.strip_prefix("fn ")?;
    let end = name
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(name.len());
    Some(&name[..end])
}

/// Whether the signature starting `lines` goes on to a body (`{`) rather
/// than ending as a prototype (`;`), brackets skipped.
fn has_body(lines: &[&str]) -> bool {
    let mut depth = 0;
    for c in lines.iter().flat_map(|line| line.chars()) {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            '{' if depth == 0 => return true,
            ';' if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// The attribute and doc lines directly above line `i` of `lines`, trimmed,
/// nearest first.
fn attributes_above<'a>(lines: &'a [&'a str], i: usize) -> impl Iterator<Item = &'a str> + 'a {
    lines[..i]
        .iter()
        .rev()
        .map(|line| line.trim())
        .take_while(|line| line.starts_with("#[") || line.starts_with("///"))
}

/// The functions with a body in `code` whose attributes say nothing about
/// inlining: neither `#[inline]`, `#[inline(always)]` nor `#[cold]`.
fn uninlined_functions(code: &str) -> Vec<&str> {
    let lines: Vec<&str> = code.lines().collect();
    (0..lines.len())
        .filter_map(|i| Some((i, declared_function(lines[i])?)))
        .filter(|&(i, _)| has_body(&lines[i..]))
        .filter(|&(i, _)| {
            !attributes_above(&lines, i)
                .any(|line| ["#[inline]", "#[inline(always)]", "#[cold]"].contains(&line))
        })
        .map(|(_, name)| name)
        .collect()
}

#[test]
fn the_per_message_chain_inlines_across_crate_lines() {
    for file in PER_MESSAGE_CHAIN {
        let source = fs::read_to_string(root().join(file)).expect("a readable source file");
        let code = outside_unit_tests(&source);
        assert!(
            code.lines().filter_map(declared_function).count() > 3,
            "{file}: the scan finds its functions"
        );
        assert_eq!(
            uninlined_functions(code),
            [""; 0],
            "{file}: a function on the per-message chain says how it inlines \
             into `Ctx`'s crate — `#[inline]`, `#[inline(always)]`, or \
             `#[cold]` for a once-per-run or error path"
        );
    }
}

#[test]
fn the_blocking_chain_is_always_inlined() {
    for (file, function) in ALWAYS_INLINED {
        let source = fs::read_to_string(root().join(file)).expect("a readable source file");
        let lines: Vec<&str> = outside_unit_tests(&source).lines().collect();
        let forced = (0..lines.len())
            .filter(|&i| declared_function(lines[i]) == Some(function))
            .any(|i| attributes_above(&lines, i).any(|line| line.starts_with("#[inline(always)]")));
        assert!(forced, "{file}: `{function}` is `#[inline(always)]`");
    }
}

#[test]
fn the_inline_scan_sees_what_it_looks_for() {
    let code = "\
impl Core {
    /// Documented.
    #[must_use]
    #[inline]
    pub fn marked(&self) -> u32 {
        0
    }

    #[cold]
    pub(crate) fn once(&mut self) {}

    #[inline(never)]
    fn refused(&self) {}

    fn bare<F>(f: F) -> [u8; 2]
    where
        F: Fn(),
    {
        [0; 2]
    }
}

trait Host {
    fn prototype(&self) -> [u8; 2];
}
";
    assert_eq!(uninlined_functions(code), ["refused", "bare"]);
    assert_eq!(declared_function("    pub const fn f() {}"), Some("f"));
    assert_eq!(declared_function("    // fn f() {}"), None);
}

/// The `key = value` lines of `[table]` in the TOML text `toml`, in order
/// (comments and blank lines skipped), or `None` when it has no such table.
fn toml_table<'a>(toml: &'a str, table: &str) -> Option<Vec<(&'a str, &'a str)>> {
    let header = format!("[{table}]");
    let mut lines = toml.lines().map(str::trim);
    lines.by_ref().find(|line| *line == header)?;
    Some(
        lines
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .filter_map(|line| line.split_once('='))
            .map(|(key, value)| (key.trim(), value.trim()))
            .collect(),
    )
}

#[test]
fn the_release_profile_is_one_file() {
    let config = fs::read_to_string(root().join(".cargo/config.toml"))
        .expect(".cargo/config.toml holds the release profile");
    let profile = toml_table(&config, "profile.release").expect("a [profile.release] table");
    assert!(
        profile.contains(&("lto", "\"fat\"")),
        "every release build, the benchmark's included, is one fat-LTO unit: {profile:?}"
    );

    let mut manifests = vec!["Cargo.toml".to_owned()];
    for dir in ["crates", "compat"] {
        manifests.extend(
            entries(dir)
                .into_iter()
                .map(|krate| format!("{dir}/{krate}/Cargo.toml"))
                .filter(|manifest| root().join(manifest).exists()),
        );
    }
    assert!(
        manifests.len() > 10,
        "the scan finds the members: {manifests:?}"
    );
    let with_profiles: Vec<&String> = manifests
        .iter()
        .filter(|manifest| {
            let text = fs::read_to_string(root().join(manifest)).expect("a readable manifest");
            text.lines()
                .any(|line| line.trim_start().starts_with("[profile"))
        })
        .collect();
    assert_eq!(
        with_profiles, [""; 0],
        "a build profile lives in .cargo/config.toml, which cargo reads for \
         every build started in the checkout; a manifest's table would be a \
         second one"
    );

    // The benchmark is a workspace of its own and keeps a table of its own,
    // which the config file overrides key by key: it may repeat what the
    // config file says, and say nothing else.
    let perf = fs::read_to_string(root().join("perf/Cargo.toml")).expect("perf/Cargo.toml");
    for (key, value) in toml_table(&perf, "profile.release").unwrap_or_default() {
        let ours = profile.iter().find(|(name, _)| *name == key);
        assert_eq!(
            ours.map(|(_, set)| *set),
            Some(value),
            "perf/Cargo.toml's release profile sets `{key}`: .cargo/config.toml \
             must set it to the same value"
        );
    }
}

#[test]
fn the_table_scan_sees_what_it_looks_for() {
    let toml = "\
[package]
name = \"x\"

[profile.release]
# a comment
debug = true
lto = \"fat\"

[profile.dev]
opt-level = 1
";
    assert_eq!(
        toml_table(toml, "profile.release"),
        Some(vec![("debug", "true"), ("lto", "\"fat\"")])
    );
    assert_eq!(toml_table(toml, "profile.bench"), None);
}
