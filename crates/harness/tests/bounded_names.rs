//! Names come from bounded sets. An interned name is never freed (see
//! `caa_core::name`), so everything a sweep names — actions, their
//! exceptions, roles, threads, objects — has to be drawn from a vocabulary
//! that does not grow with the seed: a name that formats a seed, a counter
//! or a timestamp would leak a little per seed, forever. Pinned here over
//! 8 000 seeds of each scenario space plus a window far out at seed
//! 500 000. (Its own test binary: the table is process-wide, and nothing
//! else may have filled it.)

use std::collections::BTreeSet;

use caa_core::exception::ExceptionId;
use caa_core::name::Name;
use caa_exgraph::generate::conjunction_lattice;
use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{role_name, thread_name, ScenarioConfig, ScenarioPlan};

/// At most this many names for what the generator names.
const GENERATED_BOUND: usize = 256;
/// At most this many with the resolution lattices built over them.
const EXECUTED_BOUND: usize = 512;

/// The action, exception, role and thread names `plan` gives its runs.
fn names_of(plan: &ScenarioPlan, names: &mut BTreeSet<String>) {
    for t in 0..plan.threads {
        names.insert(role_name(t));
        names.insert(thread_name(t));
    }
    for action in plan.actions() {
        names.insert(action.name.clone());
        names.insert(action.signal_exception());
        for &t in &action.group {
            names.insert(action.raise_exception(t));
            names.insert(action.eab_exception(t));
        }
    }
}

#[test]
fn a_sweep_names_from_a_bounded_set() {
    let seeds = (0..8_000).chain(500_000..501_000);
    let spaces = [
        ("default", ScenarioConfig::default()),
        ("object-heavy", ScenarioConfig::object_heavy()),
        ("multi-crash", ScenarioConfig::multi_crash()),
    ];
    let (mut objects, mut shapes, mut sample) = (BTreeSet::new(), BTreeSet::new(), Vec::new());
    for (space, config) in &spaces {
        let mut names = BTreeSet::new();
        for seed in seeds.clone() {
            let plan = ScenarioPlan::generate(seed, config);
            names_of(&plan, &mut names);
            objects.extend(plan.objects.iter().cloned());
            for action in plan.actions() {
                shapes.insert((action.name.clone(), action.group.clone()));
            }
            if seed % 500 == 0 {
                sample.push(plan);
            }
        }
        // For re-pinning: `cargo test --test bounded_names -- --nocapture`.
        println!(
            "{space}: {} distinct action, exception, role and thread names",
            names.len()
        );
        for name in names {
            let _ = Name::from(name);
        }
    }
    for object in objects {
        let _ = Name::from(object);
    }
    let generated = Name::interned();

    // What running them adds: the conjunction lattice over each distinct
    // action's raised exceptions (as the executor builds it), and whatever
    // the runtime names itself, seen by executing a sample of both windows.
    for (name, group) in &shapes {
        let raises: Vec<ExceptionId> = group
            .iter()
            .map(|&t| ExceptionId::new(format!("{name}_e{t}")))
            .collect();
        conjunction_lattice(&raises, 2.min(raises.len())).expect("distinct raises");
    }
    let mut arena = ExecutionArena::new();
    for plan in &sample {
        let run = execute_in(plan, &mut arena);
        arena.recycle_trace(run.trace);
    }
    let executed = Name::interned();
    println!(
        "interned: {generated} for the generated names and the objects (bound \
         {GENERATED_BOUND}), {executed} with the lattices of {} action shapes and {} executed \
         plans (bound {EXECUTED_BOUND})",
        shapes.len(),
        sample.len()
    );
    let why = "something formats a seed, a counter or free text into a name";
    assert!(
        generated <= GENERATED_BOUND,
        "{generated} names for what the generator names (bound {GENERATED_BOUND}): {why}"
    );
    assert!(
        executed <= EXECUTED_BOUND,
        "{executed} names once run (bound {EXECUTED_BOUND}): {why}"
    );
}
