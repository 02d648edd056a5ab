//! The edit grammar's property tests: the fuzzer's mutations are drawn
//! edits ([`draw`]), and every one of them must leave the plan inside the
//! generator's validity envelope — [`validate_plan`]-clean — because the
//! fuzzer executes its plans through the exact pipeline fresh seeds use.
//! Every edit must also survive its text form, which is all a corpus
//! entry keeps.

use std::collections::BTreeMap;

use caa_harness::edit::{apply, draw, Edit, Recipe};
use caa_harness::plan::{validate_plan, ScenarioConfig, ScenarioPlan};
use caa_harness::rng::Rng;

/// Every (kind, target) class of the grammar, as the text form names it.
const CLASSES: [&str; 31] = [
    "add crash",
    "drop crash",
    "set crash",
    "add fault",
    "drop fault",
    "set fault",
    "add top",
    "drop top",
    "set top",
    "drop thread",
    "set timing",
    "set timeouts",
    "add raise",
    "drop raise",
    "add raiser",
    "drop raiser",
    "set raiser",
    "drop phase",
    "set phase",
    "drop child",
    "set child",
    "add op",
    "drop op",
    "set op",
    "add send",
    "drop send",
    "add listener",
    "drop listener",
    "set verdict",
    "add eab",
    "drop eab",
];

fn class(edit: &Edit) -> String {
    let text = edit.to_string();
    text.split_whitespace()
        .take(2)
        .collect::<Vec<_>>()
        .join(" ")
}

/// 10 000 draws (200 base seeds × 50): every drawn edit applies to a
/// valid plan and round-trips through its text form, and every
/// (kind, target) class fires — a class that never fires is grammar
/// nobody exercises. The shrinker's `drop` candidates are checked by
/// `edit::tests::workload_reductions_preserve_plan_validity`.
#[test]
fn ten_thousand_mutations_preserve_plan_validity() {
    let config = ScenarioConfig::default();
    let mut fired: BTreeMap<String, u64> = BTreeMap::new();
    for base_seed in 0..200u64 {
        let plan = ScenarioPlan::generate(base_seed, &config);
        validate_plan(&plan).expect("generated plans are valid");
        for i in 0..50u64 {
            let edit = draw(&plan, &mut Rng::new((base_seed * 50 + i) ^ 0x5eed));
            let edited = apply(&plan, &edit)
                .unwrap_or_else(|| panic!("`{edit}` broke validity on base seed {base_seed}"));
            validate_plan(&edited).expect("apply ends in validate_plan");
            let text = edit.to_string();
            assert_eq!(text.parse::<Edit>(), Ok(edit.clone()), "{text}");
            *fired.entry(class(&edit)).or_default() += 1;
        }
    }
    for name in CLASSES {
        assert!(
            fired.contains_key(name),
            "class `{name}` never drawn across 10k samples: {fired:?}"
        );
    }
    for name in fired.keys() {
        assert!(CLASSES.contains(&name.as_str()), "unknown class {name}");
    }
}

/// Deep chains stay valid: the fuzz frontier stacks dozens of edits onto
/// one ancestor, so validity must be closed under composition — and the
/// recipe's text alone rebuilds the end of a 20-deep chain.
#[test]
fn mutation_chains_stay_valid_at_depth() {
    let config = ScenarioConfig::default();
    for base_seed in (0..50u64).map(|i| i * 131 + 7) {
        let mut rng = Rng::new(base_seed);
        let mut recipe = Recipe {
            seed: base_seed,
            edits: Vec::new(),
        };
        let mut plan = ScenarioPlan::generate(base_seed, &config);
        for depth in 0..20 {
            let edit = draw(&plan, &mut rng);
            plan = apply(&plan, &edit).unwrap_or_else(|| {
                panic!("chain depth {depth}: `{edit}` broke base seed {base_seed}")
            });
            recipe.edits.push(edit);
        }
        let text = recipe.to_string();
        let rebuilt = text
            .parse::<Recipe>()
            .and_then(|parsed| parsed.materialize(&config))
            .unwrap_or_else(|e| panic!("base seed {base_seed}: {e}\n{text}"));
        assert_eq!(
            format!("{rebuilt:?}"),
            format!("{plan:?}"),
            "render → parse → materialize diverged from the live chain at base seed {base_seed}"
        );
    }
}

/// A drawn edit is a pure function of the plan and the rng state, and its
/// parsed text applies to an independently generated copy of the plan
/// exactly as the edit itself does — the anchor that lets a corpus entry
/// replay a find from nothing but its recipe.
#[test]
fn mutations_are_reproducible_from_the_recorded_seed() {
    let config = ScenarioConfig::default();
    for base_seed in 0..40u64 {
        let plan_a = ScenarioPlan::generate(base_seed, &config);
        let plan_b = ScenarioPlan::generate(base_seed, &config);
        for i in 0..10u64 {
            let rng_seed = base_seed ^ (i << 32) ^ 0xCAAF;
            let a = draw(&plan_a, &mut Rng::new(rng_seed));
            assert_eq!(a, draw(&plan_b, &mut Rng::new(rng_seed)), "draw diverged");
            let b: Edit = a.to_string().parse().expect("text form parses");
            assert_eq!(
                format!("{:?}", apply(&plan_a, &a)),
                format!("{:?}", apply(&plan_b, &b)),
                "seed {base_seed}: `{a}` is not reproducible from its text"
            );
        }
    }
}
