//! Schema validity of the Perfetto (Chrome trace-event) export:
//!
//! * the document parses under the telemetry crate's strict JSON subset
//!   (objects, arrays, strings, unsigned integers — nothing else);
//! * the trace-event envelope and per-event required fields are present
//!   (`ph`-specific: complete events carry `dur`, flow arrows carry
//!   paired `id`s with the binding point on the terminating arrow);
//! * every flow arrow pairs a start (`"s"`) with a finish (`"f"`) of the
//!   same id, start never after finish — the causal send→recv edge;
//! * the export is deterministic per seed.

use std::collections::HashMap;

use caa_harness::arena::ExecutionArena;
use caa_harness::exec::execute_in;
use caa_harness::plan::{ScenarioConfig, ScenarioPlan};
use caa_harness::spans::trace_event_json;
use caa_telemetry::json::{parse, Value};

fn field<'a>(event: &'a Value, name: &str) -> &'a Value {
    event
        .get(name)
        .unwrap_or_else(|| panic!("event missing required field {name:?}: {event:?}"))
}

fn num(event: &Value, name: &str) -> u64 {
    field(event, name)
        .as_u64()
        .unwrap_or_else(|| panic!("field {name:?} must be an unsigned integer: {event:?}"))
}

fn text<'a>(event: &'a Value, name: &str) -> &'a str {
    match field(event, name) {
        Value::Str(s) => s,
        other => panic!("field {name:?} must be a string: {other:?}"),
    }
}

#[test]
fn export_is_schema_valid_and_flows_pair() {
    for seed in [3u64, 42, 77] {
        let artifacts = execute_in(
            &ScenarioPlan::generate(seed, &ScenarioConfig::default()),
            &mut ExecutionArena::default(),
        );
        let doc = trace_event_json(&artifacts.trace, seed);
        let parsed = parse(&doc)
            .unwrap_or_else(|e| panic!("seed {seed}: export must parse as strict JSON: {e}"));

        // Envelope.
        assert!(matches!(
            parsed.get("displayTimeUnit"),
            Some(Value::Str(u)) if u == "ns"
        ));
        let stamped = parsed
            .get("otherData")
            .and_then(|d| d.get("seed"))
            .and_then(Value::as_u64);
        assert_eq!(stamped, Some(seed), "the document must carry its seed");
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents must be an array");
        assert!(!events.is_empty(), "seed {seed}: export must carry events");

        // Per-event required fields, by phase.
        let mut flow_starts: HashMap<u64, u64> = HashMap::new();
        let mut flow_ends: HashMap<u64, u64> = HashMap::new();
        let mut complete_events = 0u64;
        for event in events {
            let ph = text(event, "ph");
            assert!(!text(event, "name").is_empty());
            let ts = num(event, "ts");
            num(event, "pid");
            num(event, "tid");
            match ph {
                "X" => {
                    num(event, "dur");
                    complete_events += 1;
                }
                "s" => {
                    let id = num(event, "id");
                    assert!(
                        flow_starts.insert(id, ts).is_none(),
                        "flow id {id} must start once"
                    );
                }
                "f" => {
                    assert_eq!(
                        text(event, "bp"),
                        "e",
                        "finish arrows bind to the enclosing slice"
                    );
                    let id = num(event, "id");
                    assert!(
                        flow_ends.insert(id, ts).is_none(),
                        "flow id {id} must finish once"
                    );
                }
                "M" => {
                    assert!(
                        field(event, "args").get("name").is_some(),
                        "metadata events must name something"
                    );
                }
                other => panic!("unexpected event phase {other:?}"),
            }
        }
        assert!(complete_events > 0, "seed {seed}: spans must be exported");

        // Flow arrows pair exactly: same ids on both sides, start ≤ end
        // (a message is never received before it is sent).
        assert_eq!(
            flow_starts.len(),
            flow_ends.len(),
            "every flow start needs a finish"
        );
        for (id, sent_ts) in &flow_starts {
            let recv_ts = flow_ends
                .get(id)
                .unwrap_or_else(|| panic!("flow id {id} has no finish arrow"));
            assert!(
                sent_ts <= recv_ts,
                "flow id {id}: send at {sent_ts} must not follow delivery at {recv_ts}"
            );
        }
    }
}

#[test]
fn export_is_deterministic_per_seed() {
    let config = ScenarioConfig::default();
    for seed in [5u64, 42] {
        let a = trace_event_json(
            &execute_in(
                &ScenarioPlan::generate(seed, &config),
                &mut ExecutionArena::default(),
            )
            .trace,
            seed,
        );
        let b = trace_event_json(
            &execute_in(
                &ScenarioPlan::generate(seed, &config),
                &mut ExecutionArena::default(),
            )
            .trace,
            seed,
        );
        assert_eq!(a, b, "seed {seed}: export must be byte-identical");
    }
}
