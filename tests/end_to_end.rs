//! Workspace-level integration tests: cross-crate scenarios through the
//! `caa` facade.

use std::sync::Arc;

use caa::baselines::{CrResolution, Rom96Resolution};
use caa::core::exception::{Exception, ExceptionId};
use caa::core::outcome::HandlerVerdict;
use caa::core::time::secs;
use caa::exgraph::generate::conjunction_lattice;
use caa::exgraph::ExceptionGraphBuilder;
use caa::prodcell::{CellFaultScripts, ControllerConfig, DeviceFault, FaultScript, ProductionCell};
use caa::protocol::ResolutionProtocol;
use caa::runtime::{ActionDef, System};
use caa::simnet::{FaultPlan, FaultSpec, LatencyModel};

/// The production cell keeps producing under every resolution protocol —
/// the paper's claim that the protocol is a pluggable part of the CA-action
/// support (§5.3).
#[test]
fn production_cell_runs_under_every_protocol() {
    for protocol in [
        None,
        Some(Arc::new(CrResolution) as Arc<dyn ResolutionProtocol>),
        Some(Arc::new(Rom96Resolution)),
    ] {
        let scripts = CellFaultScripts {
            table: FaultScript::new().with(3, DeviceFault::VerticalMotorStop),
            ..CellFaultScripts::default()
        };
        let cell = ProductionCell::new(scripts);
        let config = ControllerConfig {
            cycles: 2,
            ..ControllerConfig::default()
        };
        let mut builder = System::builder()
            .latency(config.latency)
            .seed(config.seed)
            .resolution_delay(config.resolution_delay);
        let label = match &protocol {
            Some(p) => {
                let name = p.name();
                builder = builder.protocol(Arc::clone(p));
                name
            }
            None => "default",
        };
        let mut sys = builder.build();
        caa::prodcell::spawn_controller(&mut sys, &cell, &config);
        let report = sys.run();
        assert!(report.is_ok(), "{label}: {:?}", report.results);
        let m = cell.metrics.committed();
        assert_eq!(m.delivered, 2, "{label}: {m:?}");
        assert!(cell.audit_committed().is_consistent(), "{label}");
    }
}

/// Network-level message loss during the production cell's signalling is
/// absorbed by the §3.4 extension when a signal timeout is set; here we
/// lose an application message instead and let the corruption path raise
/// `l_mes` — Figure 7's ninth primitive exception, reached end-to-end.
#[test]
fn corrupted_network_message_raises_l_mes_in_the_cell() {
    let cell = ProductionCell::new(CellFaultScripts::default());
    let config = ControllerConfig {
        cycles: 2,
        ..ControllerConfig::default()
    };
    let mut sys = System::builder()
        .latency(config.latency)
        .seed(config.seed)
        .resolution_delay(config.resolution_delay)
        .faults(FaultPlan::new().corrupt(FaultSpec::any().class("App").count(1)))
        .build();
    caa::prodcell::spawn_controller(&mut sys, &cell, &config);
    let report = sys.run();
    assert!(report.is_ok(), "{:?}", report.results);
    assert!(
        report.runtime_stats.recoveries > 0,
        "the corrupted message must have triggered coordinated recovery"
    );
    assert!(cell.audit_committed().is_consistent());
}

/// Determinism: the same virtual-time configuration produces the same
/// elapsed time and message counts run after run.
#[test]
fn virtual_runs_are_reproducible() {
    let run = || {
        let prims: Vec<ExceptionId> = (0..4).map(|i| ExceptionId::new(format!("e{i}"))).collect();
        let graph = conjunction_lattice(&prims, 4).unwrap();
        let mut builder = ActionDef::builder("repro");
        for i in 0..4u32 {
            builder = builder.role(format!("r{i}"), i);
        }
        builder = builder.graph(graph);
        for i in 0..4u32 {
            builder = builder.fallback_handler(format!("r{i}"), |_| Ok(HandlerVerdict::Recovered));
        }
        let action = builder.build().unwrap();
        let mut sys = System::builder()
            .latency(LatencyModel::UniformUpTo(secs(0.7)))
            .seed(99)
            .resolution_delay(secs(0.2))
            .build();
        for i in 0..4u32 {
            let a = action.clone();
            sys.spawn(format!("T{i}"), move |ctx| {
                ctx.enter(&a, &format!("r{i}"), |rc| {
                    rc.work(secs(0.5))?;
                    if i % 2 == 0 {
                        rc.raise(Exception::new(format!("e{i}")))?;
                    }
                    rc.work(secs(10.0))
                })
                .map(|_| ())
            });
        }
        let report = sys.run();
        report.expect_ok();
        (
            report.elapsed.as_nanos(),
            report.net_stats.total_sent(),
            report.runtime_stats.resolutions_invoked,
        )
    };
    assert_eq!(run(), run());
}

/// Coverage-guided fuzzing smoke: a ≤200-execution budget over the seed
/// corpus still lets frontier-scheduled mutations mint at least one
/// protocol-path signature the fresh seeds alone never reached — the
/// feedback loop works end to end through the facade, cheap enough for
/// tier 1.
#[test]
fn fuzz_smoke_finds_a_novel_path_beyond_the_seed_corpus() {
    use caa::harness::fuzz::{fuzz, FuzzConfig};
    let report = fuzz(&FuzzConfig {
        executions: 160,
        initial_seeds: 48,
        batch: 32,
        workers: 2,
        ..FuzzConfig::default()
    });
    assert!(report.executions <= 200, "smoke budget exceeded");
    assert!(
        report.novel_from_mutation >= 1,
        "no mutated child reached a signature outside the 48-seed corpus:\n{}",
        report.summary()
    );
    assert!(report.generations >= 1, "the frontier never scheduled");
}

/// A long chain of nested actions (depth 4) aborts cleanly from the top.
#[test]
fn deep_nesting_abort_cascade() {
    let order = Arc::new(std::sync::Mutex::new(Vec::new()));
    let graph = ExceptionGraphBuilder::new()
        .resolves("covered", ["TOP", "AB1"])
        .build()
        .unwrap();
    let mut outer = ActionDef::builder("level0")
        .role("a", 0u32)
        .role("b", 1u32)
        .graph(graph);
    for role in ["a", "b"] {
        outer = outer.fallback_handler(role, |_| Ok(HandlerVerdict::Recovered));
    }
    let outer = outer.build().unwrap();

    let mut defs = Vec::new();
    for depth in 1..=3 {
        let o = Arc::clone(&order);
        let def = ActionDef::builder(format!("level{depth}"))
            .role("b", 1u32)
            .abort_handler("b", move |_| {
                o.lock().unwrap().push(depth);
                Ok((depth == 1).then(|| Exception::new("AB1")))
            })
            .build()
            .unwrap();
        defs.push(def);
    }

    let mut sys = System::builder()
        .latency(LatencyModel::Fixed(secs(0.05)))
        .build();
    let o0 = outer.clone();
    sys.spawn("T0", move |ctx| {
        ctx.enter(&o0, "a", |rc| {
            rc.work(secs(1.0))?;
            rc.raise(Exception::new("TOP"))
        })
        .map(|_| ())
    });
    sys.spawn("T1", move |ctx| {
        ctx.enter(&outer, "b", |rc| {
            rc.enter(&defs[0], "b", |c1| {
                c1.enter(&defs[1], "b", |c2| {
                    c2.enter(&defs[2], "b", |c3| c3.work(secs(120.0)))?;
                    Ok(())
                })?;
                Ok(())
            })?;
            Ok(())
        })
        .map(|_| ())
    });
    let report = sys.run();
    report.expect_ok();
    assert_eq!(
        order.lock().unwrap().as_slice(),
        [3, 2, 1],
        "abortion handlers run innermost-first across the whole chain"
    );
    assert_eq!(report.runtime_stats.aborts, 3);
}
