//! The FZI production cell (§4) re-expressed as a harness scenario: seeded
//! device-fault schedules, trace recording and the generic oracles, plus
//! the cell's own plate-conservation audit.

use caa_prodcell::{
    spawn_controller, Audit, CellFaultScripts, ControllerConfig, DeviceFault, FaultScript,
    ProductionCell,
};
use caa_runtime::observe::RunLog;
use caa_runtime::{System, SystemReport};

use crate::oracle::{check_invariants, check_replay, Violation};
use crate::rng::Rng;
use crate::trace::Trace;

/// Device faults random schedules may inject — Figure 7's nine primitives
/// minus `LostMessage`, which is injected at the network layer instead.
pub const INJECTABLE: [DeviceFault; 8] = [
    DeviceFault::VerticalMotorStop,
    DeviceFault::RotationMotorStop,
    DeviceFault::VerticalMotorNoMove,
    DeviceFault::RotationMotorNoMove,
    DeviceFault::SensorStuck,
    DeviceFault::LostPlate,
    DeviceFault::ControlSoftwareFault,
    DeviceFault::RuntimeException,
];

/// One production-cell run driven by a seed.
#[derive(Debug)]
pub struct ProdcellRun {
    /// The generating seed.
    pub seed: u64,
    /// Production cycles attempted.
    pub cycles: u32,
    /// The cell after the run (metrics, audit, device states).
    pub cell: ProductionCell,
    /// The system report.
    pub report: SystemReport,
    /// The canonical trace.
    pub trace: Trace,
    /// Oracle violations (empty = passed).
    pub violations: Vec<Violation>,
}

fn random_script(rng: &mut Rng, max_op: u64) -> FaultScript {
    let mut script = FaultScript::new();
    for _ in 0..rng.below(3) {
        let op = rng.range(1, max_op);
        let fault = INJECTABLE[rng.below(INJECTABLE.len() as u64) as usize];
        script.schedule(op, fault);
    }
    script
}

fn scripts_for(seed: u64) -> CellFaultScripts {
    // Faults target the table, robot and press — §4's Figure 7 fault
    // surface; the belts stay fault-free so the audit's inserted count is
    // exact.
    let mut rng = Rng::new(seed ^ 0x70d0_ce11);
    CellFaultScripts {
        table: random_script(&mut rng, 14),
        robot: random_script(&mut rng, 22),
        press: random_script(&mut rng, 8),
        ..CellFaultScripts::default()
    }
}

fn execute(seed: u64, cycles: u32) -> (ProductionCell, SystemReport, Trace) {
    let cell = ProductionCell::new(scripts_for(seed));
    let config = ControllerConfig {
        cycles,
        seed,
        ..ControllerConfig::default()
    };
    let mut sys = System::builder()
        .latency(config.latency)
        .seed(config.seed)
        .resolution_delay(config.resolution_delay)
        .record(RunLog::default())
        .build();
    spawn_controller(&mut sys, &cell, &config);
    let mut report = sys.run();
    let trace = Trace::from_log(&mut report.log, Trace::default());
    (cell, report, trace)
}

/// Runs the production cell under a seeded device-fault schedule, checks
/// the generic oracles plus the cell's plate-conservation audit, and
/// (optionally) the deterministic-replay oracle.
#[must_use]
pub fn run_seed(seed: u64, cycles: u32, replay: bool) -> ProdcellRun {
    let (cell, report, trace) = execute(seed, cycles);
    let mut violations = check_invariants(&report, &trace);

    let audit: Audit = cell.audit_committed();
    if !audit.is_consistent() {
        violations.push(Violation::ThreadFailure {
            thread: "audit".into(),
            error: format!("plate conservation violated: {audit:?}"),
        });
    }
    if audit.inserted != cycles {
        violations.push(Violation::ThreadFailure {
            thread: "audit".into(),
            error: format!("expected {cycles} inserted blanks, audit says {audit:?}"),
        });
    }

    if replay {
        // Shared-object acquisition is arbitrated deterministically through
        // the simulation (see `caa_runtime::objects`), so the cell's full
        // trace — timings, network sends and object acquisitions included —
        // must be byte-identical across replays.
        let (second_cell, _, second) = execute(seed, cycles);
        if let Some(v) = check_replay(&trace, &second) {
            violations.push(v);
        }
        if second_cell.audit_committed() != cell.audit_committed() {
            violations.push(Violation::ThreadFailure {
                thread: "audit".into(),
                error: "replay reached a different committed cell state".into(),
            });
        }
    }

    ProdcellRun {
        seed,
        cycles,
        cell,
        report,
        trace,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_seedless_baseline_passes() {
        // Seed 2 of the xor stream has no scheduled faults for any device
        // only by chance; instead assert the generic contract on a couple
        // of seeds including replay determinism.
        for seed in [0, 1] {
            let run = run_seed(seed, 2, true);
            assert!(
                run.violations.is_empty(),
                "seed {seed}: {:?}\ntrace:\n{}",
                run.violations,
                run.trace.render()
            );
            assert!(run.cell.audit_committed().is_consistent());
        }
    }

    #[test]
    fn scripts_are_deterministic_per_seed() {
        assert_eq!(scripts_for(9), scripts_for(9));
        assert_ne!(scripts_for(9), scripts_for(10));
    }
}
