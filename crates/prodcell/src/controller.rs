//! The CA-action control program for the production cell (§4, Figure 6).
//!
//! Six threads — one per device lane, as in Figure 6's swim lanes — run the
//! cycle under the outermost `Table_Press_Robot` action:
//!
//! ```text
//! Table_Press_Robot (table_sensor, table, robot_sensor, robot, press_sensor, press)
//! ├── Unload_Table (table_sensor, table, robot_sensor, robot)
//! │   ├── Move_Loaded_Table   (table_sensor, table)      — Figure 7 graph
//! │   ├── Extend_Arm1         (robot_sensor, robot)
//! │   ├── Grab_Plate_From_Table (all four)
//! │   └── Retract_Arm1        (robot_sensor, robot)
//! ├── Pressing        (robot_sensor, robot, press_sensor, press)
//! ├── Move_Unloaded_Table_Back (table_sensor, table)
//! └── Remove_Plate    (robot_sensor, robot, press_sensor, press)
//! ```
//!
//! Device faults raise the primitive exceptions of Figure 7; handlers
//! perform forward recovery (repairing motors/sensors) where possible and
//! otherwise signal `L_PLATE`, `NCS_FAIL`, `T_SENSOR`, `A1_SENSOR`, µ or ƒ
//! to the enclosing action, exactly following §4's escalation chain.

use caa_core::exception::{Exception, ExceptionId};
use caa_core::outcome::HandlerVerdict;
use caa_core::time::VirtualDuration;
use caa_runtime::{ActionDef, Ctx, SharedObject, Step, System};
use caa_simnet::LatencyModel;

use crate::cell::ProductionCell;
use crate::devices::{DeviceResult, Plate, TableAngle};
use crate::exceptions::{
    move_loaded_table_graph, table_press_robot_graph, unload_table_graph, A1_SENSOR_SIGNAL,
    L_PLATE_SIGNAL, NCS_FAIL_SIGNAL, T_SENSOR_SIGNAL,
};

/// Thread ids of the six controller threads, in Figure 6 lane order.
pub mod threads {
    /// Table sensor lane.
    pub const TABLE_SENSOR: u32 = 0;
    /// Table actuator lane.
    pub const TABLE: u32 = 1;
    /// Robot sensor lane.
    pub const ROBOT_SENSOR: u32 = 2;
    /// Robot actuator lane.
    pub const ROBOT: u32 = 3;
    /// Press sensor lane.
    pub const PRESS_SENSOR: u32 = 4;
    /// Press actuator lane.
    pub const PRESS: u32 = 5;
}

/// Configuration of a controller run.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Production cycles (blanks) to attempt.
    pub cycles: u32,
    /// Message-latency model for the six partitions.
    pub latency: LatencyModel,
    /// Deterministic seed.
    pub seed: u64,
    /// Virtual time per device operation.
    pub op_time: VirtualDuration,
    /// The paper's `Treso` (resolution time).
    pub resolution_delay: VirtualDuration,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            cycles: 1,
            latency: LatencyModel::Fixed(VirtualDuration::from_millis(5)),
            seed: 0,
            op_time: VirtualDuration::from_millis(50),
            resolution_delay: VirtualDuration::from_millis(20),
        }
    }
}

/// Performs one device operation inside an action: charges `op_time`,
/// applies `f` transactionally, and raises the corresponding Figure 7
/// exception when the device reports a fault.
fn dev_op<T: Clone + 'static, R>(
    rc: &mut Ctx,
    obj: &SharedObject<T>,
    op_time: VirtualDuration,
    f: impl FnOnce(&mut T) -> DeviceResult<R>,
) -> Step<R> {
    rc.work(op_time)?;
    match rc.update(obj, f)? {
        Ok(r) => Ok(r),
        Err(fault) => {
            if std::env::var_os("CAA_TRACE").is_some() {
                eprintln!(
                    "[dev_op {} in {:?}] {} fails: {fault}",
                    obj.name(),
                    rc.action_name(),
                    rc.name(),
                );
            }
            rc.raise(Exception::new(fault.exception()).with_detail(fault.exception_name()))?;
            unreachable!("raise always transfers control")
        }
    }
}

/// Builds the whole control system over `cell`: six threads, the Figure 6
/// action structure, and all handlers. Returns the ready-to-run system.
#[must_use]
pub fn build_system(cell: &ProductionCell, config: &ControllerConfig) -> System {
    let mut sys = System::builder()
        .latency(config.latency)
        .seed(config.seed)
        .resolution_delay(config.resolution_delay)
        .build();
    spawn_controller(&mut sys, cell, config);
    sys
}

/// Like [`build_system`] but over a caller-prepared
/// [`SystemBuilder`](caa_runtime::SystemBuilder) (e.g. with fault
/// injection on the network).
pub fn spawn_controller(sys: &mut System, cell: &ProductionCell, config: &ControllerConfig) {
    let defs = Definitions::new(cell, config);
    let cycles = config.cycles;
    let op = config.op_time;

    let (d, c) = (defs.clone(), cell.clone());
    sys.spawn("table_sensor", move |ctx| {
        for _ in 0..cycles {
            d.run_cycle_table_sensor(ctx, &c, op)?;
        }
        Ok(())
    });
    let (d, c) = (defs.clone(), cell.clone());
    sys.spawn("table", move |ctx| {
        for _ in 0..cycles {
            d.run_cycle_table(ctx, &c, op)?;
        }
        Ok(())
    });
    let (d, c) = (defs.clone(), cell.clone());
    sys.spawn("robot_sensor", move |ctx| {
        for _ in 0..cycles {
            d.run_cycle_robot_sensor(ctx, &c, op)?;
        }
        Ok(())
    });
    let (d, c) = (defs.clone(), cell.clone());
    sys.spawn("robot", move |ctx| {
        for _ in 0..cycles {
            d.run_cycle_robot(ctx, &c, op)?;
        }
        Ok(())
    });
    let (d, c) = (defs.clone(), cell.clone());
    sys.spawn("press_sensor", move |ctx| {
        for _ in 0..cycles {
            d.run_cycle_press_sensor(ctx, &c, op)?;
        }
        Ok(())
    });
    let (d, c) = (defs, cell.clone());
    sys.spawn("press", move |ctx| {
        for _ in 0..cycles {
            d.run_cycle_press(ctx, &c, op)?;
        }
        Ok(())
    });
}

/// The action definitions, built once and shared by all threads.
#[derive(Debug, Clone)]
struct Definitions {
    tpr: ActionDef,
    unload: ActionDef,
    mlt: ActionDef,
    extend_arm1: ActionDef,
    grab: ActionDef,
    retract_arm1: ActionDef,
    pressing: ActionDef,
    back: ActionDef,
    remove: ActionDef,
}

impl Definitions {
    fn new(cell: &ProductionCell, config: &ControllerConfig) -> Self {
        use threads::*;
        let op = config.op_time;

        // ---------------- Table_Press_Robot (outermost) ----------------
        let mut tpr = ActionDef::builder("Table_Press_Robot")
            .role("table_sensor", TABLE_SENSOR)
            .role("table", TABLE)
            .role("robot_sensor", ROBOT_SENSOR)
            .role("robot", ROBOT)
            .role("press_sensor", PRESS_SENSOR)
            .role("press", PRESS)
            .graph(table_press_robot_graph());
        for role in [
            "table_sensor",
            "robot_sensor",
            "robot",
            "press_sensor",
            "press",
        ] {
            let c = cell.clone();
            tpr = tpr.fallback_handler(role, move |hc| tpr_repair(hc, &c, false));
        }
        // The table role also maintains the metrics and clears the cell so
        // the next cycle starts clean.
        let c = cell.clone();
        tpr = tpr.fallback_handler("table", move |hc| tpr_repair(hc, &c, true));
        let tpr = tpr.build().expect("Table_Press_Robot definition is valid");

        // ---------------- Unload_Table ----------------
        let mut unload = ActionDef::builder("Unload_Table")
            .role("table_sensor", TABLE_SENSOR)
            .role("table", TABLE)
            .role("robot_sensor", ROBOT_SENSOR)
            .role("robot", ROBOT)
            .graph(unload_table_graph())
            .interface([L_PLATE_SIGNAL, T_SENSOR_SIGNAL, A1_SENSOR_SIGNAL]);
        // Degraded sensors: the sensor lanes signal their device-specific
        // interface exceptions (distinct ε per role — §3.4 case 1); the
        // actuator lanes recover.
        for (role, verdict) in [
            ("table_sensor", Some(T_SENSOR_SIGNAL)),
            ("robot_sensor", Some(A1_SENSOR_SIGNAL)),
            ("table", None),
            ("robot", None),
        ] {
            let c = cell.clone();
            unload = unload.fallback_handler(role, move |hc| {
                let resolved = *hc.handling().expect("in handler");
                let name = resolved.name().to_owned();
                if name.contains("l_plate") || name.contains(L_PLATE_SIGNAL) || name == "plate_gone"
                {
                    return Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL)));
                }
                if resolved.is_undo() || resolved.is_failure() || resolved.is_universal() {
                    return Ok(HandlerVerdict::Undo);
                }
                // Sensor-degradation family: repair what this lane owns,
                // then signal the per-role interface exception (sensors) or
                // recover (actuators).
                if verdict == Some(A1_SENSOR_SIGNAL) {
                    hc.update(&c.robot, |r| {
                        r.repair(crate::faults::DeviceFault::SensorStuck);
                    })?;
                } else if verdict == Some(T_SENSOR_SIGNAL) {
                    hc.update(&c.table, |t| {
                        t.repair(crate::faults::DeviceFault::SensorStuck);
                    })?;
                }
                match verdict {
                    Some(sig) => Ok(HandlerVerdict::Signal(ExceptionId::new(sig))),
                    None => Ok(HandlerVerdict::Recovered),
                }
            });
        }
        let unload = unload.build().expect("Unload_Table definition is valid");

        // ---------------- Move_Loaded_Table (Figure 7) ----------------
        let mlt = build_move_loaded_table(cell, op);

        // ---------------- Arm-1 micro-actions ----------------
        // Shared recovery policy: a lost plate is signalled as L_PLATE,
        // sensor trouble as NCS_FAIL; anything else requests µ.
        let micro_policy = |hc: &mut Ctx| {
            let resolved = *hc.handling().expect("in handler");
            match resolved.name() {
                "l_plate" => Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL))),
                "s_stuck" | "sensor_failure_or_lplate" | "table_and_sensor_failures" => {
                    Ok(HandlerVerdict::Signal(ExceptionId::new(NCS_FAIL_SIGNAL)))
                }
                _ => Ok(HandlerVerdict::Undo),
            }
        };
        let mut extend_arm1 = ActionDef::builder("Extend_Arm1")
            .role("robot_sensor", ROBOT_SENSOR)
            .role("robot", ROBOT)
            .graph(move_loaded_table_graph())
            .interface([L_PLATE_SIGNAL, NCS_FAIL_SIGNAL]);
        for role in ["robot_sensor", "robot"] {
            extend_arm1 = extend_arm1.fallback_handler(role, micro_policy);
        }
        let extend_arm1 = extend_arm1
            .build()
            .expect("Extend_Arm1 definition is valid");

        let mut grab = ActionDef::builder("Grab_Plate_From_Table")
            .role("table_sensor", TABLE_SENSOR)
            .role("table", TABLE)
            .role("robot_sensor", ROBOT_SENSOR)
            .role("robot", ROBOT)
            .graph(move_loaded_table_graph())
            .interface([L_PLATE_SIGNAL, NCS_FAIL_SIGNAL]);
        for role in ["table_sensor", "table", "robot_sensor", "robot"] {
            grab = grab.fallback_handler(role, micro_policy);
        }
        let grab = grab
            .build()
            .expect("Grab_Plate_From_Table definition is valid");

        let mut retract_arm1 = ActionDef::builder("Retract_Arm1")
            .role("robot_sensor", ROBOT_SENSOR)
            .role("robot", ROBOT)
            .graph(move_loaded_table_graph())
            .interface([L_PLATE_SIGNAL, NCS_FAIL_SIGNAL]);
        for role in ["robot_sensor", "robot"] {
            retract_arm1 = retract_arm1.fallback_handler(role, micro_policy);
        }
        let retract_arm1 = retract_arm1
            .build()
            .expect("Retract_Arm1 definition is valid");

        // ---------------- Pressing ----------------
        let mut pressing = ActionDef::builder("Pressing")
            .role("robot_sensor", ROBOT_SENSOR)
            .role("robot", ROBOT)
            .role("press_sensor", PRESS_SENSOR)
            .role("press", PRESS)
            .graph(move_loaded_table_graph())
            .interface([L_PLATE_SIGNAL]);
        for role in ["robot_sensor", "robot", "press_sensor", "press"] {
            let c = cell.clone();
            let repairs = role == "press";
            pressing =
                pressing.fallback_handler(role, move |hc| pressing_recovery(hc, &c, repairs));
        }
        let pressing = pressing.build().expect("Pressing definition is valid");

        // ---------------- Move_Unloaded_Table_Back ----------------
        let mut back = ActionDef::builder("Move_Unloaded_Table_Back")
            .role("table_sensor", TABLE_SENSOR)
            .role("table", TABLE)
            .graph(move_loaded_table_graph())
            .interface([NCS_FAIL_SIGNAL]);
        for role in ["table_sensor", "table"] {
            let c = cell.clone();
            let op_time = op;
            back = back.fallback_handler(role, move |hc| {
                mlt_style_recovery(hc, &c, op_time, role_is_table(role), MotionGoal::ToBelt)
            });
        }
        let back = back
            .build()
            .expect("Move_Unloaded_Table_Back definition is valid");

        // ---------------- Remove_Plate ----------------
        let mut remove = ActionDef::builder("Remove_Plate")
            .role("robot_sensor", ROBOT_SENSOR)
            .role("robot", ROBOT)
            .role("press_sensor", PRESS_SENSOR)
            .role("press", PRESS)
            .graph(move_loaded_table_graph())
            .interface([L_PLATE_SIGNAL, A1_SENSOR_SIGNAL]);
        for role in ["robot_sensor", "robot", "press_sensor", "press"] {
            let c = cell.clone();
            let repairs = role == "robot";
            remove =
                remove.fallback_handler(role, move |hc| remove_plate_recovery(hc, &c, repairs));
        }
        let remove = remove.build().expect("Remove_Plate definition is valid");

        Definitions {
            tpr,
            unload,
            mlt,
            extend_arm1,
            grab,
            retract_arm1,
            pressing,
            back,
            remove,
        }
    }

    // ---------------- per-thread cycle bodies ----------------

    fn run_cycle_table_sensor(
        &self,
        ctx: &mut Ctx,
        cell: &ProductionCell,
        op: VirtualDuration,
    ) -> Step {
        let d = self.clone();
        let c = cell.clone();
        ctx.enter(&self.tpr, "table_sensor", move |rc| {
            rc.enter(&d.unload, "table_sensor", |uc| {
                uc.enter(&d.mlt, "table_sensor", |mc| sensor_verify_table(mc, &c, op))?;
                uc.enter(&d.grab, "table_sensor", |gc| gc.work(op))?;
                Ok(())
            })?;
            rc.enter(&d.back, "table_sensor", |mc| {
                sensor_verify_table_back(mc, &c, op)
            })?;
            Ok(())
        })
        .map(|_| ())
    }

    fn run_cycle_table(&self, ctx: &mut Ctx, cell: &ProductionCell, op: VirtualDuration) -> Step {
        if std::env::var_os("CAA_TRACE").is_some() {
            eprintln!(
                "[cycle start] table committed: {:?}, feed len {}",
                cell.table.committed(),
                cell.feed.committed().len()
            );
        }
        let d = self.clone();
        let c = cell.clone();
        ctx.enter(&self.tpr, "table", move |rc| {
            // Step 1: the environment's blank supplier adds a blank (the
            // insertion light is green between cycles). The feed belt
            // assigns the id and counts the insertion atomically.
            let plate = dev_op(rc, &c.feed, op, |f| f.insert_new_blank())?;
            rc.update(&c.metrics, |m| m.inserted = plate.id)?;
            // Step 2–3: feed belt conveys the blank; the table loads it.
            let plate = dev_op(rc, &c.feed, op, |f| f.convey_to_table())?;
            if let Some(plate) = plate {
                dev_op(rc, &c.table, op, |t| t.load(plate))?;
            }
            rc.enter(&d.unload, "table", |uc| {
                uc.enter(&d.mlt, "table", |mc| {
                    dev_op(mc, &c.table, op, |t| t.rotate_to_robot())?;
                    dev_op(mc, &c.table, op, |t| t.lift())?;
                    // Ask the table sensor to verify the final position.
                    mc.send_to_role("table_sensor", "verify", ())?;
                    let _ok = mc.recv_app()?;
                    Ok(())
                })?;
                // Handoff: the robot grabs the plate off the table.
                uc.enter(&d.grab, "table", |gc| {
                    let plate = dev_op(gc, &c.table, op, |t| t.take_plate())?;
                    gc.send_to_role("robot", "plate", plate)?;
                    Ok(())
                })?;
                Ok(())
            })?;
            rc.enter(&d.back, "table", |mc| {
                dev_op(mc, &c.table, op, |t| t.lower())?;
                dev_op(mc, &c.table, op, |t| t.rotate_to_belt())?;
                mc.send_to_role("table_sensor", "verify", ())?;
                let _ok = mc.recv_app()?;
                Ok(())
            })?;
            Ok(())
        })
        .map(|_| ())
    }

    fn run_cycle_robot_sensor(
        &self,
        ctx: &mut Ctx,
        cell: &ProductionCell,
        op: VirtualDuration,
    ) -> Step {
        let d = self.clone();
        let c = cell.clone();
        ctx.enter(&self.tpr, "robot_sensor", move |rc| {
            rc.enter(&d.unload, "robot_sensor", |uc| {
                uc.enter(&d.extend_arm1, "robot_sensor", |ec| {
                    sensor_verify_arm1(ec, &c, op, true)
                })?;
                uc.enter(&d.grab, "robot_sensor", |gc| gc.work(op))?;
                uc.enter(&d.retract_arm1, "robot_sensor", |ec| {
                    sensor_verify_arm1(ec, &c, op, false)
                })?;
                Ok(())
            })?;
            rc.enter(&d.pressing, "robot_sensor", |pc| pc.work(op))?;
            rc.enter(&d.remove, "robot_sensor", |pc| pc.work(op))?;
            Ok(())
        })
        .map(|_| ())
    }

    fn run_cycle_robot(&self, ctx: &mut Ctx, cell: &ProductionCell, op: VirtualDuration) -> Step {
        let d = self.clone();
        let c = cell.clone();
        ctx.enter(&self.tpr, "robot", move |rc| {
            rc.enter(&d.unload, "robot", |uc| {
                uc.enter(&d.extend_arm1, "robot", |ec| {
                    dev_op(ec, &c.robot, op, |r| r.extend_arm1())
                })?;
                uc.enter(&d.grab, "robot", |gc| {
                    let msg = gc.recv_app()?;
                    let plate: Plate = msg.payload.downcast().expect("plate payload");
                    dev_op(gc, &c.robot, op, |r| r.arm1_grab(plate))?;
                    Ok(())
                })?;
                uc.enter(&d.retract_arm1, "robot", |ec| {
                    dev_op(ec, &c.robot, op, |r| r.retract_arm1())
                })?;
                Ok(())
            })?;
            rc.enter(&d.pressing, "robot", |pc| {
                // Step 4: arm 1 places the blank into the press.
                let plate = dev_op(pc, &c.robot, op, |r| r.arm1_release())?;
                pc.send_to_role("press", "insert", plate)?;
                // Confirm both arms are clear before the press forges.
                let arms_clear = pc.read(&c.robot, |r| !r.arm1.extended && !r.arm2.extended)?;
                pc.send_to_role("press", "arms_clear", arms_clear)?;
                Ok(())
            })?;
            rc.enter(&d.remove, "robot", |pc| {
                // Step 6: arm 2 takes the forged plate to the deposit belt.
                dev_op(pc, &c.robot, op, |r| r.extend_arm2())?;
                pc.send_to_role("press", "remove", ())?;
                let msg = pc.recv_app()?;
                let plate: Plate = msg.payload.downcast().expect("plate payload");
                dev_op(pc, &c.robot, op, |r| r.arm2_grab(plate))?;
                dev_op(pc, &c.robot, op, |r| r.retract_arm2())?;
                dev_op(pc, &c.robot, op, |r| r.rotate_to_deposit())?;
                let plate = dev_op(pc, &c.robot, op, |r| r.arm2_release())?;
                dev_op(pc, &c.deposit, op, |b| b.accept(plate))?;
                let delivered = dev_op(pc, &c.deposit, op, |b| b.forward())?;
                pc.update(&c.metrics, |m| m.delivered += delivered as u32)?;
                dev_op(pc, &c.robot, op, |r| r.rotate_to_table())?;
                Ok(())
            })?;
            Ok(())
        })
        .map(|_| ())
    }

    fn run_cycle_press_sensor(
        &self,
        ctx: &mut Ctx,
        cell: &ProductionCell,
        op: VirtualDuration,
    ) -> Step {
        let d = self.clone();
        let c = cell.clone();
        ctx.enter(&self.tpr, "press_sensor", move |rc| {
            rc.enter(&d.pressing, "press_sensor", |pc| {
                pc.work(op)?;
                // Sense the press state after forging.
                let _has_plate = pc.read(&c.press, |p| p.plate().is_some())?;
                Ok(())
            })?;
            rc.enter(&d.remove, "press_sensor", |pc| pc.work(op))?;
            Ok(())
        })
        .map(|_| ())
    }

    fn run_cycle_press(&self, ctx: &mut Ctx, cell: &ProductionCell, op: VirtualDuration) -> Step {
        let d = self.clone();
        let c = cell.clone();
        ctx.enter(&self.tpr, "press", move |rc| {
            rc.enter(&d.pressing, "press", |pc| {
                let msg = pc.recv_app()?;
                let plate: Plate = msg.payload.downcast().expect("plate payload");
                dev_op(pc, &c.press, op, |p| p.insert(plate))?;
                let clear = pc.recv_app()?;
                let arms_clear: bool = clear.payload.downcast().expect("bool payload");
                if !arms_clear {
                    // Safety requirement: never forge with an arm inside.
                    pc.raise(Exception::new("cs_fault").with_detail("arm inside press"))?;
                }
                // Step 5: forge.
                dev_op(pc, &c.press, op, |p| p.forge())?;
                Ok(())
            })?;
            rc.enter(&d.remove, "press", |pc| {
                let _req = pc.recv_app()?;
                let plate = dev_op(pc, &c.press, op, |p| p.remove())?;
                pc.send_to_role("robot", "plate", plate)?;
                Ok(())
            })?;
            Ok(())
        })
        .map(|_| ())
    }
}

fn role_is_table(role: &str) -> bool {
    role == "table"
}

/// Builds the Move_Loaded_Table definition with the Figure 7 graph and the
/// recovery policy of §4.
fn build_move_loaded_table(cell: &ProductionCell, op: VirtualDuration) -> ActionDef {
    let mut mlt = ActionDef::builder("Move_Loaded_Table")
        .role("table_sensor", threads::TABLE_SENSOR)
        .role("table", threads::TABLE)
        .graph(move_loaded_table_graph())
        .interface([L_PLATE_SIGNAL, NCS_FAIL_SIGNAL]);
    for role in ["table_sensor", "table"] {
        let c = cell.clone();
        let is_table = role_is_table(role);
        mlt = mlt.fallback_handler(role, move |hc| {
            mlt_style_recovery(hc, &c, op, is_table, MotionGoal::ToRobot)
        });
    }
    mlt.build().expect("Move_Loaded_Table definition is valid")
}

/// Which way the interrupted table motion was headed.
#[derive(Clone, Copy, PartialEq)]
enum MotionGoal {
    /// Move_Loaded_Table: rotated to the robot and lifted.
    ToRobot,
    /// Move_Unloaded_Table_Back: lowered and rotated to the belt.
    ToBelt,
}

/// The shared recovery policy for the table-motion actions:
///
/// * motor failures — forward recovery: repair the motor(s) and finish the
///   motion, then exit with success;
/// * sensor failures — repair and signal `NCS_FAIL` (degraded);
/// * lost plate — signal `L_PLATE`;
/// * anything else (universal included) — request µ.
fn mlt_style_recovery(
    hc: &mut Ctx,
    cell: &ProductionCell,
    op: VirtualDuration,
    is_table_role: bool,
    goal: MotionGoal,
) -> Step<HandlerVerdict> {
    let resolved = *hc.handling().expect("in handler");
    let name = resolved.name().to_owned();
    let motorish = [
        "vm_stop",
        "rm_stop",
        "vm_nmove",
        "rm_nmove",
        "dual_motor_failures",
    ]
    .contains(&name.as_str());
    let sensorish = [
        "s_stuck",
        "table_and_sensor_failures",
        "sensor_failure_or_lplate",
    ]
    .contains(&name.as_str());

    if name == "l_plate" {
        return Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL)));
    }
    if motorish || sensorish {
        if is_table_role {
            // Repair every implicated part and complete the motion the
            // action was responsible for.
            hc.work(op)?;
            hc.update(&cell.table, |t| {
                for f in crate::faults::DeviceFault::ALL {
                    t.repair(f);
                }
            })?;
            if name != "sensor_failure_or_lplate" {
                // Finish the interrupted motion (idempotent).
                hc.work(op)?;
                let r = hc.update(&cell.table, |t| {
                    match goal {
                        MotionGoal::ToRobot => {
                            if t.angle != TableAngle::Robot {
                                t.rotate_to_robot()?;
                            }
                            if !t.lifted {
                                t.lift()?;
                            }
                        }
                        MotionGoal::ToBelt => {
                            if t.lifted {
                                t.lower()?;
                            }
                            if t.angle != TableAngle::Belt {
                                t.rotate_to_belt()?;
                            }
                        }
                    }
                    Ok::<_, crate::faults::DeviceFault>(())
                })?;
                if r.is_err() {
                    // Repair did not hold; give up on this plate.
                    return Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL)));
                }
            }
        }
        if sensorish && name != "sensor_failure_or_lplate" {
            return Ok(HandlerVerdict::Signal(ExceptionId::new(NCS_FAIL_SIGNAL)));
        }
        if name == "sensor_failure_or_lplate" {
            return Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL)));
        }
        return Ok(HandlerVerdict::Recovered);
    }
    Ok(HandlerVerdict::Undo)
}

/// Forward recovery for the Pressing action: the designated (press) lane
/// makes sure the blank ends up forged inside the press — retrying the
/// forge, or fetching the blank from arm 1 if the insertion failed. If the
/// blank is nowhere to be found it was lost in transit: signal `L_PLATE`.
fn pressing_recovery(
    hc: &mut Ctx,
    cell: &ProductionCell,
    is_press_role: bool,
) -> Step<HandlerVerdict> {
    let resolved = *hc.handling().expect("in handler");
    if resolved.name() == "l_plate" {
        return Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL)));
    }
    if resolved.is_undo() || resolved.is_failure() {
        return Ok(HandlerVerdict::Fail); // forging cannot be undone
    }
    if !is_press_role {
        return Ok(HandlerVerdict::Recovered);
    }
    // Locate the blank and finish the forging.
    hc.work(VirtualDuration::from_millis(50))?;
    let press_state = hc.read(&cell.press, |p| p.plate())?;
    let outcome = match press_state {
        Some(plate) if plate.forged => Ok(()),
        Some(_) => hc.update(&cell.press, |p| p.forge())?.map(|_| ()),
        None => {
            let held = hc.update(&cell.robot, |r| r.arm1_release().ok())?;
            match held {
                Some(plate) => hc.update(&cell.press, |p| {
                    p.insert(plate)?;
                    p.forge()
                })?,
                None => Err(crate::faults::DeviceFault::LostPlate),
            }
        }
    };
    match outcome {
        Ok(()) => Ok(HandlerVerdict::Recovered),
        Err(_) => Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL))),
    }
}

/// Forward recovery for the Remove_Plate action: the designated (robot)
/// lane tracks the *current* plate (its id equals the metrics' inserted
/// counter) and walks it the rest of the way to the environment; if it is
/// nowhere — not delivered, not in the press, not on an arm, not on the
/// belt — it was lost in transit and `L_PLATE` is signalled.
fn remove_plate_recovery(
    hc: &mut Ctx,
    cell: &ProductionCell,
    is_robot_role: bool,
) -> Step<HandlerVerdict> {
    let resolved = *hc.handling().expect("in handler");
    if resolved.name() == "l_plate" {
        return Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL)));
    }
    if resolved.is_undo() || resolved.is_failure() {
        return Ok(HandlerVerdict::Fail);
    }
    if !is_robot_role {
        return Ok(HandlerVerdict::Recovered);
    }
    hc.work(VirtualDuration::from_millis(50))?;
    let current_id = hc.read(&cell.feed, |f| f.total_inserted())?;
    let already_delivered = hc.read(&cell.deposit, |d| {
        d.delivered().iter().any(|p| p.id == current_id)
    })?;
    if already_delivered {
        return Ok(HandlerVerdict::Recovered);
    }
    // Collect the plate from wherever it stalled.
    let mut plate = hc.update(&cell.press, |p| p.remove().ok())?;
    if plate.is_none() {
        plate = hc.update(&cell.robot, |r| r.arm2_release().ok())?;
    }
    if let Some(plate) = plate.filter(|p| p.forged) {
        let accepted = hc.update(&cell.deposit, |d| d.accept(plate))?;
        if accepted.is_err() {
            return Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL)));
        }
    }
    // Tidy the robot for the next cycle.
    hc.update(&cell.robot, |r| {
        if r.arm2.extended {
            let _ = r.retract_arm2();
        }
        let _ = r.rotate_to_table();
    })?;
    // Forward whatever waits on the belt.
    let forwarded = hc.update(&cell.deposit, |d| d.forward().unwrap_or(0))?;
    if forwarded > 0 {
        hc.update(&cell.metrics, |m| m.delivered += forwarded as u32)?;
        return Ok(HandlerVerdict::Recovered);
    }
    // Not delivered and nowhere to be found: lost in transit.
    Ok(HandlerVerdict::Signal(ExceptionId::new(L_PLATE_SIGNAL)))
}

/// The outermost action's recovery: each lane clears the device it owns
/// (counting every abandoned plate as lost), repairs sensors/motors, and
/// the table lane classifies the cycle in the metrics.
fn tpr_repair(hc: &mut Ctx, cell: &ProductionCell, is_table_role: bool) -> Step<HandlerVerdict> {
    let resolved = *hc.handling().expect("in handler");
    let name = resolved.name().to_owned();
    let thread = hc.thread_id().as_u32();

    // Clear the abandoned work piece from whatever this lane controls.
    // Clearing is an operator-level (force) reset: the outermost recovery
    // models physical intervention, which a scripted device fault cannot
    // refuse — otherwise a plate written off as lost would linger inside a
    // stuck device and break the conservation audit (found by the harness's
    // byte-replay sweeps once object interleavings became deterministic).
    if is_table_role {
        hc.update(&cell.table, |t| {
            let _ = t.force_clear();
            for f in crate::faults::DeviceFault::ALL {
                t.repair(f);
            }
            if t.lifted {
                let _ = t.lower();
            }
            if t.angle != TableAngle::Belt {
                let _ = t.rotate_to_belt();
            }
        })?;
        // Drop any blank still waiting on the feed belt for this cycle.
        hc.update(&cell.feed, |f| {
            let _ = f.force_clear();
        })?;
    } else if thread == threads::ROBOT {
        hc.update(&cell.robot, |r| {
            let _ = r.force_clear_arms();
            r.repair(crate::faults::DeviceFault::SensorStuck);
            if r.arm1.extended {
                let _ = r.retract_arm1();
            }
            if r.arm2.extended {
                let _ = r.retract_arm2();
            }
            let _ = r.rotate_to_table();
        })?;
    } else if thread == threads::PRESS {
        hc.update(&cell.press, |p| {
            let _ = p.force_clear();
        })?;
    } else if thread == threads::ROBOT_SENSOR {
        hc.update(&cell.robot, |r| {
            r.repair(crate::faults::DeviceFault::SensorStuck);
        })?;
    } else if thread == threads::TABLE_SENSOR {
        hc.update(&cell.table, |t| {
            t.repair(crate::faults::DeviceFault::SensorStuck);
        })?;
    }

    if is_table_role {
        // Recovery at the outermost action abandons the cycle: its blank is
        // written off unless it already reached the environment. This is
        // the single source of truth for the lost count (the lanes above
        // only clear devices). A forged plate stranded on the deposit
        // backlog is delivered, not lost — force-forward it (bypassing the
        // belt's fault script, like every other force reset here) before
        // the write-off check, or the audit would count it both lost and
        // in-flight.
        let forwarded = hc.update(&cell.deposit, |d| d.force_forward())?;
        if forwarded > 0 {
            hc.update(&cell.metrics, |m| m.delivered += forwarded as u32)?;
        }
        let current = hc.read(&cell.feed, |f| f.total_inserted())?;
        let delivered = hc.read(&cell.deposit, |d| {
            d.delivered().iter().any(|p| p.id == current)
        })?;
        hc.update(&cell.metrics, |m| {
            if !delivered {
                m.lost_plates += 1;
            }
            if name.contains("SENSOR")
                || name == "degraded_sensors"
                || name.contains(NCS_FAIL_SIGNAL)
            {
                m.degraded_sensor_cycles += 1;
            } else if resolved.is_undo() || resolved.is_failure() || resolved.is_universal() {
                m.failed_cycles += 1;
            }
            m.recovered_cycles += 1;
        })?;
    }
    Ok(HandlerVerdict::Recovered)
}

/// Sensor-lane body for Move_Loaded_Table: wait for the actuator's request
/// and verify the table reached the robot position.
fn sensor_verify_table(mc: &mut Ctx, cell: &ProductionCell, op: VirtualDuration) -> Step {
    let _req = mc.recv_app()?;
    mc.work(op)?;
    let sensed = mc.read(&cell.table, |t| t.sensed_angle())?;
    match sensed {
        None => {
            mc.raise(Exception::new("s_stuck").with_detail("table position sensor stuck at 0"))?;
            unreachable!("raise always transfers control")
        }
        Some(angle) => {
            if angle != TableAngle::Robot {
                mc.raise(Exception::new("cs_fault").with_detail("table missed robot position"))?;
            }
            mc.send_to_role("table", "verified", ())?;
            Ok(())
        }
    }
}

/// Sensor-lane body for Move_Unloaded_Table_Back.
fn sensor_verify_table_back(mc: &mut Ctx, cell: &ProductionCell, op: VirtualDuration) -> Step {
    let _req = mc.recv_app()?;
    mc.work(op)?;
    let sensed = mc.read(&cell.table, |t| t.sensed_angle())?;
    match sensed {
        None => {
            mc.raise(Exception::new("s_stuck"))?;
            unreachable!("raise always transfers control")
        }
        Some(angle) => {
            if angle != TableAngle::Belt {
                mc.raise(Exception::new("cs_fault").with_detail("table missed belt position"))?;
            }
            mc.send_to_role("table", "verified", ())?;
            Ok(())
        }
    }
}

/// Sensor-lane body for the arm-1 micro-actions.
fn sensor_verify_arm1(
    ec: &mut Ctx,
    cell: &ProductionCell,
    op: VirtualDuration,
    expect_extended: bool,
) -> Step {
    ec.work(op)?;
    let (stuck, extended) = ec.read(&cell.robot, |r| (r.sensor_stuck, r.arm1.extended))?;
    if stuck {
        ec.raise(Exception::new("s_stuck").with_detail("arm1 sensor stuck"))?;
    }
    if extended != expect_extended {
        // Give the actuator one more op's worth of time, then re-check.
        ec.work(op)?;
        let extended = ec.read(&cell.robot, |r| r.arm1.extended)?;
        if extended != expect_extended {
            ec.raise(Exception::new("cs_fault").with_detail("arm1 did not reach position"))?;
        }
    }
    Ok(())
}
