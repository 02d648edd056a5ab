//! Device fault model: the nine primitive exceptions of Figure 7.
//!
//! Faults are *scripted*: a [`FaultScript`] schedules "the k-th operation on
//! device D fails with fault F", so experiments are reproducible and tests
//! can target exact recovery paths.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use caa_core::exception::ExceptionId;

/// The ways a production-cell device can fail — one per primitive exception
/// of the Move_Loaded_Table graph (Figure 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceFault {
    /// `vm_stop`: vertical table motor stops unexpectedly.
    VerticalMotorStop,
    /// `rm_stop`: rotation table motor stops unexpectedly.
    RotationMotorStop,
    /// `vm_nmove`: vertical motor can't move.
    VerticalMotorNoMove,
    /// `rm_nmove`: rotation motor can't move.
    RotationMotorNoMove,
    /// `s_stuck`: sensor(s) stuck at 0.
    SensorStuck,
    /// `l_plate`: lost plate.
    LostPlate,
    /// `cs_fault`: control software fault(s).
    ControlSoftwareFault,
    /// `l_mes`: lost or corrupted message.
    LostMessage,
    /// `rt_exc`: run-time exceptions like underflow or overflow.
    RuntimeException,
}

impl DeviceFault {
    /// All nine faults, in Figure 7 order.
    pub const ALL: [DeviceFault; 9] = [
        DeviceFault::VerticalMotorStop,
        DeviceFault::RotationMotorStop,
        DeviceFault::VerticalMotorNoMove,
        DeviceFault::RotationMotorNoMove,
        DeviceFault::SensorStuck,
        DeviceFault::LostPlate,
        DeviceFault::ControlSoftwareFault,
        DeviceFault::LostMessage,
        DeviceFault::RuntimeException,
    ];

    /// The exception name this fault raises (Figure 7's labels).
    #[must_use]
    pub fn exception_name(self) -> &'static str {
        match self {
            DeviceFault::VerticalMotorStop => "vm_stop",
            DeviceFault::RotationMotorStop => "rm_stop",
            DeviceFault::VerticalMotorNoMove => "vm_nmove",
            DeviceFault::RotationMotorNoMove => "rm_nmove",
            DeviceFault::SensorStuck => "s_stuck",
            DeviceFault::LostPlate => "l_plate",
            DeviceFault::ControlSoftwareFault => "cs_fault",
            DeviceFault::LostMessage => "l_mes",
            DeviceFault::RuntimeException => "rt_exc",
        }
    }

    /// The exception this fault raises.
    #[must_use]
    pub fn exception(self) -> ExceptionId {
        ExceptionId::new(self.exception_name())
    }
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.exception_name())
    }
}

/// A schedule of faults for one device: `(operation_index, fault)` pairs.
///
/// Device state machines count their operations; when the counter reaches a
/// scheduled index, the operation fails with the scheduled fault (and
/// applies its physical effect, e.g. a lost plate disappears).
///
/// # Examples
///
/// ```
/// use caa_prodcell::{DeviceFault, FaultScript};
///
/// let mut script = FaultScript::new();
/// script.schedule(3, DeviceFault::VerticalMotorStop);
/// assert_eq!(script.check(0), None);
/// assert_eq!(script.check(3), Some(DeviceFault::VerticalMotorStop));
/// // One-shot: the fault fires once.
/// assert_eq!(script.check(3), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    scheduled: VecDeque<(u64, DeviceFault)>,
}

impl FaultScript {
    /// An empty schedule (fault-free device).
    #[must_use]
    pub fn new() -> Self {
        FaultScript::default()
    }

    /// Schedules `fault` to fire at the device's `op_index`-th operation.
    pub fn schedule(&mut self, op_index: u64, fault: DeviceFault) {
        self.scheduled.push_back((op_index, fault));
        self.scheduled
            .make_contiguous()
            .sort_by_key(|&(idx, _)| idx);
    }

    /// Builder-style [`FaultScript::schedule`].
    #[must_use]
    pub fn with(mut self, op_index: u64, fault: DeviceFault) -> Self {
        self.schedule(op_index, fault);
        self
    }

    /// Consumes and returns the fault scheduled for `op_index`, if any.
    pub fn check(&mut self, op_index: u64) -> Option<DeviceFault> {
        if self
            .scheduled
            .front()
            .is_some_and(|&(idx, _)| idx == op_index)
        {
            self.scheduled.pop_front().map(|(_, f)| f)
        } else {
            None
        }
    }

    /// Whether any fault is still pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty()
    }
}

/// Shared, **non-transactional** handle to a [`FaultScript`].
///
/// Device state lives inside transactional
/// [`SharedObject`](caa_runtime::SharedObject)s whose layers are cloned and
/// rolled back; a fault script embedded in that state would be "un-fired"
/// by a rollback and fire again during recovery. Faults are physical
/// events: once fired, they stay fired. All clones of a `ScriptHandle`
/// (including the clones inside transaction layers) share one script.
#[derive(Debug, Clone, Default)]
pub struct ScriptHandle(Rc<RefCell<FaultScript>>);

impl ScriptHandle {
    /// Wraps a script for shared consumption.
    #[must_use]
    pub fn new(script: FaultScript) -> Self {
        ScriptHandle(Rc::new(RefCell::new(script)))
    }

    /// Consumes and returns the fault scheduled for `op_index`, if any.
    pub fn check(&self, op_index: u64) -> Option<DeviceFault> {
        self.0.borrow_mut().check(op_index)
    }

    /// Whether any fault is still pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

impl From<FaultScript> for ScriptHandle {
    fn from(script: FaultScript) -> Self {
        ScriptHandle::new(script)
    }
}

impl PartialEq for ScriptHandle {
    /// Scripts are test scaffolding, not observable device state; handles
    /// always compare equal so device-state comparisons ignore them.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_handle_shares_consumption_across_clones() {
        let h = ScriptHandle::new(FaultScript::new().with(1, DeviceFault::LostPlate));
        let h2 = h.clone(); // a transaction layer's clone
        assert_eq!(h2.check(1), Some(DeviceFault::LostPlate));
        // The "rolled back" clone must not resurrect the fault.
        assert_eq!(h.check(1), None);
        assert!(h.is_empty());
    }

    #[test]
    fn fault_names_match_figure7() {
        let names: Vec<&str> = DeviceFault::ALL
            .iter()
            .map(|f| f.exception_name())
            .collect();
        assert_eq!(
            names,
            vec![
                "vm_stop", "rm_stop", "vm_nmove", "rm_nmove", "s_stuck", "l_plate", "cs_fault",
                "l_mes", "rt_exc"
            ]
        );
    }

    #[test]
    fn script_fires_in_order_and_once() {
        let mut s = FaultScript::new()
            .with(5, DeviceFault::LostPlate)
            .with(2, DeviceFault::SensorStuck);
        assert!(s.check(0).is_none());
        assert_eq!(s.check(2), Some(DeviceFault::SensorStuck));
        assert!(s.check(3).is_none());
        assert_eq!(s.check(5), Some(DeviceFault::LostPlate));
        assert!(s.is_empty());
    }

    #[test]
    fn multiple_faults_at_same_index_fire_one_per_check() {
        let mut s = FaultScript::new()
            .with(1, DeviceFault::VerticalMotorStop)
            .with(1, DeviceFault::RotationMotorStop);
        assert!(s.check(1).is_some());
        assert!(s.check(1).is_some());
        assert!(s.check(1).is_none());
    }

    #[test]
    fn exception_ids_roundtrip() {
        for f in DeviceFault::ALL {
            assert_eq!(f.exception().name(), f.exception_name());
            assert_eq!(f.to_string(), f.exception_name());
        }
    }
}
