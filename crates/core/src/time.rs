//! Virtual time primitives.
//!
//! The paper's experiments (§5.2–5.3) sweep message-passing, abortion and
//! resolution delays measured in *seconds* (`Tmmax`, `Tabo`, `Treso`), with
//! total runs of 94–262 s. To regenerate those sweeps quickly and
//! deterministically, the whole system is expressed against *virtual* time:
//! nanosecond-precision instants and durations that a scheduler advances
//! explicitly. The same types serve real-time execution, where one virtual
//! nanosecond maps to one wall-clock nanosecond.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_MICRO: u64 = 1_000;

/// A span of virtual time with nanosecond precision.
///
/// `VirtualDuration` mirrors [`std::time::Duration`] but is guaranteed to be
/// a plain 64-bit nanosecond count so it can be scheduled, serialized and
/// compared deterministically across the simulated network.
///
/// # Examples
///
/// ```
/// use caa_core::time::VirtualDuration;
///
/// let t_mmax = VirtualDuration::from_secs_f64(0.2);
/// assert_eq!(t_mmax.as_nanos(), 200_000_000);
/// assert_eq!((t_mmax * 3).as_secs_f64(), 0.6);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualDuration(u64);

impl VirtualDuration {
    /// The zero-length duration.
    pub const ZERO: VirtualDuration = VirtualDuration(0);
    /// The largest representable duration (~584 years).
    pub const MAX: VirtualDuration = VirtualDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        VirtualDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        VirtualDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration from whole milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        VirtualDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        VirtualDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, saturating on overflow.
    ///
    /// Negative and NaN inputs are clamped to zero: delays in the model are
    /// never negative.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return VirtualDuration::ZERO;
        }
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos >= u64::MAX as f64 {
            VirtualDuration::MAX
        } else {
            VirtualDuration(nanos.round() as u64)
        }
    }

    /// Total nanoseconds in this duration.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This duration expressed in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Whether this duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: VirtualDuration) -> Option<VirtualDuration> {
        match self.0.checked_add(rhs.0) {
            Some(n) => Some(VirtualDuration(n)),
            None => None,
        }
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(
            self.0
                .checked_add(rhs.0)
                .expect("virtual duration overflow"),
        )
    }
}

impl AddAssign for VirtualDuration {
    fn add_assign(&mut self, rhs: VirtualDuration) {
        *self = *self + rhs;
    }
}

impl Sub for VirtualDuration {
    type Output = VirtualDuration;
    fn sub(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("virtual duration underflow"),
        )
    }
}

impl SubAssign for VirtualDuration {
    fn sub_assign(&mut self, rhs: VirtualDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u32> for VirtualDuration {
    type Output = VirtualDuration;
    fn mul(self, rhs: u32) -> VirtualDuration {
        VirtualDuration(
            self.0
                .checked_mul(u64::from(rhs))
                .expect("virtual duration overflow"),
        )
    }
}

impl Div<u32> for VirtualDuration {
    type Output = VirtualDuration;
    fn div(self, rhs: u32) -> VirtualDuration {
        VirtualDuration(self.0 / u64::from(rhs))
    }
}

impl Sum for VirtualDuration {
    fn sum<I: Iterator<Item = VirtualDuration>>(iter: I) -> VirtualDuration {
        iter.fold(VirtualDuration::ZERO, |acc, d| acc.saturating_add(d))
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl From<std::time::Duration> for VirtualDuration {
    fn from(d: std::time::Duration) -> Self {
        let nanos = d.as_nanos();
        if nanos >= u128::from(u64::MAX) {
            VirtualDuration::MAX
        } else {
            VirtualDuration(nanos as u64)
        }
    }
}

impl From<VirtualDuration> for std::time::Duration {
    fn from(d: VirtualDuration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

/// A point on the virtual timeline, measured in nanoseconds since the start
/// of the simulation.
///
/// # Examples
///
/// ```
/// use caa_core::time::{VirtualDuration, VirtualInstant};
///
/// let start = VirtualInstant::EPOCH;
/// let later = start + VirtualDuration::from_millis(250);
/// assert_eq!(later.duration_since(start), VirtualDuration::from_millis(250));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtualInstant(u64);

impl VirtualInstant {
    /// The origin of the virtual timeline.
    pub const EPOCH: VirtualInstant = VirtualInstant(0);
    /// The far future; used as "no deadline".
    pub const FAR_FUTURE: VirtualInstant = VirtualInstant(u64::MAX);

    /// Creates an instant from nanoseconds since [`VirtualInstant::EPOCH`].
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        VirtualInstant(nanos)
    }

    /// Nanoseconds since [`VirtualInstant::EPOCH`].
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since [`VirtualInstant::EPOCH`] as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Elapsed virtual time since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[must_use]
    pub const fn duration_since(self, earlier: VirtualInstant) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, d: VirtualDuration) -> Option<VirtualInstant> {
        match self.0.checked_add(d.as_nanos()) {
            Some(n) => Some(VirtualInstant(n)),
            None => None,
        }
    }

    /// Saturating addition (clamps to [`VirtualInstant::FAR_FUTURE`]).
    #[must_use]
    pub const fn saturating_add(self, d: VirtualDuration) -> VirtualInstant {
        VirtualInstant(self.0.saturating_add(d.as_nanos()))
    }
}

impl Add<VirtualDuration> for VirtualInstant {
    type Output = VirtualInstant;
    fn add(self, rhs: VirtualDuration) -> VirtualInstant {
        VirtualInstant(
            self.0
                .checked_add(rhs.as_nanos())
                .expect("virtual instant overflow"),
        )
    }
}

impl AddAssign<VirtualDuration> for VirtualInstant {
    fn add_assign(&mut self, rhs: VirtualDuration) {
        *self = *self + rhs;
    }
}

impl Sub<VirtualDuration> for VirtualInstant {
    type Output = VirtualInstant;
    fn sub(self, rhs: VirtualDuration) -> VirtualInstant {
        VirtualInstant(
            self.0
                .checked_sub(rhs.as_nanos())
                .expect("virtual instant underflow"),
        )
    }
}

impl fmt::Display for VirtualInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{:.6}s", self.as_secs_f64())
    }
}

/// Convenience constructor for a [`VirtualDuration`] from fractional seconds.
///
/// # Examples
///
/// ```
/// use caa_core::time::{secs, VirtualDuration};
///
/// assert_eq!(secs(1.5), VirtualDuration::from_millis(1500));
/// ```
#[must_use]
pub fn secs(s: f64) -> VirtualDuration {
    VirtualDuration::from_secs_f64(s)
}

/// Convenience constructor for a [`VirtualDuration`] from whole milliseconds.
///
/// # Examples
///
/// ```
/// use caa_core::time::{millis, secs};
///
/// assert_eq!(millis(250), secs(0.25));
/// ```
#[must_use]
pub fn millis(ms: u64) -> VirtualDuration {
    VirtualDuration::from_millis(ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(VirtualDuration::from_secs(2), secs(2.0));
        assert_eq!(VirtualDuration::from_millis(1500), secs(1.5));
        assert_eq!(VirtualDuration::from_micros(1000), millis(1));
        assert_eq!(VirtualDuration::from_nanos(NANOS_PER_SEC), secs(1.0));
    }

    #[test]
    fn from_secs_f64_clamps_bad_inputs() {
        assert_eq!(VirtualDuration::from_secs_f64(-1.0), VirtualDuration::ZERO);
        assert_eq!(
            VirtualDuration::from_secs_f64(f64::NAN),
            VirtualDuration::ZERO
        );
        assert_eq!(
            VirtualDuration::from_secs_f64(f64::INFINITY),
            VirtualDuration::MAX
        );
    }

    #[test]
    fn arithmetic_roundtrips() {
        let a = secs(1.25);
        let b = secs(0.75);
        assert_eq!(a + b, secs(2.0));
        assert_eq!(a - b, secs(0.5));
        assert_eq!(a * 4, secs(5.0));
        assert_eq!(a / 5, secs(0.25));
        assert_eq!(b.saturating_sub(a), VirtualDuration::ZERO);
    }

    #[test]
    fn instant_ordering_and_elapsed() {
        let t0 = VirtualInstant::EPOCH;
        let t1 = t0 + secs(3.0);
        assert!(t1 > t0);
        assert_eq!(t1.duration_since(t0), secs(3.0));
        assert_eq!(t0.duration_since(t1), VirtualDuration::ZERO);
    }

    #[test]
    fn saturating_ops_do_not_panic() {
        assert_eq!(
            VirtualDuration::MAX.saturating_add(secs(1.0)),
            VirtualDuration::MAX
        );
        assert_eq!(
            VirtualInstant::FAR_FUTURE.saturating_add(secs(1.0)),
            VirtualInstant::FAR_FUTURE
        );
    }

    #[test]
    fn std_duration_conversion_roundtrip() {
        let d = secs(0.125);
        let std: std::time::Duration = d.into();
        assert_eq!(VirtualDuration::from(std), d);
    }

    #[test]
    fn sum_of_durations() {
        let total: VirtualDuration = [secs(0.5), secs(1.0), secs(0.25)].into_iter().sum();
        assert_eq!(total, secs(1.75));
    }

    #[test]
    fn display_is_nonempty_and_readable() {
        assert_eq!(secs(1.5).to_string(), "1.500000s");
        assert_eq!(
            (VirtualInstant::EPOCH + secs(2.0)).to_string(),
            "@2.000000s"
        );
    }
}
