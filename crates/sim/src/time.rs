//! Simulated time: instants ([`SimTime`]) and durations ([`SimSpan`]).
//!
//! Both are nanosecond-granular unsigned integers. Integer time keeps
//! the event queue total order exact — no floating-point tie ambiguity —
//! which is what makes the whole simulator bit-deterministic.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration in simulated time, stored as whole nanoseconds.
///
/// # Example
///
/// ```
/// use voltascope_sim::SimSpan;
///
/// let span = SimSpan::from_micros(1500);
/// assert_eq!(span.as_nanos(), 1_500_000);
/// assert_eq!(span.as_secs_f64(), 0.0015);
/// assert_eq!(span * 2, SimSpan::from_millis(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimSpan(u64);

impl SimSpan {
    /// The zero-length span.
    pub const ZERO: SimSpan = SimSpan(0);

    /// Creates a span of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimSpan(ns)
    }

    /// Creates a span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimSpan(us * 1_000)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimSpan(ms * 1_000_000)
    }

    /// Creates a span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimSpan(s * 1_000_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// nanosecond. Negative, NaN, and infinite inputs saturate to zero /
    /// `u64::MAX` so cost models never panic on degenerate parameters.
    pub fn from_secs_f64(s: f64) -> Self {
        let ns = s * 1e9;
        if ns.is_nan() || ns <= 0.0 {
            SimSpan(0)
        } else if ns >= u64::MAX as f64 {
            SimSpan(u64::MAX)
        } else {
            SimSpan(ns.round() as u64)
        }
    }

    /// The span in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` when the span is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition: `None` when the sum leaves the `u64`
    /// nanosecond range.
    pub const fn checked_add(self, rhs: SimSpan) -> Option<SimSpan> {
        match self.0.checked_add(rhs.0) {
            Some(ns) => Some(SimSpan(ns)),
            None => None,
        }
    }

    /// Saturating subtraction: `self - rhs`, clamped at zero.
    pub const fn saturating_sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the span by a floating-point factor, rounding to the
    /// nearest nanosecond and saturating on overflow.
    pub fn mul_f64(self, factor: f64) -> SimSpan {
        SimSpan::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// The ratio `self / other` as a float; returns 0.0 when `other` is
    /// zero (used for utilisation figures on empty schedules).
    pub fn ratio(self, other: SimSpan) -> f64 {
        if other.0 == 0 {
            0.0
        } else {
            self.0 as f64 / other.0 as f64
        }
    }

    /// The larger of the two spans.
    pub fn max(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.max(other.0))
    }

    /// The smaller of the two spans.
    pub fn min(self, other: SimSpan) -> SimSpan {
        SimSpan(self.0.min(other.0))
    }
}

impl Add for SimSpan {
    type Output = SimSpan;
    fn add(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.checked_add(rhs.0).expect("SimSpan overflow"))
    }
}

impl AddAssign for SimSpan {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub for SimSpan {
    type Output = SimSpan;
    fn sub(self, rhs: SimSpan) -> SimSpan {
        SimSpan(self.0.checked_sub(rhs.0).expect("SimSpan underflow"))
    }
}

impl SubAssign for SimSpan {
    fn sub_assign(&mut self, rhs: SimSpan) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimSpan {
    type Output = SimSpan;
    fn mul(self, rhs: u64) -> SimSpan {
        SimSpan(self.0.checked_mul(rhs).expect("SimSpan overflow"))
    }
}

impl Div<u64> for SimSpan {
    type Output = SimSpan;
    fn div(self, rhs: u64) -> SimSpan {
        SimSpan(self.0 / rhs)
    }
}

impl Sum for SimSpan {
    fn sum<I: Iterator<Item = SimSpan>>(iter: I) -> SimSpan {
        iter.fold(SimSpan::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An instant in simulated time, measured from the start of the run.
///
/// # Example
///
/// ```
/// use voltascope_sim::{SimSpan, SimTime};
///
/// let t = SimTime::ZERO + SimSpan::from_millis(2);
/// assert_eq!(t.elapsed_since(SimTime::ZERO), SimSpan::from_millis(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ns` nanoseconds after the start of the run.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the start of the run (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds since the start of the run.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn elapsed_since(self, earlier: SimTime) -> SimSpan {
        assert!(
            earlier.0 <= self.0,
            "elapsed_since: {earlier} is after {self}"
        );
        SimSpan(self.0 - earlier.0)
    }

    /// The instant `span` after `self`, or `None` when it leaves the
    /// `u64` nanosecond range.
    pub const fn checked_add(self, span: SimSpan) -> Option<SimTime> {
        match self.0.checked_add(span.0) {
            Some(ns) => Some(SimTime(ns)),
            None => None,
        }
    }

    /// The later of the two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of the two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add<SimSpan> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimSpan> for SimTime {
    fn add_assign(&mut self, rhs: SimSpan) {
        *self = *self + rhs;
    }
}

impl Sub<SimSpan> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimSpan) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimSpan;
    fn sub(self, rhs: SimTime) -> SimSpan {
        self.elapsed_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimSpan(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_constructors_agree() {
        assert_eq!(SimSpan::from_secs(1), SimSpan::from_millis(1000));
        assert_eq!(SimSpan::from_millis(1), SimSpan::from_micros(1000));
        assert_eq!(SimSpan::from_micros(1), SimSpan::from_nanos(1000));
    }

    #[test]
    fn span_from_f64_rounds() {
        assert_eq!(SimSpan::from_secs_f64(1.5e-9), SimSpan::from_nanos(2));
        assert_eq!(SimSpan::from_secs_f64(0.25), SimSpan::from_millis(250));
    }

    #[test]
    fn span_from_f64_saturates_on_degenerate_input() {
        assert_eq!(SimSpan::from_secs_f64(-1.0), SimSpan::ZERO);
        assert_eq!(SimSpan::from_secs_f64(f64::NAN), SimSpan::ZERO);
        assert_eq!(
            SimSpan::from_secs_f64(f64::INFINITY),
            SimSpan::from_nanos(u64::MAX)
        );
    }

    #[test]
    fn span_arithmetic() {
        let a = SimSpan::from_micros(3);
        let b = SimSpan::from_micros(2);
        assert_eq!(a + b, SimSpan::from_micros(5));
        assert_eq!(a - b, SimSpan::from_micros(1));
        assert_eq!(a * 4, SimSpan::from_micros(12));
        assert_eq!(a / 3, SimSpan::from_micros(1));
        assert_eq!(b.saturating_sub(a), SimSpan::ZERO);
        assert_eq!(a.checked_add(b), Some(SimSpan::from_micros(5)));
        assert_eq!(SimSpan::from_nanos(u64::MAX).checked_add(a), None);
    }

    #[test]
    fn span_sum_and_ratio() {
        let total: SimSpan = [1u64, 2, 3].into_iter().map(SimSpan::from_micros).sum();
        assert_eq!(total, SimSpan::from_micros(6));
        assert!((SimSpan::from_micros(1).ratio(total) - 1.0 / 6.0).abs() < 1e-12);
        assert_eq!(total.ratio(SimSpan::ZERO), 0.0);
    }

    #[test]
    fn span_mul_f64() {
        assert_eq!(
            SimSpan::from_micros(100).mul_f64(1.5),
            SimSpan::from_micros(150)
        );
        assert_eq!(SimSpan::from_micros(100).mul_f64(0.0), SimSpan::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimSpan::from_micros(10);
        assert_eq!(t.as_micros(), 10);
        assert_eq!(t - SimTime::ZERO, SimSpan::from_micros(10));
        assert_eq!(t - SimSpan::from_micros(4), SimTime::from_nanos(6_000));
        assert_eq!(
            t.checked_add(SimSpan::from_nanos(1)),
            Some(SimTime::from_nanos(10_001))
        );
        assert_eq!(t.checked_add(SimSpan::from_nanos(u64::MAX)), None);
    }

    #[test]
    #[should_panic(expected = "elapsed_since")]
    fn time_elapsed_panics_when_reversed() {
        let t = SimTime::from_nanos(5);
        let _ = SimTime::ZERO.elapsed_since(t);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimSpan::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimSpan::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimSpan::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimSpan::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_nanos(1_000).to_string(), "t+1.000us");
    }

    #[test]
    fn min_max() {
        let a = SimSpan::from_nanos(1);
        let b = SimSpan::from_nanos(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let ta = SimTime::from_nanos(1);
        let tb = SimTime::from_nanos(2);
        assert_eq!(ta.max(tb), tb);
        assert_eq!(ta.min(tb), ta);
    }
}
