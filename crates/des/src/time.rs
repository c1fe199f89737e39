//! Virtual time. Integer nanoseconds so that event ordering is exact and
//! arithmetic never accumulates floating-point error across long runs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in integer nanoseconds.
///
/// `SimTime` is used both as an instant (time since simulation start) and as
/// a duration; the engine never needs a distinct instant type because the
/// simulation origin is always zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation origin / zero duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable time (the end of an open window).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from integer nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from integer microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from integer milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Negative or non-finite inputs saturate to zero: durations in the
    /// runtime are physically non-negative and a NaN must not poison the
    /// event queue ordering.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((s * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds (for reporting; do not use in ordering).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow of the u64 nanosecond counter.
    #[inline]
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Scale a duration by a non-negative factor (e.g. a node slowdown),
    /// rounding to the nearest nanosecond.
    #[inline]
    pub fn scale(self, factor: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Integer division rounding up; used for "how many periods fit".
    #[inline]
    pub fn div_ceil(self, rhs: SimTime) -> u64 {
        assert!(rhs.0 > 0, "division by zero duration");
        self.0.div_ceil(rhs.0)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
        assert_eq!(SimTime::from_secs_f64(0.05), SimTime::from_millis(50));
    }

    #[test]
    fn from_secs_f64_saturates_bad_inputs() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(30);
        let b = SimTime::from_millis(20);
        assert_eq!(a + b, SimTime::from_millis(50));
        assert_eq!(a - b, SimTime::from_millis(10));
        assert_eq!(a * 3, SimTime::from_millis(90));
        assert_eq!(a / 3, SimTime::from_millis(10));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn scale_applies_slowdown() {
        let t = SimTime::from_millis(50);
        assert_eq!(t.scale(3.0), SimTime::from_millis(150));
        assert_eq!(t.scale(0.5), SimTime::from_millis(25));
        assert_eq!(t.scale(1.0), t);
    }

    #[test]
    fn div_ceil_counts_periods() {
        let period = SimTime::from_secs(2);
        assert_eq!(SimTime::from_secs(5).div_ceil(period), 3);
        assert_eq!(SimTime::from_secs(4).div_ceil(period), 2);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime::from_nanos(42).to_string(), "42ns");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [1u64, 2, 3].iter().map(|&s| SimTime::from_secs(s)).sum();
        assert_eq!(total, SimTime::from_secs(6));
    }
}
