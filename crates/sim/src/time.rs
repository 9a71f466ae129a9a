//! Simulated time.
//!
//! Venice latencies span five orders of magnitude: sub-nanosecond on-chip
//! switch hops up to multi-second workload executions. We represent time as
//! integer **picoseconds** in a `u64`, which covers ~213 days of simulated
//! time — far beyond any experiment in the paper — while keeping exact
//! arithmetic for serialization delays such as "64 bytes at 5 Gbps"
//! (102.4 ns, not representable in integer nanoseconds).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in (or span of) simulated time, stored in integer picoseconds.
///
/// `Time` is used both as an absolute timestamp and as a duration; the
/// kernel only ever compares and adds values, so a single type keeps the
/// API small, mirroring `std::time::Duration` usage in practice.
///
/// # Example
///
/// ```
/// use venice_sim::Time;
/// let t = Time::from_us(1) + Time::from_ns(400);
/// assert_eq!(t.as_ns(), 1_400);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(u64);

impl Time {
    /// The zero instant (simulation start).
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinite" deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000_000)
    }

    /// Creates a time from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000_000)
    }

    /// Creates a time from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time in seconds: {s}");
        Time((s * 1e12).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time in whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Time in whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Time in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; clamps at [`Time::ZERO`].
    #[inline]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Time) -> Option<Time> {
        self.0.checked_add(rhs.0).map(Time)
    }

    /// The duration needed to move `bytes` across a link of `gbps`
    /// gigabits per second (serialization delay).
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not strictly positive.
    pub fn serialize_bytes(bytes: u64, gbps: f64) -> Time {
        assert!(gbps > 0.0, "bandwidth must be positive, got {gbps}");
        // bits / (gbits/s) = ns; work in ps for precision.
        let ps = (bytes as f64 * 8.0) / gbps * 1_000.0;
        Time(ps.round() as u64)
    }

    /// Duration of `cycles` cycles at `mhz` megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is not strictly positive.
    pub fn from_cycles(cycles: u64, mhz: f64) -> Time {
        assert!(mhz > 0.0, "frequency must be positive, got {mhz}");
        let ps = cycles as f64 * 1e6 / mhz;
        Time(ps.round() as u64)
    }

    /// Scales the time by a dimensionless factor, rounding the product
    /// to the nearest picosecond (halves away from zero) and saturating
    /// at [`Time::MAX`].
    ///
    /// The rounding is integer arithmetic equal to `f64::round` on
    /// every finite non-negative product, not a call to it: this sits
    /// on the per-request path (gap and service draws), where `round`
    /// is an out-of-line library call on the baseline x86-64 target.
    /// The truncating cast saturates as `round() as u64` does, and
    /// `x - trunc(x)` is exact, so the half test is exact too.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    #[inline]
    pub fn scale(self, f: f64) -> Time {
        assert!(f.is_finite() && f >= 0.0, "invalid scale factor {f}");
        let x = self.0 as f64 * f;
        let t = x as u64;
        Time(t.saturating_add((x - t as f64 >= 0.5) as u64))
    }

    /// Ratio of two durations as `f64`; returns 0 when `rhs` is zero.
    pub fn ratio(self, rhs: Time) -> f64 {
        if rhs.0 == 0 {
            0.0
        } else {
            self.0 as f64 / rhs.0 as f64
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.3}s", ps as f64 / 1e12)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_ns(7).as_ps(), 7_000);
        assert_eq!(Time::from_us(3).as_ns(), 3_000);
        assert_eq!(Time::from_ms(2).as_us(), 2_000);
        assert_eq!(Time::from_secs(1).as_ms_f64(), 1_000.0);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(100);
        let b = Time::from_ns(40);
        assert_eq!(a + b, Time::from_ns(140));
        assert_eq!(a - b, Time::from_ns(60));
        assert_eq!(a * 3, Time::from_ns(300));
        assert_eq!(a / 4, Time::from_ns(25));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
    }

    #[test]
    fn serialization_delay_matches_hand_computation() {
        // 64 bytes at 5 Gbps = 512 bits / 5 Gbps = 102.4 ns.
        let t = Time::serialize_bytes(64, 5.0);
        assert_eq!(t.as_ps(), 102_400);
    }

    #[test]
    fn cycles_at_frequency() {
        // 667 MHz (the prototype's Cortex-A9): 1 cycle = 1499.25 ps.
        let t = Time::from_cycles(1000, 667.0);
        assert_eq!(t.as_ns(), 1_499);
    }

    #[test]
    fn scale_and_ratio() {
        let t = Time::from_ns(200);
        assert_eq!(t.scale(1.5), Time::from_ns(300));
        assert!((t.ratio(Time::from_ns(100)) - 2.0).abs() < 1e-12);
        assert_eq!(t.ratio(Time::ZERO), 0.0);
    }

    /// `scale`'s integer rounding equals `f64::round` (saturating) on
    /// the inputs where a hand-rolled rounding can go wrong: zero and
    /// subnormals, exact halves and their one-ulp neighbours, the
    /// binades where `f64` stops carrying fractions (2^52, 2^53), the
    /// `u64` edges (2^63, 2^64) and products beyond `u64::MAX`.
    #[test]
    fn scale_rounds_exactly_like_f64_round() {
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut xs = vec![
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            down(f64::MIN_POSITIVE),
            f64::MIN_POSITIVE,
            0.49999999999999994,
            1e30,
            f64::MAX,
        ];
        for k in [
            0.0,
            1.0,
            2.0,
            3.0,
            1e6,
            123_456_789.0,
            2f64.powi(51),
            2f64.powi(52) - 1.0,
        ] {
            let half = k + 0.5;
            xs.extend([down(half), half, up(half), k, up(k)]);
        }
        for p in [52, 53, 63, 64, 65] {
            let x = 2f64.powi(p);
            xs.extend([down(x), x, up(x)]);
        }
        for x in xs {
            assert_eq!(
                Time::from_ps(1).scale(x),
                Time(x.round() as u64),
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(Time::ZERO.to_string(), "0s");
        assert_eq!(Time::from_ps(12).to_string(), "12ps");
        assert_eq!(Time::from_ns(1).to_string(), "1.000ns");
        assert_eq!(Time::from_us(1).to_string(), "1.000us");
        assert_eq!(Time::from_ms(1).to_string(), "1.000ms");
        assert_eq!(Time::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: Time = [Time::from_ns(1), Time::from_ns(2), Time::from_ns(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_ns(6));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(Time::from_secs_f64(1e-9), Time::from_ns(1));
        assert_eq!(Time::from_secs_f64(0.5).as_ms_f64(), 500.0);
    }

    #[test]
    #[should_panic]
    fn negative_seconds_panics() {
        let _ = Time::from_secs_f64(-1.0);
    }
}
