//! Virtual time.
//!
//! Simulation time is an unsigned count of microseconds since the start of
//! the run. Microsecond resolution comfortably covers everything the paper
//! cares about (network round trips measured in milliseconds, batch queue
//! waits measured in hours, campaigns measured in days) while `u64` gives
//! ~584,000 years of range — far beyond any experiment.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of virtual time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Duration(pub u64);

impl SimTime {
    /// The origin of simulation time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Microseconds since simulation start.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Hours since simulation start (for CPU-hour style reporting).
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }
}

impl Duration {
    /// The empty span.
    pub const ZERO: Duration = Duration(0);
    /// The largest representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_mins(m: u64) -> Duration {
        Duration(m * 60_000_000)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Duration {
        Duration(h * 3_600_000_000)
    }

    /// Construct from whole days.
    #[inline]
    pub const fn from_days(d: u64) -> Duration {
        Duration(d * 86_400_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    ///
    /// Negative and non-finite inputs clamp to zero: durations cannot run
    /// backwards.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Duration {
        // NaN fails both comparisons and is sent back with the rest.
        if !(s > 0.0 && s < f64::INFINITY) {
            return Duration::ZERO;
        }
        Duration(round_micros(s * 1e6))
    }

    /// Microseconds in this span.
    #[inline]
    pub fn micros(self) -> u64 {
        self.0
    }

    /// Seconds in this span, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Hours in this span, as a float.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// True if the span is empty.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, rhs: Duration) -> Duration {
        Duration(self.0.min(rhs.0))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, rhs: Duration) -> Duration {
        Duration(self.0.max(rhs.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs.max(1))
    }
}

/// `us.round() as u64` for `us >= 0` (`+inf` included), without the libm
/// call: below 2^52 the truncation, its conversion back and the difference
/// are all exact, so comparing the fraction with one half rounds half away
/// from zero as `round` does; from 2^52 up every `f64` is already whole, and
/// the cast saturates.
#[inline]
fn round_micros(us: f64) -> u64 {
    if us < 4_503_599_627_370_496.0 {
        let whole = us as i64;
        whole as u64 + u64::from(us - whole as f64 >= 0.5)
    } else {
        us as u64
    }
}

/// `100ms` / `90s` / `30m` / `2h` / `1d`: a whole number and a unit. The
/// one duration syntax of the command-line tools and the `.scn` language.
impl std::str::FromStr for Duration {
    type Err = String;

    fn from_str(s: &str) -> Result<Duration, String> {
        // "ms" before "s" and "m": the first suffix that fits decides.
        const UNITS: [(&str, u64); 5] = [
            ("ms", 1_000),
            ("s", 1_000_000),
            ("m", 60_000_000),
            ("h", 3_600_000_000),
            ("d", 86_400_000_000),
        ];
        UNITS
            .iter()
            .find_map(|&(unit, micros)| Some((s.strip_suffix(unit)?, micros)))
            .and_then(|(n, micros)| n.parse::<u64>().ok()?.checked_mul(micros))
            .map(Duration)
            .ok_or_else(|| format!("bad duration {s:?} (want <n>ms|s|m|h|d)"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_micros(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

/// Render microseconds in the most natural unit (`1.5ms`, `2h03m`, ...).
fn format_micros(us: u64) -> String {
    const MS: u64 = 1_000;
    const S: u64 = 1_000_000;
    const M: u64 = 60 * S;
    const H: u64 = 60 * M;
    const D: u64 = 24 * H;
    if us < MS {
        format!("{us}us")
    } else if us < S {
        format!("{:.3}ms", us as f64 / MS as f64)
    } else if us < M {
        format!("{:.3}s", us as f64 / S as f64)
    } else if us < H {
        format!("{}m{:02}s", us / M, (us % M) / S)
    } else if us < D {
        format!("{}h{:02}m", us / H, (us % H) / M)
    } else {
        format!("{}d{:02}h", us / D, (us % D) / H)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
        assert_eq!(Duration::from_mins(2), Duration::from_secs(120));
        assert_eq!(Duration::from_hours(1), Duration::from_mins(60));
        assert_eq!(Duration::from_days(1), Duration::from_hours(24));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_secs(5);
        assert_eq!(t.micros(), 5_000_000);
        assert_eq!(t - SimTime::ZERO, Duration::from_secs(5));
        // Saturating: subtracting a later time yields zero, not underflow.
        assert_eq!(SimTime::ZERO - t, Duration::ZERO);
        assert_eq!(
            Duration::from_secs(3) - Duration::from_secs(5),
            Duration::ZERO
        );
    }

    #[test]
    fn float_round_trip() {
        let d = Duration::from_secs_f64(1.25);
        assert_eq!(d.micros(), 1_250_000);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-9);
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::INFINITY), Duration::ZERO);
    }

    /// What `from_secs_f64` computed before it stopped calling libm.
    fn rounded_by_libm(s: f64) -> Duration {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration((s * 1e6).round() as u64)
    }

    #[test]
    fn round_micros_agrees_with_round_at_the_edges() {
        let two52 = 4_503_599_627_370_496.0_f64;
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        let edges = [
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE,
            below(0.5), // 0.49999999999999994: floor(x + 0.5) gets this wrong
            0.5,
            above(0.5),
            below(1.0),
            1.0,
            1.5,
            2.5,
            below(2.5),
            1e6 + 0.5,
            below(two52), // 2^52 - 0.5, the last f64 with a fraction
            two52,
            above(two52),
            9_007_199_254_740_993.0,
            below(u64::MAX as f64),
            u64::MAX as f64, // 2^64: saturates
            above(u64::MAX as f64),
            1e300,
            f64::MAX,
            f64::INFINITY, // a finite `s` whose product overflows
        ];
        for us in edges {
            assert_eq!(round_micros(us), us.round() as u64, "{us:e} us");
        }
        assert_eq!(round_micros(below(0.5)), 0);
        assert_eq!(round_micros(2.5), 3);
        assert_eq!(round_micros(below(two52)), 1 << 52);
        assert_eq!(round_micros(1e300), u64::MAX);
        // Nothing but finite, positive seconds reaches the rounding.
        let inf = f64::INFINITY;
        for s in [-0.0, 0.0, -1.0, -5e-324, f64::NAN, -f64::NAN, inf, -inf] {
            assert_eq!(Duration::from_secs_f64(s), Duration::ZERO, "{s:e} s");
        }
        for s in [5e-324, 1e-320, 4.9e-7, 5e-7, 1e303, f64::MAX] {
            assert_eq!(Duration::from_secs_f64(s), rounded_by_libm(s), "{s:e} s");
        }
    }

    proptest! {
        /// Any `f64` at all, and any near the range where rounding decides
        /// something (0.125 us to 2^66 us), gives the integer `round()` gave.
        #[test]
        fn from_secs_f64_is_round_half_away(
            anything in prop::collection::vec(any::<f64>(), 256..257),
            near in prop::collection::vec((0u64..70, any::<u64>()), 256..257),
        ) {
            for s in anything {
                prop_assert_eq!(Duration::from_secs_f64(s), rounded_by_libm(s), "{:e} s", s);
            }
            for (exp, mantissa) in near {
                let us = f64::from_bits(((1020 + exp) << 52) | (mantissa >> 12));
                prop_assert_eq!(round_micros(us), us.round() as u64, "{:e} us", us);
                let s = us / 1e6;
                prop_assert_eq!(Duration::from_secs_f64(s), rounded_by_libm(s), "{:e} s", s);
                prop_assert_eq!(Duration(1) * us, rounded_by_libm(1e-6 * us), "1 us x {:e}", us);
            }
        }
    }

    #[test]
    fn scaling() {
        assert_eq!(Duration::from_secs(2) * 3, Duration::from_secs(6));
        assert_eq!(Duration::from_secs(2) * 1.5, Duration::from_secs(3));
        assert_eq!(Duration::from_secs(6) / 3, Duration::from_secs(2));
        assert_eq!(Duration::from_secs(6) / 0, Duration::from_secs(6));
    }

    #[test]
    fn formatting() {
        assert_eq!(format!("{}", Duration::from_micros(12)), "12us");
        assert_eq!(format!("{}", Duration::from_millis(1)), "1.000ms");
        assert_eq!(format!("{}", Duration::from_secs(90)), "1m30s");
        assert_eq!(format!("{}", Duration::from_hours(25)), "1d01h");
    }

    #[test]
    fn parsing() {
        assert_eq!("100ms".parse(), Ok(Duration::from_millis(100)));
        assert_eq!("90s".parse(), Ok(Duration::from_secs(90)));
        assert_eq!("30m".parse(), Ok(Duration::from_mins(30)));
        assert_eq!("2h".parse(), Ok(Duration::from_hours(2)));
        assert_eq!("1d".parse(), Ok(Duration::from_days(1)));
        assert_eq!("0s".parse(), Ok(Duration::ZERO));
        // No unit, no number, a sign, a fraction, a non-ASCII tail, an
        // overflowing product: errors, never panics.
        for bad in ["", "5", "s", "ms", "-5s", "1.5h", "5é", "5 s", "xx"] {
            assert!(bad.parse::<Duration>().is_err(), "accepted {bad:?}");
        }
        assert!(format!("{}d", u64::MAX).parse::<Duration>().is_err());
        assert!(format!("{}s", u64::MAX / 1_000_000 + 1)
            .parse::<Duration>()
            .is_err());
    }

    #[test]
    fn hours_reporting() {
        let week = Duration::from_days(7);
        assert!((week.as_hours_f64() - 168.0).abs() < 1e-9);
    }
}
