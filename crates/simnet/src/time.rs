//! Virtual time types: [`SimTime`] (an instant) and [`SimDuration`] (a span).
//!
//! Both are thin wrappers over a `u64` nanosecond count. Arithmetic is
//! saturating: a simulation that somehow runs past `u64::MAX` nanoseconds
//! (~584 years) pins at the maximum rather than wrapping, which turns a
//! logic error into an obviously-stuck simulation instead of silent
//! time travel.

use crate::units::{ByteRate, Bytes};

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, measured in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from a raw nanosecond count.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since the simulation epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since the epoch, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the epoch, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    #[inline]
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds; negative values clamp to zero.
    ///
    /// # Contract
    ///
    /// The span must be finite: NaN and infinity are never a meaningful
    /// duration — they arise from a bad rate/interarrival config (divide
    /// by zero, log of zero) and should fail loudly, not saturate
    /// silently. Debug builds assert; release builds clamp NaN to zero
    /// and ±infinity to the saturation bounds (0 / `u64::MAX` ns).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(
            s.is_finite(),
            "SimDuration::from_secs_f64 requires a finite span, got {s}"
        );
        // NaN.max(0.0) is 0.0 and `as u64` saturates, so the release
        // clamps fall out of the expression; the assert is the loud path.
        SimDuration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Construct from fractional microseconds; negative values clamp to
    /// zero. Same finiteness contract as [`SimDuration::from_secs_f64`]:
    /// debug builds assert on NaN/infinity, release builds clamp.
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(
            us.is_finite(),
            "SimDuration::from_micros_f64 requires a finite span, got {us}"
        );
        SimDuration((us.max(0.0) * 1e3).round() as u64)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True when the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer division by a count, rounding to nearest; used to normalize
    /// cumulative times over message counts.
    ///
    /// # Contract
    ///
    /// `n` must be positive: averaging over zero messages has no meaning,
    /// and callers (benchmark reducers, stage normalizers) guarantee at
    /// least one sample before dividing. Panics with the stated invariant
    /// instead of surfacing a bare divide-by-zero.
    #[inline]
    pub fn div_count(self, n: u64) -> SimDuration {
        assert!(n > 0, "SimDuration::div_count over zero messages");
        SimDuration((self.0 + n / 2) / n)
    }

    /// The time to serialize `bytes` at `rate`, rounded up.
    ///
    /// This is the fundamental bandwidth→time conversion used by every
    /// [`crate::pipe::Pipe`]; `Bytes / ByteRate` delegates here. Divides
    /// in `u64` whenever `bytes * 1e9` fits (any transfer under about
    /// 18.4 GB), and in `u128` otherwise, so that larger transfers cannot
    /// overflow; both give the same integer, and the result saturates at
    /// `u64::MAX` ns.
    ///
    /// # Contract
    ///
    /// `rate` must be nonzero — serialization over a zero-bandwidth link
    /// never completes, so there is no duration to return. Every rate in
    /// the workspace comes from a calibration constant or [`crate::Pipe`]
    /// construction, both of which reject zero; the check here turns a
    /// bare `div_ceil` divide-by-zero into a stated invariant.
    #[inline]
    pub fn serialize(bytes: Bytes, rate: ByteRate) -> SimDuration {
        assert!(
            !rate.is_zero(),
            "SimDuration::serialize over a zero-bandwidth rate never completes"
        );
        // The `u64` divide is a hardware instruction; the `u128` one is a
        // software routine, and this runs on every pipe service time.
        if let Some(scaled) = bytes.get().checked_mul(1_000_000_000) {
            return SimDuration(scaled.div_ceil(rate.as_bytes_per_sec()));
        }
        SimDuration(serialize_wide(bytes, rate))
    }
}

/// `ceil(bytes * 1e9 / rate)` in `u128`, saturated to `u64::MAX`: the
/// overflow-proof form of [`SimDuration::serialize`].
#[inline]
fn serialize_wide(bytes: Bytes, rate: ByteRate) -> u64 {
    let ns = (bytes.get() as u128 * 1_000_000_000u128).div_ceil(rate.as_bytes_per_sec() as u128);
    ns.min(u64::MAX as u128) as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// Floor division by a count. `rhs` must be positive (same contract as
    /// [`SimDuration::div_count`]); panics with the stated invariant
    /// instead of a bare divide-by-zero.
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        assert!(rhs > 0, "SimDuration division by a zero count");
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn float_construction_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1.5e-9).as_nanos(), 2);
        assert_eq!(SimDuration::from_micros_f64(0.5).as_nanos(), 500);
        assert_eq!(SimDuration::from_secs_f64(-1.0).as_nanos(), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "finite span"))]
    fn float_construction_rejects_nan() {
        // Debug builds state the invariant; release builds clamp NaN to
        // zero (the `max(0.0)`/saturating-cast path), so the assert below
        // documents the release behavior.
        assert_eq!(SimDuration::from_secs_f64(f64::NAN).as_nanos(), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "finite span"))]
    fn float_construction_rejects_infinity() {
        // Release builds saturate +inf at u64::MAX ns, -inf clamps to 0.
        assert_eq!(
            SimDuration::from_micros_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
        assert_eq!(SimDuration::from_secs_f64(f64::NEG_INFINITY).as_nanos(), 0);
    }

    #[test]
    fn arithmetic_saturates() {
        let huge = SimTime::from_nanos(u64::MAX);
        assert_eq!((huge + SimDuration::from_secs(1)).as_nanos(), u64::MAX);
        let d = SimDuration::from_nanos(5) - SimDuration::from_nanos(9);
        assert_eq!(d.as_nanos(), 0);
        assert_eq!(
            SimTime::from_nanos(3).duration_since(SimTime::from_nanos(9)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn instant_difference() {
        let a = SimTime::from_nanos(1_000);
        let b = SimTime::from_nanos(4_500);
        assert_eq!((b - a).as_nanos(), 3_500);
        // 3500 ns is exactly 3.5 us in f64, so bit equality holds.
        assert_eq!(
            b.duration_since(a).as_micros_f64().to_bits(),
            3.5_f64.to_bits()
        );
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1 byte at 1 GB/s = 1 ns exactly.
        assert_eq!(
            SimDuration::serialize(Bytes::new(1), ByteRate::from_gbps(8)).as_nanos(),
            1
        );
        // 1500 bytes at 1.25 GB/s (10GbE) = 1200 ns.
        assert_eq!(
            SimDuration::serialize(Bytes::new(1500), ByteRate::from_gbps(10)).as_nanos(),
            1200
        );
        // Rounds up: 1 byte at 3 GB/s = ceil(1/3 ns) = 1 ns.
        assert_eq!(
            SimDuration::serialize(Bytes::new(1), ByteRate::from_bytes_per_sec(3_000_000_000))
                .as_nanos(),
            1
        );
        // Large transfer does not overflow: 16 GiB at 1 GB/s ≈ 17.18 s.
        let d = SimDuration::serialize(Bytes::new(16 << 30), ByteRate::from_gbps(8));
        assert!(d.as_secs_f64() > 17.0 && d.as_secs_f64() < 17.3);
    }

    #[test]
    fn serialize_fast_path_matches_u128_form() {
        let check = |bytes: u64, rate: u64| {
            let (b, r) = (Bytes::new(bytes), ByteRate::from_bytes_per_sec(rate));
            assert_eq!(
                SimDuration::serialize(b, r).as_nanos(),
                serialize_wide(b, r),
                "bytes={bytes} rate={rate}"
            );
        };
        // Seeded random pairs over the whole range: small and huge byte
        // counts (both paths), slow and fast rates.
        let mut state = 0x5EED_u64;
        for _ in 0..100_000 {
            state = crate::fault::splitmix64(state);
            let bytes = state >> (state % 64);
            state = crate::fault::splitmix64(state);
            let rate = (state >> (state % 64)).max(1);
            check(bytes, rate);
        }
        // Both sides of the `bytes * 1e9` overflow boundary.
        let edge = u64::MAX / 1_000_000_000;
        for bytes in [edge - 1, edge, edge + 1, edge + 2, u64::MAX] {
            for rate in [1, 3, 1_250_000_000, 999_999_999_999, u64::MAX] {
                check(bytes, rate);
            }
        }
        assert!(edge.checked_mul(1_000_000_000).is_some());
        assert!((edge + 1).checked_mul(1_000_000_000).is_none());
    }

    #[test]
    #[should_panic(expected = "zero-bandwidth")]
    fn serialization_over_zero_rate_states_invariant() {
        let _ = SimDuration::serialize(Bytes::new(1), ByteRate::from_bytes_per_sec(0));
    }

    #[test]
    fn div_count_rounds_to_nearest() {
        assert_eq!(SimDuration::from_nanos(10).div_count(4).as_nanos(), 3);
        assert_eq!(SimDuration::from_nanos(9).div_count(3).as_nanos(), 3);
    }

    #[test]
    #[should_panic(expected = "zero messages")]
    fn div_count_by_zero_states_invariant() {
        let _ = SimDuration::from_nanos(10).div_count(0);
    }

    #[test]
    #[should_panic(expected = "zero count")]
    fn div_operator_by_zero_states_invariant() {
        let _ = SimDuration::from_nanos(10) / 0;
    }

    #[test]
    fn display_formats_microseconds() {
        assert_eq!(format!("{}", SimDuration::from_nanos(9_780)), "9.780us");
        assert_eq!(format!("{}", SimTime::from_nanos(4_530)), "4.530us");
    }
}
