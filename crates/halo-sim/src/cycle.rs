//! Cycle-domain time types.
//!
//! All timing in the simulator is expressed in CPU core cycles at the
//! reference frequency (2.1 GHz, matching the Intel Xeon Platinum 8160 the
//! paper characterizes and the gem5 configuration of Table 2).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Reference core frequency in Hz (2.1 GHz).
pub const CORE_HZ: u64 = 2_100_000_000;

/// An absolute point in simulated time, measured in core cycles.
///
/// `Cycle` is a transparent `u64` newtype so that absolute times and
/// durations ([`Cycles`]) cannot be confused.
///
/// # Examples
///
/// ```
/// use halo_sim::{Cycle, Cycles};
///
/// let start = Cycle::ZERO;
/// let later = start + Cycles(40);
/// assert_eq!(later - start, Cycles(40));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

/// A duration, measured in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycle {
    /// The beginning of simulated time.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the later of two points in time.
    #[inline]
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two points in time.
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> Cycles {
        Cycles(self.0.saturating_sub(earlier.0))
    }

    /// Converts this point in time to seconds at the reference frequency.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / CORE_HZ as f64
    }
}

impl Cycles {
    /// The zero-length duration.
    pub const ZERO: Cycles = Cycles(0);

    /// Returns the longer of two durations.
    #[must_use]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Converts this duration to seconds at the reference frequency.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / CORE_HZ as f64
    }

    /// Converts to nanoseconds at the reference frequency.
    #[must_use]
    pub fn as_nanos_f64(self) -> f64 {
        self.as_secs_f64() * 1e9
    }
}

impl Add<Cycles> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycles) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign<Cycles> for Cycle {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = Cycles;
    fn sub(self, rhs: Cycle) -> Cycles {
        debug_assert!(self.0 >= rhs.0, "negative cycle difference");
        Cycles(self.0 - rhs.0)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(v: u64) -> Self {
        Cycles(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrips() {
        let a = Cycle(100);
        let b = a + Cycles(23);
        assert_eq!(b, Cycle(123));
        assert_eq!(b - a, Cycles(23));
        assert_eq!(b.since(a), Cycles(23));
        assert_eq!(a.since(b), Cycles::ZERO);
    }

    #[test]
    fn min_max() {
        assert_eq!(Cycle(3).max(Cycle(9)), Cycle(9));
        assert_eq!(Cycle(3).min(Cycle(9)), Cycle(3));
        assert_eq!(Cycles(3).max(Cycles(9)), Cycles(9));
    }

    #[test]
    fn sum_of_durations() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }

    #[test]
    fn seconds_conversion() {
        assert!((Cycle(CORE_HZ).as_secs_f64() - 1.0).abs() < 1e-12);
        assert!((Cycles(21).as_nanos_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cycle(7).to_string(), "7cy");
        assert_eq!(Cycles(7).to_string(), "7cy");
    }
}
