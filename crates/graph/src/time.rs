//! Integer-tick time model.
//!
//! All timing quantities in the analysis are integer *ticks*: a [`Time`] is a
//! point on the global timeline (possibly negative, e.g. an intermediate
//! `lms` value that proves infeasibility), a [`Dur`] is a non-negative span.
//! Using integers keeps every bound in the pipeline exact — the ratio
//! maximization of the paper's Equation 6.3 is done with cross-multiplied
//! integer arithmetic, never floating point.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in time, measured in integer ticks from an arbitrary origin.
///
/// `Time` is ordered, copyable and cheap; negative values are allowed
/// because intermediate quantities of the analysis (latest message send
/// times, for example) can fall before the origin, which is how
/// infeasibility manifests.
///
/// # Example
///
/// ```
/// use rtlb_graph::{Dur, Time};
/// let t = Time::new(10) + Dur::new(5);
/// assert_eq!(t, Time::new(15));
/// assert_eq!(t.diff(Time::new(3)), 12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(i64);

impl Time {
    /// The origin of the timeline, tick zero.
    pub const ZERO: Time = Time(0);
    /// The largest representable time; useful as an "effectively unbounded"
    /// deadline sentinel in workload generators.
    pub const MAX: Time = Time(i64::MAX / 4);
    /// The smallest representable time.
    pub const MIN: Time = Time(i64::MIN / 4);

    /// Creates a time at `ticks` ticks from the origin.
    pub const fn new(ticks: i64) -> Time {
        Time(ticks)
    }

    /// Returns the tick count of this time point.
    pub const fn ticks(self) -> i64 {
        self.0
    }

    /// Signed distance from `earlier` to `self` in ticks
    /// (negative if `self` precedes `earlier`).
    pub const fn diff(self, earlier: Time) -> i64 {
        self.0 - earlier.0
    }

    /// Duration from `earlier` to `self`, clamped to zero if `self`
    /// precedes `earlier`.
    pub fn since(self, earlier: Time) -> Dur {
        Dur::new(self.diff(earlier).max(0))
    }

    /// The earlier of two time points.
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two time points.
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Dur> for Time {
    type Output = Time;
    fn sub(self, rhs: Dur) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign<Dur> for Time {
    fn sub_assign(&mut self, rhs: Dur) {
        self.0 -= rhs.0;
    }
}

/// A non-negative span of time in integer ticks.
///
/// Computation times `C_i` and message sizes `m_ji` are durations. The
/// non-negativity invariant is enforced at construction.
///
/// # Example
///
/// ```
/// use rtlb_graph::Dur;
/// let total: Dur = [Dur::new(2), Dur::new(3)].into_iter().sum();
/// assert_eq!(total, Dur::new(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(i64);

impl Dur {
    /// The zero-length duration.
    pub const ZERO: Dur = Dur(0);

    /// Creates a duration of `ticks` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `ticks` is negative; use [`Dur::try_new`] to handle
    /// untrusted input.
    pub fn new(ticks: i64) -> Dur {
        Dur::try_new(ticks).expect("duration must be non-negative")
    }

    /// Creates a duration of `ticks` ticks, or `None` if `ticks` is
    /// negative.
    pub const fn try_new(ticks: i64) -> Option<Dur> {
        if ticks >= 0 {
            Some(Dur(ticks))
        } else {
            None
        }
    }

    /// Returns the tick count of this duration.
    pub const fn ticks(self) -> i64 {
        self.0
    }

    /// Whether this duration is zero ticks long.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The shorter of two durations.
    pub fn min(self, other: Dur) -> Dur {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The longer of two durations.
    pub fn max(self, other: Dur) -> Dur {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl fmt::Debug for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}d", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Add for Dur {
    type Output = Dur;
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign for Dur {
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = Time::new(7);
        assert_eq!((t + Dur::new(3)) - Dur::new(3), t);
        assert_eq!(t.diff(Time::new(10)), -3);
        assert_eq!(Time::new(10).diff(t), 3);
    }

    #[test]
    fn since_clamps_negative_gaps_to_zero() {
        assert_eq!(Time::new(3).since(Time::new(10)), Dur::ZERO);
        assert_eq!(Time::new(10).since(Time::new(3)), Dur::new(7));
    }

    #[test]
    fn dur_rejects_negative() {
        assert_eq!(Dur::try_new(-1), None);
        assert_eq!(Dur::try_new(0), Some(Dur::ZERO));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn dur_new_panics_on_negative() {
        let _ = Dur::new(-5);
    }

    #[test]
    fn dur_sums() {
        let d: Dur = (1..=4).map(Dur::new).sum();
        assert_eq!(d.ticks(), 10);
    }

    #[test]
    fn min_max_behave() {
        assert_eq!(Time::new(1).min(Time::new(2)), Time::new(1));
        assert_eq!(Time::new(1).max(Time::new(2)), Time::new(2));
        assert_eq!(Dur::new(1).max(Dur::new(2)), Dur::new(2));
        assert_eq!(Dur::new(1).min(Dur::new(2)), Dur::new(1));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::new(-5) < Time::ZERO);
        assert!(Time::MAX > Time::new(1_000_000));
        assert!(Time::MIN < Time::new(-1_000_000));
    }

    #[test]
    fn debug_display_nonempty() {
        assert_eq!(format!("{:?}", Time::new(3)), "t3");
        assert_eq!(format!("{}", Time::new(3)), "3");
        assert_eq!(format!("{:?}", Dur::new(3)), "3d");
        assert_eq!(format!("{}", Dur::new(3)), "3");
    }
}
