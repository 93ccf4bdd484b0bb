//! Exact rational arithmetic over `i128`.
//!
//! The cost lower bound of the paper is defined by the optimum of a linear
//! or integer program; solving it with floating point would make the
//! "lower bound" claim fragile. All simplex pivoting in this crate is done
//! on [`Rational`] values, which are always kept in lowest terms with a
//! positive denominator.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num/den` with `den > 0`, in lowest terms.
///
/// # Example
///
/// ```
/// use rtlb_ilp::Rational;
/// let a = Rational::new(2, 4);
/// assert_eq!(a, Rational::new(1, 2));
/// assert_eq!(a + Rational::from(1), Rational::new(3, 2));
/// assert_eq!(Rational::new(7, 2).ceil(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Creates `num/den` reduced to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational denominator must be non-zero");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den).max(1);
        Rational {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The numerator (in lowest terms, sign-carrying).
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator (in lowest terms, always positive).
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Whether this value is an integer.
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Whether this value is zero.
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether this value is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Whether this value is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// The greatest integer `≤ self`.
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// The least integer `≥ self`.
    pub fn ceil(self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    /// The fractional part `self - floor(self)`, in `[0, 1)`.
    pub fn fract(self) -> Rational {
        self - Rational::from(self.floor() as i64)
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(self) -> Rational {
        assert!(self.num != 0, "cannot invert zero");
        Rational::new(self.den, self.num)
    }

    /// The smaller of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Rational {
        Rational::ZERO
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational {
            num: v as i128,
            den: 1,
        }
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Rational {
        Rational::from(v as i64)
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Rational) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Rational) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order.
        (self.num * other.den).cmp(&(other.num * self.den))
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.den - rhs.num * self.den, self.den * rhs.den)
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        Rational::new(self.num * rhs.num, self.den * rhs.den)
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        assert!(rhs.num != 0, "division by zero rational");
        Rational::new(self.num * rhs.den, self.den * rhs.num)
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4), Rational::new(-1, 2));
        assert_eq!(Rational::new(0, -7), Rational::ZERO);
        assert_eq!(Rational::new(-3, 6).denom(), 2);
        assert!(Rational::new(-3, 6).numer() == -1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rational::new(1, 3);
        let b = Rational::new(1, 6);
        assert_eq!(a + b, Rational::new(1, 2));
        assert_eq!(a - b, Rational::new(1, 6));
        assert_eq!(a * b, Rational::new(1, 18));
        assert_eq!(a / b, Rational::from(2));
        assert_eq!(-a, Rational::new(-1, 3));
        let mut c = a;
        c += b;
        c -= b;
        c *= Rational::from(3);
        assert_eq!(c, Rational::ONE);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::ZERO);
        assert!(Rational::new(7, 2) > Rational::from(3));
        let mut v = vec![Rational::new(3, 2), Rational::from(-1), Rational::new(1, 3)];
        v.sort();
        assert_eq!(
            v,
            vec![Rational::from(-1), Rational::new(1, 3), Rational::new(3, 2)]
        );
    }

    #[test]
    fn floor_ceil_fract() {
        assert_eq!(Rational::new(7, 2).floor(), 3);
        assert_eq!(Rational::new(7, 2).ceil(), 4);
        assert_eq!(Rational::new(-7, 2).floor(), -4);
        assert_eq!(Rational::new(-7, 2).ceil(), -3);
        assert_eq!(Rational::from(5).floor(), 5);
        assert_eq!(Rational::from(5).ceil(), 5);
        assert_eq!(Rational::new(7, 2).fract(), Rational::new(1, 2));
        assert_eq!(Rational::new(-7, 2).fract(), Rational::new(1, 2));
        assert!(Rational::from(4).fract().is_zero());
    }

    #[test]
    fn predicates() {
        assert!(Rational::from(3).is_integer());
        assert!(!Rational::new(1, 2).is_integer());
        assert!(Rational::ZERO.is_zero());
        assert!(Rational::ONE.is_positive());
        assert!((-Rational::ONE).is_negative());
    }

    #[test]
    fn recip() {
        assert_eq!(Rational::new(2, 3).recip(), Rational::new(3, 2));
        assert_eq!(Rational::new(-2, 3).recip(), Rational::new(-3, 2));
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn sum_and_minmax() {
        let s: Rational = (1..=3).map(|i| Rational::new(1, i)).sum();
        assert_eq!(s, Rational::new(11, 6));
        assert_eq!(Rational::ONE.min(Rational::ZERO), Rational::ZERO);
        assert_eq!(Rational::ONE.max(Rational::ZERO), Rational::ONE);
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(1, 2).to_string(), "1/2");
        assert_eq!(Rational::from(4).to_string(), "4");
        assert_eq!(format!("{:?}", Rational::new(-1, 2)), "-1/2");
    }
}
