//! Exact rational numbers on `i128`.
//!
//! Coefficients of Faulhaber polynomials are rationals (e.g. `1/6` in
//! `Σ v² = n(n+1)(2n+1)/6`), so [`SymExpr`](crate::SymExpr) terms carry a
//! [`Rat`] coefficient. All operations are checked: an overflow is a
//! programming/scale error we want surfaced, not wrapped.

use std::cmp::Ordering;
use std::fmt;

/// A reduced rational number `num/den` with `den > 0`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor of the magnitudes, taken unsigned so that
/// `i128::MIN` (whose magnitude `abs` overflows) is exact. Every caller
/// passes a nonzero denominator, which keeps the result within `i128`.
fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    // i128 division lowers to a library call; coefficient magnitudes
    // almost always fit u64, where the loop runs on hardware division
    if a <= u64::MAX as u128 && b <= u64::MAX as u128 {
        let (mut a, mut b) = (a as u64, b as u64);
        // one side a power of two (halves, line sizes, bandwidths): the
        // gcd is the largest power of two dividing both, no division
        if a != 0 && b != 0 && (a.is_power_of_two() || b.is_power_of_two()) {
            return 1i128 << a.trailing_zeros().min(b.trailing_zeros());
        }
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        return a as i128;
    }
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a as i128
}

/// `a / b` for `b > 0`, on hardware division when both fit `i64` (the
/// `i128` operator is a library call; the quotient is the same).
#[inline]
fn div(a: i128, b: i128) -> i128 {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => (a / b) as i128,
        _ => a / b,
    }
}

/// `a · b`, checked — one widening hardware multiply when both fit
/// `i64`, where the product cannot overflow `i128`.
#[inline]
fn mul(a: i128, b: i128) -> Option<i128> {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => Some(a as i128 * b as i128),
        _ => a.checked_mul(b),
    }
}

impl Rat {
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Create a rational from numerator and denominator. Panics on zero
    /// denominator; reduces to lowest terms with a positive denominator.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat with zero denominator");
        let g = gcd(num, den).max(1);
        let sign = if den < 0 { -1 } else { 1 };
        Rat {
            num: div(sign * num, g),
            den: div(sign * den, g),
        }
    }

    pub fn int(v: i128) -> Rat {
        Rat { num: v, den: 1 }
    }

    pub fn num(&self) -> i128 {
        self.num
    }

    pub fn den(&self) -> i128 {
        self.den
    }

    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    pub fn is_one(&self) -> bool {
        self.num == 1 && self.den == 1
    }

    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// The integer value, if this rational is an integer.
    pub fn as_integer(&self) -> Option<i128> {
        if self.den == 1 {
            Some(self.num)
        } else {
            None
        }
    }

    /// Floor of the rational value.
    pub fn floor(&self) -> i128 {
        if self.den == 1 {
            return self.num;
        }
        // i128 division is a library call; operands almost always fit
        // i64, where div_euclid is a single hardware division
        if let (Ok(n), Ok(d)) = (i64::try_from(self.num), i64::try_from(self.den)) {
            return n.div_euclid(d) as i128;
        }
        self.num.div_euclid(self.den)
    }

    /// Ceiling of the rational value.
    pub fn ceil(&self) -> i128 {
        -((-self.num).div_euclid(self.den))
    }

    pub fn checked_add(self, o: Rat) -> Option<Rat> {
        // integer + integer needs no reduction — the general path below
        // computes the same value, just through three needless gcds
        if self.den == 1 && o.den == 1 {
            return self.num.checked_add(o.num).map(Rat::int);
        }
        // equal denominators (fraction accumulators): add numerators,
        // reduce once — the general path reaches the identical
        // `Rat::new(a + c, b)` through two extra gcds
        if self.den == o.den {
            let num = self.num.checked_add(o.num)?;
            return Some(Rat::new(num, self.den));
        }
        // one side integer: a/b + c = (a + c·b)/b, already in lowest
        // terms since gcd(a, b) = 1 — same value and overflow points as
        // the general path (whose cross terms are a·1 and c·b), no gcds
        if o.den == 1 {
            let num = self.num.checked_add(mul(o.num, self.den)?)?;
            return Some(Rat { num, den: self.den });
        }
        if self.den == 1 {
            let num = o.num.checked_add(mul(self.num, o.den)?)?;
            return Some(Rat { num, den: o.den });
        }
        // a/b + c/d = (a*d + c*b) / (b*d), reduce via gcd of denominators
        let g = gcd(self.den, o.den).max(1);
        let lhs = self.num.checked_mul(o.den / g)?;
        let rhs = o.num.checked_mul(self.den / g)?;
        let num = lhs.checked_add(rhs)?;
        let den = (self.den / g).checked_mul(o.den)?;
        Some(Rat::new(num, den))
    }

    pub fn checked_mul(self, o: Rat) -> Option<Rat> {
        // integer × integer is already in lowest terms; when both fit
        // i64 the widening product cannot overflow i128, skipping the
        // checked multiply's software path entirely
        if self.den == 1 && o.den == 1 {
            return mul(self.num, o.num).map(Rat::int);
        }
        // one side integer: a/b · c = (a·(c/g)) / (b/g) with
        // g = gcd(c, b); reduced because gcd(a, b/g) = 1 and
        // gcd(c/g, b/g) = 1 — one gcd instead of three
        if o.den == 1 {
            let g = gcd(o.num, self.den).max(1);
            let num = mul(self.num, div(o.num, g))?;
            return Some(Rat {
                num,
                den: div(self.den, g),
            });
        }
        if self.den == 1 {
            let g = gcd(self.num, o.den).max(1);
            let num = mul(o.num, div(self.num, g))?;
            return Some(Rat {
                num,
                den: div(o.den, g),
            });
        }
        let g1 = gcd(self.num, o.den).max(1);
        let g2 = gcd(o.num, self.den).max(1);
        let num = (self.num / g1).checked_mul(o.num / g2)?;
        let den = (self.den / g2).checked_mul(o.den / g1)?;
        Some(Rat::new(num, den))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }

    pub fn checked_sub(self, o: Rat) -> Option<Rat> {
        self.checked_add(o.neg())
    }

    /// Multiplicative inverse; `None` for zero.
    pub fn recip(self) -> Option<Rat> {
        // a reduced rational's inverse is already reduced — only the
        // sign needs to move to keep the denominator positive
        if self.num == 0 {
            None
        } else if self.num < 0 {
            Some(Rat {
                num: -self.den,
                den: self.num.checked_neg()?,
            })
        } else {
            Some(Rat {
                num: self.den,
                den: self.num,
            })
        }
    }

    pub fn checked_div(self, o: Rat) -> Option<Rat> {
        self.checked_mul(o.recip()?)
    }

    pub fn abs(self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Approximate value as `f64` (display / plotting only; never used for
    /// counting).
    pub fn to_f64(self) -> f64 {
        // integer → f64 conversion rounds to nearest from any width, so
        // the i64 instruction gives the i128 library call's bits
        match (i64::try_from(self.num), i64::try_from(self.den)) {
            (Ok(n), Ok(d)) => n as f64 / d as f64,
            _ => self.num as f64 / self.den as f64,
        }
    }

    /// Round to the nearest integer with halves rounded up, `floor(x +
    /// 1/2)`: 2.5 → 3 and −2.5 → −2. This is the rounding count
    /// evaluation applies to annotation fractions (see
    /// [`SymExpr::eval_count`](crate::SymExpr::eval_count)). `None` when
    /// the doubling step overflows `i128`. Kept here so every consumer
    /// (tree-walk evaluation, the nest traffic model, the compiled
    /// serving evaluator) rounds identically.
    pub fn round_count(self) -> Option<i128> {
        if let Some(i) = self.as_integer() {
            return Some(i);
        }
        let twice = self.checked_mul(Rat::int(2))?;
        let f = twice.floor();
        // `(f + 1) / 2` for `f ≥ 0`, without overflow at `f = i128::MAX`
        Some(if f >= 0 { f / 2 + f % 2 } else { f / 2 })
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // equal (positive) denominators compare by numerator — this
        // covers the hot integer-vs-integer case without multiplies
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0). i128 is wide enough for
        // the coefficient magnitudes we produce; fall back to f64 ordering
        // on overflow would be wrong, so use saturating wide compare.
        let l = self.num.checked_mul(other.den);
        let r = other.num.checked_mul(self.den);
        match (l, r) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl From<i128> for Rat {
    fn from(v: i128) -> Rat {
        Rat::int(v)
    }
}

impl From<i64> for Rat {
    fn from(v: i64) -> Rat {
        Rat::int(v as i128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reduction_and_sign() {
        let r = Rat::new(6, -4);
        assert_eq!(r.num(), -3);
        assert_eq!(r.den(), 2);
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
        assert_eq!(Rat::new(-2, -2), Rat::ONE);
    }

    #[test]
    #[should_panic]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a.checked_add(b).unwrap(), Rat::new(5, 6));
        assert_eq!(a.checked_sub(b).unwrap(), Rat::new(1, 6));
        assert_eq!(a.checked_mul(b).unwrap(), Rat::new(1, 6));
        assert_eq!(a.checked_div(b).unwrap(), Rat::new(3, 2));
        assert_eq!(Rat::ZERO.recip(), None);
    }

    /// `i128::MIN` has no positive counterpart, so its gcd is taken on
    /// the unsigned magnitude: exact, where `abs` overflowed (a panic in
    /// debug builds, a wrong reduction in release).
    #[test]
    fn i128_min_reduces_exactly() {
        assert_eq!(gcd(i128::MIN, 6), 2);
        assert_eq!(gcd(3, i128::MIN), 1);
        let third = Rat::new(1, 3).checked_mul(Rat::int(i128::MIN));
        assert_eq!(third.map(|r| (r.num(), r.den())), Some((i128::MIN, 3)));
        assert_eq!(
            Rat::new(1, 2).checked_mul(Rat::int(i128::MIN)),
            Some(Rat::int(i128::MIN / 2))
        );
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::int(5).floor(), 5);
        assert_eq!(Rat::int(5).ceil(), 5);
    }

    /// `round_count` is `floor(x + 1/2)`: halves round up on both sides
    /// of zero, as the emitted Python's `_round_count` does.
    #[test]
    fn round_count_rounds_halves_up() {
        let cases = [
            ((5, 2), 3),
            ((-5, 2), -2),
            ((1, 2), 1),
            ((-1, 2), 0),
            ((7, 3), 2),
            ((-7, 3), -2),
            ((-8, 3), -3),
        ];
        for ((num, den), want) in cases {
            assert_eq!(Rat::new(num, den).round_count(), Some(want), "{num}/{den}");
        }
        assert_eq!(Rat::int(i128::MAX).round_count(), Some(i128::MAX));
        // doubling reaches i128::MAX exactly; the half rounds up
        assert_eq!(Rat::new(i128::MAX, 2).round_count(), Some(1 << 126));
        assert_eq!(Rat::new(i128::MAX, 3).round_count(), None);
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert_eq!(Rat::new(2, 4).cmp(&Rat::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 2).to_string(), "3/2");
        assert_eq!(Rat::int(-4).to_string(), "-4");
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in -1000i128..1000, b in 1i128..100, c in -1000i128..1000, d in 1i128..100) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            prop_assert_eq!(x.checked_add(y), y.checked_add(x));
        }

        #[test]
        fn prop_mul_distributes(a in -100i128..100, b in 1i128..20, c in -100i128..100, d in 1i128..20, e in -100i128..100, f in 1i128..20) {
            let x = Rat::new(a, b);
            let y = Rat::new(c, d);
            let z = Rat::new(e, f);
            let lhs = x.checked_mul(y.checked_add(z).unwrap()).unwrap();
            let rhs = x.checked_mul(y).unwrap().checked_add(x.checked_mul(z).unwrap()).unwrap();
            prop_assert_eq!(lhs, rhs);
        }

        #[test]
        fn prop_hardware_fast_paths_keep_values(a in -(1i128 << 70)..(1i128 << 70), b in 1i128..100_000, c in -(1i128 << 40)..(1i128 << 40)) {
            let x = Rat::new(a, b);
            if let Some(n) = a.checked_mul(c) {
                prop_assert_eq!(x.checked_mul(Rat::int(c)), Some(Rat::new(n, b)));
                prop_assert_eq!(Rat::int(c).checked_mul(x), Some(Rat::new(n, b)));
            }
            prop_assert_eq!(x.to_f64().to_bits(), (x.num() as f64 / x.den() as f64).to_bits());
            // the power-of-two gcd shortcut agrees with Euclid
            let (p, q) = (b.unsigned_abs() as u64, 1u64 << (c.unsigned_abs() % 63));
            let (mut m, mut n) = (p, q);
            while n != 0 {
                (m, n) = (n, m % n);
            }
            prop_assert_eq!(gcd(p as i128, q as i128), m as i128);
        }

        #[test]
        fn prop_floor_matches_f64(a in -10_000i128..10_000, b in 1i128..1000) {
            let r = Rat::new(a, b);
            prop_assert_eq!(r.floor(), (a as f64 / b as f64).floor() as i128);
        }
    }
}
