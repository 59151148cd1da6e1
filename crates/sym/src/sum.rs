//! Closed-form summation of polynomials — the engine behind symbolic
//! integer-point counting in `mira-poly`.
//!
//! For a polynomial `e(v)` and affine/polynomial bounds `lb`, `ub` (free of
//! `v`), [`sum_over`] computes `Σ_{v=lb}^{ub} e(v)` as a polynomial in the
//! remaining atoms using Faulhaber power-sum polynomials
//! `S_k(x) = Σ_{v=1}^{x} v^k`. The telescoping identity
//! `Σ_{v=lb}^{ub} v^k = S_k(ub) − S_k(lb−1)` holds for **all** integers
//! `lb ≤ ub` because `S_k(x) − S_k(x−1) = x^k` is a polynomial identity.

use crate::expr::SymExpr;
use crate::rat::Rat;
use std::fmt;

/// Why a closed-form sum could not be produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SumError {
    /// The summation variable occurs inside a floor-div or clamp atom, so
    /// the summand is not polynomial in it.
    NonPolynomial(String),
    /// A bound expression itself depends on the summation variable.
    BoundDependsOnVar(String),
}

impl fmt::Display for SumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SumError::NonPolynomial(v) => {
                write!(
                    f,
                    "summand is not polynomial in `{v}` (occurs inside floor/clamp)"
                )
            }
            SumError::BoundDependsOnVar(v) => {
                write!(f, "summation bound depends on the summation variable `{v}`")
            }
        }
    }
}

impl std::error::Error for SumError {}

fn binomial(n: u32, k: u32) -> i128 {
    if k > n {
        return 0;
    }
    let mut r: i128 = 1;
    for i in 0..k as i128 {
        r = r * (n as i128 - i) / (i + 1);
    }
    r
}

/// Dense coefficients (index = power of `x`) of the Faulhaber polynomial
/// `S_k(x) = Σ_{v=1}^{x} v^k`.
///
/// Computed from the recurrence
/// `(x+1)^{k+1} − 1 = Σ_{j=0}^{k} C(k+1, j) S_j(x)`.
pub fn power_sum_poly(k: u32) -> Vec<Rat> {
    let mut cache: Vec<Vec<Rat>> = Vec::with_capacity(k as usize + 1);
    for kk in 0..=k {
        // rhs = (x+1)^{kk+1} - 1 expanded
        let mut rhs = vec![Rat::ZERO; kk as usize + 2];
        for i in 0..=(kk + 1) {
            rhs[i as usize] = Rat::int(binomial(kk + 1, i));
        }
        rhs[0] = rhs[0].checked_sub(Rat::ONE).unwrap();
        // subtract C(kk+1, j) * S_j for j < kk
        for (j, sj) in cache.iter().enumerate() {
            let c = Rat::int(binomial(kk + 1, j as u32));
            for (i, v) in sj.iter().enumerate() {
                rhs[i] = rhs[i].checked_sub(c.checked_mul(*v).unwrap()).unwrap();
            }
        }
        // divide by C(kk+1, kk) = kk+1
        let d = Rat::int((kk + 1) as i128);
        let sk: Vec<Rat> = rhs.into_iter().map(|c| c.checked_div(d).unwrap()).collect();
        cache.push(sk);
    }
    cache.pop().unwrap()
}

/// Evaluate the univariate polynomial with dense coefficients `coeffs` at
/// the symbolic point `x`.
fn poly_at(coeffs: &[Rat], x: &SymExpr) -> SymExpr {
    // Horner's scheme keeps intermediate expressions small.
    let mut acc = SymExpr::zero();
    for c in coeffs.iter().rev() {
        acc = acc.mul_expr(x).add_expr(&SymExpr::from_rat(*c));
    }
    acc
}

/// `Σ_{var=lb}^{ub} expr`, as a closed-form polynomial.
///
/// The caller is responsible for the emptiness guard (`lb ≤ ub`); wrap the
/// result (or the extent) in [`SymExpr::clamp0`] when emptiness is possible.
pub fn sum_over(
    expr: &SymExpr,
    var: &str,
    lb: &SymExpr,
    ub: &SymExpr,
) -> Result<SymExpr, SumError> {
    let _a = mira_probe::accum("sym.sum_over");
    if expr.param_in_composite_atom(var) {
        return Err(SumError::NonPolynomial(var.to_string()));
    }
    if lb.params().iter().any(|p| p == var) || ub.params().iter().any(|p| p == var) {
        return Err(SumError::BoundDependsOnVar(var.to_string()));
    }
    let coeffs = expr.coefficients_of(var);
    let lb_m1 = lb.sub_expr(&SymExpr::constant(1));
    let mut out = SymExpr::zero();
    for (k, ck) in coeffs.iter().enumerate() {
        if ck.is_zero() {
            continue;
        }
        let sk = power_sum_poly(k as u32);
        let part = poly_at(&sk, ub).sub_expr(&poly_at(&sk, &lb_m1));
        out = out.add_expr(&ck.mul_expr(&part));
    }
    Ok(out)
}

/// Exact average of `expr` over `var ∈ [lb, ub]` (assumed nonempty):
/// the closed form of `sum_over(expr, var, lb, ub) / (ub − lb + 1)`.
///
/// The average of a polynomial over a symbolic range is a quotient by the
/// symbolic extent and leaves the polynomial ring in general, so this is
/// restricted to summands **affine** in `var`, where Faulhaber's `S_1`
/// telescopes to the endpoint mean: `avg = (expr(lb) + expr(ub)) / 2`.
/// This is the per-iteration *average extent* of a triangular loop
/// (`for j in 0..i`) over its ancestor's range — multiplied back by the
/// ancestor's trip count it recovers `sum_over` exactly, which is what
/// makes products of average extents exact iteration counts. Higher
/// degrees and `var` inside floor/clamp atoms refuse with the same
/// [`SumError`] taxonomy as [`sum_over`].
pub fn avg_over(
    expr: &SymExpr,
    var: &str,
    lb: &SymExpr,
    ub: &SymExpr,
) -> Result<SymExpr, SumError> {
    if expr.param_in_composite_atom(var) || expr.degree_in(var) > 1 {
        return Err(SumError::NonPolynomial(var.to_string()));
    }
    if lb.params().iter().any(|p| p == var) || ub.params().iter().any(|p| p == var) {
        return Err(SumError::BoundDependsOnVar(var.to_string()));
    }
    let at_lb = expr.substitute(var, lb);
    let at_ub = expr.substitute(var, ub);
    Ok(at_lb.add_expr(&at_ub).scale(Rat::new(1, 2)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bindings, Bindings};
    use proptest::prelude::*;

    fn brute(expr: &SymExpr, var: &str, lb: i128, ub: i128, extra: &Bindings) -> i128 {
        let mut total = 0i128;
        for v in lb..=ub {
            let mut b = extra.clone();
            b.insert(var.to_string(), v);
            total += expr.eval_count(&b).unwrap();
        }
        total
    }

    #[test]
    fn faulhaber_small() {
        // S_1(x) = x(x+1)/2
        let s1 = power_sum_poly(1);
        assert_eq!(s1, vec![Rat::ZERO, Rat::new(1, 2), Rat::new(1, 2)]);
        // S_2(x) = x(x+1)(2x+1)/6 = x/6 + x^2/2 + x^3/3
        let s2 = power_sum_poly(2);
        assert_eq!(
            s2,
            vec![Rat::ZERO, Rat::new(1, 6), Rat::new(1, 2), Rat::new(1, 3)]
        );
    }

    #[test]
    fn sum_constant_gives_extent() {
        // Σ_{v=lb}^{ub} 1 = ub - lb + 1
        let one = SymExpr::constant(1);
        let lb = SymExpr::param("a");
        let ub = SymExpr::param("b");
        let s = sum_over(&one, "v", &lb, &ub).unwrap();
        let b = bindings(&[("a", 3), ("b", 10)]);
        assert_eq!(s.eval_count(&b).unwrap(), 8);
    }

    #[test]
    fn sum_linear_symbolic_bounds() {
        // Σ_{j=i+1}^{6} 1 summed in mira-poly style: inner extent 6-(i+1)+1 = 6-i
        let one = SymExpr::constant(1);
        let lb = SymExpr::param("i") + SymExpr::constant(1);
        let ub = SymExpr::constant(6);
        let inner = sum_over(&one, "j", &lb, &ub).unwrap();
        // then Σ_{i=1}^{4} (6 - i) = 5+4+3+2 = 14 (the paper's Listing 2 domain)
        let outer = sum_over(&inner, "i", &SymExpr::constant(1), &SymExpr::constant(4)).unwrap();
        assert_eq!(outer.as_int(), Some(14));
    }

    #[test]
    fn sum_quadratic() {
        // Σ_{v=1}^{n} v^2 = n(n+1)(2n+1)/6
        let e = SymExpr::param("v").pow(2);
        let s = sum_over(&e, "v", &SymExpr::constant(1), &SymExpr::param("n")).unwrap();
        for n in [1i128, 2, 5, 17, 100] {
            let b = bindings(&[("n", n)]);
            assert_eq!(s.eval_count(&b).unwrap(), n * (n + 1) * (2 * n + 1) / 6);
        }
    }

    #[test]
    fn sum_negative_bounds() {
        let e = SymExpr::param("v");
        let s = sum_over(&e, "v", &SymExpr::constant(-3), &SymExpr::constant(3)).unwrap();
        assert_eq!(s.as_int(), Some(0));
        let s2 = sum_over(&e, "v", &SymExpr::constant(-5), &SymExpr::constant(-2)).unwrap();
        assert_eq!(s2.as_int(), Some(-14));
    }

    #[test]
    fn avg_over_is_endpoint_mean() {
        // avg_{v=0}^{i} v = i/2, and extent · avg = Σ exactly
        let v = SymExpr::param("v");
        let lb = SymExpr::constant(0);
        let ub = SymExpr::param("i");
        let avg = avg_over(&v, "v", &lb, &ub).unwrap();
        let extent = ub.clone().sub_expr(&lb).add_expr(&SymExpr::constant(1));
        let product = avg.mul_expr(&extent);
        let total = sum_over(&v, "v", &lb, &ub).unwrap();
        assert!(product.sub_expr(&total).is_zero());
        for i in [0i128, 1, 2, 9] {
            let b = bindings(&[("i", i)]);
            assert_eq!(product.eval_count(&b).unwrap(), i * (i + 1) / 2);
        }
    }

    #[test]
    fn avg_over_rejects_quadratic_and_floor() {
        let v = SymExpr::param("v");
        assert!(matches!(
            avg_over(
                &v.clone().pow(2),
                "v",
                &SymExpr::constant(0),
                &SymExpr::param("n")
            ),
            Err(SumError::NonPolynomial(_))
        ));
        assert!(matches!(
            avg_over(
                &v.clone().floor_div(2),
                "v",
                &SymExpr::constant(0),
                &SymExpr::param("n")
            ),
            Err(SumError::NonPolynomial(_))
        ));
        assert!(matches!(
            avg_over(&v, "v", &SymExpr::param("v"), &SymExpr::param("n")),
            Err(SumError::BoundDependsOnVar(_))
        ));
    }

    #[test]
    fn sum_rejects_floor_of_var() {
        let e = SymExpr::param("v").floor_div(2);
        let r = sum_over(&e, "v", &SymExpr::constant(0), &SymExpr::constant(9));
        assert!(matches!(r, Err(SumError::NonPolynomial(_))));
    }

    #[test]
    fn sum_rejects_var_in_bound() {
        let e = SymExpr::constant(1);
        let r = sum_over(&e, "v", &SymExpr::param("v"), &SymExpr::constant(9));
        assert!(matches!(r, Err(SumError::BoundDependsOnVar(_))));
    }

    #[test]
    fn sum_preserves_outer_params() {
        // Σ_{v=1}^{n} m = m*n
        let e = SymExpr::param("m");
        let s = sum_over(&e, "v", &SymExpr::constant(1), &SymExpr::param("n")).unwrap();
        assert_eq!(s, SymExpr::param("m") * SymExpr::param("n"));
    }

    proptest! {
        #[test]
        fn prop_sum_matches_brute_force(
            c0 in -5i128..5, c1 in -5i128..5, c2 in -5i128..5, c3 in 0i128..4,
            lb in -6i128..6, len in 0i128..10,
        ) {
            let v = SymExpr::param("v");
            let e = SymExpr::constant(c0)
                + v.clone().scale(Rat::int(c1))
                + v.clone().pow(2).scale(Rat::int(c2))
                + v.clone().pow(3).scale(Rat::int(c3));
            let ub = lb + len;
            let s = sum_over(&e, "v", &SymExpr::constant(lb), &SymExpr::constant(ub)).unwrap();
            let expected = brute(&e, "v", lb, ub, &bindings(&[]));
            prop_assert_eq!(s.as_int(), Some(expected));
        }

        #[test]
        fn prop_sum_symbolic_ub_matches(
            c1 in -4i128..4, n in 0i128..30,
        ) {
            // Σ_{v=0}^{n} (v*c1 + 2), evaluated after the fact
            let v = SymExpr::param("v");
            let e = v.scale(Rat::int(c1)) + SymExpr::constant(2);
            let s = sum_over(&e, "v", &SymExpr::constant(0), &SymExpr::param("n")).unwrap();
            let b = bindings(&[("n", n)]);
            let expected = brute(&e, "v", 0, n, &b);
            prop_assert_eq!(s.eval_count(&b).unwrap(), expected);
        }
    }
}
