//! Rendering symbolic expressions as Python source.
//!
//! The paper's Model Generator emits Python so users can evaluate and plot
//! models with standard scientific-Python tooling. This module renders a
//! [`SymExpr`] as a Python expression over its parameter names, using `//`
//! for floor division and `max(0, ·)` for clamps. Rational coefficients are
//! emitted as `Fraction`-free `num*mono/den` groupings wrapped in a final
//! integer conversion by the model emitter.

use crate::expr::{Atom, SymExpr};

/// Render `e` as a Python expression string.
///
/// The result is a pure-Python arithmetic expression over the expression's
/// parameter names. Terms with non-integer coefficients are emitted as
/// `(num * mono) / den`; the `mira-model` emitter wraps whole metric
/// expressions in its `_round_count(...)` helper (`Rat::round_count`'s
/// rounding) so exact integer-valued rationals survive the trip through
/// Python floats for all realistic magnitudes.
pub fn to_python(e: &SymExpr) -> String {
    if e.terms().is_empty() {
        return "0".to_string();
    }
    let mut parts: Vec<String> = Vec::new();
    for (i, t) in e.terms().iter().enumerate() {
        let mut factors: Vec<String> = Vec::new();
        let num = t.coeff.num();
        let den = t.coeff.den();
        let lead = num.abs();
        if lead != 1 || t.monomial.is_empty() {
            factors.push(lead.to_string());
        }
        for (atom, p) in &t.monomial {
            let a = atom_to_python(atom);
            if *p == 1 {
                factors.push(a);
            } else {
                factors.push(format!("{a}**{p}"));
            }
        }
        let mut term = factors.join("*");
        if den != 1 {
            term = format!("({term})/{den}");
        }
        if i == 0 {
            if num < 0 {
                term = format!("-{term}");
            }
            parts.push(term);
        } else if num < 0 {
            parts.push(format!("- {term}"));
        } else {
            parts.push(format!("+ {term}"));
        }
    }
    parts.join(" ")
}

fn atom_to_python(a: &Atom) -> String {
    match a {
        Atom::Param(n) => n.to_string(),
        Atom::FloorDiv(e, d) => format!("(({}) // {d})", to_python(e)),
        Atom::Clamp(e) => format!("max(0, {})", to_python(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rat::Rat;

    #[test]
    fn renders_polynomial() {
        let n = SymExpr::param("n");
        let e = n.clone().pow(2).scale(Rat::int(3)) + n.clone() - SymExpr::constant(2);
        let s = to_python(&e);
        assert!(s.contains("3*n**2"), "{s}");
        assert!(s.contains("-2") || s.contains("- 2"), "{s}");
    }

    #[test]
    fn renders_rational_coeff() {
        let n = SymExpr::param("n");
        let e = n.clone() * (n + SymExpr::constant(1));
        let half = e.scale(Rat::new(1, 2));
        let s = to_python(&half);
        assert!(s.contains("/2"), "{s}");
    }

    #[test]
    fn renders_floor_and_clamp() {
        let n = SymExpr::param("n");
        let e = n.clone().floor_div(2) + (n - SymExpr::constant(3)).clamp0();
        let s = to_python(&e);
        assert!(s.contains("// 2"), "{s}");
        assert!(s.contains("max(0, "), "{s}");
    }

    #[test]
    fn zero_renders() {
        assert_eq!(to_python(&SymExpr::zero()), "0");
    }

    /// The generated Python must agree with native evaluation. We cannot run
    /// Python here, so check a mechanical property instead: every parameter
    /// appears and operators are balanced.
    #[test]
    fn parens_balanced() {
        let n = SymExpr::param("n");
        let m = SymExpr::param("m");
        let e = (n.clone().floor_div(4) * m).pow(2) + n.clamp0();
        let s = to_python(&e);
        let open = s.chars().filter(|&c| c == '(').count();
        let close = s.chars().filter(|&c| c == ')').count();
        assert_eq!(open, close, "{s}");
        assert!(s.contains('n') && s.contains('m'));
    }
}
