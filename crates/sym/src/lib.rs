//! # mira-sym — symbolic algebra for parametric performance models
//!
//! Mira's generated models are *parametric*: iteration counts and metric
//! totals are polynomials (occasionally quasi-polynomials) in user-supplied
//! parameters such as problem sizes. This crate provides the symbolic
//! expression type [`SymExpr`] those models are built from:
//!
//! * exact rational coefficients ([`Rat`], `i128`-backed),
//! * multivariate monomials over [`Atom`]s — named parameters, floor
//!   divisions `⌊e/d⌋` (from strided loops), and `max(0, e)` clamps (from
//!   possibly-empty iteration domains),
//! * polynomial arithmetic, substitution, exact evaluation,
//! * closed-form summation `Σ_{v=lb}^{ub} e` via Faulhaber power-sum
//!   polynomials — the engine behind polyhedral point counting in
//!   `mira-poly`,
//! * rendering as text and as Python source (the paper's model language).
//!
//! All arithmetic is exact; evaluation returns integers (counts) and fails
//! loudly on overflow rather than silently saturating.
//!
//! Analysis over untrusted input runs inside a [`budget`] scope: fuel
//! limits and recursion-depth guards turn worst-case symbolic blowups
//! (term explosion, deep atom nesting, coefficient overflow) into typed
//! [`budget::BudgetError`] refusals instead of hangs, host-stack
//! overflows, or panics.

pub mod budget;
pub mod expr;
pub mod python;
pub mod rat;
pub mod sum;

pub use expr::{Atom, AtomTable, EvalError, SymExpr, Term};
pub use rat::Rat;

use std::collections::BTreeMap;

/// Parameter bindings used when evaluating a [`SymExpr`] to a concrete count.
pub type Bindings = BTreeMap<String, i128>;

/// Convenience constructor for bindings: `bindings(&[("n", 100)])`.
pub fn bindings(pairs: &[(&str, i128)]) -> Bindings {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bindings_builder() {
        let b = bindings(&[("n", 10), ("m", 20)]);
        assert_eq!(b.get("n"), Some(&10));
        assert_eq!(b.get("m"), Some(&20));
        assert_eq!(b.len(), 2);
    }
}
