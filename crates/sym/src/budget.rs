//! Analysis budgets: thread-local fuel and recursion-depth guards for
//! symbolic computation.
//!
//! Symbolic analysis over [`crate::SymExpr`] is worst-case explosive:
//! polynomial products multiply term counts, substitution recurses through
//! nested floor-div/clamp atoms, and adversarial inputs (deep loop nests,
//! huge constants) can make "static" analysis hang, blow the host stack,
//! or overflow `i128` coefficient arithmetic. This module bounds that work
//! with a *budget scope*:
//!
//! ```
//! use mira_sym::{budget, SymExpr};
//!
//! let n = SymExpr::param("n");
//! let r = budget::with_budget(budget::DEFAULT_FUEL, || n.clone() * n);
//! assert!(r.is_ok());
//! ```
//!
//! Inside [`with_budget`], every non-trivial `SymExpr` operation charges
//! fuel proportional to the work it does, and every recursive walk holds a
//! depth guard. When fuel runs out or the depth cap is hit, the budget
//! *trips*: subsequent operations return cheap placeholder values (zero)
//! instead of working, recursion unwinds immediately, and `with_budget`
//! discards the (now meaningless) result and returns the typed
//! [`BudgetError`]. Coefficient overflow inside a scope trips the budget
//! the same way instead of panicking.
//!
//! Outside any scope, behavior is exactly as before this module existed:
//! unlimited work, and coefficient overflow panics. Analysis entry points
//! that face untrusted input (`mira-mem` model derivation, `mira-roofline`
//! placement, `mira-core` metric generation) wrap themselves in a scope
//! and degrade to their conservative fallbacks on a trip — the callers
//! never observe a garbage value, only a typed refusal.
//!
//! Scopes nest: an inner scope gets its own fuel allowance, but the fuel
//! it consumes is also deducted from the enclosing scope on exit, so an
//! outer budget stays a global bound.
//!
//! Charges are part of the contract. A fast path in [`crate::SymExpr`]
//! (a product with a single-term side, a term that substitution passes
//! through unchanged, a sum accumulated in place) charges exactly the
//! fuel of the general path it stands for, so the fuel a scope spends
//! and the point where it trips never depend on which path ran.

use std::cell::Cell;
use std::fmt;

/// Why a budget scope refused.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BudgetError {
    /// The operation-count budget was exhausted before analysis finished.
    FuelExhausted,
    /// Symbolic expression nesting exceeded [`MAX_DEPTH`] (guards the host
    /// stack against deeply nested floor-div/clamp atoms).
    DepthExceeded,
    /// Coefficient arithmetic exceeded `i128` (a panic outside a scope).
    Overflow,
    /// A divisor that must be positive was not (e.g. a zero-stride loop).
    BadDivisor,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::FuelExhausted => write!(f, "symbolic analysis budget exhausted"),
            BudgetError::DepthExceeded => write!(f, "symbolic expression nesting too deep"),
            BudgetError::Overflow => write!(f, "symbolic coefficient overflow"),
            BudgetError::BadDivisor => write!(f, "non-positive divisor in symbolic floor division"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// Default fuel for one analysis scope. Generous: real workloads consume
/// well under 1% of this; adversarial blowups hit it in milliseconds.
pub const DEFAULT_FUEL: u64 = 4_000_000;

/// Maximum recursion depth through composite atoms before a scope trips.
pub const MAX_DEPTH: u32 = 128;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static FUEL: Cell<u64> = const { Cell::new(u64::MAX) };
    static TRIPPED: Cell<Option<BudgetError>> = const { Cell::new(None) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Run `f` under a fuel budget. Returns `Err` if the budget tripped
/// (fuel, depth, overflow, or bad divisor), in which case the value
/// computed by `f` is discarded — placeholder values produced after a trip
/// never escape.
pub fn with_budget<T>(fuel: u64, f: impl FnOnce() -> T) -> Result<T, BudgetError> {
    let mut sp = mira_probe::span("sym.budget", "sym");
    let prev_active = ACTIVE.with(|a| a.replace(true));
    let prev_fuel = FUEL.with(|c| c.replace(fuel));
    let prev_tripped = TRIPPED.with(|t| t.replace(None));
    let prev_depth = DEPTH.with(|d| d.replace(0));

    let value = f();

    let tripped = TRIPPED.with(|t| t.get());
    let spent = fuel.saturating_sub(FUEL.with(|c| c.get()));
    sp.arg("fuel", fuel);
    sp.arg("fuel_spent", spent);
    if let Some(e) = tripped {
        sp.arg("tripped", e);
    }
    ACTIVE.with(|a| a.set(prev_active));
    // an enclosing scope pays for the work its inner scopes did
    FUEL.with(|c| c.set(prev_fuel.saturating_sub(spent)));
    TRIPPED.with(|t| t.set(prev_tripped));
    DEPTH.with(|d| d.set(prev_depth));

    match tripped {
        Some(e) => Err(e),
        None => Ok(value),
    }
}

/// [`with_budget`] with [`DEFAULT_FUEL`].
pub fn with_default_budget<T>(f: impl FnOnce() -> T) -> Result<T, BudgetError> {
    with_budget(DEFAULT_FUEL, f)
}

/// Is a budget scope currently installed on this thread?
pub fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Has the current scope tripped?
pub fn tripped() -> Option<BudgetError> {
    if active() {
        TRIPPED.with(|t| t.get())
    } else {
        None
    }
}

/// Record a trip (first cause wins). No-op outside a scope.
pub(crate) fn trip(e: BudgetError) {
    if active() {
        TRIPPED.with(|t| {
            if t.get().is_none() {
                t.set(Some(e));
                mira_probe::instant_kv("sym.budget.trip", "sym", "cause", e);
                mira_probe::add("sym.budget.trips", 1);
            }
        });
    }
}

/// Charge `n` units of work. Returns `false` when the scope has tripped
/// (callers should early-out with a placeholder value). Always `true`
/// outside a scope.
#[inline]
pub(crate) fn charge(n: u64) -> bool {
    if !active() {
        return true;
    }
    if TRIPPED.with(|t| t.get()).is_some() {
        return false;
    }
    let ok = FUEL.with(|c| {
        let left = c.get().saturating_sub(n);
        c.set(left);
        left > 0
    });
    if !ok {
        trip(BudgetError::FuelExhausted);
    }
    ok
}

/// Fuel left in the current scope (the reference differential compares
/// what each kernel spends).
#[cfg(test)]
pub(crate) fn fuel_left() -> u64 {
    FUEL.with(|c| c.get())
}

/// The current recursion depth through composite atoms (counted from
/// the innermost scope's start inside one, from zero outside any).
#[inline]
pub(crate) fn depth() -> u32 {
    DEPTH.with(|d| d.get())
}

/// RAII guard for one level of recursion through composite atoms.
pub(crate) struct DepthGuard;

impl Drop for DepthGuard {
    fn drop(&mut self) {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// Enter one recursion level; `None` trips the scope (too deep) and tells
/// the caller to unwind with a placeholder. Outside a scope the guard
/// always succeeds (depth is still tracked, but unlimited).
#[inline]
pub(crate) fn descend() -> Option<DepthGuard> {
    let depth = DEPTH.with(|d| {
        let v = d.get() + 1;
        d.set(v);
        v
    });
    if active() && depth > MAX_DEPTH {
        trip(BudgetError::DepthExceeded);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        return None;
    }
    Some(DepthGuard)
}

/// Report coefficient overflow: trips the scope when one is active,
/// panics with `msg` otherwise (the pre-budget behavior).
#[inline]
pub(crate) fn overflow(msg: &str) {
    if active() {
        trip(BudgetError::Overflow);
    } else {
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rat, SymExpr};

    #[test]
    fn scope_without_trip_returns_value() {
        let r = with_default_budget(|| SymExpr::param("n") + SymExpr::constant(1));
        assert!(r.is_ok());
        assert_eq!(r.unwrap().degree_in("n"), 1);
    }

    #[test]
    fn fuel_exhaustion_trips() {
        let r = with_budget(16, || {
            let mut e = SymExpr::param("n") + SymExpr::constant(1);
            for _ in 0..64 {
                e = e.clone() * e;
            }
            e
        });
        assert_eq!(r, Err(BudgetError::FuelExhausted));
    }

    #[test]
    fn deep_substitution_trips_depth() {
        // Build a floor-div tower deeper than MAX_DEPTH *outside* any
        // scope (construction is cheap), then substitute inside one.
        let mut e = SymExpr::param("n");
        for _ in 0..(MAX_DEPTH + 32) {
            e = (e + SymExpr::constant(1)).floor_div(2);
        }
        let r = with_default_budget(|| e.substitute("n", &SymExpr::param("m")));
        assert!(
            matches!(
                r,
                Err(BudgetError::DepthExceeded | BudgetError::FuelExhausted)
            ),
            "{r:?}"
        );
    }

    #[test]
    fn overflow_trips_instead_of_panicking() {
        let huge = SymExpr::from_rat(Rat::int(i128::MAX / 2));
        let r = with_default_budget(|| huge.clone() * huge.clone() * huge.clone());
        assert_eq!(r, Err(BudgetError::Overflow));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_outside_scope_still_panics() {
        let huge = SymExpr::from_rat(Rat::int(i128::MAX / 2));
        let _ = huge.clone() * huge.clone() * huge;
    }

    #[test]
    fn nested_scopes_restore_and_deduct() {
        let r = with_budget(1_000, || {
            let inner = with_budget(16, || {
                let mut e = SymExpr::param("n") + SymExpr::constant(1);
                for _ in 0..64 {
                    e = e.clone() * e;
                }
            });
            assert_eq!(inner, Err(BudgetError::FuelExhausted));
            // outer scope is intact (not tripped by the inner trip)
            SymExpr::param("n") * SymExpr::param("m")
        });
        assert!(r.is_ok());
        assert!(!active());
    }

    #[test]
    fn zero_stride_floor_div_trips_in_scope() {
        let n = SymExpr::param("n");
        let r = with_default_budget(|| n.floor_div(0));
        assert_eq!(r, Err(BudgetError::BadDivisor));
    }
}
