//! The `BTreeMap` kernel the allocation-lean one replaced, kept as an
//! independent reference: `add_expr`, `mul_expr`, `merge_monomials` and
//! `substitute_rec` as they were, and a differential that holds the
//! kernel in [`super`] to them — equal terms, the same overflow outcome
//! (a trip inside a budget scope, a panic outside one), equal fuel spent
//! and equal trip points under small fuel allowances.

use super::{Atom, SymExpr};
use crate::budget::{self, BudgetError};
use crate::rat::Rat;
use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

fn from_map(map: BTreeMap<Vec<(Atom, u32)>, Rat>) -> SymExpr {
    let terms = map
        .into_iter()
        .filter(|(_, c)| !c.is_zero())
        .map(|(monomial, coeff)| super::Term { coeff, monomial })
        .collect();
    SymExpr { terms }
}

fn to_map(e: &SymExpr) -> BTreeMap<Vec<(Atom, u32)>, Rat> {
    e.terms
        .iter()
        .map(|t| (t.monomial.clone(), t.coeff))
        .collect()
}

fn add_expr(e: &SymExpr, o: &SymExpr) -> SymExpr {
    if !budget::charge(e.terms.len() as u64 + o.terms.len() as u64 + 1) {
        return SymExpr::zero();
    }
    let mut map = to_map(e);
    for t in &o.terms {
        let e = map.entry(t.monomial.clone()).or_insert(Rat::ZERO);
        match e.checked_add(t.coeff) {
            Some(v) => *e = v,
            None => {
                budget::overflow("SymExpr coefficient overflow in add");
                return SymExpr::zero();
            }
        }
    }
    from_map(map)
}

fn mul_expr(e: &SymExpr, o: &SymExpr) -> SymExpr {
    let work = (e.terms.len() as u64).saturating_mul(o.terms.len() as u64);
    if !budget::charge(work + 1) {
        return SymExpr::zero();
    }
    let mut map: BTreeMap<Vec<(Atom, u32)>, Rat> = BTreeMap::new();
    for a in &e.terms {
        for b in &o.terms {
            let Some(coeff) = a.coeff.checked_mul(b.coeff) else {
                budget::overflow("SymExpr coefficient overflow in mul");
                return SymExpr::zero();
            };
            let mono = merge_monomials(&a.monomial, &b.monomial);
            let e = map.entry(mono).or_insert(Rat::ZERO);
            match e.checked_add(coeff) {
                Some(v) => *e = v,
                None => {
                    budget::overflow("SymExpr coefficient overflow in mul-add");
                    return SymExpr::zero();
                }
            }
        }
    }
    from_map(map)
}

fn pow(e: &SymExpr, p: u32) -> SymExpr {
    let mut acc = SymExpr::constant(1);
    for _ in 0..p {
        acc = mul_expr(&acc, e);
    }
    acc
}

fn substitute_rec(e: &SymExpr, name: &str, repl: &SymExpr) -> SymExpr {
    let Some(_g) = budget::descend() else {
        return SymExpr::zero();
    };
    if !budget::charge(e.terms.len() as u64 + 1) {
        return SymExpr::zero();
    }
    let mut out = SymExpr::zero();
    for t in &e.terms {
        let mut factor = SymExpr::from_rat(t.coeff);
        for (atom, p) in &t.monomial {
            let atom_expr = match atom {
                Atom::Param(n) if &**n == name => repl.clone(),
                Atom::Param(_) => SymExpr::from_atom(atom.clone()),
                Atom::FloorDiv(inner, d) => substitute_rec(inner, name, repl).floor_div(*d),
                Atom::Clamp(inner) => substitute_rec(inner, name, repl).clamp0(),
            };
            factor = mul_expr(&factor, &pow(&atom_expr, *p));
        }
        out = add_expr(&out, &factor);
    }
    out
}

fn merge_monomials(a: &[(Atom, u32)], b: &[(Atom, u32)]) -> Vec<(Atom, u32)> {
    let mut map: BTreeMap<Atom, u32> = BTreeMap::new();
    for (atom, p) in a.iter().chain(b.iter()) {
        *map.entry(atom.clone()).or_insert(0) += p;
    }
    map.into_iter().collect()
}

// ---- the differential ----

const PARAMS: [&str; 4] = ["i$1", "k", "m", "n"];

/// One generated term: a coefficient pick, a denominator pick and
/// `(atom pick, power)` factors.
type TermSpec = (u8, u8, Vec<(u8, u32)>);

/// Small values, and values at and near the `i128` limits.
fn coeff(pick: u8, den: u8) -> Rat {
    let num = match pick {
        0..=6 => pick as i128 - 3,
        7 => i128::MAX,
        8 => i128::MIN + 1,
        9 => i128::MAX / 2 + 1,
        10 => -(i128::MAX / 3),
        11 => 1 << 64,
        12 => i64::MAX as i128,
        13 => -(1 << 100),
        _ => 7,
    };
    Rat::new(num, [1, 2, 3, 6][den as usize % 4])
}

/// A parameter, or a floor division or clamp of an earlier-built
/// expression when there is one.
fn atom(pick: u8, inner: &[SymExpr]) -> Atom {
    let pick = pick as usize;
    if pick < PARAMS.len() || inner.is_empty() {
        return Atom::Param(PARAMS[pick % PARAMS.len()].into());
    }
    let e = Rc::new(inner[pick % inner.len()].clone());
    if pick.is_multiple_of(2) {
        Atom::FloorDiv(e, 2 + (pick % 3) as i64)
    } else {
        Atom::Clamp(e)
    }
}

/// A canonical expression built without either kernel: monomials and
/// terms go through sorted maps, the first of two like terms wins.
fn build(spec: &[TermSpec], inner: &[SymExpr]) -> SymExpr {
    let mut map = BTreeMap::new();
    for (c, d, factors) in spec {
        let mut mono: BTreeMap<Atom, u32> = BTreeMap::new();
        for (a, p) in factors {
            *mono.entry(atom(*a, inner)).or_insert(0) += p;
        }
        map.entry(mono.into_iter().collect())
            .or_insert(coeff(*c, *d));
    }
    from_map(map)
}

fn term_spec() -> impl Strategy<Value = TermSpec> {
    (0u8..16, 0u8..4, vec((0u8..10, 1u32..4), 0..4))
}

fn expr_spec() -> impl Strategy<Value = Vec<TermSpec>> {
    vec(term_spec(), 0..5)
}

/// Outside a scope, coefficient overflow panics by design; keep those
/// expected panics off the test output.
fn quiet_overflow_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()));
            if !msg.is_some_and(|m| m.contains("SymExpr coefficient overflow")) {
                default(info);
            }
        }));
    });
}

/// What one run inside a scope of `fuel` shows: the value or the trip,
/// and the fuel spent.
type Scoped = (Result<SymExpr, BudgetError>, u64);

fn scoped(fuel: u64, op: &dyn Fn() -> SymExpr) -> Scoped {
    let left = Cell::new(fuel);
    let r = budget::with_budget(fuel, || {
        let v = op();
        left.set(budget::fuel_left());
        v
    });
    (r, fuel - left.get())
}

/// Every observable outcome of `op`: outside a scope (the value or the
/// panic message), under the default fuel, and under each small
/// allowance up to 400, then the two where it spends the default scope's
/// fuel exactly (a trip on the last charge) and one unit more.
#[derive(Debug, PartialEq)]
struct Outcome {
    unscoped: Result<SymExpr, String>,
    default: Scoped,
    small: Vec<Scoped>,
}

fn outcome(op: &dyn Fn() -> SymExpr) -> Outcome {
    let unscoped = catch_unwind(AssertUnwindSafe(op)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    });
    let default = scoped(budget::DEFAULT_FUEL, op);
    let spent = default.1;
    let small = (1..=spent.min(400))
        .chain([spent, spent + 1])
        .map(|fuel| scoped(fuel, op))
        .collect();
    Outcome {
        unscoped,
        default,
        small,
    }
}

fn same(what: &str, lean: &dyn Fn() -> SymExpr, reference: &dyn Fn() -> SymExpr) {
    assert_eq!(outcome(lean), outcome(reference), "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn lean_kernel_matches_the_reference(
        inner in vec(expr_spec(), 0..3),
        a in expr_spec(),
        b in expr_spec(),
        pick in 0u8..5,
    ) {
        quiet_overflow_panics();
        // each inner expression may nest the ones before it
        let mut built: Vec<SymExpr> = Vec::new();
        for spec in &inner {
            let e = build(spec, &built);
            built.push(e);
        }
        let (a, b) = (build(&a, &built), build(&b, &built));
        let single = SymExpr { terms: b.terms.iter().take(1).cloned().collect() };
        let name = PARAMS.get(pick as usize).copied().unwrap_or("q");
        same("add", &|| a.add_expr(&b), &|| add_expr(&a, &b));
        same("add, swapped", &|| b.add_expr(&a), &|| add_expr(&b, &a));
        same("sub", &|| a.sub_expr(&b), &|| add_expr(&a, &b.neg_expr()));
        same("mul", &|| a.mul_expr(&b), &|| mul_expr(&a, &b));
        same("mul by one term", &|| a.mul_expr(&single), &|| mul_expr(&a, &single));
        same("one term times", &|| single.mul_expr(&a), &|| mul_expr(&single, &a));
        same("pow", &|| a.pow(3), &|| pow(&a, 3));
        same(
            "substitute",
            &|| a.substitute_rec(name, &b),
            &|| substitute_rec(&a, name, &b),
        );
        same(
            "substitute a rename",
            &|| a.substitute_rec(name, &SymExpr::param("r")),
            &|| substitute_rec(&a, name, &SymExpr::param("r")),
        );
    }
}

/// The generator reaches what the differential is for: overflow both
/// outside and inside a scope, composite atoms, powers of 2 and more, and
/// substitutions that pass terms through untouched.
#[test]
fn generated_cases_reach_overflow_and_nesting() {
    quiet_overflow_panics();
    let mut rng = proptest::test_runner::TestRng::deterministic("reference-coverage");
    let (mut overflow, mut composite, mut squares) = (0, 0, 0);
    for _ in 0..200 {
        let inner = build(&expr_spec().generate(&mut rng), &[]);
        let nested = build(&expr_spec().generate(&mut rng), &[inner]);
        let a = build(
            &expr_spec().generate(&mut rng),
            std::slice::from_ref(&nested),
        );
        let b = build(&expr_spec().generate(&mut rng), &[nested]);
        let mono = a.terms.iter().chain(&b.terms).flat_map(|t| &t.monomial);
        composite += mono
            .clone()
            .filter(|(x, _)| !matches!(x, Atom::Param(_)))
            .count();
        squares += mono.filter(|(_, p)| *p >= 2).count();
        if catch_unwind(AssertUnwindSafe(|| a.mul_expr(&b))).is_err() {
            overflow += 1;
            let r = budget::with_default_budget(|| a.mul_expr(&b));
            assert_eq!(r, Err(BudgetError::Overflow));
        }
    }
    assert!(overflow >= 10, "overflowing products: {overflow}");
    assert!(composite >= 50, "composite atoms: {composite}");
    assert!(squares >= 50, "powers of 2 and more: {squares}");
}
