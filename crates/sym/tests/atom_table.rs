//! The atom table against the walk without one: a sequence of random
//! expressions evaluated through one shared [`AtomTable`] must give,
//! expression by expression, exactly the value or error a fresh
//! [`SymExpr::eval`] gives — outside a budget scope and inside one,
//! where a reused value must never hide a depth trip.

use mira_sym::budget::{self, BudgetError, MAX_DEPTH};
use mira_sym::{bindings, Atom, AtomTable, Bindings, EvalError, Rat, SymExpr};
use proptest::collection::vec;
use proptest::prelude::*;
use std::rc::Rc;

/// `n`, `m` and `k` are bound; `q` never is.
const PARAMS: [&str; 4] = ["n", "m", "k", "q"];

/// Small values, and values at and near the `i128` limits.
fn coeff(pick: u8) -> Rat {
    let num = match pick % 12 {
        0..=5 => pick as i128 % 12 - 2,
        6 => i128::MAX,
        7 => i128::MIN + 1,
        8 => i128::MAX / 2 + 1,
        9 => 1 << 64,
        10 => i64::MAX as i128,
        _ => -(1 << 100),
    };
    Rat::new(num, [1, 2, 3][pick as usize % 3])
}

fn binding_value(pick: u8) -> i128 {
    [0, 1, 3, -7, 40, 1 << 40, i64::MAX as i128, -(1 << 62)][pick as usize % 8]
}

fn floor_div(e: SymExpr, d: i64) -> SymExpr {
    SymExpr::from_atom(Atom::FloorDiv(Rc::new(e), d))
}

fn clamp(e: SymExpr) -> SymExpr {
    SymExpr::from_atom(Atom::Clamp(Rc::new(e)))
}

/// `e` under `height` alternating clamps and floor divisions: its atoms
/// are walked `height` levels deeper than at the top.
fn tower(mut e: SymExpr, height: u32) -> SymExpr {
    for level in 0..height {
        e = if level % 2 == 0 {
            clamp(e)
        } else {
            floor_div(e, 2)
        };
    }
    e
}

/// Tower heights: none, shallow, and around the depth limit.
const HEIGHTS: [u32; 8] = [0, 0, 1, 2, 60, MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH + 1];

/// One generated term: a coefficient pick and `(atom pick, tower pick,
/// power)` factors.
type TermSpec = (u8, Vec<(u8, u8, u32)>);

fn term_spec() -> impl Strategy<Value = TermSpec> {
    (0u8..24, vec((0u8..16, 0u8..16, 1u32..4), 0..3))
}

/// A canonical expression over pool atoms, each factor under a tower
/// picked from [`HEIGHTS`] (most factors under none). Built inside a
/// scope so coefficient overflow while building drops the case instead
/// of panicking.
fn build(spec: &[TermSpec], pool: &[SymExpr]) -> Option<SymExpr> {
    budget::with_default_budget(|| {
        let mut e = SymExpr::zero();
        for (c, factors) in spec {
            let mut t = SymExpr::from_rat(coeff(*c));
            for (a, h, p) in factors {
                let atom = pool[*a as usize % pool.len()].clone();
                let height = if *h < 8 { 0 } else { HEIGHTS[*h as usize % 8] };
                t = t.mul_expr(&tower(atom, height).pow(*p));
            }
            e = e.add_expr(&t);
        }
        e
    })
    .ok()
}

/// The atom pool: the parameters, then floor divisions and clamps of
/// expressions over the atoms before them.
fn pool(specs: &[(Vec<TermSpec>, u8)]) -> Vec<SymExpr> {
    let mut pool: Vec<SymExpr> = PARAMS.iter().map(|p| SymExpr::param(p)).collect();
    for (spec, kind) in specs {
        let Some(inner) = build(spec, &pool) else {
            continue;
        };
        pool.push(match kind % 3 {
            0 => clamp(inner),
            k => floor_div(inner, 1 + k as i64),
        });
    }
    pool
}

/// Each expression, evaluated through the one table, inside a scope
/// when its flag says so, must equal a fresh walk in the same setting;
/// counts (rounded) too.
fn same_through_one_table(exprs: &[(SymExpr, bool)], b: &Bindings) {
    let mut t = AtomTable::new();
    for (e, scoped) in exprs {
        if *scoped {
            let shared = budget::with_default_budget(|| e.eval_in(b, &mut t));
            let fresh = budget::with_default_budget(|| e.eval(b));
            assert_eq!(shared, fresh, "in a scope: {e}");
            let shared = budget::with_default_budget(|| e.eval_count_in(b, &mut t));
            let fresh = budget::with_default_budget(|| e.eval_count(b));
            assert_eq!(shared, fresh, "count in a scope: {e}");
        } else {
            assert_eq!(e.eval_in(b, &mut t), e.eval(b), "{e}");
            assert_eq!(e.eval_count_in(b, &mut t), e.eval_count(b), "count: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn a_shared_table_gives_every_answer_a_fresh_walk_gives(
        atoms in vec((vec(term_spec(), 1..4), 0u8..3), 1..6),
        exprs in vec((vec(term_spec(), 0..4), any::<bool>()), 1..10),
        values in (0u8..8, 0u8..8, 0u8..8),
    ) {
        let pool = pool(&atoms);
        let b = bindings(&[
            ("n", binding_value(values.0)),
            ("m", binding_value(values.1)),
            ("k", binding_value(values.2)),
        ]);
        let exprs: Vec<(SymExpr, bool)> = exprs
            .iter()
            .filter_map(|(spec, scoped)| Some((build(spec, &pool)?, *scoped)))
            .collect();
        same_through_one_table(&exprs, &b);
    }
}

/// An atom first valued at the top of a scope, then met again under a
/// tower that takes its walk past [`MAX_DEPTH`]: the table must not
/// answer the deep visit, and the scope trips as a fresh walk's does.
/// Just inside the limit, and outside any scope, the deep visit is
/// answered as a fresh walk answers it.
#[test]
fn a_value_computed_shallow_is_not_reused_past_the_depth_limit() {
    let b = bindings(&[("n", 41)]);
    // height 3: walking it reaches three levels below where it is met
    let atom = tower(SymExpr::param("n") + SymExpr::constant(1), 3);
    // max(0, floor(max(0, n + 1) / 2))
    assert_eq!(atom.eval(&b), Ok(Rat::int(21)));
    let inside = tower(atom.clone(), MAX_DEPTH - 3);
    let past = tower(atom.clone(), MAX_DEPTH - 2);
    assert!(matches!(
        budget::with_default_budget(|| inside.eval(&b)),
        Ok(Ok(_))
    ));
    assert_eq!(
        budget::with_default_budget(|| past.eval(&b)),
        Err(BudgetError::DepthExceeded)
    );

    let mut t = AtomTable::new();
    let shallow = budget::with_default_budget(|| atom.eval_in(&b, &mut t));
    assert_eq!(shallow, Ok(Ok(Rat::int(21))));
    assert_eq!(
        budget::with_default_budget(|| past.eval_in(&b, &mut t)),
        Err(BudgetError::DepthExceeded),
        "a value valued at depth 0 answered a visit past the limit"
    );
    assert_eq!(
        budget::with_default_budget(|| inside.eval_in(&b, &mut t)),
        budget::with_default_budget(|| inside.eval(&b))
    );
    // outside a scope nothing trips: only the outermost level, whose
    // scoped walk tripped, is valued; everything below it is reused
    let valued = t.valued();
    assert_eq!(past.eval_in(&b, &mut t), past.eval(&b));
    assert_eq!(t.valued(), valued + 1);

    // a value computed outside a scope proves nothing about depth: it
    // is valued again under a scope's limit
    let mut t = AtomTable::new();
    assert!(past.eval_in(&b, &mut t).is_ok());
    assert_eq!(
        budget::with_default_budget(|| past.eval_in(&b, &mut t)),
        Err(BudgetError::DepthExceeded)
    );
}

/// Each distinct atom is valued once: equal atoms built apart share an
/// entry, a parameter's value serves every depth, and refusals are
/// walked again rather than kept.
#[test]
fn each_distinct_atom_is_valued_once() {
    let b = bindings(&[("n", 9), ("m", 4)]);
    let half = |e: SymExpr| floor_div(e, 2);
    // the same floor division, built twice, once under a clamp
    let e1 = half(SymExpr::param("n")) * SymExpr::param("m");
    let e2 = clamp(half(SymExpr::param("n")) - SymExpr::constant(1)) + SymExpr::param("m");
    let mut t = AtomTable::new();
    assert_eq!(e1.eval_in(&b, &mut t), Ok(Rat::int(16)));
    assert_eq!(e2.eval_in(&b, &mut t), Ok(Rat::int(7)));
    // n, m, floor(n/2), max(0, floor(n/2) - 1)
    assert_eq!(t.valued(), 4);
    assert_eq!(e2.eval_in(&b, &mut t), Ok(Rat::int(7)));
    assert_eq!(t.valued(), 4);

    // floor(q/2) and q, walked at every visit
    let unbound = half(SymExpr::param("q"));
    for valued in [6, 8] {
        assert_eq!(
            unbound.eval_in(&b, &mut t),
            Err(EvalError::MissingParam("q".to_string()))
        );
        assert_eq!(t.valued(), valued, "refusals are not kept");
    }
}

/// The generator reaches what the differential is for: overflow and
/// unbound parameters outside a scope, depth trips inside one, and
/// reuse — fewer valuations through one table than through a fresh
/// table per expression.
#[test]
fn generated_cases_reach_errors_trips_and_reuse() {
    let mut rng = proptest::test_runner::TestRng::deterministic("atom-table-coverage");
    let b = bindings(&[("n", 40), ("m", i64::MAX as i128), ("k", -7)]);
    let (mut overflow, mut missing, mut trips, mut reused) = (0, 0, 0, 0);
    for _ in 0..160 {
        let pool = pool(&vec((vec(term_spec(), 1..4), 0u8..3), 1..6).generate(&mut rng));
        let exprs: Vec<SymExpr> = vec(vec(term_spec(), 0..4), 1..10)
            .generate(&mut rng)
            .iter()
            .filter_map(|spec| build(spec, &pool))
            .collect();
        let mut t = AtomTable::new();
        let mut apart = 0;
        for e in &exprs {
            match e.eval_in(&b, &mut t) {
                Err(EvalError::Overflow) => overflow += 1,
                Err(EvalError::MissingParam(_)) => missing += 1,
                _ => {}
            }
            let mut fresh = AtomTable::new();
            let _ = e.eval_in(&b, &mut fresh);
            apart += fresh.valued();
            if budget::with_default_budget(|| e.eval(&b)) == Err(BudgetError::DepthExceeded) {
                trips += 1;
            }
        }
        if t.valued() < apart {
            reused += 1;
        }
    }
    assert!(overflow >= 10, "overflowing evaluations: {overflow}");
    assert!(missing >= 10, "unbound parameters: {missing}");
    assert!(trips >= 10, "depth trips: {trips}");
    assert!(reused >= 40, "cases with reuse: {reused}");
}
