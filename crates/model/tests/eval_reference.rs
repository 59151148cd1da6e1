//! `Model::eval` evaluates each distinct count once per function and
//! each callee's totals once per report. These tests hold it to the
//! per-op reference evaluator (`reference/mod.rs`): the same `Report`
//! fields or the same `ModelError`, on every function of the workload
//! and corpus programs under three compiler configurations, at bindings
//! from tiny through ladder-sized to past `i64`, and on hand-built
//! models at the edges where reuse could change an answer: call depth,
//! zero multipliers and overflow.

mod reference;

use mira_arch::Category;
use mira_model::{FuncModel, Model, ModelError, ModelOp, Report};
use mira_sym::{bindings, Bindings, EvalError, SymExpr};

/// Evaluate both ways; they must agree. Returns the outcome.
fn check(model: &Model, func: &str, b: &Bindings) -> Result<Report, ModelError> {
    let got = model.eval(func, b);
    let want = reference::eval(model, func, b);
    assert!(
        reference::same(&got, &want),
        "`{func}` under {b:?}:\n  eval      {got:?}\n  reference {want:?}"
    );
    got
}

/// Binding values: tiny, the perfbench `validate` ladder rungs, negative,
/// and large enough that counts, products and sums leave `i64`.
const VALUES: [i128; 20] = [
    0,
    1,
    2,
    3,
    5,
    24,
    56,
    192,
    500,
    768,
    8192,
    131_072,
    -1,
    -7,
    1 << 31,
    1 << 40,
    i64::MAX as i128 / 2,
    i64::MAX as i128,
    i64::MIN as i128,
    i64::MAX as i128 + 1,
];

/// Every binding set one function is checked under: each value for
/// every parameter, seeded mixes of values, and each parameter unbound.
fn binding_sets(params: &[String]) -> Vec<Bindings> {
    let uniform = |v: i128| -> Bindings { params.iter().map(|p| (p.clone(), v)).collect() };
    let mut sets: Vec<Bindings> = VALUES.iter().map(|&v| uniform(v)).collect();
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..32 {
        sets.push(
            params
                .iter()
                .map(|p| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (p.clone(), VALUES[(state >> 33) as usize % VALUES.len()])
                })
                .collect(),
        );
    }
    for p in params {
        let mut b = uniform(5);
        b.remove(p);
        sets.push(b);
    }
    sets
}

#[test]
fn workload_and_corpus_models_match_the_reference() {
    use mira_workloads::{compose, corpus, dgemm, memval, minife, roofval, stream};
    let mut programs = vec![
        ("stream", stream::STREAM_SRC),
        ("dgemm", dgemm::DGEMM_SRC),
        ("minife", minife::MINIFE_SRC),
        ("triad", memval::TRIAD_SRC),
        ("dgemm_tiled", roofval::DGEMM_TILED_SRC),
        ("triad_blocked", roofval::TRIAD_BLOCKED_SRC),
        ("trisolve", compose::TRISOLVE_SRC),
        ("stencil_sweep", compose::STENCIL_SWEEP_SRC),
    ];
    programs.extend(corpus::corpus());
    let configs = [
        mira_vcc::Options::default(),
        mira_vcc::Options::vectorized(),
        mira_vcc::Options::spill_everything(),
    ];
    let (mut evals, mut ok, mut calls) = (0, 0, 0);
    for (name, src) in programs {
        for compiler in &configs {
            let opts = mira_core::MiraOptions {
                compiler: *compiler,
                ..mira_core::MiraOptions::default()
            };
            let analysis = match mira_core::analyze_source(src, &opts) {
                Ok(a) => a,
                // every program analyzes under the default options; some
                // refuse vectorized analysis
                Err(_) if *compiler != mira_vcc::Options::default() => continue,
                Err(e) => panic!("{name} analyzes: {e}"),
            };
            let model = &analysis.model;
            let sets = binding_sets(&model.params());
            for (f, fm) in &model.functions {
                calls += fm
                    .ops
                    .iter()
                    .filter(|op| matches!(op, ModelOp::Call { .. }))
                    .count();
                for b in &sets {
                    evals += 1;
                    ok += usize::from(check(model, f, b).is_ok());
                }
            }
        }
    }
    // the sweep reaches both outcomes and composed models, not only
    // refusals or leaves
    assert!(ok > 2000 && evals - ok > 500, "{ok} Ok of {evals}");
    assert!(calls > 0, "no model composes a callee");
}

fn func(name: &str, ops: Vec<ModelOp>) -> FuncModel {
    FuncModel {
        name: name.to_string(),
        mangled: format!("{name}_0"),
        params: vec![],
        ops,
    }
}

fn acc(category: Category, count: SymExpr) -> ModelOp {
    ModelOp::Acc {
        line: 1,
        category,
        count,
    }
}

fn call(callee: &str, multiplier: SymExpr) -> ModelOp {
    ModelOp::Call {
        callee: callee.to_string(),
        line: 2,
        multiplier,
    }
}

fn model(functions: Vec<FuncModel>) -> Model {
    Model {
        functions: functions.into_iter().map(|f| (f.name.clone(), f)).collect(),
    }
}

/// `top` calls `leaf` directly, then through a chain of `chain`
/// functions, so its second visit sits `chain + 1` levels down.
fn shallow_then_deep(chain: u32) -> Model {
    let n = SymExpr::param("n");
    let mut fns = vec![
        func(
            "top",
            vec![call("leaf", n.clone()), call("c1", SymExpr::constant(1))],
        ),
        func(
            "leaf",
            vec![
                acc(Category::IntArith, n.clone()),
                ModelOp::FlopAcc { line: 3, count: n },
            ],
        ),
    ];
    for i in 1..=chain {
        let next = if i == chain {
            "leaf".to_string()
        } else {
            format!("c{}", i + 1)
        };
        fns.push(func(
            &format!("c{i}"),
            vec![call(&next, SymExpr::constant(1))],
        ));
    }
    model(fns)
}

#[test]
fn a_callee_reused_deeper_than_it_was_computed_still_refuses() {
    let b = bindings(&[("n", 10)]);
    // leaf at depth 64 is the deepest evaluation allowed …
    let r = check(&shallow_then_deep(63), "top", &b).expect("leaf at depth 64 evaluates");
    assert_eq!(r.counts.get(Category::IntArith), 10 * 10 + 10);
    assert_eq!(r.flops, 110);
    // … one level deeper refuses, although its totals are known from depth 1
    assert_eq!(
        check(&shallow_then_deep(64), "top", &b).unwrap_err(),
        ModelError::TooDeep
    );
    // reached deep first, the totals serve the shallow site after
    let mut m = shallow_then_deep(63);
    let top = m.functions.get_mut("top").unwrap();
    top.ops.reverse();
    assert_eq!(check(&m, "top", &b).unwrap().flops, 110);
}

#[test]
fn a_zero_multiplier_skips_an_unknown_callee() {
    let z = SymExpr::param("z");
    let m = model(vec![func(
        "top",
        vec![
            acc(Category::IntArith, z.clone() + SymExpr::constant(4)),
            // the multiplier equals a count evaluated before it …
            acc(Category::IntArith, z.clone()),
            call("missing", z.clone()),
            // … and the skipped callee is not looked up
            call("missing", z),
        ],
    )]);
    let r = check(&m, "top", &bindings(&[("z", 0)])).expect("zero calls are skipped");
    assert_eq!(r.counts.get(Category::IntArith), 4);
    assert_eq!(
        check(&m, "top", &bindings(&[("z", 1)])).unwrap_err(),
        ModelError::UnknownFunction("missing".to_string())
    );
}

#[test]
fn overflow_in_a_repeated_count_refuses_where_it_did() {
    let overflow = ModelError::Eval(EvalError::Overflow);
    let n = SymExpr::param("n");
    let big = bindings(&[("n", 1 << 61), ("m", 1)]);
    // four equal counts of 2^61: each is in range, the fourth sum is not
    let four = model(vec![func(
        "f",
        vec![
            acc(Category::IntArith, n.clone()),
            acc(Category::IntArith, n.clone()),
            acc(Category::IntArith, n.clone()),
            acc(Category::IntArith, n.clone()),
        ],
    )]);
    assert_eq!(check(&four, "f", &big).unwrap_err(), overflow);
    let three = model(vec![func(
        "f",
        vec![
            acc(Category::IntArith, n.clone()),
            acc(Category::IntArith, n.clone()),
            acc(Category::IntArith, n.clone()),
        ],
    )]);
    assert!(check(&three, "f", &big).is_ok());
    // a repeated count that leaves i64 refuses at its first op, before
    // the unbound parameter after it …
    let nn = n.clone() * n.clone();
    let first = model(vec![func(
        "f",
        vec![
            acc(Category::IntArith, nn.clone()),
            acc(Category::IntArith, nn.clone()),
            acc(Category::IntArith, SymExpr::param("unbound")),
        ],
    )]);
    assert_eq!(check(&first, "f", &big).unwrap_err(), overflow);
    // … and after an unbound parameter met first
    let second = model(vec![func(
        "f",
        vec![
            acc(Category::IntArith, SymExpr::param("unbound")),
            acc(Category::IntArith, nn.clone()),
            acc(Category::IntArith, nn),
        ],
    )]);
    assert_eq!(
        check(&second, "f", &big).unwrap_err(),
        ModelError::Eval(EvalError::MissingParam("unbound".to_string()))
    );
    // a callee's reused totals overflow at the second call site's scaling
    let composed = model(vec![
        func(
            "top",
            vec![call("leaf", SymExpr::param("m")), call("leaf", n.clone())],
        ),
        func("leaf", vec![acc(Category::IntArith, n.clone())]),
    ]);
    assert_eq!(check(&composed, "top", &big).unwrap_err(), overflow);
    assert!(check(&composed, "top", &bindings(&[("n", 1 << 20), ("m", 1)])).is_ok());
}
