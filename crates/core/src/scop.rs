//! Static control part (SCoP) extraction: turning loop bounds and branch
//! conditions from the source AST into affine expressions over loop
//! variables and model parameters (paper §III-C2).
//!
//! Free source variables (function parameters, loop-invariant locals)
//! become model parameters named after themselves; enclosing loop variables
//! are mapped through `scope` to their domain variable names.

use mira_minic::{AnnotValue, Annotation, BinOp, Expr, ExprKind, Stmt, StmtKind, UnOp};
use mira_sym::{Rat, SymExpr};
use std::collections::HashMap;

/// Mapping from source variable name to polyhedron variable name for
/// enclosing loop induction variables.
pub type LoopScope = HashMap<String, String>;

/// Convert an int-typed source expression to an affine [`SymExpr`], if
/// possible. Loop variables are renamed through `scope`; any other
/// variable becomes a model parameter.
pub fn to_affine(e: &Expr, scope: &LoopScope) -> Option<SymExpr> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(SymExpr::constant(*v as i128)),
        ExprKind::Var(name) => {
            let mapped = scope.get(name).cloned().unwrap_or_else(|| name.clone());
            Some(SymExpr::param(&mapped))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let l = to_affine(lhs, scope)?;
            let r = to_affine(rhs, scope)?;
            match op {
                BinOp::Add => Some(l + r),
                BinOp::Sub => Some(l - r),
                BinOp::Mul => {
                    // affine only when one side is constant
                    if let Some(c) = l.as_constant() {
                        Some(r.scale(c))
                    } else {
                        r.as_constant().map(|c| l.scale(c))
                    }
                }
                BinOp::Div => {
                    // floor division by a positive constant stays
                    // representable (strided domains)
                    let c = r.as_constant()?.as_integer()?;
                    if c > 0 {
                        Some(l.floor_div(c as i64))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        ExprKind::Unary {
            op: UnOp::Neg,
            operand,
        } => Some(to_affine(operand, scope)?.scale(Rat::int(-1))),
        ExprKind::Cast { operand, .. } | ExprKind::ImplicitCast { operand, .. } => {
            to_affine(operand, scope)
        }
        _ => None,
    }
}

/// A branch condition analyzed for domain intersection (paper §III-C3).
#[derive(Clone, Debug)]
pub enum Condition {
    /// Conjunction of affine constraints `e ≥ 0`.
    Affine(Vec<SymExpr>),
    /// `var % m == r` — a lattice constraint.
    ModEq { var: String, m: i64, r: i64 },
    /// `var % m != r` — complement of a lattice constraint (Listing 5).
    ModNe { var: String, m: i64, r: i64 },
    /// Not statically analyzable (requires an annotation).
    NonAffine,
}

/// Analyze a branch condition.
pub fn analyze_condition(e: &Expr, scope: &LoopScope) -> Condition {
    match &e.kind {
        ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
            // modulo pattern: (v % m) cmp r
            if let ExprKind::Binary {
                op: BinOp::Mod,
                lhs: mv,
                rhs: mm,
            } = &lhs.kind
            {
                if let (ExprKind::Var(v), ExprKind::IntLit(m), ExprKind::IntLit(r)) =
                    (&mv.kind, &mm.kind, &rhs.kind)
                {
                    if *m > 0 {
                        let var = scope.get(v).cloned().unwrap_or_else(|| v.clone());
                        let r = r.rem_euclid(*m);
                        return match op {
                            BinOp::Eq => Condition::ModEq { var, m: *m, r },
                            BinOp::Ne => Condition::ModNe { var, m: *m, r },
                            _ => Condition::NonAffine,
                        };
                    }
                }
            }
            let (Some(l), Some(r)) = (to_affine(lhs, scope), to_affine(rhs, scope)) else {
                return Condition::NonAffine;
            };
            let one = SymExpr::constant(1);
            let cs = match op {
                BinOp::Lt => vec![r - l - one],             // l < r  ⇔ r-l-1 ≥ 0
                BinOp::Le => vec![r - l],                   // l ≤ r
                BinOp::Gt => vec![l - r - one],             // l > r
                BinOp::Ge => vec![l - r],                   // l ≥ r
                BinOp::Eq => vec![l.clone() - r.clone(), r - l], // both directions
                BinOp::Ne => return Condition::NonAffine,   // non-convex
                _ => return Condition::NonAffine,
            };
            Condition::Affine(cs)
        }
        ExprKind::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            match (
                analyze_condition(lhs, scope),
                analyze_condition(rhs, scope),
            ) {
                (Condition::Affine(mut a), Condition::Affine(b)) => {
                    a.extend(b);
                    Condition::Affine(a)
                }
                _ => Condition::NonAffine,
            }
        }
        _ => Condition::NonAffine,
    }
}

/// A loop's extracted SCoP: `var ∈ [lo, hi]`, optional stride.
#[derive(Clone, Debug)]
pub struct Scop {
    /// Source induction variable name.
    pub var: String,
    pub lo: SymExpr,
    pub hi: SymExpr,
    /// `(modulus, residue)` for strides > 1.
    pub stride: Option<(i64, i64)>,
}

/// Extract the SCoP of a `for` loop from its init/cond/step expressions.
/// Returns `None` when any part is outside the affine subset (the paper's
/// annotation-required case).
pub fn extract_for_scop(
    init: &mira_minic::Stmt,
    cond: &Expr,
    step: &Expr,
    scope: &LoopScope,
) -> Option<Scop> {
    // init: `int i = E` or expression statement `i = E`
    let (var, lo) = match &init.kind {
        StmtKind::Decl {
            name,
            init: Some(e),
            array_len: None,
            ..
        } => (name.clone(), to_affine(e, scope)?),
        StmtKind::Expr(e) => {
            if let ExprKind::Assign {
                op: mira_minic::AssignOp::Set,
                target,
                value,
            } = &e.kind
            {
                let ExprKind::Var(name) = &target.kind else {
                    return None;
                };
                (name.clone(), to_affine(value, scope)?)
            } else {
                return None;
            }
        }
        _ => return None,
    };

    // cond: `i < E`, `i <= E` (also `E > i`, `E >= i`)
    let ExprKind::Binary { op, lhs, rhs } = &cond.kind else {
        return None;
    };
    let hi = match (&lhs.kind, op) {
        (ExprKind::Var(v), BinOp::Lt) if *v == var => {
            to_affine(rhs, scope)? - SymExpr::constant(1)
        }
        (ExprKind::Var(v), BinOp::Le) if *v == var => to_affine(rhs, scope)?,
        _ => match (&rhs.kind, op) {
            (ExprKind::Var(v), BinOp::Gt) if *v == var => {
                to_affine(lhs, scope)? - SymExpr::constant(1)
            }
            (ExprKind::Var(v), BinOp::Ge) if *v == var => to_affine(lhs, scope)?,
            _ => return None,
        },
    };

    // step: i++, ++i, i += k
    let stride = match &step.kind {
        ExprKind::IncDec {
            increment: true,
            target,
            ..
        } => {
            let ExprKind::Var(v) = &target.kind else {
                return None;
            };
            if *v != var {
                return None;
            }
            None
        }
        ExprKind::Assign {
            op: mira_minic::AssignOp::Add,
            target,
            value,
        } => {
            let ExprKind::Var(v) = &target.kind else {
                return None;
            };
            if *v != var {
                return None;
            }
            match &value.kind {
                ExprKind::IntLit(1) => None,
                ExprKind::IntLit(k) if *k > 1 => {
                    // residue needs a concrete start
                    let r = lo.as_int()?;
                    Some((*k, r.rem_euclid(*k as i128) as i64))
                }
                _ => return None,
            }
        }
        _ => return None,
    };

    Some(Scop {
        var,
        lo,
        hi,
        stride,
    })
}

/// The induction variable a loop's init clause names (`int i = …` or
/// `i = …`), whatever its bound: what the annotation paths read when
/// the bounds are not affine.
pub fn init_var(init: &Stmt) -> Option<String> {
    match &init.kind {
        StmtKind::Decl { name, .. } => Some(name.clone()),
        StmtKind::Expr(e) => match &e.kind {
            ExprKind::Assign { target, .. } => match &target.kind {
                ExprKind::Var(n) => Some(n.clone()),
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

/// The trip count an `lp_iters` annotation asserts: a number, or a
/// parameter name `admit` accepts, times the optional `lp_scale` read at
/// a 1e-9 fixed point (`{lp_iters: nnz_milli, lp_scale: 0.001}`). `None`
/// without an admissible `lp_iters`.
pub fn annotated_iters(ann: &Annotation, admit: impl Fn(&str) -> bool) -> Option<SymExpr> {
    let iters = match ann.get("lp_iters")? {
        AnnotValue::Num(n) => SymExpr::constant(*n as i128),
        AnnotValue::Ident(name) if admit(name) => SymExpr::param(name),
        _ => return None,
    };
    Some(match ann.get("lp_scale") {
        Some(AnnotValue::Num(f)) => {
            iters.scale(Rat::new((f * 1_000_000_000.0).round() as i128, 1_000_000_000))
        }
        _ => iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_minic::{frontend, StmtKind};
    use mira_sym::bindings;

    fn first_for(src: &str) -> (mira_minic::Stmt, Expr, Expr) {
        let p = frontend(src).unwrap();
        for f in p.functions() {
            for s in &f.body.stmts {
                if let StmtKind::For {
                    init, cond, step, ..
                } = &s.kind
                {
                    return (
                        (**init.as_ref().unwrap()).clone(),
                        cond.clone().unwrap(),
                        step.clone().unwrap(),
                    );
                }
            }
        }
        panic!("no for loop");
    }

    #[test]
    fn extracts_simple_scop() {
        let (i, c, s) =
            first_for("void f(int n) { for (int i = 0; i < n; i++) { ; } }");
        let scop = extract_for_scop(&i, &c, &s, &LoopScope::new()).unwrap();
        assert_eq!(scop.var, "i");
        assert_eq!(scop.lo.as_int(), Some(0));
        let b = bindings(&[("n", 10)]);
        assert_eq!(scop.hi.eval_count(&b).unwrap(), 9);
        assert!(scop.stride.is_none());
    }

    #[test]
    fn extracts_le_and_stride() {
        let (i, c, s) =
            first_for("void f(int n) { for (int i = 2; i <= n; i += 3) { ; } }");
        let scop = extract_for_scop(&i, &c, &s, &LoopScope::new()).unwrap();
        assert_eq!(scop.stride, Some((3, 2)));
        let b = bindings(&[("n", 10)]);
        assert_eq!(scop.hi.eval_count(&b).unwrap(), 10);
    }

    #[test]
    fn dependent_inner_bound_renames_loop_var() {
        let (i, c, s) = first_for(
            "void f(int n) { for (int j = 0; j < n; j++) { ; } }",
        );
        let mut scope = LoopScope::new();
        scope.insert("n".to_string(), "i#0".to_string()); // pretend n is an outer loop var
        let scop = extract_for_scop(&i, &c, &s, &scope).unwrap();
        assert!(scop.hi.params().contains(&"i#0".to_string()));
    }

    #[test]
    fn rejects_call_in_bound() {
        let (i, c, s) = first_for(
            "int g(int x) { return x; } void f(int n) { for (int i = 0; i < g(n); i++) { ; } }",
        );
        assert!(extract_for_scop(&i, &c, &s, &LoopScope::new()).is_none());
    }

    #[test]
    fn rejects_symbolic_stride_start() {
        // stride > 1 with a symbolic start has an unknown residue class
        let (i, c, s) =
            first_for("void f(int n, int a) { for (int i = a; i < n; i += 2) { ; } }");
        assert!(extract_for_scop(&i, &c, &s, &LoopScope::new()).is_none());
    }

    #[test]
    fn affine_expr_variants() {
        let scope = LoopScope::new();
        let p = frontend("void f(int n, int m) { int x = 2 * n + m - 3; x = x; }").unwrap();
        let func = p.functions().next().unwrap();
        let StmtKind::Decl { init: Some(e), .. } = &func.body.stmts[0].kind else {
            panic!()
        };
        let a = to_affine(e, &scope).unwrap();
        let b = bindings(&[("n", 5), ("m", 4)]);
        assert_eq!(a.eval_count(&b).unwrap(), 11);
    }

    #[test]
    fn condition_analysis() {
        let p = frontend(
            "void f(int j, int i) { if (j > 4) { ; } if (j % 4 != 0) { ; } if (j * i > 2) { ; } }",
        )
        .unwrap();
        let func = p.functions().next().unwrap();
        let conds: Vec<&Expr> = func
            .body
            .stmts
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::If { cond, .. } => Some(cond),
                _ => None,
            })
            .collect();
        let scope = LoopScope::new();
        assert!(matches!(
            analyze_condition(conds[0], &scope),
            Condition::Affine(_)
        ));
        assert!(matches!(
            analyze_condition(conds[1], &scope),
            Condition::ModNe { m: 4, r: 0, .. }
        ));
        assert!(matches!(
            analyze_condition(conds[2], &scope),
            Condition::NonAffine
        ));
    }
}
