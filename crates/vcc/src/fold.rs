//! Constant folding and algebraic simplification (always on).
//!
//! Folds literal arithmetic, strips `+0` / `*1` identities, and evaluates
//! casts of literals. Runs on the typed AST before codegen; this is one of
//! the compiler transformations that make binary-level instruction counts
//! differ from naive source-level ones.

use mira_minic::{BinOp, Expr, ExprKind, Program, Stmt, StmtKind, Type, UnOp};

/// Fold constants across a whole program, in place.
pub fn fold_program(p: &mut Program) {
    for item in &mut p.items {
        if let mira_minic::Item::Func(f) = item {
            for s in &mut f.body.stmts {
                fold_stmt(s);
            }
        }
    }
}

fn fold_stmt(s: &mut Stmt) {
    match &mut s.kind {
        StmtKind::Decl { init, .. } => {
            if let Some(e) = init {
                fold_expr(e);
            }
        }
        StmtKind::Expr(e) => fold_expr(e),
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            fold_expr(cond);
            fold_stmt(then_branch);
            if let Some(e) = else_branch {
                fold_stmt(e);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                fold_stmt(i);
            }
            if let Some(c) = cond {
                fold_expr(c);
            }
            if let Some(st) = step {
                fold_expr(st);
            }
            fold_stmt(body);
        }
        StmtKind::While { cond, body } => {
            fold_expr(cond);
            fold_stmt(body);
        }
        StmtKind::Return(Some(e)) => fold_expr(e),
        StmtKind::Block(b) => {
            for s in &mut b.stmts {
                fold_stmt(s);
            }
        }
        StmtKind::Return(None) | StmtKind::Empty => {}
    }
}

fn as_int(e: &Expr) -> Option<i64> {
    match e.kind {
        ExprKind::IntLit(v) => Some(v),
        _ => None,
    }
}

fn as_float(e: &Expr) -> Option<f64> {
    match e.kind {
        ExprKind::FloatLit(v) => Some(v),
        _ => None,
    }
}

fn fold_expr(e: &mut Expr) {
    // fold children first
    match &mut e.kind {
        ExprKind::Assign { target, value, .. } => {
            fold_expr(target);
            fold_expr(value);
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            fold_expr(lhs);
            fold_expr(rhs);
        }
        ExprKind::Unary { operand, .. }
        | ExprKind::Cast { operand, .. }
        | ExprKind::ImplicitCast { operand, .. } => fold_expr(operand),
        ExprKind::Index { base, index } => {
            fold_expr(base);
            fold_expr(index);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                fold_expr(a);
            }
        }
        ExprKind::IncDec { .. }
        | ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::Var(_) => {}
    }

    let span = e.span;
    let replacement = match &e.kind {
        ExprKind::Binary { op, lhs, rhs } => {
            if let (Some(a), Some(b)) = (as_int(lhs), as_int(rhs)) {
                fold_int_binop(*op, a, b).map(ExprKind::IntLit)
            } else if let (Some(a), Some(b)) = (as_float(lhs), as_float(rhs)) {
                fold_float_binop(*op, a, b)
            } else {
                fold_identities(*op, lhs, rhs)
            }
        }
        ExprKind::Unary { op, operand } => match (op, &operand.kind) {
            (UnOp::Neg, ExprKind::IntLit(v)) => Some(ExprKind::IntLit(v.wrapping_neg())),
            (UnOp::Neg, ExprKind::FloatLit(v)) => Some(ExprKind::FloatLit(-v)),
            (UnOp::Not, ExprKind::IntLit(v)) => Some(ExprKind::IntLit((*v == 0) as i64)),
            _ => None,
        },
        ExprKind::Cast { ty, operand } | ExprKind::ImplicitCast { ty, operand } => {
            match (&ty, &operand.kind) {
                (Type::Double, ExprKind::IntLit(v)) => Some(ExprKind::FloatLit(*v as f64)),
                (Type::Int, ExprKind::FloatLit(v)) => Some(ExprKind::IntLit(*v as i64)),
                (Type::Int, ExprKind::IntLit(v)) => Some(ExprKind::IntLit(*v)),
                (Type::Double, ExprKind::FloatLit(v)) => Some(ExprKind::FloatLit(*v)),
                _ => None,
            }
        }
        _ => None,
    };
    if let Some(kind) = replacement {
        let ty = e.ty.clone();
        *e = Expr { kind, span, ty };
    }
}

fn fold_int_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        BinOp::Mod => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
    })
}

fn fold_float_binop(op: BinOp, a: f64, b: f64) -> Option<ExprKind> {
    Some(match op {
        BinOp::Add => ExprKind::FloatLit(a + b),
        BinOp::Sub => ExprKind::FloatLit(a - b),
        BinOp::Mul => ExprKind::FloatLit(a * b),
        BinOp::Div => ExprKind::FloatLit(a / b),
        BinOp::Lt => ExprKind::IntLit((a < b) as i64),
        BinOp::Le => ExprKind::IntLit((a <= b) as i64),
        BinOp::Gt => ExprKind::IntLit((a > b) as i64),
        BinOp::Ge => ExprKind::IntLit((a >= b) as i64),
        BinOp::Eq => ExprKind::IntLit((a == b) as i64),
        BinOp::Ne => ExprKind::IntLit((a != b) as i64),
        BinOp::Mod | BinOp::And | BinOp::Or => return None,
    })
}

/// `x + 0`, `x - 0`, `x * 1`, `x / 1`, `x * 0` (int only — FP `x*0` must
/// keep NaN semantics).
fn fold_identities(op: BinOp, lhs: &Expr, rhs: &Expr) -> Option<ExprKind> {
    match (op, as_int(lhs), as_int(rhs)) {
        (BinOp::Add, Some(0), _) => Some(rhs.kind.clone()),
        (BinOp::Add, _, Some(0)) | (BinOp::Sub, _, Some(0)) => Some(lhs.kind.clone()),
        (BinOp::Mul, Some(1), _) => Some(rhs.kind.clone()),
        (BinOp::Mul, _, Some(1)) | (BinOp::Div, _, Some(1)) => Some(lhs.kind.clone()),
        (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0))
            if lhs.ty == Type::Int && rhs.ty == Type::Int =>
        {
            // only safe when the discarded side has no side effects
            let side = if as_int(lhs) == Some(0) { rhs } else { lhs };
            if is_pure(side) {
                Some(ExprKind::IntLit(0))
            } else {
                None
            }
        }
        _ => None,
    }
}

fn is_pure(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Var(_) => true,
        ExprKind::Binary { lhs, rhs, .. } => is_pure(lhs) && is_pure(rhs),
        ExprKind::Unary { operand, .. }
        | ExprKind::Cast { operand, .. }
        | ExprKind::ImplicitCast { operand, .. } => is_pure(operand),
        ExprKind::Index { base, index } => is_pure(base) && is_pure(index),
        ExprKind::Assign { .. } | ExprKind::Call { .. } | ExprKind::IncDec { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_minic::frontend;

    fn folded_return(src: &str) -> Expr {
        let mut p = frontend(src).unwrap();
        fold_program(&mut p);
        let f = p.functions().next().unwrap();
        let StmtKind::Return(Some(e)) = &f.body.stmts.last().unwrap().kind else {
            panic!("expected return")
        };
        e.clone()
    }

    #[test]
    fn folds_int_arithmetic() {
        let e = folded_return("int f() { return 2 + 3 * 4; }");
        assert_eq!(e.kind, ExprKind::IntLit(14));
    }

    #[test]
    fn folds_float_and_casts() {
        let e = folded_return("double f() { return 1 + 2; }");
        // int add folds to 3, implicit cast folds to 3.0
        assert_eq!(e.kind, ExprKind::FloatLit(3.0));
        let e = folded_return("int f() { return (int)2.9; }");
        assert_eq!(e.kind, ExprKind::IntLit(2));
    }

    #[test]
    fn folds_identities() {
        let e = folded_return("int f(int x) { return x + 0; }");
        assert_eq!(e.kind, ExprKind::Var("x".to_string()));
        let e = folded_return("int f(int x) { return x * 1; }");
        assert_eq!(e.kind, ExprKind::Var("x".to_string()));
        let e = folded_return("int f(int x) { return x * 0; }");
        assert_eq!(e.kind, ExprKind::IntLit(0));
    }

    #[test]
    fn keeps_division_by_zero() {
        let e = folded_return("int f() { return 1 / 0; }");
        assert!(matches!(e.kind, ExprKind::Binary { .. }));
    }

    #[test]
    fn impure_mul_zero_kept() {
        let src = "int g(int x) { return x; } int f(int x) { return g(x) * 0; }";
        let mut p = frontend(src).unwrap();
        fold_program(&mut p);
        let f = p.function("f").unwrap();
        let StmtKind::Return(Some(e)) = &f.body.stmts[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Binary { .. }));
    }

    #[test]
    fn folds_comparisons_and_not() {
        let e = folded_return("int f() { return !(3 < 2); }");
        assert_eq!(e.kind, ExprKind::IntLit(1));
    }
}
