//! Linear-scan register allocation for scalar locals.
//!
//! The seed code generator spilled every value: parameters and locals
//! lived in frame slots, and every use paid a `mov` from `[rbp ± d]`.
//! That shape dominated the dynamic profiles with load/store traffic no
//! real optimizing compiler would emit — exactly the kind of
//! transformation gap the paper says makes source-only models wrong.
//! This pass promotes the hottest scalar locals (loop induction
//! variables first) into registers for their whole live range.
//!
//! ## Register convention
//!
//! The VX86 ABI (see `mira-isa`) fixes `r0`–`r5`/`x0`–`x7` as argument
//! registers, `r11` as the `idiv` remainder, `r14`/`r15` as frame/stack
//! pointers. The remaining scratch registers are split into two pools:
//!
//! | pool | registers | convention |
//! |------|-----------|------------|
//! | caller-saved temporaries | `r10`, `r12`, `r13`, `x8`–`x11` | clobbered by calls; the caller spills live ones around a call site |
//! | callee-saved variable homes | `r6`–`r9`, `x12`–`x15` | preserved across calls; any function that writes one saves it in its prologue and restores it in its epilogue |
//!
//! With `Options::regalloc` disabled (the spill-everything baseline) the
//! callee-saved set simply joins the temporary pool and nothing is
//! saved — user functions compile byte-for-byte as the seed codegen did
//! (the libm `fabs` body is the one exception in either mode: its
//! scratch register moved from `r6` to caller-saved `r10`).
//!
//! ## Allocation strategy
//!
//! [`allocate`] walks the function AST in the exact order the code
//! generator declares variables, so allocation decisions can be keyed by
//! declaration index. For every scalar (non-array) local or parameter it
//! records
//!
//! * a **live range** — from the declaration to the close of its scope,
//!   in statement-point space (a conservative but exact-for-scoping
//!   approximation; two variables in sibling scopes get disjoint ranges
//!   and may share a register);
//! * a **weight** — uses scaled by `8^loop_depth`, so an innermost-loop
//!   induction variable always outranks a function-scope scalar.
//!
//! Candidates are then scanned in weight order and placed into the first
//! home register whose previously assigned ranges do not overlap —
//! linear scan over live ranges with a weight-based priority. Variables
//! that do not fit stay in their frame slot (the spill fallback).
//!
//! Expression temporaries still come from the caller-saved pool, which
//! shrinks when homes are handed out. The driver in
//! [`crate::codegen::compile_program`] compiles each function optimistically
//! with up to four homes per class and retries with fewer if expression
//! codegen runs out of temporaries, so register pressure can demote
//! variables but never break compilation.

use mira_isa::{Reg, XReg};
use mira_minic::{count_loops, Expr, ExprKind, Func, Stmt, StmtKind, Type};

/// Callee-saved integer registers available as variable homes.
pub const CALLEE_SAVED_INT: [Reg; 4] = [Reg(6), Reg(7), Reg(8), Reg(9)];
/// Callee-saved XMM registers available as variable homes.
pub const CALLEE_SAVED_FP: [XReg; 4] = [XReg(12), XReg(13), XReg(14), XReg(15)];
/// Caller-saved integer temporaries (`r11` is excluded everywhere: it is
/// the implicit remainder output of `idiv`).
pub const SCRATCH_INT: [Reg; 3] = [Reg(10), Reg(12), Reg(13)];
/// Caller-saved XMM temporaries.
pub const SCRATCH_FP: [XReg; 4] = [XReg(8), XReg(9), XReg(10), XReg(11)];

/// A register home assigned to one declaration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Home {
    Int(Reg),
    Fp(XReg),
}

/// The allocation result for one function: an optional home per
/// declaration, indexed by declaration order (parameters first, then
/// `Decl` statements in AST traversal order — the order
/// `Codegen::declare_var` observes).
#[derive(Clone, Debug, Default)]
pub struct Allocation {
    homes: Vec<Option<Home>>,
}

impl Allocation {
    /// The home register of the `decl`-th declaration, if any.
    pub fn home(&self, decl: usize) -> Option<Home> {
        self.homes.get(decl).copied().flatten()
    }

    /// All integer homes handed out.
    pub fn int_homes(&self) -> Vec<Reg> {
        self.homes
            .iter()
            .filter_map(|h| match h {
                Some(Home::Int(r)) => Some(*r),
                _ => None,
            })
            .collect()
    }

    /// All FP homes handed out.
    pub fn fp_homes(&self) -> Vec<XReg> {
        self.homes
            .iter()
            .filter_map(|h| match h {
                Some(Home::Fp(x)) => Some(*x),
                _ => None,
            })
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.homes.iter().all(|h| h.is_none())
    }
}

/// Register class of one candidate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Int,
    Fp,
}

/// One allocation candidate: a scalar declaration with its live range
/// (half-open, in statement-point space) and loop-weighted use count.
#[derive(Clone, Debug)]
struct Candidate {
    decl: usize,
    class: Class,
    start: u32,
    end: u32,
    weight: u64,
}

/// Compute the register assignment for `f`, handing out at most
/// `cap_int` integer and `cap_fp` FP homes. Functions without loops are
/// left entirely in frame slots: there the prologue save/restore
/// overhead cannot be amortized.
pub fn allocate(f: &Func, cap_int: usize, cap_fp: usize) -> Allocation {
    if (cap_int == 0 && cap_fp == 0) || count_loops(&f.body) == 0 {
        return Allocation::default();
    }
    let mut w = Walker::default();
    w.scopes.push(Vec::new());
    for p in &f.params {
        w.declare(&p.name, &p.ty, false);
    }
    for s in &f.body.stmts {
        w.stmt(s);
    }
    w.close_scope();

    let mut homes = vec![None; w.cands.len()];
    assign_class(&w.cands, Class::Int, cap_int, &mut homes, |i| {
        Home::Int(CALLEE_SAVED_INT[i])
    });
    assign_class(&w.cands, Class::Fp, cap_fp, &mut homes, |i| {
        Home::Fp(CALLEE_SAVED_FP[i])
    });
    Allocation { homes }
}

/// Weight-ordered linear scan for one register class: each candidate
/// takes the first home whose already-assigned live ranges it does not
/// overlap.
fn assign_class(
    cands: &[Candidate],
    class: Class,
    cap: usize,
    homes: &mut [Option<Home>],
    home_of: impl Fn(usize) -> Home,
) {
    let mut order: Vec<&Candidate> = cands
        .iter()
        .filter(|c| c.class == class && c.weight > 0)
        .collect();
    // highest weight first; declaration order breaks ties deterministically
    order.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.decl.cmp(&b.decl)));
    let mut ranges: Vec<Vec<(u32, u32)>> = vec![Vec::new(); cap];
    for c in order {
        for (slot, taken) in ranges.iter_mut().enumerate() {
            if taken.iter().all(|&(s, e)| c.end <= s || e <= c.start) {
                taken.push((c.start, c.end));
                homes[c.decl] = Some(home_of(slot));
                break;
            }
        }
    }
}

/// AST walk mirroring the code generator's declaration and scoping
/// discipline, producing the candidate list.
#[derive(Default)]
struct Walker {
    /// Open scopes: (name, candidate index) pairs, innermost last.
    scopes: Vec<Vec<(String, usize)>>,
    cands: Vec<Candidate>,
    point: u32,
    depth: u32,
}

impl Walker {
    fn declare(&mut self, name: &str, ty: &Type, is_array: bool) {
        let class = if is_array {
            None
        } else {
            match ty {
                Type::Double => Some(Class::Fp),
                Type::Int | Type::Ptr(_) => Some(Class::Int),
                Type::Void => None,
            }
        };
        let decl = self.cands.len();
        self.point += 1;
        self.cands.push(Candidate {
            decl,
            // ineligible declarations keep a zero-weight Int entry so the
            // declaration indices stay aligned with codegen
            class: class.unwrap_or(Class::Int),
            start: self.point,
            end: self.point,
            weight: 0,
        });
        if class.is_some() {
            self.scopes
                .last_mut()
                .expect("no scope")
                .push((name.to_string(), decl));
        }
    }

    fn close_scope(&mut self) {
        self.point += 1;
        let scope = self.scopes.pop().expect("no scope");
        for (_, decl) in scope {
            self.cands[decl].end = self.point;
        }
    }

    fn use_var(&mut self, name: &str) {
        if let Some(&(_, decl)) = self
            .scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|(n, _)| n == name))
        {
            let w = 8u64.saturating_pow(self.depth.min(6));
            self.cands[decl].weight = self.cands[decl].weight.saturating_add(w);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        self.point += 1;
        match &s.kind {
            StmtKind::Decl {
                name,
                ty,
                array_len,
                init,
            } => {
                // codegen declares before generating the initializer
                self.declare(name, ty, array_len.is_some());
                if let Some(e) = init {
                    self.expr(e);
                }
            }
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::Return(v) => {
                if let Some(e) = v {
                    self.expr(e);
                }
            }
            StmtKind::Block(b) => {
                self.scopes.push(Vec::new());
                for s in &b.stmts {
                    self.stmt(s);
                }
                self.close_scope();
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                self.stmt(then_branch);
                if let Some(e) = else_branch {
                    self.stmt(e);
                }
            }
            StmtKind::While { cond, body } => {
                self.depth += 1;
                self.expr(cond);
                self.stmt(body);
                self.depth -= 1;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                // codegen opens an induction-variable scope around the loop
                self.scopes.push(Vec::new());
                if let Some(i) = init {
                    self.stmt(i);
                }
                self.depth += 1;
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(st) = step {
                    self.expr(st);
                }
                self.stmt(body);
                self.depth -= 1;
                self.close_scope();
            }
            StmtKind::Empty => {}
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) => {}
            ExprKind::Var(name) => self.use_var(name),
            ExprKind::Assign { target, value, .. } => {
                self.expr(target);
                self.expr(value);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            ExprKind::Unary { operand, .. }
            | ExprKind::Cast { operand, .. }
            | ExprKind::ImplicitCast { operand, .. } => self.expr(operand),
            ExprKind::Index { base, index } => {
                self.expr(base);
                self.expr(index);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::IncDec { target, .. } => self.expr(target),
        }
    }
}

/// Does evaluating `e` write any variable or call a function? Used by
/// codegen to decide when a borrowed home register must be copied to a
/// temporary before evaluating a sibling expression (the spill codegen
/// captured such values implicitly by loading them; register homes are
/// read at use time, so ordering hazards must be pinned explicitly), and
/// by constant folding, which drops the other side of an integer `* 0`
/// only when it has none.
pub(crate) fn has_side_effects(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Var(_) => false,
        ExprKind::Assign { .. } | ExprKind::Call { .. } | ExprKind::IncDec { .. } => true,
        ExprKind::Binary { lhs, rhs, .. } => has_side_effects(lhs) || has_side_effects(rhs),
        ExprKind::Unary { operand, .. }
        | ExprKind::Cast { operand, .. }
        | ExprKind::ImplicitCast { operand, .. } => has_side_effects(operand),
        ExprKind::Index { base, index } => has_side_effects(base) || has_side_effects(index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(src: &str, name: &str) -> Func {
        let p = mira_minic::frontend(src).unwrap();
        p.function(name).unwrap().clone()
    }

    #[test]
    fn induction_variable_outranks_function_scope_vars() {
        let f = func(
            "double dot(int n, double* x, double* y) {\n\
             double s = 0.0;\n\
             for (int i = 0; i < n; i++) { s += x[i] * y[i]; }\n\
             return s;\n}",
            "dot",
        );
        // decl order: n, x, y, s, i
        let a = allocate(&f, 4, 4);
        assert!(a.home(4).is_some(), "induction variable i gets a home");
        assert!(a.home(0).is_some(), "loop bound n gets a home");
        assert!(matches!(a.home(3), Some(Home::Fp(_))), "accumulator s");
        // under a capacity of one, the induction variable wins
        let tight = allocate(&f, 1, 0);
        assert!(tight.home(4).is_some());
        assert!(tight.home(0).is_none());
    }

    #[test]
    fn disjoint_scopes_share_a_register() {
        let f = func(
            "void f(int n, double* a) {\n\
             for (int i = 0; i < n; i++) { a[i] = 1.0; }\n\
             for (int j = 0; j < n; j++) { a[j] = 2.0; }\n}",
            "f",
        );
        // decl order: n, a, i, j — i and j have disjoint live ranges
        let a = allocate(&f, 1, 0);
        let (hi, hj) = (a.home(2), a.home(3));
        assert!(hi.is_some() && hj.is_some(), "{a:?}");
        assert_eq!(hi, hj, "disjoint ranges share the single home");
        assert!(a.home(0).is_none(), "no capacity left for n");
    }

    #[test]
    fn loopless_functions_and_arrays_get_no_homes() {
        let f = func("double f(double a) { return a * a; }", "f");
        assert!(allocate(&f, 4, 4).is_empty(), "no loops → no homes");
        let g = func(
            "double g(int n) {\n\
             double t[8];\n\
             double s = 0.0;\n\
             for (int i = 0; i < n; i++) { t[0] = s; }\n\
             return s;\n}",
            "g",
        );
        let a = allocate(&g, 4, 4);
        assert!(a.home(1).is_none(), "arrays stay in the frame");
        assert!(a.home(0).is_some() && a.home(3).is_some());
    }

    #[test]
    fn capacity_zero_allocates_nothing() {
        let f = func(
            "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i; } return s; }",
            "f",
        );
        assert!(allocate(&f, 0, 0).is_empty());
    }

    #[test]
    fn side_effect_detection() {
        let p =
            mira_minic::frontend("int f(int x) { int y = x + 1; y = f(y); return y++; }").unwrap();
        let f = p.function("f").unwrap();
        let StmtKind::Decl { init: Some(e), .. } = &f.body.stmts[0].kind else {
            panic!()
        };
        assert!(!has_side_effects(e));
        let StmtKind::Expr(call) = &f.body.stmts[1].kind else {
            panic!()
        };
        assert!(has_side_effects(call));
    }
}
