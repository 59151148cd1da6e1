//! SSE2 auto-vectorizer for map-style innermost loops.
//!
//! Recognizes the canonical streaming pattern
//!
//! ```c
//! for (int i = E0; i < B; i++)
//!     a[i] = <double expr over x[i], scalar doubles, literals>;
//! ```
//!
//! and emits a packed main loop (2 doubles per iteration via
//! `movupd`/`addpd`/`mulpd`/...) followed by a scalar remainder loop.
//! Both loops carry `.loopmeta` records — the main loop with
//! `vector_factor = 2`, the remainder flagged `is_remainder` — so the
//! static analyzer can model the transformed iteration space exactly.
//!
//! This transformation is the heart of the paper's source-vs-binary
//! argument: a source-only analyzer (PBound) predicts `2·n` scalar FP
//! instructions for a `b[i] + s*c[i]` loop body, while the binary executes
//! `≈ n` packed ones.
//!
//! Arrays are assumed not to alias (the usual `restrict` / `-fno-alias`
//! contract); only index expressions equal to the induction variable are
//! accepted, which rules out cross-lane dependencies.

use crate::codegen::{Codegen, Value};
use crate::emitter::LoopLabels;
use crate::CompileError;
use mira_isa::{Cc, Inst, Mem, Reg, XReg, RBP};
use mira_minic::{AssignOp, BinOp, Expr, ExprKind, Stmt, StmtKind, Type};

/// Attempt to vectorize `s` (a `for` statement). Returns `Ok(Some(()))` if
/// vectorized code was emitted, `Ok(None)` if the loop does not match the
/// pattern (caller falls back to scalar codegen).
pub fn try_vectorize(cg: &mut Codegen, s: &Stmt) -> Result<Option<()>, CompileError> {
    let StmtKind::For {
        init,
        cond,
        step,
        body,
    } = &s.kind
    else {
        return Ok(None);
    };

    // ---- pattern match ----
    let Some(init) = init else { return Ok(None) };
    let StmtKind::Decl {
        name: ivar,
        ty: Type::Int,
        array_len: None,
        init: Some(init_expr),
    } = &init.kind
    else {
        return Ok(None);
    };
    if !is_invariant_int(init_expr, ivar) {
        return Ok(None);
    }
    let Some(cond) = cond else { return Ok(None) };
    let ExprKind::Binary {
        op: BinOp::Lt,
        lhs,
        rhs,
    } = &cond.kind
    else {
        return Ok(None);
    };
    let ExprKind::Var(cv) = &lhs.kind else {
        return Ok(None);
    };
    if cv != ivar || !is_invariant_int(rhs, ivar) {
        return Ok(None);
    }
    let bound = rhs;
    if !is_unit_step(step, ivar) {
        return Ok(None);
    }
    let stmts: Vec<&Stmt> = match &body.kind {
        StmtKind::Block(b) => b.stmts.iter().collect(),
        StmtKind::Expr(_) => vec![body.as_ref()],
        _ => return Ok(None),
    };
    if stmts.is_empty() {
        return Ok(None);
    }
    let mut plans = Vec::new();
    for st in &stmts {
        let StmtKind::Expr(e) = &st.kind else {
            return Ok(None);
        };
        let ExprKind::Assign { op, target, value } = &e.kind else {
            return Ok(None);
        };
        let ExprKind::Index { base, index } = &target.kind else {
            return Ok(None);
        };
        let ExprKind::Var(arr) = &base.kind else {
            return Ok(None);
        };
        if !is_ivar(index, ivar) || target.ty != Type::Double {
            return Ok(None);
        }
        if !packable(value, ivar) {
            return Ok(None);
        }
        plans.push((st.span.line, *op, arr.clone(), value.as_ref()));
    }

    // ---- emit ----
    mira_probe::add("vcc.vectorized_loops", 1);
    let header_line = s.span.line;
    cg.asm.cur_line = header_line;

    // scope for the induction variable
    cg.push_scope();
    let init_start = cg.asm.here();
    // i binding (frame slot or register home, per the allocator)
    cg.gen_stmt(init)?;
    // bound and bound-1 slots (evaluated once; loop-invariant); the bound
    // may be a borrowed home register, so copy before decrementing
    let bv = cg.gen_expr(bound)?;
    let bv = cg.pin_value(bv)?;
    let rb = cg.value_ireg(bv);
    let slot_bound = cg.scratch_slot()?;
    cg.asm
        .emit(Inst::Store(Mem::base_disp(RBP, slot_bound), rb));
    cg.asm.emit(Inst::AddRI(rb, -1));
    let slot_lim = cg.scratch_slot()?;
    cg.asm.emit(Inst::Store(Mem::base_disp(RBP, slot_lim), rb));
    cg.free(bv);

    // Hoist loop-invariant components of the packed body into registers
    // held across the main loop — literal/scalar broadcasts (3 and 2
    // instructions per iteration, respectively) and slot-resident array
    // bases (1 load per access) — exactly as the scalar paths keep their
    // invariants in register homes. Emitted here, in the loopmeta init
    // range, so the model sees them outside the iteration space.
    let hoisted = Hoisted::emit(cg, &plans)?;

    let l_main = cg.asm.new_label();
    let l_rem = cg.asm.new_label();
    let l_rem_cond = cg.asm.new_label();
    let l_end = cg.asm.new_label();

    // ---- packed main loop: while (i < bound - 1) ----
    cg.asm.bind(l_main);
    let cond_start = cg.asm.here();
    cg.asm.cur_line = header_line;
    {
        let iv = cg.load_int_var(ivar)?;
        let rl = cg.alloc_int()?;
        cg.asm.emit(Inst::Load(rl, Mem::base_disp(RBP, slot_lim)));
        cg.asm.emit(Inst::CmpRR(cg.value_ireg(iv), rl));
        cg.free(iv);
        cg.free(Value::I(rl));
        cg.asm.jcc(Cc::Ge, l_rem);
    }
    let body_start = cg.asm.here();
    for (line, op, arr, value) in &plans {
        cg.asm.cur_line = *line;
        let x = gen_packed(cg, value, ivar, &hoisted)?;
        // address of arr[i]
        let av = hoisted.base_value(cg, arr)?;
        let iv = cg.load_int_var(ivar)?;
        let mem = Mem::base_index(cg.value_ireg(av), cg.value_ireg(iv), 8, 0);
        if *op == AssignOp::Set {
            cg.asm.emit(Inst::MovupdStore(mem, x.reg));
        } else {
            let cur = cg.alloc_fp()?;
            cg.asm.emit(Inst::MovupdLoad(cur, mem));
            emit_packed_op(cg, assign_bin(*op), cur, x.reg);
            cg.asm.emit(Inst::MovupdStore(mem, cur));
            cg.free(Value::F(cur));
        }
        cg.free(av);
        cg.free(iv);
        x.release(cg);
    }
    let step_start = cg.asm.here();
    cg.asm.cur_line = header_line;
    cg.bump_int_var(ivar, 2)?;
    cg.asm.jmp(l_main);
    cg.asm.bind(l_rem);
    let main_end = cg.asm.here();
    // the remainder loop goes through scalar codegen — hand the held
    // registers back to the pool first
    hoisted.release(cg);

    cg.asm.loop_labels.push(LoopLabels {
        header_line,
        init_start,
        init_end: cond_start,
        cond_start,
        cond_end: body_start,
        step_start,
        step_end: main_end,
        body_start,
        body_end: step_start,
        vector_factor: 2,
        is_remainder: false,
    });

    // ---- scalar remainder loop: while (i < bound) ----
    cg.asm.bind(l_rem_cond);
    let rem_cond_start = main_end;
    cg.asm.cur_line = header_line;
    {
        let iv = cg.load_int_var(ivar)?;
        let rb2 = cg.alloc_int()?;
        cg.asm
            .emit(Inst::Load(rb2, Mem::base_disp(RBP, slot_bound)));
        cg.asm.emit(Inst::CmpRR(cg.value_ireg(iv), rb2));
        cg.free(iv);
        cg.free(Value::I(rb2));
        cg.asm.jcc(Cc::Ge, l_end);
    }
    let rem_body_start = cg.asm.here();
    for st in &stmts {
        cg.gen_stmt(st)?;
    }
    let rem_step_start = cg.asm.here();
    cg.asm.cur_line = header_line;
    cg.bump_int_var(ivar, 1)?;
    cg.asm.jmp(l_rem_cond);
    cg.asm.bind(l_end);
    let rem_end = cg.asm.here();

    cg.asm.loop_labels.push(LoopLabels {
        header_line,
        init_start: rem_cond_start,
        init_end: rem_cond_start,
        cond_start: rem_cond_start,
        cond_end: rem_body_start,
        step_start: rem_step_start,
        step_end: rem_end,
        body_start: rem_body_start,
        body_end: rem_step_start,
        vector_factor: 1,
        is_remainder: true,
    });

    cg.pop_scope();
    Ok(Some(()))
}

/// Pool registers charged once in the loop preheader with invariant
/// values the packed body would otherwise rematerialize every iteration.
/// Held for the whole main loop, released before the scalar remainder.
struct Hoisted {
    /// Broadcast `FloatLit`s, keyed by bit pattern.
    lits: Vec<(u64, XReg)>,
    /// Broadcast loop-invariant scalar doubles, keyed by name.
    vars: Vec<(String, XReg)>,
    /// Slot-resident array base pointers, keyed by name. Register-homed
    /// bases never land here — borrowing the home is already free.
    bases: Vec<(String, Reg)>,
}

/// Free registers each pool must retain after hoisting: enough for the
/// packed body's own temporaries (expression tree + address + compound
/// load) so hoisting never turns a compilable loop into a pool-dry
/// `CompileError` — especially in spill mode, where the retry driver
/// has no homes left to demote.
const HOIST_RESERVE: usize = 4;

impl Hoisted {
    fn emit(
        cg: &mut Codegen,
        plans: &[(u32, AssignOp, String, &Expr)],
    ) -> Result<Hoisted, CompileError> {
        // candidates, deduplicated in first-appearance order; literal and
        // scalar broadcasts first (biggest per-iteration saving)
        let mut lits: Vec<u64> = Vec::new();
        let mut vars: Vec<String> = Vec::new();
        let mut bases: Vec<String> = Vec::new();
        for (_, _, arr, value) in plans {
            collect_invariants(value, &mut lits, &mut vars, &mut bases);
            if cg.var_in_slot(arr) && !bases.contains(arr) {
                bases.push(arr.clone());
            }
        }
        let mut h = Hoisted {
            lits: Vec::new(),
            vars: Vec::new(),
            bases: Vec::new(),
        };
        for bits in lits {
            if cg.fp_free_len() <= HOIST_RESERVE {
                break;
            }
            let rt = cg.alloc_int()?;
            cg.asm.emit(Inst::MovRI(rt, bits as i64));
            let x = cg.alloc_fp()?;
            cg.asm.emit(Inst::MovqXR(x, rt));
            cg.asm.emit(Inst::Unpcklpd(x, x)); // broadcast
            cg.free(Value::I(rt));
            h.lits.push((bits, x));
        }
        for name in vars {
            if cg.fp_free_len() <= HOIST_RESERVE {
                break;
            }
            let x = cg.load_fp_var_broadcast(&name)?;
            h.vars.push((name, x));
        }
        for name in bases {
            if !cg.var_in_slot(&name) {
                // register-homed base: borrowing the home is already free
                continue;
            }
            if cg.int_free_len() <= HOIST_RESERVE {
                break;
            }
            let v = cg.load_int_var(&name)?;
            // slot-resident, so this is always an owned pool temporary
            h.bases.push((name, cg.value_ireg(v)));
        }
        Ok(h)
    }

    fn lit(&self, bits: u64) -> Option<XReg> {
        self.lits.iter().find(|(b, _)| *b == bits).map(|(_, x)| *x)
    }

    fn var(&self, name: &str) -> Option<XReg> {
        self.vars.iter().find(|(n, _)| n == name).map(|(_, x)| *x)
    }

    /// The base pointer of `name` for address formation: the held
    /// register (as a non-pool borrow, so the body's `free` is a no-op),
    /// or a plain `load_int_var` when it was not hoisted.
    fn base_value(&self, cg: &mut Codegen, name: &str) -> Result<Value, CompileError> {
        match self.bases.iter().find(|(n, _)| n == name) {
            Some((_, r)) => Ok(Value::IHome(*r)),
            None => cg.load_int_var(name),
        }
    }

    fn release(self, cg: &mut Codegen) {
        for (_, x) in self.lits {
            cg.free(Value::F(x));
        }
        for (_, x) in self.vars {
            cg.free(Value::F(x));
        }
        for (_, r) in self.bases {
            cg.free(Value::I(r));
        }
    }
}

/// Collect the invariant leaves of a packable expression, deduplicated,
/// in first-appearance order.
fn collect_invariants(
    e: &Expr,
    lits: &mut Vec<u64>,
    vars: &mut Vec<String>,
    bases: &mut Vec<String>,
) {
    match &e.kind {
        ExprKind::FloatLit(v) if !lits.contains(&v.to_bits()) => {
            lits.push(v.to_bits());
        }
        ExprKind::Var(name) if !vars.contains(name) => {
            vars.push(name.clone());
        }
        ExprKind::Index { base, .. } => {
            if let ExprKind::Var(arr) = &base.kind {
                if !bases.contains(arr) {
                    bases.push(arr.clone());
                }
            }
        }
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_invariants(lhs, lits, vars, bases);
            collect_invariants(rhs, lits, vars, bases);
        }
        _ => {}
    }
}

/// A packed value: the register plus whether this evaluation owns it.
/// Hoisted broadcasts are borrowed — they must survive the iteration, so
/// they are never freed here and never mutated in place.
struct PackedVal {
    reg: XReg,
    owned: bool,
}

impl PackedVal {
    fn release(self, cg: &mut Codegen) {
        if self.owned {
            cg.free(Value::F(self.reg));
        }
    }
}

/// Generate a packed (2-lane) evaluation of a packable expression.
fn gen_packed(
    cg: &mut Codegen,
    e: &Expr,
    ivar: &str,
    hoisted: &Hoisted,
) -> Result<PackedVal, CompileError> {
    match &e.kind {
        ExprKind::FloatLit(v) => {
            if let Some(x) = hoisted.lit(v.to_bits()) {
                return Ok(PackedVal {
                    reg: x,
                    owned: false,
                });
            }
            let rt = cg.alloc_int()?;
            cg.asm.emit(Inst::MovRI(rt, v.to_bits() as i64));
            let x = cg.alloc_fp()?;
            cg.asm.emit(Inst::MovqXR(x, rt));
            cg.asm.emit(Inst::Unpcklpd(x, x)); // broadcast
            cg.free(Value::I(rt));
            Ok(PackedVal {
                reg: x,
                owned: true,
            })
        }
        ExprKind::Var(name) => {
            if let Some(x) = hoisted.var(name) {
                return Ok(PackedVal {
                    reg: x,
                    owned: false,
                });
            }
            // loop-invariant scalar double: read + broadcast
            let x = cg.load_fp_var_broadcast(name)?;
            Ok(PackedVal {
                reg: x,
                owned: true,
            })
        }
        ExprKind::Index { base, .. } => {
            let ExprKind::Var(arr) = &base.kind else {
                unreachable!("packable checked")
            };
            let av = hoisted.base_value(cg, arr)?;
            let iv = cg.load_int_var(ivar)?;
            let x = cg.alloc_fp()?;
            let mem = Mem::base_index(cg.value_ireg(av), cg.value_ireg(iv), 8, 0);
            cg.asm.emit(Inst::MovupdLoad(x, mem));
            cg.free(av);
            cg.free(iv);
            Ok(PackedVal {
                reg: x,
                owned: true,
            })
        }
        ExprKind::Binary { op, lhs, rhs } => {
            let a = gen_packed(cg, lhs, ivar, hoisted)?;
            // the op mutates its first register in place — a borrowed
            // (hoisted) value must be copied, both lanes
            let a = if a.owned {
                a
            } else {
                let t = cg.alloc_fp()?;
                cg.asm.emit(Inst::MovapdXX(t, a.reg));
                PackedVal {
                    reg: t,
                    owned: true,
                }
            };
            let b = gen_packed(cg, rhs, ivar, hoisted)?;
            emit_packed_op(cg, *op, a.reg, b.reg);
            b.release(cg);
            Ok(a)
        }
        _ => unreachable!("packable checked"),
    }
}

fn emit_packed_op(cg: &mut Codegen, op: BinOp, a: XReg, b: XReg) {
    match op {
        BinOp::Add => cg.asm.emit(Inst::Addpd(a, b)),
        BinOp::Sub => cg.asm.emit(Inst::Subpd(a, b)),
        BinOp::Mul => cg.asm.emit(Inst::Mulpd(a, b)),
        BinOp::Div => cg.asm.emit(Inst::Divpd(a, b)),
        other => unreachable!("packed op {other:?}"),
    }
}

fn assign_bin(op: AssignOp) -> BinOp {
    match op {
        AssignOp::Add => BinOp::Add,
        AssignOp::Sub => BinOp::Sub,
        AssignOp::Mul => BinOp::Mul,
        AssignOp::Div => BinOp::Div,
        AssignOp::Set => unreachable!(),
    }
}

/// A double-typed expression that can be evaluated lane-parallel: literals,
/// loop-invariant scalar doubles, `arr[ivar]` loads, and `+ - * /` over
/// those.
fn packable(e: &Expr, ivar: &str) -> bool {
    match &e.kind {
        ExprKind::FloatLit(_) => true,
        ExprKind::Var(name) => e.ty == Type::Double && name != ivar,
        ExprKind::Index { base, index } => {
            matches!(&base.kind, ExprKind::Var(_)) && is_ivar(index, ivar) && e.ty == Type::Double
        }
        ExprKind::Binary { op, lhs, rhs } => {
            matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
                && e.ty == Type::Double
                && packable(lhs, ivar)
                && packable(rhs, ivar)
        }
        _ => false,
    }
}

fn is_ivar(e: &Expr, ivar: &str) -> bool {
    matches!(&e.kind, ExprKind::Var(n) if n == ivar)
}

/// Loop-invariant integer expression: literals and variables other than the
/// induction variable, combined with pure arithmetic.
fn is_invariant_int(e: &Expr, ivar: &str) -> bool {
    match &e.kind {
        ExprKind::IntLit(_) => true,
        ExprKind::Var(n) => n != ivar,
        ExprKind::Binary { op, lhs, rhs } => {
            !op.is_logical() && is_invariant_int(lhs, ivar) && is_invariant_int(rhs, ivar)
        }
        ExprKind::Unary { operand, .. } => is_invariant_int(operand, ivar),
        _ => false,
    }
}

fn is_unit_step(step: &Option<Expr>, ivar: &str) -> bool {
    let Some(step) = step else { return false };
    match &step.kind {
        ExprKind::IncDec {
            increment: true,
            target,
            ..
        } => is_ivar(target, ivar),
        ExprKind::Assign {
            op: AssignOp::Add,
            target,
            value,
        } => is_ivar(target, ivar) && matches!(value.kind, ExprKind::IntLit(1)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile_source, Options};
    use mira_vobj::disasm::disassemble;

    const TRIAD: &str = r#"
void triad(int n, double* a, double* b, double* c, double s) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + s * c[i];
    }
}
"#;

    #[test]
    fn triad_vectorizes() {
        let obj = compile_source(TRIAD, &Options::vectorized()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let ms: Vec<&str> = ast
            .function("triad")
            .unwrap()
            .instructions
            .iter()
            .map(|i| i.inst.mnemonic())
            .collect();
        assert!(ms.contains(&"movupd"), "{ms:?}");
        assert!(ms.contains(&"addpd"), "{ms:?}");
        assert!(ms.contains(&"mulpd"), "{ms:?}");
        // remainder still has scalar ops
        assert!(ms.contains(&"addsd"), "{ms:?}");
        // two loop records: packed main + scalar remainder
        let loops = obj.loops_of(obj.find_func("triad").unwrap());
        assert_eq!(loops.len(), 2);
        let main = loops.iter().find(|m| m.vector_factor == 2).unwrap();
        let rem = loops.iter().find(|m| m.is_remainder).unwrap();
        assert!(!main.is_remainder);
        assert_eq!(rem.vector_factor, 1);
    }

    #[test]
    fn packed_body_has_no_invariant_rematerialization() {
        // `s` (scalar double) and the three array bases are invariant:
        // after hoisting, the packed main-loop body must hold no
        // broadcast sequence (movq/unpcklpd) and no re-broadcast of s —
        // those belong to the init range, executed once
        let obj = compile_source(TRIAD, &Options::vectorized()).unwrap();
        let f = obj.find_func("triad").unwrap();
        let main = obj
            .loops_of(f)
            .into_iter()
            .find(|m| m.vector_factor == 2)
            .unwrap();
        let ast = disassemble(&obj).unwrap();
        let insts = &ast.function("triad").unwrap().instructions;
        let body: Vec<&str> = insts
            .iter()
            .filter(|i| (main.body.0..main.body.1).contains(&i.addr))
            .map(|i| i.inst.mnemonic())
            .collect();
        assert!(
            !body.contains(&"unpcklpd"),
            "broadcast left in body: {body:?}"
        );
        assert!(
            !body.contains(&"movq"),
            "literal remat left in body: {body:?}"
        );
        let init: Vec<&str> = insts
            .iter()
            .filter(|i| (main.init.0..main.init.1).contains(&i.addr))
            .map(|i| i.inst.mnemonic())
            .collect();
        assert!(
            init.contains(&"unpcklpd"),
            "hoisted broadcast missing from init: {init:?}"
        );
    }

    #[test]
    fn hoisted_literal_survives_compound_ops() {
        // a[i] *= 2.5 reads the broadcast literal through a copy — the
        // held register must not be clobbered across iterations, so the
        // results must match the scalar build exactly
        let src = r#"
void scale3(int n, double* a) {
    for (int i = 0; i < n; i++) { a[i] = 3.0 * (a[i] * 2.5) * 2.5; }
}
"#;
        let run = |opts: &Options| {
            let obj = compile_source(src, opts).unwrap();
            let mut vm = mira_vm::Vm::load(&obj, mira_vm::VmOptions::default()).unwrap();
            let n = 7i64;
            let a = vm.alloc_f64(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
            vm.call(
                "scale3",
                &[mira_vm::HostVal::Int(n), mira_vm::HostVal::Int(a as i64)],
            )
            .unwrap();
            vm.read_f64(a, n as usize)
        };
        assert_eq!(run(&Options::vectorized()), run(&Options::default()));
    }

    #[test]
    fn scalar_mode_does_not_vectorize() {
        let obj = compile_source(TRIAD, &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let ms: Vec<&str> = ast
            .function("triad")
            .unwrap()
            .instructions
            .iter()
            .map(|i| i.inst.mnemonic())
            .collect();
        assert!(!ms.contains(&"movupd"), "{ms:?}");
        assert!(!ms.contains(&"addpd"), "{ms:?}");
    }

    #[test]
    fn reduction_not_vectorized() {
        // s += x[i]*y[i] writes a scalar → falls back to scalar codegen
        let src = r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += x[i] * y[i]; }
    return s;
}
"#;
        let obj = compile_source(src, &Options::vectorized()).unwrap();
        let loops = obj.loops_of(obj.find_func("dot").unwrap());
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].vector_factor, 1);
    }

    #[test]
    fn non_unit_index_not_vectorized() {
        let src = r#"
void f(int n, double* a, double* b) {
    for (int i = 0; i < n; i++) { a[i] = b[i + 1]; }
}
"#;
        let obj = compile_source(src, &Options::vectorized()).unwrap();
        let loops = obj.loops_of(obj.find_func("f").unwrap());
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].vector_factor, 1);
    }

    #[test]
    fn multi_statement_body_vectorizes() {
        let src = r#"
void f(int n, double* a, double* b, double* c) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] * 2.0;
        c[i] = a[i] + b[i];
    }
}
"#;
        let obj = compile_source(src, &Options::vectorized()).unwrap();
        let loops = obj.loops_of(obj.find_func("f").unwrap());
        assert_eq!(loops.len(), 2);
    }
}
