//! Tree-walking code generator: typed MiniC AST → VX86.
//!
//! ## Calling convention
//!
//! Integer/pointer arguments arrive in `r0`–`r5`, FP arguments in
//! `x0`–`x7`, further integer arguments on the stack at `[rbp + 16 + 8k]`;
//! results return in `r0`/`x0`. Scratch registers are split per the
//! [`regalloc`] module's convention: `r10`/`r12`/`r13` and
//! `x8`–`x11` are caller-saved expression temporaries (live ones are
//! spilled to frame slots around calls), while `r6`–`r9` and `x12`–`x15`
//! are callee-saved variable homes (any function that writes one saves it
//! in the prologue and restores it in the epilogue).
//!
//! ## Value binding
//!
//! Every declaration is bound either to a frame slot or — when register
//! allocation promotes it — to a callee-saved home register. Expression
//! codegen works on [`Value`]s: owned temporaries from the scratch pools,
//! or *borrowed* home registers ([`Value::IHome`]/[`Value::FHome`]) that
//! are read in place and copied to a temporary only when an operation
//! would mutate them. Compound assignments and `++`/`--` on
//! register-resident variables update the home register directly, which
//! is where the large retired-instruction reductions come from (a
//! spill-mode `load; add; store` becomes a single `add`).
//!
//! With `Options::regalloc` disabled every binding is a frame slot and
//! user functions compile byte-for-byte to the seed spill-everything
//! output (only the hand-written libm `fabs` body differs from the
//! seed: its scratch register moved off the callee-saved set).
//!
//! Loops emit `.loopmeta` records with exact init/cond/step/body address
//! ranges in both modes, so the static analyzer tracks either codegen
//! automatically.

use crate::emitter::{assemble_object, FuncAsm, Label, LoopLabels};
use crate::regalloc::{
    self, Allocation, Home, CALLEE_SAVED_FP, CALLEE_SAVED_INT, SCRATCH_FP, SCRATCH_INT,
};
use crate::{fold, libm, vect, CompileError, Options};
use mira_isa::{Cc, Inst, Mem, Reg, XReg, RARG, RBP, RSP, XARG};
use mira_minic::{AssignOp, BinOp, Expr, ExprKind, Func, Program, Stmt, StmtKind, Type, UnOp};
use std::collections::HashMap;

/// Which temporary pool ran dry, recorded on the [`Codegen`] when
/// allocation fails so the retry driver in [`compile_function`] can
/// demote homes of the right class — a structured signal, independent
/// of error-message wording.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pool {
    Int,
    Fp,
}

/// A value produced by expression codegen: an owned scratch temporary
/// (freed by its consumer) or a borrowed variable home register (never
/// freed, never mutated in place — codegen copies a borrowed home to an
/// owned temporary before any operation that would write it).
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Value {
    I(Reg),
    F(XReg),
    /// Borrowed integer home of a register-allocated variable.
    IHome(Reg),
    /// Borrowed FP home of a register-allocated variable.
    FHome(XReg),
    None,
}

impl Value {
    fn is_int(&self) -> bool {
        matches!(self, Value::I(_) | Value::IHome(_))
    }

    fn is_fp(&self) -> bool {
        matches!(self, Value::F(_) | Value::FHome(_))
    }
}

/// Where a declared variable lives.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Loc {
    /// Frame slot at `[rbp + offset]` (offset negative).
    Slot(i32),
    /// Callee-saved integer home register.
    IntReg(Reg),
    /// Callee-saved FP home register.
    FpReg(XReg),
}

#[derive(Clone, Debug)]
struct VarBinding {
    loc: Loc,
    ty: Type,
    /// Local arrays: the slot *is* the storage; the value is its address.
    is_array: bool,
}

/// Compile a checked program to an object.
pub fn compile_program(
    program: &Program,
    options: &Options,
) -> Result<mira_vobj::Object, CompileError> {
    let _sp = mira_probe::span("vcc.compile_program", "vcc");
    let mut program = program.clone();
    {
        let _sp = mira_probe::span("vcc.fold", "vcc");
        fold::fold_program(&mut program);
    }

    // Symbol layout: user functions, then libm bodies, then leftover externs.
    let mut func_names: Vec<String> = program.functions().map(|f| f.name.clone()).collect();
    let mut libm_names: Vec<&str> = Vec::new();
    for name in libm::LIBM_FUNCS {
        if !func_names.iter().any(|n| n == name) {
            libm_names.push(name);
            func_names.push(name.to_string());
        }
    }
    let externs: Vec<String> = program
        .externs()
        .filter(|e| !func_names.contains(&e.name))
        .map(|e| e.name.clone())
        .collect();

    let mut sym_ids: HashMap<String, u32> = HashMap::new();
    for (i, n) in func_names.iter().enumerate() {
        sym_ids.insert(n.clone(), i as u32);
    }
    for (i, n) in externs.iter().enumerate() {
        sym_ids.insert(n.clone(), (func_names.len() + i) as u32);
    }

    let mut funcs = Vec::new();
    for f in program.functions() {
        funcs.push(compile_function(f, options, &sym_ids).map_err(|e| e.with_func(&f.name))?);
    }
    for name in libm_names {
        funcs.push(libm::build(name).expect("libm body"));
    }
    assemble_object(funcs, externs)
}

/// Compile one function, retrying with fewer register homes when the
/// shrunken temporary pools cannot cover the expression pressure. The
/// first successful pass discovers which callee-saved registers the body
/// writes; a second identical pass emits their prologue saves and
/// epilogue restores.
fn compile_function(
    f: &Func,
    options: &Options,
    sym_ids: &HashMap<String, u32>,
) -> Result<FuncAsm, CompileError> {
    let mut sp = mira_probe::span("vcc.compile_function", "vcc");
    sp.arg("func", &f.name);
    let (mut cap_int, mut cap_fp) = if options.regalloc {
        (CALLEE_SAVED_INT.len(), CALLEE_SAVED_FP.len())
    } else {
        (0, 0)
    };
    loop {
        let _a = mira_probe::accum("vcc.regalloc");
        let alloc = regalloc::allocate(f, cap_int, cap_fp);
        drop(_a);
        let mut cg = Codegen::new(f, options, &alloc, Vec::new(), sym_ids);
        match cg.gen_function(f) {
            Ok(()) => {
                let saves = cg.written_callee_saved();
                if saves.is_empty() {
                    return Ok(cg.asm);
                }
                let mut cg = Codegen::new(f, options, &alloc, saves, sym_ids);
                cg.gen_function(f)?;
                return Ok(cg.asm);
            }
            // expression too complex for the reduced pool: demote the
            // weakest variables back to frame slots and retry
            Err(_) if cg.exhausted == Some(Pool::Int) && cap_int > 0 => {
                mira_probe::add("vcc.regalloc_retries", 1);
                cap_int -= 1;
            }
            Err(_) if cg.exhausted == Some(Pool::Fp) && cap_fp > 0 => {
                mira_probe::add("vcc.regalloc_retries", 1);
                cap_fp -= 1;
            }
            Err(e) => return Err(e),
        }
    }
}

pub struct Codegen<'a> {
    pub asm: FuncAsm,
    pub options: &'a Options,
    sym_ids: &'a HashMap<String, u32>,
    alloc: &'a Allocation,
    /// Declarations seen so far — the index into the allocation.
    decl_idx: usize,
    /// Callee-saved registers to save in the prologue (pass 2 only).
    saves: Vec<Home>,
    save_slots: Vec<(i32, Home)>,
    scopes: Vec<HashMap<String, VarBinding>>,
    /// Next free byte below rbp.
    frame_top: i32,
    int_free: Vec<Reg>,
    fp_free: Vec<XReg>,
    int_used: Vec<Reg>,
    fp_used: Vec<XReg>,
    /// Every scratch register handed out at least once (used to decide
    /// which callee-saved registers need prologue saves).
    touched_int: Vec<Reg>,
    touched_fp: Vec<XReg>,
    /// Set when a temporary pool ran dry; the retry driver reads it to
    /// demote homes of the exhausted class.
    exhausted: Option<Pool>,
    exit_label: Label,
}

impl<'a> Codegen<'a> {
    fn new(
        f: &Func,
        options: &'a Options,
        alloc: &'a Allocation,
        saves: Vec<Home>,
        sym_ids: &'a HashMap<String, u32>,
    ) -> Codegen<'a> {
        let mut asm = FuncAsm::new(&f.name);
        asm.cur_line = f.span.line;
        let exit_label = asm.new_label();
        // Temporary pools, in pop-from-the-end order. Spill mode keeps the
        // seed layout (callee-saved regs double as plain scratch, high
        // registers first). Regalloc mode reserves assigned homes and
        // places leftover callee-saved registers at the bottom of the pool
        // so they are only touched — and hence saved — under pressure.
        let (int_free, fp_free) = if options.regalloc {
            let int_homes = alloc.int_homes();
            let fp_homes = alloc.fp_homes();
            let mut ints: Vec<Reg> = CALLEE_SAVED_INT
                .iter()
                .filter(|r| !int_homes.contains(r))
                .copied()
                .collect();
            ints.extend(SCRATCH_INT);
            let mut fps: Vec<XReg> = CALLEE_SAVED_FP
                .iter()
                .filter(|x| !fp_homes.contains(x))
                .copied()
                .collect();
            fps.extend(SCRATCH_FP);
            (ints, fps)
        } else {
            let mut ints = CALLEE_SAVED_INT.to_vec();
            ints.extend(SCRATCH_INT);
            let mut fps = SCRATCH_FP.to_vec();
            fps.extend(CALLEE_SAVED_FP);
            (ints, fps)
        };
        Codegen {
            asm,
            options,
            sym_ids,
            alloc,
            decl_idx: 0,
            saves,
            save_slots: Vec::new(),
            scopes: Vec::new(),
            frame_top: 0,
            int_free,
            fp_free,
            int_used: Vec::new(),
            fp_used: Vec::new(),
            touched_int: Vec::new(),
            touched_fp: Vec::new(),
            exhausted: None,
            exit_label,
        }
    }

    /// The callee-saved registers this compilation wrote: every assigned
    /// home plus any callee-saved register the temporary pool handed out.
    /// Empty in spill mode, where nothing is callee-saved by convention.
    fn written_callee_saved(&self) -> Vec<Home> {
        if !self.options.regalloc {
            return Vec::new();
        }
        let int_homes = self.alloc.int_homes();
        let fp_homes = self.alloc.fp_homes();
        let mut out = Vec::new();
        for r in CALLEE_SAVED_INT {
            if int_homes.contains(&r) || self.touched_int.contains(&r) {
                out.push(Home::Int(r));
            }
        }
        for x in CALLEE_SAVED_FP {
            if fp_homes.contains(&x) || self.touched_fp.contains(&x) {
                out.push(Home::Fp(x));
            }
        }
        out
    }

    // ---- register pool ----

    pub(crate) fn alloc_int(&mut self) -> Result<Reg, CompileError> {
        let Some(r) = self.int_free.pop() else {
            self.exhausted = Some(Pool::Int);
            return Err(CompileError::msg(format!(
                "{}: expression too complex (out of integer registers)",
                self.asm.name
            )));
        };
        self.int_used.push(r);
        if !self.touched_int.contains(&r) {
            self.touched_int.push(r);
        }
        Ok(r)
    }

    pub(crate) fn alloc_fp(&mut self) -> Result<XReg, CompileError> {
        let Some(r) = self.fp_free.pop() else {
            self.exhausted = Some(Pool::Fp);
            return Err(CompileError::msg(format!(
                "{}: expression too complex (out of FP registers)",
                self.asm.name
            )));
        };
        self.fp_used.push(r);
        if !self.touched_fp.contains(&r) {
            self.touched_fp.push(r);
        }
        Ok(r)
    }

    /// Release an owned temporary. Borrowed home registers are not pool
    /// values, so freeing them is a no-op.
    pub(crate) fn free(&mut self, v: Value) {
        match v {
            Value::I(r) => {
                self.int_used.retain(|x| *x != r);
                self.int_free.push(r);
            }
            Value::F(r) => {
                self.fp_used.retain(|x| *x != r);
                self.fp_free.push(r);
            }
            Value::IHome(_) | Value::FHome(_) | Value::None => {}
        }
    }

    /// The integer register holding `v` (owned or borrowed).
    pub(crate) fn value_ireg(&self, v: Value) -> Reg {
        match v {
            Value::I(r) | Value::IHome(r) => r,
            other => panic!("expected integer value, got {other:?}"),
        }
    }

    /// The XMM register holding `v` (owned or borrowed).
    pub(crate) fn value_xreg(&self, v: Value) -> XReg {
        match v {
            Value::F(x) | Value::FHome(x) => x,
            other => panic!("expected FP value, got {other:?}"),
        }
    }

    /// Ensure `v` is an owned temporary: borrowed home registers are
    /// copied, so the result may be mutated (or survive a later write to
    /// the variable) without touching the variable's home.
    pub(crate) fn pin_value(&mut self, v: Value) -> Result<Value, CompileError> {
        match v {
            Value::IHome(h) => {
                let t = self.alloc_int()?;
                self.asm.emit(Inst::MovRR(t, h));
                Ok(Value::I(t))
            }
            Value::FHome(h) => {
                let t = self.alloc_fp()?;
                self.asm.emit(Inst::MovsdXX(t, h));
                Ok(Value::F(t))
            }
            owned => Ok(owned),
        }
    }

    // ---- frame ----

    /// Reserve `bytes` more of the frame; the new slot's rbp offset. The
    /// frame, rounded to 16 bytes, must fit the `i32` displacements that
    /// address it.
    fn new_slot_bytes(&mut self, bytes: i64) -> Result<i32, CompileError> {
        let top = i64::from(self.frame_top)
            .checked_sub(bytes)
            .filter(|&top| top >= i64::from(i32::MIN) + 16)
            .ok_or_else(|| CompileError::msg("stack frame exceeds 2 GiB"))?;
        self.frame_top = top as i32;
        Ok(self.frame_top)
    }

    fn declare_var(
        &mut self,
        name: &str,
        ty: Type,
        array_len: Option<i64>,
    ) -> Result<VarBinding, CompileError> {
        let decl = self.decl_idx;
        self.decl_idx += 1;
        let binding = if let Some(n) = array_len {
            let offset = self.new_slot_bytes(n.saturating_mul(8))?;
            VarBinding {
                loc: Loc::Slot(offset),
                ty: Type::ptr_to(ty),
                is_array: true,
            }
        } else {
            let loc = match self.alloc.home(decl) {
                Some(Home::Int(r)) => {
                    debug_assert!(ty != Type::Double, "int home for double {name}");
                    Loc::IntReg(r)
                }
                Some(Home::Fp(x)) => {
                    debug_assert!(ty == Type::Double, "fp home for non-double {name}");
                    Loc::FpReg(x)
                }
                None => Loc::Slot(self.new_slot_bytes(8)?),
            };
            VarBinding {
                loc,
                ty,
                is_array: false,
            }
        };
        self.scopes
            .last_mut()
            .expect("no scope")
            .insert(name.to_string(), binding.clone());
        Ok(binding)
    }

    fn lookup(&self, name: &str) -> &VarBinding {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .unwrap_or_else(|| panic!("sema let through undeclared variable {name}"))
    }

    // ---- function ----

    fn gen_function(&mut self, f: &Func) -> Result<(), CompileError> {
        self.asm.cur_line = f.span.line;
        self.asm.emit(Inst::Push(RBP));
        self.asm.emit(Inst::MovRR(RBP, RSP));
        self.asm.emit_frame_placeholder();

        // save the callee-saved registers this function writes
        for h in self.saves.clone() {
            let off = self.new_slot_bytes(8)?;
            match h {
                Home::Int(r) => self.asm.emit(Inst::Store(Mem::base_disp(RBP, off), r)),
                Home::Fp(x) => self.asm.emit(Inst::MovsdStore(Mem::base_disp(RBP, off), x)),
            }
            self.save_slots.push((off, h));
        }

        // bind parameters: register-allocated ones move straight into
        // their homes, the rest spill to frame slots; integer parameters
        // beyond the six registers arrive on the stack at [rbp + 16 + 8k]
        self.scopes.push(HashMap::new());
        let mut int_idx = 0;
        let mut fp_idx = 0;
        let mut stack_idx = 0;
        for p in &f.params {
            let binding = self.declare_var(&p.name, p.ty.clone(), None)?;
            match p.ty {
                Type::Double => {
                    if fp_idx >= XARG.len() {
                        return Err(CompileError::msg(format!(
                            "{}: too many FP parameters",
                            f.name
                        )));
                    }
                    let src = XARG[fp_idx];
                    fp_idx += 1;
                    match binding.loc {
                        Loc::FpReg(h) => self.asm.emit(Inst::MovsdXX(h, src)),
                        Loc::Slot(off) => self
                            .asm
                            .emit(Inst::MovsdStore(Mem::base_disp(RBP, off), src)),
                        Loc::IntReg(_) => unreachable!("int home for FP parameter"),
                    }
                }
                _ => {
                    if int_idx < RARG.len() {
                        let src = RARG[int_idx];
                        int_idx += 1;
                        match binding.loc {
                            Loc::IntReg(h) => self.asm.emit(Inst::MovRR(h, src)),
                            Loc::Slot(off) => {
                                self.asm.emit(Inst::Store(Mem::base_disp(RBP, off), src))
                            }
                            Loc::FpReg(_) => unreachable!("fp home for int parameter"),
                        }
                    } else {
                        let caller = Mem::base_disp(RBP, 16 + 8 * stack_idx);
                        stack_idx += 1;
                        match binding.loc {
                            Loc::IntReg(h) => self.asm.emit(Inst::Load(h, caller)),
                            Loc::Slot(off) => {
                                let tmp = self.alloc_int()?;
                                self.asm.emit(Inst::Load(tmp, caller));
                                self.asm.emit(Inst::Store(Mem::base_disp(RBP, off), tmp));
                                self.free(Value::I(tmp));
                            }
                            Loc::FpReg(_) => unreachable!("fp home for int parameter"),
                        }
                    }
                }
            }
        }

        for s in &f.body.stmts {
            self.gen_stmt(s)?;
        }

        let exit = self.exit_label;
        self.asm.bind(exit);
        self.asm.cur_line = f.span.line;
        // restore callee-saved registers
        for (off, h) in self.save_slots.clone().iter().rev() {
            match h {
                Home::Int(r) => self.asm.emit(Inst::Load(*r, Mem::base_disp(RBP, *off))),
                Home::Fp(x) => self
                    .asm
                    .emit(Inst::MovsdLoad(*x, Mem::base_disp(RBP, *off))),
            }
        }
        self.asm.emit(Inst::MovRR(RSP, RBP));
        self.asm.emit(Inst::Pop(RBP));
        self.asm.emit(Inst::Ret);
        self.scopes.pop();

        // round the frame to 16 bytes
        let frame = (-self.frame_top as i64 + 15) & !15;
        self.asm.patch_frame_size(frame);
        debug_assert!(
            self.int_used.is_empty(),
            "leaked int regs: {:?}",
            self.int_used
        );
        debug_assert!(
            self.fp_used.is_empty(),
            "leaked fp regs: {:?}",
            self.fp_used
        );
        Ok(())
    }

    // ---- statements ----

    pub(crate) fn gen_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        // attach the nearest enclosing statement's span to any
        // code-generation refusal bubbling out of this subtree
        self.gen_stmt_inner(s).map_err(|e| e.with_span(s.span))
    }

    fn gen_stmt_inner(&mut self, s: &Stmt) -> Result<(), CompileError> {
        self.asm.cur_line = s.span.line;
        match &s.kind {
            StmtKind::Decl {
                name,
                ty,
                array_len,
                init,
            } => {
                let binding = self.declare_var(name, ty.clone(), *array_len)?;
                if let Some(e) = init {
                    let v = self.gen_expr(e)?;
                    self.store_to_binding(&binding, v);
                    self.free(v);
                }
            }
            StmtKind::Expr(e) => {
                let v = self.gen_expr(e)?;
                self.free(v);
            }
            StmtKind::Return(value) => {
                if let Some(e) = value {
                    let v = self.gen_expr(e)?;
                    match v {
                        _ if v.is_int() => {
                            let r = self.value_ireg(v);
                            self.asm.emit(Inst::MovRR(Reg(0), r));
                        }
                        _ if v.is_fp() => {
                            let x = self.value_xreg(v);
                            self.asm.emit(Inst::MovsdXX(XReg(0), x));
                        }
                        _ => {}
                    }
                    self.free(v);
                }
                let exit = self.exit_label;
                self.asm.jmp(exit);
            }
            StmtKind::Block(b) => {
                self.scopes.push(HashMap::new());
                for s in &b.stmts {
                    self.gen_stmt(s)?;
                }
                self.scopes.pop();
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let l_else = self.asm.new_label();
                self.gen_branch(cond, l_else, false)?;
                self.gen_stmt(then_branch)?;
                if let Some(els) = else_branch {
                    let l_end = self.asm.new_label();
                    self.asm.cur_line = s.span.line;
                    self.asm.jmp(l_end);
                    self.asm.bind(l_else);
                    self.gen_stmt(els)?;
                    self.asm.bind(l_end);
                } else {
                    self.asm.bind(l_else);
                }
            }
            StmtKind::While { cond, body } => {
                let header_line = s.span.line;
                let l_top = self.asm.new_label();
                let l_end = self.asm.new_label();
                let init_start = self.asm.here();
                self.asm.bind(l_top);
                let cond_start = self.asm.here();
                self.asm.cur_line = header_line;
                self.gen_branch(cond, l_end, false)?;
                let body_start = self.asm.here();
                self.gen_stmt(body)?;
                let step_start = self.asm.here();
                self.asm.cur_line = header_line;
                self.asm.jmp(l_top);
                self.asm.bind(l_end);
                let end = self.asm.here();
                self.asm.loop_labels.push(LoopLabels {
                    header_line,
                    init_start,
                    init_end: cond_start,
                    cond_start,
                    cond_end: body_start,
                    step_start,
                    step_end: end,
                    body_start,
                    body_end: step_start,
                    vector_factor: 1,
                    is_remainder: false,
                });
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if self.options.vectorize {
                    if let Some(()) = vect::try_vectorize(self, s)? {
                        return Ok(());
                    }
                }
                self.gen_scalar_for(s, init, cond, step, body)?;
            }
            StmtKind::Empty => {}
        }
        Ok(())
    }

    pub(crate) fn gen_scalar_for(
        &mut self,
        s: &Stmt,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
    ) -> Result<(), CompileError> {
        let header_line = s.span.line;
        self.scopes.push(HashMap::new()); // induction-variable scope
        let l_cond = self.asm.new_label();
        let l_end = self.asm.new_label();
        let init_start = self.asm.here();
        if let Some(i) = init {
            self.gen_stmt(i)?;
        }
        self.asm.bind(l_cond);
        let cond_start = self.asm.here();
        self.asm.cur_line = header_line;
        if let Some(c) = cond {
            self.gen_branch(c, l_end, false)?;
        }
        let body_start = self.asm.here();
        self.gen_stmt(body)?;
        let step_start = self.asm.here();
        self.asm.cur_line = header_line;
        if let Some(st) = step {
            let v = self.gen_expr(st)?;
            self.free(v);
        }
        self.asm.jmp(l_cond);
        self.asm.bind(l_end);
        let end = self.asm.here();
        self.asm.loop_labels.push(LoopLabels {
            header_line,
            init_start,
            init_end: cond_start,
            cond_start,
            cond_end: body_start,
            step_start,
            step_end: end,
            body_start,
            body_end: step_start,
            vector_factor: 1,
            is_remainder: false,
        });
        self.scopes.pop();
        Ok(())
    }

    /// Write `v` to a variable binding: a store for frame slots, a
    /// register move for homes.
    fn store_to_binding(&mut self, binding: &VarBinding, v: Value) {
        match binding.loc {
            Loc::Slot(off) => {
                let mem = Mem::base_disp(RBP, off);
                match v {
                    _ if v.is_int() => {
                        let r = self.value_ireg(v);
                        self.asm.emit(Inst::Store(mem, r));
                    }
                    _ if v.is_fp() => {
                        let x = self.value_xreg(v);
                        self.asm.emit(Inst::MovsdStore(mem, x));
                    }
                    _ => {}
                }
            }
            Loc::IntReg(h) => {
                let r = self.value_ireg(v);
                self.asm.emit(Inst::MovRR(h, r));
            }
            Loc::FpReg(h) => {
                let x = self.value_xreg(v);
                self.asm.emit(Inst::MovsdXX(h, x));
            }
        }
    }

    // ---- branches ----

    /// Emit a jump to `target` taken iff `cond` is true (when
    /// `jump_if_true`) or false (otherwise). Uses fused compare-and-branch
    /// and short-circuit evaluation.
    pub(crate) fn gen_branch(
        &mut self,
        cond: &Expr,
        target: Label,
        jump_if_true: bool,
    ) -> Result<(), CompileError> {
        match &cond.kind {
            ExprKind::Binary { op, lhs, rhs } if op.is_comparison() => {
                let fp = lhs.ty == Type::Double;
                let mut l = self.gen_expr(lhs)?;
                if regalloc::has_side_effects(rhs) {
                    l = self.pin_value(l)?;
                }
                let r = self.gen_expr(rhs)?;
                let cc = comparison_cc(*op, fp);
                if fp {
                    let (a, b) = (self.value_xreg(l), self.value_xreg(r));
                    self.asm.emit(Inst::Ucomisd(a, b));
                } else {
                    let (a, b) = (self.value_ireg(l), self.value_ireg(r));
                    self.asm.emit(Inst::CmpRR(a, b));
                }
                self.free(l);
                self.free(r);
                let cc = if jump_if_true { cc } else { cc.negate() };
                self.asm.jcc(cc, target);
            }
            ExprKind::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => {
                if jump_if_true {
                    let skip = self.asm.new_label();
                    self.gen_branch(lhs, skip, false)?;
                    self.gen_branch(rhs, target, true)?;
                    self.asm.bind(skip);
                } else {
                    self.gen_branch(lhs, target, false)?;
                    self.gen_branch(rhs, target, false)?;
                }
            }
            ExprKind::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } => {
                if jump_if_true {
                    self.gen_branch(lhs, target, true)?;
                    self.gen_branch(rhs, target, true)?;
                } else {
                    let skip = self.asm.new_label();
                    self.gen_branch(lhs, skip, true)?;
                    self.gen_branch(rhs, target, false)?;
                    self.asm.bind(skip);
                }
            }
            ExprKind::Unary {
                op: UnOp::Not,
                operand,
            } => {
                self.gen_branch(operand, target, !jump_if_true)?;
            }
            ExprKind::IntLit(v) => {
                let truth = *v != 0;
                if truth == jump_if_true {
                    self.asm.jmp(target);
                }
            }
            _ => {
                let v = self.gen_expr(cond)?;
                match v {
                    _ if v.is_int() => {
                        let r = self.value_ireg(v);
                        self.asm.emit(Inst::TestRR(r, r));
                        self.free(v);
                        self.asm
                            .jcc(if jump_if_true { Cc::Ne } else { Cc::E }, target);
                    }
                    _ if v.is_fp() => {
                        // compare against zero
                        let x = self.value_xreg(v);
                        let z = self.alloc_fp()?;
                        self.asm.emit(Inst::Xorpd(z, z));
                        self.asm.emit(Inst::Ucomisd(x, z));
                        self.free(Value::F(z));
                        self.free(v);
                        self.asm
                            .jcc(if jump_if_true { Cc::Ne } else { Cc::E }, target);
                    }
                    _ => {
                        return Err(CompileError::msg(
                            "void value used as condition".to_string(),
                        ))
                    }
                }
            }
        }
        Ok(())
    }

    // ---- expressions ----

    pub(crate) fn gen_expr(&mut self, e: &Expr) -> Result<Value, CompileError> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let r = self.alloc_int()?;
                self.asm.emit(Inst::MovRI(r, *v));
                Ok(Value::I(r))
            }
            ExprKind::FloatLit(v) => {
                let rt = self.alloc_int()?;
                self.asm.emit(Inst::MovRI(rt, v.to_bits() as i64));
                let x = self.alloc_fp()?;
                self.asm.emit(Inst::MovqXR(x, rt));
                self.free(Value::I(rt));
                Ok(Value::F(x))
            }
            ExprKind::Var(name) => {
                let binding = self.lookup(name).clone();
                match binding.loc {
                    Loc::IntReg(h) => Ok(Value::IHome(h)),
                    Loc::FpReg(h) => Ok(Value::FHome(h)),
                    Loc::Slot(off) => {
                        if binding.is_array {
                            let r = self.alloc_int()?;
                            self.asm.emit(Inst::Lea(r, Mem::base_disp(RBP, off)));
                            Ok(Value::I(r))
                        } else if binding.ty == Type::Double {
                            let x = self.alloc_fp()?;
                            self.asm.emit(Inst::MovsdLoad(x, Mem::base_disp(RBP, off)));
                            Ok(Value::F(x))
                        } else {
                            let r = self.alloc_int()?;
                            self.asm.emit(Inst::Load(r, Mem::base_disp(RBP, off)));
                            Ok(Value::I(r))
                        }
                    }
                }
            }
            ExprKind::Index { base, index } => {
                let (mem, hold) = self.gen_address(base, index)?;
                let elem_is_double = e.ty == Type::Double;
                let out = if elem_is_double {
                    let x = self.alloc_fp()?;
                    self.asm.emit(Inst::MovsdLoad(x, mem));
                    Value::F(x)
                } else {
                    let r = self.alloc_int()?;
                    self.asm.emit(Inst::Load(r, mem));
                    Value::I(r)
                };
                for h in hold {
                    self.free(h);
                }
                Ok(out)
            }
            ExprKind::Assign { op, target, value } => self.gen_assign(*op, target, value),
            ExprKind::Binary { op, lhs, rhs } => self.gen_binary(*op, lhs, rhs),
            ExprKind::Unary { op, operand } => {
                let v = self.gen_expr(operand)?;
                match (op, v) {
                    (UnOp::Neg, v) if v.is_int() => {
                        let v = self.pin_value(v)?;
                        self.asm.emit(Inst::Neg(self.value_ireg(v)));
                        Ok(v)
                    }
                    (UnOp::Neg, v) if v.is_fp() => {
                        let x = self.value_xreg(v);
                        let z = self.alloc_fp()?;
                        self.asm.emit(Inst::Xorpd(z, z));
                        self.asm.emit(Inst::Subsd(z, x));
                        self.free(v);
                        Ok(Value::F(z))
                    }
                    (UnOp::Not, v) if v.is_int() => {
                        let v = self.pin_value(v)?;
                        let r = self.value_ireg(v);
                        self.asm.emit(Inst::TestRR(r, r));
                        self.asm.emit(Inst::Setcc(Cc::E, r));
                        Ok(v)
                    }
                    _ => Err(CompileError::msg("bad unary operand".to_string())),
                }
            }
            ExprKind::Cast { ty, operand } | ExprKind::ImplicitCast { ty, operand } => {
                let v = self.gen_expr(operand)?;
                match (v, ty) {
                    (v, Type::Double) if v.is_int() => {
                        let x = self.alloc_fp()?;
                        self.asm.emit(Inst::Cvtsi2sd(x, self.value_ireg(v)));
                        self.free(v);
                        Ok(Value::F(x))
                    }
                    (v, Type::Int) if v.is_fp() => {
                        let r = self.alloc_int()?;
                        self.asm.emit(Inst::Cvttsd2si(r, self.value_xreg(v)));
                        self.free(v);
                        Ok(Value::I(r))
                    }
                    _ => Ok(v), // identity casts
                }
            }
            ExprKind::IncDec {
                prefix,
                increment,
                target,
            } => {
                let delta = if *increment { 1 } else { -1 };
                // sema guarantees an int lvalue
                match &target.kind {
                    ExprKind::Var(name) => {
                        let binding = self.lookup(name).clone();
                        match binding.loc {
                            Loc::IntReg(h) => {
                                if *prefix {
                                    self.asm.emit(Inst::AddRI(h, delta));
                                    Ok(Value::IHome(h))
                                } else {
                                    let old = self.alloc_int()?;
                                    self.asm.emit(Inst::MovRR(old, h));
                                    self.asm.emit(Inst::AddRI(h, delta));
                                    Ok(Value::I(old))
                                }
                            }
                            Loc::Slot(off) => {
                                let mem = Mem::base_disp(RBP, off);
                                let r = self.alloc_int()?;
                                self.asm.emit(Inst::Load(r, mem));
                                if *prefix {
                                    self.asm.emit(Inst::AddRI(r, delta));
                                    self.asm.emit(Inst::Store(mem, r));
                                    Ok(Value::I(r))
                                } else {
                                    let old = self.alloc_int()?;
                                    self.asm.emit(Inst::MovRR(old, r));
                                    self.asm.emit(Inst::AddRI(r, delta));
                                    self.asm.emit(Inst::Store(mem, r));
                                    self.free(Value::I(r));
                                    Ok(Value::I(old))
                                }
                            }
                            Loc::FpReg(_) => Err(CompileError::msg("++/-- on non-int".to_string())),
                        }
                    }
                    ExprKind::Index { base, index } => {
                        let (mem, hold) = self.gen_address(base, index)?;
                        let r = self.alloc_int()?;
                        self.asm.emit(Inst::Load(r, mem));
                        let result = if *prefix {
                            self.asm.emit(Inst::AddRI(r, delta));
                            self.asm.emit(Inst::Store(mem, r));
                            Value::I(r)
                        } else {
                            let old = self.alloc_int()?;
                            self.asm.emit(Inst::MovRR(old, r));
                            self.asm.emit(Inst::AddRI(r, delta));
                            self.asm.emit(Inst::Store(mem, r));
                            self.free(Value::I(r));
                            Value::I(old)
                        };
                        for h in hold {
                            self.free(h);
                        }
                        Ok(result)
                    }
                    _ => Err(CompileError::msg("++/-- on non-lvalue".to_string())),
                }
            }
            ExprKind::Call { name, args } => self.gen_call(name, args, &e.ty),
        }
    }

    /// Compute the effective address of `base[index]` (element size 8).
    /// Returns the memory operand plus the values that must stay live
    /// while it is used.
    pub(crate) fn gen_address(
        &mut self,
        base: &Expr,
        index: &Expr,
    ) -> Result<(Mem, Vec<Value>), CompileError> {
        self.gen_address_pinned(base, index, false)
    }

    /// Like [`gen_address`](Self::gen_address), but with `pin` set the
    /// address components are copied out of borrowed home registers, so
    /// the memory operand stays valid even if code emitted *after* it —
    /// e.g. the right-hand side of an assignment — writes those
    /// variables.
    fn gen_address_pinned(
        &mut self,
        base: &Expr,
        index: &Expr,
        pin: bool,
    ) -> Result<(Mem, Vec<Value>), CompileError> {
        let mut b = self.gen_expr(base)?;
        if pin || regalloc::has_side_effects(index) {
            b = self.pin_value(b)?;
        }
        if !b.is_int() {
            return Err(CompileError::msg("indexing a non-pointer".to_string()));
        }
        let rb = self.value_ireg(b);
        // constant index folds into the displacement (strength reduction)
        // when its byte offset fits one; otherwise it is indexed like any
        // other value
        if let ExprKind::IntLit(k) = index.kind {
            if let Some(disp) = k.checked_mul(8).and_then(|d| i32::try_from(d).ok()) {
                return Ok((Mem::base_disp(rb, disp), vec![b]));
            }
        }
        let mut i = self.gen_expr(index)?;
        if pin {
            i = self.pin_value(i)?;
        }
        if !i.is_int() {
            return Err(CompileError::msg("non-integer index".to_string()));
        }
        let rb = self.value_ireg(b); // b may have been pinned to a new reg
        let ri = self.value_ireg(i);
        Ok((Mem::base_index(rb, ri, 8, 0), vec![b, i]))
    }

    fn gen_assign(
        &mut self,
        op: AssignOp,
        target: &Expr,
        value: &Expr,
    ) -> Result<Value, CompileError> {
        match &target.kind {
            ExprKind::Var(name) => {
                let binding = self.lookup(name).clone();
                let v = self.gen_expr(value)?;
                if op == AssignOp::Set {
                    self.store_to_binding(&binding, v);
                    return Ok(v);
                }
                // compound: combine into the home register directly, or
                // load-combine-store through the frame slot
                match binding.loc {
                    Loc::IntReg(h) => {
                        let rv = self.value_ireg(v);
                        self.emit_int_op(op_to_bin(op), h, rv)?;
                        self.free(v);
                        Ok(Value::IHome(h))
                    }
                    Loc::FpReg(h) => {
                        let xv = self.value_xreg(v);
                        self.emit_fp_op(op_to_bin(op), h, xv);
                        self.free(v);
                        Ok(Value::FHome(h))
                    }
                    Loc::Slot(off) => {
                        let mem = Mem::base_disp(RBP, off);
                        match v {
                            _ if v.is_int() => {
                                let rv = self.value_ireg(v);
                                let cur = self.alloc_int()?;
                                self.asm.emit(Inst::Load(cur, mem));
                                self.emit_int_op(op_to_bin(op), cur, rv)?;
                                self.asm.emit(Inst::Store(mem, cur));
                                self.free(v);
                                Ok(Value::I(cur))
                            }
                            _ if v.is_fp() => {
                                let xv = self.value_xreg(v);
                                let cur = self.alloc_fp()?;
                                self.asm.emit(Inst::MovsdLoad(cur, mem));
                                self.emit_fp_op(op_to_bin(op), cur, xv);
                                self.asm.emit(Inst::MovsdStore(mem, cur));
                                self.free(v);
                                Ok(Value::F(cur))
                            }
                            _ => Err(CompileError::msg("void value assigned".to_string())),
                        }
                    }
                }
            }
            ExprKind::Index { base, index } => {
                let pin = regalloc::has_side_effects(value);
                let (mem, hold) = self.gen_address_pinned(base, index, pin)?;
                let v = self.gen_expr(value)?;
                let result = if op == AssignOp::Set {
                    match v {
                        _ if v.is_int() => {
                            let r = self.value_ireg(v);
                            self.asm.emit(Inst::Store(mem, r));
                        }
                        _ if v.is_fp() => {
                            let x = self.value_xreg(v);
                            self.asm.emit(Inst::MovsdStore(mem, x));
                        }
                        _ => return Err(CompileError::msg("void value assigned".to_string())),
                    }
                    v
                } else {
                    match v {
                        _ if v.is_int() => {
                            let rv = self.value_ireg(v);
                            let cur = self.alloc_int()?;
                            self.asm.emit(Inst::Load(cur, mem));
                            self.emit_int_op(op_to_bin(op), cur, rv)?;
                            self.asm.emit(Inst::Store(mem, cur));
                            self.free(v);
                            Value::I(cur)
                        }
                        _ if v.is_fp() => {
                            let xv = self.value_xreg(v);
                            let cur = self.alloc_fp()?;
                            self.asm.emit(Inst::MovsdLoad(cur, mem));
                            self.emit_fp_op(op_to_bin(op), cur, xv);
                            self.asm.emit(Inst::MovsdStore(mem, cur));
                            self.free(v);
                            Value::F(cur)
                        }
                        _ => return Err(CompileError::msg("void value assigned".to_string())),
                    }
                };
                for h in hold {
                    self.free(h);
                }
                Ok(result)
            }
            _ => Err(CompileError::msg("assignment to non-lvalue".to_string())),
        }
    }

    fn gen_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value, CompileError> {
        if op.is_comparison() {
            let fp = lhs.ty == Type::Double;
            let mut l = self.gen_expr(lhs)?;
            if regalloc::has_side_effects(rhs) {
                l = self.pin_value(l)?;
            }
            let r = self.gen_expr(rhs)?;
            let out = self.alloc_int()?;
            let cc = comparison_cc(op, fp);
            if fp {
                let (a, b) = (self.value_xreg(l), self.value_xreg(r));
                self.asm.emit(Inst::Ucomisd(a, b));
            } else {
                let (a, b) = (self.value_ireg(l), self.value_ireg(r));
                self.asm.emit(Inst::CmpRR(a, b));
            }
            self.asm.emit(Inst::Setcc(cc, out));
            self.free(l);
            self.free(r);
            return Ok(Value::I(out));
        }
        if op.is_logical() {
            // branchless normalize-to-bool then and/or (both operands are
            // normalized in place, so both must be owned temporaries)
            let l = self.gen_expr(lhs)?;
            if !l.is_int() {
                return Err(CompileError::msg("logical op on non-int".to_string()));
            }
            let l = self.pin_value(l)?;
            let a = self.value_ireg(l);
            self.asm.emit(Inst::TestRR(a, a));
            self.asm.emit(Inst::Setcc(Cc::Ne, a));
            let r = self.gen_expr(rhs)?;
            if !r.is_int() {
                return Err(CompileError::msg("logical op on non-int".to_string()));
            }
            let r = self.pin_value(r)?;
            let b = self.value_ireg(r);
            self.asm.emit(Inst::TestRR(b, b));
            self.asm.emit(Inst::Setcc(Cc::Ne, b));
            match op {
                BinOp::And => self.asm.emit(Inst::AndRR(a, b)),
                BinOp::Or => self.asm.emit(Inst::OrRR(a, b)),
                _ => unreachable!(),
            }
            self.free(r);
            return Ok(l);
        }
        let mut l = self.gen_expr(lhs)?;
        if regalloc::has_side_effects(rhs) {
            l = self.pin_value(l)?;
        }
        let r = self.gen_expr(rhs)?;
        // the left operand is the destination: copy it out of a borrowed
        // home before operating
        let l = self.pin_value(l)?;
        match (l, r) {
            (l, r) if l.is_int() && r.is_int() => {
                let (a, b) = (self.value_ireg(l), self.value_ireg(r));
                self.emit_int_op_rr(op, a, b)?;
                self.free(r);
                Ok(l)
            }
            (l, r) if l.is_fp() && r.is_fp() => {
                let (a, b) = (self.value_xreg(l), self.value_xreg(r));
                self.emit_fp_op(op, a, b);
                self.free(r);
                Ok(l)
            }
            _ => unreachable!("sema guarantees operand types match"),
        }
    }

    fn emit_int_op(&mut self, op: BinOp, dst: Reg, src: Reg) -> Result<(), CompileError> {
        self.emit_int_op_rr(op, dst, src)
    }

    fn emit_int_op_rr(&mut self, op: BinOp, a: Reg, b: Reg) -> Result<(), CompileError> {
        match op {
            BinOp::Add => self.asm.emit(Inst::AddRR(a, b)),
            BinOp::Sub => self.asm.emit(Inst::SubRR(a, b)),
            BinOp::Mul => self.asm.emit(Inst::ImulRR(a, b)),
            BinOp::Div | BinOp::Mod => {
                // VX86 idiv convention: r0 = r0 / src, r11 = r0 % src.
                // r11 is in no pool, so divisions cannot clobber live
                // values.
                self.asm.emit(Inst::MovRR(Reg(0), a));
                self.asm.emit(Inst::Cqo);
                self.asm.emit(Inst::Idiv(b));
                let src = if op == BinOp::Div { Reg(0) } else { Reg(11) };
                self.asm.emit(Inst::MovRR(a, src));
            }
            other => return Err(CompileError::msg(format!("unsupported int op {other:?}"))),
        }
        Ok(())
    }

    pub(crate) fn emit_fp_op(&mut self, op: BinOp, a: XReg, b: XReg) {
        match op {
            BinOp::Add => self.asm.emit(Inst::Addsd(a, b)),
            BinOp::Sub => self.asm.emit(Inst::Subsd(a, b)),
            BinOp::Mul => self.asm.emit(Inst::Mulsd(a, b)),
            BinOp::Div => self.asm.emit(Inst::Divsd(a, b)),
            other => unreachable!("fp op {other:?}"),
        }
    }

    fn gen_call(
        &mut self,
        name: &str,
        args: &[Expr],
        ret_ty: &Type,
    ) -> Result<Value, CompileError> {
        let sym = *self
            .sym_ids
            .get(name)
            .ok_or_else(|| CompileError::msg(format!("unresolved call target `{name}`")))?;

        // evaluate arguments into scratch temps; a borrowed home is
        // pinned if a later argument could write the variable
        let mut vals = Vec::with_capacity(args.len());
        for (k, a) in args.iter().enumerate() {
            let mut v = self.gen_expr(a)?;
            if args[k + 1..].iter().any(regalloc::has_side_effects) {
                v = self.pin_value(v)?;
            }
            vals.push(v);
        }

        // save live caller-saved temporaries that are NOT the argument
        // temps (home registers are callee-saved — the callee preserves
        // them)
        let live_ints: Vec<Reg> = self
            .int_used
            .iter()
            .copied()
            .filter(|r| !vals.contains(&Value::I(*r)))
            .collect();
        let live_fps: Vec<XReg> = self
            .fp_used
            .iter()
            .copied()
            .filter(|x| !vals.contains(&Value::F(*x)))
            .collect();
        let mut saves = Vec::new();
        for r in &live_ints {
            let off = self.new_slot_bytes(8)?;
            self.asm.emit(Inst::Store(Mem::base_disp(RBP, off), *r));
            saves.push((off, Value::I(*r)));
        }
        for x in &live_fps {
            let off = self.new_slot_bytes(8)?;
            self.asm
                .emit(Inst::MovsdStore(Mem::base_disp(RBP, off), *x));
            saves.push((off, Value::F(*x)));
        }

        // move argument temps into ABI registers; integer args beyond six
        // go on the stack (pushed in order so that [rbp+16] in the callee
        // is the seventh integer argument)
        let mut int_idx = 0;
        let mut fp_idx = 0;
        let mut stack_args: Vec<Reg> = Vec::new();
        for v in &vals {
            match v {
                v if v.is_int() => {
                    let r = self.value_ireg(*v);
                    if int_idx < RARG.len() {
                        self.asm.emit(Inst::MovRR(RARG[int_idx], r));
                        int_idx += 1;
                    } else {
                        stack_args.push(r);
                    }
                }
                v if v.is_fp() => {
                    if fp_idx >= XARG.len() {
                        return Err(CompileError::msg(format!(
                            "too many FP arguments in call to {name}"
                        )));
                    }
                    let x = self.value_xreg(*v);
                    self.asm.emit(Inst::MovsdXX(XARG[fp_idx], x));
                    fp_idx += 1;
                }
                _ => return Err(CompileError::msg("void argument".to_string())),
            }
        }
        // push in reverse so the first stack arg ends up closest to the
        // return address
        for r in stack_args.iter().rev() {
            self.asm.emit(Inst::Push(*r));
        }
        for v in vals {
            self.free(v);
        }

        self.asm.emit(Inst::Call(sym));
        if !stack_args.is_empty() {
            self.asm.emit(Inst::AddRI(RSP, 8 * stack_args.len() as i64));
        }

        // grab the result before restoring (restores don't touch a fresh reg)
        let result = match ret_ty {
            Type::Void => Value::None,
            Type::Double => {
                let x = self.alloc_fp()?;
                self.asm.emit(Inst::MovsdXX(x, XReg(0)));
                Value::F(x)
            }
            _ => {
                let r = self.alloc_int()?;
                self.asm.emit(Inst::MovRR(r, Reg(0)));
                Value::I(r)
            }
        };

        // restore saved registers
        for (off, v) in saves {
            match v {
                Value::I(r) => self.asm.emit(Inst::Load(r, Mem::base_disp(RBP, off))),
                Value::F(x) => self.asm.emit(Inst::MovsdLoad(x, Mem::base_disp(RBP, off))),
                _ => {}
            }
        }
        Ok(result)
    }
}

impl<'a> Codegen<'a> {
    // ---- helpers used by the vectorizer ----

    pub(crate) fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    pub(crate) fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    /// Allocate an anonymous 8-byte frame slot; returns its rbp offset.
    pub(crate) fn scratch_slot(&mut self) -> Result<i32, CompileError> {
        self.new_slot_bytes(8)
    }

    /// Read an integer/pointer variable: a borrow of its home register,
    /// or a fresh temporary loaded from its frame slot.
    pub(crate) fn load_int_var(&mut self, name: &str) -> Result<Value, CompileError> {
        let binding = self.lookup(name).clone();
        match binding.loc {
            Loc::IntReg(h) => Ok(Value::IHome(h)),
            Loc::Slot(off) => {
                let r = self.alloc_int()?;
                self.asm.emit(Inst::Load(r, Mem::base_disp(RBP, off)));
                Ok(Value::I(r))
            }
            Loc::FpReg(_) => unreachable!("int read of FP variable {name}"),
        }
    }

    /// Add a constant to an integer variable in place.
    pub(crate) fn bump_int_var(&mut self, name: &str, delta: i64) -> Result<(), CompileError> {
        let binding = self.lookup(name).clone();
        match binding.loc {
            Loc::IntReg(h) => {
                self.asm.emit(Inst::AddRI(h, delta));
            }
            Loc::Slot(off) => {
                let mem = Mem::base_disp(RBP, off);
                let r = self.alloc_int()?;
                self.asm.emit(Inst::Load(r, mem));
                self.asm.emit(Inst::AddRI(r, delta));
                self.asm.emit(Inst::Store(mem, r));
                self.free(Value::I(r));
            }
            Loc::FpReg(_) => unreachable!("int bump of FP variable {name}"),
        }
        Ok(())
    }

    /// Load a scalar double variable broadcast across both lanes of a
    /// fresh XMM temporary.
    pub(crate) fn load_fp_var_broadcast(&mut self, name: &str) -> Result<XReg, CompileError> {
        let binding = self.lookup(name).clone();
        let x = self.alloc_fp()?;
        match binding.loc {
            Loc::FpReg(h) => self.asm.emit(Inst::MovsdXX(x, h)),
            Loc::Slot(off) => self.asm.emit(Inst::MovsdLoad(x, Mem::base_disp(RBP, off))),
            Loc::IntReg(_) => unreachable!("fp read of int variable {name}"),
        }
        self.asm.emit(Inst::Unpcklpd(x, x));
        Ok(x)
    }

    /// Whether `name` lives in a frame slot (no register home) — a read
    /// costs a load, so the vectorizer hoists slot-resident loop
    /// invariants out of its packed body when the pool has headroom.
    pub(crate) fn var_in_slot(&self, name: &str) -> bool {
        matches!(self.lookup(name).loc, Loc::Slot(_))
    }

    /// Free temporaries left in the integer pool.
    pub(crate) fn int_free_len(&self) -> usize {
        self.int_free.len()
    }

    /// Free temporaries left in the FP pool.
    pub(crate) fn fp_free_len(&self) -> usize {
        self.fp_free.len()
    }
}

fn op_to_bin(op: AssignOp) -> BinOp {
    match op {
        AssignOp::Add => BinOp::Add,
        AssignOp::Sub => BinOp::Sub,
        AssignOp::Mul => BinOp::Mul,
        AssignOp::Div => BinOp::Div,
        AssignOp::Set => unreachable!(),
    }
}

fn comparison_cc(op: BinOp, fp: bool) -> Cc {
    if fp {
        match op {
            BinOp::Lt => Cc::B,
            BinOp::Le => Cc::Be,
            BinOp::Gt => Cc::A,
            BinOp::Ge => Cc::Ae,
            BinOp::Eq => Cc::E,
            BinOp::Ne => Cc::Ne,
            _ => unreachable!(),
        }
    } else {
        match op {
            BinOp::Lt => Cc::L,
            BinOp::Le => Cc::Le,
            BinOp::Gt => Cc::G,
            BinOp::Ge => Cc::Ge,
            BinOp::Eq => Cc::E,
            BinOp::Ne => Cc::Ne,
            _ => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_source;
    use mira_vobj::disasm::disassemble;

    fn mnemonics_with(src: &str, func: &str, options: &Options) -> Vec<&'static str> {
        let obj = compile_source(src, options).unwrap();
        let ast = disassemble(&obj).unwrap();
        ast.function(func)
            .unwrap()
            .instructions
            .iter()
            .map(|i| i.inst.mnemonic())
            .collect()
    }

    fn mnemonics(src: &str, func: &str) -> Vec<&'static str> {
        mnemonics_with(src, func, &Options::default())
    }

    #[test]
    fn prologue_and_epilogue_present() {
        let ms = mnemonics("void f() { }", "f");
        assert_eq!(&ms[..3], &["push", "mov", "sub"]);
        assert_eq!(&ms[ms.len() - 3..], &["mov", "pop", "ret"]);
    }

    #[test]
    fn division_uses_idiv_convention() {
        let ms = mnemonics("int f(int a, int b) { return a / b; }", "f");
        assert!(ms.contains(&"cqo"));
        assert!(ms.contains(&"idiv"));
    }

    #[test]
    fn fp_compare_uses_ucomisd() {
        let ms = mnemonics("int f(double a, double b) { return a < b; }", "f");
        assert!(ms.contains(&"ucomisd"));
        assert!(ms.contains(&"setcc"));
    }

    #[test]
    fn implicit_cast_emits_cvtsi2sd() {
        let ms = mnemonics("double f(int a) { return a * 2.0; }", "f");
        assert!(ms.contains(&"cvtsi2sd"));
        assert!(ms.contains(&"mulsd"));
    }

    #[test]
    fn constant_index_folds_into_displacement() {
        let obj =
            compile_source("double f(double* a) { return a[3]; }", &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let has_disp24 =
            ast.function("f").unwrap().instructions.iter().any(
                |i| matches!(i.inst, Inst::MovsdLoad(_, m) if m.disp == 24 && m.index.is_none()),
            );
        assert!(has_disp24);
    }

    #[test]
    fn call_moves_args_to_abi_registers() {
        let src = "double g(double x, int k) { return x; } double f() { return g(1.5, 2); }";
        let ms = mnemonics(src, "f");
        assert!(ms.contains(&"call"));
    }

    #[test]
    fn nested_call_preserves_live_values() {
        // f computes a*g(b) — `a` must survive the call to g
        let src = "double g(double x) { return x + 1.0; } double f(double a, double b) { return a * g(b); }";
        let obj = compile_source(src, &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let f = ast.function("f").unwrap();
        // a save (movsd store to negative rbp offset) must appear before the call
        let call_pos = f
            .instructions
            .iter()
            .position(|i| matches!(i.inst, Inst::Call(_)))
            .unwrap();
        let has_save_before = f.instructions[..call_pos]
            .iter()
            .any(|i| matches!(i.inst, Inst::MovsdStore(m, _) if m.base == RBP && m.disp < 0));
        assert!(has_save_before);
    }

    #[test]
    fn while_loop_metadata() {
        let obj = compile_source(
            "int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } return s; }",
            &Options::default(),
        )
        .unwrap();
        let loops = obj.loops_of(obj.find_func("f").unwrap());
        assert_eq!(loops.len(), 1);
        let m = loops[0];
        assert_eq!(m.init.0, m.init.1); // while has no init code
        assert!(m.cond.0 < m.cond.1);
        assert!(m.step.0 < m.step.1); // back-edge jump
        assert_eq!(m.vector_factor, 1);
    }

    #[test]
    fn nested_loops_produce_two_meta_records() {
        let src =
            "void f(int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { ; } } }";
        let obj = compile_source(src, &Options::default()).unwrap();
        let loops = obj.loops_of(obj.find_func("f").unwrap());
        assert_eq!(loops.len(), 2);
        // the inner loop's ranges nest inside the outer body
        let (outer, inner) = if loops[0].body.0 < loops[1].body.0 {
            (loops[0], loops[1])
        } else {
            (loops[1], loops[0])
        };
        assert!(inner.init.0 >= outer.body.0 && inner.step.1 <= outer.body.1);
    }

    #[test]
    fn local_array_allocation() {
        let ms = mnemonics("double f() { double t[16]; t[2] = 1.0; return t[2]; }", "f");
        assert!(ms.contains(&"lea"));
    }

    #[test]
    fn many_int_params_use_stack_slots() {
        let src = "int f(int a, int b, int c, int d, int e, int g, int h, int i) { return h + i; }";
        assert!(compile_source(src, &Options::default()).is_ok());
    }

    const DOT: &str = r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * y[i];
    }
    return s;
}
"#;

    #[test]
    fn regalloc_prologue_saves_callee_saved_homes() {
        let obj = compile_source(DOT, &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let f = ast.function("dot").unwrap();
        // a callee-saved GPR is saved right after the frame reservation
        // and the loop condition compares two registers with no loads
        let saves = f
            .instructions
            .iter()
            .filter(
                |i| matches!(i.inst, Inst::Store(m, r) if m.base == RBP && r.0 >= 6 && r.0 <= 9),
            )
            .count();
        assert!(saves >= 1, "no callee-saved saves in {f:?}");
        // the accumulator lives in an XMM home: addsd into x12..x15
        let acc = f
            .instructions
            .iter()
            .any(|i| matches!(i.inst, Inst::Addsd(d, _) if d.0 >= 12));
        assert!(acc, "accumulator not register-allocated");
    }

    #[test]
    fn regalloc_shrinks_code_and_spill_mode_matches_seed_shape() {
        let fast = mnemonics(DOT, "dot");
        let spill = mnemonics_with(DOT, "dot", &Options::spill_everything());
        assert!(
            fast.len() < spill.len(),
            "regalloc ({}) not smaller than spill ({})",
            fast.len(),
            spill.len()
        );
        // the spill baseline still stores every parameter to the frame
        let obj = compile_source(DOT, &Options::spill_everything()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let param_spills = ast
            .function("dot")
            .unwrap()
            .instructions
            .iter()
            .filter(|i| matches!(i.inst, Inst::Store(m, _) if m.base == RBP))
            .count();
        assert!(param_spills >= 3);
    }

    #[test]
    fn compound_assign_into_home_register() {
        // with regalloc on, `s += ...` must not touch memory for s
        let obj = compile_source(DOT, &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let f = ast.function("dot").unwrap();
        let fp_stores = f
            .instructions
            .iter()
            .filter(|i| matches!(i.inst, Inst::MovsdStore(..)))
            .count();
        // only the callee-saved xmm save in the prologue remains
        assert!(fp_stores <= 1, "{fp_stores} movsd stores");
    }

    #[test]
    fn both_modes_compute_identical_results() {
        use mira_vm::{HostVal, Vm};
        for opts in [Options::default(), Options::spill_everything()] {
            let obj = compile_source(DOT, &opts).unwrap();
            let mut vm = Vm::new(&obj).unwrap();
            let x = vm.alloc_f64(&[1.0, 2.0, 3.0, 4.0]);
            let y = vm.alloc_f64(&[2.0, 0.5, 1.0, 0.25]);
            vm.call(
                "dot",
                &[
                    HostVal::Int(4),
                    HostVal::Int(x as i64),
                    HostVal::Int(y as i64),
                ],
            )
            .unwrap();
            assert_eq!(
                vm.fp_return(),
                1.0 * 2.0 + 2.0 * 0.5 + 3.0 * 1.0 + 4.0 * 0.25
            );
        }
    }

    #[test]
    fn homes_survive_calls() {
        // the loop counter and accumulator live in callee-saved homes and
        // must survive the call to g, which itself uses registers freely
        use mira_vm::{HostVal, Vm};
        let src = r#"
double g(double x) {
    double t = 0.0;
    for (int k = 0; k < 3; k++) { t += x; }
    return t;
}
double f(int n) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += g(1.0) + (double)i;
    }
    return s;
}
"#;
        let obj = compile_source(src, &Options::default()).unwrap();
        let mut vm = Vm::new(&obj).unwrap();
        vm.call("f", &[HostVal::Int(4)]).unwrap();
        // sum over i of (3 + i) = 12 + 6
        assert_eq!(vm.fp_return(), 18.0);
    }

    #[test]
    fn assignment_ordering_hazards_are_pinned() {
        use mira_vm::{HostVal, Vm};
        // the RHS reassigns the index variable: the store must still go to
        // a[old i], matching the spill-everything semantics
        let src = r#"
int f(int n, int* a) {
    int acc = 0;
    for (int i = 2; i < n; i = i) {
        a[i] = (i = n);
    }
    for (int j = 0; j < n; j++) { acc = acc + a[j]; }
    return acc;
}
"#;
        let mut results = Vec::new();
        for opts in [Options::default(), Options::spill_everything()] {
            let obj = compile_source(src, &opts).unwrap();
            let mut vm = Vm::new(&obj).unwrap();
            let a = vm.alloc_i64(&[0; 8]);
            vm.call("f", &[HostVal::Int(5), HostVal::Int(a as i64)])
                .unwrap();
            results.push(vm.int_return());
        }
        assert_eq!(results[0], results[1]);
    }
}
