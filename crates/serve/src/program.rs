//! Flat register bytecode for closed-form evaluation.
//!
//! [`ProgramBuilder`] lowers [`SymExpr`] polynomials — including the
//! composite [`Atom::FloorDiv`] / [`Atom::Clamp`] atoms — into a linear
//! [`EvalProgram`]: a register machine over exact [`Rat`] values whose
//! instruction stream *is* the tree walk of [`SymExpr::eval`], flattened.
//! Every checked multiply, every checked add, every floor and clamp is
//! emitted in the order the tree walk performs it, so the compiled
//! program produces bit-identical values **and bit-identical refusals**
//! ([`EvalError::Overflow`], [`EvalError::MissingParam`]) — the
//! differential tests in this crate pin that equivalence over a
//! generated corpus and every workload model.
//!
//! The tree walk's remaining refusal — [`EvalError::Budget`] when
//! composite atoms nest deeper than [`budget::MAX_DEPTH`] inside a
//! budget scope — depends on the expression, never on the values bound,
//! so it is decided at compile time. The builder tracks every
//! subexpression's composite-atom height and refuses with
//! [`CompileError::TooDeep`] as soon as one would cross the cap. A
//! program that compiles never reaches it, scoped or not, so the
//! interpreter keeps no depth state: one op stream, one loop.
//!
//! **Compile-time CSE** makes the flat program faster than the tree
//! walk: repeated atoms and repeated subexpressions compile once and are
//! reused by register. A reuse stands in for a subtree the tree walk
//! would re-descend at the reuse point's depth, so the depth check counts
//! it at that depth.
//!
//! Programs are built in **sections** (contiguous op ranges) so one
//! program can carry a whole kernel's placement forms: mandatory
//! sections always run, in order, and may share registers and CSE
//! entries; transient sections (the piecewise regime bounds) run lazily
//! in any subset, so their CSE entries are purged at seal time and they
//! can only reuse registers computed by the mandatory prefix.

use std::collections::HashMap;

use mira_mem::NestHeader;
use mira_sym::budget;
use mira_sym::{Atom, Bindings, EvalError, Rat, SymExpr};

/// Compilation refusals. Like the analysis budgets, these are typed
/// errors, never panics: an adversarial expression costs the caller a
/// refusal, not a crash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// Composite atoms nest deeper than [`budget::MAX_DEPTH`] — counting
    /// a CSE reuse at the depth it is reused — so the tree walk refuses
    /// on depth inside a budget scope.
    TooDeep,
    /// The program needs more registers or parameters than the bytecode
    /// can address (`u16`).
    TooLarge,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooDeep => {
                write!(f, "expression nesting exceeds the evaluation depth cap")
            }
            CompileError::TooLarge => {
                write!(
                    f,
                    "program exceeds the bytecode's register or parameter space"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// One instruction. Registers hold exact [`Rat`] values.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `r[dst] = int(param[p])`, refusing with [`EvalError::MissingParam`]
    /// when the query left the slot unbound.
    Param {
        dst: u16,
        p: u16,
    },
    Const {
        dst: u16,
        val: Rat,
    },
    /// `r[dst] = r[dst] * r[src]` (checked).
    Mul {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = r[dst] + r[src]` (checked).
    Add {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = r[dst] + val` (checked) — a constant term folded into
    /// its accumulate, sparing a register write and two dispatches.
    AddConst {
        dst: u16,
        val: Rat,
    },
    /// `r[dst] = r[dst] + val * r[src]`, both steps checked in
    /// tree-walk order (`coeff · atom` first, then the accumulate) —
    /// the fused form of a linear term, the most common shape in
    /// closed-form cost models.
    AddMul {
        dst: u16,
        src: u16,
        val: Rat,
    },
    /// `r[dst] = val * r[src]` (checked) — the first factor of a
    /// multi-atom term, folding the coefficient load into the multiply.
    ConstMul {
        dst: u16,
        src: u16,
        val: Rat,
    },
    /// `r[dst] = int(floor(r[src] / d))` (checked) — [`Atom::FloorDiv`].
    FloorDiv {
        dst: u16,
        src: u16,
        d: i64,
    },
    /// `r[dst] = int(max(0, floor(r[src])))` — [`Atom::Clamp`].
    Clamp {
        dst: u16,
        src: u16,
    },
    /// `r[dst] = int(round_count(r[src]))`, refusing with
    /// [`EvalError::Overflow`] — the in-stream form of
    /// [`SymExpr::eval_count`]'s rounding, emitted where a kernel
    /// section needs a rounded count *before* later ops run so the
    /// error order matches the tree walk exactly.
    Count {
        dst: u16,
        src: u16,
    },
}

/// Handle to one output value of an [`EvalProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutId(u32);

/// Handle to one section (contiguous op range) of an [`EvalProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SecId(u32);

/// Reusable per-thread evaluation state. Sized to a program on first
/// use and reused query after query — after warm-up the hot loop
/// allocates nothing (pinned by this crate's `no_alloc` test).
#[derive(Default)]
pub struct Scratch {
    regs: Vec<Rat>,
    vals: Vec<Option<i128>>,
    /// The nest-model header of the placement in progress (staged by
    /// `PlacementProgram`, carried here so one scratch covers a whole
    /// query).
    pub(crate) header: NestHeader,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Rebind one positional parameter of the program last bound into
    /// this scratch, leaving the others as bound.
    pub(crate) fn set_value(&mut self, slot: usize, v: i128) {
        if let Some(x) = self.vals.get_mut(slot) {
            *x = Some(v);
        }
    }

    fn ensure(&mut self, p: &EvalProgram) {
        if self.regs.len() < p.n_regs as usize {
            self.regs.resize(p.n_regs as usize, Rat::ZERO);
        }
        if self.vals.len() < p.params.len() {
            self.vals.resize(p.params.len(), None);
        }
    }
}

/// A compiled, immutable evaluation program: pure data (`Send + Sync`),
/// unlike the `Rc`-sharing [`SymExpr`] trees it was lowered from — a
/// serving index can hand it to worker threads wholesale.
#[derive(Clone, Debug)]
pub struct EvalProgram {
    ops: Vec<Op>,
    /// Section op ranges, in seal order.
    sections: Vec<(u32, u32)>,
    /// Parameter table; binding is by name ([`EvalProgram::bind`]) or by
    /// position in this order ([`EvalProgram::bind_positional`]).
    params: Vec<String>,
    /// Output register per [`OutId`].
    outputs: Vec<u16>,
    n_regs: u32,
    cse_hits: u64,
}

impl EvalProgram {
    /// Parameter names, in binding order.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    pub fn ops_len(&self) -> usize {
        self.ops.len()
    }

    /// Subexpression reuses the compiler found (for the
    /// `serve.cse_hits` probe counter).
    pub fn cse_hits(&self) -> u64 {
        self.cse_hits
    }

    /// Bind parameters by name: fills the scratch's value table from the
    /// bindings (absent names refuse with [`EvalError::MissingParam`]
    /// only if an op actually reads them, matching the tree walk).
    pub fn bind(&self, b: &Bindings, s: &mut Scratch) {
        self.ensure_scratch(s);
        for (i, name) in self.params.iter().enumerate() {
            s.vals[i] = b.get(name).copied();
        }
    }

    /// Bind parameters by position. Returns `false` (binding nothing) on
    /// arity mismatch.
    pub fn bind_positional(&self, values: &[i128], s: &mut Scratch) -> bool {
        if values.len() != self.params.len() {
            return false;
        }
        self.ensure_scratch(s);
        for (i, v) in values.iter().enumerate() {
            s.vals[i] = Some(*v);
        }
        true
    }

    fn ensure_scratch(&self, s: &mut Scratch) {
        s.ensure(self);
    }

    /// Run one section. Mandatory sections must have been run first, in
    /// seal order, within the same bound scratch — transient sections
    /// read registers the mandatory prefix computed.
    pub fn run_section(&self, sec: SecId, s: &mut Scratch) -> Result<(), EvalError> {
        self.ensure_scratch(s);
        let (start, end) = self.sections.get(sec.0 as usize).copied().unwrap_or((0, 0));
        let ops = self.ops.get(start as usize..end as usize).unwrap_or(&[]);
        let regs = &mut s.regs;
        let vals = &s.vals;
        for op in ops {
            match *op {
                Op::Param { dst, p } => {
                    let v = vals[p as usize]
                        .ok_or_else(|| EvalError::MissingParam(self.params[p as usize].clone()))?;
                    regs[dst as usize] = Rat::int(v);
                }
                Op::Const { dst, val } => regs[dst as usize] = val,
                Op::Mul { dst, src } => {
                    regs[dst as usize] = regs[dst as usize]
                        .checked_mul(regs[src as usize])
                        .ok_or(EvalError::Overflow)?;
                }
                Op::Add { dst, src } => {
                    regs[dst as usize] = regs[dst as usize]
                        .checked_add(regs[src as usize])
                        .ok_or(EvalError::Overflow)?;
                }
                Op::AddConst { dst, val } => {
                    regs[dst as usize] = regs[dst as usize]
                        .checked_add(val)
                        .ok_or(EvalError::Overflow)?;
                }
                Op::AddMul { dst, src, val } => {
                    let t = val
                        .checked_mul(regs[src as usize])
                        .ok_or(EvalError::Overflow)?;
                    regs[dst as usize] = regs[dst as usize]
                        .checked_add(t)
                        .ok_or(EvalError::Overflow)?;
                }
                Op::ConstMul { dst, src, val } => {
                    regs[dst as usize] = val
                        .checked_mul(regs[src as usize])
                        .ok_or(EvalError::Overflow)?;
                }
                Op::FloorDiv { dst, src, d } => {
                    let v = regs[src as usize];
                    // integer ÷ positive divisor: floor division in one
                    // hardware op — the rational path cannot refuse here
                    // and computes the same floor
                    regs[dst as usize] = if d > 0 && v.is_integer() {
                        let q = match i64::try_from(v.num()) {
                            Ok(n) => n.div_euclid(d) as i128,
                            Err(_) => v.num().div_euclid(d as i128),
                        };
                        Rat::int(q)
                    } else {
                        let q = v
                            .checked_div(Rat::int(d as i128))
                            .ok_or(EvalError::Overflow)?;
                        Rat::int(q.floor())
                    };
                }
                Op::Clamp { dst, src } => {
                    let v = regs[src as usize];
                    regs[dst as usize] = Rat::int(if v < Rat::ZERO { 0 } else { v.floor() });
                }
                Op::Count { dst, src } => {
                    let v = regs[src as usize]
                        .round_count()
                        .ok_or(EvalError::Overflow)?;
                    regs[dst as usize] = Rat::int(v);
                }
            }
        }
        Ok(())
    }

    /// Read an output register. Valid after the section that computes it
    /// has run.
    pub fn output(&self, out: OutId, s: &Scratch) -> Rat {
        let reg = self.outputs.get(out.0 as usize).copied().unwrap_or(0);
        s.regs.get(reg as usize).copied().unwrap_or(Rat::ZERO)
    }
}

/// Builds an [`EvalProgram`] section by section.
pub struct ProgramBuilder {
    ops: Vec<Op>,
    params: Vec<String>,
    param_ix: HashMap<String, u16>,
    next_reg: u32,
    /// Recyclable term-accumulator registers (never CSE'd).
    free: Vec<u16>,
    /// Compiled atoms and subexpressions: result register and
    /// composite-atom height.
    atom_cache: HashMap<Atom, (u16, u32)>,
    expr_cache: HashMap<SymExpr, (u16, u32)>,
    /// Cache keys inserted since the last seal, purged when a transient
    /// section seals (its registers are not valid in sibling sections).
    pending_atoms: Vec<Atom>,
    pending_exprs: Vec<SymExpr>,
    sections: Vec<(u32, u32)>,
    sec_start: u32,
    outputs: Vec<u16>,
    cse_hits: u64,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        ProgramBuilder::new()
    }
}

impl ProgramBuilder {
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            ops: Vec::new(),
            params: Vec::new(),
            param_ix: HashMap::new(),
            next_reg: 0,
            free: Vec::new(),
            atom_cache: HashMap::new(),
            expr_cache: HashMap::new(),
            pending_atoms: Vec::new(),
            pending_exprs: Vec::new(),
            sections: Vec::new(),
            sec_start: 0,
            outputs: Vec::new(),
            cse_hits: 0,
        }
    }

    /// Compile `e` into the open section and register its value as an
    /// output. On a refusal the builder is left partially filled and
    /// must be dropped.
    pub fn add_output(&mut self, e: &SymExpr) -> Result<OutId, CompileError> {
        let (reg, _) = self.compile_expr(e, 0)?;
        self.outputs.push(reg);
        Ok(OutId(self.outputs.len() as u32 - 1))
    }

    /// Compile `e`, append an `Op::Count` rounding it like
    /// [`SymExpr::eval_count`] *at this point in the op stream*, and
    /// register the rounded value as an output. Use this whenever ops
    /// follow the count in the same run, so a rounding refusal surfaces
    /// before them — exactly where the tree walk raises it.
    pub fn add_count_output(&mut self, e: &SymExpr) -> Result<OutId, CompileError> {
        let (reg, _) = self.compile_expr(e, 0)?;
        let dst = self.alloc()?;
        self.ops.push(Op::Count { dst, src: reg });
        self.outputs.push(dst);
        Ok(OutId(self.outputs.len() as u32 - 1))
    }

    /// Seal the ops emitted since the last seal as one section.
    ///
    /// `persistent` sections form the mandatory prefix: they always run,
    /// in seal order, so later sections may reuse their registers and
    /// CSE entries. Transient sections run lazily in arbitrary subsets,
    /// so their CSE entries are dropped here — sibling sections must
    /// recompute rather than read registers that might never have been
    /// written.
    pub fn seal_section(&mut self, persistent: bool) -> SecId {
        let end = self.ops.len() as u32;
        self.sections.push((self.sec_start, end));
        self.sec_start = end;
        if !persistent {
            for a in self.pending_atoms.drain(..) {
                self.atom_cache.remove(&a);
            }
            for e in self.pending_exprs.drain(..) {
                self.expr_cache.remove(&e);
            }
        } else {
            self.pending_atoms.clear();
            self.pending_exprs.clear();
        }
        SecId(self.sections.len() as u32 - 1)
    }

    pub fn finish(self) -> EvalProgram {
        EvalProgram {
            ops: self.ops,
            sections: self.sections,
            params: self.params,
            outputs: self.outputs,
            n_regs: self.next_reg,
            cse_hits: self.cse_hits,
        }
    }

    fn alloc(&mut self) -> Result<u16, CompileError> {
        if self.next_reg > u16::MAX as u32 {
            return Err(CompileError::TooLarge);
        }
        let r = self.next_reg as u16;
        self.next_reg += 1;
        Ok(r)
    }

    fn alloc_temp(&mut self) -> Result<u16, CompileError> {
        match self.free.pop() {
            Some(r) => Ok(r),
            None => self.alloc(),
        }
    }

    fn param(&mut self, name: &str) -> Result<u16, CompileError> {
        if let Some(&p) = self.param_ix.get(name) {
            return Ok(p);
        }
        if self.params.len() >= u16::MAX as usize {
            return Err(CompileError::TooLarge);
        }
        let p = self.params.len() as u16;
        self.params.push(name.to_string());
        self.param_ix.insert(name.to_string(), p);
        Ok(p)
    }

    /// A CSE reuse at nesting `depth` stands in for re-walking a subtree
    /// of height `h` there, which reaches depth `depth + h`.
    fn reuse(&mut self, (reg, h): (u16, u32), depth: u32) -> Result<(u16, u32), CompileError> {
        if depth + h > budget::MAX_DEPTH {
            return Err(CompileError::TooDeep);
        }
        self.cse_hits += 1;
        Ok((reg, h))
    }

    /// Lower one polynomial evaluated at composite-atom nesting `depth`,
    /// mirroring [`SymExpr::eval`] op for op: accumulator zeroed, then
    /// per term the coefficient is loaded and multiplied by each atom's
    /// value `pow` times (atom evaluated once), then added — every
    /// checked step in tree-walk order. Returns the result register and
    /// the expression's composite-atom height.
    fn compile_expr(&mut self, e: &SymExpr, depth: u32) -> Result<(u16, u32), CompileError> {
        if let Some(&hit) = self.expr_cache.get(e) {
            return self.reuse(hit, depth);
        }
        let acc = self.alloc()?;
        self.ops.push(Op::Const {
            dst: acc,
            val: Rat::ZERO,
        });
        let mut v: Option<u16> = None;
        let mut height = 0;
        for t in e.terms() {
            let npow: u32 = t.monomial.iter().map(|(_, p)| *p).sum();
            // fused shapes: same checked steps as the general lowering
            // (`coeff · atom` products in monomial order, then the
            // accumulate), just fewer dispatches and no term register
            if t.monomial.is_empty() {
                self.ops.push(Op::AddConst {
                    dst: acc,
                    val: t.coeff,
                });
                continue;
            }
            if npow == 1 && t.monomial.len() == 1 {
                let (areg, ah) = self.compile_atom(&t.monomial[0].0, depth)?;
                height = height.max(ah);
                self.ops.push(Op::AddMul {
                    dst: acc,
                    src: areg,
                    val: t.coeff,
                });
                continue;
            }
            let vr = match v {
                Some(r) => r,
                None => {
                    let r = self.alloc_temp()?;
                    v = Some(r);
                    r
                }
            };
            let mut coeff_pending = true;
            for (atom, pow) in &t.monomial {
                let (areg, ah) = self.compile_atom(atom, depth)?;
                height = height.max(ah);
                for _ in 0..*pow {
                    if coeff_pending {
                        self.ops.push(Op::ConstMul {
                            dst: vr,
                            src: areg,
                            val: t.coeff,
                        });
                        coeff_pending = false;
                    } else {
                        self.ops.push(Op::Mul { dst: vr, src: areg });
                    }
                }
            }
            if coeff_pending {
                // every pow was zero: the atoms were still evaluated
                // (error parity with the tree walk), the term is a const
                self.ops.push(Op::AddConst {
                    dst: acc,
                    val: t.coeff,
                });
            } else {
                self.ops.push(Op::Add { dst: acc, src: vr });
            }
        }
        if let Some(vr) = v {
            self.free.push(vr);
        }
        self.expr_cache.insert(e.clone(), (acc, height));
        self.pending_exprs.push(e.clone());
        Ok((acc, height))
    }

    /// Compile the operand of a composite atom at nesting `depth`: the
    /// tree walk evaluates it one level down, refusing beyond the cap.
    fn compile_operand(&mut self, e: &SymExpr, depth: u32) -> Result<(u16, u32), CompileError> {
        if depth >= budget::MAX_DEPTH {
            return Err(CompileError::TooDeep);
        }
        self.compile_expr(e, depth + 1)
    }

    fn compile_atom(&mut self, atom: &Atom, depth: u32) -> Result<(u16, u32), CompileError> {
        if let Some(&hit) = self.atom_cache.get(atom) {
            return self.reuse(hit, depth);
        }
        let (reg, h) = match atom {
            Atom::Param(name) => {
                let p = self.param(name)?;
                let dst = self.alloc()?;
                self.ops.push(Op::Param { dst, p });
                (dst, 0)
            }
            Atom::FloorDiv(e, d) => {
                let (src, eh) = self.compile_operand(e, depth)?;
                let dst = self.alloc()?;
                self.ops.push(Op::FloorDiv { dst, src, d: *d });
                (dst, eh + 1)
            }
            Atom::Clamp(e) => {
                let (src, eh) = self.compile_operand(e, depth)?;
                let dst = self.alloc()?;
                self.ops.push(Op::Clamp { dst, src });
                (dst, eh + 1)
            }
        };
        self.atom_cache.insert(atom.clone(), (reg, h));
        self.pending_atoms.push(atom.clone());
        Ok((reg, h))
    }
}

/// A single compiled expression: one program, one section, one output —
/// the drop-in compiled counterpart of calling [`SymExpr::eval`] /
/// [`SymExpr::eval_count`] / [`SymExpr::eval_count_i64`] directly.
#[derive(Clone, Debug)]
pub struct CompiledExpr {
    program: EvalProgram,
    sec: SecId,
    out: OutId,
}

impl CompiledExpr {
    pub fn compile(e: &SymExpr) -> Result<CompiledExpr, CompileError> {
        let mut b = ProgramBuilder::new();
        let out = b.add_output(e)?;
        let sec = b.seal_section(true);
        Ok(CompiledExpr {
            program: b.finish(),
            sec,
            out,
        })
    }

    pub fn program(&self) -> &EvalProgram {
        &self.program
    }

    /// Compiled [`SymExpr::eval`], reusing a scratch.
    pub fn eval_with(&self, b: &Bindings, s: &mut Scratch) -> Result<Rat, EvalError> {
        self.program.bind(b, s);
        self.program.run_section(self.sec, s)?;
        Ok(self.program.output(self.out, s))
    }

    /// Compiled [`SymExpr::eval`] (allocates a fresh scratch).
    pub fn eval(&self, b: &Bindings) -> Result<Rat, EvalError> {
        self.eval_with(b, &mut Scratch::new())
    }

    /// Compiled [`SymExpr::eval_count`].
    pub fn eval_count_with(&self, b: &Bindings, s: &mut Scratch) -> Result<i128, EvalError> {
        self.eval_with(b, s)?
            .round_count()
            .ok_or(EvalError::Overflow)
    }

    /// Compiled [`SymExpr::eval_count_i64`]: refuses with
    /// [`EvalError::Overflow`] outside `i64`, never wrapping.
    pub fn eval_count_i64_with(&self, b: &Bindings, s: &mut Scratch) -> Result<i64, EvalError> {
        let v = self.eval_count_with(b, s)?;
        i64::try_from(v).map_err(|_| EvalError::Overflow)
    }
}
