//! The Metric Generator (paper §III-B/C): walks the source AST with a
//! polyhedral iteration-domain context, pulls per-line instruction groups
//! from the binary AST through the bridge, attributes loop-overhead
//! instructions exactly using `.loopmeta`, applies annotations, and builds
//! the parametric model.

use crate::bridge::LineMap;
use crate::scop::{self, analyze_condition, extract_for_scop, Condition, LoopScope};
use mira_arch::Category;
use mira_isa::Inst;
use mira_minic::{
    AnnotValue, Annotation, Expr, ExprKind, Program, Stmt, StmtKind,
};
use mira_model::{FuncModel, Model, ModelOp};
use mira_poly::Polyhedron;
use mira_sym::{Rat, SymExpr};
use mira_vobj::disasm::{BinInst, BinaryAst};
use mira_vobj::{LoopMeta, Object};
use std::collections::{BTreeMap, HashSet};

/// Metric-generation failure (hard errors only; soft issues become
/// warnings on the analysis).
#[derive(Clone, Debug)]
pub struct MetricsError(pub String);

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for MetricsError {}

/// The modeling context at a point in the AST: the enclosing polyhedral
/// iteration domain, complement ("hole") lattice constraints from `%`
/// branches, and a scalar extra multiplier from annotations.
#[derive(Clone)]
struct Ctx {
    domain: Polyhedron,
    neg_lattices: Vec<(String, i64, i64)>,
    extra: SymExpr,
}

impl Ctx {
    fn unit() -> Ctx {
        Ctx {
            domain: Polyhedron::new(),
            neg_lattices: Vec::new(),
            extra: SymExpr::constant(1),
        }
    }

    /// Number of executions of a statement at this context, as a symbolic
    /// expression (inclusion–exclusion over complement lattices).
    fn count(&self) -> Result<SymExpr, MetricsError> {
        let k = self.neg_lattices.len();
        if k > 6 {
            return Err(MetricsError("too many modulo branch constraints".into()));
        }
        let mut total = SymExpr::zero();
        for mask in 0u32..(1 << k) {
            let mut p = self.domain.clone();
            for (i, (v, m, r)) in self.neg_lattices.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    p.add_lattice(v, *m, *r);
                }
            }
            let c = p
                .count()
                .map_err(|e| MetricsError(format!("polyhedral counting: {e}")))?;
            if mask.count_ones() % 2 == 0 {
                total = total.add_expr(&c);
            } else {
                total = total.sub_expr(&c);
            }
        }
        Ok(total.mul_expr(&self.extra))
    }

    fn with_constraints(&self, cs: &[SymExpr]) -> Ctx {
        let mut out = self.clone();
        for c in cs {
            out.domain.constrain_ge0(c.clone());
        }
        out
    }

    fn with_lattice(&self, var: &str, m: i64, r: i64) -> Ctx {
        let mut out = self.clone();
        out.domain.add_lattice(var, m, r);
        out
    }

    fn with_neg_lattice(&self, var: &str, m: i64, r: i64) -> Ctx {
        let mut out = self.clone();
        out.neg_lattices.push((var.to_string(), m, r));
        out
    }

    fn scaled(&self, f: Rat) -> Ctx {
        let mut out = self.clone();
        out.extra = out.extra.scale(f);
        out
    }

    fn with_extra(&self, e: &SymExpr) -> Ctx {
        let mut out = self.clone();
        out.extra = out.extra.mul_expr(e);
        out
    }

    fn has_var(&self, v: &str) -> bool {
        self.domain.vars().iter().any(|x| x == v)
    }
}

/// Generate the model for a whole program.
pub fn generate_model(
    program: &Program,
    object: &Object,
    binary: &BinaryAst,
) -> Result<(Model, Vec<String>), MetricsError> {
    let defined: HashSet<String> = program.functions().map(|f| f.name.clone()).collect();
    let mut model = Model::default();
    let mut warnings = Vec::new();

    for f in program.functions() {
        let bin_fn = binary.function(&f.name).ok_or_else(|| {
            MetricsError(format!("function `{}` missing from the binary", f.name))
        })?;
        let sym = object
            .find_func(&f.name)
            .ok_or_else(|| MetricsError(format!("no symbol for `{}`", f.name)))?;
        let mut metas = object.loops_of(sym);
        metas.sort_by_key(|m| m.init.0.min(m.cond.0));
        let mut gen = FuncGen {
            linemap: LineMap::build(bin_fn),
            metas,
            meta_used: Vec::new(),
            consumed: HashSet::new(),
            ops: Vec::new(),
            warnings: Vec::new(),
            scope: LoopScope::new(),
            var_counter: 0,
            defined: &defined,
        };
        gen.meta_used = vec![false; gen.metas.len()];

        let unit = Ctx::unit();
        // prologue/epilogue and parameter spills live on the signature line
        gen.acc_line(f.span.line, &unit)?;
        for s in &f.body.stmts {
            gen.walk_stmt(s, &unit)?;
        }

        let mut params: std::collections::BTreeSet<String> = Default::default();
        for op in &gen.ops {
            match op {
                ModelOp::Acc { count, .. }
                | ModelOp::MemAcc { count, .. }
                | ModelOp::FlopAcc { count, .. } => params.extend(count.params()),
                ModelOp::Call { multiplier, .. } => params.extend(multiplier.params()),
            }
        }
        warnings.extend(gen.warnings.iter().map(|w| format!("{}: {w}", f.name)));
        model.functions.insert(
            f.name.clone(),
            FuncModel {
                name: f.name.clone(),
                mangled: format!("{}_{}", f.name, f.params.len()),
                params: params.into_iter().collect(),
                ops: gen.ops,
            },
        );
    }

    // propagate parameter requirements through the call graph (so emitted
    // Python signatures can forward callee parameters)
    let names: Vec<String> = model.functions.keys().cloned().collect();
    loop {
        let mut changed = false;
        for name in &names {
            let callees: Vec<String> = model.functions[name]
                .ops
                .iter()
                .filter_map(|op| match op {
                    ModelOp::Call { callee, .. } => Some(callee.clone()),
                    _ => None,
                })
                .collect();
            let mut extra: Vec<String> = Vec::new();
            for c in callees {
                if let Some(cm) = model.functions.get(&c) {
                    extra.extend(cm.params.iter().cloned());
                }
            }
            let fm = model.functions.get_mut(name).unwrap();
            for p in extra {
                if !fm.params.contains(&p) {
                    fm.params.push(p);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for fm in model.functions.values_mut() {
        fm.params.sort();
    }

    Ok((model, warnings))
}

struct FuncGen<'a> {
    linemap: LineMap,
    metas: Vec<LoopMeta>,
    meta_used: Vec<bool>,
    consumed: HashSet<u32>,
    ops: Vec<ModelOp>,
    warnings: Vec<String>,
    scope: LoopScope,
    var_counter: usize,
    defined: &'a HashSet<String>,
}

impl<'a> FuncGen<'a> {
    /// All overhead ranges (init/cond/step) of every loop — instructions in
    /// these are attributed by the loop handlers, never by plain statement
    /// accumulation.
    fn overhead_ranges(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.metas.len() * 3);
        for m in &self.metas {
            out.push(m.init);
            out.push(m.cond);
            out.push(m.step);
        }
        out
    }

    fn next_meta(&mut self, line: u32) -> Option<usize> {
        for (i, m) in self.metas.iter().enumerate() {
            if !self.meta_used[i] && m.header_line == line {
                self.meta_used[i] = true;
                return Some(i);
            }
        }
        None
    }

    fn acc_insts(
        &mut self,
        line: u32,
        insts: &[BinInst],
        count: &SymExpr,
    ) {
        if insts.is_empty() || count.is_zero() {
            return;
        }
        let mut by_cat: BTreeMap<Category, i128> = BTreeMap::new();
        // explicit memory traffic, keyed by direction, access width and
        // frame-vs-data target so packed (16-byte) accesses and spill
        // traffic both stay distinguishable in the model
        let mut by_mem: BTreeMap<(bool, u32, bool), i128> = BTreeMap::new();
        let mut flops: i128 = 0;
        for i in insts {
            *by_cat.entry(i.inst.category()).or_insert(0) += 1;
            if let Some((store, bytes)) = i.inst.memory_bytes() {
                *by_mem.entry((store, bytes, i.inst.is_frame_access())).or_insert(0) += 1;
            }
            flops += i.inst.flop_count() as i128;
        }
        for (category, k) in by_cat {
            self.ops.push(ModelOp::Acc {
                line,
                category,
                count: count.scale(Rat::int(k)),
            });
        }
        for ((store, bytes_per_exec, frame), k) in by_mem {
            self.ops.push(ModelOp::MemAcc {
                line,
                store,
                bytes_per_exec,
                frame,
                count: count.scale(Rat::int(k)),
            });
        }
        if flops != 0 {
            self.ops.push(ModelOp::FlopAcc {
                line,
                count: count.scale(Rat::int(flops)),
            });
        }
    }

    /// Accumulate all non-overhead instructions of `line` at the context
    /// count (idempotent: first claimant wins).
    fn acc_line(&mut self, line: u32, ctx: &Ctx) -> Result<(), MetricsError> {
        self.acc_line_but_else_jump(line, ctx, false).map(drop)
    }

    /// [`Self::acc_line`], holding back the jump over an `else` branch
    /// when `has_else`: the then-block's closing `jmp` carries the `if`
    /// line, but runs on the then path only. It is the line's last
    /// instruction, and is returned for the caller to charge at the
    /// then-context.
    fn acc_line_but_else_jump(
        &mut self,
        line: u32,
        ctx: &Ctx,
        has_else: bool,
    ) -> Result<Option<BinInst>, MetricsError> {
        if !self.consumed.insert(line) {
            return Ok(None);
        }
        let ranges = self.overhead_ranges();
        let mut insts = self.linemap.on_line_outside(line, &ranges);
        let jump = match insts.last() {
            Some(i) if has_else && matches!(i.inst, Inst::Jmp(_)) => insts.pop(),
            _ => None,
        };
        let count = ctx.count()?;
        self.acc_insts(line, &insts, &count);
        Ok(jump)
    }

    /// Record call-composition ops for every call inside an expression.
    fn collect_calls(&mut self, e: &Expr, line: u32, ctx: &Ctx) -> Result<(), MetricsError> {
        match &e.kind {
            ExprKind::Call { name, args } => {
                for a in args {
                    self.collect_calls(a, line, ctx)?;
                }
                if self.defined.contains(name) {
                    self.ops.push(ModelOp::Call {
                        callee: name.clone(),
                        line,
                        multiplier: ctx.count()?,
                    });
                } else {
                    self.warnings.push(format!(
                        "line {line}: call to external function `{name}` — body not analyzed (only call overhead modeled)"
                    ));
                }
            }
            ExprKind::Assign { target, value, .. } => {
                self.collect_calls(target, line, ctx)?;
                self.collect_calls(value, line, ctx)?;
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.collect_calls(lhs, line, ctx)?;
                self.collect_calls(rhs, line, ctx)?;
            }
            ExprKind::Unary { operand, .. }
            | ExprKind::Cast { operand, .. }
            | ExprKind::ImplicitCast { operand, .. } => self.collect_calls(operand, line, ctx)?,
            ExprKind::Index { base, index } => {
                self.collect_calls(base, line, ctx)?;
                self.collect_calls(index, line, ctx)?;
            }
            ExprKind::IncDec { target, .. } => self.collect_calls(target, line, ctx)?,
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Var(_) => {}
        }
        Ok(())
    }

    fn walk_stmt(&mut self, s: &Stmt, ctx: &Ctx) -> Result<(), MetricsError> {
        if let Some(ann) = &s.annotation {
            if ann.flag("skip") {
                return Ok(());
            }
        }
        let line = s.span.line;
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                self.acc_line(line, ctx)?;
                if let Some(e) = init {
                    self.collect_calls(e, line, ctx)?;
                }
            }
            StmtKind::Expr(e) => {
                self.acc_line(line, ctx)?;
                self.collect_calls(e, line, ctx)?;
            }
            StmtKind::Return(value) => {
                self.acc_line(line, ctx)?;
                if let Some(e) = value {
                    self.collect_calls(e, line, ctx)?;
                }
            }
            StmtKind::Empty => {}
            StmtKind::Block(b) => {
                for s in &b.stmts {
                    self.walk_stmt(s, ctx)?;
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let jump = self.acc_line_but_else_jump(line, ctx, else_branch.is_some())?;
                self.collect_calls(cond, line, ctx)?;
                let (then_ctx, else_ctx) =
                    self.branch_contexts(cond, s.annotation.as_ref(), line, ctx);
                if let Some(j) = jump {
                    let count = then_ctx.count()?;
                    self.acc_insts(line, &[j], &count);
                }
                self.walk_stmt(then_branch, &then_ctx)?;
                if let Some(e) = else_branch {
                    self.walk_stmt(e, &else_ctx)?;
                }
            }
            StmtKind::While { cond, body } => {
                let iters = self.annotated_iters(s.annotation.as_ref(), line);
                self.counted_loop(line, &iters, ctx, body)?;
                let _ = cond; // data-dependent; modeled via the annotation
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.walk_for(s, init, cond, step, body, ctx)?;
            }
        }
        Ok(())
    }

    /// Contexts for the two sides of a branch (paper §III-C3).
    fn branch_contexts(
        &mut self,
        cond: &Expr,
        ann: Option<&Annotation>,
        line: u32,
        ctx: &Ctx,
    ) -> (Ctx, Ctx) {
        if let Some(ann) = ann {
            if let Some(AnnotValue::Num(f)) = ann.get("branch_frac") {
                let frac = Rat::new((f * 1_000_000.0).round() as i128, 1_000_000);
                return (
                    ctx.scaled(frac),
                    ctx.scaled(Rat::ONE.checked_sub(frac).unwrap()),
                );
            }
        }
        match analyze_condition(cond, &self.scope) {
            Condition::Affine(cs) => {
                let then_ctx = ctx.with_constraints(&cs);
                let else_ctx = if cs.len() == 1 {
                    // ¬(c ≥ 0) ⇔ -c - 1 ≥ 0
                    ctx.with_constraints(&[cs[0]
                        .neg_expr()
                        .sub_expr(&SymExpr::constant(1))])
                } else {
                    self.warnings.push(format!(
                        "line {line}: compound branch condition — else-branch modeled at full iteration count"
                    ));
                    ctx.clone()
                };
                (then_ctx, else_ctx)
            }
            Condition::ModEq { var, m, r } if ctx.has_var(&var) => (
                ctx.with_lattice(&var, m, r),
                ctx.with_neg_lattice(&var, m, r),
            ),
            Condition::ModNe { var, m, r } if ctx.has_var(&var) => (
                ctx.with_neg_lattice(&var, m, r),
                ctx.with_lattice(&var, m, r),
            ),
            _ => {
                self.warnings.push(format!(
                    "line {line}: branch condition not statically analyzable — both branches modeled at full iteration count (annotate with branch_frac)"
                ));
                (ctx.clone(), ctx.clone())
            }
        }
    }

    /// Iteration-count expression from an annotation, or an implicit model
    /// parameter named after the line.
    fn annotated_iters(&mut self, ann: Option<&Annotation>, line: u32) -> SymExpr {
        if let Some(iters) = ann.and_then(|a| scop::annotated_iters(a, |_| true)) {
            return iters;
        }
        let pname = format!("iters_l{line}");
        self.warnings.push(format!(
            "line {line}: loop trip count not statically analyzable — introduced model parameter `{pname}` (annotate with lp_iters)"
        ));
        SymExpr::param(&pname)
    }

    /// Model a loop whose body executes `iters` times per entry (annotated
    /// or data-dependent loops): exact overhead attribution via loop
    /// metadata, body context scaled by `iters`.
    fn counted_loop(
        &mut self,
        line: u32,
        iters: &SymExpr,
        ctx: &Ctx,
        body: &Stmt,
    ) -> Result<(), MetricsError> {
        let entry_count = ctx.count()?;
        let body_count = entry_count.mul_expr(iters);
        self.loop_overhead(line, &entry_count, &body_count);
        let body_ctx = ctx.with_extra(iters);
        self.walk_stmt(body, &body_ctx)
    }

    /// Charge the loop instructions of the loop on `line`, entered
    /// `entry_count` times for `body_count` iterations in all: from its
    /// loop metadata, init once per entry, the condition once per
    /// iteration plus once per entry, step and in-body loop code once per
    /// iteration; without metadata, every instruction of the line once
    /// per iteration.
    fn loop_overhead(&mut self, line: u32, entry_count: &SymExpr, body_count: &SymExpr) {
        let meta = self.next_meta(line).map(|i| self.metas[i]);
        self.consumed.insert(line);
        if let Some(m) = meta {
            let init = self.linemap.on_line_in(line, m.init);
            let cond = self.linemap.on_line_in(line, m.cond);
            let step = self.linemap.on_line_in(line, m.step);
            let in_body = self.linemap.on_line_in(line, m.body);
            let cond_count = body_count.add_expr(entry_count); // iters + 1 per entry
            self.acc_insts(line, &init, entry_count);
            self.acc_insts(line, &cond, &cond_count);
            self.acc_insts(line, &step, body_count);
            self.acc_insts(line, &in_body, body_count);
        } else {
            self.warnings
                .push(format!("line {line}: no loop metadata — overhead approximated"));
            let insts = self.linemap.on_line(line).to_vec();
            self.acc_insts(line, &insts, body_count);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn walk_for(
        &mut self,
        s: &Stmt,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
        ctx: &Ctx,
    ) -> Result<(), MetricsError> {
        let line = s.span.line;

        // vectorized loops carry two metadata records on the same line
        if let Some(idx) = self
            .metas
            .iter()
            .position(|m| m.header_line == line && m.vector_factor > 1)
        {
            if !self.meta_used[idx] {
                return self.walk_vectorized_for(s, init, cond, step, body, ctx, idx);
            }
        }

        // explicit iteration-count annotation wins
        if let Some(ann) = &s.annotation {
            if ann.get("lp_iters").is_some() {
                let iters = self.annotated_iters(Some(ann), line);
                return self.counted_loop(line, &iters, ctx, body);
            }
        }

        // polyhedral path: extract the SCoP
        let scop = match (init, cond, step) {
            (Some(i), Some(c), Some(st)) => extract_for_scop(i, c, st, &self.scope),
            _ => None,
        };
        let scop = match scop {
            Some(s) => Some(s),
            None => self.scop_from_annotation(s, init),
        };
        let Some(scop) = scop else {
            let iters = self.annotated_iters(s.annotation.as_ref(), line);
            return self.counted_loop(line, &iters, ctx, body);
        };

        let dom_var = format!("{}#{}", scop.var, self.var_counter);
        self.var_counter += 1;
        let mut body_ctx = ctx.clone();
        body_ctx.domain.add_var(&dom_var);
        body_ctx
            .domain
            .bound(&dom_var, scop.lo.clone(), scop.hi.clone());
        if let Some((m, r)) = scop.stride {
            body_ctx.domain.add_lattice(&dom_var, m, r);
        }

        let entry_count = ctx.count()?;
        let body_count = body_ctx.count()?;
        self.loop_overhead(line, &entry_count, &body_count);

        // walk the body with the source variable mapped to the domain var
        let saved = self.scope.insert(scop.var.clone(), dom_var.clone());
        self.walk_stmt(body, &body_ctx)?;
        match saved {
            Some(v) => {
                self.scope.insert(scop.var.clone(), v);
            }
            None => {
                self.scope.remove(&scop.var);
            }
        }
        Ok(())
    }

    /// SCoP assembled from `lp_init` / `lp_cond` annotation variables
    /// (paper Listing 6) when the source bounds are not analyzable.
    fn scop_from_annotation(
        &mut self,
        s: &Stmt,
        init: &Option<Box<Stmt>>,
    ) -> Option<crate::scop::Scop> {
        let ann = s.annotation.as_ref()?;
        let var = scop::init_var(init.as_deref()?)?;
        let to_expr = |v: &AnnotValue| match v {
            AnnotValue::Num(n) => Some(SymExpr::constant(*n as i128)),
            AnnotValue::Ident(name) => Some(SymExpr::param(name)),
            AnnotValue::Flag(_) => None,
        };
        let lo = to_expr(ann.get("lp_init")?)?;
        let hi = to_expr(ann.get("lp_cond")?)?;
        Some(crate::scop::Scop {
            var,
            lo,
            hi,
            stride: None,
        })
    }

    /// A source loop the compiler vectorized: model the packed main loop
    /// (`⌊T/2⌋` iterations) and the scalar remainder (`T mod 2`) exactly,
    /// splitting each body line's instructions by address range.
    #[allow(clippy::too_many_arguments)]
    fn walk_vectorized_for(
        &mut self,
        s: &Stmt,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
        ctx: &Ctx,
        main_idx: usize,
    ) -> Result<(), MetricsError> {
        let line = s.span.line;
        let main = self.metas[main_idx];
        self.meta_used[main_idx] = true;
        let rem_idx = self
            .metas
            .iter()
            .position(|m| m.header_line == line && m.is_remainder);
        let rem = rem_idx.map(|i| {
            self.meta_used[i] = true;
            self.metas[i]
        });

        let scop = match (init, cond, step) {
            (Some(i), Some(c), Some(st)) => extract_for_scop(i, c, st, &self.scope),
            _ => None,
        };
        let Some(scop) = scop else {
            return Err(MetricsError(format!(
                "line {line}: vectorized loop with unanalyzable bounds"
            )));
        };
        for p in scop.lo.params().iter().chain(scop.hi.params().iter()) {
            if ctx.has_var(p) {
                self.warnings.push(format!(
                    "line {line}: vectorized loop bound depends on an outer loop variable — counts approximated"
                ));
            }
        }

        let entry = ctx.count()?;
        // trip count T = hi - lo + 1 (clamped at zero when it may be empty)
        let t_raw = scop.hi.sub_expr(&scop.lo).add_expr(&SymExpr::constant(1));
        let t = t_raw.clamp0();
        let vf = main.vector_factor as i64;
        let main_iters = t.floor_div(vf);
        let rem_iters = t.sub_expr(&main_iters.scale(Rat::int(vf as i128)));
        let main_body = entry.mul_expr(&main_iters);
        let rem_body = entry.mul_expr(&rem_iters);

        self.consumed.insert(line);
        // main-loop overhead
        let init_i = self.linemap.on_line_in(line, main.init);
        let cond_i = self.linemap.on_line_in(line, main.cond);
        let step_i = self.linemap.on_line_in(line, main.step);
        self.acc_insts(line, &init_i, &entry);
        self.acc_insts(line, &cond_i, &main_body.add_expr(&entry));
        self.acc_insts(line, &step_i, &main_body);
        if let Some(r) = rem {
            let rcond = self.linemap.on_line_in(line, r.cond);
            let rstep = self.linemap.on_line_in(line, r.step);
            self.acc_insts(line, &rcond, &rem_body.add_expr(&entry));
            self.acc_insts(line, &rstep, &rem_body);
        }

        // body statements: split each line's instructions between the
        // packed range and the remainder range
        let mut body_lines: Vec<u32> = Vec::new();
        collect_stmt_lines(body, &mut body_lines);
        for bl in body_lines {
            if !self.consumed.insert(bl) {
                continue;
            }
            let packed = self.linemap.on_line_in(bl, main.body);
            self.acc_insts(bl, &packed, &main_body);
            if let Some(r) = rem {
                let scalar = self.linemap.on_line_in(bl, r.body);
                self.acc_insts(bl, &scalar, &rem_body);
            }
        }
        Ok(())
    }
}

fn collect_stmt_lines(s: &Stmt, out: &mut Vec<u32>) {
    match &s.kind {
        StmtKind::Block(b) => {
            for s in &b.stmts {
                collect_stmt_lines(s, out);
            }
        }
        _ => out.push(s.span.line),
    }
}
