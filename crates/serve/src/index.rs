//! The serving index: compiled roofline placement, answered by the flat
//! evaluator at batch rates.
//!
//! A [`PlacementProgram`] lowers every machine-independent form the
//! placement loop ([`mira_roofline::place_with`]) can request — FLOPs,
//! the footprint count, data bytes, resident lines, streaming bytes,
//! and the per-nest working-set model's headers and group counts — into
//! one [`EvalProgram`] with lazily-run sections. It holds no machine
//! constant, so one program serves every machine with the kernel's
//! [`AnalysisKey`](mira_roofline::AnalysisKey). A [`CompiledKernel`] is
//! such a program, shared by
//! `Arc`, plus one machine's ceilings. Placing it runs the same loop as
//! [`KernelRoofline::place`] with section runs in place of tree walks,
//! so a query evaluates exactly the expressions the tree walk would, in
//! the same order, with the same refusals, at a fraction of the cost.
//! Nothing of the regime selection is duplicated here: the loop lives in
//! `mira-roofline`, the nest regime rules in
//! [`mira_mem::NestShape::traffic`] and the header they read in
//! [`mira_mem::NestHeader::stage`].
//!
//! A placement reads the forms through one evaluator, `Sections`,
//! over a table of the point's already-known values: an
//! [`AnswerCache`] entry keyed by the program's id and the values
//! ([`ServeIndex::place_cached`]), or an empty table on the stack for
//! every uncached path (single queries, batches, sweeps, crossovers).
//! A form missing from the table is a section run — after the
//! mandatory sections it reads, since those share CSE registers — and
//! its value is kept when exact, so cached and uncached answers come
//! from one code path.
//!
//! Every [`CompiledKernel::attach`] (and so every
//! [`CompiledKernel::build`]) draws a new id from a process-wide
//! counter, as compilation does for programs: an attach id names one
//! program under one set of ceilings for the life of the process. An
//! answer-cache entry keeps the finished placement of the last two
//! attach ids that read it, and a query under a kept id is answered
//! by that placement alone. A [`ServeIndex::replace`] or fleet reload
//! installs kernels under new ids, so no kept placement outlives the
//! ceilings it was computed under.
//!
//! [`ServeIndex`] holds many compiled kernels and answers
//! [`Query`] batches — single-threaded into a caller scratch
//! (allocation-free after warm-up), or sharded across worker threads
//! with [`ServeIndex::run_batch_sharded`], whose results are
//! bit-identical to the single-threaded path (pinned by this crate's
//! tests).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mira_mem::{BoundaryTraffic, NestShape};
use mira_model::ModelError;
use mira_probe as probe;
use mira_roofline::{
    crossover_bisect, place_with, CeilingFactors, Ceilings, Crossover, KernelRoofline, KernelShape,
    Placement, PlacementForms, ScaledForm,
};
use mira_sym::{Bindings, EvalError, Rat};

use crate::cache::{AnswerCache, Cells, FormCell};
use crate::program::{CompileError, EvalProgram, OutId, ProgramBuilder, Scratch, SecId};

/// Maximum parameters a [`Query`] can bind. Every workload model in the
/// repo has at most three (miniFE's `cg_solve`); the fixed slot array
/// keeps queries `Copy` so batches are plain memcpy-able buffers.
pub const MAX_QUERY_PARAMS: usize = 4;

/// Refusals while admitting a kernel into the index.
#[derive(Debug)]
pub enum BuildError {
    /// The roofline analysis itself refused the function.
    Model(ModelError),
    /// The closed forms do not compile: they nest deeper than
    /// [`mira_sym::budget::MAX_DEPTH`] (the tree walk refuses them on depth), they
    /// exceed the bytecode's address space, or the kernel needs more
    /// than [`MAX_QUERY_PARAMS`] parameters.
    Compile(CompileError),
    /// The index already holds an entry for this `(func, machine)` pair.
    /// [`ServeIndex::insert`] never shadows a live kernel — re-registering
    /// (what a machine-description hot-reload does) must go through
    /// [`ServeIndex::replace`], which swaps the compiled model while
    /// keeping the [`KernelId`] stable.
    Duplicate { func: String, machine: String },
}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> BuildError {
        BuildError::Compile(e)
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Model(e) => write!(f, "roofline analysis refused: {e}"),
            BuildError::Compile(e) => write!(f, "placement forms not compilable: {e}"),
            BuildError::Duplicate { func, machine } => write!(
                f,
                "kernel `{func}` on machine `{machine}` is already registered \
                 (use replace to swap it)"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Refusals while answering queries.
#[derive(Clone, PartialEq, Debug)]
pub enum ServeError {
    /// The query names a kernel the index does not hold.
    UnknownKernel,
    /// A sweep or crossover names a parameter the kernel does not have.
    UnknownParam(String),
    /// The value list does not match the kernel's parameter count.
    BadArity { expected: usize, got: usize },
    /// The placement itself refused (overflow, missing parameter) — the
    /// same typed errors the tree walk raises.
    Eval(EvalError),
}

impl From<EvalError> for ServeError {
    fn from(e: EvalError) -> ServeError {
        ServeError::Eval(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownKernel => write!(f, "unknown kernel id"),
            ServeError::UnknownParam(p) => write!(f, "kernel has no parameter `{p}`"),
            ServeError::BadArity { expected, got } => {
                write!(
                    f,
                    "query binds {got} values, kernel has {expected} parameters"
                )
            }
            ServeError::Eval(e) => write!(f, "evaluation refused: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Handle to one kernel × machine entry of a [`ServeIndex`]. Stable
/// across [`ServeIndex::replace`] swaps: a reload re-registers the same
/// `(func, machine)` pair under the same id, so outstanding queries
/// keep addressing the (new) kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelId(u32);

/// One roofline query: a kernel and its parameter values, in
/// [`CompiledKernel::params`] order. `Copy`, so batches are plain
/// buffers.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub kernel: KernelId,
    /// The first `n` slots bind the kernel's `n` parameters; the rest
    /// are ignored.
    pub values: [i128; MAX_QUERY_PARAMS],
}

/// The compiled per-nest working-set model: the `Send + Sync` group
/// structure plus the sections holding its evaluated closed forms.
#[derive(Clone, Debug)]
struct NestPlan {
    shape: NestShape,
    header_sec: SecId,
    /// Per node: rounded one-iteration working set, raw extent.
    header_out: Vec<(OutId, OutId)>,
    /// One lazily-run section per group form: group `g`'s form in
    /// [`mira_mem::GroupExpr::slot`] `k` at `4·g + k`.
    form_secs: Vec<(SecId, OutId)>,
}

/// Source of [`PlacementProgram`] ids: every compiled program gets a
/// new one, so an id names one immutable program for the life of the
/// process.
static NEXT_PROGRAM: AtomicU64 = AtomicU64::new(1);

/// Source of [`CompiledKernel`] attach ids: every
/// [`CompiledKernel::attach`] gets a new one, so an id names one program
/// under one set of ceilings for the life of the process.
static NEXT_ATTACH: AtomicU64 = AtomicU64::new(1);

/// One kernel's machine-independent placement program: every form
/// [`place_with`] can request, compiled once and shared (`Arc`) by the
/// [`CompiledKernel`] of every machine with the kernel's
/// [`AnalysisKey`](mira_roofline::AnalysisKey). Pure data,
/// `Send + Sync`. Its id, unique per compilation, keys its
/// [`AnswerCache`] entries.
#[derive(Debug)]
pub struct PlacementProgram {
    id: u64,
    func: String,
    shape: KernelShape,
    program: EvalProgram,
    /// The mandatory sections (FLOPs, footprint, data bytes), in seal
    /// order. They share CSE registers, so each reads the ones before
    /// it, and every transient section reads them all.
    prefix: Vec<SecId>,
    flops: Form,
    /// Present iff the footprint is fully known (the only case the
    /// fits-above test may trust it).
    footprint: Option<Form>,
    data_bytes: Form,
    resident: Form,
    streaming: Form,
    nest: Option<NestPlan>,
}

/// One compiled placement form ([`ScaledForm`]): the section computing
/// its primitive, and the content that scales it.
#[derive(Clone, Copy, Debug)]
struct Form {
    sec: SecId,
    out: OutId,
    content: Rat,
    /// The form's position in [`PlacementProgram::prefix`]; `None` for a
    /// transient form.
    mandatory: Option<usize>,
}

/// Compile the primitive of `f` into its own section, appended to
/// `prefix` when the form is mandatory. Forms that differ by a constant
/// factor share a primitive, so in a mandatory section the second one
/// costs no ops (the builder's CSE reuses the register).
fn form(
    b: &mut ProgramBuilder,
    f: &ScaledForm,
    prefix: Option<&mut Vec<SecId>>,
) -> Result<Form, CompileError> {
    let out = b.add_output(&f.primitive)?;
    let sec = b.seal_section(prefix.is_some());
    let mandatory = prefix.map(|p| {
        p.push(sec);
        p.len() - 1
    });
    Ok(Form {
        sec,
        out,
        content: f.content,
        mandatory,
    })
}

impl PlacementProgram {
    /// Compile the placement forms of one analyzed roofline. Refuses
    /// (typed) rather than admitting a kernel whose compiled answers
    /// could diverge from [`KernelRoofline::place`].
    pub fn compile(kr: &KernelRoofline) -> Result<PlacementProgram, BuildError> {
        let mut sp = probe::span("serve.compile", "serve");
        sp.arg("kernel", &kr.func);
        let mut b = ProgramBuilder::new();
        // the forms as analysis split them: compilation builds no
        // expression of its own
        let forms = kr.splits();
        // mandatory prefix, in the loop's evaluation order: FLOPs,
        // footprint count (known-footprint kernels only), data bytes —
        // sealed as separate sections so refusals interleave with the
        // placement loop exactly where the tree walk raises them
        let mut prefix = Vec::with_capacity(3);
        let flops = form(&mut b, &forms.flops, Some(&mut prefix))?;
        let footprint = match kr.footprint_known {
            true => Some(form(&mut b, &forms.footprint_lines, Some(&mut prefix))?),
            false => None,
        };
        let data_bytes = form(&mut b, &forms.data_bytes, Some(&mut prefix))?;
        // the regime forms run lazily, at most once per placement
        let resident = form(&mut b, &forms.resident_lines, None)?;
        let streaming = form(&mut b, &forms.streaming_bytes, None)?;
        let nest = match &kr.nest_model {
            Some(nm) => {
                // interleaved per node, as `NestModel::stage` evaluates
                // them, so refusals surface in its order
                let header_out = nm
                    .nodes
                    .iter()
                    .map(|n| Ok((b.add_count_output(&n.ws_lines)?, b.add_output(&n.extent)?)))
                    .collect::<Result<Vec<_>, CompileError>>()?;
                let header_sec = b.seal_section(false);
                let form_secs = nm
                    .forms
                    .iter()
                    .flatten()
                    .map(|e| {
                        let out = b.add_count_output(e)?;
                        Ok((b.seal_section(false), out))
                    })
                    .collect::<Result<Vec<_>, CompileError>>()?;
                Some(NestPlan {
                    shape: nm.shape.clone(),
                    header_sec,
                    header_out,
                    form_secs,
                })
            }
            None => None,
        };
        let program = b.finish();
        if program.params().len() > MAX_QUERY_PARAMS {
            return Err(BuildError::Compile(CompileError::TooLarge));
        }
        sp.arg("ops", program.ops_len());
        sp.arg("cse_hits", program.cse_hits());
        probe::add("serve.cse_hits", program.cse_hits() as i64);
        Ok(PlacementProgram {
            id: NEXT_PROGRAM.fetch_add(1, Ordering::Relaxed),
            func: kr.func.clone(),
            shape: kr.shape(),
            program,
            prefix,
            flops,
            footprint,
            data_bytes,
            resident,
            streaming,
            nest,
        })
    }

    /// Nest traffic at one capacity. The header does not depend on the
    /// capacity, so it is staged in the scratch once per placement
    /// (`staged`): a re-run at the second boundary could only repeat the
    /// first run's values.
    fn nest_traffic(
        &self,
        nest: &NestPlan,
        cap_bytes: u64,
        s: &mut Scratch,
        staged: &mut bool,
    ) -> Result<BoundaryTraffic, EvalError> {
        // the header lives in the scratch (reused across queries), but
        // sections run on the scratch mutably: take it out meanwhile
        let mut h = std::mem::take(&mut s.header);
        let p = &self.program;
        let mut traffic = || {
            if !*staged {
                p.run_section(nest.header_sec, s)?;
                h.stage(
                    nest.header_out
                        .iter()
                        .map(|&(ws, ext)| Ok((p.output(ws, s).floor(), p.output(ext, s)))),
                )?;
                *staged = true;
            }
            nest.shape.traffic(cap_bytes, &h, |q| {
                let (sec, out) = nest.form_secs[4 * q.group + q.slot()];
                p.run_section(sec, s)?;
                Ok(p.output(out, s).floor())
            })
        };
        let t = traffic();
        s.header = h;
        t
    }
}

/// The compiled evaluator of the placement forms at one point: a form's
/// value comes from its cell when the point's table holds it, and
/// otherwise from a section run over the values bound into the scratch,
/// kept in the table when exact. The table is an answer-cache entry
/// ([`ServeIndex::place_cached`]) or, on every uncached path, an empty
/// one on the stack — one code path either way.
struct Sections<'a> {
    p: &'a PlacementProgram,
    s: &'a mut Scratch,
    cells: &'a mut Cells,
    /// Mandatory sections run in the scratch at this point, in order.
    ran: usize,
    /// The nest header is staged in the scratch for this placement.
    staged: bool,
}

impl Sections<'_> {
    /// Run the mandatory sections up to `upto` (exclusive) not yet run
    /// at this point. A filled cell was computed after every section
    /// before its own ran at these values, so re-running them cannot
    /// refuse.
    fn catch_up(&mut self, upto: usize) -> Result<(), EvalError> {
        let p = self.p;
        for &sec in p.prefix.get(self.ran..upto).unwrap_or(&[]) {
            p.program.run_section(sec, self.s)?;
            self.ran += 1;
        }
        Ok(())
    }

    /// Run `f`'s section fresh. Mandatory sections share CSE registers,
    /// so a mandatory section first re-runs every earlier one, and a
    /// transient one needs the whole prefix.
    fn fresh(&mut self, f: Form) -> Result<Rat, EvalError> {
        match f.mandatory {
            Some(i) => self.catch_up(i + 1)?,
            None => {
                self.catch_up(self.p.prefix.len())?;
                self.p.program.run_section(f.sec, self.s)?;
            }
        }
        Ok(self.p.program.output(f.out, self.s))
    }

    /// [`ScaledForm::eval`], with the primitive read from its cell or
    /// computed by its section. A primitive has integer coefficients, so
    /// its value is an integer unless the form could not be split.
    fn run(&mut self, f: Form, cell: FormCell) -> Result<Rat, EvalError> {
        let primitive = match self.cells.get(cell) {
            Some(v) => Rat::int(v),
            None => {
                let v = self.fresh(f)?;
                if v.is_integer() {
                    self.cells.put(cell, v.num());
                }
                v
            }
        };
        primitive.checked_mul(f.content).ok_or(EvalError::Overflow)
    }
}

impl PlacementForms for Sections<'_> {
    fn flops(&mut self) -> Result<Rat, EvalError> {
        self.run(self.p.flops, FormCell::Flops)
    }

    fn footprint_lines(&mut self) -> Result<i128, EvalError> {
        match self.p.footprint {
            Some(f) => self
                .run(f, FormCell::Footprint)?
                .round_count()
                .ok_or(EvalError::Overflow),
            None => Ok(0),
        }
    }

    fn data_bytes(&mut self) -> Result<Rat, EvalError> {
        self.run(self.p.data_bytes, FormCell::DataBytes)
    }

    fn resident_lines(&mut self) -> Result<Rat, EvalError> {
        self.run(self.p.resident, FormCell::Resident)
    }

    fn streaming_bytes(&mut self) -> Result<Rat, EvalError> {
        self.run(self.p.streaming, FormCell::Streaming)
    }

    fn nest_traffic(&mut self, cap_bytes: u64) -> Result<BoundaryTraffic, EvalError> {
        let Some(nest) = &self.p.nest else {
            return Ok(BoundaryTraffic::default());
        };
        if let Some(t) = self.cells.nest(cap_bytes) {
            return Ok(t);
        }
        // the header and group sections are transient
        self.catch_up(self.p.prefix.len())?;
        let t = self
            .p
            .nest_traffic(nest, cap_bytes, self.s, &mut self.staged)?;
        self.cells.put_nest(cap_bytes, t);
        Ok(t)
    }
}

/// One kernel served on one machine: a shared [`PlacementProgram`]
/// plus the machine's ceilings. Pure data, `Send + Sync`, cheap to
/// clone, reusable from any worker thread.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// Drawn by [`CompiledKernel::attach`]; keys the placements an
    /// [`AnswerCache`] entry keeps. A clone shares it, and with it the
    /// program and ceilings.
    id: u64,
    machine: String,
    roof: CeilingFactors,
    program: Arc<PlacementProgram>,
}

impl CompiledKernel {
    /// Compile the placement program of one analyzed roofline
    /// ([`PlacementProgram::compile`]) and attach the given ceilings.
    pub fn build(
        kr: &KernelRoofline,
        c: &Ceilings,
        machine: &str,
    ) -> Result<CompiledKernel, BuildError> {
        let program = PlacementProgram::compile(kr)?;
        Ok(CompiledKernel::attach(Arc::new(program), c, machine))
    }

    /// Serve a compiled program on one machine — no analysis, no
    /// compilation. Answers equal [`KernelRoofline::place`] under `c`
    /// bit for bit when the program was analyzed under the machine's
    /// [`AnalysisKey`](mira_roofline::AnalysisKey). Each call draws a
    /// new attach id, so placements an [`AnswerCache`] kept for an
    /// earlier attach, even of the same program and ceilings, never
    /// answer for this one.
    pub fn attach(program: Arc<PlacementProgram>, c: &Ceilings, machine: &str) -> CompiledKernel {
        CompiledKernel {
            id: NEXT_ATTACH.fetch_add(1, Ordering::Relaxed),
            machine: machine.to_string(),
            roof: CeilingFactors::new(c),
            program,
        }
    }

    pub fn func(&self) -> &str {
        &self.program.func
    }

    pub fn machine(&self) -> &str {
        &self.machine
    }

    pub fn ceilings(&self) -> &Ceilings {
        self.roof.ceilings()
    }

    /// Parameter names, in [`Query::values`] binding order.
    pub fn params(&self) -> &[String] {
        self.program().params()
    }

    pub fn n_params(&self) -> usize {
        self.params().len()
    }

    pub fn program(&self) -> &EvalProgram {
        &self.program.program
    }

    /// Compiled [`KernelRoofline::place`] with by-name bindings — the
    /// differential-testing entry point, returning the tree walk's error
    /// type.
    pub fn place(&self, b: &Bindings, s: &mut Scratch) -> Result<Placement, EvalError> {
        self.program().bind(b, s);
        self.place_bound(s, &mut Cells::default())
    }

    /// Compiled placement with positional values (the serving hot path).
    pub fn place_values(&self, values: &[i128], s: &mut Scratch) -> Result<Placement, ServeError> {
        self.place_in(values, s, &mut Cells::default())
    }

    /// Placement with positional values over a table of the point's
    /// known values (an answer-cache entry or an empty table).
    fn place_in(
        &self,
        values: &[i128],
        s: &mut Scratch,
        cells: &mut Cells,
    ) -> Result<Placement, ServeError> {
        if !self.program().bind_positional(values, s) {
            return Err(ServeError::BadArity {
                expected: self.n_params(),
                got: values.len(),
            });
        }
        Ok(self.place_bound(s, cells)?)
    }

    /// The placement loop over the values already bound into `s`.
    fn place_bound(&self, s: &mut Scratch, cells: &mut Cells) -> Result<Placement, EvalError> {
        let mut forms = Sections {
            p: &self.program,
            s,
            cells,
            ran: 0,
            staged: false,
        };
        place_with(&self.roof, self.program.shape, &mut forms)
    }
}

/// Batches smaller than this answer serially even when the caller asks
/// for workers: at the measured serving rates (~0.5–1.5M queries/sec) a
/// sub-thousand-query batch finishes in under ~2 ms, where spawning and
/// joining scoped threads plus cold per-worker caches cost more than
/// the parallelism returns.
pub const SHARD_MIN_BATCH: usize = 1024;

/// A precompiled serving index over (kernel × machine) placement
/// models.
///
/// Kernels are compiled outside the index ([`CompiledKernel::build`])
/// and registered with [`ServeIndex::insert`] or
/// [`ServeIndex::replace`]. Entries are keyed by `(func, machine)`:
/// duplicate insertion is a typed refusal ([`BuildError::Duplicate`]),
/// never a silent shadow — `replace` is the explicit swap used by
/// hot-reload.
#[derive(Default)]
pub struct ServeIndex {
    kernels: Vec<CompiledKernel>,
    /// `(func, machine)` → slot in `kernels`. O(1) lookup, and the
    /// uniqueness invariant duplicate rejection relies on.
    by_key: HashMap<(String, String), u32>,
    /// Worker scratches, persistent across sharded batches — warm
    /// register files are the difference between sharding paying off
    /// and sharding being a per-batch re-warm-up tax.
    pool: Mutex<Vec<Scratch>>,
}

impl ServeIndex {
    pub fn new() -> ServeIndex {
        ServeIndex::default()
    }

    /// Admit a compiled kernel ([`CompiledKernel::build`] or
    /// [`CompiledKernel::attach`]). Refuses
    /// ([`BuildError::Duplicate`]) if its `(func, machine)` pair is
    /// already registered.
    pub fn insert(&mut self, k: CompiledKernel) -> Result<KernelId, BuildError> {
        let key = (k.func().to_string(), k.machine.clone());
        if self.by_key.contains_key(&key) {
            return Err(BuildError::Duplicate {
                func: key.0,
                machine: key.1,
            });
        }
        let slot = self.kernels.len() as u32;
        self.kernels.push(k);
        self.by_key.insert(key, slot);
        Ok(KernelId(slot))
    }

    /// Swap in a compiled kernel — the hot-reload path. The `(func,
    /// machine)` pair keeps its [`KernelId`], so queries built against
    /// the old kernel address the new one; a pair not yet registered is
    /// added. Answer caches need no notice: their entries are keyed by
    /// compiled program, the new kernel's own ceilings apply to whatever
    /// it reads from them, and its attach id matches no placement they
    /// kept for the old one. Build every replacement first, then swap: a
    /// failed build never unseats a serving kernel.
    pub fn replace(&mut self, k: CompiledKernel) -> KernelId {
        let key = (k.func().to_string(), k.machine.clone());
        match self.by_key.get(&key) {
            Some(&slot) => {
                self.kernels[slot as usize] = k;
                KernelId(slot)
            }
            None => {
                let slot = self.kernels.len() as u32;
                self.kernels.push(k);
                self.by_key.insert(key, slot);
                KernelId(slot)
            }
        }
    }

    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Look up an entry by kernel function and machine name — one hash
    /// probe, not a scan, so fleet-sized indexes route queries at the
    /// same cost as single-kernel ones.
    pub fn find(&self, func: &str, machine: &str) -> Option<KernelId> {
        self.by_key
            .get(&(func.to_string(), machine.to_string()))
            .map(|&slot| KernelId(slot))
    }

    pub fn kernel(&self, id: KernelId) -> Result<&CompiledKernel, ServeError> {
        self.kernels
            .get(id.0 as usize)
            .ok_or(ServeError::UnknownKernel)
    }

    pub fn kernels(&self) -> impl Iterator<Item = (KernelId, &CompiledKernel)> {
        self.kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (KernelId(i as u32), k))
    }

    /// Build a query, checking arity once up front.
    pub fn query(&self, id: KernelId, values: &[i128]) -> Result<Query, ServeError> {
        let k = self.kernel(id)?;
        if values.len() != k.n_params() {
            return Err(ServeError::BadArity {
                expected: k.n_params(),
                got: values.len(),
            });
        }
        let mut v = [0i128; MAX_QUERY_PARAMS];
        v[..values.len()].copy_from_slice(values);
        Ok(Query {
            kernel: id,
            values: v,
        })
    }

    /// Answer one query into a reusable scratch.
    pub fn place(&self, q: &Query, s: &mut Scratch) -> Result<Placement, ServeError> {
        let k = self.kernel(q.kernel)?;
        let vals = q.values.get(..k.n_params()).unwrap_or(&q.values[..]);
        k.place_values(vals, s)
    }

    /// Answer a batch single-threaded into `out` (cleared first). After
    /// warm-up — scratch sized, `out` at capacity — this path allocates
    /// nothing per query (pinned by the `no_alloc` test).
    pub fn run_batch(
        &self,
        qs: &[Query],
        s: &mut Scratch,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        let mut sp = probe::span("serve.query_batch", "serve");
        sp.arg("queries", qs.len());
        probe::add("serve.queries", qs.len() as i64);
        out.clear();
        out.reserve(qs.len());
        for q in qs {
            out.push(self.place(q, s));
        }
    }

    /// Take a worker scratch from the persistent pool (or start a fresh
    /// one). Pooled scratches keep their sized register files across
    /// batches, so repeated sharded calls never re-pay warm-up.
    fn pool_take(&self) -> Scratch {
        match self.pool.lock() {
            Ok(mut p) => p.pop().unwrap_or_default(),
            // a poisoned pool only costs a cold scratch, never an answer
            Err(_) => Scratch::new(),
        }
    }

    fn pool_put(&self, s: Scratch) {
        if let Ok(mut p) = self.pool.lock() {
            p.push(s);
        }
    }

    /// The worker count a sharded batch actually runs with: `1` (the
    /// serial path) below [`SHARD_MIN_BATCH`], otherwise the caller's
    /// request capped by the host's available parallelism — threads
    /// beyond the core count only add scheduling overhead (measured as
    /// a net *loss* on a single-core host) — and by the batch length.
    pub fn effective_workers(qs_len: usize, workers: usize) -> usize {
        if qs_len < SHARD_MIN_BATCH {
            return 1;
        }
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        workers.min(hw).clamp(1, qs_len)
    }

    /// Answer a batch sharded over scoped worker threads, each with its
    /// own pooled scratch, writing disjoint chunks of `out` — results
    /// are bit-identical to [`ServeIndex::run_batch`] in the same
    /// order. `workers` is a request, not a contract: batches below
    /// [`SHARD_MIN_BATCH`] degrade to the serial path, and the count is
    /// capped at the host's available parallelism (see
    /// [`ServeIndex::effective_workers`]), so sharding is never slower
    /// than not sharding. [`ServeIndex::run_batch_sharded_exact`]
    /// bypasses the policy for differential testing.
    pub fn run_batch_sharded(
        &self,
        qs: &[Query],
        workers: usize,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        self.shard_exec(qs, Self::effective_workers(qs.len(), workers), out);
    }

    /// Answer a batch sharded over *exactly* `workers` scoped threads
    /// (clamped only to the batch length) — no minimum-batch or
    /// core-count policy. The differential-testing entry point: answers
    /// must be bit-identical at any worker count.
    pub fn run_batch_sharded_exact(
        &self,
        qs: &[Query],
        workers: usize,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        self.shard_exec(qs, workers.clamp(1, qs.len().max(1)), out);
    }

    fn shard_exec(
        &self,
        qs: &[Query],
        workers: usize,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        let mut sp = probe::span("serve.query_batch", "serve");
        sp.arg("queries", qs.len());
        probe::add("serve.queries", qs.len() as i64);
        out.clear();
        if qs.is_empty() {
            return;
        }
        sp.arg("workers", workers);
        if workers == 1 {
            let mut s = self.pool_take();
            for q in qs {
                out.push(self.place(q, &mut s));
            }
            self.pool_put(s);
            return;
        }
        // placeholder immediately overwritten: the chunk split below
        // covers every slot exactly once
        out.resize(qs.len(), Err(ServeError::UnknownKernel));
        let chunk = qs.len().div_ceil(workers);
        std::thread::scope(|sc| {
            for (qc, oc) in qs.chunks(chunk).zip(out.chunks_mut(chunk)) {
                sc.spawn(move || {
                    let mut s = self.pool_take();
                    for (q, slot) in qc.iter().zip(oc.iter_mut()) {
                        *slot = self.place(q, &mut s);
                    }
                    self.pool_put(s);
                });
            }
        });
    }

    /// Answer one query through `cache`. The cache entry of the
    /// kernel's compiled program at these values answers with the
    /// placement it keeps for the kernel's attach id, if any; otherwise
    /// the placement loop runs under the kernel's ceilings over the
    /// entry, running sections only for values it does not hold yet, and
    /// an `Ok` answer is kept. Placements *and* refusals are
    /// bit-identical to [`ServeIndex::place`]. Every machine the program
    /// is attached to shares the entry's values, and nothing can go
    /// stale: a [`ServeIndex::replace`] or fleet reload attaches a
    /// program to new ceilings under a new id or brings a new program,
    /// never changes one.
    pub fn place_cached(
        &self,
        q: &Query,
        cache: &mut AnswerCache,
        s: &mut Scratch,
    ) -> Result<Placement, ServeError> {
        let k = self.kernel(q.kernel)?;
        // key on the *live* values only: slots past the kernel's arity
        // are ignored by place, so they must not split entries
        let vals = q.values.get(..k.n_params()).unwrap_or(&q.values[..]);
        cache.place(k.program.id, k.id, vals, |cells| k.place_in(vals, s, cells))
    }

    /// [`ServeIndex::run_batch`] through an answer cache.
    pub fn run_batch_cached(
        &self,
        qs: &[Query],
        cache: &mut AnswerCache,
        s: &mut Scratch,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        let mut sp = probe::span("serve.query_batch", "serve");
        sp.arg("queries", qs.len());
        probe::add("serve.queries", qs.len() as i64);
        out.clear();
        out.reserve(qs.len());
        for q in qs {
            out.push(self.place_cached(q, cache, s));
        }
    }

    /// Stream a parameter sweep: `(value, answer)` for every value of
    /// `param` in `[lo, hi]`, other parameters fixed at `base`. Constant
    /// memory — one scratch, answers yielded as computed.
    pub fn sweep<'a>(
        &'a self,
        id: KernelId,
        param: &str,
        base: &[i128],
        lo: i128,
        hi: i128,
    ) -> Result<Sweep<'a>, ServeError> {
        let k = self.kernel(id)?;
        if base.len() != k.n_params() {
            return Err(ServeError::BadArity {
                expected: k.n_params(),
                got: base.len(),
            });
        }
        let slot = k
            .params()
            .iter()
            .position(|p| p == param)
            .ok_or_else(|| ServeError::UnknownParam(param.to_string()))?;
        let mut values = [0i128; MAX_QUERY_PARAMS];
        values[..base.len()].copy_from_slice(base);
        Ok(Sweep {
            kernel: k,
            slot,
            values,
            next: Some(lo),
            hi,
            scratch: Scratch::new(),
        })
    }

    /// Solve the regime crossover of `param` in `[lo, hi]` with the
    /// compiled evaluator — the same bisection core
    /// ([`mira_roofline::crossover_bisect`]) as the tree walk's
    /// [`KernelRoofline::crossover`], so any answer difference can only
    /// come from the evaluator, which the differential tests pin.
    pub fn crossover(
        &self,
        id: KernelId,
        param: &str,
        base: &[i128],
        lo: i128,
        hi: i128,
    ) -> Result<Option<Crossover>, ServeError> {
        let mut s = self.pool_take();
        let r = self.crossover_with(id, param, base, lo, hi, &mut s);
        self.pool_put(s);
        r
    }

    /// [`ServeIndex::crossover`] into a caller scratch — the reusable
    /// core the table pass drives with persistent per-worker scratches.
    pub fn crossover_with(
        &self,
        id: KernelId,
        param: &str,
        base: &[i128],
        lo: i128,
        hi: i128,
        s: &mut Scratch,
    ) -> Result<Option<Crossover>, ServeError> {
        let k = self.kernel(id)?;
        // bind the arity-checked values once; each bisection step then
        // rebinds only the swept slot and places through the typed loop
        if !k.program().bind_positional(base, s) {
            return Err(ServeError::BadArity {
                expected: k.n_params(),
                got: base.len(),
            });
        }
        let slot = k
            .params()
            .iter()
            .position(|p| p == param)
            .ok_or_else(|| ServeError::UnknownParam(param.to_string()))?;
        crossover_bisect(lo, hi, |v| {
            s.set_value(slot, v);
            Ok(k.place_bound(s, &mut Cells::default())?.binding)
        })
        .map_err(ServeError::Eval)
    }

    /// Solve the `param` regime crossover of **every** kernel × machine
    /// entry in one sharded pass: each pair's base values come from
    /// `defaults` (unlisted parameters bind 1), the bisection window is
    /// `[lo, hi]`, and rows come back in [`KernelId`] order regardless
    /// of the worker count. Pairs without `param` report a typed
    /// [`ServeError::UnknownParam`] row, not an error for the table.
    ///
    /// Sharding follows the batch policy (each bisection costs about
    /// `2 + log2(hi - lo)` placements, which is what the threshold
    /// counts): small tables run serially, worker counts cap at the
    /// host's parallelism, and every worker keeps a persistent pooled
    /// scratch — the same fixes that made
    /// [`ServeIndex::run_batch_sharded`] a win instead of a tax.
    pub fn crossover_table(
        &self,
        param: &str,
        defaults: &[(&str, i128)],
        lo: i128,
        hi: i128,
        workers: usize,
    ) -> Vec<CrossoverRow> {
        let mut sp = probe::span("serve.crossover_table", "serve");
        sp.arg("pairs", self.kernels.len());
        let ids: Vec<KernelId> = self.kernels().map(|(id, _)| id).collect();
        let bases: Vec<Vec<i128>> = ids
            .iter()
            .map(|&id| self.default_base(id, defaults))
            .collect();
        // window width → placements per bisection, so the shard policy
        // prices a table row like the batch of queries it really is
        let per_pair = 2 + (128 - hi.abs_diff(lo).max(1).leading_zeros() as usize);
        let workers = Self::effective_workers(ids.len().saturating_mul(per_pair), workers);
        sp.arg("workers", workers);
        let mut rows: Vec<Option<CrossoverRow>> = vec![None; ids.len()];
        if workers == 1 {
            let mut s = self.pool_take();
            for (i, slot) in rows.iter_mut().enumerate() {
                *slot = Some(self.table_row(ids[i], param, &bases[i], lo, hi, &mut s));
            }
            self.pool_put(s);
        } else {
            let chunk = ids.len().div_ceil(workers);
            std::thread::scope(|sc| {
                for ((idc, basec), rowc) in ids
                    .chunks(chunk)
                    .zip(bases.chunks(chunk))
                    .zip(rows.chunks_mut(chunk))
                {
                    sc.spawn(move || {
                        let mut s = self.pool_take();
                        for ((id, base), slot) in idc.iter().zip(basec.iter()).zip(rowc.iter_mut())
                        {
                            *slot = Some(self.table_row(*id, param, base, lo, hi, &mut s));
                        }
                        self.pool_put(s);
                    });
                }
            });
        }
        rows.into_iter().flatten().collect()
    }

    /// Base values for a kernel from a `(name, value)` default list;
    /// parameters not listed bind 1.
    fn default_base(&self, id: KernelId, defaults: &[(&str, i128)]) -> Vec<i128> {
        match self.kernel(id) {
            Ok(k) => k
                .params()
                .iter()
                .map(|p| {
                    defaults
                        .iter()
                        .find(|(name, _)| name == p)
                        .map(|(_, v)| *v)
                        .unwrap_or(1)
                })
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    fn table_row(
        &self,
        id: KernelId,
        param: &str,
        base: &[i128],
        lo: i128,
        hi: i128,
        s: &mut Scratch,
    ) -> CrossoverRow {
        let (func, machine) = match self.kernel(id) {
            Ok(k) => (k.func().to_string(), k.machine.clone()),
            Err(_) => (String::new(), String::new()),
        };
        CrossoverRow {
            kernel: id,
            func,
            machine,
            result: self.crossover_with(id, param, base, lo, hi, s),
        }
    }
}

/// One row of [`ServeIndex::crossover_table`]: where (if anywhere) this
/// kernel × machine pair changes regime in the searched window.
#[derive(Clone, PartialEq, Debug)]
pub struct CrossoverRow {
    pub kernel: KernelId,
    pub func: String,
    pub machine: String,
    /// The bisected crossover (`None` when the binding never changes in
    /// the window), or the typed refusal — a kernel without the swept
    /// parameter reports [`ServeError::UnknownParam`] here.
    pub result: Result<Option<Crossover>, ServeError>,
}

/// Streaming parameter sweep over one kernel (see
/// [`ServeIndex::sweep`]).
pub struct Sweep<'a> {
    kernel: &'a CompiledKernel,
    slot: usize,
    values: [i128; MAX_QUERY_PARAMS],
    /// The next value to place; `None` once `hi = i128::MAX` was placed.
    next: Option<i128>,
    hi: i128,
    scratch: Scratch,
}

impl Iterator for Sweep<'_> {
    type Item = (i128, Result<Placement, ServeError>);

    fn next(&mut self) -> Option<Self::Item> {
        let v = self.next.filter(|&v| v <= self.hi)?;
        self.next = v.checked_add(1);
        self.values[self.slot] = v;
        let n = self.kernel.n_params();
        Some((
            v,
            self.kernel
                .place_values(&self.values[..n], &mut self.scratch),
        ))
    }
}
