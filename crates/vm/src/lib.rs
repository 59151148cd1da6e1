//! # mira-vm — the instrumented VX86 interpreter (TAU/PAPI stand-in)
//!
//! The paper validates Mira's statically generated models against dynamic
//! measurements: TAU instrumentation reading `PAPI_FP_INS` while the real
//! binary runs (§IV). Our dynamic baseline is this interpreter: it executes
//! a compiled [`Object`] and counts every retired instruction per
//! 64-category taxonomy, attributed per function both *exclusively* (only
//! while the function is the innermost frame) and *inclusively* (whenever
//! it is anywhere on the call stack — the TAU profile convention used in
//! Table V, where `cg_solve` includes its callees), plus per source line.
//!
//! Crucially, the VM executes *everything*, including the libm bodies that
//! static analysis cannot see — reproducing the paper's static-vs-dynamic
//! error sources instead of faking them.
//!
//! ## Execution engine: block dispatch + fold-on-pop accounting
//!
//! Dynamic validation has to keep up with the workloads it validates, so
//! the engine is built for throughput while producing **bit-identical**
//! profiles to a naive per-step interpreter (kept as
//! [`reference::ReferenceVm`] and pinned by differential tests):
//!
//! * **Pre-resolved dispatch.** At load time the program is decoded once
//!   and partitioned into basic blocks
//!   ([`mira_vobj::blocks::basic_blocks`]); every jump target, branch
//!   fall-through and call return point is resolved from a byte address to
//!   a block index. The hot loop never consults the address→index map —
//!   only indirect control flow (a `ret` whose return address was not the
//!   one its `call` pushed) falls back to address translation, and then to
//!   a per-instruction slow tier that can resume mid-block.
//!
//! * **Block-granular attribution.** Each block carries a sparse
//!   `(category, count)` vector and a `(line, category, count)` vector
//!   aggregated at load time. A straight-line run is attributed with
//!   per-block counter bumps instead of per-instruction scatter; the
//!   vectors are multiplied in only where a sum is read. If an
//!   instruction faults mid-block, only the retired prefix is attributed,
//!   preserving the per-step semantics exactly.
//!
//! * **Fold-on-pop inclusive profiles.** The seed interpreter updated the
//!   inclusive counters of *every* frame on the call stack at *every*
//!   retired instruction — O(depth × steps), quadratic-ish exactly where
//!   Table V needs deep call chains (`cg_solve` → `matvec` → libm). The
//!   engine instead keeps one cumulative retirement vector; a frame
//!   snapshots it on call and, when it pops, adds the delta to its
//!   function's inclusive counters (the TAU fold-on-pop scheme). Cost:
//!   O(steps + calls × categories), with recursion double-counting
//!   reproduced exactly (each frame folds its own delta). Block
//!   executions reach that vector late: each bumps a pending count, and
//!   the pending counts are multiplied in at frame boundaries, just
//!   before a frame snapshots or folds it. Exclusive and per-line
//!   counters are deferred further: the fast path bumps a per-block
//!   execution counter, and [`Vm::profile`] materializes the scatter
//!   lazily from the per-block vectors.
//!
//! * **µop bodies.** Block bodies are pre-translated into a micro-op
//!   stream (`uop`) with dedicated handlers for the scalar instructions
//!   the compiler emits and two-way fusion of the adjacent pairs that
//!   dominate the benchmark kernels (`Load+Load`, `imul+add`,
//!   `FLoad+FP-op`, …), cutting dispatches per retired instruction well
//!   below one. `bench_vm` (in `mira-bench`) records the speedup over
//!   the per-step reference loop in `BENCH_vm.json` (2.3–3.1× at the
//!   committed sizes).

pub mod profile;
pub mod reference;

mod loader;
mod machine;
mod uop;

pub use profile::{FuncProfile, Profile};

use loader::{Image, InstMeta};
use machine::{Ctl, Machine};
use mira_arch::Category;
use mira_isa::{Cc, Inst};
use mira_vobj::{ObjError, Object};
use std::fmt;
use std::rc::Rc;
use uop::Uop;

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Total memory size in bytes (heap grows up from the guard page,
    /// stack grows down from the top).
    pub mem_size: usize,
    /// Abort after this many executed instructions.
    pub max_steps: u64,
    /// Memory profiling: simulate this cache hierarchy on the explicit
    /// load/store path (`mira_mem::CacheSim`), counting per-level
    /// hits/misses and load/store bytes. `None` (the default) keeps the
    /// simulator entirely off the hot path. Profiles are bit-identical
    /// either way; [`Vm::mem_stats`] exposes the counts.
    pub mem_profile: Option<mira_arch::CacheHierarchy>,
    /// Block-level execution profiling: expose per-block retired-step
    /// histograms ([`Vm::block_stats`]) and µop fusion hit/miss rates
    /// ([`Vm::fusion_stats`]). Costs nothing on the hot path — both
    /// reports are materialized on demand from the per-block execution
    /// counters the engine maintains anyway — so this flag only gates
    /// the reporting surface. Profiles are bit-identical either way.
    pub block_profile: bool,
}

impl Default for VmOptions {
    fn default() -> Self {
        VmOptions {
            mem_size: 256 << 20,
            max_steps: u64::MAX,
            mem_profile: None,
            block_profile: false,
        }
    }
}

/// Runtime errors.
#[derive(Clone, PartialEq, Debug)]
pub enum VmError {
    Object(String),
    NoSuchFunction(String),
    /// Call to an extern symbol with no body in the object.
    UnresolvedExtern(String),
    /// Out-of-bounds or unaligned-beyond-repair access.
    Fault {
        addr: u64,
        len: usize,
    },
    DivByZero,
    StackOverflow,
    StepLimit,
    /// Jump to an address that is not an instruction boundary.
    WildJump(u32),
    /// A `ret` consumed the host entry frame but the popped return
    /// address was not the host sentinel — a handcrafted or corrupted
    /// object returning past the frame the host pushed.
    FrameUnderflow,
    /// Too many / unsupported argument kinds in a host call.
    BadCall(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Object(e) => write!(f, "bad object: {e}"),
            VmError::NoSuchFunction(n) => write!(f, "no such function `{n}`"),
            VmError::UnresolvedExtern(n) => write!(f, "call to unresolved extern `{n}`"),
            VmError::Fault { addr, len } => write!(f, "memory fault at {addr:#x} (+{len})"),
            VmError::DivByZero => write!(f, "integer division by zero"),
            VmError::StackOverflow => write!(f, "stack overflow"),
            VmError::StepLimit => write!(f, "instruction budget exhausted"),
            VmError::WildJump(a) => write!(f, "jump to non-instruction address {a:#x}"),
            VmError::FrameUnderflow => write!(f, "return past the host entry frame"),
            VmError::BadCall(m) => write!(f, "bad host call: {m}"),
        }
    }
}

impl std::error::Error for VmError {}

impl From<ObjError> for VmError {
    fn from(e: ObjError) -> VmError {
        VmError::Object(e.to_string())
    }
}

/// Host-side argument / return values for [`Vm::call`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum HostVal {
    Int(i64),
    Fp(f64),
}

/// Return-address marker for the host→VM entry frame.
pub(crate) const SENTINEL: u64 = u64::MAX;

/// How a basic block hands control onward. Every `block` field is a
/// pre-resolved block index (`u32::MAX` when the destination is not a
/// known block entry — a wild edge, resolved through the address map at
/// run time); every `addr` field is the original byte address, kept for
/// `WildJump` diagnostics and the VM-visible return-address push.
#[derive(Clone, Copy, Debug)]
enum Term {
    /// No terminator instruction: execution falls into the next leader.
    Fall {
        block: u32,
        addr: u32,
    },
    Jump {
        block: u32,
        addr: u32,
    },
    Branch {
        cc: Cc,
        target_block: u32,
        target_addr: u32,
        fall_block: u32,
        fall_addr: u32,
    },
    Call {
        sym: u32,
        ret_block: u32,
        ret_addr: u32,
    },
    Ret,
    Halt,
}

/// One basic block: a straight-line instruction range plus its aggregated
/// attribution vectors and pre-resolved successor(s).
struct Block {
    /// First instruction index.
    start: u32,
    /// Function that owns this block's instructions.
    func: u16,
    /// Retired instructions per full execution of the block (body +
    /// terminator).
    nsteps: u32,
    /// Range of this block's body translation in the flat µop stream.
    uops: (u32, u32),
    term: Term,
    /// Sparse per-category retirement counts for one full execution.
    cats: Box<[(u8, u32)]>,
    /// Sparse `(line slot, category, count)` for one full execution.
    lines: Box<[(u32, u8, u32)]>,
}

/// One live call frame: which function, where its `ret` should resume, and
/// the cumulative-retirement snapshot taken when it was pushed (folded into
/// the function's inclusive counters when the frame pops).
struct Frame {
    func: u16,
    /// The return address pushed on the VM stack (SENTINEL for the host
    /// entry frame).
    ret_addr: u64,
    /// Pre-resolved block index of the return point, or `u32::MAX`.
    ret_block: u32,
    snap: [u64; Category::COUNT],
}

/// Where execution currently stands: a pre-resolved block entry (fast
/// path) or a bare instruction index (slow tier — mid-block entries and
/// step-limit endgames).
#[derive(Clone, Copy)]
enum Cursor {
    Block(u32),
    Inst(usize),
}

/// The interpreter.
pub struct Vm {
    img: Image,
    code: Rc<[Inst]>,
    meta: Rc<[InstMeta]>,
    /// Flat µop translation of all block bodies (see [`uop`]).
    uops: Rc<[Uop]>,
    blocks: Rc<[Block]>,
    /// instruction index → block index where a block starts there, else
    /// `u32::MAX`.
    block_of: Rc<[u32]>,
    /// function index → entry block index (`u32::MAX` for empty symbols).
    func_entry_block: Vec<u32>,
    m: Machine,
    options: VmOptions,
    // counters
    excl: Vec<[u64; Category::COUNT]>,
    incl: Vec<[u64; Category::COUNT]>,
    calls: Vec<u64>,
    line_counts: Vec<[u64; Category::COUNT]>,
    /// Cumulative retirements per category since the last counter reset —
    /// the vector frames snapshot for fold-on-pop inclusive accounting.
    /// The slow tier and faulting prefixes add to it directly; fast-path
    /// block executions wait in `pending` and are folded in by
    /// [`Vm::fold_pending`] right before a frame snapshots `cum` or folds
    /// its delta, the only places it is read.
    cum: [u64; Category::COUNT],
    /// Fast-path executions per block not yet multiplied into `cum`.
    pending: Vec<u64>,
    /// The blocks with a nonzero `pending` count, each listed once. Its
    /// capacity is the block count, so listing never allocates.
    pending_blocks: Vec<u32>,
    /// Fast-path executions per block; exclusive and per-line counters are
    /// materialized from these lazily in [`Vm::profile`], so the hot loop
    /// pays one increment instead of a sparse scatter.
    n_exec: Vec<u64>,
    steps: u64,
    /// Instructions retired through the per-instruction slow tier
    /// (mid-block resumption, step-limit endgames, wild edges) — the
    /// fallback volume [`Vm::slow_steps`] reports.
    slow_steps: u64,
}

/// One row of the per-block execution histogram ([`Vm::block_stats`]).
#[derive(Clone, Debug)]
pub struct BlockStat {
    /// Owning function's name.
    pub func: String,
    /// Byte address of the block's first instruction.
    pub addr: u32,
    /// Lowest source line attributed inside the block, when any.
    pub line: Option<u32>,
    /// Fast-path executions of the whole block.
    pub execs: u64,
    /// Instructions retired by those executions.
    pub steps: u64,
    /// µop dispatches per execution × executions.
    pub uops: u64,
    /// Of those dispatches, how many were fused pairs (one dispatch
    /// retiring two instructions).
    pub fused_uops: u64,
}

/// Aggregate µop fusion rates ([`Vm::fusion_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct FusionStats {
    /// Total µop dispatches on the fast path.
    pub dispatches: u64,
    /// Dispatches that retired a fused pair (two instructions).
    pub fused: u64,
    /// Instructions retired via the fast path µop stream.
    pub fast_insts: u64,
}

impl FusionStats {
    /// Fraction of fast-path instructions retired through fused pairs.
    pub fn fused_inst_rate(&self) -> f64 {
        if self.fast_insts == 0 {
            0.0
        } else {
            (2 * self.fused) as f64 / self.fast_insts as f64
        }
    }
}

impl Vm {
    /// Load an object into a fresh VM: decode, partition into basic
    /// blocks, pre-resolve all control-flow edges and aggregate per-block
    /// attribution vectors.
    pub fn load(obj: &Object, options: VmOptions) -> Result<Vm, VmError> {
        let _sp = mira_probe::span("vm.load", "vm");
        let mut img = Image::decode(obj)?;

        let stream: Vec<(u32, Inst)> = img
            .addrs
            .iter()
            .copied()
            .zip(img.code.iter().copied())
            .collect();
        let ranges = mira_vobj::blocks::basic_blocks(&stream, &img.func_addrs);

        let mut block_of = vec![u32::MAX; img.code.len()];
        for (bi, r) in ranges.iter().enumerate() {
            block_of[r.start] = bi as u32;
        }
        let resolve_block = |addr: u32| -> u32 {
            match img.addr_map.get(addr as usize) {
                Some(&idx) if idx != u32::MAX => block_of[idx as usize],
                _ => u32::MAX,
            }
        };

        let mut blocks = Vec::with_capacity(ranges.len());
        let mut uops: Vec<Uop> = Vec::new();
        for r in &ranges {
            let last = r.end - 1;
            let (term, term_idx) = match img.code[last] {
                Inst::Jmp(t) => (
                    Term::Jump {
                        block: resolve_block(t),
                        addr: t,
                    },
                    last,
                ),
                Inst::Jcc(cc, t) => {
                    let fall = img.meta[last].next_addr;
                    (
                        Term::Branch {
                            cc,
                            target_block: resolve_block(t),
                            target_addr: t,
                            fall_block: resolve_block(fall),
                            fall_addr: fall,
                        },
                        last,
                    )
                }
                Inst::Call(sym) => {
                    let ret = img.meta[last].next_addr;
                    (
                        Term::Call {
                            sym,
                            ret_block: resolve_block(ret),
                            ret_addr: ret,
                        },
                        last,
                    )
                }
                Inst::Ret => (Term::Ret, last),
                Inst::Halt => (Term::Halt, last),
                _ => {
                    let next = img.meta[last].next_addr;
                    (
                        Term::Fall {
                            block: resolve_block(next),
                            addr: next,
                        },
                        r.end,
                    )
                }
            };

            let mut cat_counts = [0u32; Category::COUNT];
            let mut line_agg: Vec<(u32, u8, u32)> = Vec::new();
            for md in &img.meta[r.start..r.end] {
                cat_counts[md.category as usize] += 1;
                if md.line_slot != u32::MAX {
                    match line_agg
                        .iter_mut()
                        .find(|(s, c, _)| *s == md.line_slot && *c == md.category)
                    {
                        Some(e) => e.2 += 1,
                        None => line_agg.push((md.line_slot, md.category, 1)),
                    }
                }
            }
            let cats: Box<[(u8, u32)]> = cat_counts
                .iter()
                .enumerate()
                .filter(|(_, n)| **n != 0)
                .map(|(c, n)| (c as u8, *n))
                .collect();

            let uop_start = uops.len() as u32;
            uops.extend(uop::translate_body(&img.code[r.start..term_idx]));
            blocks.push(Block {
                start: r.start as u32,
                // blocks never span functions, so the block's function is
                // its first instruction's
                func: img.meta[r.start].func,
                nsteps: (r.end - r.start) as u32,
                uops: (uop_start, uops.len() as u32),
                term,
                cats,
                lines: line_agg.into_boxed_slice(),
            });
        }

        let nfuncs = img.func_names.len();
        let nlines = img.line_keys.len();
        let nblocks = blocks.len();
        let func_entry_block: Vec<u32> = img.func_addrs.iter().map(|&a| resolve_block(a)).collect();
        let code: Rc<[Inst]> = std::mem::take(&mut img.code).into();
        let meta: Rc<[InstMeta]> = std::mem::take(&mut img.meta).into();
        let mut m = Machine::new(options.mem_size);
        m.sim = options
            .mem_profile
            .map(|h| Box::new(mira_mem::CacheSim::new(h)));
        Ok(Vm {
            code,
            meta,
            uops: uops.into(),
            blocks: blocks.into(),
            block_of: block_of.into(),
            func_entry_block,
            m,
            options,
            excl: vec![[0; Category::COUNT]; nfuncs],
            incl: vec![[0; Category::COUNT]; nfuncs],
            calls: vec![0; nfuncs],
            line_counts: vec![[0; Category::COUNT]; nlines],
            cum: [0; Category::COUNT],
            pending: vec![0; nblocks],
            pending_blocks: Vec::with_capacity(nblocks),
            n_exec: vec![0; nblocks],
            steps: 0,
            slow_steps: 0,
            img,
        })
    }

    /// Convenience: compile-free loading plus default options.
    pub fn new(obj: &Object) -> Result<Vm, VmError> {
        Vm::load(obj, VmOptions::default())
    }

    // ---- host heap ----

    /// Allocate and initialize an array of doubles; returns its address.
    pub fn alloc_f64(&mut self, data: &[f64]) -> u64 {
        self.m.alloc_f64(data)
    }

    /// Allocate and initialize an array of i64s; returns its address.
    pub fn alloc_i64(&mut self, data: &[i64]) -> u64 {
        self.m.alloc_i64(data)
    }

    /// Allocate zeroed space for `n` doubles.
    pub fn alloc_zeroed_f64(&mut self, n: usize) -> u64 {
        self.m.alloc_zeroed_f64(n)
    }

    /// Read back `n` doubles from memory.
    pub fn read_f64(&self, addr: u64, n: usize) -> Vec<f64> {
        self.m.read_f64(addr, n)
    }

    /// Read back `n` i64s from memory.
    pub fn read_i64(&self, addr: u64, n: usize) -> Vec<i64> {
        self.m.read_i64(addr, n)
    }

    // ---- profiling access ----

    pub fn profile(&self) -> Profile {
        // materialize the deferred fast-path attribution: each block
        // execution contributes its aggregated category and line vectors
        // to its owning function's exclusive counters
        let mut excl = self.excl.clone();
        let mut line_counts = self.line_counts.clone();
        for (b, &n) in self.n_exec.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let blk = &self.blocks[b];
            let f = blk.func as usize;
            for &(c, k) in blk.cats.iter() {
                excl[f][c as usize] += n * k as u64;
            }
            for &(slot, c, k) in blk.lines.iter() {
                line_counts[slot as usize][c as usize] += n * k as u64;
            }
        }
        Profile::build(
            &self.img.func_names,
            &excl,
            &self.incl,
            &self.calls,
            &self.img.line_keys,
            &line_counts,
        )
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Instructions retired through the per-instruction slow tier since
    /// the last counter reset. High values mean the fast path is being
    /// bypassed (tight step limits, wild control flow).
    pub fn slow_steps(&self) -> u64 {
        self.slow_steps
    }

    /// Per-block execution histogram, hottest (most retired steps) first.
    /// `None` unless [`VmOptions::block_profile`] is set. Counts cover
    /// fast-path block executions (the slow tier and cross-function
    /// fall-throughs attribute per instruction and are reported in
    /// aggregate by [`Vm::slow_steps`]).
    pub fn block_stats(&self) -> Option<Vec<BlockStat>> {
        if !self.options.block_profile {
            return None;
        }
        let mut out: Vec<BlockStat> = Vec::new();
        for (b, &n) in self.n_exec.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let blk = &self.blocks[b];
            let (us, ue) = (blk.uops.0 as usize, blk.uops.1 as usize);
            let uop_count = (ue - us) as u64;
            let fused = self.uops[us..ue].iter().filter(|u| u.width() == 2).count() as u64;
            let line = blk
                .lines
                .iter()
                .map(|&(slot, _, _)| self.img.line_keys[slot as usize].1)
                .min();
            out.push(BlockStat {
                func: self.img.func_names[blk.func as usize].clone(),
                addr: self.img.addrs[blk.start as usize],
                line,
                execs: n,
                steps: n * blk.nsteps as u64,
                uops: n * uop_count,
                fused_uops: n * fused,
            });
        }
        out.sort_by(|a, b| b.steps.cmp(&a.steps).then(a.addr.cmp(&b.addr)));
        Some(out)
    }

    /// Aggregate µop fusion hit/miss rates over everything retired on the
    /// fast path. `None` unless [`VmOptions::block_profile`] is set.
    pub fn fusion_stats(&self) -> Option<FusionStats> {
        if !self.options.block_profile {
            return None;
        }
        let mut s = FusionStats::default();
        for (b, &n) in self.n_exec.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let blk = &self.blocks[b];
            let (us, ue) = (blk.uops.0 as usize, blk.uops.1 as usize);
            let mut fused = 0u64;
            let mut insts = 0u64;
            for u in &self.uops[us..ue] {
                let w = u.width() as u64;
                insts += w;
                if w == 2 {
                    fused += 1;
                }
            }
            s.dispatches += n * (ue - us) as u64;
            s.fused += n * fused;
            // terminator retires outside the µop stream
            s.fast_insts += n * insts;
        }
        Some(s)
    }

    /// Memory-profiling counters, when `VmOptions::mem_profile` is on.
    pub fn mem_stats(&self) -> Option<mira_mem::MemStats> {
        self.m.sim.as_ref().map(|s| s.stats())
    }

    /// Write back every dirty line still resident in the simulated caches
    /// (see `mira_mem::CacheSim::flush`). Call before [`Vm::mem_stats`]
    /// when end-of-run store traffic must be on the books — e.g. before
    /// placing a kernel on a roofline, where the results it produced have
    /// to reach memory eventually. No-op without memory profiling.
    pub fn flush_mem(&mut self) {
        if let Some(sim) = self.m.sim.as_deref_mut() {
            sim.flush();
        }
    }

    /// Reset all counters (not memory) — e.g. to skip setup phases. The
    /// cache simulator (if any) goes back to a *cold* cache, so counts
    /// after a reset match the static cold-cache predictions.
    pub fn reset_counters(&mut self) {
        for c in self.excl.iter_mut().chain(self.incl.iter_mut()) {
            *c = [0; Category::COUNT];
        }
        for c in self.line_counts.iter_mut() {
            *c = [0; Category::COUNT];
        }
        self.calls.iter_mut().for_each(|c| *c = 0);
        self.n_exec.iter_mut().for_each(|c| *c = 0);
        self.pending.iter_mut().for_each(|c| *c = 0);
        self.pending_blocks.clear();
        self.cum = [0; Category::COUNT];
        self.steps = 0;
        self.slow_steps = 0;
        if let Some(sim) = self.m.sim.as_deref_mut() {
            sim.reset();
        }
    }

    // ---- execution ----

    /// Call a function by name with the given arguments; returns `r0`/`x0`
    /// (the caller picks the interpretation via the function's return
    /// type).
    pub fn call(&mut self, name: &str, args: &[HostVal]) -> Result<HostVal, VmError> {
        let mut sp = mira_probe::span("vm.call", "vm");
        let steps_before = self.steps;
        let fidx = *self
            .img
            .func_index
            .get(name)
            .ok_or_else(|| VmError::NoSuchFunction(name.to_string()))? as usize;
        let entry = self.img.func_addrs[fidx];

        // ABI argument placement + sentinel return address, then the host
        // entry frame
        self.m.place_args(args)?;
        self.fold_pending();
        let mut frames = vec![Frame {
            func: fidx as u16,
            ret_addr: SENTINEL,
            ret_block: u32::MAX,
            snap: self.cum,
        }];
        self.calls[fidx] += 1;

        let eb = self.func_entry_block[fidx];
        let result = if eb != u32::MAX {
            self.run(Cursor::Block(eb), &mut frames)
        } else {
            // empty or undecodable entry: fail exactly as the seed did
            match self.img.addr_to_idx(entry) {
                Ok(ip) => self.run(Cursor::Inst(ip), &mut frames),
                Err(e) => Err(e),
            }
        };
        // fold every frame still live — on normal exit, Halt, or error —
        // so inclusive counters cover all retired instructions exactly as
        // the per-step scheme would have accumulated them
        while let Some(fr) = frames.pop() {
            self.fold_frame(&fr);
        }
        sp.arg("func", name);
        sp.arg("steps", self.steps - steps_before);
        result?;

        // integer return in r0; fp return in x0 — expose both via HostVal
        // pairs: the caller knows the signature, so return Int and provide
        // `fp_return` for doubles.
        Ok(HostVal::Int(self.m.regs[0]))
    }

    /// The FP return value of the last call (lane 0 of `x0`).
    pub fn fp_return(&self) -> f64 {
        self.m.xmm[0][0]
    }

    /// The integer return value of the last call.
    pub fn int_return(&self) -> i64 {
        self.m.regs[0]
    }

    /// The dispatch loop. A [`Cursor::Block`] with enough step budget runs
    /// the block fast path; everything else (mid-block entries after a
    /// tampered return address, or the last instructions before the step
    /// limit) drops to the per-instruction slow tier that mirrors the seed
    /// interpreter one step at a time.
    fn run(&mut self, mut cur: Cursor, frames: &mut Vec<Frame>) -> Result<(), VmError> {
        let code = Rc::clone(&self.code);
        let meta = Rc::clone(&self.meta);
        let uops = Rc::clone(&self.uops);
        let blocks = Rc::clone(&self.blocks);
        let block_of = Rc::clone(&self.block_of);
        let max_steps = self.options.max_steps;
        loop {
            let ip = match cur {
                Cursor::Block(b) => {
                    let blk = &blocks[b as usize];
                    if max_steps - self.steps >= blk.nsteps as u64 {
                        // fast path: straight-line µop body, then one
                        // aggregated attribution, then the pre-resolved
                        // terminator
                        let s = blk.start as usize;
                        let (us, ue) = (blk.uops.0 as usize, blk.uops.1 as usize);
                        for (k, u) in uops[us..ue].iter().enumerate() {
                            if let Err((sub, e)) = self.m.exec_uop(u) {
                                // the faulting instruction retired (it was
                                // counted before exec in the seed scheme);
                                // map µop position back to instruction count
                                let consumed: usize =
                                    uops[us..us + k].iter().map(|u| u.width()).sum::<usize>()
                                        + sub as usize
                                        + 1;
                                self.attribute_prefix(&meta, frames, s, s + consumed);
                                return Err(e);
                            }
                        }
                        self.attribute_block(b as usize, blk, frames);
                        match blk.term {
                            Term::Fall { block, addr } | Term::Jump { block, addr } => {
                                cur = self.resolve(block, addr)?;
                            }
                            Term::Branch {
                                cc,
                                target_block,
                                target_addr,
                                fall_block,
                                fall_addr,
                            } => {
                                cur = if self.m.cond(cc) {
                                    self.resolve(target_block, target_addr)?
                                } else {
                                    self.resolve(fall_block, fall_addr)?
                                };
                            }
                            Term::Call {
                                sym,
                                ret_block,
                                ret_addr,
                            } => {
                                cur = self.enter_call(sym, ret_addr as u64, ret_block, frames)?;
                            }
                            Term::Ret => match self.leave_call(frames)? {
                                Some(next) => cur = next,
                                None => return Ok(()),
                            },
                            Term::Halt => return Ok(()),
                        }
                        continue;
                    }
                    // not enough budget for the whole block: single-step it
                    blk.start as usize
                }
                Cursor::Inst(ip) => {
                    // promote back to the fast path as soon as the cursor
                    // reaches a block entry with budget to spare
                    let b = block_of[ip];
                    if b != u32::MAX && max_steps - self.steps >= blocks[b as usize].nsteps as u64 {
                        cur = Cursor::Block(b);
                        continue;
                    }
                    ip
                }
            };

            // slow tier: one instruction with seed-order accounting
            if self.steps >= self.options.max_steps {
                return Err(VmError::StepLimit);
            }
            self.steps += 1;
            self.slow_steps += 1;
            let inst = code[ip];
            let md = meta[ip];
            let cat = md.category as usize;
            let top = frames.last().unwrap().func as usize;
            self.excl[top][cat] += 1;
            self.cum[cat] += 1;
            if md.line_slot != u32::MAX {
                self.line_counts[md.line_slot as usize][cat] += 1;
            }
            match self.m.exec(inst)? {
                Ctl::Next => cur = Cursor::Inst(self.img.addr_to_idx(md.next_addr)?),
                Ctl::Jump(t) => cur = Cursor::Inst(self.img.addr_to_idx(t)?),
                Ctl::Call(sym) => {
                    let ret_block = self.block_at_addr(md.next_addr);
                    cur = self.enter_call(sym, md.next_addr as u64, ret_block, frames)?;
                }
                Ctl::Ret => match self.leave_call(frames)? {
                    Some(next) => cur = next,
                    None => return Ok(()),
                },
                Ctl::Halt => return Ok(()),
            }
        }
    }

    /// Pre-resolved edge → cursor, falling back to the address map for
    /// wild edges.
    #[inline]
    fn resolve(&self, block: u32, addr: u32) -> Result<Cursor, VmError> {
        if block != u32::MAX {
            Ok(Cursor::Block(block))
        } else {
            self.img.addr_to_idx(addr).map(Cursor::Inst)
        }
    }

    /// Block index starting at this byte address, or `u32::MAX`.
    fn block_at_addr(&self, addr: u32) -> u32 {
        match self.img.addr_map.get(addr as usize) {
            Some(&idx) if idx != u32::MAX => self.block_of[idx as usize],
            _ => u32::MAX,
        }
    }

    fn enter_call(
        &mut self,
        sym: u32,
        ret_addr: u64,
        ret_block: u32,
        frames: &mut Vec<Frame>,
    ) -> Result<Cursor, VmError> {
        let callee = self
            .img
            .sym_to_func
            .get(sym as usize)
            .copied()
            .flatten()
            .ok_or_else(|| {
                let name = self
                    .img
                    .extern_name_of(sym)
                    .unwrap_or_else(|| format!("sym#{sym}"));
                VmError::UnresolvedExtern(name)
            })?;
        self.m.push(ret_addr as i64)?;
        if frames.len() > 10_000 {
            return Err(VmError::StackOverflow);
        }
        self.fold_pending();
        frames.push(Frame {
            func: callee,
            ret_addr,
            ret_block,
            snap: self.cum,
        });
        self.calls[callee as usize] += 1;
        let eb = self.func_entry_block[callee as usize];
        if eb != u32::MAX {
            Ok(Cursor::Block(eb))
        } else {
            self.img
                .addr_to_idx(self.img.func_addrs[callee as usize])
                .map(Cursor::Inst)
        }
    }

    /// Pop the return address and the frame; `None` means the sentinel —
    /// return to the host.
    fn leave_call(&mut self, frames: &mut Vec<Frame>) -> Result<Option<Cursor>, VmError> {
        let ret = self.m.pop()? as u64;
        let Some(fr) = frames.pop() else {
            return Err(VmError::FrameUnderflow);
        };
        self.fold_frame(&fr);
        if ret == SENTINEL {
            return Ok(None);
        }
        if frames.is_empty() {
            // the entry frame was consumed but the return address is not
            // the host sentinel: refuse (typed) instead of running on
            // with no live frame, identically to the reference engine
            return Err(VmError::FrameUnderflow);
        }
        if ret == fr.ret_addr && fr.ret_block != u32::MAX {
            return Ok(Some(Cursor::Block(fr.ret_block)));
        }
        // tampered or indirect return address: translate like the seed did
        self.img
            .addr_to_idx(ret as u32)
            .map(|i| Some(Cursor::Inst(i)))
    }

    /// Add `cum − snapshot` to the frame's function's inclusive counters.
    fn fold_frame(&mut self, fr: &Frame) {
        self.fold_pending();
        let f = fr.func as usize;
        for c in 0..Category::COUNT {
            let d = self.cum[c] - fr.snap[c];
            if d != 0 {
                self.incl[f][c] += d;
            }
        }
    }

    /// Attribute one full block execution. Its category counts reach the
    /// cumulative vector through one pending count (the block is listed
    /// the first time it runs after a fold), multiplied in by
    /// [`Vm::fold_pending`] at the next frame boundary. The exclusive and
    /// per-line scatter is deferred to [`Vm::profile`] via `n_exec`
    /// whenever the innermost frame is the block's own function — which
    /// it always is, except after a cross-function fall-through, where
    /// the seed semantics (attribute to the *frame*, not the code owner)
    /// require the direct path.
    fn attribute_block(&mut self, b: usize, blk: &Block, frames: &[Frame]) {
        let top = frames.last().unwrap().func;
        if self.pending[b] == 0 {
            self.pending_blocks.push(b as u32);
        }
        self.pending[b] += 1;
        self.steps += blk.nsteps as u64;
        if top == blk.func {
            self.n_exec[b] += 1;
        } else {
            let t = top as usize;
            for &(c, n) in blk.cats.iter() {
                self.excl[t][c as usize] += n as u64;
            }
            for &(slot, c, n) in blk.lines.iter() {
                self.line_counts[slot as usize][c as usize] += n as u64;
            }
        }
    }

    /// Multiply every pending block execution into `cum`. Runs wherever
    /// `cum` is read: a frame's snapshot (the host entry frame in
    /// [`Vm::call`], a callee's in `enter_call`) and [`Vm::fold_frame`].
    fn fold_pending(&mut self) {
        for &b in &self.pending_blocks {
            let n = std::mem::take(&mut self.pending[b as usize]);
            for &(c, k) in self.blocks[b as usize].cats.iter() {
                self.cum[c as usize] += n * k as u64;
            }
        }
        self.pending_blocks.clear();
    }

    /// Tuning aid for the µop fusion table (`uop`): execution-weighted
    /// counts of adjacent instruction pairs inside retired block bodies,
    /// by [`Inst::name`], most frequent first. Pairs involving a
    /// terminator are skipped — they can never fuse. `bench_vm --pairs`
    /// (in `mira-bench`) prints this for the three benchmark workloads;
    /// it is how the fusion table was re-measured after `mira-vcc` grew a
    /// register allocator.
    pub fn pair_profile(&self) -> Vec<((&'static str, &'static str), u64)> {
        let mut counts: std::collections::HashMap<(&'static str, &'static str), u64> =
            std::collections::HashMap::new();
        for (b, &n) in self.n_exec.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let blk = &self.blocks[b];
            let s = blk.start as usize;
            for w in self.code[s..s + blk.nsteps as usize].windows(2) {
                if w[0].is_terminator() || w[1].is_terminator() {
                    continue;
                }
                *counts.entry((w[0].name(), w[1].name())).or_default() += n;
            }
        }
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Attribute the retired prefix `[s, end)` of a block that faulted
    /// mid-body, per instruction.
    fn attribute_prefix(&mut self, meta: &[InstMeta], frames: &[Frame], s: usize, end: usize) {
        let top = frames.last().unwrap().func as usize;
        for md in &meta[s..end] {
            let cat = md.category as usize;
            self.excl[top][cat] += 1;
            self.cum[cat] += 1;
            if md.line_slot != u32::MAX {
                self.line_counts[md.line_slot as usize][cat] += 1;
            }
        }
        self.steps += (end - s) as u64;
    }
}

#[cfg(test)]
mod tests;
