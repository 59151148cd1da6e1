//! The per-step reference interpreter: the seed VM's execution loop,
//! preserved verbatim in structure and cost model.
//!
//! Every retired instruction pays an address→index translation, one
//! exclusive increment, an **O(call-stack-depth) walk** updating every
//! frame's inclusive counters, and a per-line increment — the accounting
//! scheme [`crate::Vm`] replaced with block dispatch and fold-on-pop
//! deltas. It is kept for two jobs:
//!
//! 1. **Differential oracle** — the property tests assert that the block
//!    engine's [`Profile`] is bit-identical to this one on every workload;
//! 2. **Perf baseline** — `bench_vm` (see `mira-bench`) measures the
//!    speedup of the block engine against this loop and records it in
//!    `BENCH_vm.json`.
//!
//! Instruction *semantics* are shared with the fast engine through
//! `Machine`, so the engines can only ever disagree about accounting.

use crate::loader::Image;
use crate::machine::{Ctl, Machine};
use crate::{HostVal, Profile, VmError, VmOptions, SENTINEL};
use mira_arch::Category;
use mira_vobj::Object;

/// The seed interpreter: per-instruction attribution, O(depth) inclusive
/// updates.
pub struct ReferenceVm {
    img: Image,
    m: Machine,
    options: VmOptions,
    excl: Vec<[u64; Category::COUNT]>,
    incl: Vec<[u64; Category::COUNT]>,
    calls: Vec<u64>,
    line_counts: Vec<[u64; Category::COUNT]>,
    steps: u64,
}

/// One step's worth of instruction semantics, forced out of line.
///
/// The seed interpreter executed every instruction through a standalone
/// `Vm::exec` call; [`Machine::exec`] is now `#[inline(always)]` so the
/// block engine can flatten it into its dispatch loop. This wrapper keeps
/// that inlining improvement from leaking into the baseline: the
/// reference loop pays one real call per retired instruction, exactly as
/// the seed binary did, so `BENCH_vm.json` speedups stay comparable
/// across compiler versions and inlining heuristics.
#[inline(never)]
fn exec_step(m: &mut Machine, inst: mira_isa::Inst) -> Result<Ctl, VmError> {
    m.exec(inst)
}

impl ReferenceVm {
    pub fn load(obj: &Object, options: VmOptions) -> Result<ReferenceVm, VmError> {
        let img = Image::decode(obj)?;
        let nfuncs = img.func_names.len();
        let nlines = img.line_keys.len();
        // memory profiling is mirrored here: the simulator lives in the
        // shared Machine, so both engines observe the identical access
        // stream and the differential tests can pin the stats too
        let mut m = Machine::new(options.mem_size);
        m.sim = options
            .mem_profile
            .map(|h| Box::new(mira_mem::CacheSim::new(h)));
        Ok(ReferenceVm {
            m,
            options,
            excl: vec![[0; Category::COUNT]; nfuncs],
            incl: vec![[0; Category::COUNT]; nfuncs],
            calls: vec![0; nfuncs],
            line_counts: vec![[0; Category::COUNT]; nlines],
            steps: 0,
            img,
        })
    }

    pub fn new(obj: &Object) -> Result<ReferenceVm, VmError> {
        ReferenceVm::load(obj, VmOptions::default())
    }

    pub fn alloc_f64(&mut self, data: &[f64]) -> u64 {
        self.m.alloc_f64(data)
    }

    pub fn alloc_i64(&mut self, data: &[i64]) -> u64 {
        self.m.alloc_i64(data)
    }

    pub fn alloc_zeroed_f64(&mut self, n: usize) -> u64 {
        self.m.alloc_zeroed_f64(n)
    }

    pub fn read_f64(&self, addr: u64, n: usize) -> Vec<f64> {
        self.m.read_f64(addr, n)
    }

    pub fn read_i64(&self, addr: u64, n: usize) -> Vec<i64> {
        self.m.read_i64(addr, n)
    }

    pub fn profile(&self) -> Profile {
        Profile::build(
            &self.img.func_names,
            &self.excl,
            &self.incl,
            &self.calls,
            &self.img.line_keys,
            &self.line_counts,
        )
    }

    pub fn steps(&self) -> u64 {
        self.steps
    }

    pub fn reset_counters(&mut self) {
        for c in self.excl.iter_mut().chain(self.incl.iter_mut()) {
            *c = [0; Category::COUNT];
        }
        for c in self.line_counts.iter_mut() {
            *c = [0; Category::COUNT];
        }
        self.calls.iter_mut().for_each(|c| *c = 0);
        self.steps = 0;
        if let Some(sim) = self.m.sim.as_deref_mut() {
            sim.reset();
        }
    }

    /// Memory-profiling counters, when `VmOptions::mem_profile` is on.
    pub fn mem_stats(&self) -> Option<mira_mem::MemStats> {
        self.m.sim.as_ref().map(|s| s.stats())
    }

    /// Write back resident dirty lines (mirrors `Vm::flush_mem`, so the
    /// differential tests can pin write-back counters too).
    pub fn flush_mem(&mut self) {
        if let Some(sim) = self.m.sim.as_deref_mut() {
            sim.flush();
        }
    }

    pub fn fp_return(&self) -> f64 {
        self.m.xmm[0][0]
    }

    pub fn int_return(&self) -> i64 {
        self.m.regs[0]
    }

    /// Call a function by name — the seed loop, unchanged: count the
    /// instruction into the innermost frame's exclusive counters, walk the
    /// whole frame stack for the inclusive counters, translate every
    /// control transfer through the address map.
    pub fn call(&mut self, name: &str, args: &[HostVal]) -> Result<HostVal, VmError> {
        let fidx = self
            .img
            .func_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| VmError::NoSuchFunction(name.to_string()))?;
        let entry = self.img.func_addrs[fidx];

        self.m.place_args(args)?;
        let mut stack: Vec<u16> = vec![fidx as u16];
        self.calls[fidx] += 1;

        let mut ip = self.img.addr_to_idx(entry)?;
        loop {
            if self.steps >= self.options.max_steps {
                return Err(VmError::StepLimit);
            }
            self.steps += 1;

            let inst = self.img.code[ip];
            let meta = self.img.meta[ip];
            let cat = meta.category as usize;
            // exclusive: innermost frame; inclusive: every frame on stack
            let top = *stack.last().unwrap() as usize;
            self.excl[top][cat] += 1;
            for f in &stack {
                self.incl[*f as usize][cat] += 1;
            }
            if meta.line_slot != u32::MAX {
                self.line_counts[meta.line_slot as usize][cat] += 1;
            }

            match exec_step(&mut self.m, inst)? {
                Ctl::Next => ip = self.img.addr_to_idx(meta.next_addr)?,
                Ctl::Jump(target) => ip = self.img.addr_to_idx(target)?,
                Ctl::Call(sym) => {
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
                    self.m.push(meta.next_addr as i64)?;
                    if stack.len() > 10_000 {
                        return Err(VmError::StackOverflow);
                    }
                    stack.push(callee);
                    self.calls[callee as usize] += 1;
                    ip = self.img.addr_to_idx(self.img.func_addrs[callee as usize])?;
                }
                Ctl::Ret => {
                    let ret = self.m.pop()? as u64;
                    stack.pop();
                    if ret == SENTINEL {
                        break;
                    }
                    if stack.is_empty() {
                        // entry frame consumed with a non-sentinel return
                        // address: typed refusal, mirroring `Vm::leave_call`
                        return Err(VmError::FrameUnderflow);
                    }
                    ip = self.img.addr_to_idx(ret as u32)?;
                }
                Ctl::Halt => break,
            }
        }

        Ok(HostVal::Int(self.m.regs[0]))
    }
}
