//! Pre-resolved micro-ops for the block fast path.
//!
//! The generic [`Machine::exec`] pays a ~60-way dispatch per retired
//! instruction. Block *bodies* are translated once at load time into a
//! narrow µop stream: dedicated handlers for the scalar instructions
//! `mira-vcc` emits, and two-way fusion of the adjacent pairs that
//! dominate the benchmark kernels. Anything else — packed ops, rare
//! instructions, and ones the compiler never emits — falls back to the
//! shared semantics ([`Uop::Other`]), so µop translation can never change
//! behaviour, only speed. The differential tests against the per-step
//! reference interpreter and `every_fused_kind_matches_the_reference`
//! below pin this.
//!
//! The fusion table is *measured*, not guessed. A pair stays while it
//! retires at least 0.5% of some validate kernel's instructions: the
//! eight kernels of perfbench `validate` (`triad`, `stream_kernels`,
//! `dgemm`, `dgemm_tiled`, `triad_blocked`, `trisolve`, `stencil_sweep`,
//! `cg_solve`) at their three ladder rungs, compiled with the register
//! allocator. Largest share of one kernel's retired instructions per
//! kept pair:
//!
//! | µop | share | kernel |
//! |---|---|---|
//! | `ImulAdd` | 25.9% | `dgemm`, `dgemm_tiled` |
//! | `MovRIMovRR` | 20.7% | `stencil_sweep` |
//! | `MovRIMovqXR` | 20.7% | `stencil_sweep` |
//! | `Load2` | 17.3% | `dgemm`, `dgemm_tiled` |
//! | `FLoadLoad` | 16.7% | `triad` |
//! | `FStoreMov` | 16.7% | `triad` |
//! | `FLoadMov` | 16.7% | `triad` |
//! | `FMulAdd` | 16.7% | `triad` |
//! | `FLoadMul` | 13.8% | `stencil_sweep` |
//! | `MovRRAddRI` | 13.3% | `trisolve` |
//! | `LoadFLoad` | 10.3% | `stream_kernels`, `cg_solve` |
//! | `FLoadAdd` | 8.6% | `dgemm`, `dgemm_tiled` |
//! | `AddLoad` | 7.8% | `cg_solve` |
//! | `AddFLoad` | 6.9% | `stencil_sweep` |
//! | `FAddMov` | 6.7% | `cg_solve` |
//! | `FLoadFStore` | 5.1% | `stream_kernels` |
//! | `FMovMul` | 5.1% | `stream_kernels` |
//! | `FLoad2` | 2.6% | `cg_solve` |
//! | `LoadMov` | 1.2% | `cg_solve` |
//! | `LoadCmp` | 1.2% | `cg_solve` |
//!
//! Pairs that only spill-everything code forms (store pairs, load + ALU,
//! counter-spill idioms) are not in the table: `mira-vcc` allocates
//! registers by default, and fusion never changes retired-step counts,
//! only the dispatches that retire them. `bench_vm --pairs` (in
//! `mira-bench`) prints the execution-weighted adjacent-pair histogram
//! ([`crate::Vm::pair_profile`]) to find new candidates after codegen
//! changes; a kind that falls under 0.5% of every validate kernel goes.
//!
//! Control-transfer instructions never appear in a body (they terminate
//! blocks), so µops are straight-line by construction.
//!
//! The block loop hands [`Machine::exec_uop`] a reference into the µop
//! stream and the handlers match it in place, loading only the operands
//! they use. Matching a copy instead made the loop store every µop's
//! operands to the stack at dispatch and load them back in the handler.

use crate::machine::{Ctl, Flags, Machine};
use crate::VmError;
use mira_isa::{Inst, Mem};

/// Flattened addressing: `[regs[b] + regs[i]*s + d]`, `i == NO_INDEX` for
/// plain base+displacement.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemU {
    b: u8,
    i: u8,
    s: u8,
    d: i32,
}

const NO_INDEX: u8 = 0xff;

impl From<Mem> for MemU {
    fn from(m: Mem) -> MemU {
        match m.index {
            Some((r, s)) => MemU {
                b: m.base.0,
                i: r.0,
                s,
                d: m.disp,
            },
            None => MemU {
                b: m.base.0,
                i: NO_INDEX,
                s: 0,
                d: m.disp,
            },
        }
    }
}

#[inline(always)]
fn ea(regs: &[i64; 16], m: MemU) -> u64 {
    let mut a = regs[m.b as usize & 15] as u64;
    if m.i != NO_INDEX {
        a = a.wrapping_add((regs[m.i as usize & 15] as u64).wrapping_mul(m.s as u64));
    }
    a.wrapping_add(m.d as i64 as u64)
}

/// One micro-op: a specialized hot instruction, a fused pair, or a
/// fallback to the generic interpreter. Operands are register numbers
/// and flattened memory operands, in the order the [`Inst`]s list them.
/// Fused pairs execute strictly in source order — the first half may
/// redefine state the second half uses — and each pair is its own
/// variant: a fused µop must stay a *single* dispatch, since routing the
/// second op through a nested match would reintroduce the data-dependent
/// indirect branch fusion exists to remove.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Uop {
    /// `mov rD1, [m1]; mov rD2, [m2]`.
    Load2(u8, MemU, u8, MemU),
    /// `mov rD, [m]; mov rA, rB`.
    LoadMov(u8, MemU, u8, u8),
    /// `mov rD, [m]; cmp rA, rB`.
    LoadCmp(u8, MemU, u8, u8),
    /// `mov rD, [m]; movsd xmmX, [xm]` — pointer or index load, then the
    /// element load through it.
    LoadFLoad(u8, MemU, u8, MemU),
    /// `movsd xmmD, [m]; movsd xmmA, xmmB`.
    FLoadMov(u8, MemU, u8, u8),
    /// `movsd xmmD, [m]; addsd xmmA, xmmB`.
    FLoadAdd(u8, MemU, u8, u8),
    /// `movsd xmmD, [m]; mulsd xmmA, xmmB`.
    FLoadMul(u8, MemU, u8, u8),
    /// `movsd xmmD1, [m1]; movsd xmmD2, [m2]`.
    FLoad2(u8, MemU, u8, MemU),
    /// `movsd xmmD, [m]; mov rE, [em]`.
    FLoadLoad(u8, MemU, u8, MemU),
    /// `movsd xmmD, [m]; movsd [sm], xmmS` (array copy).
    FLoadFStore(u8, MemU, MemU, u8),
    /// `movsd [m], xmmS; mov rD, rB` (store + home move).
    FStoreMov(MemU, u8, u8, u8),
    /// `mov rD, imm; movq xmmX, rS` (FP constant materialization).
    MovRIMovqXR(u8, i64, u8, u8),
    /// `mov rD, imm; mov rA, rB` (constant + home/ABI move).
    MovRIMovRR(u8, i64, u8, u8),
    /// `mov rD, rS; add rA, imm` (post-increment idiom).
    MovRRAddRI(u8, u8, u8, i64),
    /// `imul rA, rB; add rC, rD` (row-major index `i*n + j`).
    ImulAdd(u8, u8, u8, u8),
    /// `add rA, rB; mov rD, [m]` (index finish + element load).
    AddLoad(u8, u8, u8, MemU),
    /// `add rA, rB; movsd xmmD, [m]`.
    AddFLoad(u8, u8, u8, MemU),
    /// `movsd xmmD, xmmS; mulsd xmmA, xmmB` (broadcast scalar × element).
    FMovMul(u8, u8, u8, u8),
    /// `mulsd xmmA, xmmB; addsd xmmC, xmmD` (multiply-accumulate into a
    /// register home).
    FMulAdd(u8, u8, u8, u8),
    /// `addsd xmmA, xmmB; mov rD, rS` (accumulate + int home move).
    FAddMov(u8, u8, u8, u8),
    Load(u8, MemU),
    Store(MemU, u8),
    FLoad(u8, MemU),
    FStore(MemU, u8),
    MovRR(u8, u8),
    MovRI(u8, i64),
    AddRR(u8, u8),
    AddRI(u8, i64),
    SubRR(u8, u8),
    SubRI(u8, i64),
    ImulRR(u8, u8),
    CmpRR(u8, u8),
    TestRR(u8, u8),
    Setcc(mira_isa::Cc, u8),
    Push(u8),
    Pop(u8),
    MovsdXX(u8, u8),
    MovqXR(u8, u8),
    Addsd(u8, u8),
    Subsd(u8, u8),
    Mulsd(u8, u8),
    Divsd(u8, u8),
    Sqrtsd(u8, u8),
    Ucomisd(u8, u8),
    Cvtsi2sd(u8, u8),
    Cvttsd2si(u8, u8),
    /// Everything else, executed through the shared generic semantics.
    Other(Inst),
}

impl Uop {
    /// How many source instructions this µop retires.
    #[inline]
    pub fn width(&self) -> usize {
        match self {
            Uop::Load2(..)
            | Uop::LoadMov(..)
            | Uop::LoadCmp(..)
            | Uop::LoadFLoad(..)
            | Uop::FLoadMov(..)
            | Uop::FLoadAdd(..)
            | Uop::FLoadMul(..)
            | Uop::FLoad2(..)
            | Uop::FLoadLoad(..)
            | Uop::FLoadFStore(..)
            | Uop::FStoreMov(..)
            | Uop::MovRIMovqXR(..)
            | Uop::MovRIMovRR(..)
            | Uop::MovRRAddRI(..)
            | Uop::ImulAdd(..)
            | Uop::AddLoad(..)
            | Uop::AddFLoad(..)
            | Uop::FMovMul(..)
            | Uop::FMulAdd(..)
            | Uop::FAddMov(..) => 2,
            _ => 1,
        }
    }
}

/// The fused µop for an adjacent pair, if the table has one.
fn fuse(first: Inst, second: Inst) -> Option<Uop> {
    use Inst::*;
    Some(match (first, second) {
        (Load(d1, m1), Load(d2, m2)) => Uop::Load2(d1.0, m1.into(), d2.0, m2.into()),
        (Load(d, m), MovRR(a, b)) => Uop::LoadMov(d.0, m.into(), a.0, b.0),
        (Load(d, m), CmpRR(a, b)) => Uop::LoadCmp(d.0, m.into(), a.0, b.0),
        (Load(d, m), MovsdLoad(x, xm)) => Uop::LoadFLoad(d.0, m.into(), x.0, xm.into()),
        (MovsdLoad(d, m), MovsdXX(a, b)) => Uop::FLoadMov(d.0, m.into(), a.0, b.0),
        (MovsdLoad(d, m), Addsd(a, b)) => Uop::FLoadAdd(d.0, m.into(), a.0, b.0),
        (MovsdLoad(d, m), Mulsd(a, b)) => Uop::FLoadMul(d.0, m.into(), a.0, b.0),
        (MovsdLoad(d1, m1), MovsdLoad(d2, m2)) => Uop::FLoad2(d1.0, m1.into(), d2.0, m2.into()),
        (MovsdLoad(d, m), Load(e, em)) => Uop::FLoadLoad(d.0, m.into(), e.0, em.into()),
        (MovsdLoad(d, m), MovsdStore(sm, s)) => Uop::FLoadFStore(d.0, m.into(), sm.into(), s.0),
        (MovsdStore(m, s), MovRR(d, b)) => Uop::FStoreMov(m.into(), s.0, d.0, b.0),
        (MovRI(d, v), MovqXR(x, s)) => Uop::MovRIMovqXR(d.0, v, x.0, s.0),
        (MovRI(d, v), MovRR(a, b)) => Uop::MovRIMovRR(d.0, v, a.0, b.0),
        (MovRR(d, s), AddRI(a, v)) => Uop::MovRRAddRI(d.0, s.0, a.0, v),
        (ImulRR(a, b), AddRR(c, d)) => Uop::ImulAdd(a.0, b.0, c.0, d.0),
        (AddRR(a, b), Load(d, m)) => Uop::AddLoad(a.0, b.0, d.0, m.into()),
        (AddRR(a, b), MovsdLoad(d, m)) => Uop::AddFLoad(a.0, b.0, d.0, m.into()),
        (MovsdXX(d, s), Mulsd(a, b)) => Uop::FMovMul(d.0, s.0, a.0, b.0),
        (Mulsd(a, b), Addsd(c, d)) => Uop::FMulAdd(a.0, b.0, c.0, d.0),
        (Addsd(a, b), MovRR(d, s)) => Uop::FAddMov(a.0, b.0, d.0, s.0),
        _ => return None,
    })
}

/// The single µop for one instruction.
fn single(inst: Inst) -> Uop {
    use Inst::*;
    match inst {
        Load(d, m) => Uop::Load(d.0, m.into()),
        Store(m, s) => Uop::Store(m.into(), s.0),
        MovsdLoad(d, m) => Uop::FLoad(d.0, m.into()),
        MovsdStore(m, s) => Uop::FStore(m.into(), s.0),
        MovRR(d, s) => Uop::MovRR(d.0, s.0),
        MovRI(d, v) => Uop::MovRI(d.0, v),
        AddRR(d, s) => Uop::AddRR(d.0, s.0),
        AddRI(d, v) => Uop::AddRI(d.0, v),
        SubRR(d, s) => Uop::SubRR(d.0, s.0),
        SubRI(d, v) => Uop::SubRI(d.0, v),
        ImulRR(d, s) => Uop::ImulRR(d.0, s.0),
        CmpRR(a, b) => Uop::CmpRR(a.0, b.0),
        TestRR(a, b) => Uop::TestRR(a.0, b.0),
        Setcc(cc, d) => Uop::Setcc(cc, d.0),
        Push(s) => Uop::Push(s.0),
        Pop(d) => Uop::Pop(d.0),
        MovsdXX(d, s) => Uop::MovsdXX(d.0, s.0),
        MovqXR(d, s) => Uop::MovqXR(d.0, s.0),
        Addsd(d, s) => Uop::Addsd(d.0, s.0),
        Subsd(d, s) => Uop::Subsd(d.0, s.0),
        Mulsd(d, s) => Uop::Mulsd(d.0, s.0),
        Divsd(d, s) => Uop::Divsd(d.0, s.0),
        Sqrtsd(d, s) => Uop::Sqrtsd(d.0, s.0),
        Ucomisd(a, b) => Uop::Ucomisd(a.0, b.0),
        Cvtsi2sd(d, s) => Uop::Cvtsi2sd(d.0, s.0),
        Cvttsd2si(d, s) => Uop::Cvttsd2si(d.0, s.0),
        other => Uop::Other(other),
    }
}

/// Translate one block body (no control-transfer instructions) into µops,
/// fusing greedily from the left.
pub(crate) fn translate_body(body: &[Inst]) -> Vec<Uop> {
    let mut out = Vec::with_capacity(body.len());
    let mut i = 0;
    while i < body.len() {
        match body.get(i + 1).and_then(|&second| fuse(body[i], second)) {
            Some(pair) => {
                out.push(pair);
                i += 2;
            }
            None => {
                out.push(single(body[i]));
                i += 1;
            }
        }
    }
    out
}

impl Machine {
    /// Execute one µop. On error, the `u32` is the zero-based sub-
    /// instruction within the µop that faulted (always 0 except for the
    /// second half of a fused pair), so the caller can attribute the
    /// retired prefix exactly.
    #[inline(always)]
    pub(crate) fn exec_uop(&mut self, u: &Uop) -> Result<(), (u32, VmError)> {
        macro_rules! r {
            ($i:expr) => {
                self.regs[$i as usize & 15]
            };
        }
        macro_rules! x {
            ($i:expr) => {
                self.xmm[$i as usize & 15][0]
            };
        }
        // 8-byte load or store through a memory operand; a fault reports
        // sub-instruction `$k`
        macro_rules! load {
            ($m:expr, $k:expr) => {
                self.load64(ea(&self.regs, $m)).map_err(|e| ($k, e))?
            };
        }
        macro_rules! store {
            ($m:expr, $v:expr, $k:expr) => {
                self.store64(ea(&self.regs, $m), $v).map_err(|e| ($k, e))?
            };
        }
        match *u {
            Uop::Load2(d1, m1, d2, m2) => {
                r!(d1) = load!(m1, 0) as i64;
                r!(d2) = load!(m2, 1) as i64;
            }
            Uop::LoadMov(d, m, a, b) => {
                r!(d) = load!(m, 0) as i64;
                r!(a) = r!(b);
            }
            Uop::LoadCmp(d, m, a, b) => {
                r!(d) = load!(m, 0) as i64;
                self.flags = Flags::IntCmp(r!(a), r!(b));
            }
            Uop::LoadFLoad(d, m, x, xm) => {
                r!(d) = load!(m, 0) as i64;
                x!(x) = f64::from_bits(load!(xm, 1));
            }
            Uop::FLoadMov(d, m, a, b) => {
                x!(d) = f64::from_bits(load!(m, 0));
                x!(a) = x!(b);
            }
            Uop::FLoadAdd(d, m, a, b) => {
                x!(d) = f64::from_bits(load!(m, 0));
                x!(a) += x!(b);
            }
            Uop::FLoadMul(d, m, a, b) => {
                x!(d) = f64::from_bits(load!(m, 0));
                x!(a) *= x!(b);
            }
            Uop::FLoad2(d1, m1, d2, m2) => {
                x!(d1) = f64::from_bits(load!(m1, 0));
                x!(d2) = f64::from_bits(load!(m2, 1));
            }
            Uop::FLoadLoad(d, m, e, em) => {
                x!(d) = f64::from_bits(load!(m, 0));
                r!(e) = load!(em, 1) as i64;
            }
            Uop::FLoadFStore(d, m, sm, s) => {
                x!(d) = f64::from_bits(load!(m, 0));
                store!(sm, x!(s).to_bits(), 1);
            }
            Uop::FStoreMov(m, s, d, b) => {
                store!(m, x!(s).to_bits(), 0);
                r!(d) = r!(b);
            }
            Uop::MovRIMovqXR(d, v, x, s) => {
                r!(d) = v;
                x!(x) = f64::from_bits(r!(s) as u64);
            }
            Uop::MovRIMovRR(d, v, a, b) => {
                r!(d) = v;
                r!(a) = r!(b);
            }
            Uop::MovRRAddRI(d, s, a, v) => {
                r!(d) = r!(s);
                r!(a) = r!(a).wrapping_add(v);
            }
            Uop::ImulAdd(a, b, c, d) => {
                r!(a) = r!(a).wrapping_mul(r!(b));
                r!(c) = r!(c).wrapping_add(r!(d));
            }
            Uop::AddLoad(a, b, d, m) => {
                r!(a) = r!(a).wrapping_add(r!(b));
                r!(d) = load!(m, 1) as i64;
            }
            Uop::AddFLoad(a, b, d, m) => {
                r!(a) = r!(a).wrapping_add(r!(b));
                x!(d) = f64::from_bits(load!(m, 1));
            }
            Uop::FMovMul(d, s, a, b) => {
                x!(d) = x!(s);
                x!(a) *= x!(b);
            }
            Uop::FMulAdd(a, b, c, d) => {
                x!(a) *= x!(b);
                x!(c) += x!(d);
            }
            Uop::FAddMov(a, b, d, s) => {
                x!(a) += x!(b);
                r!(d) = r!(s);
            }
            Uop::Load(d, m) => r!(d) = load!(m, 0) as i64,
            Uop::Store(m, s) => store!(m, r!(s) as u64, 0),
            Uop::FLoad(d, m) => x!(d) = f64::from_bits(load!(m, 0)),
            Uop::FStore(m, s) => store!(m, x!(s).to_bits(), 0),
            Uop::MovRR(d, s) => r!(d) = r!(s),
            Uop::MovRI(d, v) => r!(d) = v,
            Uop::AddRR(d, s) => r!(d) = r!(d).wrapping_add(r!(s)),
            Uop::AddRI(d, v) => r!(d) = r!(d).wrapping_add(v),
            Uop::SubRR(d, s) => r!(d) = r!(d).wrapping_sub(r!(s)),
            Uop::SubRI(d, v) => r!(d) = r!(d).wrapping_sub(v),
            Uop::ImulRR(d, s) => r!(d) = r!(d).wrapping_mul(r!(s)),
            Uop::CmpRR(a, b) => self.flags = Flags::IntCmp(r!(a), r!(b)),
            Uop::TestRR(a, b) => self.flags = Flags::Test(r!(a) & r!(b)),
            Uop::Setcc(cc, d) => r!(d) = self.cond(cc) as i64,
            Uop::Push(s) => {
                let v = r!(s);
                self.push(v).map_err(|e| (0, e))?;
            }
            Uop::Pop(d) => r!(d) = self.pop().map_err(|e| (0, e))?,
            Uop::MovsdXX(d, s) => x!(d) = x!(s),
            Uop::MovqXR(d, s) => x!(d) = f64::from_bits(r!(s) as u64),
            Uop::Addsd(d, s) => x!(d) += x!(s),
            Uop::Subsd(d, s) => x!(d) -= x!(s),
            Uop::Mulsd(d, s) => x!(d) *= x!(s),
            Uop::Divsd(d, s) => x!(d) /= x!(s),
            Uop::Sqrtsd(d, s) => x!(d) = x!(s).sqrt(),
            Uop::Ucomisd(a, b) => self.flags = Flags::FpCmp(x!(a), x!(b)),
            Uop::Cvtsi2sd(d, s) => x!(d) = r!(s) as f64,
            Uop::Cvttsd2si(d, s) => r!(d) = x!(s) as i64,
            Uop::Other(inst) => match self.exec(inst) {
                Ok(Ctl::Next) => {}
                Ok(_) => unreachable!("control instruction in block body"),
                Err(e) => return Err((0, e)),
            },
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_isa::{Reg, XReg};

    #[test]
    fn fusion_widths_cover_body() {
        let body = vec![
            Inst::Load(Reg(1), Mem::base_disp(Reg(14), -8)),
            Inst::Load(Reg(2), Mem::base_disp(Reg(14), -16)),
            Inst::AddRR(Reg(1), Reg(2)),
            Inst::Store(Mem::base_disp(Reg(14), -8), Reg(1)),
        ];
        let uops = translate_body(&body);
        assert_eq!(uops.iter().map(|u| u.width()).sum::<usize>(), body.len());
        assert!(matches!(uops[0], Uop::Load2(..)));
    }

    /// A small machine with a distinct value wherever a pair can read:
    /// `r3` points at 512 words holding `1, 2, …` (valid indices), `r4`
    /// at 512 doubles `0.5, 1.5, …`, and every other register and xmm
    /// lane differs.
    fn machine() -> Machine {
        let mut m = Machine::new(1 << 14);
        for j in 0..512u64 {
            m.store64_raw(0x1000 + 8 * j, j + 1).unwrap();
            let v = j as f64 + 0.5;
            m.store64_raw(0x2000 + 8 * j, v.to_bits()).unwrap();
        }
        for r in 0..15 {
            m.regs[r] = 2 + r as i64;
        }
        (m.regs[3], m.regs[4]) = (0x1000, 0x2000);
        for (x, lanes) in m.xmm.iter_mut().enumerate() {
            *lanes = [1.25 + x as f64, -(x as f64)];
        }
        m
    }

    fn assert_same(name: &str, fused: &Machine, reference: &Machine) {
        assert_eq!(fused.regs, reference.regs, "{name}: registers");
        let bits = |m: &Machine| m.xmm.map(|x| x.map(f64::to_bits));
        assert_eq!(bits(fused), bits(reference), "{name}: xmm registers");
        let flags = |m: &Machine| format!("{:?}", m.flags);
        assert_eq!(flags(fused), flags(reference), "{name}: flags");
        assert!(fused.mem == reference.mem, "{name}: memory");
    }

    /// `inst` with its memory operand moved past the end of memory, if
    /// it has one.
    fn out_of_range(inst: Inst) -> Option<Inst> {
        let far = |m: Mem| Mem { disp: 1 << 30, ..m };
        match inst {
            Inst::Load(d, m) => Some(Inst::Load(d, far(m))),
            Inst::Store(m, s) => Some(Inst::Store(far(m), s)),
            Inst::MovsdLoad(d, m) => Some(Inst::MovsdLoad(d, far(m))),
            Inst::MovsdStore(m, s) => Some(Inst::MovsdStore(far(m), s)),
            _ => None,
        }
    }

    /// Every fused kind against the shared semantics. One sample pair
    /// per kind (where the shape allows, the second half reads a register
    /// the first half writes) must translate to one µop of a kind no other
    /// sample formed, and leave registers, xmm registers, flags and memory
    /// as `Machine::exec` of the two instructions does. A half moved out of
    /// range must fault with its own sub-index, the first half's effect
    /// already visible.
    #[test]
    fn every_fused_kind_matches_the_reference() {
        use Inst::*;
        let (r, x) = (Reg, XReg);
        let int = |d| Mem::base_disp(Reg(3), d);
        let fp = |d| Mem::base_disp(Reg(4), d);
        let int_at = |i| Mem::base_index(Reg(3), Reg(i), 8, 0);
        let fp_at = |i| Mem::base_index(Reg(4), Reg(i), 8, 0);
        let two_and_a_half = 2.5f64.to_bits() as i64;
        let pairs: [[Inst; 2]; 20] = [
            [Load(r(5), int(8)), Load(r(6), int_at(5))],
            [Load(r(5), int(8)), MovRR(r(6), r(5))],
            [Load(r(5), int(8)), CmpRR(r(5), r(7))],
            [Load(r(5), int(8)), MovsdLoad(x(1), fp_at(5))],
            [MovsdLoad(x(1), fp(8)), MovsdXX(x(2), x(1))],
            [MovsdLoad(x(1), fp(8)), Addsd(x(2), x(1))],
            [MovsdLoad(x(1), fp(8)), Mulsd(x(2), x(1))],
            [MovsdLoad(x(1), fp(8)), MovsdLoad(x(2), fp(16))],
            [MovsdLoad(x(1), fp(8)), Load(r(5), int(16))],
            [MovsdLoad(x(1), fp(8)), MovsdStore(fp(24), x(1))],
            [MovsdStore(fp(24), x(1)), MovRR(r(6), r(5))],
            [MovRI(r(5), two_and_a_half), MovqXR(x(1), r(5))],
            [MovRI(r(5), -42), MovRR(r(6), r(5))],
            [MovRR(r(5), r(7)), AddRI(r(5), 3)],
            [ImulRR(r(5), r(7)), AddRR(r(6), r(5))],
            [AddRR(r(5), r(7)), Load(r(6), int_at(5))],
            [AddRR(r(5), r(7)), MovsdLoad(x(1), fp_at(5))],
            [MovsdXX(x(1), x(2)), Mulsd(x(3), x(1))],
            [Mulsd(x(1), x(2)), Addsd(x(3), x(1))],
            [Addsd(x(1), x(2)), MovRR(r(6), r(5))],
        ];
        let mut kinds = Vec::new();
        for pair in pairs {
            let uops = translate_body(&pair);
            assert_eq!(uops.len(), 1, "{pair:?}: one µop");
            assert_eq!(uops[0].width(), 2, "{pair:?}: fused");
            let name = format!("{:?}", uops[0]);
            let name = name.split('(').next().unwrap();
            kinds.push(name.to_string());
            let (mut fused, mut reference) = (machine(), machine());
            fused.exec_uop(&uops[0]).unwrap();
            for inst in pair {
                assert!(matches!(reference.exec(inst), Ok(Ctl::Next)));
            }
            assert_same(name, &fused, &reference);
            for half in 0..2 {
                let Some(far) = out_of_range(pair[half]) else {
                    continue;
                };
                let mut faulting = pair;
                faulting[half] = far;
                let uops = translate_body(&faulting);
                assert_eq!(uops.len(), 1, "{name}: one µop");
                let (mut fused, mut reference) = (machine(), machine());
                let got = fused.exec_uop(&uops[0]).unwrap_err();
                let want = faulting
                    .iter()
                    .enumerate()
                    .find_map(|(k, &inst)| reference.exec(inst).err().map(|e| (k as u32, e)));
                assert!(matches!(got.1, VmError::Fault { .. }), "{name}: {got:?}");
                assert_eq!(Some(got), want, "{name}: fault in half {half}");
                assert_same(name, &fused, &reference);
            }
        }
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), pairs.len(), "one sample per fused kind");
    }
}
