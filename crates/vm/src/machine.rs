//! The VX86 machine state — registers, flags, memory, heap — and the
//! instruction semantics, shared by the block-dispatch engine ([`crate::Vm`])
//! and the per-step reference interpreter
//! ([`crate::reference::ReferenceVm`]). Keeping one implementation of the
//! *semantics* guarantees the two engines can only disagree about
//! *accounting*, which is exactly the property the differential tests pin.

use crate::VmError;
use mira_isa::{Cc, Inst, Mem};
use mira_mem::CacheSim;

/// Flag state captured lazily from the last compare/test.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Flags {
    IntCmp(i64, i64),
    FpCmp(f64, f64),
    Test(i64),
}

/// What the executed instruction asks the dispatch loop to do next.
pub(crate) enum Ctl {
    Next,
    Jump(u32),
    Call(u32),
    Ret,
    Halt,
}

pub(crate) const RSP: usize = 15;
pub(crate) const HEAP_BASE: u64 = 4096; // leave a null guard page

/// Registers, SSE state, flags and flat memory.
pub(crate) struct Machine {
    pub mem: Vec<u8>,
    pub heap_top: u64,
    pub regs: [i64; 16],
    pub xmm: [[f64; 2]; 16],
    pub flags: Flags,
    /// Optional cache simulator (`VmOptions::mem_profile`). Hooked into
    /// [`Machine::load64`]/[`Machine::store64`] — the explicit-memory-
    /// operand path — while `push`/`pop`, `call`/`ret` return addresses
    /// and host argument setup go through the raw accessors and are never
    /// simulated (the `Inst::memory_bytes` accounting contract). The
    /// simulator only observes; it can never change architectural state
    /// or retirement counters, so profiles stay bit-identical with
    /// instrumentation on or off.
    pub sim: Option<Box<CacheSim>>,
}

impl Machine {
    pub fn new(mem_size: usize) -> Machine {
        let mut m = Machine {
            mem: vec![0u8; mem_size],
            heap_top: HEAP_BASE,
            regs: [0; 16],
            xmm: [[0.0; 2]; 16],
            flags: Flags::Test(0),
            sim: None,
        };
        // stack top (16-aligned), growing down toward the heap
        m.regs[RSP] = ((mem_size as u64 - 16) & !15) as i64;
        m
    }

    // ---- host heap ----

    /// Bump-allocate host data, cache-line (64-byte) aligned so the
    /// static distinct-line footprints of `mira-mem` are exact without an
    /// alignment parameter. The sums saturate, so a size past the address
    /// space ends in the same refusal as one past `mem_size`.
    pub fn bump(&mut self, bytes: usize) -> u64 {
        let addr = (self.heap_top + 63) & !63;
        let new_top = addr.saturating_add(bytes as u64);
        assert!(
            new_top.saturating_add(1 << 20) < self.mem.len() as u64,
            "VM heap exhausted: grow VmOptions::mem_size"
        );
        self.heap_top = new_top;
        addr
    }

    /// Space for `n` doubles; the size saturates like [`Machine::bump`]'s
    /// sums.
    pub fn alloc_zeroed_f64(&mut self, n: usize) -> u64 {
        self.bump(n.saturating_mul(8))
    }

    pub fn alloc_f64(&mut self, data: &[f64]) -> u64 {
        let addr = self.bump(data.len() * 8);
        for (i, v) in data.iter().enumerate() {
            let a = addr as usize + i * 8;
            self.mem[a..a + 8].copy_from_slice(&v.to_bits().to_le_bytes());
        }
        addr
    }

    pub fn alloc_i64(&mut self, data: &[i64]) -> u64 {
        let addr = self.bump(data.len() * 8);
        for (i, v) in data.iter().enumerate() {
            let a = addr as usize + i * 8;
            self.mem[a..a + 8].copy_from_slice(&v.to_le_bytes());
        }
        addr
    }

    pub fn read_f64(&self, addr: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let a = addr as usize + i * 8;
                f64::from_bits(u64::from_le_bytes(self.mem[a..a + 8].try_into().unwrap()))
            })
            .collect()
    }

    pub fn read_i64(&self, addr: u64, n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let a = addr as usize + i * 8;
                i64::from_le_bytes(self.mem[a..a + 8].try_into().unwrap())
            })
            .collect()
    }

    /// Place host-call arguments per the VX86 ABI — first six ints in
    /// registers, FP args in `xmm0..7`, overflow ints pushed right-to-left
    /// — then push the host-entry sentinel return address. Shared by both
    /// engines so their machine states can never drift at call setup.
    pub fn place_args(&mut self, args: &[crate::HostVal]) -> Result<(), VmError> {
        let mut int_idx = 0;
        let mut fp_idx = 0;
        let mut stack_args: Vec<i64> = Vec::new();
        for a in args {
            match a {
                crate::HostVal::Int(v) => {
                    if int_idx < 6 {
                        self.regs[int_idx] = *v;
                        int_idx += 1;
                    } else {
                        stack_args.push(*v);
                    }
                }
                crate::HostVal::Fp(v) => {
                    if fp_idx >= 8 {
                        return Err(VmError::BadCall("too many fp args".to_string()));
                    }
                    self.xmm[fp_idx] = [*v, 0.0];
                    fp_idx += 1;
                }
            }
        }
        for v in stack_args.iter().rev() {
            self.push(*v)?;
        }
        self.push(crate::SENTINEL as i64)
    }

    // ---- addressing and memory ----

    #[inline]
    fn ea(&self, m: Mem) -> u64 {
        let mut a = self.regs[m.base.0 as usize & 15] as u64;
        if let Some((r, s)) = m.index {
            a = a.wrapping_add((self.regs[r.0 as usize & 15] as u64).wrapping_mul(s as u64));
        }
        a.wrapping_add(m.disp as i64 as u64)
    }

    /// Uninstrumented 8-byte load: stack-engine traffic (`push`/`pop`,
    /// return addresses) and host access paths.
    #[inline]
    pub fn load64_raw(&self, addr: u64) -> Result<u64, VmError> {
        match self
            .mem
            .get(addr as usize..)
            .and_then(|s| s.first_chunk::<8>())
        {
            Some(b) => Ok(u64::from_le_bytes(*b)),
            None => Err(VmError::Fault { addr, len: 8 }),
        }
    }

    /// Uninstrumented 8-byte store (see [`Machine::load64_raw`]).
    #[inline]
    pub fn store64_raw(&mut self, addr: u64, v: u64) -> Result<(), VmError> {
        match self
            .mem
            .get_mut(addr as usize..)
            .and_then(|s| s.first_chunk_mut::<8>())
        {
            Some(b) => {
                *b = v.to_le_bytes();
                Ok(())
            }
            None => Err(VmError::Fault { addr, len: 8 }),
        }
    }

    /// 8-byte load through an explicit memory operand — feeds the cache
    /// simulator when memory profiling is on. Accesses below the heap top
    /// are data (host-allocated arrays); everything above is stack.
    #[inline(always)]
    pub fn load64(&mut self, addr: u64) -> Result<u64, VmError> {
        if let Some(sim) = self.sim.as_deref_mut() {
            sim.access(addr, 8, false, addr >= self.heap_top);
        }
        self.load64_raw(addr)
    }

    /// 8-byte store through an explicit memory operand (see
    /// [`Machine::load64`]).
    #[inline(always)]
    pub fn store64(&mut self, addr: u64, v: u64) -> Result<(), VmError> {
        if let Some(sim) = self.sim.as_deref_mut() {
            sim.access(addr, 8, true, addr >= self.heap_top);
        }
        self.store64_raw(addr, v)
    }

    #[inline]
    pub fn push(&mut self, v: i64) -> Result<(), VmError> {
        self.regs[RSP] -= 8;
        if (self.regs[RSP] as u64) < self.heap_top {
            return Err(VmError::StackOverflow);
        }
        self.store64_raw(self.regs[RSP] as u64, v as u64)
    }

    #[inline]
    pub fn pop(&mut self) -> Result<i64, VmError> {
        let v = self.load64_raw(self.regs[RSP] as u64)? as i64;
        self.regs[RSP] += 8;
        Ok(v)
    }

    // ---- condition codes ----

    #[inline(always)]
    pub fn cond(&self, cc: Cc) -> bool {
        match (cc, self.flags) {
            (Cc::E, Flags::IntCmp(a, b)) => a == b,
            (Cc::Ne, Flags::IntCmp(a, b)) => a != b,
            (Cc::L, Flags::IntCmp(a, b)) => a < b,
            (Cc::Le, Flags::IntCmp(a, b)) => a <= b,
            (Cc::G, Flags::IntCmp(a, b)) => a > b,
            (Cc::Ge, Flags::IntCmp(a, b)) => a >= b,
            // unsigned below/above on int compares
            (Cc::B, Flags::IntCmp(a, b)) => (a as u64) < (b as u64),
            (Cc::Be, Flags::IntCmp(a, b)) => (a as u64) <= (b as u64),
            (Cc::A, Flags::IntCmp(a, b)) => (a as u64) > (b as u64),
            (Cc::Ae, Flags::IntCmp(a, b)) => (a as u64) >= (b as u64),
            // FP compares (ucomisd): NaN ⇒ unordered ⇒ "below"-family true
            (Cc::E, Flags::FpCmp(a, b)) => a == b,
            (Cc::Ne, Flags::FpCmp(a, b)) => a != b,
            (Cc::B | Cc::L, Flags::FpCmp(a, b)) => a < b || a.is_nan() || b.is_nan(),
            (Cc::Be | Cc::Le, Flags::FpCmp(a, b)) => a <= b || a.is_nan() || b.is_nan(),
            (Cc::A | Cc::G, Flags::FpCmp(a, b)) => a > b,
            (Cc::Ae | Cc::Ge, Flags::FpCmp(a, b)) => a >= b,
            (Cc::E, Flags::Test(v)) => v == 0,
            (Cc::Ne, Flags::Test(v)) => v != 0,
            (Cc::L, Flags::Test(v)) => v < 0,
            (Cc::Ge, Flags::Test(v)) => v >= 0,
            (Cc::Le, Flags::Test(v)) => v <= 0,
            (Cc::G, Flags::Test(v)) => v > 0,
            (Cc::B | Cc::Be | Cc::A | Cc::Ae, Flags::Test(_)) => false,
        }
    }

    // ---- instruction semantics ----

    #[inline(always)]
    pub fn exec(&mut self, inst: Inst) -> Result<Ctl, VmError> {
        use Inst::*;
        macro_rules! r {
            ($reg:expr) => {
                self.regs[$reg.0 as usize & 15]
            };
        }
        macro_rules! x {
            ($reg:expr) => {
                self.xmm[$reg.0 as usize & 15]
            };
        }
        match inst {
            MovRR(d, s) => r!(d) = r!(s),
            MovRI(d, v) => r!(d) = v,
            Load(d, m) => {
                let a = self.ea(m);
                r!(d) = self.load64(a)? as i64;
            }
            Store(m, s) => {
                let a = self.ea(m);
                let v = r!(s) as u64;
                self.store64(a, v)?;
            }
            Lea(d, m) => {
                let a = self.ea(m);
                r!(d) = a as i64;
            }
            Push(s) => {
                let v = r!(s);
                self.push(v)?;
            }
            Pop(d) => {
                let v = self.pop()?;
                r!(d) = v;
            }
            Movsxd(d, s) => r!(d) = r!(s) as i32 as i64,
            Cqo => {} // sign extension is folded into Idiv below
            AddRR(d, s) => r!(d) = r!(d).wrapping_add(r!(s)),
            AddRI(d, v) => r!(d) = r!(d).wrapping_add(v),
            SubRR(d, s) => r!(d) = r!(d).wrapping_sub(r!(s)),
            SubRI(d, v) => r!(d) = r!(d).wrapping_sub(v),
            ImulRR(d, s) => r!(d) = r!(d).wrapping_mul(r!(s)),
            ImulRI(d, v) => r!(d) = r!(d).wrapping_mul(v),
            Idiv(s) => {
                let divisor = r!(s);
                if divisor == 0 {
                    return Err(VmError::DivByZero);
                }
                let dividend = self.regs[0];
                self.regs[0] = dividend.wrapping_div(divisor);
                self.regs[11] = dividend.wrapping_rem(divisor);
            }
            Neg(d) => r!(d) = r!(d).wrapping_neg(),
            CmpRR(a, b) => self.flags = Flags::IntCmp(r!(a), r!(b)),
            CmpRI(a, v) => self.flags = Flags::IntCmp(r!(a), v),
            AndRR(d, s) => r!(d) &= r!(s),
            OrRR(d, s) => r!(d) |= r!(s),
            XorRR(d, s) => r!(d) ^= r!(s),
            Not(d) => r!(d) = !r!(d),
            ShlRI(d, k) => r!(d) = r!(d).wrapping_shl(k as u32),
            SarRI(d, k) => r!(d) = r!(d).wrapping_shr(k as u32),
            ShrRI(d, k) => r!(d) = ((r!(d) as u64).wrapping_shr(k as u32)) as i64,
            TestRR(a, b) => self.flags = Flags::Test(r!(a) & r!(b)),
            Setcc(cc, d) => r!(d) = self.cond(cc) as i64,
            Jmp(t) => return Ok(Ctl::Jump(t)),
            Jcc(cc, t) => {
                if self.cond(cc) {
                    return Ok(Ctl::Jump(t));
                }
            }
            Call(sym) => return Ok(Ctl::Call(sym)),
            Ret => return Ok(Ctl::Ret),
            MovsdXX(d, s) => x!(d)[0] = x!(s)[0],
            MovsdLoad(d, m) => {
                let a = self.ea(m);
                x!(d)[0] = f64::from_bits(self.load64(a)?);
            }
            MovsdStore(m, s) => {
                let a = self.ea(m);
                let v = x!(s)[0].to_bits();
                self.store64(a, v)?;
            }
            MovapdXX(d, s) => x!(d) = x!(s),
            MovupdLoad(d, m) => {
                let a = self.ea(m);
                x!(d)[0] = f64::from_bits(self.load64(a)?);
                x!(d)[1] = f64::from_bits(self.load64(a + 8)?);
            }
            MovupdStore(m, s) => {
                let a = self.ea(m);
                let v = x!(s);
                self.store64(a, v[0].to_bits())?;
                self.store64(a + 8, v[1].to_bits())?;
            }
            MovqXR(d, s) => x!(d)[0] = f64::from_bits(r!(s) as u64),
            MovqRX(d, s) => r!(d) = x!(s)[0].to_bits() as i64,
            Addsd(d, s) => x!(d)[0] += x!(s)[0],
            Subsd(d, s) => x!(d)[0] -= x!(s)[0],
            Mulsd(d, s) => x!(d)[0] *= x!(s)[0],
            Divsd(d, s) => x!(d)[0] /= x!(s)[0],
            Sqrtsd(d, s) => x!(d)[0] = x!(s)[0].sqrt(),
            Minsd(d, s) => x!(d)[0] = x!(d)[0].min(x!(s)[0]),
            Maxsd(d, s) => x!(d)[0] = x!(d)[0].max(x!(s)[0]),
            Addpd(d, s) => {
                x!(d)[0] += x!(s)[0];
                x!(d)[1] += x!(s)[1];
            }
            Subpd(d, s) => {
                x!(d)[0] -= x!(s)[0];
                x!(d)[1] -= x!(s)[1];
            }
            Mulpd(d, s) => {
                x!(d)[0] *= x!(s)[0];
                x!(d)[1] *= x!(s)[1];
            }
            Divpd(d, s) => {
                x!(d)[0] /= x!(s)[0];
                x!(d)[1] /= x!(s)[1];
            }
            Sqrtpd(d, s) => {
                x!(d)[0] = x!(s)[0].sqrt();
                x!(d)[1] = x!(s)[1].sqrt();
            }
            Andpd(d, s) => {
                for l in 0..2 {
                    x!(d)[l] = f64::from_bits(x!(d)[l].to_bits() & x!(s)[l].to_bits());
                }
            }
            Orpd(d, s) => {
                for l in 0..2 {
                    x!(d)[l] = f64::from_bits(x!(d)[l].to_bits() | x!(s)[l].to_bits());
                }
            }
            Xorpd(d, s) => {
                for l in 0..2 {
                    x!(d)[l] = f64::from_bits(x!(d)[l].to_bits() ^ x!(s)[l].to_bits());
                }
            }
            Ucomisd(a, b) => self.flags = Flags::FpCmp(x!(a)[0], x!(b)[0]),
            Unpckhpd(d, s) => {
                let hi = x!(s)[1];
                x!(d)[0] = x!(d)[1];
                x!(d)[1] = hi;
            }
            Unpcklpd(d, s) => {
                let lo = x!(s)[0];
                x!(d)[1] = lo;
            }
            Cvtsi2sd(d, s) => x!(d)[0] = r!(s) as f64,
            Cvttsd2si(d, s) => r!(d) = x!(s)[0] as i64,
            Nop => {}
            Halt => return Ok(Ctl::Halt),
        }
        Ok(Ctl::Next)
    }
}
