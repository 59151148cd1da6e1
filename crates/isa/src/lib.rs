//! # mira-isa — VX86, the virtual x86-flavored instruction set
//!
//! Mira analyzes *object code* because compiler transformations make
//! source-only models inaccurate (paper §I). This crate defines the
//! instruction set that our compiler (`mira-vcc`) targets, our object
//! format (`mira-vobj`) stores, our disassembler decodes, and our
//! instrumented interpreter (`mira-vm`) executes.
//!
//! VX86 is deliberately x86-64-shaped:
//!
//! * 16 general-purpose 64-bit registers and 16 XMM registers holding two
//!   `f64` lanes (SSE2 style);
//! * scalar (`addsd`, `mulsd`, ...) and packed (`addpd`, `mulpd`, ...)
//!   double-precision arithmetic — the distinction the paper's FPI metric
//!   and the PBound comparison hinge on;
//! * a variable-length binary encoding ([`Inst::encode`] /
//!   [`Inst::decode`]) so the object format contains real bytes, not
//!   structs;
//! * a mapping from every opcode to one of the 64 instruction categories
//!   of the architecture description file ([`Inst::category`]).
//!
//! ## The instruction table is the format
//!
//! Each instruction is one row of the `instructions!` table in this file:
//! its variant, its operands in encoding order, its opcode byte, its
//! mnemonic and its category, e.g.
//! `Store(m: Mem, s: Reg) = 0x04, "mov", IntDataTransfer;`. The table
//! generates [`Inst`], [`Inst::encode`] (the opcode byte, then each
//! operand), [`Inst::decode`], [`Inst::encoded_len`] (1 plus the
//! operands' constant widths, no encoding), [`Inst::mnemonic`],
//! [`Inst::name`] and [`Inst::category`]. Each operand kind (`Reg`,
//! `XReg`, `Cc`, `u8`, `u32`, `i64`, `Mem`) states its width and byte
//! layout once. A duplicated opcode is an unreachable `decode` arm,
//! which the lint gate refuses. Adding an instruction means one row
//! here, one `Machine::exec` arm in `mira-vm` and one `Display` arm.
//! Since the encoder and the decoder come from the same row, a round
//! trip cannot see a changed opcode or layout: `tests/golden.rs` pins
//! the bytes and text of every instruction.

use mira_arch::Category;
use std::fmt;

/// A general-purpose register `r0`–`r15`.
///
/// ABI conventions used by `mira-vcc` / `mira-vm`:
/// integer/pointer arguments in `r0`–`r5`, return value in `r0`,
/// `r14` = frame pointer, `r15` = stack pointer; the rest are scratch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(pub u8);

/// An XMM register `x0`–`x15` holding two double-precision lanes.
/// FP arguments in `x0`–`x7`, FP return value in `x0`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct XReg(pub u8);

pub const NUM_REGS: usize = 16;
pub const NUM_XREGS: usize = 16;

/// Frame pointer (callee-saved).
pub const RBP: Reg = Reg(14);
/// Stack pointer.
pub const RSP: Reg = Reg(15);
/// Integer/pointer argument registers (return value in `r0`).
pub const RARG: [Reg; 6] = [Reg(0), Reg(1), Reg(2), Reg(3), Reg(4), Reg(5)];
/// FP argument registers.
pub const XARG: [XReg; 8] = [
    XReg(0),
    XReg(1),
    XReg(2),
    XReg(3),
    XReg(4),
    XReg(5),
    XReg(6),
    XReg(7),
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RBP => write!(f, "rbp"),
            RSP => write!(f, "rsp"),
            Reg(n) => write!(f, "r{n}"),
        }
    }
}

impl fmt::Display for XReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xmm{}", self.0)
    }
}

/// A memory operand `[base + index*scale + disp]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Mem {
    pub base: Reg,
    pub index: Option<(Reg, u8)>,
    pub disp: i32,
}

impl Mem {
    pub fn base(base: Reg) -> Mem {
        Mem {
            base,
            index: None,
            disp: 0,
        }
    }

    pub fn base_disp(base: Reg, disp: i32) -> Mem {
        Mem {
            base,
            index: None,
            disp,
        }
    }

    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i32) -> Mem {
        Mem {
            base,
            index: Some((index, scale)),
            disp,
        }
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.base)?;
        if let Some((r, s)) = self.index {
            write!(f, " + {r}*{s}")?;
        }
        if self.disp > 0 {
            write!(f, " + {}", self.disp)?;
        } else if self.disp < 0 {
            write!(f, " - {}", self.disp.unsigned_abs())?;
        }
        write!(f, "]")
    }
}

/// Condition codes for `jcc` / `setcc`. `B`/`A` variants are the unsigned
/// comparisons produced by `ucomisd`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum Cc {
    E = 0,
    Ne = 1,
    L = 2,
    Le = 3,
    G = 4,
    Ge = 5,
    B = 6,
    Be = 7,
    A = 8,
    Ae = 9,
}

impl Cc {
    pub fn from_u8(v: u8) -> Option<Cc> {
        use Cc::*;
        [E, Ne, L, Le, G, Ge, B, Be, A, Ae].get(v as usize).copied()
    }

    /// The negated condition (`jne` for `je`, ...).
    pub fn negate(self) -> Cc {
        use Cc::*;
        match self {
            E => Ne,
            Ne => E,
            L => Ge,
            Le => G,
            G => Le,
            Ge => L,
            B => Ae,
            Be => A,
            A => Be,
            Ae => B,
        }
    }

    pub fn mnemonic(self) -> &'static str {
        use Cc::*;
        match self {
            E => "e",
            Ne => "ne",
            L => "l",
            Le => "le",
            G => "g",
            Ge => "ge",
            B => "b",
            Be => "be",
            A => "a",
            Ae => "ae",
        }
    }
}

/// Errors from [`Inst::decode`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The byte stream ended inside an instruction.
    Truncated,
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Malformed operand (bad register number, scale or condition code).
    BadOperand,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated instruction stream"),
            DecodeError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            DecodeError::BadOperand => write!(f, "malformed operand"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One operand kind of the binary format: its constant width and its byte
/// layout. An instruction encodes as its opcode byte followed by its
/// operands in field order. Implementations are `#[inline]`: trait impl
/// methods are exported symbols, and without it `encode` and `decode`
/// reach them through indirect calls (decode measured 10–15% slower).
trait Operand: Sized {
    /// Encoded width in bytes.
    const WIDTH: usize;
    fn put(self, out: &mut Vec<u8>);
    /// Read one operand off the front of `rest`, advancing it.
    fn get(rest: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Split the next `N` bytes off the front of `rest`.
fn take<const N: usize>(rest: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, tail) = rest.split_first_chunk().ok_or(DecodeError::Truncated)?;
    *rest = tail;
    Ok(*head)
}

/// A register number, refused past a register file of `count` registers.
fn register(rest: &mut &[u8], count: usize) -> Result<u8, DecodeError> {
    let [b] = take(rest)?;
    if (b as usize) < count {
        Ok(b)
    } else {
        Err(DecodeError::BadOperand)
    }
}

impl Operand for Reg {
    const WIDTH: usize = 1;
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        out.push(self.0);
    }
    #[inline]
    fn get(rest: &mut &[u8]) -> Result<Reg, DecodeError> {
        register(rest, NUM_REGS).map(Reg)
    }
}

impl Operand for XReg {
    const WIDTH: usize = 1;
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        out.push(self.0);
    }
    #[inline]
    fn get(rest: &mut &[u8]) -> Result<XReg, DecodeError> {
        register(rest, NUM_XREGS).map(XReg)
    }
}

impl Operand for Cc {
    const WIDTH: usize = 1;
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        out.push(self as u8);
    }
    #[inline]
    fn get(rest: &mut &[u8]) -> Result<Cc, DecodeError> {
        let [b] = take(rest)?;
        Cc::from_u8(b).ok_or(DecodeError::BadOperand)
    }
}

/// Shift counts, jump and call targets, and immediates: little-endian.
macro_rules! int_operand {
    ($($int:ty),*) => {$(
        impl Operand for $int {
            const WIDTH: usize = std::mem::size_of::<$int>();
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(rest: &mut &[u8]) -> Result<$int, DecodeError> {
                take(rest).map(<$int>::from_le_bytes)
            }
        }
    )*};
}

int_operand!(u8, u32, i64);

/// `[base, has_index, index, scale, disp]`, `disp` a little-endian `i32`.
/// Without an index, `has_index`, `index` and `scale` are written as zero.
/// Only these bytes decode: `has_index` is 0 or 1, and 0 with nonzero
/// index or scale bytes is refused, so every accepted pattern re-encodes
/// to itself.
impl Operand for Mem {
    const WIDTH: usize = 8;
    #[inline]
    fn put(self, out: &mut Vec<u8>) {
        let (has_index, (index, scale)) = match self.index {
            Some((r, s)) => (1, (r.0, s)),
            None => (0, (0, 0)),
        };
        out.extend_from_slice(&[self.base.0, has_index, index, scale]);
        out.extend_from_slice(&self.disp.to_le_bytes());
    }
    #[inline]
    fn get(rest: &mut &[u8]) -> Result<Mem, DecodeError> {
        let base = Reg::get(rest)?;
        let [has_index, index, scale] = take(rest)?;
        let disp = take(rest).map(i32::from_le_bytes)?;
        let index = match (has_index, index, scale) {
            (0, 0, 0) => None,
            (1, _, 1 | 2 | 4 | 8) if (index as usize) < NUM_REGS => Some((Reg(index), scale)),
            _ => return Err(DecodeError::BadOperand),
        };
        Ok(Mem { base, index, disp })
    }
}

/// Generates [`Inst`] and its binary format from the instruction table:
/// one row `Variant(field: Kind, ...) = opcode, "mnemonic", Category;`
/// per instruction, operands in encoding order. A duplicated opcode is an
/// unreachable `decode` arm, which the lint gate refuses.
macro_rules! instructions {
    ($(
        $(#[$doc:meta])*
        $name:ident $(($($field:ident: $kind:ty),*))? = $op:literal, $mnemonic:literal, $category:ident;
    )*) => {
        /// One VX86 instruction, operands fully resolved (jump targets are
        /// absolute byte addresses within the object's `.text`; call targets
        /// are symbol indices).
        #[derive(Clone, Copy, PartialEq, Debug)]
        pub enum Inst {
            $($(#[$doc])* $name $(($($kind),*))?,)*
        }

        impl Inst {
            /// Append the binary encoding of this instruction to `out`: the
            /// opcode byte, then each operand in field order.
            pub fn encode(&self, out: &mut Vec<u8>) {
                match *self {
                    $(Inst::$name $(($($field),*))? => {
                        out.push($op);
                        $($(Operand::put($field, out);)*)?
                    })*
                }
            }

            /// Decode one instruction at `buf[offset..]`; returns the
            /// instruction and its encoded length.
            pub fn decode(buf: &[u8], offset: usize) -> Result<(Inst, usize), DecodeError> {
                let mut rest = buf.get(offset..).unwrap_or_default();
                let start = rest.len();
                let [op] = take(&mut rest)?;
                let inst = match op {
                    $($op => {
                        $($(let $field = <$kind>::get(&mut rest)?;)*)?
                        Inst::$name $(($($field),*))?
                    })*
                    other => return Err(DecodeError::BadOpcode(other)),
                };
                Ok((inst, start - rest.len()))
            }

            /// Encoded length in bytes: the opcode byte plus the operands'
            /// widths.
            pub fn encoded_len(&self) -> usize {
                match self {
                    $(Inst::$name { .. } => 1 $($(+ <$kind as Operand>::WIDTH)*)?,)*
                }
            }

            /// The instruction category per the architecture description
            /// taxonomy.
            pub fn category(&self) -> Category {
                match self {
                    $(Inst::$name { .. } => Category::$category,)*
                }
            }

            /// Assembly-style mnemonic (without operand-form suffixes).
            pub fn mnemonic(&self) -> &'static str {
                match self {
                    $(Inst::$name { .. } => $mnemonic,)*
                }
            }

            /// The variant name (`"MovsdLoad"`), which tells apart the
            /// operand forms that share a mnemonic.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Inst::$name { .. } => stringify!($name),)*
                }
            }
        }
    };
}

instructions! {
    // --- integer data transfer ---
    MovRR(d: Reg, s: Reg) = 0x01, "mov", IntDataTransfer;
    MovRI(d: Reg, v: i64) = 0x02, "mov", IntDataTransfer;
    Load(d: Reg, m: Mem) = 0x03, "mov", IntDataTransfer;
    Store(m: Mem, s: Reg) = 0x04, "mov", IntDataTransfer;
    Lea(d: Reg, m: Mem) = 0x05, "lea", IntDataTransfer;
    Push(r: Reg) = 0x06, "push", IntDataTransfer;
    Pop(r: Reg) = 0x07, "pop", IntDataTransfer;
    // --- 64-bit mode ---
    Movsxd(d: Reg, s: Reg) = 0x08, "movsxd", Mode64Bit;
    Cqo = 0x09, "cqo", Mode64Bit;
    // --- integer arithmetic ---
    AddRR(d: Reg, s: Reg) = 0x10, "add", IntArith;
    AddRI(d: Reg, v: i64) = 0x11, "add", IntArith;
    SubRR(d: Reg, s: Reg) = 0x12, "sub", IntArith;
    SubRI(d: Reg, v: i64) = 0x13, "sub", IntArith;
    ImulRR(d: Reg, s: Reg) = 0x14, "imul", IntArith;
    ImulRI(d: Reg, v: i64) = 0x15, "imul", IntArith;
    /// Signed divide of `r0` by the operand; quotient in `r0`, remainder in
    /// `r11` (VX86 convention).
    Idiv(r: Reg) = 0x16, "idiv", IntArith;
    Neg(r: Reg) = 0x17, "neg", IntArith;
    CmpRR(a: Reg, b: Reg) = 0x18, "cmp", IntArith;
    CmpRI(a: Reg, v: i64) = 0x19, "cmp", IntArith;
    // --- integer logical ---
    AndRR(d: Reg, s: Reg) = 0x20, "and", IntLogical;
    OrRR(d: Reg, s: Reg) = 0x21, "or", IntLogical;
    XorRR(d: Reg, s: Reg) = 0x22, "xor", IntLogical;
    Not(r: Reg) = 0x23, "not", IntLogical;
    // --- shifts ---
    ShlRI(r: Reg, k: u8) = 0x24, "shl", ShiftRotate;
    SarRI(r: Reg, k: u8) = 0x25, "sar", ShiftRotate;
    ShrRI(r: Reg, k: u8) = 0x26, "shr", ShiftRotate;
    // --- bit & byte ---
    TestRR(a: Reg, b: Reg) = 0x27, "test", BitByte;
    Setcc(cc: Cc, r: Reg) = 0x28, "setcc", BitByte;
    // --- control transfer ---
    Jmp(target: u32) = 0x30, "jmp", IntControlTransfer;
    Jcc(cc: Cc, target: u32) = 0x31, "jcc", IntControlTransfer;
    /// Call the function with this symbol index.
    Call(sym: u32) = 0x32, "call", IntControlTransfer;
    Ret = 0x33, "ret", IntControlTransfer;
    // --- SSE2 data movement ---
    MovsdXX(d: XReg, s: XReg) = 0x40, "movsd", Sse2DataMovement;
    MovsdLoad(d: XReg, m: Mem) = 0x41, "movsd", Sse2DataMovement;
    MovsdStore(m: Mem, s: XReg) = 0x42, "movsd", Sse2DataMovement;
    MovapdXX(d: XReg, s: XReg) = 0x43, "movapd", Sse2DataMovement;
    MovupdLoad(d: XReg, m: Mem) = 0x44, "movupd", Sse2DataMovement;
    MovupdStore(m: Mem, s: XReg) = 0x45, "movupd", Sse2DataMovement;
    /// Move an integer register into lane 0 of an XMM register (bit cast).
    MovqXR(x: XReg, r: Reg) = 0x46, "movq", Sse2DataMovement;
    MovqRX(r: Reg, x: XReg) = 0x47, "movq", Sse2DataMovement;
    // --- SSE2 scalar arithmetic (lane 0) ---
    Addsd(d: XReg, s: XReg) = 0x50, "addsd", Sse2PackedArith;
    Subsd(d: XReg, s: XReg) = 0x51, "subsd", Sse2PackedArith;
    Mulsd(d: XReg, s: XReg) = 0x52, "mulsd", Sse2PackedArith;
    Divsd(d: XReg, s: XReg) = 0x53, "divsd", Sse2PackedArith;
    Sqrtsd(d: XReg, s: XReg) = 0x54, "sqrtsd", Sse2PackedArith;
    Minsd(d: XReg, s: XReg) = 0x55, "minsd", Sse2PackedArith;
    Maxsd(d: XReg, s: XReg) = 0x56, "maxsd", Sse2PackedArith;
    // --- SSE2 packed arithmetic (both lanes) ---
    Addpd(d: XReg, s: XReg) = 0x60, "addpd", Sse2PackedArith;
    Subpd(d: XReg, s: XReg) = 0x61, "subpd", Sse2PackedArith;
    Mulpd(d: XReg, s: XReg) = 0x62, "mulpd", Sse2PackedArith;
    Divpd(d: XReg, s: XReg) = 0x63, "divpd", Sse2PackedArith;
    Sqrtpd(d: XReg, s: XReg) = 0x64, "sqrtpd", Sse2PackedArith;
    // --- SSE2 logical ---
    Andpd(d: XReg, s: XReg) = 0x70, "andpd", Sse2Logical;
    Orpd(d: XReg, s: XReg) = 0x71, "orpd", Sse2Logical;
    Xorpd(d: XReg, s: XReg) = 0x72, "xorpd", Sse2Logical;
    // --- SSE2 compare ---
    Ucomisd(a: XReg, b: XReg) = 0x73, "ucomisd", Sse2Compare;
    // --- SSE2 shuffle/unpack ---
    /// `dst.lane0 = dst.lane1; dst.lane1 = src.lane1` (high unpack, used
    /// for horizontal reduction of packed accumulators).
    Unpckhpd(d: XReg, s: XReg) = 0x74, "unpckhpd", Sse2ShuffleUnpack;
    /// `dst.lane1 = src.lane0` (low unpack; `unpcklpd x, x` broadcasts
    /// lane 0 — how scalars are splat across a packed vector).
    Unpcklpd(d: XReg, s: XReg) = 0x77, "unpcklpd", Sse2ShuffleUnpack;
    // --- SSE2 conversion ---
    Cvtsi2sd(x: XReg, r: Reg) = 0x75, "cvtsi2sd", Sse2Conversion;
    Cvttsd2si(r: Reg, x: XReg) = 0x76, "cvttsd2si", Sse2Conversion;
    // --- misc ---
    Nop = 0x80, "nop", MiscInstr;
    /// Stop the virtual machine (top-of-stack return).
    Halt = 0x81, "halt", MiscInstr;
}

impl Inst {
    /// Is this a packed (2-lane) FP arithmetic instruction? One packed
    /// instruction performs two source-level FP operations — the fact the
    /// PBound source-only comparison cannot see.
    pub fn is_packed_fp(&self) -> bool {
        self.flop_count() == 2
    }

    /// Explicit data-memory traffic of one execution: `(is_store, bytes)`.
    ///
    /// This is the byte-accounting contract shared by the static memory
    /// models (`mira-mem` / `ModelOp::MemAcc`) and the VM cache simulator:
    /// only instructions with an explicit memory operand count, with packed
    /// (`movupd`) accesses at their full 16-byte width. `push`/`pop` and
    /// the implicit return-address traffic of `call`/`ret` are *excluded*
    /// on both sides — roofline bytes measure data movement, not the stack
    /// engine.
    pub fn memory_bytes(&self) -> Option<(bool, u32)> {
        use Inst::*;
        match self {
            Load(..) | MovsdLoad(..) => Some((false, 8)),
            Store(..) | MovsdStore(..) => Some((true, 8)),
            MovupdLoad(..) => Some((false, 16)),
            MovupdStore(..) => Some((true, 16)),
            _ => None,
        }
    }

    /// The explicit memory operand, for instructions that have one. `Lea`
    /// forms an address without accessing memory, so it returns `None` —
    /// this accessor exists for classifying *traffic*, mirroring
    /// [`Inst::memory_bytes`].
    pub fn mem_operand(&self) -> Option<Mem> {
        use Inst::*;
        match self {
            Load(_, m) | MovsdLoad(_, m) | MovupdLoad(_, m) => Some(*m),
            Store(m, _) | MovsdStore(m, _) | MovupdStore(m, _) => Some(*m),
            _ => None,
        }
    }

    /// Does this instruction's explicit memory operand address the stack
    /// frame (`rbp`/`rsp`-based: locals, spill slots, stack-passed
    /// arguments) rather than heap data? Frame traffic is register-
    /// allocation artifact — it stays resident in L1 and never pressures
    /// the deeper memory ceilings — so the roofline models account it
    /// separately from array data. `vcc` codegen addresses every frame
    /// slot through `rbp` (or `rsp`), and array elements only ever through
    /// pointer registers, so the base register decides.
    pub fn is_frame_access(&self) -> bool {
        matches!(self.mem_operand(), Some(m) if m.base == RBP || m.base == RSP)
    }

    /// Source-level floating-point operations performed by one execution:
    /// 1 for scalar double arithmetic, 2 for packed (both lanes), 0
    /// otherwise. The numerator of bytes-based arithmetic intensity
    /// (FLOPs/byte) — unlike raw FPI, it credits a packed instruction with
    /// both of the operations it retires.
    pub fn flop_count(&self) -> u32 {
        use Inst::*;
        match self {
            Addsd(..) | Subsd(..) | Mulsd(..) | Divsd(..) | Sqrtsd(..) | Minsd(..) | Maxsd(..) => 1,
            Addpd(..) | Subpd(..) | Mulpd(..) | Divpd(..) | Sqrtpd(..) => 2,
            _ => 0,
        }
    }

    /// Is this a control-transfer instruction that ends a basic block?
    pub fn is_terminator(&self) -> bool {
        use Inst::*;
        matches!(self, Jmp(..) | Jcc(..) | Ret | Halt)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Inst::*;
        match *self {
            MovRR(d, s) => write!(f, "mov {d}, {s}"),
            MovRI(d, v) => write!(f, "mov {d}, {v}"),
            Load(d, m) => write!(f, "mov {d}, qword {m}"),
            Store(m, s) => write!(f, "mov qword {m}, {s}"),
            Lea(d, m) => write!(f, "lea {d}, {m}"),
            Push(r) => write!(f, "push {r}"),
            Pop(r) => write!(f, "pop {r}"),
            Movsxd(d, s) => write!(f, "movsxd {d}, {s}"),
            Cqo => write!(f, "cqo"),
            AddRR(d, s) => write!(f, "add {d}, {s}"),
            AddRI(d, v) => write!(f, "add {d}, {v}"),
            SubRR(d, s) => write!(f, "sub {d}, {s}"),
            SubRI(d, v) => write!(f, "sub {d}, {v}"),
            ImulRR(d, s) => write!(f, "imul {d}, {s}"),
            ImulRI(d, v) => write!(f, "imul {d}, {v}"),
            Idiv(r) => write!(f, "idiv {r}"),
            Neg(r) => write!(f, "neg {r}"),
            CmpRR(a, b) => write!(f, "cmp {a}, {b}"),
            CmpRI(a, v) => write!(f, "cmp {a}, {v}"),
            AndRR(d, s) => write!(f, "and {d}, {s}"),
            OrRR(d, s) => write!(f, "or {d}, {s}"),
            XorRR(d, s) => write!(f, "xor {d}, {s}"),
            Not(r) => write!(f, "not {r}"),
            ShlRI(r, k) => write!(f, "shl {r}, {k}"),
            SarRI(r, k) => write!(f, "sar {r}, {k}"),
            ShrRI(r, k) => write!(f, "shr {r}, {k}"),
            TestRR(a, b) => write!(f, "test {a}, {b}"),
            Setcc(cc, r) => write!(f, "set{} {r}", cc.mnemonic()),
            Jmp(t) => write!(f, "jmp {t:#x}"),
            Jcc(cc, t) => write!(f, "j{} {t:#x}", cc.mnemonic()),
            Call(sym) => write!(f, "call fn#{sym}"),
            Ret => write!(f, "ret"),
            MovsdXX(d, s) => write!(f, "movsd {d}, {s}"),
            MovsdLoad(d, m) => write!(f, "movsd {d}, qword {m}"),
            MovsdStore(m, s) => write!(f, "movsd qword {m}, {s}"),
            MovapdXX(d, s) => write!(f, "movapd {d}, {s}"),
            MovupdLoad(d, m) => write!(f, "movupd {d}, xmmword {m}"),
            MovupdStore(m, s) => write!(f, "movupd xmmword {m}, {s}"),
            MovqXR(x, r) => write!(f, "movq {x}, {r}"),
            MovqRX(r, x) => write!(f, "movq {r}, {x}"),
            Addsd(d, s) => write!(f, "addsd {d}, {s}"),
            Subsd(d, s) => write!(f, "subsd {d}, {s}"),
            Mulsd(d, s) => write!(f, "mulsd {d}, {s}"),
            Divsd(d, s) => write!(f, "divsd {d}, {s}"),
            Sqrtsd(d, s) => write!(f, "sqrtsd {d}, {s}"),
            Minsd(d, s) => write!(f, "minsd {d}, {s}"),
            Maxsd(d, s) => write!(f, "maxsd {d}, {s}"),
            Addpd(d, s) => write!(f, "addpd {d}, {s}"),
            Subpd(d, s) => write!(f, "subpd {d}, {s}"),
            Mulpd(d, s) => write!(f, "mulpd {d}, {s}"),
            Divpd(d, s) => write!(f, "divpd {d}, {s}"),
            Sqrtpd(d, s) => write!(f, "sqrtpd {d}, {s}"),
            Andpd(d, s) => write!(f, "andpd {d}, {s}"),
            Orpd(d, s) => write!(f, "orpd {d}, {s}"),
            Xorpd(d, s) => write!(f, "xorpd {d}, {s}"),
            Ucomisd(a, b) => write!(f, "ucomisd {a}, {b}"),
            Unpckhpd(d, s) => write!(f, "unpckhpd {d}, {s}"),
            Unpcklpd(d, s) => write!(f, "unpcklpd {d}, {s}"),
            Cvtsi2sd(x, r) => write!(f, "cvtsi2sd {x}, {r}"),
            Cvttsd2si(r, x) => write!(f, "cvttsd2si {r}, {x}"),
            Nop => write!(f, "nop"),
            Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decode_errors() {
        assert_eq!(Inst::decode(&[], 0), Err(DecodeError::Truncated));
        assert_eq!(Inst::decode(&[0x33], 2), Err(DecodeError::Truncated));
        assert_eq!(Inst::decode(&[0xff], 0), Err(DecodeError::BadOpcode(0xff)));
        // mov r99, r0
        assert_eq!(
            Inst::decode(&[0x01, 99, 0], 0),
            Err(DecodeError::BadOperand)
        );
        // movsd xmm16, xmm0
        assert_eq!(
            Inst::decode(&[0x40, 16, 0], 0),
            Err(DecodeError::BadOperand)
        );
        // condition code 10
        assert_eq!(
            Inst::decode(&[0x28, 10, 0], 0),
            Err(DecodeError::BadOperand)
        );
        // mov r1, imm64 cut after two immediate bytes
        assert_eq!(
            Inst::decode(&[0x02, 1, 0, 0], 0),
            Err(DecodeError::Truncated)
        );
        // operands are read in order: a bad register before the cut wins
        assert_eq!(
            Inst::decode(&[0x03, 1, 16], 0),
            Err(DecodeError::BadOperand)
        );
    }

    #[test]
    fn mem_operand_checks() {
        let load = |mem: [u8; 4]| {
            let mut buf = vec![0x03, 1];
            buf.extend_from_slice(&mem);
            buf.extend_from_slice(&(-8i32).to_le_bytes());
            Inst::decode(&buf, 0)
        };
        // has_index = 1 needs a register and a scale of 1, 2, 4 or 8
        assert_eq!(load([2, 1, 3, 3]), Err(DecodeError::BadOperand));
        assert_eq!(load([2, 1, 16, 8]), Err(DecodeError::BadOperand));
        assert_eq!(load([16, 0, 0, 0]), Err(DecodeError::BadOperand));
        let mem = Mem::base_index(Reg(2), Reg(3), 4, -8);
        assert_eq!(load([2, 1, 3, 4]), Ok((Inst::Load(Reg(1), mem), 10)));
        // only 0 and 1 mark an index …
        assert_eq!(load([2, 7, 3, 4]), Err(DecodeError::BadOperand));
        // … and without one the index and scale bytes must be zero
        let mem = Mem::base_disp(Reg(2), -8);
        assert_eq!(load([2, 0, 0, 0]), Ok((Inst::Load(Reg(1), mem), 10)));
        assert_eq!(load([2, 0, 99, 3]), Err(DecodeError::BadOperand));
        assert_eq!(load([2, 0, 0, 4]), Err(DecodeError::BadOperand));
    }

    /// A `Mem` decodes exactly when its bytes are canonical, and then
    /// re-encodes to the same bytes: every `index`/`scale` pair under the
    /// `has_index` values either side of the split, every `has_index`
    /// and every base under a few pairs.
    #[test]
    fn mem_decodes_only_canonical_bytes() {
        let canonical = |[base, has_index, index, scale]: [u8; 4]| {
            (base as usize) < NUM_REGS
                && match has_index {
                    0 => index == 0 && scale == 0,
                    1 => (index as usize) < NUM_REGS && matches!(scale, 1 | 2 | 4 | 8),
                    _ => false,
                }
        };
        let check = |bytes: [u8; 4]| {
            let mut buf = [0xf8, 0xff, 0xff, 0xff, 0xf8, 0xff, 0xff, 0xff];
            buf[..4].copy_from_slice(&bytes);
            let mut rest = &buf[..];
            match Mem::get(&mut rest) {
                Ok(mem) => {
                    assert!(canonical(bytes), "{bytes:?} decodes to {mem:?}");
                    assert!(rest.is_empty(), "{bytes:?}");
                    let mut out = Vec::new();
                    mem.put(&mut out);
                    assert_eq!(out, buf, "{bytes:?} decodes to {mem:?}");
                }
                Err(e) => {
                    assert!(!canonical(bytes), "{bytes:?} refused: {e:?}");
                    assert_eq!(e, DecodeError::BadOperand);
                }
            }
        };
        let pairs = [[0, 0], [3, 4], [0, 1], [15, 8], [16, 8], [15, 3]];
        for has_index in [0, 1, 2, 0x80, 0xff] {
            for [index, scale] in (0..=u16::MAX).map(u16::to_le_bytes) {
                check([2, has_index, index, scale]);
            }
        }
        for byte in 0..=u8::MAX {
            for [index, scale] in pairs {
                check([2, byte, index, scale]);
                for has_index in [0, 1, 2] {
                    check([byte, has_index, index, scale]);
                }
            }
        }
    }

    #[test]
    fn mem_display_covers_every_displacement() {
        assert_eq!(
            Mem::base_disp(Reg(1), i32::MIN).to_string(),
            "[r1 - 2147483648]"
        );
        assert_eq!(Mem::base_disp(Reg(1), 0).to_string(), "[r1]");
    }

    #[test]
    fn packed_fp_detection() {
        use Inst::*;
        assert!(Addpd(XReg(0), XReg(1)).is_packed_fp());
        assert!(!Addsd(XReg(0), XReg(1)).is_packed_fp());
        assert!(!MovapdXX(XReg(0), XReg(1)).is_packed_fp());
    }

    #[test]
    fn memory_bytes_contract() {
        use Inst::*;
        assert_eq!(
            Load(Reg(0), Mem::base(Reg(1))).memory_bytes(),
            Some((false, 8))
        );
        assert_eq!(
            Store(Mem::base(Reg(1)), Reg(0)).memory_bytes(),
            Some((true, 8))
        );
        assert_eq!(
            MovsdLoad(XReg(0), Mem::base(Reg(1))).memory_bytes(),
            Some((false, 8))
        );
        assert_eq!(
            MovupdStore(Mem::base(Reg(1)), XReg(0)).memory_bytes(),
            Some((true, 16))
        );
        // stack-engine and implicit traffic is excluded by contract
        assert_eq!(Push(Reg(0)).memory_bytes(), None);
        assert_eq!(Pop(Reg(0)).memory_bytes(), None);
        assert_eq!(Call(0).memory_bytes(), None);
        assert_eq!(Ret.memory_bytes(), None);
        assert_eq!(Lea(Reg(0), Mem::base(Reg(1))).memory_bytes(), None);
    }

    #[test]
    fn frame_access_classification() {
        use Inst::*;
        // rbp/rsp-based operands are frame traffic …
        assert!(Load(Reg(0), Mem::base_disp(RBP, -8)).is_frame_access());
        assert!(MovsdStore(Mem::base_disp(RBP, -16), XReg(0)).is_frame_access());
        assert!(Load(Reg(0), Mem::base(RSP)).is_frame_access());
        // … pointer-register operands are data traffic …
        assert!(!Load(Reg(0), Mem::base(Reg(1))).is_frame_access());
        assert!(!MovupdLoad(XReg(0), Mem::base(Reg(2))).is_frame_access());
        // … and instructions without a memory operand are neither
        assert!(!Push(Reg(0)).is_frame_access());
        assert!(Lea(Reg(0), Mem::base(RBP)).mem_operand().is_none());
        assert_eq!(
            Store(Mem::base(Reg(3)), Reg(0)).mem_operand(),
            Some(Mem::base(Reg(3)))
        );
    }

    #[test]
    fn flop_counts() {
        use Inst::*;
        assert_eq!(Addsd(XReg(0), XReg(1)).flop_count(), 1);
        assert_eq!(Sqrtsd(XReg(0), XReg(1)).flop_count(), 1);
        assert_eq!(Mulpd(XReg(0), XReg(1)).flop_count(), 2);
        assert_eq!(Andpd(XReg(0), XReg(1)).flop_count(), 0);
        assert_eq!(Ucomisd(XReg(0), XReg(1)).flop_count(), 0);
        assert_eq!(MovsdLoad(XReg(0), Mem::base(Reg(1))).flop_count(), 0);
    }

    #[test]
    fn terminator_detection() {
        assert!(Inst::Ret.is_terminator());
        assert!(Inst::Jmp(0).is_terminator());
        assert!(Inst::Jcc(Cc::E, 0).is_terminator());
        assert!(!Inst::Call(0).is_terminator());
        assert!(!Inst::Nop.is_terminator());
    }

    #[test]
    fn cc_negation_involutive() {
        use Cc::*;
        for cc in [E, Ne, L, Le, G, Ge, B, Be, A, Ae] {
            assert_eq!(cc.negate().negate(), cc);
            assert_ne!(cc.negate(), cc);
        }
    }

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u8..16).prop_map(Reg)
    }

    fn arb_xreg() -> impl Strategy<Value = XReg> {
        (0u8..16).prop_map(XReg)
    }

    fn arb_mem() -> impl Strategy<Value = Mem> {
        (
            arb_reg(),
            proptest::option::of((arb_reg(), prop_oneof![Just(1u8), Just(2), Just(4), Just(8)])),
            any::<i32>(),
        )
            .prop_map(|(base, index, disp)| Mem { base, index, disp })
    }

    fn arb_cc() -> impl Strategy<Value = Cc> {
        (0u8..10).prop_map(|v| Cc::from_u8(v).unwrap())
    }

    fn arb_inst() -> impl Strategy<Value = Inst> {
        use Inst::*;
        prop_oneof![
            (arb_reg(), arb_reg()).prop_map(|(a, b)| MovRR(a, b)),
            (arb_reg(), any::<i64>()).prop_map(|(a, b)| MovRI(a, b)),
            (arb_reg(), arb_mem()).prop_map(|(a, b)| Load(a, b)),
            (arb_mem(), arb_reg()).prop_map(|(a, b)| Store(a, b)),
            (arb_reg(), arb_mem()).prop_map(|(a, b)| Lea(a, b)),
            (arb_reg(), any::<i64>()).prop_map(|(a, b)| AddRI(a, b)),
            (arb_reg(), arb_reg()).prop_map(|(a, b)| ImulRR(a, b)),
            (arb_reg(), 0u8..64).prop_map(|(a, b)| ShlRI(a, b)),
            (arb_cc(), arb_reg()).prop_map(|(a, b)| Setcc(a, b)),
            any::<u32>().prop_map(Jmp),
            (arb_cc(), any::<u32>()).prop_map(|(a, b)| Jcc(a, b)),
            any::<u32>().prop_map(Call),
            (arb_xreg(), arb_mem()).prop_map(|(a, b)| MovsdLoad(a, b)),
            (arb_mem(), arb_xreg()).prop_map(|(a, b)| MovupdStore(a, b)),
            (arb_xreg(), arb_xreg()).prop_map(|(a, b)| Mulpd(a, b)),
            (arb_xreg(), arb_xreg()).prop_map(|(a, b)| Divsd(a, b)),
            (arb_xreg(), arb_reg()).prop_map(|(a, b)| Cvtsi2sd(a, b)),
            Just(Ret),
            Just(Cqo),
            Just(Halt),
        ]
    }

    proptest! {
        #[test]
        fn prop_roundtrip(inst in arb_inst()) {
            let mut buf = Vec::new();
            inst.encode(&mut buf);
            let (decoded, len) = Inst::decode(&buf, 0).unwrap();
            prop_assert_eq!(decoded, inst);
            prop_assert_eq!(len, buf.len());
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
            let _ = Inst::decode(&bytes, 0);
        }
    }
}
