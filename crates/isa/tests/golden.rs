//! The VX86 binary format, pinned byte for byte.
//!
//! One row per sample: the instruction, its encoding in hex, its
//! `Display` text, its mnemonic and its category. The first 62 rows are
//! one sample of every instruction; the rest are operand edge cases. The
//! bytes were produced once by the encoder and are never regenerated to
//! make a test pass: when the encoder and the decoder come from one table,
//! a round trip cannot see a changed opcode or operand layout, and these
//! rows can. A deliberate format change is a change to this file too.

use mira_arch::Category;
use mira_isa::{Cc, DecodeError, Inst, Mem, Reg, XReg, RBP, RSP};
use std::collections::BTreeMap;

struct Golden {
    inst: Inst,
    bytes: Vec<u8>,
    text: &'static str,
    mnemonic: &'static str,
    category: Category,
}

fn hex(s: &str) -> Vec<u8> {
    s.split(' ')
        .map(|b| u8::from_str_radix(b, 16).unwrap())
        .collect()
}

macro_rules! golden {
    ($($inst:expr => $hex:literal, $text:literal, $mnemonic:literal, $category:ident;)*) => {
        vec![$(Golden {
            inst: $inst,
            bytes: hex($hex),
            text: $text,
            mnemonic: $mnemonic,
            category: Category::$category,
        }),*]
    };
}

#[rustfmt::skip]
fn golden() -> Vec<Golden> {
    use Inst::*;
    golden! {
        MovRR(Reg(1), Reg(2)) => "01 01 02", "mov r1, r2", "mov", IntDataTransfer;
        MovRI(Reg(3), -123456789) => "02 03 eb 32 a4 f8 ff ff ff ff", "mov r3, -123456789", "mov", IntDataTransfer;
        Load(Reg(4), Mem::base_index(Reg(1), Reg(2), 8, -16)) => "03 04 01 01 02 08 f0 ff ff ff", "mov r4, qword [r1 + r2*8 - 16]", "mov", IntDataTransfer;
        Store(Mem::base_disp(RBP, -8), Reg(0)) => "04 0e 00 00 00 f8 ff ff ff 00", "mov qword [rbp - 8], r0", "mov", IntDataTransfer;
        Lea(Reg(5), Mem::base_index(Reg(0), Reg(3), 4, 100)) => "05 05 00 01 03 04 64 00 00 00", "lea r5, [r0 + r3*4 + 100]", "lea", IntDataTransfer;
        Push(RBP) => "06 0e", "push rbp", "push", IntDataTransfer;
        Pop(Reg(9)) => "07 09", "pop r9", "pop", IntDataTransfer;
        Movsxd(Reg(1), Reg(2)) => "08 01 02", "movsxd r1, r2", "movsxd", Mode64Bit;
        Cqo => "09", "cqo", "cqo", Mode64Bit;
        AddRR(Reg(1), Reg(2)) => "10 01 02", "add r1, r2", "add", IntArith;
        AddRI(Reg(1), 42) => "11 01 2a 00 00 00 00 00 00 00", "add r1, 42", "add", IntArith;
        SubRR(Reg(7), Reg(8)) => "12 07 08", "sub r7, r8", "sub", IntArith;
        SubRI(RSP, 64) => "13 0f 40 00 00 00 00 00 00 00", "sub rsp, 64", "sub", IntArith;
        ImulRR(Reg(10), Reg(11)) => "14 0a 0b", "imul r10, r11", "imul", IntArith;
        ImulRI(Reg(2), -8) => "15 02 f8 ff ff ff ff ff ff ff", "imul r2, -8", "imul", IntArith;
        Idiv(Reg(3)) => "16 03", "idiv r3", "idiv", IntArith;
        Neg(Reg(4)) => "17 04", "neg r4", "neg", IntArith;
        CmpRR(Reg(12), Reg(13)) => "18 0c 0d", "cmp r12, r13", "cmp", IntArith;
        CmpRI(Reg(1), 0x0123_4567_89ab_cdef) => "19 01 ef cd ab 89 67 45 23 01", "cmp r1, 81985529216486895", "cmp", IntArith;
        AndRR(Reg(5), Reg(6)) => "20 05 06", "and r5, r6", "and", IntLogical;
        OrRR(Reg(7), Reg(8)) => "21 07 08", "or r7, r8", "or", IntLogical;
        XorRR(Reg(0), Reg(0)) => "22 00 00", "xor r0, r0", "xor", IntLogical;
        Not(Reg(6)) => "23 06", "not r6", "not", IntLogical;
        ShlRI(Reg(1), 3) => "24 01 03", "shl r1, 3", "shl", ShiftRotate;
        SarRI(Reg(2), 63) => "25 02 3f", "sar r2, 63", "sar", ShiftRotate;
        ShrRI(Reg(3), 1) => "26 03 01", "shr r3, 1", "shr", ShiftRotate;
        TestRR(Reg(1), Reg(1)) => "27 01 01", "test r1, r1", "test", BitByte;
        Setcc(Cc::L, Reg(2)) => "28 02 02", "setl r2", "setcc", BitByte;
        Jmp(0xdeadbe) => "30 be ad de 00", "jmp 0xdeadbe", "jmp", IntControlTransfer;
        Jcc(Cc::Ge, 0x1234) => "31 05 34 12 00 00", "jge 0x1234", "jcc", IntControlTransfer;
        Call(7) => "32 07 00 00 00", "call fn#7", "call", IntControlTransfer;
        Ret => "33", "ret", "ret", IntControlTransfer;
        MovsdXX(XReg(0), XReg(15)) => "40 00 0f", "movsd xmm0, xmm15", "movsd", Sse2DataMovement;
        MovsdLoad(XReg(1), Mem::base_index(Reg(1), Reg(2), 8, 0)) => "41 01 01 01 02 08 00 00 00 00", "movsd xmm1, qword [r1 + r2*8]", "movsd", Sse2DataMovement;
        MovsdStore(Mem::base_disp(Reg(3), -24), XReg(2)) => "42 03 00 00 00 e8 ff ff ff 02", "movsd qword [r3 - 24], xmm2", "movsd", Sse2DataMovement;
        MovapdXX(XReg(3), XReg(4)) => "43 03 04", "movapd xmm3, xmm4", "movapd", Sse2DataMovement;
        MovupdLoad(XReg(5), Mem::base_disp(Reg(1), 16)) => "44 05 01 00 00 00 10 00 00 00", "movupd xmm5, xmmword [r1 + 16]", "movupd", Sse2DataMovement;
        MovupdStore(Mem::base_index(Reg(6), Reg(7), 2, -4096), XReg(6)) => "45 06 01 07 02 00 f0 ff ff 06", "movupd xmmword [r6 + r7*2 - 4096], xmm6", "movupd", Sse2DataMovement;
        MovqXR(XReg(1), Reg(1)) => "46 01 01", "movq xmm1, r1", "movq", Sse2DataMovement;
        MovqRX(Reg(2), XReg(9)) => "47 02 09", "movq r2, xmm9", "movq", Sse2DataMovement;
        Addsd(XReg(0), XReg(1)) => "50 00 01", "addsd xmm0, xmm1", "addsd", Sse2PackedArith;
        Subsd(XReg(2), XReg(3)) => "51 02 03", "subsd xmm2, xmm3", "subsd", Sse2PackedArith;
        Mulsd(XReg(4), XReg(5)) => "52 04 05", "mulsd xmm4, xmm5", "mulsd", Sse2PackedArith;
        Divsd(XReg(6), XReg(7)) => "53 06 07", "divsd xmm6, xmm7", "divsd", Sse2PackedArith;
        Sqrtsd(XReg(8), XReg(8)) => "54 08 08", "sqrtsd xmm8, xmm8", "sqrtsd", Sse2PackedArith;
        Minsd(XReg(9), XReg(10)) => "55 09 0a", "minsd xmm9, xmm10", "minsd", Sse2PackedArith;
        Maxsd(XReg(11), XReg(12)) => "56 0b 0c", "maxsd xmm11, xmm12", "maxsd", Sse2PackedArith;
        Addpd(XReg(13), XReg(14)) => "60 0d 0e", "addpd xmm13, xmm14", "addpd", Sse2PackedArith;
        Subpd(XReg(15), XReg(0)) => "61 0f 00", "subpd xmm15, xmm0", "subpd", Sse2PackedArith;
        Mulpd(XReg(2), XReg(3)) => "62 02 03", "mulpd xmm2, xmm3", "mulpd", Sse2PackedArith;
        Divpd(XReg(1), XReg(4)) => "63 01 04", "divpd xmm1, xmm4", "divpd", Sse2PackedArith;
        Sqrtpd(XReg(5), XReg(6)) => "64 05 06", "sqrtpd xmm5, xmm6", "sqrtpd", Sse2PackedArith;
        Andpd(XReg(1), XReg(2)) => "70 01 02", "andpd xmm1, xmm2", "andpd", Sse2Logical;
        Orpd(XReg(3), XReg(4)) => "71 03 04", "orpd xmm3, xmm4", "orpd", Sse2Logical;
        Xorpd(XReg(7), XReg(7)) => "72 07 07", "xorpd xmm7, xmm7", "xorpd", Sse2Logical;
        Ucomisd(XReg(0), XReg(1)) => "73 00 01", "ucomisd xmm0, xmm1", "ucomisd", Sse2Compare;
        Unpckhpd(XReg(0), XReg(0)) => "74 00 00", "unpckhpd xmm0, xmm0", "unpckhpd", Sse2ShuffleUnpack;
        Unpcklpd(XReg(1), XReg(1)) => "77 01 01", "unpcklpd xmm1, xmm1", "unpcklpd", Sse2ShuffleUnpack;
        Cvtsi2sd(XReg(1), Reg(2)) => "75 01 02", "cvtsi2sd xmm1, r2", "cvtsi2sd", Sse2Conversion;
        Cvttsd2si(Reg(3), XReg(4)) => "76 03 04", "cvttsd2si r3, xmm4", "cvttsd2si", Sse2Conversion;
        Nop => "80", "nop", "nop", MiscInstr;
        Halt => "81", "halt", "halt", MiscInstr;
        MovRI(Reg(0), i64::MIN) => "02 00 00 00 00 00 00 00 00 80", "mov r0, -9223372036854775808", "mov", IntDataTransfer;
        Load(Reg(15), Mem::base_index(Reg(14), Reg(15), 1, i32::MIN + 1)) => "03 0f 0e 01 0f 01 01 00 00 80", "mov rsp, qword [rbp + rsp*1 - 2147483647]", "mov", IntDataTransfer;
        Store(Mem::base_index(Reg(9), Reg(0), 2, i32::MAX), Reg(15)) => "04 09 01 00 02 ff ff ff 7f 0f", "mov qword [r9 + r0*2 + 2147483647], rsp", "mov", IntDataTransfer;
        Setcc(Cc::E, Reg(15)) => "28 00 0f", "sete rsp", "setcc", BitByte;
        Setcc(Cc::Be, Reg(0)) => "28 07 00", "setbe r0", "setcc", BitByte;
        Jcc(Cc::Ae, u32::MAX) => "31 09 ff ff ff ff", "jae 0xffffffff", "jcc", IntControlTransfer;
        Jcc(Cc::Ne, 0) => "31 01 00 00 00 00", "jne 0x0", "jcc", IntControlTransfer;
        Jcc(Cc::B, 0x40) => "31 06 40 00 00 00", "jb 0x40", "jcc", IntControlTransfer;
        ShlRI(Reg(15), 0) => "24 0f 00", "shl rsp, 0", "shl", ShiftRotate;
        Call(u32::MAX) => "32 ff ff ff ff", "call fn#4294967295", "call", IntControlTransfer;
    }
}

/// The opcode byte of every golden row, with the encoded length shared by
/// all of that opcode's rows.
fn opcode_lengths() -> BTreeMap<u8, usize> {
    let mut lengths = BTreeMap::new();
    for g in golden() {
        let len = *lengths.entry(g.bytes[0]).or_insert(g.bytes.len());
        assert_eq!(len, g.bytes.len(), "{:?}: one opcode, two lengths", g.inst);
    }
    lengths
}

#[test]
fn every_sample_has_its_golden_encoding_text_mnemonic_and_category() {
    for g in golden() {
        let mut bytes = Vec::new();
        g.inst.encode(&mut bytes);
        assert_eq!(bytes, g.bytes, "{:?}", g.inst);
        assert_eq!(g.inst.encoded_len(), bytes.len(), "{:?}", g.inst);
        assert_eq!(Inst::decode(&bytes, 0), Ok((g.inst, bytes.len())));
        assert_eq!(g.inst.to_string(), g.text);
        assert_eq!(g.inst.mnemonic(), g.mnemonic, "{:?}", g.inst);
        assert_eq!(g.inst.category(), g.category, "{:?}", g.inst);
    }
}

#[test]
fn golden_stream_decodes_at_every_offset() {
    let rows = golden();
    let mut stream = Vec::new();
    for g in &rows {
        stream.extend_from_slice(&g.bytes);
    }
    let mut pos = 0;
    for g in &rows {
        assert_eq!(Inst::decode(&stream, pos), Ok((g.inst, g.bytes.len())));
        pos += g.bytes.len();
    }
    assert_eq!(pos, stream.len());
    assert_eq!(Inst::decode(&stream, pos), Err(DecodeError::Truncated));
}

#[test]
fn exactly_the_golden_opcodes_decode() {
    let lengths = opcode_lengths();
    assert_eq!(lengths.len(), 62, "one golden row per instruction");
    for b in 0..=255u8 {
        let mut bytes = vec![0u8; 17];
        bytes[0] = b;
        match (Inst::decode(&bytes, 0), lengths.get(&b)) {
            (Ok((inst, len)), Some(&golden_len)) => {
                assert_eq!(len, golden_len, "{b:#04x} decoded as {inst:?}");
                assert_eq!(inst.encoded_len(), len, "{inst:?}");
            }
            (Err(e), None) => assert_eq!(e, DecodeError::BadOpcode(b)),
            (got, want) => panic!("{b:#04x}: decoded {got:?}, golden length {want:?}"),
        }
    }
}

#[test]
fn every_golden_encoding_cut_short_is_truncated() {
    for g in golden() {
        let cut = &g.bytes[..g.bytes.len() - 1];
        assert_eq!(
            Inst::decode(cut, 0),
            Err(DecodeError::Truncated),
            "{:?}",
            g.inst
        );
    }
}
