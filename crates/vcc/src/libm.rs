//! The built-in math library.
//!
//! Real programs call `sqrt`/`fabs` from libm; those bodies are present in
//! the executed binary but **not** in the analyzed source — the paper
//! identifies exactly this as the residual static-vs-dynamic discrepancy
//! ("the measured values capture ... external library function calls,
//! which at present are not visible and hence not analyzed by Mira",
//! §IV-D1). We reproduce the situation faithfully: these hand-written VX86
//! bodies are linked into the object (so `mira-vm` executes and counts
//! them) while `mira-core` sees only the `extern` declaration and models
//! just the call overhead.
//!
//! Bodies have no line-table rows (line 0 = "no source"), like stripped
//! system libraries.

use crate::emitter::FuncAsm;
use mira_isa::{Inst, Reg, XReg, RBP, RSP};

/// Names provided by the built-in library.
pub const LIBM_FUNCS: [&str; 4] = ["sqrt", "fabs", "fmin", "fmax"];

pub fn is_libm(name: &str) -> bool {
    LIBM_FUNCS.contains(&name)
}

fn prologue(f: &mut FuncAsm) {
    f.emit(Inst::Push(RBP));
    f.emit(Inst::MovRR(RBP, RSP));
}

fn epilogue(f: &mut FuncAsm) {
    f.emit(Inst::MovRR(RSP, RBP));
    f.emit(Inst::Pop(RBP));
    f.emit(Inst::Ret);
}

/// Build the assembly for one libm function.
pub fn build(name: &str) -> Option<FuncAsm> {
    let mut f = FuncAsm::new(name);
    f.cur_line = 0; // no source line
    match name {
        "sqrt" => {
            prologue(&mut f);
            // Hardware square root, plus one Newton correction step the way
            // real libm wrappers polish denormal edge cases — this gives the
            // library call a realistic multi-FPI footprint.
            // x1 = sqrtsd(x0)
            f.emit(Inst::Sqrtsd(XReg(1), XReg(0)));
            // r = x1 - (x1*x1 - x0) / (2*x1)  (one Newton step)
            f.emit(Inst::MovsdXX(XReg(2), XReg(1)));
            f.emit(Inst::Mulsd(XReg(2), XReg(1))); // x1^2
            f.emit(Inst::Subsd(XReg(2), XReg(0))); // x1^2 - x
            f.emit(Inst::MovsdXX(XReg(3), XReg(1)));
            f.emit(Inst::Addsd(XReg(3), XReg(1))); // 2*x1
            f.emit(Inst::Divsd(XReg(2), XReg(3))); // err
            f.emit(Inst::Subsd(XReg(1), XReg(2)));
            f.emit(Inst::MovsdXX(XReg(0), XReg(1)));
            epilogue(&mut f);
        }
        "fabs" => {
            prologue(&mut f);
            // clear the sign bit: and with 0x7fff...f (SSE2 logical — not an
            // FP-arithmetic instruction, so fabs contributes zero FPI, like
            // the real andpd-based implementation). r10 is caller-saved
            // scratch: libm bodies must not touch the callee-saved set
            // (r6–r9, x12–x15) that register-allocated callers rely on.
            f.emit(Inst::MovRI(Reg(10), 0x7fff_ffff_ffff_ffff));
            f.emit(Inst::MovqXR(XReg(1), Reg(10)));
            f.emit(Inst::Andpd(XReg(0), XReg(1)));
            epilogue(&mut f);
        }
        "fmin" => {
            prologue(&mut f);
            f.emit(Inst::Minsd(XReg(0), XReg(1)));
            epilogue(&mut f);
        }
        "fmax" => {
            prologue(&mut f);
            f.emit(Inst::Maxsd(XReg(0), XReg(1)));
            epilogue(&mut f);
        }
        _ => return None,
    }
    Some(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emitter::assemble_object;
    use mira_arch::Category;
    use mira_vobj::disasm::disassemble;

    #[test]
    fn all_libm_functions_build() {
        for name in LIBM_FUNCS {
            assert!(build(name).is_some(), "{name}");
            assert!(is_libm(name));
        }
        assert!(build("exp").is_none());
        assert!(!is_libm("exp"));
    }

    #[test]
    fn sqrt_has_fpi_footprint_and_fabs_has_none() {
        let obj =
            assemble_object(vec![build("sqrt").unwrap(), build("fabs").unwrap()], vec![]).unwrap();
        let ast = disassemble(&obj).unwrap();
        let fpi = |name: &str| {
            ast.function(name)
                .unwrap()
                .instructions
                .iter()
                .filter(|i| i.inst.category() == Category::Sse2PackedArith)
                .count()
        };
        assert!(fpi("sqrt") >= 5, "sqrt FPI = {}", fpi("sqrt"));
        assert_eq!(fpi("fabs"), 0);
    }

    #[test]
    fn libm_has_no_line_info() {
        let obj = assemble_object(vec![build("sqrt").unwrap()], vec![]).unwrap();
        let ast = disassemble(&obj).unwrap();
        for i in &ast.function("sqrt").unwrap().instructions {
            // line 0 is the "no source" sentinel; mira-core filters it
            assert!(i.line == Some(0) || i.line.is_none());
        }
    }
}
