//! # mira-vcc — the MiniC → VX86 optimizing compiler (gcc stand-in)
//!
//! The paper's whole premise is that Mira analyzes the *compiled binary*
//! because "code transformations performed by optimizing compilers cause
//! non-negligible effects on the analysis accuracy" (§I). For that premise
//! to be reproducible, this compiler must actually perform such
//! transformations:
//!
//! * constant folding and algebraic simplification ([`fold`]), always
//!   on;
//! * strength reduction (multiplications by powers of two become shifts,
//!   index arithmetic folds into addressing modes; a constant index
//!   folds into the displacement when its byte offset fits `i32`);
//! * **register allocation** of scalar locals and loop induction
//!   variables ([`regalloc`]): live ranges are computed per function and
//!   the hottest variables are promoted from frame slots into
//!   callee-saved registers by a weight-ordered linear scan, with frame
//!   slots as the spill fallback. `Options::regalloc` (default on)
//!   selects it; turning it off reproduces the seed's spill-everything
//!   codegen, kept as the measurement baseline;
//! * SSE2-style **auto-vectorization** of map-style innermost loops
//!   ([`vect`]): packed `movupd`/`addpd`/`mulpd` main loops plus scalar
//!   remainders — this is what makes source-only FP counts (PBound) wrong
//!   by ~2× and binary-informed counts (Mira) right.
//!
//! The calling convention and the caller-saved/callee-saved register
//! split are documented in [`regalloc`]; [`codegen`] documents how values
//! are bound to frame slots or home registers.
//!
//! Output is a [`mira_vobj::Object`] with:
//! * `.text` — encoded VX86;
//! * `.debug_line` — a DWARF-style line program mapping every instruction
//!   back to its source line (the paper's §III-A2 bridge);
//! * `.loopmeta` — init/cond/step/body address ranges per loop, letting the
//!   static analyzer attribute loop-overhead instructions exactly;
//! * symbols for every function, the built-in math library ([`libm`]),
//!   and any remaining externs.

pub mod codegen;
pub mod emitter;
pub mod fold;
pub mod libm;
pub mod regalloc;
pub mod vect;

use mira_minic::Program;
use mira_vobj::Object;
use std::fmt;

/// Compiler options. Constant folding and strength reduction always
/// run, and the built-in math library ([`libm`]) is always linked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Options {
    /// Enable SSE2 auto-vectorization of eligible innermost loops.
    pub vectorize: bool,
    /// Promote hot scalar locals and loop induction variables into
    /// callee-saved registers (see [`regalloc`]). On by default; when
    /// disabled every value lives in a frame slot — the seed's
    /// spill-everything codegen, kept as the baseline the dynamic
    /// step-count reductions are measured against.
    pub regalloc: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            vectorize: false,
            regalloc: true,
        }
    }
}

impl Options {
    pub fn vectorized() -> Options {
        Options {
            vectorize: true,
            ..Options::default()
        }
    }

    /// The spill-everything baseline: no register allocation.
    pub fn spill_everything() -> Options {
        Options {
            regalloc: false,
            ..Options::default()
        }
    }
}

/// Compilation errors (beyond what sema already rejects).
///
/// Code-generation failures carry the function being compiled and the
/// nearest statement [`Span`](mira_minic::Span) when known; front-end
/// failures (from [`compile_source`]) keep the full
/// [`FrontendError`](mira_minic::FrontendError) as their
/// [`std::error::Error::source`], so the whole chain is reportable with
/// `anyhow`-style `{:#}` formatting.
#[derive(Clone, PartialEq, Debug)]
pub enum CompileError {
    /// The front-end rejected the source before code generation started.
    Frontend(mira_minic::FrontendError),
    /// Code generation itself failed.
    Codegen {
        msg: String,
        /// The function being compiled, when known.
        func: Option<String>,
        /// The nearest enclosing statement's source position, when known.
        span: Option<mira_minic::Span>,
    },
}

impl CompileError {
    /// A bare code-generation error; function/span context is attached
    /// higher up the call chain (see [`CompileError::with_func`]).
    pub fn msg(msg: impl Into<String>) -> CompileError {
        CompileError::Codegen {
            msg: msg.into(),
            func: None,
            span: None,
        }
    }

    /// Attach the enclosing function's name, unless one is already set.
    pub fn with_func(self, name: &str) -> CompileError {
        match self {
            CompileError::Codegen { msg, func: None, span } => CompileError::Codegen {
                msg,
                func: Some(name.to_string()),
                span,
            },
            other => other,
        }
    }

    /// Attach a source span, unless one is already set.
    pub fn with_span(self, at: mira_minic::Span) -> CompileError {
        match self {
            CompileError::Codegen { msg, func, span: None } => CompileError::Codegen {
                msg,
                func,
                span: Some(at),
            },
            other => other,
        }
    }

    /// The source position the error points at, when known.
    pub fn span(&self) -> Option<mira_minic::Span> {
        match self {
            CompileError::Frontend(e) => Some(e.span()),
            CompileError::Codegen { span, .. } => *span,
        }
    }

    /// The function being compiled when the error occurred, when known.
    pub fn function(&self) -> Option<&str> {
        match self {
            CompileError::Frontend(_) => None,
            CompileError::Codegen { func, .. } => func.as_deref(),
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Frontend(e) => write!(f, "front-end: {e}"),
            CompileError::Codegen { msg, func, span } => {
                write!(f, "compile error")?;
                if let Some(name) = func {
                    write!(f, " in `{name}`")?;
                }
                if let Some(at) = span {
                    write!(f, " at {at}")?;
                }
                write!(f, ": {msg}")
            }
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Frontend(e) => Some(e),
            CompileError::Codegen { .. } => None,
        }
    }
}

impl From<mira_minic::FrontendError> for CompileError {
    fn from(e: mira_minic::FrontendError) -> CompileError {
        CompileError::Frontend(e)
    }
}

/// Compile a type-checked MiniC program into a VOBJ object.
pub fn compile(program: &Program, options: &Options) -> Result<Object, CompileError> {
    codegen::compile_program(program, options)
}

/// Convenience: front-end + compile in one call.
pub fn compile_source(src: &str, options: &Options) -> Result<Object, CompileError> {
    let program = mira_minic::frontend(src)?;
    compile(&program, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_vobj::disasm::disassemble;

    const DOT: &str = r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * y[i];
    }
    return s;
}
"#;

    #[test]
    fn compiles_dot_product() {
        let obj = compile_source(DOT, &Options::default()).unwrap();
        assert!(obj.find_func("dot").is_some());
        let ast = disassemble(&obj).unwrap();
        let f = ast.function("dot").unwrap();
        // must contain a mulsd+addsd pair and loop control
        let mnemonics: Vec<&str> = f.instructions.iter().map(|i| i.inst.mnemonic()).collect();
        assert!(mnemonics.contains(&"mulsd"), "{mnemonics:?}");
        assert!(mnemonics.contains(&"addsd"), "{mnemonics:?}");
        assert!(mnemonics.contains(&"jcc") || mnemonics.contains(&"jmp"));
    }

    #[test]
    fn loop_metadata_emitted() {
        let obj = compile_source(DOT, &Options::default()).unwrap();
        let sym = obj.find_func("dot").unwrap();
        let loops = obj.loops_of(sym);
        assert_eq!(loops.len(), 1);
        let m = loops[0];
        assert!(m.init.0 < m.init.1, "init range non-empty: {m:?}");
        assert!(m.cond.0 < m.cond.1, "cond range non-empty: {m:?}");
        assert!(m.step.0 < m.step.1, "step range non-empty: {m:?}");
        assert!(m.body.0 < m.body.1, "body range non-empty: {m:?}");
    }

    #[test]
    fn line_table_covers_instructions() {
        let obj = compile_source(DOT, &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let f = ast.function("dot").unwrap();
        // every instruction of a user function must have a line
        for i in &f.instructions {
            assert!(i.line.is_some(), "missing line at {:#x}", i.addr);
        }
    }

    #[test]
    fn libm_included_by_default() {
        let obj = compile_source("extern double sqrt(double);\ndouble f(double x) { return sqrt(x); }", &Options::default()).unwrap();
        assert!(obj.find_func("sqrt").is_some());
    }

    /// A local array whose frame the `i32` displacements cannot address
    /// is refused with a typed error. 2^29 doubles overflow `i32` when
    /// scaled to bytes; 2^32 + 1 overflows it as an element count.
    #[test]
    fn oversized_local_array_is_refused() {
        for len in ["536870912", "4294967297"] {
            let src = format!(
                "double f() {{ double a[{len}]; double s = 2.0; a[5] = 1.0; return a[5] + s; }}"
            );
            let err = compile_source(&src, &Options::default()).unwrap_err();
            assert!(
                matches!(&err, CompileError::Codegen { msg, .. } if msg.contains("stack frame")),
                "{err}"
            );
            assert_eq!(err.function(), Some("f"));
        }
        // a 1 GiB array still fits
        compile_source(
            "double f() { double a[134217728]; a[5] = 1.0; return a[5]; }",
            &Options::default(),
        )
        .unwrap();
    }

    /// A constant index whose byte offset does not fit a displacement
    /// (2^60 · 8 overflows even `i64`) is indexed through a register, so
    /// the access faults in the VM instead of reading `a[0]`.
    #[test]
    fn huge_constant_index_is_not_folded() {
        use mira_isa::Inst;
        use mira_vm::{HostVal, Vm, VmError};
        let src = "double f(double* a) { return a[1152921504606846976]; }";
        let obj = compile_source(src, &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let loads: Vec<_> = ast
            .function("f")
            .unwrap()
            .instructions
            .iter()
            .filter_map(|i| match i.inst {
                Inst::MovsdLoad(_, m) => Some(m),
                _ => None,
            })
            .collect();
        assert!(
            !loads.is_empty() && loads.iter().all(|m| m.index.is_some()),
            "{loads:?}"
        );
        let mut vm = Vm::new(&obj).unwrap();
        let a = vm.alloc_f64(&[7.0; 8]);
        let err = vm.call("f", &[HostVal::Int(a as i64)]).unwrap_err();
        assert!(matches!(err, VmError::Fault { .. }), "{err:?}");
    }
}
