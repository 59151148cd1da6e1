//! # mira-minic — the MiniC front-end (ROSE stand-in)
//!
//! Mira consumes a high-level source AST for program structure — functions,
//! loop SCoPs (static control parts: init / condition / step), branches,
//! statements, variable names and line numbers (paper §III-A1). The paper
//! obtains it from ROSE's EDG parser; we parse **MiniC**, a C subset rich
//! enough for the paper's workloads (STREAM, DGEMM, miniFE kernels):
//!
//! * types: `int` (64-bit), `double`, `void`, and pointers to `int`/`double`;
//! * declarations (including fixed-size local arrays), assignments and
//!   compound assignments, `++`/`--`;
//! * `for` / `while` / `if`-`else` / `return` / blocks / calls;
//! * full C expression grammar with precedence (`||`, `&&`, comparisons,
//!   `+ - * / %`, unary `- !`, casts, indexing);
//! * `extern` declarations for library functions whose bodies are not part
//!   of the translation unit (the paper's "external library calls");
//! * `#pragma @Annotation {key: value, ...}` attached to the following
//!   statement (paper §III-C4) for everything static analysis cannot see.
//!
//! Every AST node carries a [`Span`] — the line/column bridge that
//! `mira-core` uses to connect the source AST to the binary AST.
//!
//! The binary operators are one table in the parser, a precedence level
//! and a `BinOp` per token, read by one left-associative loop. Nesting
//! is bounded by [`parser::MAX_NESTING`] (256 levels of statements,
//! expression contexts and operator chains): a deeper source is refused
//! with a [`ParseError`] rather than overflowing the stack, so every
//! recursive pass over the AST is bounded too. The deepest source the
//! parser accepts runs through the whole pipeline on a 2 MiB thread in
//! a release build; a debug build needs an 8 MiB thread.

pub mod ast;
pub mod dot;
pub mod lexer;
pub mod parser;
pub mod sema;

pub use ast::*;
pub use lexer::{LexError, Lexer, Token, TokenKind};
pub use parser::{parse_program, ParseError};
pub use sema::{analyze, SemaError};

/// Parse and type-check a MiniC translation unit.
///
/// This is the front-end entry point: the returned [`Program`] is fully
/// typed (every expression has a [`Type`]) and all annotations are parsed.
pub fn frontend(src: &str) -> Result<Program, FrontendError> {
    let mut program = {
        let mut sp = mira_probe::span("minic.parse", "minic");
        sp.arg("bytes", src.len());
        parse_program(src).map_err(FrontendError::Parse)?
    };
    {
        let _sp = mira_probe::span("minic.sema", "minic");
        analyze(&mut program).map_err(FrontendError::Sema)?;
    }
    Ok(program)
}

/// Either phase of front-end failure.
///
/// Both variants carry a [`Span`]; [`FrontendError::span`] exposes it
/// uniformly, and [`std::error::Error::source`] returns the underlying
/// [`ParseError`] / [`SemaError`] so the chain is reportable with
/// `anyhow`-style `{:#}` formatting without custom glue.
#[derive(Clone, PartialEq, Debug)]
pub enum FrontendError {
    Parse(ParseError),
    Sema(SemaError),
}

impl FrontendError {
    /// The source position the error points at (1-based line/column).
    pub fn span(&self) -> Span {
        match self {
            FrontendError::Parse(e) => e.span,
            FrontendError::Sema(e) => e.span,
        }
    }
}

impl std::fmt::Display for FrontendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrontendError::Parse(e) => write!(f, "parse error: {e}"),
            FrontendError::Sema(e) => write!(f, "semantic error: {e}"),
        }
    }
}

impl std::error::Error for FrontendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrontendError::Parse(e) => Some(e),
            FrontendError::Sema(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_end_to_end() {
        let src = r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * y[i];
    }
    return s;
}
"#;
        let prog = frontend(src).unwrap();
        assert_eq!(prog.functions().count(), 1);
        let f = prog.function("dot").unwrap();
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.ret, Type::Double);
    }

    #[test]
    fn frontend_reports_parse_error() {
        assert!(matches!(frontend("int f( {"), Err(FrontendError::Parse(_))));
    }

    #[test]
    fn frontend_reports_sema_error() {
        assert!(matches!(
            frontend("int f() { return undeclared; }"),
            Err(FrontendError::Sema(_))
        ));
    }
}
