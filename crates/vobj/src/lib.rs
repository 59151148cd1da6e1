//! # mira-vobj — the VOBJ object and binary AST
//!
//! The paper's Input Processor parses an ELF object and decodes its DWARF
//! `.debug_line` section to bridge binary instructions back to source lines
//! (§III-A2). An [`Object`] is our equivalent for VX86 code. It is held in
//! memory only: `mira-vcc` builds it, and the disassembler and the
//! `mira-vm` loader read it; nothing writes it to a file. Its fields play
//! the parts of an ELF object's sections:
//!
//! * `symbols` (`.symtab`) — function and extern symbols;
//! * `text` (`.text`) — encoded instructions (see `mira-isa`);
//! * `line_program` (`.debug_line`) — a line-number *program* in the DWARF
//!   style: a byte stream of state-machine opcodes (`advance_pc`,
//!   `advance_line`, `copy`) decoded by [`line::LineTable`];
//! * `loops` (`.loopmeta`) — per-loop address ranges (init/cond/step/body)
//!   emitted by the compiler, the moral equivalent of the extra DWARF
//!   attributes debuggers rely on; Mira's metric generator uses it to
//!   attribute loop overhead instructions precisely.
//!
//! [`disasm::disassemble`] decodes `.text` back into a [`disasm::BinaryAst`]
//! — the binary-side tree of Figure 3 — with every instruction tagged with
//! its category and source line.

pub mod blocks;
pub mod disasm;
pub mod line;

use std::fmt;

/// A symbol in the object's symbol table. `Inst::Call` operands index this
/// table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Symbol {
    /// A function defined in this object: name plus its `.text` range.
    Func { name: String, addr: u32, size: u32 },
    /// An external function (e.g. `sqrt` from libm when the library object
    /// is not linked in). Calls to it are opaque to static analysis —
    /// exactly the situation §IV-D1 of the paper identifies as the main
    /// static-vs-dynamic discrepancy.
    Extern { name: String },
}

impl Symbol {
    pub fn name(&self) -> &str {
        match self {
            Symbol::Func { name, .. } | Symbol::Extern { name } => name,
        }
    }

    pub fn is_extern(&self) -> bool {
        matches!(self, Symbol::Extern { .. })
    }
}

/// Address ranges (byte offsets in `.text`) of the structural parts of one
/// compiled loop. Ranges are half-open `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoopMeta {
    /// Source line of the loop header (`for`/`while` statement).
    pub header_line: u32,
    /// Initialization code: executed once per entry of the loop.
    pub init: (u32, u32),
    /// Condition test: executed `iterations + 1` times per entry.
    pub cond: (u32, u32),
    /// Step code: executed `iterations` times per entry.
    pub step: (u32, u32),
    /// Loop body range (includes nested loops).
    pub body: (u32, u32),
    /// Elements processed per iteration (2 for an SSE2-packed main loop,
    /// 1 for scalar loops). Real compilers expose this through debug
    /// metadata; Mira's metric generator uses it to scale iteration counts.
    pub vector_factor: u32,
    /// True for the scalar remainder loop of a vectorized source loop
    /// (executes `count mod vector_factor` iterations of the main loop's
    /// source-level work).
    pub is_remainder: bool,
}

impl LoopMeta {
    /// A scalar loop descriptor (vector_factor 1).
    pub fn scalar(header_line: u32) -> LoopMeta {
        LoopMeta {
            header_line,
            vector_factor: 1,
            ..LoopMeta::default()
        }
    }
}

impl LoopMeta {
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.init.0 && addr < self.body.1.max(self.step.1).max(self.cond.1)
    }
}

/// A VOBJ object: the output of `mira-vcc` and the input of both the
/// disassembler and the `mira-vm` interpreter.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Object {
    pub symbols: Vec<Symbol>,
    pub text: Vec<u8>,
    /// Encoded line-number program (decode with [`line::LineTable::decode`]).
    pub line_program: Vec<u8>,
    /// `(function symbol index, loop metadata)` pairs, outermost loops
    /// first within each function.
    pub loops: Vec<(u32, LoopMeta)>,
}

/// Errors from reading an [`Object`] ([`disasm::disassemble`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ObjError {
    /// A function symbol's range runs past the end of `.text`.
    Truncated,
    /// `.text` contains an undecodable instruction, or the line program
    /// is malformed.
    BadText(String),
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::Truncated => write!(f, "function range past the end of .text"),
            ObjError::BadText(e) => write!(f, "bad .text: {e}"),
        }
    }
}

impl std::error::Error for ObjError {}

impl Object {
    /// Index of the function symbol with this name.
    pub fn find_func(&self, name: &str) -> Option<u32> {
        self.symbols
            .iter()
            .position(|s| matches!(s, Symbol::Func { name: n, .. } if n == name))
            .map(|i| i as u32)
    }

    /// Loop metadata for one function symbol.
    pub fn loops_of(&self, func_sym: u32) -> Vec<LoopMeta> {
        self.loops
            .iter()
            .filter(|(f, _)| *f == func_sym)
            .map(|(_, m)| *m)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_object() -> Object {
        use mira_isa::{Inst, Reg};
        let mut text = Vec::new();
        for inst in [Inst::MovRI(Reg(0), 42), Inst::AddRI(Reg(0), 1), Inst::Ret] {
            inst.encode(&mut text);
        }
        let mut lb = line::LineTableBuilder::new();
        lb.add_row(0, 3);
        lb.add_row(10, 4);
        Object {
            symbols: vec![
                Symbol::Func {
                    name: "main".to_string(),
                    addr: 0,
                    size: text.len() as u32,
                },
                Symbol::Extern {
                    name: "sqrt".to_string(),
                },
            ],
            text,
            line_program: lb.finish(),
            loops: vec![(
                0,
                LoopMeta {
                    header_line: 3,
                    init: (0, 10),
                    cond: (10, 12),
                    step: (12, 14),
                    body: (14, 20),
                    vector_factor: 2,
                    is_remainder: false,
                },
            )],
        }
    }

    #[test]
    fn symbol_lookup() {
        let obj = sample_object();
        assert_eq!(obj.find_func("main"), Some(0));
        assert_eq!(obj.find_func("sqrt"), None); // extern, not func
        assert_eq!(obj.symbols[1].name(), "sqrt");
        assert!(obj.symbols[1].is_extern());
        assert_eq!(obj.loops_of(0).len(), 1);
        assert_eq!(obj.loops_of(1).len(), 0);
    }
}
