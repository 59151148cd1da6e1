//! # mira-vobj — the VOBJ object-file format and binary AST
//!
//! The paper's Input Processor parses an ELF object and decodes its DWARF
//! `.debug_line` section to bridge binary instructions back to source lines
//! (§III-A2). VOBJ is our equivalent container for VX86 code:
//!
//! * `.symtab` — function and extern symbols;
//! * `.text` — encoded instructions (see `mira-isa`);
//! * `.debug_line` — a line-number *program* in the DWARF style: a byte
//!   stream of state-machine opcodes (`advance_pc`, `advance_line`,
//!   `copy`) decoded by [`line::LineTable`];
//! * `.loopmeta` — per-loop address ranges (init/cond/step/body) emitted
//!   by the compiler, the moral equivalent of the extra DWARF attributes
//!   debuggers rely on; Mira's metric generator uses it to attribute loop
//!   overhead instructions precisely;
//! * `.annot` — source annotation strings carried through for tooling.
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

/// Errors from [`Object::read`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ObjError {
    BadMagic,
    Truncated,
    BadSection(u8),
    BadString,
    /// `.text` contains an undecodable instruction.
    BadText(String),
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::BadMagic => write!(f, "not a VOBJ file (bad magic)"),
            ObjError::Truncated => write!(f, "truncated VOBJ file"),
            ObjError::BadSection(t) => write!(f, "unknown section tag {t}"),
            ObjError::BadString => write!(f, "malformed string in symbol table"),
            ObjError::BadText(e) => write!(f, "bad .text: {e}"),
        }
    }
}

impl std::error::Error for ObjError {}

const MAGIC: &[u8; 6] = b"VOBJ1\0";

mod tag {
    pub const SYMTAB: u8 = 1;
    pub const TEXT: u8 = 2;
    pub const DEBUG_LINE: u8 = 3;
    pub const LOOPMETA: u8 = 4;
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ObjError> {
        let end = self.pos.checked_add(n).ok_or(ObjError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(ObjError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ObjError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ObjError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ObjError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ObjError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ObjError::BadString)
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    assert!(bytes.len() <= u16::MAX as usize, "symbol name too long");
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

impl Object {
    /// Serialize to the VOBJ container format.
    pub fn write(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);

        // symtab
        let mut sec = Vec::new();
        sec.extend_from_slice(&(self.symbols.len() as u32).to_le_bytes());
        for sym in &self.symbols {
            match sym {
                Symbol::Func { name, addr, size } => {
                    sec.push(0);
                    put_string(&mut sec, name);
                    sec.extend_from_slice(&addr.to_le_bytes());
                    sec.extend_from_slice(&size.to_le_bytes());
                }
                Symbol::Extern { name } => {
                    sec.push(1);
                    put_string(&mut sec, name);
                }
            }
        }
        push_section(&mut out, tag::SYMTAB, &sec);
        push_section(&mut out, tag::TEXT, &self.text);
        push_section(&mut out, tag::DEBUG_LINE, &self.line_program);

        let mut lm = Vec::new();
        lm.extend_from_slice(&(self.loops.len() as u32).to_le_bytes());
        for (func, m) in &self.loops {
            lm.extend_from_slice(&func.to_le_bytes());
            for v in [
                m.header_line,
                m.init.0,
                m.init.1,
                m.cond.0,
                m.cond.1,
                m.step.0,
                m.step.1,
                m.body.0,
                m.body.1,
                m.vector_factor,
                m.is_remainder as u32,
            ] {
                lm.extend_from_slice(&v.to_le_bytes());
            }
        }
        push_section(&mut out, tag::LOOPMETA, &lm);
        out
    }

    /// Parse a VOBJ container.
    pub fn read(bytes: &[u8]) -> Result<Object, ObjError> {
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(ObjError::BadMagic);
        }
        let mut r = Reader {
            buf: bytes,
            pos: MAGIC.len(),
        };
        let mut obj = Object::default();
        while !r.at_end() {
            let t = r.u8()?;
            let len = r.u32()? as usize;
            let payload = r.take(len)?;
            let mut pr = Reader {
                buf: payload,
                pos: 0,
            };
            match t {
                tag::SYMTAB => {
                    let count = pr.u32()?;
                    for _ in 0..count {
                        let kind = pr.u8()?;
                        match kind {
                            0 => {
                                let name = pr.string()?;
                                let addr = pr.u32()?;
                                let size = pr.u32()?;
                                obj.symbols.push(Symbol::Func { name, addr, size });
                            }
                            1 => {
                                let name = pr.string()?;
                                obj.symbols.push(Symbol::Extern { name });
                            }
                            other => return Err(ObjError::BadSection(other)),
                        }
                    }
                }
                tag::TEXT => obj.text = payload.to_vec(),
                tag::DEBUG_LINE => obj.line_program = payload.to_vec(),
                tag::LOOPMETA => {
                    let count = pr.u32()?;
                    for _ in 0..count {
                        let func = pr.u32()?;
                        let mut vals = [0u32; 11];
                        for v in vals.iter_mut() {
                            *v = pr.u32()?;
                        }
                        obj.loops.push((
                            func,
                            LoopMeta {
                                header_line: vals[0],
                                init: (vals[1], vals[2]),
                                cond: (vals[3], vals[4]),
                                step: (vals[5], vals[6]),
                                body: (vals[7], vals[8]),
                                vector_factor: vals[9],
                                is_remainder: vals[10] != 0,
                            },
                        ));
                    }
                }
                other => return Err(ObjError::BadSection(other)),
            }
        }
        Ok(obj)
    }

    /// Index of the function symbol with this name.
    pub fn find_func(&self, name: &str) -> Option<u32> {
        self.symbols.iter().position(|s| {
            matches!(s, Symbol::Func { name: n, .. } if n == name)
        }).map(|i| i as u32)
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

fn push_section(out: &mut Vec<u8>, t: u8, payload: &[u8]) {
    out.push(t);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_object() -> Object {
        use mira_isa::{Inst, Reg};
        let mut text = Vec::new();
        for inst in [
            Inst::MovRI(Reg(0), 42),
            Inst::AddRI(Reg(0), 1),
            Inst::Ret,
        ] {
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
    fn roundtrip() {
        let obj = sample_object();
        let bytes = obj.write();
        let back = Object::read(&bytes).unwrap();
        assert_eq!(back, obj);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Object::read(b"NOTOBJ"), Err(ObjError::BadMagic));
        assert_eq!(Object::read(b""), Err(ObjError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let bytes = sample_object().write();
        for cut in [7, 10, bytes.len() - 1] {
            let r = Object::read(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
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
