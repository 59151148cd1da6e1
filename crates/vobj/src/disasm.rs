//! Disassembler: `.text` bytes → the **binary AST** (paper Fig. 3).
//!
//! The binary AST mirrors ROSE's `SgAsmFunction`/`SgAsmX86Instruction`
//! hierarchy: functions containing decoded instructions, each tagged with
//! its address, byte length, instruction category and — after consulting
//! the `.debug_line` program — its originating source line. One source
//! statement generally maps to *several* binary instructions, which is why
//! the bridge (built in `mira-core`) is a line-keyed multimap.

use crate::line::LineTable;
use crate::{Object, ObjError, Symbol};
use mira_isa::Inst;

/// A decoded instruction with its location metadata.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct BinInst {
    /// Byte offset in `.text`.
    pub addr: u32,
    /// Encoded length in bytes.
    pub len: u32,
    pub inst: Inst,
    /// Source line from the line table, if debug info covers this address.
    pub line: Option<u32>,
}

/// A function node of the binary AST.
#[derive(Clone, PartialEq, Debug)]
pub struct BinFunction {
    pub name: String,
    pub addr: u32,
    pub size: u32,
    pub instructions: Vec<BinInst>,
}

impl BinFunction {
    /// Basic-block boundaries of this function as index ranges into
    /// [`instructions`](Self::instructions) (see [`crate::blocks`]). This is
    /// the granularity at which `mira-vm` dispatches and attributes counts.
    pub fn basic_blocks(&self) -> Vec<std::ops::Range<usize>> {
        let stream: Vec<(u32, Inst)> = self
            .instructions
            .iter()
            .map(|i| (i.addr, i.inst))
            .collect();
        crate::blocks::basic_blocks(&stream, &[self.addr])
    }
}

/// The binary AST: the decoded, line-annotated view of an [`Object`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BinaryAst {
    pub functions: Vec<BinFunction>,
    pub externs: Vec<String>,
}

impl BinaryAst {
    pub fn function(&self, name: &str) -> Option<&BinFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Total decoded instruction count.
    pub fn instruction_count(&self) -> usize {
        self.functions.iter().map(|f| f.instructions.len()).sum()
    }

    /// Render as a GraphViz DOT tree (the shape of the paper's Figure 3:
    /// `SgAsmFunction` nodes with instruction children). `max_insts` limits
    /// children per function to keep the graph readable.
    pub fn dot(&self, max_insts: usize) -> String {
        let mut out = String::from("digraph BinaryAst {\n  node [shape=box];\n");
        out.push_str("  root [label=\"SgAsmBlock\"];\n");
        for (fi, f) in self.functions.iter().enumerate() {
            out.push_str(&format!(
                "  f{fi} [label=\"SgAsmFunction\\n{}\"];\n  root -> f{fi};\n",
                f.name
            ));
            for (ii, inst) in f.instructions.iter().take(max_insts).enumerate() {
                let label = format!("{}", inst.inst).replace('"', "'");
                out.push_str(&format!(
                    "  f{fi}_i{ii} [label=\"SgAsmX86Instruction\\n{:#06x}: {}\"];\n  f{fi} -> f{fi}_i{ii};\n",
                    inst.addr, label
                ));
            }
            if f.instructions.len() > max_insts {
                out.push_str(&format!(
                    "  f{fi}_more [label=\"… {} more\"];\n  f{fi} -> f{fi}_more;\n",
                    f.instructions.len() - max_insts
                ));
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Decode an object's `.text` into a [`BinaryAst`].
pub fn disassemble(obj: &Object) -> Result<BinaryAst, ObjError> {
    let table = LineTable::decode(&obj.line_program)
        .map_err(|e| ObjError::BadText(format!("line table: {e}")))?;
    let mut ast = BinaryAst::default();
    for sym in &obj.symbols {
        match sym {
            Symbol::Extern { name } => ast.externs.push(name.clone()),
            Symbol::Func { name, addr, size } => {
                let start = *addr as usize;
                let end = start + *size as usize;
                if end > obj.text.len() {
                    return Err(ObjError::Truncated);
                }
                let mut instructions = Vec::new();
                let mut pos = start;
                while pos < end {
                    let (inst, len) = Inst::decode(&obj.text, pos)
                        .map_err(|e| ObjError::BadText(format!("{name}+{pos:#x}: {e}")))?;
                    instructions.push(BinInst {
                        addr: pos as u32,
                        len: len as u32,
                        inst,
                        line: table.line_for_addr(pos as u32),
                    });
                    pos += len;
                }
                ast.functions.push(BinFunction {
                    name: name.clone(),
                    addr: *addr,
                    size: *size,
                    instructions,
                });
            }
        }
    }
    Ok(ast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineTableBuilder;
    use mira_isa::{Reg, XReg};

    fn build_object() -> Object {
        use Inst::*;
        let insts = [
            (MovRI(Reg(0), 7), 1u32),
            (Cvtsi2sd(XReg(0), Reg(0)), 1),
            (Addsd(XReg(0), XReg(0)), 2),
            (Ret, 3),
        ];
        let mut text = Vec::new();
        let mut lb = LineTableBuilder::new();
        for (inst, line) in &insts {
            lb.add_row(text.len() as u32, *line);
            inst.encode(&mut text);
        }
        Object {
            symbols: vec![
                Symbol::Func {
                    name: "f".to_string(),
                    addr: 0,
                    size: text.len() as u32,
                },
                Symbol::Extern {
                    name: "sqrt".to_string(),
                },
            ],
            text,
            line_program: lb.finish(),
            loops: vec![],
        }
    }

    #[test]
    fn disassembles_functions_with_lines() {
        let obj = build_object();
        let ast = disassemble(&obj).unwrap();
        assert_eq!(ast.functions.len(), 1);
        assert_eq!(ast.externs, vec!["sqrt".to_string()]);
        let f = ast.function("f").unwrap();
        assert_eq!(f.instructions.len(), 4);
        assert_eq!(f.instructions[0].line, Some(1));
        assert_eq!(f.instructions[1].line, Some(1));
        assert_eq!(f.instructions[2].line, Some(2));
        assert_eq!(f.instructions[3].line, Some(3));
        assert_eq!(ast.instruction_count(), 4);
    }

    #[test]
    fn decoded_addresses_are_contiguous() {
        let obj = build_object();
        let ast = disassemble(&obj).unwrap();
        let f = ast.function("f").unwrap();
        let mut expected = 0u32;
        for i in &f.instructions {
            assert_eq!(i.addr, expected);
            expected += i.len;
        }
        assert_eq!(expected, f.size);
    }

    #[test]
    fn corrupt_text_reported() {
        let mut obj = build_object();
        obj.text[0] = 0xff;
        assert!(matches!(disassemble(&obj), Err(ObjError::BadText(_))));
    }

    #[test]
    fn function_size_out_of_range() {
        let mut obj = build_object();
        if let Symbol::Func { size, .. } = &mut obj.symbols[0] {
            *size += 100;
        }
        assert_eq!(disassemble(&obj), Err(ObjError::Truncated));
    }

    #[test]
    fn dot_output_wellformed() {
        let obj = build_object();
        let ast = disassemble(&obj).unwrap();
        let dot = ast.dot(2);
        assert!(dot.starts_with("digraph BinaryAst"));
        assert!(dot.contains("SgAsmFunction"));
        assert!(dot.contains("SgAsmX86Instruction"));
        assert!(dot.contains("… 2 more"));
        assert!(dot.ends_with("}\n"));
    }
}
