//! Function-level assembly buffer with labels, fixups and loop-metadata
//! recording, plus the final object assembler.

use crate::CompileError;
use mira_isa::Inst;
use mira_vobj::line::LineTableBuilder;
use mira_vobj::{LoopMeta, Object, Symbol};

/// A forward-referencable position in a function's instruction stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Label(usize);

/// One emitted item: a real instruction (with its source line) or a label.
#[derive(Clone, Debug)]
enum Item {
    Inst { inst: Inst, line: u32 },
    Label(Label),
}

/// Loop metadata under construction, in label space.
#[derive(Clone, Copy, Debug)]
pub struct LoopLabels {
    pub header_line: u32,
    pub init_start: Label,
    pub init_end: Label,
    pub cond_start: Label,
    pub cond_end: Label,
    pub step_start: Label,
    pub step_end: Label,
    pub body_start: Label,
    pub body_end: Label,
    pub vector_factor: u32,
    pub is_remainder: bool,
}

/// Per-function assembly buffer.
pub struct FuncAsm {
    pub name: String,
    items: Vec<Item>,
    labels: usize,
    /// Index of the `sub rsp, N` placeholder to patch with the final frame
    /// size.
    frame_patch: Option<usize>,
    pub loop_labels: Vec<LoopLabels>,
    pub cur_line: u32,
}

impl FuncAsm {
    pub fn new(name: &str) -> FuncAsm {
        FuncAsm {
            name: name.to_string(),
            items: Vec::new(),
            labels: 0,
            frame_patch: None,
            loop_labels: Vec::new(),
            cur_line: 0,
        }
    }

    pub fn new_label(&mut self) -> Label {
        self.labels += 1;
        Label(self.labels - 1)
    }

    /// Place a label at the current position.
    pub fn bind(&mut self, l: Label) {
        self.items.push(Item::Label(l));
    }

    /// Allocate and immediately bind a label.
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Emit an instruction at the current source line. Jumps go through
    /// [`jmp`](Self::jmp) and [`jcc`](Self::jcc): assembly reads the
    /// target of every `Jmp`/`Jcc` as a label id.
    pub fn emit(&mut self, inst: Inst) {
        self.items.push(Item::Inst {
            inst,
            line: self.cur_line,
        });
    }

    /// Emit a jump to a label (target patched at assembly).
    pub fn jmp(&mut self, target: Label) {
        self.emit(Inst::Jmp(target.0 as u32));
    }

    /// Emit a conditional jump to a label.
    pub fn jcc(&mut self, cc: mira_isa::Cc, target: Label) {
        self.emit(Inst::Jcc(cc, target.0 as u32));
    }

    /// Emit the frame-reservation placeholder (`sub rsp, 0`); patched by
    /// [`patch_frame_size`](Self::patch_frame_size).
    pub fn emit_frame_placeholder(&mut self) {
        self.frame_patch = Some(self.items.len());
        self.emit(Inst::SubRI(mira_isa::RSP, 0));
    }

    /// Patch the prologue with the final frame size.
    pub fn patch_frame_size(&mut self, size: i64) {
        let idx = self.frame_patch.expect("no frame placeholder emitted");
        if let Item::Inst { inst, .. } = &mut self.items[idx] {
            *inst = Inst::SubRI(mira_isa::RSP, size);
        }
    }

    /// Resolve labels to function-local byte offsets, patch jumps, and
    /// return (bytes, per-instruction (offset, line) rows, label offsets).
    #[allow(clippy::type_complexity)]
    fn assemble(
        &self,
        base: u32,
    ) -> Result<(Vec<u8>, Vec<(u32, u32)>, Vec<u32>), CompileError> {
        // pass 1: label offsets
        let mut offsets = vec![u32::MAX; self.labels];
        let mut pc: u32 = 0;
        for item in &self.items {
            match item {
                Item::Label(l) => offsets[l.0] = pc,
                Item::Inst { inst, .. } => pc += inst.encoded_len() as u32,
            }
        }
        // pass 2: encode, every jump's label id patched to its absolute
        // address
        let resolve = |label: u32| match offsets.get(label as usize) {
            Some(&off) if off != u32::MAX => Ok(base + off),
            _ => Err(CompileError::msg(format!("unbound label in {}", self.name))),
        };
        let mut bytes = Vec::with_capacity(pc as usize);
        let mut rows = Vec::new();
        for item in &self.items {
            let Item::Inst { inst, line } = item else {
                continue;
            };
            let inst = match *inst {
                Inst::Jmp(l) => Inst::Jmp(resolve(l)?),
                Inst::Jcc(cc, l) => Inst::Jcc(cc, resolve(l)?),
                other => other,
            };
            rows.push((base + bytes.len() as u32, *line));
            inst.encode(&mut bytes);
        }
        Ok((bytes, rows, offsets))
    }
}

/// Assemble a set of compiled functions plus extern names into an
/// [`Object`]. `funcs` are placed in order.
pub fn assemble_object(
    funcs: Vec<FuncAsm>,
    externs: Vec<String>,
) -> Result<Object, CompileError> {
    // Symbol table layout: all functions first (so Call targets can be
    // resolved by name → index before assembly), then externs.
    let mut obj = Object::default();
    let mut text = Vec::new();
    let mut lines = LineTableBuilder::new();
    let mut sym_meta = Vec::new(); // (addr, size) per function, filled below

    for f in &funcs {
        let base = text.len() as u32;
        let (bytes, rows, label_offsets) = f.assemble(base)?;
        for (addr, line) in rows {
            lines.add_row(addr, line);
        }
        // loop metadata: translate label space to absolute addresses
        let resolve = |l: Label| base + label_offsets[l.0];
        for ll in &f.loop_labels {
            let meta = LoopMeta {
                header_line: ll.header_line,
                init: (resolve(ll.init_start), resolve(ll.init_end)),
                cond: (resolve(ll.cond_start), resolve(ll.cond_end)),
                step: (resolve(ll.step_start), resolve(ll.step_end)),
                body: (resolve(ll.body_start), resolve(ll.body_end)),
                vector_factor: ll.vector_factor,
                is_remainder: ll.is_remainder,
            };
            obj.loops.push((sym_meta.len() as u32, meta));
        }
        sym_meta.push((base, bytes.len() as u32));
        text.extend_from_slice(&bytes);
    }
    for (f, (addr, size)) in funcs.iter().zip(&sym_meta) {
        obj.symbols.push(Symbol::Func {
            name: f.name.clone(),
            addr: *addr,
            size: *size,
        });
    }
    for name in externs {
        obj.symbols.push(Symbol::Extern { name });
    }
    obj.text = text;
    obj.line_program = lines.finish();
    Ok(obj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_isa::{Cc, Reg};

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut f = FuncAsm::new("t");
        f.cur_line = 1;
        let top = f.here();
        f.emit(Inst::AddRI(Reg(0), 1));
        let end = f.new_label();
        f.jcc(Cc::E, end);
        f.jmp(top);
        f.bind(end);
        f.emit(Inst::Ret);
        let obj = assemble_object(vec![f], vec![]).unwrap();
        let ast = mira_vobj::disasm::disassemble(&obj).unwrap();
        let insts = &ast.function("t").unwrap().instructions;
        // jcc target = address of ret; jmp target = 0
        let Inst::Jcc(_, t1) = insts[1].inst else {
            panic!()
        };
        let Inst::Jmp(t2) = insts[2].inst else { panic!() };
        assert_eq!(t2, 0);
        assert_eq!(t1, insts[3].addr);
    }

    #[test]
    fn unbound_label_is_error() {
        let mut f = FuncAsm::new("t");
        let dangling = f.new_label();
        f.jmp(dangling);
        assert!(assemble_object(vec![f], vec![]).is_err());
    }

    #[test]
    fn frame_patch_applied() {
        let mut f = FuncAsm::new("t");
        f.cur_line = 1;
        f.emit_frame_placeholder();
        f.emit(Inst::Ret);
        f.patch_frame_size(128);
        let obj = assemble_object(vec![f], vec![]).unwrap();
        let ast = mira_vobj::disasm::disassemble(&obj).unwrap();
        let insts = &ast.function("t").unwrap().instructions;
        assert_eq!(insts[0].inst, Inst::SubRI(mira_isa::RSP, 128));
    }

    #[test]
    fn multiple_functions_get_disjoint_ranges() {
        let mk = |name: &str, n: usize| {
            let mut f = FuncAsm::new(name);
            f.cur_line = 1;
            for _ in 0..n {
                f.emit(Inst::Nop);
            }
            f.emit(Inst::Ret);
            f
        };
        let obj = assemble_object(vec![mk("a", 3), mk("b", 5)], vec!["sqrt".to_string()]).unwrap();
        let Symbol::Func { addr: a0, size: s0, .. } = &obj.symbols[0] else {
            panic!()
        };
        let Symbol::Func { addr: a1, .. } = &obj.symbols[1] else {
            panic!()
        };
        assert_eq!(*a0, 0);
        assert_eq!(*a1, *s0);
        assert!(obj.symbols[2].is_extern());
    }
}
