//! The source ↔ binary bridge (paper §III-A2).
//!
//! Debuggers connect binary addresses to source lines through DWARF's
//! `.debug_line`; Mira reuses the same mechanism in both directions. Since
//! one source statement maps to several instructions, the bridge is a
//! line-keyed multimap over each binary function's instructions.

use mira_vobj::disasm::{BinFunction, BinInst};
use std::collections::BTreeMap;

/// Per-function line → instructions multimap.
pub struct LineMap {
    by_line: BTreeMap<u32, Vec<BinInst>>,
}

impl LineMap {
    pub fn build(f: &BinFunction) -> LineMap {
        let mut by_line: BTreeMap<u32, Vec<BinInst>> = BTreeMap::new();
        for inst in &f.instructions {
            if let Some(line) = inst.line {
                if line != 0 {
                    by_line.entry(line).or_default().push(*inst);
                }
            }
        }
        LineMap { by_line }
    }

    /// All instructions attributed to `line`.
    pub fn on_line(&self, line: u32) -> &[BinInst] {
        self.by_line.get(&line).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Instructions attributed to `line` whose address lies in the
    /// half-open range.
    pub fn on_line_in(&self, line: u32, range: (u32, u32)) -> Vec<BinInst> {
        self.on_line(line)
            .iter()
            .filter(|i| i.addr >= range.0 && i.addr < range.1)
            .copied()
            .collect()
    }

    /// Instructions attributed to `line` that fall in none of the given
    /// ranges.
    pub fn on_line_outside(&self, line: u32, ranges: &[(u32, u32)]) -> Vec<BinInst> {
        self.on_line(line)
            .iter()
            .filter(|i| !ranges.iter().any(|r| i.addr >= r.0 && i.addr < r.1))
            .copied()
            .collect()
    }

    /// All lines with at least one instruction.
    pub fn lines(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_line.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_vcc::{compile_source, Options};
    use mira_vobj::disasm::disassemble;

    #[test]
    fn maps_lines_to_instruction_groups() {
        let src = "double f(double a, double b) {\n    double c = a * b;\n    double d = c + a;\n    return d;\n}";
        let obj = compile_source(src, &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let map = LineMap::build(ast.function("f").unwrap());
        // one source statement → several binary instructions
        assert!(map.on_line(2).len() >= 3, "{:?}", map.on_line(2));
        assert!(map.on_line(3).len() >= 3);
        assert!(map.on_line(99).is_empty());
        let lines: Vec<u32> = map.lines().collect();
        assert!(lines.contains(&2) && lines.contains(&3) && lines.contains(&4));
    }

    #[test]
    fn range_filters() {
        let src = "void f(int n) {\n    for (int i = 0; i < n; i++) {\n        n = n;\n    }\n}";
        let obj = compile_source(src, &Options::default()).unwrap();
        let ast = disassemble(&obj).unwrap();
        let map = LineMap::build(ast.function("f").unwrap());
        let meta = obj.loops_of(obj.find_func("f").unwrap())[0];
        let init = map.on_line_in(2, meta.init);
        let cond = map.on_line_in(2, meta.cond);
        let step = map.on_line_in(2, meta.step);
        assert!(!init.is_empty() && !cond.is_empty() && !step.is_empty());
        // together with the (empty-on-line-2) body they partition line 2
        let outside = map.on_line_outside(2, &[meta.init, meta.cond, meta.step, meta.body]);
        assert!(outside.is_empty(), "{outside:?}");
        assert_eq!(init.len() + cond.len() + step.len(), map.on_line(2).len());
    }
}
