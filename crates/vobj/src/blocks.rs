//! Basic-block boundaries over a decoded instruction stream.
//!
//! The classic leader rule, applied to VX86: an instruction starts a basic
//! block if it is a function entry, the target of a `jmp`/`jcc`, or the
//! instruction following any control transfer (`jmp`, `jcc`, `call`,
//! `ret`, `halt`). Everything between two leaders executes as a
//! straight-line run, which is what lets `mira-vm` attribute a whole block
//! with one sparse vector-add instead of per-instruction scatter, and what
//! gives the disassembled [`BinFunction`](crate::disasm::BinFunction) view
//! its CFG granularity.

use mira_isa::Inst;
use std::collections::HashMap;
use std::ops::Range;

/// Is this instruction a control transfer that ends a basic block?
/// (`call` ends a block too: execution re-enters at the return point, which
/// must therefore be independently addressable.)
fn ends_block(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Jmp(_) | Inst::Jcc(_, _) | Inst::Call(_) | Inst::Ret | Inst::Halt
    )
}

/// Per-instruction leader flags for a `(byte addr, inst)` stream sorted
/// by address. `entries` are function entry addresses; entries that do
/// not coincide with a decoded instruction (e.g. zero-size symbols) are
/// ignored. Jump targets that are not instruction boundaries (wild jumps)
/// are likewise ignored — they fault at execution time, not at decode
/// time.
fn leader_flags(insts: &[(u32, Inst)], entries: &[u32]) -> Vec<bool> {
    let index: HashMap<u32, usize> = insts
        .iter()
        .enumerate()
        .map(|(i, (addr, _))| (*addr, i))
        .collect();
    let mut leader = vec![false; insts.len()];
    for e in entries {
        if let Some(&i) = index.get(e) {
            leader[i] = true;
        }
    }
    if let Some(first) = leader.first_mut() {
        *first = true;
    }
    for (i, (_, inst)) in insts.iter().enumerate() {
        match inst {
            Inst::Jmp(t) | Inst::Jcc(_, t) => {
                if let Some(&ti) = index.get(t) {
                    leader[ti] = true;
                }
            }
            _ => {}
        }
        if ends_block(inst) && i + 1 < insts.len() {
            leader[i + 1] = true;
        }
    }
    leader
}

/// Partition a `(byte addr, inst)` stream into basic blocks, returned as
/// index ranges into `insts`. Every instruction belongs to exactly one
/// block; a block ends at a control transfer or just before the next
/// leader (a fall-through edge).
pub fn basic_blocks(insts: &[(u32, Inst)], entries: &[u32]) -> Vec<Range<usize>> {
    if insts.is_empty() {
        return Vec::new();
    }
    let is_leader = leader_flags(insts, entries);
    let mut blocks = Vec::new();
    let mut start = 0usize;
    for i in 0..insts.len() {
        let end_here = ends_block(&insts[i].1) || i + 1 == insts.len() || is_leader[i + 1];
        if end_here {
            blocks.push(start..i + 1);
            start = i + 1;
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_isa::{Cc, Reg};

    /// A two-block loop: body at 0, back-edge jcc, then a ret block.
    fn stream() -> Vec<(u32, Inst)> {
        vec![
            (0, Inst::AddRI(Reg(0), 1)),
            (10, Inst::CmpRI(Reg(0), 10)),
            (20, Inst::Jcc(Cc::L, 0)),
            (30, Inst::MovRR(Reg(1), Reg(0))),
            (40, Inst::Ret),
        ]
    }

    #[test]
    fn loop_shape_blocks() {
        let s = stream();
        let blocks = basic_blocks(&s, &[0]);
        assert_eq!(blocks, vec![0..3, 3..5]);
    }

    #[test]
    fn call_splits_at_return_point() {
        let s = vec![
            (0, Inst::Call(1)),
            (5, Inst::AddRI(Reg(0), 1)),
            (15, Inst::Ret),
        ];
        let blocks = basic_blocks(&s, &[0]);
        assert_eq!(blocks, vec![0..1, 1..3]);
    }

    #[test]
    fn wild_targets_and_foreign_entries_ignored() {
        let s = stream();
        // entry addr 7 is not an instruction boundary; jcc target stays 0
        let blocks = basic_blocks(&s, &[0, 7]);
        assert_eq!(blocks.len(), 2);
        // a jump into the middle of an encoding is not a leader
        let wild = vec![(0, Inst::Jmp(3)), (8, Inst::Ret)];
        assert_eq!(basic_blocks(&wild, &[0]), vec![0..1, 1..2]);
    }

    #[test]
    fn empty_stream() {
        assert!(basic_blocks(&[], &[0]).is_empty());
        assert!(basic_blocks(&[], &[]).is_empty());
    }

    #[test]
    fn every_inst_in_exactly_one_block() {
        let s = stream();
        let blocks = basic_blocks(&s, &[0]);
        let mut covered = vec![0u32; s.len()];
        for b in &blocks {
            for i in b.clone() {
                covered[i] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }
}
