//! Dynamic profiles: the VM's answer to a TAU profile dump.

use mira_arch::{ArchDescription, Category, CategoryCounts};
use std::collections::BTreeMap;

/// Per-function dynamic counts.
#[derive(Clone, PartialEq, Debug)]
pub struct FuncProfile {
    pub name: String,
    /// Counts while the function was the innermost frame.
    pub exclusive: CategoryCounts,
    /// Counts while the function was anywhere on the call stack (TAU's
    /// inclusive convention — Table V reports these for `cg_solve`).
    pub inclusive: CategoryCounts,
    pub calls: u64,
}

impl FuncProfile {
    /// Inclusive count over a metric group (e.g. FPI).
    pub fn metric(&self, cats: &[Category]) -> i128 {
        self.inclusive.metric(cats)
    }
}

/// A full dynamic profile. `PartialEq` compares every counter — the
/// differential tests use it to pin the block engine to the per-step
/// reference interpreter bit for bit.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Profile {
    pub functions: Vec<FuncProfile>,
    /// `(function name, line) → counts` for statement-level validation.
    pub lines: BTreeMap<(String, u32), CategoryCounts>,
}

impl Profile {
    pub(crate) fn build(
        names: &[String],
        excl: &[[u64; Category::COUNT]],
        incl: &[[u64; Category::COUNT]],
        calls: &[u64],
        line_keys: &[(u16, u32)],
        line_counts: &[[u64; Category::COUNT]],
    ) -> Profile {
        let to_counts = |arr: &[u64; Category::COUNT]| {
            let mut c = CategoryCounts::new();
            for (i, v) in arr.iter().enumerate() {
                if *v != 0 {
                    c.add(Category::from_index(i).unwrap(), *v as i128);
                }
            }
            c
        };
        let functions = names
            .iter()
            .enumerate()
            .map(|(i, name)| FuncProfile {
                name: name.clone(),
                exclusive: to_counts(&excl[i]),
                inclusive: to_counts(&incl[i]),
                calls: calls[i],
            })
            .collect();
        let mut lines = BTreeMap::new();
        for ((func, line), counts) in line_keys.iter().zip(line_counts) {
            lines.insert((names[*func as usize].clone(), *line), to_counts(counts));
        }
        Profile { functions, lines }
    }

    pub fn function(&self, name: &str) -> Option<&FuncProfile> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Inclusive FPI (PAPI_FP_INS equivalent) of a function under the given
    /// architecture description.
    pub fn fpi(&self, name: &str, arch: &ArchDescription) -> i128 {
        self.function(name)
            .map(|f| f.inclusive.metric(arch.fpi()))
            .unwrap_or(0)
    }

    /// Total retired instructions of a function, inclusive.
    pub fn total(&self, name: &str) -> i128 {
        self.function(name)
            .map(|f| f.inclusive.total())
            .unwrap_or(0)
    }
}
