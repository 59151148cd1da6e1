//! # mira-mem — memory-traffic models and the VM cache simulator
//!
//! Mira's headline derived metric is arithmetic intensity (paper §IV-D2,
//! Fig. 6), but instruction ratios alone cannot anchor a roofline: that
//! takes *bytes moved through the memory hierarchy*. This crate adds the
//! missing axis with two halves that are validated against each other:
//!
//! * **Static half.** The metric generator (`mira-core`) attributes every
//!   explicit memory instruction of the binary to its source statement
//!   with an exact polyhedral execution count, and emits
//!   `ModelOp::MemAcc`/`FlopAcc` ops; `mira_model::Model` evaluates them
//!   to closed-form load/store **bytes** and packed-aware FLOPs
//!   ([`mira_model::Report::bytes_arithmetic_intensity`]). On top of
//!   that, [`access`] derives each array reference's affine access
//!   function over its SCoP and predicts the **distinct cache lines**
//!   touched per array — stride- and vector-width-aware, composed across
//!   calls, exact for dense affine coverage
//!   ([`access::FuncFootprints`]) — and refines the per-function total
//!   into a **per-nest working-set model** ([`access::NestModel`]): the
//!   distinct-line working set of one iteration of every enclosing loop
//!   level (the affine ranges with outer loop variables pinned at their
//!   first iteration), from which the traffic crossing any cache
//!   boundary follows — reuse captured above the boundary is compulsory,
//!   uncaptured re-sweeps multiply, stencil offsets fall back to
//!   per-access counts when their carried reuse escapes.
//! * **Dynamic half.** [`cachesim::CacheSim`] is a two-level
//!   set-associative LRU simulator the VM hangs off its load/store path
//!   when `VmOptions::mem_profile` is set (mirrored in `ReferenceVm`, so
//!   the differential tests stay bit-identical with instrumentation on or
//!   off). It counts per-level hits/misses and load/store bytes under the
//!   same accounting contract (`mira_isa::Inst::memory_bytes`): explicit
//!   memory operands only, no `push`/`pop` or return-address traffic.
//!
//! The two halves agree by construction wherever the instruction-count
//! models are exact: static bytes equal simulated bytes on the affine
//! subset, and static distinct-line footprints equal simulated cold-cache
//! L1 *data* fills for streaming kernels (`crates/workloads` pins both on
//! STREAM, DGEMM and miniFE cg_solve; `bench_mem` records the trajectory
//! in `BENCH_mem.json`).
//!
//! ## Budgets and degradation
//!
//! Every symbolically expensive entry point of the static half —
//! per-function access analysis, footprint resolution, working-set
//! model construction — runs under an analysis budget
//! ([`mira_sym::budget`]): a fuel limit on symbolic term construction
//! and a depth limit on recursion. A tripped budget never aborts the
//! analysis; it *degrades along the refusal chain the models already
//! have*. A refused function is summarized with every pointer parameter
//! unknown (so its footprint is not exact), footprint resolution falls
//! back to the unknown-set summary, and a refused nest model returns
//! `None` — which downstream roofline placement already treats as "use
//! the conservative streaming sweep". Adversarial nests therefore cost
//! precision, never correctness, and never a hang or a blown stack.

pub mod access;
pub mod cachesim;

pub use access::{
    analyze_closure, analyze_program, AccessModel, ArrayFootprint, BoundaryTraffic, FuncFootprints,
    GroupExpr, GroupShape, NestGroup, NestModel, NestNode, NestShape,
};
pub use cachesim::{CacheSim, LevelStats, MemStats};

use mira_core::Analysis;

/// Distinct-line footprints for `func`, derived from the analysis'
/// source program: `func` and its callees are analyzed, nothing else.
/// (For the per-nest working-set model, build one [`AccessModel`] with
/// [`analyze_closure`] and call [`AccessModel::nest_model`] on it —
/// footprints and nest model then share the analysis.)
pub fn footprints(analysis: &Analysis, func: &str) -> FuncFootprints {
    analyze_closure(&analysis.program, func).footprint(func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_core::{analyze_source, MiraOptions};
    use mira_sym::bindings;

    #[test]
    fn footprints_from_analysis() {
        let src = "void scale(int n, double* b, double* c, double s) {\n\
                   for (int i = 0; i < n; i++) { b[i] = s * c[i]; }\n}";
        let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
        let fp = footprints(&analysis, "scale");
        assert!(fp.is_exact(64));
        let b = bindings(&[("n", 512)]);
        assert_eq!(fp.total_lines_expr(64).eval_count(&b).unwrap(), 128);
    }
}
