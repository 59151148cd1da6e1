//! # mira-serve — compiled closed-form evaluation and roofline serving
//!
//! The analysis side of Mira produces *closed forms*: exact symbolic
//! polynomials ([`mira_sym::SymExpr`]) for FLOPs, bytes, footprints and
//! working sets, which [`mira_roofline::KernelRoofline::place`]
//! evaluates at concrete parameter values by walking the expression
//! trees. That walk is exact and refusal-safe, but it re-traverses
//! `Rc`-linked trees, re-builds the ceiling expressions, and re-enters
//! a budget scope on every call — fine for a report, wasteful for the
//! questions a model is actually *for*: sweeps over thousands of sizes,
//! crossover searches, what-if comparisons across machines.
//!
//! This crate is the serving tier. It compiles everything a placement
//! can touch, once, into flat register bytecode, and then answers
//! queries at memory speed:
//!
//! * [`program`] — the compiled evaluator. [`CompiledExpr`] /
//!   [`EvalProgram`] lower closed forms into a linear op stream with
//!   compile-time common-subexpression elimination, emitting every
//!   checked arithmetic step in exactly the tree walk's order, so
//!   values **and refusals** ([`mira_sym::EvalError`]) are
//!   bit-identical. Depth is checked once, at compile time: an
//!   expression the tree walk would refuse on depth inside a budget
//!   scope does not compile ([`CompileError::TooDeep`]).
//! * [`index`] — the query service. A [`PlacementProgram`] compiles a
//!   kernel's machine-independent placement forms once; a
//!   [`CompiledKernel`] serves it on one machine by attaching that
//!   machine's ceilings, and places through the same loop as the tree
//!   walk ([`mira_roofline::place_with`]). [`ServeIndex`] holds one
//!   [`CompiledKernel`] per kernel × machine entry, keyed by `(func,
//!   machine)`: [`ServeIndex::insert`] admits a kernel and refuses a
//!   duplicate (typed), [`ServeIndex::replace`] swaps a live one. It
//!   answers [`Query`] batches single-threaded (allocation-free after
//!   warm-up) or sharded across scoped worker threads with bit-identical
//!   results; [`ServeIndex::sweep`] streams parameter sweeps,
//!   [`ServeIndex::crossover`] solves regime changes through the same
//!   bisection core as the tree walk, and
//!   [`ServeIndex::crossover_table`] bisects every kernel × machine
//!   pair in one sharded pass.
//! * [`cache`] — the [`AnswerCache`]: a bounded, 8-way set-associative
//!   table for sweep-heavy traffic, keyed by `(compiled program, live
//!   values)`. An entry holds the machine-independent values a placement
//!   reads, in fixed-size `i64` cells (exact values only; refusals are
//!   re-derived, never stored), so every machine serving a program
//!   shares it, and the finished placements of the last two attached
//!   ceilings that read it, keyed by the id each
//!   [`CompiledKernel::attach`] draws: a repeated query is one lookup.
//!   No swap or reload can make an entry stale: it changes no program and
//!   attaches under new ids. Answers are bit-identical to uncached ones;
//!   hit, kept-placement hit and eviction counters via
//!   [`AnswerCache::probe`].
//! * [`fleet`] — [`MachineFleet`]: a directory of `*.ini` machine
//!   descriptions with every admitted kernel served on every machine,
//!   compiled once per [`AnalysisKey`](mira_roofline::AnalysisKey) (line
//!   size and `[metric fpi]` categories) rather than once per machine,
//!   and [`MachineFleet::reload`] hot-swapping the entries of edited
//!   files atomically ([`KernelId`]s stable). A bandwidth, peak or
//!   capacity edit re-attaches ceilings without analyzing or compiling
//!   anything, and answer caches keep every entry's values across it.
//!
//! The equivalence story has one compile-time escape hatch:
//! [`CompiledKernel::build`] refuses (typed [`BuildError`]) any kernel
//! whose compiled program could *not* behave identically to the tree
//! walk — deeper than [`mira_sym::budget::MAX_DEPTH`], wider than a
//! query's parameter slots, or beyond the bytecode's address space.
//! Every kernel that builds answers every query the tree walk can, with
//! the same `Placement` bit for bit (pinned by this crate's
//! differential tests over a generated corpus and every workload
//! model).

pub mod cache;
pub mod fleet;
pub mod index;
pub mod program;

pub use cache::{AnswerCache, CacheStats};
pub use fleet::{FleetError, MachineFleet, ReloadReport};
pub use index::{
    BuildError, CompiledKernel, CrossoverRow, KernelId, PlacementProgram, Query, ServeError,
    ServeIndex, Sweep, MAX_QUERY_PARAMS, SHARD_MIN_BATCH,
};
pub use program::{CompileError, CompiledExpr, EvalProgram, OutId, ProgramBuilder, Scratch, SecId};

/// Machine descriptions for cross-machine serving comparisons.
pub mod machines {
    use mira_arch::{ArchDescription, DescError};

    /// Name of the default description
    /// ([`mira_arch::desc::DEFAULT_DESCRIPTION`]).
    pub const GENERIC: &str = "generic-x86_64";

    /// Name of [`AVX2_FMA_DESCRIPTION`].
    pub const AVX2_FMA: &str = "avx2-fma";

    /// A second machine for what-if comparisons: AVX2 vectors with FMA
    /// (4 double lanes, 16 packed FLOPs/cycle), a 1 MiB L2 and doubled
    /// bandwidth at every boundary. Same instruction-category metrics
    /// as the default description.
    pub const AVX2_FMA_DESCRIPTION: &str = "\
# A wider machine: AVX2 + FMA core with a bigger L2 and faster memory.
[machine]
name = avx2-fma
cores = 1
cache_line_bytes = 64
vector_bits = 256
fp_lanes_per_vector = 4

[cache l1]
size_bytes = 32768
assoc = 8

[cache l2]
size_bytes = 1048576
assoc = 16

# Two FMA pipes: 4 scalar FLOPs/cycle, 16 packed at 4 lanes.
[peak]
fp_pipes = 2
fma = yes

[bandwidth l1]
bytes_per_cycle = 64

[bandwidth l2]
bytes_per_cycle = 32

[bandwidth dram]
bytes_per_cycle = 8

[metric fpi]
categories = sse2_packed_arith, sse_packed_arith, x87_basic_arith, avx_arith, fma

[metric fp_movement]
categories = sse2_data_movement, sse_data_transfer, x87_data_transfer, avx_data_movement

[metric int_movement]
categories = int_data_transfer

[metric branches]
categories = int_control_transfer
";

    /// Parse [`AVX2_FMA_DESCRIPTION`].
    pub fn avx2_fma() -> Result<ArchDescription, DescError> {
        ArchDescription::parse(AVX2_FMA_DESCRIPTION)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn avx2_fma_parses_and_differs_from_default() {
            let d = avx2_fma().unwrap();
            assert_eq!(d.machine.name, AVX2_FMA);
            assert!(d.machine.peak.fma);
            assert_eq!(d.machine.peak.scalar_flops_per_cycle(), 4);
            assert_eq!(
                d.machine
                    .peak
                    .vector_flops_per_cycle(d.machine.fp_lanes_per_vector),
                16
            );
            assert_eq!(d.machine.l2.size_bytes, 1 << 20);
            let default = ArchDescription::default();
            assert_eq!(default.machine.name, GENERIC);
            assert_ne!(d.machine.bandwidth, default.machine.bandwidth);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the compiled tier: programs and kernels are
    /// pure data and cross worker threads, unlike the `Rc`-sharing
    /// expression trees they were lowered from.
    #[test]
    fn compiled_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalProgram>();
        assert_send_sync::<CompiledExpr>();
        assert_send_sync::<PlacementProgram>();
        assert_send_sync::<CompiledKernel>();
        assert_send_sync::<ServeIndex>();
        assert_send_sync::<Query>();
    }
}
