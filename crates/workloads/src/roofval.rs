//! Roofline-placement validation: the static symbolic bounds of
//! `mira-roofline` against the cache-simulator-derived placement,
//! workload by workload.
//!
//! Each harness builds the kernel's [`KernelRoofline`] (closed-form
//! FLOPs, data bytes, footprints), places it at the run's parameters,
//! then executes the same kernel under the VM cache simulator — with a
//! final [`mira_vm::Vm::flush_mem`] so end-of-run store traffic reaches
//! the write-back counters — and places the *measured* per-boundary
//! traffic against the same ceilings. The two placements must name the
//! same binding roof: that agreement is this module's contract, pinned
//! by its tests and recorded as a trajectory by `bench_roofline`.
//!
//! On the affine subset the L1 bound agrees *exactly* (static data bytes
//! equal simulated data bytes, by the shared accounting contract); the
//! deeper bounds agree in classification, with the static side's
//! fits-or-streams traffic model standing in for simulated fills and
//! write-backs.

use crate::dgemm::Dgemm;
use crate::memval::{sim_options, triad_analysis};
use crate::minife::MiniFe;
use crate::run::{Run, Shape};
use crate::stream::Stream;
use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_roofline::{dynamic_placement, Ceilings, Crossover, KernelRoofline, Placement};
use mira_sym::bindings;
use mira_vm::Vm;

/// One static-vs-dynamic roofline validation row.
#[derive(Clone, Debug)]
pub struct RoofRow {
    pub workload: String,
    pub function: String,
    /// Model FLOPs at the run's parameters (validated exact against the
    /// dynamic counts by the `memval` suite — both placements share it).
    pub flops: i128,
    /// Static closed-form data bytes, evaluated.
    pub static_data_bytes: i128,
    /// Simulated data bytes (must equal the static value on the affine
    /// subset).
    pub dynamic_data_bytes: u64,
    /// Static distinct-line footprint, evaluated.
    pub footprint_lines: i128,
    pub static_p: Placement,
    pub dynamic_p: Placement,
}

impl RoofRow {
    /// Do the static and simulator-derived placements name the same
    /// bound class and binding roof?
    pub fn agrees(&self) -> bool {
        self.static_p.agrees_with(&self.dynamic_p)
    }

    /// Static data bytes == simulated data bytes, exactly.
    pub fn data_bytes_exact(&self) -> bool {
        self.static_data_bytes == self.dynamic_data_bytes as i128
    }
}

/// Run `func` of `analysis` as `shape` under the cache simulator, flush
/// the end-of-run stores into the write-back counters, and place both
/// sides at the run's bindings.
fn row(workload: &str, analysis: &Analysis, func: &str, shape: Shape) -> RoofRow {
    let mut run: Run<Vm> = shape.run(&analysis.object, sim_options(analysis, true), func);
    run.vm.flush_mem();
    let stats = run.vm.mem_stats().expect("profiling on");
    let binds = run.bindings();
    let ceilings = Ceilings::from_arch(&analysis.arch);
    let kernel = KernelRoofline::analyze(analysis, func).expect("kernel analyzes");
    let static_p = kernel
        .place(&ceilings, &binds)
        .expect("placement evaluates");
    let flops = kernel.flops().eval_count(&binds).expect("flops evaluate");
    RoofRow {
        workload: workload.to_string(),
        function: func.to_string(),
        flops,
        static_data_bytes: kernel
            .data_bytes()
            .eval_count(&binds)
            .expect("bytes evaluate"),
        dynamic_data_bytes: stats.data_bytes(),
        footprint_lines: kernel
            .footprint_lines()
            .eval_count(&binds)
            .expect("footprint evaluates"),
        static_p,
        dynamic_p: dynamic_placement(flops, &stats, &ceilings, kernel.vectorized),
    }
}

/// STREAM triad, scalar or SSE2-vectorized.
pub fn triad_roof(n: i64, reps: i64, simd: bool) -> RoofRow {
    let workload = if simd { "triad_simd" } else { "triad" };
    let shape = Shape::Stream { n, reps };
    row(workload, &triad_analysis(simd), "triad", shape)
}

/// All four STREAM kernels.
pub fn stream_roof(n: i64, reps: i64) -> RoofRow {
    let stream = Stream::new();
    let shape = Shape::Stream { n, reps };
    row("stream", &stream.analysis, "stream_kernels", shape)
}

/// DGEMM (ikj order).
pub fn dgemm_roof(n: i64, reps: i64) -> RoofRow {
    let dgemm = Dgemm::new();
    row("dgemm", &dgemm.analysis, "dgemm", Shape::Square { n, reps })
}

/// miniFE `cg_solve` on a `d³` cube (assembled first, counters and cache
/// reset to cold for the solve, static side at the measured iteration
/// count — the same scoping as `memval::minife_row`).
pub fn minife_roof(d: i64, max_iter: i64, tol: f64) -> RoofRow {
    let minife = MiniFe::new();
    let shape = Shape::MiniFe {
        nx: d,
        ny: d,
        nz: d,
        max_iter,
        tol,
    };
    let workload = format!("minife_cg_{d}x{d}x{d}");
    row(&workload, &minife.analysis, "cg_solve", shape)
}

/// Tiled (blocked) ikj DGEMM with fixed 8×8 i/k tiles — `n` must be a
/// multiple of 8. The tile turns b's whole-matrix reuse into per-tile
/// reuse: the working-set model places its traffic by the tile working
/// set, where the old fits-or-streams model saw only the too-big
/// whole-function footprint.
pub const DGEMM_TILED_SRC: &str = r#"void dgemm_tiled(int n, int reps, double* a, double* b, double* c) {
    for (int r = 0; r < reps; r++) {
        for (int ii = 0; ii < n; ii += 8) {
            for (int kk = 0; kk < n; kk += 8) {
                for (int i = ii; i < ii + 8; i++) {
                    for (int k = kk; k < kk + 8; k++) {
                        for (int j = 0; j < n; j++) {
                            c[i * n + j] += a[i * n + k] * b[k * n + j];
                        }
                    }
                }
            }
        }
    }
}
"#;

/// STREAM triad processed in 1024-element blocks with the repetition
/// loop *inside* the block — `n` must be a multiple of 1024. Each block
/// is cache-resident while it is hot, so traffic is compulsory-only even
/// when the whole footprint dwarfs every cache: the blocked shape whose
/// L2/DRAM ceilings the binary footprint test overestimated by `reps`.
pub const TRIAD_BLOCKED_SRC: &str = r#"void triad_blocked(int n, int reps, double* a, double* b, double* c, double s) {
    for (int ii = 0; ii < n; ii += 1024) {
        for (int r = 0; r < reps; r++) {
            for (int i = ii; i < ii + 1024; i++) {
                a[i] = b[i] + s * c[i];
            }
        }
    }
}
"#;

/// Tiled DGEMM (8×8 i/k tiles).
pub fn dgemm_tiled_roof(n: i64, reps: i64) -> RoofRow {
    assert_eq!(n % 8, 0, "tile size divides n");
    let analysis =
        analyze_source(DGEMM_TILED_SRC, &MiraOptions::default()).expect("tiled DGEMM analyzes");
    let shape = Shape::Square { n, reps };
    row("dgemm_tiled", &analysis, "dgemm_tiled", shape)
}

/// Blocked STREAM triad (1024-element blocks, reps inside the block).
pub fn triad_blocked_roof(n: i64, reps: i64) -> RoofRow {
    assert_eq!(n % 1024, 0, "block size divides n");
    let analysis =
        analyze_source(TRIAD_BLOCKED_SRC, &MiraOptions::default()).expect("blocked triad analyzes");
    let shape = Shape::Stream { n, reps };
    row("triad_blocked", &analysis, "triad_blocked", shape)
}

/// Dense forward triangular solve ([`crate::compose::TRISOLVE_SRC`]):
/// the triangular nest the average-extent lift admits into the per-nest
/// model. `L` is touched once (compulsory), `x` is reused across the
/// growing inner sweeps.
pub fn trisolve_roof(n: i64) -> RoofRow {
    let analysis = analyze_source(crate::compose::TRISOLVE_SRC, &MiraOptions::default())
        .expect("trisolve analyzes");
    row("trisolve", &analysis, "trisolve", Shape::Trisolve { n })
}

/// Composed ping-pong stencil sweep
/// ([`crate::compose::STENCIL_SWEEP_SRC`]): `steps` alternating `blur`
/// calls spliced into the caller's step loop by the composed-callee
/// lift, with `src`/`dst` swapped between the two call sites.
pub fn stencil_sweep_roof(n: i64, steps: i64) -> RoofRow {
    let analysis = analyze_source(crate::compose::STENCIL_SWEEP_SRC, &MiraOptions::default())
        .expect("stencil sweep analyzes");
    row(
        "stencil_sweep",
        &analysis,
        "stencil_sweep",
        Shape::StencilSweep { n, steps },
    )
}

/// The DGEMM regime crossover in `n` at one repetition: the size where
/// the kernel leaves the roof it starts under (cold DRAM traffic
/// dominates tiny matrices), solved by bisection over the closed forms
/// and by the brute-force sweep. The two must agree — that is the
/// acceptance contract `bench_roofline` records.
pub fn dgemm_crossover(lo: i128, hi: i128) -> (Option<Crossover>, Option<Crossover>) {
    let dgemm = Dgemm::new();
    let ceilings = Ceilings::from_arch(&dgemm.analysis.arch);
    let kernel = KernelRoofline::analyze(&dgemm.analysis, "dgemm").expect("dgemm analyzes");
    let base = bindings(&[("reps", 1)]);
    let solved = kernel
        .crossover(&ceilings, "n", &base, lo, hi)
        .expect("solver evaluates");
    let swept = kernel
        .crossover_sweep(&ceilings, "n", &base, lo, hi)
        .expect("sweep evaluates");
    (solved, swept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_roofline::{Ceiling, MemLevel};

    /// Streaming far beyond every cache: the DRAM roof binds, statically
    /// and in the simulator, for the triad and all four kernels.
    #[test]
    fn stream_shapes_dram_bound_at_capacity() {
        for row in [
            triad_roof(20_000, 2, false),
            triad_roof(20_000, 2, true),
            stream_roof(20_000, 2),
        ] {
            assert!(row.data_bytes_exact(), "{row:?}");
            assert_eq!(
                row.static_p.binding,
                Ceiling::Mem(MemLevel::Dram),
                "{} {}",
                row.workload,
                row.static_p
            );
            assert!(row.agrees(), "{} static {} vs dynamic {}",
                row.workload, row.static_p, row.dynamic_p);
        }
    }

    /// L1-resident, rep-amortized shapes: the scalar triad's 12 B/FLOP
    /// fit under the L1 roof — it is compute-bound — while the packed
    /// triad (double peak) and the copy-heavy four-kernel STREAM hit the
    /// L1 bandwidth roof. Static and simulated placements agree on all
    /// three, and the L1 bound agrees *exactly* (same data bytes).
    #[test]
    fn resident_shapes_split_compute_vs_l1() {
        let scalar = triad_roof(1024, 20, false);
        assert_eq!(scalar.static_p.binding, Ceiling::Compute, "{}", scalar.static_p);
        let simd = triad_roof(1024, 20, true);
        assert_eq!(
            simd.static_p.binding,
            Ceiling::Mem(MemLevel::L1),
            "{}",
            simd.static_p
        );
        let stream = stream_roof(1024, 20);
        assert_eq!(
            stream.static_p.binding,
            Ceiling::Mem(MemLevel::L1),
            "{}",
            stream.static_p
        );
        for row in [scalar, simd, stream] {
            assert!(row.data_bytes_exact(), "{row:?}");
            assert!(row.agrees(), "{} static {} vs dynamic {}",
                row.workload, row.static_p, row.dynamic_p);
            assert_eq!(
                row.static_p.mem_cycles[0], row.dynamic_p.mem_cycles[0],
                "the L1 bound is shared exactly"
            );
        }
    }

    /// Cache-resident scalar DGEMM sits exactly at the L1 knee: the ikj
    /// inner iteration moves 32 data bytes (3 loads + 1 store) per 2
    /// FLOPs against a 32 B/cycle L1 and a 2 FLOP/cycle peak — compute
    /// and L1 bounds tie, and a tie is a memory wall (the kernel cannot
    /// go faster than either roof allows). Both placements see the same
    /// exact bytes, so they agree on the call.
    #[test]
    fn dgemm_resident_sits_at_l1_knee() {
        let row = dgemm_roof(32, 1);
        assert!(row.data_bytes_exact(), "{row:?}");
        assert_eq!(
            row.static_p.compute_cycles, row.static_p.mem_cycles[0],
            "the exact knee: {}",
            row.static_p
        );
        assert_eq!(row.static_p.binding, Ceiling::Mem(MemLevel::L1), "{}", row.static_p);
        assert!(row.agrees(), "static {} vs dynamic {}", row.static_p, row.dynamic_p);
        assert_eq!(row.static_p.mem_cycles[0], row.dynamic_p.mem_cycles[0]);
    }

    /// The miniFE solve at a working set ≈ 2× L2: every boundary
    /// streams, the DRAM roof binds, and the annotation-derived static
    /// side agrees with the simulator.
    #[test]
    fn minife_streaming_dram_bound() {
        let row = minife_roof(15, 2000, 1e-8);
        assert!(row.data_bytes_exact(), "{row:?}");
        assert_eq!(
            row.static_p.binding,
            Ceiling::Mem(MemLevel::Dram),
            "{}",
            row.static_p
        );
        assert!(row.agrees(), "static {} vs dynamic {}", row.static_p, row.dynamic_p);
    }

    /// miniFE at an L1-resident size: compute-bound, both ways.
    #[test]
    fn minife_resident_agrees() {
        let row = minife_roof(5, 500, 1e-8);
        assert!(row.data_bytes_exact(), "{row:?}");
        assert!(row.agrees(), "static {} vs dynamic {}", row.static_p, row.dynamic_p);
    }

    /// The triangular lift, end to end: trisolve gets a per-nest model
    /// (the old ladder refused dependent bounds outright), places in
    /// agreement with the simulator from resident through capacity
    /// sizes, and its deep bounds stay honest upper bounds.
    #[test]
    fn trisolve_triangular_nest_places() {
        let analysis = analyze_source(crate::compose::TRISOLVE_SRC, &MiraOptions::default())
            .expect("analyzes");
        let kernel = KernelRoofline::analyze(&analysis, "trisolve").expect("kernel analyzes");
        assert!(kernel.nest_model.is_some(), "the triangular refusal is back");
        for n in [32, 160, 512] {
            let row = trisolve_roof(n);
            assert!(row.data_bytes_exact(), "{row:?}");
            assert!(row.agrees(), "n={n}: static {} vs dynamic {}", row.static_p, row.dynamic_p);
            assert!(
                row.static_p.mem_cycles[1] >= row.dynamic_p.mem_cycles[1]
                    && row.static_p.mem_cycles[2] >= row.dynamic_p.mem_cycles[2],
                "n={n}: a deep bound dipped below the measurement: {row:?}"
            );
        }
    }

    /// The composition lift, end to end: the ping-pong sweep's spliced
    /// model prices both call sites correctly — the static L2 and DRAM
    /// bounds are *bit-equal* with the simulator at a resident and a
    /// far-beyond-cache size.
    #[test]
    fn stencil_sweep_composed_places_bit_equal() {
        let analysis = analyze_source(crate::compose::STENCIL_SWEEP_SRC, &MiraOptions::default())
            .expect("analyzes");
        let kernel = KernelRoofline::analyze(&analysis, "stencil_sweep").expect("kernel analyzes");
        assert!(kernel.nest_model.is_some(), "the composed-callee refusal is back");
        for (n, steps) in [(1024i64, 8i64), (200_000, 4)] {
            let row = stencil_sweep_roof(n, steps);
            assert!(row.data_bytes_exact(), "{row:?}");
            assert_eq!(
                row.static_p.mem_cycles[1], row.dynamic_p.mem_cycles[1],
                "n={n}: {row:?}"
            );
            assert_eq!(
                row.static_p.mem_cycles[2], row.dynamic_p.mem_cycles[2],
                "n={n}: {row:?}"
            );
            assert!(row.agrees(), "n={n}: static {} vs dynamic {}", row.static_p, row.dynamic_p);
        }
    }

    /// The acceptance contract: DGEMM's crossover out of the DRAM roof
    /// (cold compulsory traffic dominates tiny matrices; the O(n³)
    /// core-side traffic overtakes it), solved symbolically, matches the
    /// brute-force parameter sweep.
    #[test]
    fn dgemm_crossover_solved_matches_sweep() {
        let (solved, swept) = dgemm_crossover(2, 64);
        assert_eq!(solved, swept);
        let x = solved.expect("DGEMM leaves the DRAM roof in [2, 64]");
        assert_eq!(x.from, Ceiling::Mem(MemLevel::Dram));
        assert_eq!(x.to, Ceiling::Mem(MemLevel::L1), "onto the L1 knee");
        assert!(x.value > 2 && x.value < 64, "{x:?}");
    }
}
