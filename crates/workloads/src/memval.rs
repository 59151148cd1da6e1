//! Memory-traffic validation: the static `mira-mem` models against the
//! VM cache simulator, workload by workload.
//!
//! Each harness runs a kernel twice over the same inputs — *statically*
//! (evaluating the closed-form byte/FLOP model and the distinct-line
//! footprints) and *dynamically* (executing it in the VM with
//! `VmOptions::mem_profile` on) — and returns one [`MemRow`] with both
//! sides. On the affine subset the bytes agree **exactly** (same
//! accounting contract, same instruction counts), and for streaming
//! kernels sized to stay L1-resident the static distinct-line totals
//! equal the simulator's cold-cache *data* L1 fills exactly as well;
//! reuse-heavy kernels with data-dependent accesses (miniFE's CSR) carry
//! an annotation-style estimate and a stated tolerance instead, mirroring
//! the paper's treatment of everything static analysis cannot see.

use crate::dgemm::Dgemm;
use crate::minife::MiniFe;
use crate::run::{Run, Shape};
use crate::stream::Stream;
use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_mem::MemStats;
use mira_vm::{Vm, VmOptions};
use std::time::{Duration, Instant};

/// The STREAM triad alone — the kernel the paper's roofline argument
/// leans on (`a[i] = b[i] + s*c[i]`).
pub const TRIAD_SRC: &str = r#"void triad(int n, int reps, double* a, double* b, double* c, double scalar) {
    for (int r = 0; r < reps; r++) {
        for (int i = 0; i < n; i++) {
            a[i] = b[i] + scalar * c[i];
        }
    }
}
"#;

/// One static-vs-dynamic memory validation row.
#[derive(Clone, Debug)]
pub struct MemRow {
    pub workload: String,
    pub function: String,
    /// Static closed-form predictions evaluated at the run's parameters.
    pub static_load_bytes: i128,
    pub static_store_bytes: i128,
    pub static_flops: i128,
    /// Static distinct-cache-line prediction (analyzed arrays plus any
    /// harness-side estimates for data-dependent ones).
    pub static_lines: i128,
    /// All contributing footprints were provably dense and affine.
    pub lines_exact: bool,
    /// The simulator's counters for the same run.
    pub dynamic: MemStats,
    /// Static bytes-based arithmetic intensity (FLOPs/byte).
    pub bytes_ai: f64,
}

impl MemRow {
    /// Do static and dynamic load/store bytes agree exactly?
    pub fn bytes_exact(&self) -> bool {
        self.static_load_bytes == self.dynamic.load_bytes as i128
            && self.static_store_bytes == self.dynamic.store_bytes as i128
    }

    /// Relative error of the distinct-line prediction versus the
    /// simulated cold-cache data L1 fills, in percent. Zero simulated
    /// fills against a nonzero prediction is a total disagreement
    /// (`+∞`), not a perfect score.
    pub fn lines_error_pct(&self) -> f64 {
        let dynamic = self.dynamic.data_l1_fills as f64;
        if dynamic == 0.0 {
            return if self.static_lines == 0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        100.0 * (dynamic - self.static_lines as f64).abs() / dynamic
    }
}

/// Default VM options with the cache simulator on or off.
pub(crate) fn sim_options(analysis: &Analysis, on: bool) -> VmOptions {
    VmOptions {
        mem_profile: on.then(|| analysis.arch.cache_hierarchy()),
        ..VmOptions::default()
    }
}

/// The triad, scalar or SSE2-vectorized (`simd`).
pub(crate) fn triad_analysis(simd: bool) -> Analysis {
    let compiler = if simd {
        mira_vcc::Options::vectorized()
    } else {
        mira_vcc::Options::default()
    };
    let opts = MiraOptions {
        compiler,
        ..MiraOptions::default()
    };
    analyze_source(TRIAD_SRC, &opts).expect("triad analyzes")
}

/// Best-of-`rounds` wall-clock ratio of an instrumented run over an
/// uninstrumented one.
fn overhead_ratio(rounds: usize, mut run: impl FnMut(bool) -> Duration) -> f64 {
    let mut best = |profile: bool| {
        (0..rounds.max(1))
            .map(|_| run(profile))
            .min()
            .expect("at least one round")
    };
    let off = best(false);
    best(true).as_secs_f64() / off.as_secs_f64()
}

/// Wall-clock cost of turning the cache simulator on, measured on the
/// four STREAM kernels (best of `rounds` each way).
pub fn stream_sim_overhead(n: i64, reps: i64, rounds: usize) -> f64 {
    let stream = Stream::new();
    let shape = Shape::Stream { n, reps };
    overhead_ratio(rounds, |profile| {
        timed_call(&stream.analysis, shape, "stream_kernels", profile)
    })
}

/// Wall-clock cost of turning the cache simulator on, measured on the
/// DGEMM kernel (best of `rounds` each way).
pub fn dgemm_sim_overhead(n: i64, rounds: usize) -> f64 {
    let dgemm = Dgemm::new();
    let shape = Shape::Square { n, reps: 1 };
    overhead_ratio(rounds, |profile| {
        timed_call(&dgemm.analysis, shape, "dgemm", profile)
    })
}

/// Wall time of the measured call alone, on a freshly set-up VM.
fn timed_call(analysis: &Analysis, shape: Shape, func: &str, profile: bool) -> Duration {
    let mut run: Run<Vm> = shape.load(&analysis.object, sim_options(analysis, profile));
    let t0 = Instant::now();
    run.call(func);
    t0.elapsed()
}

/// Run `func` of `analysis` as `shape` with the cache simulator on, and
/// evaluate the static side at the run's bindings.
fn row(workload: &str, analysis: &Analysis, func: &str, shape: Shape) -> MemRow {
    let run: Run<Vm> = shape.run(&analysis.object, sim_options(analysis, true), func);
    let binds = run.bindings();
    let report = analysis.report(func, &binds).expect("model evaluates");
    let fp = mira_mem::footprints(analysis, func);
    let line_bytes = analysis.arch.cache_hierarchy().line_bytes;
    MemRow {
        workload: workload.to_string(),
        function: func.to_string(),
        static_load_bytes: report.load_bytes,
        static_store_bytes: report.store_bytes,
        static_flops: report.flops,
        static_lines: fp
            .total_lines_expr(line_bytes)
            .eval_count(&binds)
            .expect("footprint evaluates"),
        lines_exact: fp.is_exact(line_bytes),
        dynamic: run.vm.mem_stats().expect("profiling on"),
        bytes_ai: report.bytes_arithmetic_intensity(),
    }
}

/// STREAM triad, scalar or vectorized (`simd`).
pub fn triad_row(n: i64, reps: i64, simd: bool) -> MemRow {
    let workload = if simd { "triad_simd" } else { "triad" };
    let shape = Shape::Stream { n, reps };
    row(workload, &triad_analysis(simd), "triad", shape)
}

/// All four STREAM kernels (`stream_kernels` — no external calls).
pub fn stream_row(n: i64, reps: i64) -> MemRow {
    let stream = Stream::new();
    let shape = Shape::Stream { n, reps };
    row("stream", &stream.analysis, "stream_kernels", shape)
}

/// The DGEMM kernel (`dgemm`, ikj order — no external calls).
pub fn dgemm_row(n: i64, reps: i64) -> MemRow {
    let dgemm = Dgemm::new();
    row("dgemm", &dgemm.analysis, "dgemm", Shape::Square { n, reps })
}

/// miniFE `cg_solve` on a `d³` cube: assemble, reset to a cold cache,
/// solve; the static side is evaluated at the *measured* iteration count
/// (the paper's best-knowledge comparison). The two data-dependent CSR
/// arrays (`vals`, `cols`) and the gather target are covered by the
/// `lp_cumulative`/`idx_extent` annotation on the matvec inner loop, so
/// the distinct-line prediction comes entirely out of the model — no
/// harness-side estimates.
pub fn minife_row(d: i64, max_iter: i64, tol: f64) -> MemRow {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// STREAM triad: exact bytes and exact cold-cache line fills (3
    /// arrays of 1024 doubles stay L1-resident, so reps add no fills).
    #[test]
    fn triad_bytes_and_lines_exact() {
        let row = triad_row(1024, 2, false);
        assert!(row.bytes_exact(), "{row:?}");
        assert!(row.lines_exact);
        // 3 × 1024 × 8 / 64 = 384 lines
        assert_eq!(row.static_lines, 384);
        assert_eq!(row.dynamic.data_l1_fills, 384, "{row:?}");
        // triad moves ≥ 24 bytes and does 2 FLOPs per element per rep
        assert_eq!(row.static_flops, 2 * 1024 * 2);
        assert!(row.static_load_bytes >= 2 * 1024 * 2 * 8);
        assert!(row.static_store_bytes >= 1024 * 2 * 8);
    }

    /// The SSE2-vectorized triad: packed 16-byte accesses must be counted
    /// at full width on both sides.
    #[test]
    fn triad_simd_bytes_and_lines_exact() {
        let row = triad_row(1024, 2, true);
        assert!(row.bytes_exact(), "{row:?}");
        assert_eq!(row.static_lines, 384);
        assert_eq!(row.dynamic.data_l1_fills, 384, "{row:?}");
        assert_eq!(row.static_flops, 2 * 1024 * 2, "packed lanes both count");
    }

    /// All four STREAM kernels: exact bytes, exact cold fills.
    #[test]
    fn stream_kernels_bytes_and_lines_exact() {
        let row = stream_row(1024, 2);
        assert!(row.bytes_exact(), "{row:?}");
        assert!(row.lines_exact);
        assert_eq!(row.static_lines, 384);
        assert_eq!(row.dynamic.data_l1_fills, 384, "{row:?}");
    }

    /// DGEMM at an L1-resident size: exact bytes, exact cold fills.
    #[test]
    fn dgemm_bytes_and_lines_exact() {
        let row = dgemm_row(24, 1);
        assert!(row.bytes_exact(), "{row:?}");
        assert!(row.lines_exact);
        // 3 × 24² × 8 / 64 = 216 lines
        assert_eq!(row.static_lines, 216);
        assert_eq!(row.dynamic.data_l1_fills, 216, "{row:?}");
        // ikj DGEMM reads a, b and reads+writes c every inner iteration:
        // ≥ 32 bytes per 2 FLOPs → AI ≤ 1/16
        assert!(row.bytes_ai > 0.0 && row.bytes_ai <= 1.0 / 16.0, "{row:?}");
    }

    /// miniFE cg_solve: bytes exact (the 6³ cube makes the nnz-per-row
    /// fixed-point annotation exact, and libm bodies move no explicit
    /// bytes); distinct lines within the stated tolerance of the
    /// cold-cache fills (the CSR arrays come from the `lp_cumulative`
    /// annotation; the gather bound on `x` is an estimate, not coverage).
    #[test]
    fn minife_cg_bytes_exact_lines_close() {
        let row = minife_row(6, 500, 1e-8);
        assert!(
            row.bytes_exact(),
            "static {}+{} vs dynamic {}+{}",
            row.static_load_bytes,
            row.static_store_bytes,
            row.dynamic.load_bytes,
            row.dynamic.store_bytes
        );
        assert!(!row.lines_exact, "CSR arrays are data-dependent");
        assert!(
            row.lines_error_pct() < 2.0,
            "line error {}% ({} static vs {} fills)",
            row.lines_error_pct(),
            row.static_lines,
            row.dynamic.data_l1_fills
        );
        // sanity: the solve is load-dominated and FP-light per byte
        assert!(row.dynamic.load_bytes > row.dynamic.store_bytes);
        assert!(row.bytes_ai > 0.0 && row.bytes_ai < 0.5);
    }

    /// Streaming far beyond cache capacity: bytes stay exact, and every
    /// level misses hard (the roofline regime the subsystem exists for).
    #[test]
    fn stream_capacity_misses_beyond_l2() {
        let row = stream_row(20_000, 2); // 3 × 156 KiB ≫ L1, > L2
        assert!(row.bytes_exact(), "{row:?}");
        // later kernels and the second rep must refill: far more fills
        // than the 7500-line cold footprint
        assert!(row.dynamic.l1.misses > 2 * row.static_lines as u64, "{row:?}");
        assert!(row.dynamic.l2.misses > row.static_lines as u64);
    }
}
