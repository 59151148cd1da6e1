//! miniFE (Mantevo) in MiniC: assemble a 7-point Poisson system on an
//! `nx × ny × nz` grid into CSR, then solve it with unpreconditioned CG —
//! `waxpby`, `dot`, `matvec` and `cg_solve` exactly as the paper's Table V
//! instruments them.
//!
//! Static modeling needs two annotations, faithfully to §III-C4:
//! * the CSR inner loop's trip count is data-dependent (`row_ptr`), so it
//!   is annotated with a fixed-point per-row estimate (`nnz_row_milli`,
//!   scaled by 1/1000) that the user derives from the assembly formula;
//!   the same pragma carries `lp_cumulative` (the loop sweeps the CSR
//!   arrays as one cumulative prefix — `vals`/`cols` footprints become
//!   exact) and `idx_extent: n` (the gather `x[cols[k]]` is bounded by
//!   the vector length) for the `mira-mem` footprint analysis;
//! * the CG while-loop runs until convergence, so it is annotated with the
//!   user's iteration estimate (`cg_iters`) — the dominant source of
//!   static-vs-dynamic error, growing with problem size like the paper's.

use crate::run::{Engine, Run, Shape};
use crate::ValidationRow;
use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_sym::bindings;
use mira_vm::{HostVal, Vm, VmOptions};

pub const MINIFE_SRC: &str = r#"extern double sqrt(double);

void waxpby(int n, double alpha, double* x, double beta, double* y, double* w) {
    for (int i = 0; i < n; i++) {
        w[i] = alpha * x[i] + beta * y[i];
    }
}

double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * y[i];
    }
    return s;
}

void matvec(int n, int* row_ptr, int* cols, double* vals, double* x, double* y) {
    for (int i = 0; i < n; i++) {
        double s = 0.0;
#pragma @Annotation {lp_iters: nnz_row_milli, lp_scale: 0.001, lp_cumulative: yes, idx_extent: n}
        for (int k = row_ptr[i]; k < row_ptr[i + 1]; k++) {
            s += vals[k] * x[cols[k]];
        }
        y[i] = s;
    }
}

int assemble(int nx, int ny, int nz, int* row_ptr, int* cols, double* vals, double* b) {
    int nnz = 0;
    for (int iz = 0; iz < nz; iz++) {
        for (int iy = 0; iy < ny; iy++) {
            for (int ix = 0; ix < nx; ix++) {
                int row = iz * ny * nx + iy * nx + ix;
                row_ptr[row] = nnz;
                if (iz > 0) { cols[nnz] = row - ny * nx; vals[nnz] = -1.0; nnz++; }
                if (iy > 0) { cols[nnz] = row - nx; vals[nnz] = -1.0; nnz++; }
                if (ix > 0) { cols[nnz] = row - 1; vals[nnz] = -1.0; nnz++; }
                cols[nnz] = row;
                vals[nnz] = 6.0;
                nnz++;
                if (ix < nx - 1) { cols[nnz] = row + 1; vals[nnz] = -1.0; nnz++; }
                if (iy < ny - 1) { cols[nnz] = row + nx; vals[nnz] = -1.0; nnz++; }
                if (iz < nz - 1) { cols[nnz] = row + ny * nx; vals[nnz] = -1.0; nnz++; }
                b[row] = 1.0;
            }
        }
    }
    row_ptr[nx * ny * nz] = nnz;
    return nnz;
}

int cg_solve(int n, int* row_ptr, int* cols, double* vals, double* b, double* x,
             double* r, double* p, double* ap, int max_iter, double tol) {
    for (int i = 0; i < n; i++) {
        x[i] = 0.0;
        r[i] = b[i];
        p[i] = b[i];
    }
    double rtrans = dot(n, r, r);
    double normr = sqrt(rtrans);
    int k = 0;
#pragma @Annotation {lp_iters: cg_iters}
    while (k < max_iter && normr > tol) {
        matvec(n, row_ptr, cols, vals, p, ap);
        double alpha = rtrans / dot(n, p, ap);
        waxpby(n, 1.0, x, alpha, p, x);
        waxpby(n, 1.0, r, -alpha, ap, r);
        double old_rtrans = rtrans;
        rtrans = dot(n, r, r);
        double beta = rtrans / old_rtrans;
        waxpby(n, 1.0, r, beta, p, p);
        normr = sqrt(rtrans);
        k = k + 1;
    }
    return k;
}
"#;

/// CSR capacity (with slack) allocated for an `n`-row system, by
/// [`SolveBuffers::alloc`] and sized into [`solve_mem_size`].
pub fn nnz_capacity(n: usize) -> usize {
    7 * n + 16
}

/// VM memory size that comfortably fits an `n`-row solve.
pub fn solve_mem_size(n: usize) -> usize {
    ((nnz_capacity(n) * 2 + n * 8) * 8 + (64 << 20)).max(64 << 20)
}

/// The eight solver buffers and the `assemble`/`cg_solve` calling
/// contracts: [`Shape::MiniFe`] runs the solve through them.
pub struct SolveBuffers {
    pub row_ptr: u64,
    pub cols: u64,
    pub vals: u64,
    pub b: u64,
    pub x: u64,
    pub r: u64,
    pub p: u64,
    pub ap: u64,
}

impl SolveBuffers {
    /// Allocate the buffers in the canonical order on either VM engine.
    pub fn alloc<E: Engine>(vm: &mut E, n: usize) -> SolveBuffers {
        let cap = nnz_capacity(n);
        SolveBuffers {
            row_ptr: vm.alloc_i64(&vec![0; n + 1]),
            cols: vm.alloc_i64(&vec![0; cap]),
            vals: vm.alloc_zeroed_f64(cap),
            b: vm.alloc_zeroed_f64(n),
            x: vm.alloc_zeroed_f64(n),
            r: vm.alloc_zeroed_f64(n),
            p: vm.alloc_zeroed_f64(n),
            ap: vm.alloc_zeroed_f64(n),
        }
    }

    pub fn assemble_args(&self, nx: i64, ny: i64, nz: i64) -> Vec<HostVal> {
        vec![
            HostVal::Int(nx),
            HostVal::Int(ny),
            HostVal::Int(nz),
            HostVal::Int(self.row_ptr as i64),
            HostVal::Int(self.cols as i64),
            HostVal::Int(self.vals as i64),
            HostVal::Int(self.b as i64),
        ]
    }

    pub fn solve_args(&self, n: i64, max_iter: i64, tol: f64) -> Vec<HostVal> {
        vec![
            HostVal::Int(n),
            HostVal::Int(self.row_ptr as i64),
            HostVal::Int(self.cols as i64),
            HostVal::Int(self.vals as i64),
            HostVal::Int(self.b as i64),
            HostVal::Int(self.x as i64),
            HostVal::Int(self.r as i64),
            HostVal::Int(self.p as i64),
            HostVal::Int(self.ap as i64),
            HostVal::Int(max_iter),
            HostVal::Fp(tol),
        ]
    }
}

/// Outcome of one dynamic miniFE solve.
#[derive(Clone, Debug)]
pub struct MiniFeRun {
    /// Dynamic inclusive FPI per instrumented function.
    pub waxpby_fpi: i128,
    pub matvec_fpi: i128,
    pub cg_solve_fpi: i128,
    /// Iterations CG actually needed.
    pub iterations: i64,
    /// Total nonzeros of the assembled matrix.
    pub nnz: i64,
    /// Calls to waxpby / matvec observed.
    pub waxpby_calls: u64,
    pub matvec_calls: u64,
}

pub struct MiniFe {
    pub analysis: Analysis,
}

impl Default for MiniFe {
    fn default() -> Self {
        MiniFe::new()
    }
}

impl MiniFe {
    pub fn new() -> MiniFe {
        MiniFe::with_compiler(mira_vcc::Options::default())
    }

    /// With explicit compiler options (e.g. the spill-everything
    /// baseline).
    pub fn with_compiler(compiler: mira_vcc::Options) -> MiniFe {
        let opts = MiraOptions {
            compiler,
            ..MiraOptions::default()
        };
        let analysis = analyze_source(MINIFE_SRC, &opts).expect("miniFE analyzes");
        MiniFe { analysis }
    }

    /// Exact nonzero count of the 7-point matrix (the formula a user can
    /// derive from the assembly loop without running it).
    pub fn nnz_formula(nx: i64, ny: i64, nz: i64) -> i64 {
        7 * nx * ny * nz - 2 * (nx * ny + ny * nz + nz * nx)
    }

    /// Fixed-point (milli) per-row nonzero estimate for the `matvec`
    /// annotation parameter.
    pub fn nnz_row_milli(nx: i64, ny: i64, nz: i64) -> i64 {
        let n = nx * ny * nz;
        (Self::nnz_formula(nx, ny, nz) * 1000 + n / 2) / n
    }

    /// The user's a-priori CG iteration estimate: CG on a Poisson system
    /// needs O(max dimension) iterations, so the "user" calibrates two
    /// coarse runs at 60% and 80% of the target dimensions and linearly
    /// extrapolates. The residual nonlinearity of real convergence is the
    /// paper's "static analysis cannot capture dynamic behavior" error.
    pub fn estimate_iters(&self, nx: i64, ny: i64, nz: i64) -> i64 {
        let scale = |d: i64, f: i64| ((d * f) / 10).max(4);
        let (ax, ay, az) = (scale(nx, 6), scale(ny, 6), scale(nz, 6));
        let (bx, by, bz) = (scale(nx, 8), scale(ny, 8), scale(nz, 8));
        let i1 = self.run_dynamic(ax, ay, az, 2000, 1e-8).iterations;
        let i2 = self.run_dynamic(bx, by, bz, 2000, 1e-8).iterations;
        let d1 = ax.max(ay).max(az);
        let d2 = bx.max(by).max(bz);
        let d = nx.max(ny).max(nz);
        if d2 == d1 {
            return i2;
        }
        i2 + (i2 - i1) * (d - d2) / (d2 - d1)
    }

    /// Run the solve dynamically ([`Shape::MiniFe`]: the assembly runs
    /// first and is excluded from the counts, the way the paper scopes
    /// TAU to the solve).
    pub fn run_dynamic(&self, nx: i64, ny: i64, nz: i64, max_iter: i64, tol: f64) -> MiniFeRun {
        let shape = Shape::MiniFe {
            nx,
            ny,
            nz,
            max_iter,
            tol,
        };
        let run: Run<Vm> = shape.run(&self.analysis.object, VmOptions::default(), "cg_solve");
        let prof = run.vm.profile();
        let arch = &self.analysis.arch;
        MiniFeRun {
            waxpby_fpi: prof.fpi("waxpby", arch),
            matvec_fpi: prof.fpi("matvec", arch),
            cg_solve_fpi: prof.fpi("cg_solve", arch),
            iterations: run.vm.int_return(),
            // the runner checked the assembly against the formula
            nnz: Self::nnz_formula(nx, ny, nz),
            waxpby_calls: prof.function("waxpby").map(|f| f.calls).unwrap_or(0),
            matvec_calls: prof.function("matvec").map(|f| f.calls).unwrap_or(0),
        }
    }

    /// Static model evaluation with user-supplied parameter estimates.
    /// Returns `(waxpby per-call, matvec per-call, cg_solve total)` FPI.
    pub fn static_fpi(&self, nx: i64, ny: i64, nz: i64, cg_iters: i64) -> (i128, i128, i128) {
        let n = (nx * ny * nz) as i128;
        let binds = bindings(&[
            ("n", n),
            ("nnz_row_milli", Self::nnz_row_milli(nx, ny, nz) as i128),
            ("cg_iters", cg_iters as i128),
        ]);
        let arch = &self.analysis.arch;
        let waxpby = self.analysis.report("waxpby", &binds).unwrap().fpi(arch);
        let matvec = self.analysis.report("matvec", &binds).unwrap().fpi(arch);
        let cg = self.analysis.report("cg_solve", &binds).unwrap().fpi(arch);
        (waxpby, matvec, cg)
    }

    /// Table-V style rows for one grid: waxpby (per call), matvec (per
    /// call), cg_solve (whole solve).
    pub fn rows(&self, nx: i64, ny: i64, nz: i64, max_iter: i64, tol: f64) -> Vec<ValidationRow> {
        let dynamic = self.run_dynamic(nx, ny, nz, max_iter, tol);
        let est = self.estimate_iters(nx, ny, nz);
        let (w_static, m_static, cg_static) = self.static_fpi(nx, ny, nz, est);
        let label = format!("{nx}x{ny}x{nz}");
        vec![
            ValidationRow {
                label: label.clone(),
                function: "waxpby".to_string(),
                dynamic_fpi: dynamic.waxpby_fpi / dynamic.waxpby_calls.max(1) as i128,
                static_fpi: w_static,
            },
            ValidationRow {
                label: label.clone(),
                function: "matvec".to_string(),
                dynamic_fpi: dynamic.matvec_fpi / dynamic.matvec_calls.max(1) as i128,
                static_fpi: m_static,
            },
            ValidationRow {
                label,
                function: "cg_solve".to_string(),
                dynamic_fpi: dynamic.cg_solve_fpi,
                static_fpi: cg_static,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_converges_and_counts_match_shape() {
        let m = MiniFe::new();
        let run = m.run_dynamic(6, 6, 6, 500, 1e-8);
        assert!(run.iterations > 3 && run.iterations < 500, "{run:?}");
        assert_eq!(run.nnz, MiniFe::nnz_formula(6, 6, 6));
        // matvec dominates: 2 FPI per nonzero per call
        let per_call = run.matvec_fpi / run.matvec_calls as i128;
        assert_eq!(per_call, 2 * run.nnz as i128);
        // 3 waxpby calls per iteration
        assert_eq!(run.waxpby_calls as i64, 3 * run.iterations);
    }

    #[test]
    fn static_waxpby_exact() {
        let m = MiniFe::new();
        let run = m.run_dynamic(5, 5, 5, 500, 1e-8);
        let (w_static, _, _) = m.static_fpi(5, 5, 5, run.iterations);
        let w_dynamic = run.waxpby_fpi / run.waxpby_calls as i128;
        assert_eq!(w_static, w_dynamic); // 3n per call, exactly
    }

    #[test]
    fn static_cg_close_when_iters_known() {
        let m = MiniFe::new();
        let run = m.run_dynamic(6, 6, 6, 500, 1e-8);
        // with the *true* iteration count the only error left is the
        // nnz-per-row fixed-point estimate and the hidden sqrt bodies
        let (_, m_static, cg_static) = m.static_fpi(6, 6, 6, run.iterations);
        let m_dynamic = run.matvec_fpi / run.matvec_calls as i128;
        let merr = 100.0 * (m_dynamic - m_static).abs() as f64 / m_dynamic as f64;
        assert!(merr < 1.0, "matvec error {merr}%");
        let cerr = 100.0 * (run.cg_solve_fpi - cg_static).abs() as f64
            / run.cg_solve_fpi as f64;
        assert!(cerr < 2.0, "cg error {cerr}%");
    }

    #[test]
    fn solution_is_correct() {
        // verify CG actually solves A x = b: recompute residual in Rust
        let m = MiniFe::new();
        let (nx, ny, nz) = (5, 4, 3);
        let n = (nx * ny * nz) as usize;
        let mut vm = Vm::new(&m.analysis.object).unwrap();
        let bufs = SolveBuffers::alloc(&mut vm, n);
        vm.call("assemble", &bufs.assemble_args(nx, ny, nz))
            .unwrap();
        let nnz = vm.int_return() as usize;
        vm.call("cg_solve", &bufs.solve_args(n as i64, 500, 1e-10))
            .unwrap();
        let rp = vm.read_i64(bufs.row_ptr, n + 1);
        let cl = vm.read_i64(bufs.cols, nnz);
        let vl = vm.read_f64(bufs.vals, nnz);
        let xs = vm.read_f64(bufs.x, n);
        let bs = vm.read_f64(bufs.b, n);
        // residual ||Ax - b||_inf
        let mut worst: f64 = 0.0;
        for i in 0..n {
            let mut s = 0.0;
            for k in rp[i] as usize..rp[i + 1] as usize {
                s += vl[k] * xs[cl[k] as usize];
            }
            worst = worst.max((s - bs[i]).abs());
        }
        assert!(worst < 1e-6, "residual {worst}");
    }
}
