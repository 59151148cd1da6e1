//! DGEMM (HPCC) in MiniC: `C += A·B` in ikj order, repeated, plus a
//! checksum pass over the diagonal — `2·reps·n³` FPI, the cubic shape of
//! the paper's Table IV.

use crate::run::{Run, Shape};
use crate::ValidationRow;
use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_sym::bindings;
use mira_vm::{Vm, VmOptions};

pub const DGEMM_SRC: &str = r#"extern double sqrt(double);

void dgemm(int n, int reps, double* a, double* b, double* c) {
    for (int r = 0; r < reps; r++) {
        for (int i = 0; i < n; i++) {
            for (int k = 0; k < n; k++) {
                for (int j = 0; j < n; j++) {
                    c[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
    }
}

double dgemm_checksum(int n, double* c) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += c[i * n + i];
    }
    return sqrt(s * s);
}

double dgemm_bench(int n, int reps, double* a, double* b, double* c) {
    dgemm(n, reps, a, b, c);
    return dgemm_checksum(n, c);
}
"#;

pub struct Dgemm {
    pub analysis: Analysis,
}

impl Default for Dgemm {
    fn default() -> Self {
        Dgemm::new()
    }
}

impl Dgemm {
    pub fn new() -> Dgemm {
        Dgemm::with_compiler(mira_vcc::Options::default())
    }

    /// With explicit compiler options (e.g. the spill-everything
    /// baseline).
    pub fn with_compiler(compiler: mira_vcc::Options) -> Dgemm {
        let opts = MiraOptions {
            compiler,
            ..MiraOptions::default()
        };
        let analysis = analyze_source(DGEMM_SRC, &opts).expect("DGEMM analyzes");
        Dgemm { analysis }
    }

    pub fn static_fpi(&self, n: i64, reps: i64) -> i128 {
        let b = bindings(&[("n", n as i128), ("reps", reps as i128)]);
        self.analysis
            .report("dgemm_bench", &b)
            .expect("model evaluates")
            .fpi(&self.analysis.arch)
    }

    pub fn dynamic_fpi(&self, n: i64, reps: i64) -> i128 {
        let run: Run<Vm> = Shape::Square { n, reps }.run(
            &self.analysis.object,
            VmOptions::default(),
            "dgemm_bench",
        );
        run.vm.profile().fpi("dgemm_bench", &self.analysis.arch)
    }

    pub fn row(&self, n: i64, reps: i64) -> ValidationRow {
        ValidationRow {
            label: format!("{n}"),
            function: "dgemm_bench".to_string(),
            dynamic_fpi: self.dynamic_fpi(n, reps),
            static_fpi: self.static_fpi(n, reps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_vm::HostVal;

    #[test]
    fn dgemm_static_is_cubic() {
        let d = Dgemm::new();
        // kernel 2·reps·n³ + checksum (n adds + 1 mul)
        assert_eq!(d.static_fpi(16, 2), 2 * 2 * 16 * 16 * 16 + 16 + 1);
    }

    #[test]
    fn dgemm_error_tiny() {
        let d = Dgemm::new();
        let row = d.row(24, 1);
        assert!(row.dynamic_fpi >= row.static_fpi);
        assert!(row.error_pct() < 0.1, "error {}%", row.error_pct());
    }

    #[test]
    fn dgemm_computes_correct_product() {
        let d = Dgemm::new();
        let n = 8i64;
        let mut vm = Vm::new(&d.analysis.object).unwrap();
        let nn = (n * n) as usize;
        let a = vm.alloc_f64(&vec![1.0; nn]);
        let b = vm.alloc_f64(&vec![2.0; nn]);
        let c = vm.alloc_f64(&vec![0.0; nn]);
        vm.call(
            "dgemm",
            &[
                HostVal::Int(n),
                HostVal::Int(1),
                HostVal::Int(a as i64),
                HostVal::Int(b as i64),
                HostVal::Int(c as i64),
            ],
        )
        .unwrap();
        let out = vm.read_f64(c, nn);
        // all-ones × all-twos: every element = 2n
        for v in out {
            assert!((v - (2 * n) as f64).abs() < 1e-9);
        }
    }
}
