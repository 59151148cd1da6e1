//! STREAM (McCalpin) in MiniC: copy / scale / add / triad kernels, repeated
//! `reps` times, plus the validation pass real STREAM performs at the end.
//! FPI per repetition is `4·n` (scale 1, add 1, triad 2 per element) — the
//! scalar shape behind the paper's Table III counts.

use crate::run::{Run, Shape};
use crate::ValidationRow;
use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_sym::bindings;
use mira_vm::{Vm, VmOptions};

/// STREAM in MiniC. The final validation calls the external `sqrt` — code
/// the dynamic measurement sees but static analysis cannot (paper §IV-D1).
pub const STREAM_SRC: &str = r#"extern double sqrt(double);
extern double fabs(double);

void stream_kernels(int n, int reps, double* a, double* b, double* c, double scalar) {
    for (int r = 0; r < reps; r++) {
        for (int i = 0; i < n; i++) {
            c[i] = a[i];
        }
        for (int i = 0; i < n; i++) {
            b[i] = scalar * c[i];
        }
        for (int i = 0; i < n; i++) {
            c[i] = a[i] + b[i];
        }
        for (int i = 0; i < n; i++) {
            a[i] = b[i] + scalar * c[i];
        }
    }
}

double stream_validate(int n, double* a, double* b, double* c, double expa, double expb, double expc) {
    double erra = 0.0;
    double errb = 0.0;
    double errc = 0.0;
    for (int i = 0; i < n; i++) {
        erra = erra + fabs(a[i] - expa);
    }
    for (int i = 0; i < n; i++) {
        errb = errb + fabs(b[i] - expb);
    }
    for (int i = 0; i < n; i++) {
        errc = errc + fabs(c[i] - expc);
    }
    return sqrt(erra * erra + errb * errb + errc * errc);
}

double stream_bench(int n, int reps, double* a, double* b, double* c, double scalar) {
    stream_kernels(n, reps, a, b, c, scalar);
    return stream_validate(n, a, b, c, 1.0, 1.0, 1.0);
}
"#;

/// The STREAM harness: one analysis, many problem sizes.
pub struct Stream {
    pub analysis: Analysis,
}

impl Default for Stream {
    fn default() -> Self {
        Stream::new()
    }
}

impl Stream {
    pub fn new() -> Stream {
        let analysis =
            analyze_source(STREAM_SRC, &MiraOptions::default()).expect("STREAM analyzes");
        Stream { analysis }
    }

    /// With vectorization enabled (for the PBound comparison).
    pub fn vectorized() -> Stream {
        Stream::with_compiler(mira_vcc::Options::vectorized())
    }

    /// With explicit compiler options (e.g.
    /// `mira_vcc::Options::spill_everything()` for the no-regalloc
    /// baseline `bench_vm` compares step counts against).
    pub fn with_compiler(compiler: mira_vcc::Options) -> Stream {
        let opts = MiraOptions {
            compiler,
            ..MiraOptions::default()
        };
        let analysis = analyze_source(STREAM_SRC, &opts).expect("STREAM analyzes");
        Stream { analysis }
    }

    /// Static (model) FPI for `stream_bench` at the given size.
    pub fn static_fpi(&self, n: i64, reps: i64) -> i128 {
        let b = bindings(&[("n", n as i128), ("reps", reps as i128)]);
        self.analysis
            .report("stream_bench", &b)
            .expect("model evaluates")
            .fpi(&self.analysis.arch)
    }

    /// Dynamic (instrumented execution) FPI for `stream_bench`.
    pub fn dynamic_fpi(&self, n: i64, reps: i64) -> i128 {
        let run: Run<Vm> = Shape::Stream { n, reps }.run(
            &self.analysis.object,
            VmOptions::default(),
            "stream_bench",
        );
        run.vm.profile().fpi("stream_bench", &self.analysis.arch)
    }

    /// A Table-III style validation row.
    pub fn row(&self, n: i64, reps: i64) -> ValidationRow {
        ValidationRow {
            label: format!("{n}"),
            function: "stream_bench".to_string(),
            dynamic_fpi: self.dynamic_fpi(n, reps),
            static_fpi: self.static_fpi(n, reps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_static_matches_kernel_formula() {
        let s = Stream::new();
        // kernels: 4n FPI per rep; validation: per element one subtract and
        // one accumulate (fabs is an andpd-based library call: 0 FPI) over
        // three arrays → 6n, plus 5 FPI in the final expression (3 muls +
        // 2 adds); sqrt is external (not in the static count).
        let n = 1000i64;
        let reps = 10i64;
        let static_fpi = s.static_fpi(n, reps);
        assert_eq!(static_fpi as i64, 4 * n * reps + 6 * n + 5);
    }

    #[test]
    fn stream_error_below_paper_threshold() {
        let s = Stream::new();
        let row = s.row(2000, 3);
        // dynamic exceeds static only by the hidden libm work
        assert!(row.dynamic_fpi >= row.static_fpi);
        assert!(row.error_pct() < 0.5, "error {}%", row.error_pct());
    }
}
