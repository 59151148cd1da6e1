//! End-to-end framework tests. The crown-jewel property: for programs in
//! the affine subset, the statically generated model reproduces the
//! dynamically measured per-category instruction counts **exactly** —
//! static analysis of the binary equals instrumented execution of the same
//! binary.

use crate::{analyze_source, MiraOptions};
use mira_arch::{ArchDescription, Category};
use mira_sym::{bindings, Bindings};
use mira_vm::{HostVal, Vm};

/// Analyze + execute the same source; assert the model's inclusive counts
/// for `func` match the VM's inclusive profile exactly, category by
/// category.
fn assert_exact(src: &str, func: &str, args: &[HostVal], binds: &Bindings) {
    let opts = MiraOptions::default();
    let analysis = analyze_source(src, &opts).unwrap();
    assert!(
        analysis.warnings.is_empty(),
        "unexpected warnings: {:?}",
        analysis.warnings
    );
    let report = analysis.report(func, binds).unwrap();

    let mut vm = Vm::new(&analysis.object).unwrap();
    vm.call(func, args).unwrap();
    let prof = vm.profile();
    let dynamic = &prof.function(func).unwrap().inclusive;

    for cat in Category::ALL {
        assert_eq!(
            report.counts.get(cat),
            dynamic.get(cat),
            "category {cat} mismatch for {func} (static {} vs dynamic {})",
            report.counts.get(cat),
            dynamic.get(cat)
        );
    }
}

#[test]
fn line_bytes_roll_up_per_line() {
    let src = "double dot(int n, double* x, double* y) {\n\
               double s = 0.0;\n\
               for (int i = 0; i < n; i++) {\n\
               s += x[i] * y[i];\n\
               }\n\
               return s;\n}";
    let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
    let report = analysis.report("dot", &bindings(&[("n", 1000)])).unwrap();
    // the kernel line (4) dominates: it loads x[i] and y[i] every
    // iteration — at least 16 bytes per element
    let (line, (load, _)) = report
        .line_bytes
        .iter()
        .max_by_key(|(_, (l, s))| l + s)
        .unwrap();
    assert_eq!(*line, 4);
    assert!(*load >= 16_000, "{:?}", report.line_bytes);
    // and the per-line rollup sums to the whole-function total
    let sum: i128 = report.line_bytes.values().map(|(l, s)| l + s).sum();
    assert_eq!(sum, report.total_bytes());
    assert_eq!(report.flops, 2000);
}

#[test]
fn exact_straightline_function() {
    let src = "double f(double a, double b) {\n    double c = a * b;\n    double d = c + a;\n    return d;\n}";
    assert_exact(src, "f", &[HostVal::Fp(1.0), HostVal::Fp(2.0)], &bindings(&[]));
}

#[test]
fn exact_simple_loop_parametric() {
    let src = r#"
double sum(int n, double* a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
    return s;
}
"#;
    for n in [0i64, 1, 7, 100] {
        let opts = MiraOptions::default();
        let analysis = analyze_source(src, &opts).unwrap();
        let mut vm = Vm::new(&analysis.object).unwrap();
        let a = vm.alloc_f64(&vec![1.0; (n as usize).max(1)]);
        vm.call("sum", &[HostVal::Int(n), HostVal::Int(a as i64)])
            .unwrap();
        let report = analysis.report("sum", &bindings(&[("n", n as i128)])).unwrap();
        let prof = vm.profile();
        let dynamic = &prof.function("sum").unwrap().inclusive;
        for cat in Category::ALL {
            assert_eq!(
                report.counts.get(cat),
                dynamic.get(cat),
                "n={n} category {cat}"
            );
        }
    }
}

#[test]
fn exact_nested_triangular_loop() {
    let src = r#"
int tri(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        for (int j = i; j < n; j++) {
            acc = acc + 1;
        }
    }
    return acc;
}
"#;
    let opts = MiraOptions::default();
    let analysis = analyze_source(src, &opts).unwrap();
    for n in [0i64, 1, 2, 5, 9] {
        let mut vm = Vm::new(&analysis.object).unwrap();
        vm.call("tri", &[HostVal::Int(n)]).unwrap();
        assert_eq!(vm.int_return(), n * (n + 1) / 2);
        let report = analysis.report("tri", &bindings(&[("n", n as i128)])).unwrap();
        let prof = vm.profile();
        let dynamic = &prof.function("tri").unwrap().inclusive;
        for cat in Category::ALL {
            assert_eq!(report.counts.get(cat), dynamic.get(cat), "n={n} cat {cat}");
        }
    }
}

#[test]
fn exact_listing2_dependent_bounds() {
    // the paper's Listing 2 shape: inner bound depends on outer index
    let src = r#"
int count() {
    int acc = 0;
    for (int i = 1; i <= 4; i++) {
        for (int j = i + 1; j <= 6; j++) {
            acc = acc + 1;
        }
    }
    return acc;
}
"#;
    let opts = MiraOptions::default();
    let analysis = analyze_source(src, &opts).unwrap();
    let mut vm = Vm::new(&analysis.object).unwrap();
    vm.call("count", &[]).unwrap();
    assert_eq!(vm.int_return(), 14); // Fig. 4(a)
    let report = analysis.report("count", &bindings(&[])).unwrap();
    let prof = vm.profile();
        let dynamic = &prof.function("count").unwrap().inclusive;
    for cat in Category::ALL {
        assert_eq!(report.counts.get(cat), dynamic.get(cat), "cat {cat}");
    }
}

/// Analyze `src` under the default, vectorized and spill-everything
/// compilers and run `count` on each of `calls` (arguments, the model's
/// bindings for them, the expected return value): every call returns its
/// value, and the model's counts equal the VM's in every category.
fn assert_listing_exact(src: &str, calls: &[(Vec<HostVal>, Bindings, i64)]) {
    for compiler in [
        mira_vcc::Options::default(),
        mira_vcc::Options::vectorized(),
        mira_vcc::Options::spill_everything(),
    ] {
        let opts = MiraOptions {
            compiler,
            ..MiraOptions::default()
        };
        let analysis = analyze_source(src, &opts).unwrap();
        assert!(analysis.warnings.is_empty(), "{:?}", analysis.warnings);
        for (args, binds, result) in calls {
            let mut vm = Vm::new(&analysis.object).unwrap();
            vm.call("count", args).unwrap();
            assert_eq!(vm.int_return(), *result, "{args:?}");
            let report = analysis.report("count", binds).unwrap();
            let prof = vm.profile();
            let dynamic = &prof.function("count").unwrap().inclusive;
            for cat in Category::ALL {
                assert_eq!(
                    report.counts.get(cat),
                    dynamic.get(cat),
                    "category {cat} under {compiler:?} at {args:?}"
                );
            }
        }
    }
}

#[test]
fn exact_branch_constraint_listing4() {
    // if (j > 4) inside the Listing-2 nest — Fig. 4(b)
    let src = r#"
int count() {
    int acc = 0;
    for (int i = 1; i <= 4; i++) {
        for (int j = i + 1; j <= 6; j++) {
            if (j > 4) {
                acc = acc + 1;
            }
        }
    }
    return acc;
}
"#;
    assert_listing_exact(src, &[(vec![], bindings(&[]), 8)]);
}

#[test]
fn modulo_branch_complement_listing5() {
    let src = r#"
int count() {
    int acc = 0;
    for (int i = 1; i <= 4; i++) {
        for (int j = i + 1; j <= 6; j++) {
            if (j % 4 != 0) {
                acc = acc + 1;
            }
        }
    }
    return acc;
}
"#;
    // 14 - 3 holes (Fig. 4(c))
    assert_listing_exact(src, &[(vec![], bindings(&[]), 11)]);
}

/// An if/else in a loop: the then-block ends in a jump over the else
/// that carries the `if` line but runs on the then path only, so it is
/// charged at the then-context. Charged with the rest of the `if` line,
/// at the loop, it overcounted `int_control_transfer` by the else
/// path's executions (7 against the VM's 6 at n = 1).
#[test]
fn if_else_jump_is_charged_on_the_then_path() {
    let src = r#"
int count(int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        if (i > 3) {
            acc = acc + 2;
        } else {
            acc = acc - 1;
        }
    }
    return acc;
}
"#;
    let calls: Vec<_> = [1i64, 2, 5, 8, 13]
        .into_iter()
        .map(|n| {
            let then_runs = (n - 4).max(0);
            let result = 2 * then_runs - (n - then_runs);
            (vec![HostVal::Int(n)], bindings(&[("n", n as i128)]), result)
        })
        .collect();
    assert_listing_exact(src, &calls);
}

#[test]
fn strided_loop_exact() {
    let src = r#"
int strided(int n) {
    int acc = 0;
    for (int i = 0; i < n; i += 4) {
        acc = acc + 1;
    }
    return acc;
}
"#;
    let opts = MiraOptions::default();
    let analysis = analyze_source(src, &opts).unwrap();
    for n in [0i64, 1, 4, 7, 8, 33] {
        let mut vm = Vm::new(&analysis.object).unwrap();
        vm.call("strided", &[HostVal::Int(n)]).unwrap();
        let report = analysis
            .report("strided", &bindings(&[("n", n as i128)]))
            .unwrap();
        let prof = vm.profile();
        let dynamic = &prof.function("strided").unwrap().inclusive;
        for cat in Category::ALL {
            assert_eq!(report.counts.get(cat), dynamic.get(cat), "n={n} cat {cat}");
        }
    }
}

#[test]
fn exact_call_composition() {
    let src = r#"
double inner(double x) {
    return x * x;
}
double outer(int n, double x) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += inner(x);
    }
    return s;
}
"#;
    assert_exact(
        src,
        "outer",
        &[HostVal::Int(25), HostVal::Fp(1.5)],
        &bindings(&[("n", 25)]),
    );
}

#[test]
fn annotated_while_loop() {
    let src = r#"
double iterate(int n, double x) {
    double s = 0.0;
    int k = 0;
#pragma @Annotation {lp_iters: kmax}
    while (s < x) {
        s = s + 1.0;
        k = k + 1;
    }
    return s;
}
"#;
    let opts = MiraOptions::default();
    let analysis = analyze_source(src, &opts).unwrap();
    assert!(analysis.warnings.is_empty(), "{:?}", analysis.warnings);
    // run dynamically with x = 10 → 10 iterations; bind kmax = 10
    let mut vm = Vm::new(&analysis.object).unwrap();
    vm.call("iterate", &[HostVal::Int(0), HostVal::Fp(10.0)])
        .unwrap();
    let report = analysis
        .report("iterate", &bindings(&[("kmax", 10)]))
        .unwrap();
    let prof = vm.profile();
        let dynamic = &prof.function("iterate").unwrap().inclusive;
    for cat in Category::ALL {
        assert_eq!(report.counts.get(cat), dynamic.get(cat), "cat {cat}");
    }
}

#[test]
fn skip_annotation_excludes_subtree() {
    let src = r#"
double f(int n, double* a) {
    double s = 0.0;
#pragma @Annotation {skip: yes}
    for (int i = 0; i < n; i++) {
        s += a[i];
    }
    return s;
}
"#;
    let opts = MiraOptions::default();
    let analysis = analyze_source(src, &opts).unwrap();
    let report = analysis.report("f", &bindings(&[("n", 1000)])).unwrap();
    // the skipped loop contributes nothing
    assert_eq!(report.fpi(&analysis.arch), 0);
}

#[test]
fn branch_frac_annotation() {
    let src = r#"
double f(int n, double* a, double t) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
#pragma @Annotation {branch_frac: 0.25}
        if (a[i] > t) {
            s += a[i];
        }
    }
    return s;
}
"#;
    let opts = MiraOptions::default();
    let analysis = analyze_source(src, &opts).unwrap();
    let report = analysis.report("f", &bindings(&[("n", 1000)])).unwrap();
    // addsd executes 0.25 * n times; the load of a[i] in the condition
    // runs n times (movsd loads: cond a[i] load ×n + body a[i] load ×250)
    assert_eq!(report.fpi(&analysis.arch), 250);
}

#[test]
fn external_library_calls_not_counted() {
    let src = r#"
extern double sqrt(double);
double norm(int n, double* a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += a[i] * a[i];
    }
    return sqrt(s);
}
"#;
    let opts = MiraOptions::default();
    let analysis = analyze_source(src, &opts).unwrap();
    // warning about sqrt being external
    assert!(analysis.warnings.iter().any(|w| w.contains("sqrt")));
    let n = 100i64;
    let report = analysis.report("norm", &bindings(&[("n", n as i128)])).unwrap();
    let mut vm = Vm::new(&analysis.object).unwrap();
    let a = vm.alloc_f64(&vec![2.0; n as usize]);
    vm.call("norm", &[HostVal::Int(n), HostVal::Int(a as i64)])
        .unwrap();
    let prof = vm.profile();
        let dynamic = &prof.function("norm").unwrap().inclusive;
    let arch = ArchDescription::default();
    let static_fpi = report.fpi(&arch);
    let dyn_fpi = dynamic.metric(arch.fpi());
    // static misses exactly the library sqrt's FP work — the paper's
    // documented discrepancy: dynamic > static, difference small
    assert_eq!(static_fpi, 2 * n as i128);
    assert!(dyn_fpi > static_fpi);
    assert!(dyn_fpi - static_fpi < 20, "sqrt footprint too large");
}

#[test]
fn vectorized_loop_modeled_exactly() {
    let src = r#"
void triad(int n, double* a, double* b, double* c, double s) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + s * c[i];
    }
}
"#;
    let opts = MiraOptions {
        compiler: mira_vcc::Options::vectorized(),
        ..MiraOptions::default()
    };
    let analysis = analyze_source(src, &opts).unwrap();
    for n in [0i64, 1, 2, 7, 64, 65] {
        let mut vm = Vm::new(&analysis.object).unwrap();
        let b = vm.alloc_f64(&vec![1.0; (n as usize).max(1)]);
        let c = vm.alloc_f64(&vec![2.0; (n as usize).max(1)]);
        let a = vm.alloc_zeroed_f64((n as usize).max(1));
        vm.call(
            "triad",
            &[
                HostVal::Int(n),
                HostVal::Int(a as i64),
                HostVal::Int(b as i64),
                HostVal::Int(c as i64),
                HostVal::Fp(3.0),
            ],
        )
        .unwrap();
        let report = analysis
            .report("triad", &bindings(&[("n", n as i128)]))
            .unwrap();
        let prof = vm.profile();
        let dynamic = &prof.function("triad").unwrap().inclusive;
        for cat in Category::ALL {
            assert_eq!(report.counts.get(cat), dynamic.get(cat), "n={n} cat {cat}");
        }
    }
}

#[test]
fn python_model_emission() {
    let src = r#"
double axpy(int n, double alpha, double* x, double* y) {
    for (int i = 0; i < n; i++) {
        y[i] = alpha * x[i] + y[i];
    }
    return y[0];
}
"#;
    let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
    let py = analysis.python_model();
    assert!(py.contains("def axpy_4(n):"), "{py}");
    assert!(py.contains("handle_function_call"), "{py}");
    assert!(analysis.parameters().contains(&"n".to_string()));
}

#[test]
fn fpi_closed_form() {
    let src = r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * y[i];
    }
    return s;
}
"#;
    let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
    let arch = ArchDescription::default();
    let e = analysis.model.fpi_expr("dot", &arch).unwrap();
    for n in [1i128, 10, 1_000_000] {
        assert_eq!(e.eval_count(&bindings(&[("n", n)])).unwrap(), 2 * n);
    }
}

#[test]
fn warnings_for_nonaffine_branch() {
    let src = r#"
double f(int n, double* a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        if (a[i] > 0.5) {
            s += a[i];
        }
    }
    return s;
}
"#;
    let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
    assert!(!analysis.warnings.is_empty());
    // model still evaluates (both branches at full count)
    let r = analysis.report("f", &bindings(&[("n", 10)])).unwrap();
    assert!(r.total() > 0);
}
