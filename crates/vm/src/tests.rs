//! Execution tests: compile real MiniC with `mira-vcc` and verify both
//! *results* (the interpreter computes correct values) and *counts* (the
//! instrumentation sees what it should).

use super::*;
use mira_arch::ArchDescription;
use mira_vcc::{compile_source, Options};

fn run_fp(src: &str, func: &str, args: &[HostVal]) -> f64 {
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    vm.call(func, args).unwrap();
    vm.fp_return()
}

fn run_int(src: &str, func: &str, args: &[HostVal]) -> i64 {
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    vm.call(func, args).unwrap();
    vm.int_return()
}

#[test]
fn arithmetic_and_control_flow() {
    let src = r#"
int collatz_steps(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps++;
    }
    return steps;
}
"#;
    assert_eq!(run_int(src, "collatz_steps", &[HostVal::Int(6)]), 8);
    assert_eq!(run_int(src, "collatz_steps", &[HostVal::Int(27)]), 111);
}

#[test]
fn fp_arithmetic() {
    let src = r#"
double horner(double x) {
    return ((2.0 * x + 3.0) * x - 1.0) * x + 0.5;
}
"#;
    let got = run_fp(src, "horner", &[HostVal::Fp(1.5)]);
    let x: f64 = 1.5;
    assert!((got - (((2.0 * x + 3.0) * x - 1.0) * x + 0.5)).abs() < 1e-12);
}

#[test]
fn dot_product_with_host_arrays() {
    let src = r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += x[i] * y[i]; }
    return s;
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
    let y: Vec<f64> = (0..100).map(|i| (i as f64) * 0.5).collect();
    let expected: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    let ax = vm.alloc_f64(&x);
    let ay = vm.alloc_f64(&y);
    vm.call(
        "dot",
        &[
            HostVal::Int(100),
            HostVal::Int(ax as i64),
            HostVal::Int(ay as i64),
        ],
    )
    .unwrap();
    assert!((vm.fp_return() - expected).abs() < 1e-9);
}

#[test]
fn recursion() {
    let src = r#"
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
"#;
    assert_eq!(run_int(src, "fib", &[HostVal::Int(15)]), 610);
}

#[test]
fn libm_sqrt_executes() {
    let src = r#"
extern double sqrt(double);
double hyp(double a, double b) { return sqrt(a * a + b * b); }
"#;
    let got = run_fp(src, "hyp", &[HostVal::Fp(3.0), HostVal::Fp(4.0)]);
    assert!((got - 5.0).abs() < 1e-9, "{got}");
}

#[test]
fn libm_fabs_fmin_fmax() {
    let src = r#"
extern double fabs(double);
extern double fmin(double, double);
extern double fmax(double, double);
double f(double a, double b) { return fmax(fabs(a), fmin(b, 2.0)); }
"#;
    let got = run_fp(src, "f", &[HostVal::Fp(-7.0), HostVal::Fp(9.0)]);
    assert!((got - 7.0).abs() < 1e-12);
}

#[test]
fn unresolved_extern_traps() {
    let src = "extern double mystery(double);\ndouble f(double x) { return mystery(x); }";
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    let err = vm.call("f", &[HostVal::Fp(1.0)]).unwrap_err();
    assert_eq!(err, VmError::UnresolvedExtern("mystery".to_string()));
}

#[test]
fn div_by_zero_traps() {
    let src = "int f(int a, int b) { return a / b; }";
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    let err = vm
        .call("f", &[HostVal::Int(1), HostVal::Int(0)])
        .unwrap_err();
    assert_eq!(err, VmError::DivByZero);
}

#[test]
fn step_limit_enforced() {
    let src = "void spin() { while (1) { ; } }";
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::load(
        &obj,
        VmOptions {
            max_steps: 10_000,
            ..VmOptions::default()
        },
    )
    .unwrap();
    assert_eq!(vm.call("spin", &[]).unwrap_err(), VmError::StepLimit);
}

#[test]
fn memory_fault_detected() {
    let src = "double f(double* a) { return a[0]; }";
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    let err = vm.call("f", &[HostVal::Int(i64::MAX - 100)]).unwrap_err();
    assert!(matches!(err, VmError::Fault { .. }));
}

#[test]
fn fpi_counts_exact_for_simple_loop() {
    // s += x[i] * y[i] executes exactly 2 FP arithmetic instructions per
    // iteration (mulsd + addsd)
    let src = r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += x[i] * y[i]; }
    return s;
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    let n = 1000usize;
    let x = vm.alloc_f64(&vec![1.0; n]);
    let y = vm.alloc_f64(&vec![2.0; n]);
    vm.call(
        "dot",
        &[
            HostVal::Int(n as i64),
            HostVal::Int(x as i64),
            HostVal::Int(y as i64),
        ],
    )
    .unwrap();
    let arch = ArchDescription::default();
    let prof = vm.profile();
    assert_eq!(prof.fpi("dot", &arch), 2 * n as i128);
}

#[test]
fn inclusive_vs_exclusive_attribution() {
    let src = r#"
double inner(double x) { return x * x; }
double outer(int n, double x) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += inner(x); }
    return s;
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    vm.call("outer", &[HostVal::Int(10), HostVal::Fp(2.0)])
        .unwrap();
    assert!((vm.fp_return() - 40.0).abs() < 1e-12);
    let arch = ArchDescription::default();
    let prof = vm.profile();
    let inner = prof.function("inner").unwrap();
    let outer = prof.function("outer").unwrap();
    assert_eq!(inner.calls, 10);
    // inner does 1 mulsd per call (10 total); outer adds 1 addsd per iter
    assert_eq!(inner.inclusive.metric(arch.fpi()), 10);
    // outer's inclusive FPI covers inner's work plus its own adds
    assert_eq!(outer.inclusive.metric(arch.fpi()), 20);
    // outer's exclusive FPI excludes inner's multiplications
    assert_eq!(outer.exclusive.metric(arch.fpi()), 10);
}

#[test]
fn per_line_counts_recorded() {
    let src = "double f(double a, double b) {\n    double c = a * b;\n    double d = c + a;\n    return d;\n}";
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    vm.call("f", &[HostVal::Fp(2.0), HostVal::Fp(3.0)]).unwrap();
    let prof = vm.profile();
    let line2 = prof.lines.get(&("f".to_string(), 2)).unwrap();
    assert_eq!(line2.get(mira_arch::Category::Sse2PackedArith), 1); // the mulsd
    let line3 = prof.lines.get(&("f".to_string(), 3)).unwrap();
    assert_eq!(line3.get(mira_arch::Category::Sse2PackedArith), 1); // the addsd
}

#[test]
fn vectorized_triad_matches_scalar_results() {
    let src = r#"
void triad(int n, double* a, double* b, double* c, double s) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + s * c[i];
    }
}
"#;
    for n in [0usize, 1, 2, 3, 7, 64, 65] {
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let c: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.25).collect();
        let s = 3.0;
        let expected: Vec<f64> = b.iter().zip(&c).map(|(bv, cv)| bv + s * cv).collect();

        for opts in [Options::default(), Options::vectorized()] {
            let obj = compile_source(src, &opts).unwrap();
            let mut vm = Vm::new(&obj).unwrap();
            let ab = vm.alloc_f64(&b);
            let ac = vm.alloc_f64(&c);
            let aa = vm.alloc_zeroed_f64(n.max(1));
            vm.call(
                "triad",
                &[
                    HostVal::Int(n as i64),
                    HostVal::Int(aa as i64),
                    HostVal::Int(ab as i64),
                    HostVal::Int(ac as i64),
                    HostVal::Fp(s),
                ],
            )
            .unwrap();
            let got = vm.read_f64(aa, n);
            for (g, e) in got.iter().zip(&expected) {
                assert!((g - e).abs() < 1e-12, "n={n} vect={}", opts.vectorize);
            }
        }
    }
}

#[test]
fn vectorization_halves_fp_arith_instructions() {
    let src = r#"
void scale(int n, double* a, double* b, double s) {
    for (int i = 0; i < n; i++) { a[i] = s * b[i]; }
}
"#;
    let arch = ArchDescription::default();
    let mut fpis = Vec::new();
    for opts in [Options::default(), Options::vectorized()] {
        let obj = compile_source(src, &opts).unwrap();
        let mut vm = Vm::new(&obj).unwrap();
        let n = 1000usize;
        let b = vm.alloc_f64(&vec![1.0; n]);
        let a = vm.alloc_zeroed_f64(n);
        vm.call(
            "scale",
            &[
                HostVal::Int(n as i64),
                HostVal::Int(a as i64),
                HostVal::Int(b as i64),
                HostVal::Fp(2.0),
            ],
        )
        .unwrap();
        fpis.push(vm.profile().fpi("scale", &arch));
    }
    assert_eq!(fpis[0], 1000); // scalar: one mulsd per element
    assert_eq!(fpis[1], 500); // packed: one mulpd per two elements
}

#[test]
fn counters_reset() {
    let src = "double f(double a) { return a + 1.0; }";
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    vm.call("f", &[HostVal::Fp(0.0)]).unwrap();
    assert!(vm.steps() > 0);
    vm.reset_counters();
    assert_eq!(vm.steps(), 0);
    let arch = ArchDescription::default();
    assert_eq!(vm.profile().fpi("f", &arch), 0);
}

fn small_heap_vm() -> Vm {
    let obj = compile_source("void f() { }", &Options::default()).unwrap();
    let options = VmOptions {
        mem_size: 4 << 20,
        ..VmOptions::default()
    };
    let mut vm = Vm::load(&obj, options).unwrap();
    vm.alloc_zeroed_f64(1024);
    vm
}

#[test]
#[should_panic(expected = "VM heap exhausted")]
fn allocation_past_the_address_space_is_refused() {
    // bytes fit a usize, but the end address wraps past u64::MAX
    small_heap_vm().alloc_zeroed_f64(usize::MAX / 8);
}

#[test]
#[should_panic(expected = "VM heap exhausted")]
fn allocation_whose_byte_count_wraps_is_refused() {
    // n * 8 wraps to 8 bytes
    small_heap_vm().alloc_zeroed_f64((1 << 61) + 1);
}

#[test]
fn no_such_function() {
    let obj = compile_source("void f() { }", &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    assert_eq!(
        vm.call("g", &[]).unwrap_err(),
        VmError::NoSuchFunction("g".to_string())
    );
}

#[test]
fn local_arrays_work() {
    let src = r#"
double sum3() {
    double t[3];
    t[0] = 1.5; t[1] = 2.5; t[2] = 3.0;
    double s = 0.0;
    for (int i = 0; i < 3; i++) { s += t[i]; }
    return s;
}
"#;
    assert!((run_fp(src, "sum3", &[]) - 7.0).abs() < 1e-12);
}

#[test]
fn casts_roundtrip() {
    let src = "int f(double d) { return (int)(d * 2.0); }";
    assert_eq!(run_int(src, "f", &[HostVal::Fp(3.25)]), 6);
    let src2 = "double g(int i) { return i * 1.5; }";
    assert!((run_fp(src2, "g", &[HostVal::Int(5)]) - 7.5).abs() < 1e-12);
}

#[test]
#[allow(clippy::identity_op, clippy::erasing_op)]
fn logical_ops_and_comparisons() {
    let src = r#"
int f(int a, int b) {
    int x = a > 2 && b < 10;
    int y = a == 5 || b != 3;
    return x + 2 * y;
}
"#;
    assert_eq!(
        run_int(src, "f", &[HostVal::Int(5), HostVal::Int(3)]),
        1 + 2 * 1
    );
    assert_eq!(
        run_int(src, "f", &[HostVal::Int(1), HostVal::Int(3)]),
        0 + 2 * 0
    );
}

// ---- block engine vs per-step reference: differential + invariants ----
//
// The block-dispatch engine must produce *bit-identical* profiles to the
// seed per-step interpreter (`reference::ReferenceVm`). The two share
// instruction semantics (`machine::Machine`) but nothing of the
// accounting, so any divergence below is an accounting bug.

use crate::reference::ReferenceVm;
use mira_arch::Category;
use proptest::prelude::*;

/// Run `func` on both engines and assert results, step counts and full
/// profiles (exclusive, inclusive, per-line, call counts) are identical.
fn assert_engines_agree(src: &str, func: &str, args: &[HostVal], options: VmOptions) {
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::load(&obj, options).unwrap();
    let mut rvm = ReferenceVm::load(&obj, options).unwrap();
    let r_new = vm.call(func, args);
    let r_ref = rvm.call(func, args);
    assert_eq!(r_new, r_ref, "call results diverge for:\n{src}");
    assert_eq!(
        vm.fp_return().to_bits(),
        rvm.fp_return().to_bits(),
        "fp returns diverge"
    );
    assert_eq!(vm.int_return(), rvm.int_return(), "int returns diverge");
    assert_eq!(vm.steps(), rvm.steps(), "step counts diverge for:\n{src}");
    assert_eq!(vm.profile(), rvm.profile(), "profiles diverge for:\n{src}");
}

/// Profile invariants every run must satisfy:
/// * per function and category, inclusive ≥ exclusive;
/// * per function, Σ per-line counts ≤ Σ exclusive counts, with equality
///   over the line-covered instructions (prologue/epilogue instructions
///   carry no line row, so the line total can only fall short, never
///   exceed — each retired instruction is attributed at most once per
///   view).
fn assert_profile_invariants(prof: &Profile) {
    for f in &prof.functions {
        for cat in Category::ALL {
            assert!(
                f.inclusive.get(cat) >= f.exclusive.get(cat),
                "{}: inclusive < exclusive for {cat}",
                f.name
            );
        }
        let line_total: i128 = prof
            .lines
            .iter()
            .filter(|((name, _), _)| *name == f.name)
            .map(|(_, c)| c.total())
            .sum();
        assert!(
            line_total <= f.exclusive.total(),
            "{}: line totals {line_total} exceed exclusive {}",
            f.name,
            f.exclusive.total()
        );
    }
    let excl_total: i128 = prof.functions.iter().map(|f| f.exclusive.total()).sum();
    let line_total: i128 = prof.lines.values().map(|c| c.total()).sum();
    assert!(line_total <= excl_total);
    if excl_total > 0 {
        assert!(line_total > 0, "no line attribution at all");
    }
}

const RECURSIVE_SRC: &str = r#"
extern double sqrt(double);
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
double norm(double x, int depth) {
    if (depth == 0) { return sqrt(x * x + 1.0); }
    return norm(x * 0.5, depth - 1) + 1.0;
}
double deep(int n, int depth) {
    double acc = 0.0;
    for (int i = 0; i < n; i++) {
        acc = acc + norm(acc + i, depth);
    }
    return acc + fib(12);
}
"#;

#[test]
fn engines_agree_on_recursive_workload() {
    assert_engines_agree(
        RECURSIVE_SRC,
        "deep",
        &[HostVal::Int(20), HostVal::Int(8)],
        VmOptions::default(),
    );
}

#[test]
fn engines_agree_under_step_limit() {
    // the limit lands mid-execution, exercising the per-instruction slow
    // tier; retired prefixes must still be attributed identically
    for max_steps in [1u64, 7, 63, 640, 6400] {
        let options = VmOptions {
            max_steps,
            ..VmOptions::default()
        };
        assert_engines_agree(
            RECURSIVE_SRC,
            "deep",
            &[HostVal::Int(50), HostVal::Int(30)],
            options,
        );
    }
}

#[test]
fn engines_agree_on_faulting_run() {
    // div-by-zero fires deep inside the loop; both engines must have
    // attributed the same retired prefix when the fault surfaces
    let src = r#"
int f(int n) {
    int acc = 0;
    for (int i = 3; i >= 0; i--) {
        acc = acc + n / i;
    }
    return acc;
}
"#;
    assert_engines_agree(src, "f", &[HostVal::Int(100)], VmOptions::default());
}

/// A validate session in miniature: `setup` fills an array through a
/// helper, and the measured `solve` calls the helper inside a loop and
/// recurses, so blocks are still waiting to reach the cumulative vector
/// whenever a frame is pushed or popped.
const SESSION_SRC: &str = r#"
extern double sqrt(double);
double helper(double x, double y) {
    return sqrt(x * x + y * y) * 0.5;
}
void setup(int n, double* a) {
    for (int i = 0; i < n; i++) { a[i] = helper(i + 1.0, 0.25); }
}
double solve(int n, int depth, double* a) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s = s + helper(a[i], s); }
    if (depth > 0) { s = s + solve(n, depth - 1, a); }
    return s;
}
"#;

/// The way perfbench `validate` runs miniFE: a setup call, a counter
/// reset, then the measured call — on both engines, with the cache
/// simulator on, comparing step counts, profiles and cache counters
/// after every step. `assert_engines_agree` makes a single call, so it
/// never sees state left over from an earlier call or a reset.
#[test]
fn engines_agree_across_setup_reset_and_measured_call() {
    let obj = compile_source(SESSION_SRC, &Options::default()).unwrap();
    let mut vm = Vm::load(&obj, mem_opts()).unwrap();
    let mut rvm = ReferenceVm::load(&obj, mem_opts()).unwrap();
    let n = 24;
    let a = vm.alloc_zeroed_f64(n);
    assert_eq!(a, rvm.alloc_zeroed_f64(n), "identical layouts");
    let a = HostVal::Int(a as i64);
    let n = HostVal::Int(n as i64);
    let check = |vm: &Vm, rvm: &ReferenceVm, step: &str| {
        assert_eq!(vm.steps(), rvm.steps(), "steps after {step}");
        assert_eq!(vm.profile(), rvm.profile(), "profile after {step}");
        assert_eq!(vm.mem_stats(), rvm.mem_stats(), "cache after {step}");
    };
    vm.call("setup", &[n, a]).unwrap();
    rvm.call("setup", &[n, a]).unwrap();
    check(&vm, &rvm, "setup");
    vm.reset_counters();
    rvm.reset_counters();
    check(&vm, &rvm, "reset");
    let args = [n, HostVal::Int(3), a];
    vm.call("solve", &args).unwrap();
    rvm.call("solve", &args).unwrap();
    check(&vm, &rvm, "solve");
    assert_eq!(vm.fp_return().to_bits(), rvm.fp_return().to_bits());
    let prof = vm.profile();
    assert_eq!(prof.function("solve").unwrap().calls, 4);
    assert_eq!(prof.function("helper").unwrap().calls, 4 * 24);
}

#[test]
fn profile_invariants_on_recursion_and_libm() {
    let obj = compile_source(RECURSIVE_SRC, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    vm.call("deep", &[HostVal::Int(15), HostVal::Int(5)])
        .unwrap();
    let prof = vm.profile();
    assert_profile_invariants(&prof);
    // recursion really exercises inclusive > exclusive
    let fib = prof.function("fib").unwrap();
    assert!(fib.inclusive.total() > fib.exclusive.total());
}

/// Random MiniC programs: loop nests of random depth/bounds with optional
/// guards, a recursive reducer, and FP array traffic.
#[allow(clippy::needless_range_loop)]
fn render_random_program(depth: u8, bounds: &[u8], guard: Option<u8>, rec: u8) -> String {
    let depth = (depth % 3 + 1) as usize;
    let names = ["i", "j", "k"];
    let mut src = String::from(
        "extern double sqrt(double);\n\
         int red(int n) {\n    if (n < 2) { return 1; }\n    return red(n - 1) + red(n - 2);\n}\n\
         double kernel(int n, double* a, double* b) {\n    double acc = 0.0;\n",
    );
    let mut indent = String::from("    ");
    for lvl in 0..depth {
        let v = names[lvl];
        let hi = bounds.get(lvl).copied().unwrap_or(2) % 5;
        src.push_str(&format!(
            "{indent}for (int {v} = 0; {v} < n + {hi}; {v}++) {{\n"
        ));
        indent.push_str("    ");
    }
    let inner = names[depth - 1];
    if let Some(g) = guard {
        src.push_str(&format!("{indent}if ({inner} > {}) {{\n", g % 4));
        indent.push_str("    ");
    }
    src.push_str(&format!("{indent}acc = acc + a[{inner}] * b[{inner}];\n"));
    src.push_str(&format!("{indent}b[{inner}] = sqrt(acc * acc + 1.0);\n"));
    if guard.is_some() {
        indent.truncate(indent.len() - 4);
        src.push_str(&format!("{indent}}}\n"));
    }
    for _ in 0..depth {
        indent.truncate(indent.len() - 4);
        src.push_str(&format!("{indent}}}\n"));
    }
    src.push_str(&format!("    return acc + red({});\n}}\n", rec % 10 + 2));
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_engines_agree_on_random_programs(
        depth in 0u8..3,
        bounds in proptest::collection::vec(0u8..5, 1..=3),
        guard in proptest::option::of(0u8..4),
        rec in 0u8..10,
        n in 1i64..6,
    ) {
        let src = render_random_program(depth, &bounds, guard, rec);
        let obj = compile_source(&src, &Options::default()).unwrap();
        let mut vm = Vm::new(&obj).unwrap();
        let mut rvm = ReferenceVm::new(&obj).unwrap();
        let len = (n + 8) as usize;
        let (a, b) = (vm.alloc_f64(&vec![1.0; len]), vm.alloc_f64(&vec![2.0; len]));
        let (ra, rb) = (rvm.alloc_f64(&vec![1.0; len]), rvm.alloc_f64(&vec![2.0; len]));
        prop_assert_eq!((a, b), (ra, rb)); // identical heap layout
        let args = [HostVal::Int(n), HostVal::Int(a as i64), HostVal::Int(b as i64)];
        vm.call("kernel", &args).unwrap();
        rvm.call("kernel", &args).unwrap();
        prop_assert_eq!(vm.fp_return().to_bits(), rvm.fp_return().to_bits());
        prop_assert_eq!(vm.steps(), rvm.steps());
        let prof = vm.profile();
        prop_assert_eq!(&prof, &rvm.profile());
        assert_profile_invariants(&prof);
    }
}

#[test]
fn incdec_semantics() {
    let src = r#"
int f(int a) {
    int b = a++;
    int c = ++a;
    return 100 * a + 10 * b + c;
}
"#;
    // a: 5 → b=5, a=6 → a=7, c=7 → 700 + 50 + 7
    assert_eq!(run_int(src, "f", &[HostVal::Int(5)]), 757);
}

#[test]
fn pair_profile_reports_executed_pairs_most_frequent_first() {
    let src = r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * y[i];
    }
    return s;
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::new(&obj).unwrap();
    let x = vm.alloc_f64(&vec![1.0; 64]);
    let y = vm.alloc_f64(&vec![2.0; 64]);
    vm.call(
        "dot",
        &[
            HostVal::Int(64),
            HostVal::Int(x as i64),
            HostVal::Int(y as i64),
        ],
    )
    .unwrap();
    let pairs = vm.pair_profile();
    assert!(!pairs.is_empty());
    // sorted by weight, descending
    for w in pairs.windows(2) {
        assert!(w[0].1 >= w[1].1);
    }
    // the reduction body pair dominates: element loads feeding the
    // multiply-accumulate chain, executed once per iteration
    let top: Vec<&(&str, &str)> = pairs.iter().take(3).map(|(p, _)| p).collect();
    assert!(
        top.iter()
            .any(|(a, b)| a.contains("Load") || b.contains("mulsd") || b.contains("addsd")),
        "unexpected top pairs: {top:?}"
    );
    // no pair may involve a block terminator
    for ((a, b), _) in &pairs {
        for k in [a, b] {
            assert!(
                !matches!(*k, "jmp" | "jcc" | "call" | "ret" | "halt"),
                "{k}"
            );
        }
    }
}

// ---- memory profiling (mira-mem cache simulator) ----

fn mem_opts() -> VmOptions {
    VmOptions {
        mem_profile: Some(ArchDescription::default().cache_hierarchy()),
        ..VmOptions::default()
    }
}

const COPY_SRC: &str = r#"
void copy(int n, double* src, double* dst) {
    for (int i = 0; i < n; i++) { dst[i] = src[i]; }
}
"#;

#[test]
fn mem_profile_counts_explicit_bytes() {
    let obj = compile_source(COPY_SRC, &Options::default()).unwrap();
    let mut vm = Vm::load(&obj, mem_opts()).unwrap();
    let src = vm.alloc_f64(&vec![1.0; 256]);
    let dst = vm.alloc_zeroed_f64(256);
    vm.call(
        "copy",
        &[
            HostVal::Int(256),
            HostVal::Int(src as i64),
            HostVal::Int(dst as i64),
        ],
    )
    .unwrap();
    let stats = vm.mem_stats().expect("profiling is on");
    // at least the 256 element loads and stores (plus any spill traffic)
    assert!(stats.load_bytes >= 256 * 8, "{stats:?}");
    assert!(stats.store_bytes >= 256 * 8, "{stats:?}");
    // both arrays stream through a cold cache: 256·8/64 = 32 data line
    // fills each; frame traffic is tallied separately as stack fills
    assert_eq!(stats.data_l1_fills, 64, "{stats:?}");
    assert!(stats.l1.hits > 0);
}

#[test]
fn mem_profile_off_by_default() {
    let obj = compile_source(COPY_SRC, &Options::default()).unwrap();
    let vm = Vm::new(&obj).unwrap();
    assert!(vm.mem_stats().is_none());
}

#[test]
fn mem_profile_does_not_perturb_profiles() {
    // bit-identical retirement profiles with instrumentation on and off
    let obj = compile_source(COPY_SRC, &Options::default()).unwrap();
    let run = |opts: VmOptions| {
        let mut vm = Vm::load(&obj, opts).unwrap();
        let src = vm.alloc_f64(&vec![1.0; 100]);
        let dst = vm.alloc_zeroed_f64(100);
        vm.call(
            "copy",
            &[
                HostVal::Int(100),
                HostVal::Int(src as i64),
                HostVal::Int(dst as i64),
            ],
        )
        .unwrap();
        (vm.steps(), vm.profile())
    };
    let (steps_off, prof_off) = run(VmOptions::default());
    let (steps_on, prof_on) = run(mem_opts());
    assert_eq!(steps_off, steps_on);
    assert_eq!(prof_off, prof_on);
}

#[test]
fn mem_profile_mirrored_in_reference_vm() {
    // the engines execute the same access stream, so the simulators must
    // agree counter for counter (and the profiles stay bit-identical)
    let obj = compile_source(COPY_SRC, &Options::default()).unwrap();
    let mut vm = Vm::load(&obj, mem_opts()).unwrap();
    let mut rvm = reference::ReferenceVm::load(&obj, mem_opts()).unwrap();
    let a1 = vm.alloc_f64(&vec![3.0; 200]);
    let d1 = vm.alloc_zeroed_f64(200);
    let a2 = rvm.alloc_f64(&vec![3.0; 200]);
    let d2 = rvm.alloc_zeroed_f64(200);
    assert_eq!((a1, d1), (a2, d2), "identical layouts");
    let args = [
        HostVal::Int(200),
        HostVal::Int(a1 as i64),
        HostVal::Int(d1 as i64),
    ];
    vm.call("copy", &args).unwrap();
    rvm.call("copy", &args).unwrap();
    assert_eq!(vm.profile(), rvm.profile());
    assert_eq!(vm.mem_stats().unwrap(), rvm.mem_stats().unwrap());
    // write-back draining is mirrored bit-identically too
    vm.flush_mem();
    rvm.flush_mem();
    let (s, r) = (vm.mem_stats().unwrap(), rvm.mem_stats().unwrap());
    assert_eq!(s, r);
    // 200 stored doubles = 25 dirty data lines must have been drained
    assert!(s.l1.writebacks >= 25, "{s:?}");
}

/// A deliberately tiny hierarchy (256 B L1, 1 KiB L2) so small kernels
/// force dirty-eviction cascades: L1 write-backs landing in dirty L2
/// lines, pass-throughs when L2 already evicted the line, and re-dirtied
/// lines crossing to memory twice.
fn tiny_mem_opts() -> VmOptions {
    VmOptions {
        mem_profile: Some(mira_arch::CacheHierarchy {
            line_bytes: 64,
            l1: mira_arch::CacheLevel {
                size_bytes: 256,
                assoc: 2,
            },
            l2: mira_arch::CacheLevel {
                size_bytes: 1024,
                assoc: 4,
            },
        }),
        ..VmOptions::default()
    }
}

/// Run `src` in both engines under the tiny hierarchy, asserting the
/// cache counters bit-identical before and after the flush; returns the
/// post-flush stats for case-specific checks.
fn diff_both_engines(
    src: &str,
    func: &str,
    ints: &[i64],
    arrays: usize,
    elems: usize,
) -> mira_mem::MemStats {
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::load(&obj, tiny_mem_opts()).unwrap();
    let mut rvm = reference::ReferenceVm::load(&obj, tiny_mem_opts()).unwrap();
    let mut args: Vec<HostVal> = ints.iter().map(|v| HostVal::Int(*v)).collect();
    for _ in 0..arrays {
        let a = vm.alloc_f64(&vec![1.0; elems]);
        let b = rvm.alloc_f64(&vec![1.0; elems]);
        assert_eq!(a, b, "identical layouts");
        args.push(HostVal::Int(a as i64));
    }
    vm.call(func, &args).unwrap();
    rvm.call(func, &args).unwrap();
    assert_eq!(
        vm.mem_stats().unwrap(),
        rvm.mem_stats().unwrap(),
        "pre-flush"
    );
    vm.flush_mem();
    rvm.flush_mem();
    let (s, r) = (vm.mem_stats().unwrap(), rvm.mem_stats().unwrap());
    assert_eq!(s, r, "post-flush");
    // flushing again must change nothing, in either engine
    vm.flush_mem();
    rvm.flush_mem();
    assert_eq!(vm.mem_stats().unwrap(), s);
    assert_eq!(rvm.mem_stats().unwrap(), s);
    s
}

#[test]
fn wb_dirty_eviction_cascades_bitidentical() {
    // a 2 KiB array (≫ both levels) updated in place, twice: sweep 1
    // leaves every line dirty at some level; sweep 2 re-dirties lines
    // whose L2 copies were evicted in between, so L1 write-backs both
    // absorb into dirty L2 lines and pass straight through to memory
    let src = r#"
void churn(int n, int reps, double* a) {
    for (int r = 0; r < reps; r++) {
        for (int i = 0; i < n; i++) {
            a[i] = a[i] + 1.0;
        }
    }
}
"#;
    let s = diff_both_engines(src, "churn", &[256, 2], 1, 256);
    let lines = 256 * 8 / 64; // 32 data lines per sweep
                              // every line was written each sweep and could not stay resident:
                              // each sweep's dirty lines crossed both boundaries
    assert_eq!(s.data_l1_writebacks, 2 * lines, "{s:?}");
    assert_eq!(s.data_l2_writebacks, 2 * lines, "{s:?}");
    assert_eq!(s.data_l1_fills, 2 * lines, "{s:?}");
}

#[test]
fn wb_flush_ordering_l1_drains_into_l2() {
    // three stored lines, everything resident: nothing is written back
    // during the run; the flush must drain L1 *into* L2 (marking its
    // copies dirty) before draining L2 to memory — one write-back per
    // line at each level, not two
    let src = r#"
void fill(int n, double* a) {
    for (int i = 0; i < n; i++) {
        a[i] = 3.0;
    }
}
"#;
    let s = diff_both_engines(src, "fill", &[24], 1, 24);
    let lines = 24 * 8 / 64; // 3 data lines
    assert_eq!(s.data_l1_writebacks, lines, "{s:?}");
    assert_eq!(s.data_l2_writebacks, lines, "{s:?}");
    assert_eq!(s.data_l1_fills, lines, "{s:?}");
    assert_eq!(s.data_l2_fills, lines, "{s:?}");
}

#[test]
fn wb_same_line_load_store_interleave_bitidentical() {
    // loads and stores alternate on the same lines of two arrays under
    // eviction pressure: a line must be fetched once per residency,
    // dirtied by the store half, and written back exactly once per
    // eviction — the same-line interleave must not double-count either
    // fills or write-backs
    let src = r#"
void pingpong(int n, int reps, double* a, double* b) {
    for (int r = 0; r < reps; r++) {
        for (int i = 0; i < n; i++) {
            double t = a[i];
            b[i] = t * 0.5;
            a[i] = b[i] + t;
        }
    }
}
"#;
    let s = diff_both_engines(src, "pingpong", &[128, 3], 2, 128);
    let lines = 128 * 8 / 64; // 16 lines per array per sweep
                              // both arrays stream and are stored every sweep: write-allocate
                              // fills plus one write-back per line per sweep per array
    assert_eq!(s.data_l1_fills, 3 * 2 * lines, "{s:?}");
    assert_eq!(s.data_l1_writebacks, 3 * 2 * lines, "{s:?}");
}

#[test]
fn reset_counters_resets_to_cold_cache() {
    let obj = compile_source(COPY_SRC, &Options::default()).unwrap();
    let mut vm = Vm::load(&obj, mem_opts()).unwrap();
    let src = vm.alloc_f64(&vec![1.0; 64]);
    let dst = vm.alloc_zeroed_f64(64);
    let args = [
        HostVal::Int(64),
        HostVal::Int(src as i64),
        HostVal::Int(dst as i64),
    ];
    vm.call("copy", &args).unwrap();
    let first = vm.mem_stats().unwrap();
    vm.reset_counters();
    assert_eq!(vm.mem_stats().unwrap(), mira_mem::MemStats::default());
    vm.call("copy", &args).unwrap();
    // after a cold reset the second run repeats the first exactly
    assert_eq!(vm.mem_stats().unwrap(), first);
}

#[test]
fn stack_traffic_excluded_from_data_fills() {
    // a call-heavy, array-free function produces no data fills at all:
    // spills hit the stack region, push/pop is not simulated
    let src = r#"
int fib(int n) {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
"#;
    let obj = compile_source(src, &Options::default()).unwrap();
    let mut vm = Vm::load(&obj, mem_opts()).unwrap();
    vm.call("fib", &[HostVal::Int(10)]).unwrap();
    let stats = vm.mem_stats().unwrap();
    assert_eq!(stats.data_l1_fills, 0, "{stats:?}");
    // the spill traffic exists and is tallied as *stack* fills
    assert!(stats.loads + stats.stores > 0, "{stats:?}");
    assert!(stats.stack_l1_fills > 0, "{stats:?}");
}
