//! Allocation-mode equivalence suite.
//!
//! `mira-vcc` now has two codegen modes: register allocation (the
//! default) and the seed's spill-everything baseline. For every corpus
//! program and the three benchmark workloads this suite pins, in *both*
//! modes:
//!
//! * identical program results — return values and all array memory are
//!   bit-for-bit equal between the two compilations;
//! * bit-identical profiles between the block-dispatch engine and the
//!   per-step `ReferenceVm`;
//! * static-report == dynamic-profile, category by category, whenever
//!   the program is in the exactly-analyzable affine subset;
//! * fewer (never more) dynamically retired instructions with register
//!   allocation on.

use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_minic::Type;
use mira_sym::Bindings;
use mira_vm::reference::ReferenceVm;
use mira_vm::{HostVal, Vm};
use mira_workloads::corpus::corpus;
use mira_workloads::dgemm::DGEMM_SRC;
use mira_workloads::minife::MINIFE_SRC;
use mira_workloads::run::Engine;
use mira_workloads::stream::STREAM_SRC;

/// Array length handed to every pointer parameter — large enough for
/// every index expression the programs form from `INT_ARG`-sized bounds.
const ARR: usize = 4096;
/// Value bound to every integer parameter.
const INT_ARG: i64 = 6;
/// Value bound to every double parameter.
const FP_ARG: f64 = 1.5;

fn pattern(seed: usize) -> Vec<f64> {
    (0..ARR)
        .map(|i| ((i + seed) % 7 + 1) as f64 * 0.25)
        .collect()
}

fn analyses(src: &str) -> (Analysis, Analysis) {
    let on = analyze_source(src, &MiraOptions::default()).expect("regalloc analysis");
    let off = analyze_source(
        src,
        &MiraOptions {
            compiler: mira_vcc::Options::spill_everything(),
            ..MiraOptions::default()
        },
    )
    .expect("spill analysis");
    (on, off)
}

/// The memory both engines must agree on after a run: every allocated
/// array, read back.
#[derive(PartialEq, Debug, Default)]
struct RunState {
    returns: Vec<u64>,
    f64_arrays: Vec<Vec<u64>>,
    i64_arrays: Vec<Vec<i64>>,
}

/// Call every function of the program in order inside one VM, feeding
/// deterministic arguments by parameter type. Returns the observable
/// state.
fn drive<E: Engine>(analysis: &Analysis, vm: &mut E) -> RunState {
    let mut state = RunState::default();
    let mut f64_addrs = Vec::new();
    let mut i64_addrs = Vec::new();
    for (fi, f) in analysis.program.functions().enumerate() {
        let mut args = Vec::new();
        for (pi, p) in f.params.iter().enumerate() {
            match &p.ty {
                Type::Int => args.push(HostVal::Int(INT_ARG)),
                Type::Double => args.push(HostVal::Fp(FP_ARG)),
                Type::Ptr(inner) if **inner == Type::Int => {
                    let a = vm.alloc_i64(&[0; ARR]);
                    i64_addrs.push(a);
                    args.push(HostVal::Int(a as i64));
                }
                Type::Ptr(_) => {
                    let a = vm.alloc_f64(&pattern(fi * 16 + pi));
                    f64_addrs.push(a);
                    args.push(HostVal::Int(a as i64));
                }
                other => panic!("unsupported parameter type {other}"),
            }
        }
        vm.call(&f.name, &args)
            .unwrap_or_else(|e| panic!("{} failed: {e}", f.name));
        state.returns.push(if f.ret == Type::Double {
            vm.fp_return().to_bits()
        } else {
            vm.int_return() as u64
        });
    }
    for a in f64_addrs {
        state
            .f64_arrays
            .push(vm.read_f64(a, ARR).iter().map(|v| v.to_bits()).collect());
    }
    for a in i64_addrs {
        state.i64_arrays.push(vm.read_i64(a, ARR));
    }
    state
}

/// All the sources the suite covers.
fn suite() -> Vec<(&'static str, &'static str)> {
    let mut v = corpus();
    v.push(("stream", STREAM_SRC));
    v.push(("dgemm", DGEMM_SRC));
    v.push(("minife", MINIFE_SRC));
    v
}

#[test]
fn both_modes_compute_identical_results_and_identical_engine_profiles() {
    let mut total_on = 0u64;
    let mut total_off = 0u64;
    for (name, src) in suite() {
        let (on, off) = analyses(src);
        let mut states = Vec::new();
        let mut steps = Vec::new();
        for analysis in [&on, &off] {
            let mut vm = Vm::new(&analysis.object).unwrap();
            let state = drive(analysis, &mut vm);
            // the per-step reference interpreter must observe the exact
            // same memory, returns and profile as the engine
            let mut rvm = ReferenceVm::new(&analysis.object).unwrap();
            let rstate = drive(analysis, &mut rvm);
            assert_eq!(state, rstate, "{name}: engine vs reference state");
            assert_eq!(
                vm.profile(),
                rvm.profile(),
                "{name}: engine vs reference profile"
            );
            assert_eq!(vm.steps(), rvm.steps(), "{name}: step counts");
            steps.push(vm.steps());
            states.push(state);
        }
        assert_eq!(
            states[0], states[1],
            "{name}: regalloc and spill modes disagree on program results"
        );
        assert!(
            steps[0] <= steps[1],
            "{name}: regalloc retired more instructions ({} > {})",
            steps[0],
            steps[1]
        );
        total_on += steps[0];
        total_off += steps[1];
    }
    assert!(
        total_on < total_off,
        "register allocation did not reduce total retired instructions \
         ({total_on} vs {total_off})"
    );
}

/// For every program in the exactly-analyzable affine subset, the static
/// report must equal the dynamic inclusive profile category by category —
/// in both allocation modes.
#[test]
fn static_reports_match_dynamic_profiles_in_both_modes() {
    use mira_arch::Category;
    let mut exact_checks = 0usize;
    for (name, src) in suite() {
        let (on, off) = analyses(src);
        for (mode, analysis) in [("regalloc", &on), ("spill", &off)] {
            if !analysis.warnings.is_empty() {
                // outside the affine subset (data-dependent branches,
                // annotations, externs) static == dynamic does not hold;
                // those cases are covered by the result-equality test
                continue;
            }
            for f in analysis.program.functions() {
                let mut binds = Bindings::default();
                for p in &f.params {
                    if p.ty == Type::Int {
                        binds.insert(p.name.clone(), INT_ARG as i128);
                    }
                }
                let Ok(report) = analysis.report(&f.name, &binds) else {
                    continue;
                };
                let mut vm = Vm::new(&analysis.object).unwrap();
                let mut args = Vec::new();
                for (pi, p) in f.params.iter().enumerate() {
                    match &p.ty {
                        Type::Int => args.push(HostVal::Int(INT_ARG)),
                        Type::Double => args.push(HostVal::Fp(FP_ARG)),
                        Type::Ptr(inner) if **inner == Type::Int => {
                            args.push(HostVal::Int(vm.alloc_i64(&[0; ARR]) as i64))
                        }
                        Type::Ptr(_) => {
                            args.push(HostVal::Int(vm.alloc_f64(&pattern(pi)) as i64))
                        }
                        other => panic!("unsupported parameter type {other}"),
                    }
                }
                vm.call(&f.name, &args)
                    .unwrap_or_else(|e| panic!("{name}/{}: {e}", f.name));
                let prof = vm.profile();
                let dynamic = &prof.function(&f.name).unwrap().inclusive;
                for cat in Category::ALL {
                    assert_eq!(
                        report.counts.get(cat),
                        dynamic.get(cat),
                        "{name}/{} [{mode}] category {cat}",
                        f.name
                    );
                }
                exact_checks += 1;
            }
        }
    }
    assert!(
        exact_checks >= 10,
        "affine subset unexpectedly small: only {exact_checks} exact checks ran"
    );
}

/// The acceptance criterion in one focused assertion: the loop kernels'
/// dynamic retired-instruction counts drop with register allocation on.
#[test]
fn regalloc_shrinks_kernel_step_counts() {
    for (name, src, func, factor) in [
        ("stream", STREAM_SRC, "stream_bench", 1.3),
        ("dgemm", DGEMM_SRC, "dgemm_bench", 1.2),
        ("minife-dot", MINIFE_SRC, "dot", 1.5),
    ] {
        let (on, off) = analyses(src);
        let mut steps = Vec::new();
        for analysis in [&on, &off] {
            let mut vm = Vm::new(&analysis.object).unwrap();
            let f = analysis.program.function(func).unwrap().clone();
            let mut args = Vec::new();
            for (pi, p) in f.params.iter().enumerate() {
                match &p.ty {
                    Type::Int => args.push(HostVal::Int(32)),
                    Type::Double => args.push(HostVal::Fp(FP_ARG)),
                    Type::Ptr(_) => {
                        args.push(HostVal::Int(vm.alloc_f64(&pattern(pi)) as i64))
                    }
                    other => panic!("unsupported parameter type {other}"),
                }
            }
            vm.call(func, &args).unwrap();
            steps.push(vm.steps());
        }
        let reduction = steps[1] as f64 / steps[0] as f64;
        assert!(
            reduction >= factor,
            "{name}/{func}: step reduction only {reduction:.2}x ({} vs {})",
            steps[0],
            steps[1]
        );
    }
}
