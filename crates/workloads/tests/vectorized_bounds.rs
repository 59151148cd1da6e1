//! Vectorized loops whose bounds the metric generator cannot express.

use mira_arch::Category;
use mira_core::{analyze_source, MiraOptions};
use mira_sym::bindings;
use mira_vm::{HostVal, Vm};
use mira_workloads::corpus::corpus;
use mira_workloads::roofval::TRIAD_BLOCKED_SRC;

fn options(compiler: mira_vcc::Options) -> MiraOptions {
    MiraOptions {
        compiler,
        ..MiraOptions::default()
    }
}

/// `applu`'s copy loop runs to `n * n`, which no SCoP expresses. Under
/// every codegen, vectorized included, its trip count becomes the model
/// parameter `iters_l11` with one warning, and with `iters_l11 = n·n`
/// the model matches the VM in every category.
#[test]
fn an_unanalyzable_vectorized_loop_takes_a_trip_count_parameter() {
    let (_, src) = corpus()
        .into_iter()
        .find(|(name, _)| *name == "applu")
        .unwrap();
    for compiler in [
        mira_vcc::Options::default(),
        mira_vcc::Options::vectorized(),
        mira_vcc::Options::spill_everything(),
    ] {
        let analysis =
            analyze_source(src, &options(compiler)).unwrap_or_else(|e| panic!("{compiler:?}: {e}"));
        assert_eq!(
            analysis.warnings,
            [
                "ssor_sweep: line 11: loop trip count not statically analyzable — \
              introduced model parameter `iters_l11` (annotate with lp_iters)"
            ],
            "{compiler:?}"
        );
        for n in [0i64, 1, 2, 3, 5, 8, 13] {
            let len = (n * n).max(1) as usize;
            let mut vm = Vm::new(&analysis.object).unwrap();
            let u = vm.alloc_f64(&vec![1.0; len]);
            let rsd = vm.alloc_zeroed_f64(len);
            vm.call(
                "ssor_sweep",
                &[
                    HostVal::Int(n),
                    HostVal::Int(u as i64),
                    HostVal::Int(rsd as i64),
                    HostVal::Fp(1.2),
                ],
            )
            .unwrap();
            let b = bindings(&[("n", n as i128), ("iters_l11", (n * n) as i128)]);
            let report = analysis.report("ssor_sweep", &b).unwrap();
            let prof = vm.profile();
            let dynamic = &prof.function("ssor_sweep").unwrap().inclusive;
            for cat in Category::ALL {
                assert_eq!(
                    report.counts.get(cat),
                    dynamic.get(cat),
                    "{cat} under {compiler:?} at n = {n}"
                );
            }
        }
    }
}

/// The blocked triad's inner loop runs from `ii` to `ii + 1023`: both
/// bounds name the outer loop variable, and the vectorized path warns
/// once for the loop.
#[test]
fn a_vectorized_bound_on_an_outer_variable_warns_once() {
    let analysis =
        analyze_source(TRIAD_BLOCKED_SRC, &options(mira_vcc::Options::vectorized())).unwrap();
    assert_eq!(
        analysis.warnings,
        [
            "triad_blocked: line 4: vectorized loop bound depends on an outer loop variable — \
          counts approximated"
        ]
    );
}

/// A copy loop over `rows * cols`, a product no SCoP expresses, with
/// its bounds annotated (paper Listing 6): every codegen, vectorized
/// included, models the annotated domain, `first..=last`, without a
/// warning, and with `first = 0` and `last = rows·cols − 1` the model
/// matches the VM in every category.
#[test]
fn a_vectorized_loop_takes_its_annotated_bounds() {
    let src = "void scale(int n, double* a, double* b) {
    int rows = n;
    int cols = n + 1;
#pragma @Annotation {lp_init: first, lp_cond: last}
    for (int i = 0; i < rows * cols; i++) {
        a[i] = 2.0 * b[i];
    }
}
";
    for compiler in [
        mira_vcc::Options::default(),
        mira_vcc::Options::vectorized(),
        mira_vcc::Options::spill_everything(),
    ] {
        let analysis =
            analyze_source(src, &options(compiler)).unwrap_or_else(|e| panic!("{compiler:?}: {e}"));
        assert!(
            analysis.warnings.is_empty(),
            "{compiler:?}: {:?}",
            analysis.warnings
        );
        assert_eq!(analysis.parameters(), ["first", "last"], "{compiler:?}");
        for n in [0i64, 1, 2, 3, 5, 8] {
            let len = (n * (n + 1)).max(1) as usize;
            let mut vm = Vm::new(&analysis.object).unwrap();
            let a = vm.alloc_zeroed_f64(len);
            let b = vm.alloc_f64(&vec![1.0; len]);
            vm.call(
                "scale",
                &[
                    HostVal::Int(n),
                    HostVal::Int(a as i64),
                    HostVal::Int(b as i64),
                ],
            )
            .unwrap();
            let binds = bindings(&[("first", 0), ("last", (n * (n + 1) - 1) as i128)]);
            let report = analysis.report("scale", &binds).unwrap();
            let prof = vm.profile();
            let dynamic = &prof.function("scale").unwrap().inclusive;
            for cat in Category::ALL {
                assert_eq!(
                    report.counts.get(cat),
                    dynamic.get(cat),
                    "{cat} under {compiler:?} at n = {n}"
                );
            }
        }
    }
}
