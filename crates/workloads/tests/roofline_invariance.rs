//! Roofline classification must be invariant under register allocation.
//!
//! `Options::regalloc` changes how many *frame* (spill-slot) accesses a
//! kernel retires — sometimes by 2× — but a kernel's position on the
//! roofline is a statement about its data movement and FLOPs, not about
//! the compiler's register pressure. The roofline engine therefore
//! excludes frame traffic from every memory ceiling (the data/frame
//! split of `ModelOp::MemAcc`), and this suite pins the consequence as a
//! property: for the benchmark kernels across random problem sizes, the
//! closed-form data bytes, FLOPs and the resulting bound classification
//! are identical whether the allocator ran or not — statically, and (for
//! a spot check) through the cache simulator too.

use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_roofline::{dynamic_placement, Ceilings, KernelRoofline};
use mira_sym::bindings;
use mira_vm::{HostVal, Vm, VmOptions};
use mira_workloads::dgemm::DGEMM_SRC;
use mira_workloads::memval::TRIAD_SRC;
use mira_workloads::stream::STREAM_SRC;
use proptest::prelude::*;

/// A register-only inner kernel: heavy FP recurrence, no array traffic —
/// compute-bound, and the shape where spill-everything adds the most
/// relative frame traffic.
const POLY_SRC: &str = "double horner(int n, int reps, double x) {\n\
    double acc = 0.0;\n\
    for (int r = 0; r < reps; r++) {\n\
        for (int i = 0; i < n; i++) {\n\
            acc = acc * x + 1.0;\n\
            acc = acc * x + 2.0;\n\
        }\n\
    }\n\
    return acc;\n}";

const KERNELS: [(&str, &str); 4] = [
    (TRIAD_SRC, "triad"),
    (STREAM_SRC, "stream_kernels"),
    (DGEMM_SRC, "dgemm"),
    (POLY_SRC, "horner"),
];

fn both_modes(src: &str) -> (Analysis, Analysis) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn classification_invariant_under_regalloc(
        which in 0usize..KERNELS.len(),
        n in 4i64..2048,
        reps in 1i64..8,
    ) {
        let (src, func) = KERNELS[which];
        let n = if func == "dgemm" { 2 + n % 48 } else { n }; // keep n³ sane
        let (on, off) = both_modes(src);
        let k_on = KernelRoofline::analyze(&on, func).unwrap();
        let k_off = KernelRoofline::analyze(&off, func).unwrap();
        let c = Ceilings::from_arch(&on.arch);
        let b = bindings(&[("n", n as i128), ("reps", reps as i128)]);

        // the roofline inputs are allocation-invariant closed forms …
        prop_assert_eq!(
            k_on.flops().eval_count(&b).unwrap(),
            k_off.flops().eval_count(&b).unwrap(),
            "FLOPs differ for {}", func
        );
        prop_assert_eq!(
            k_on.data_bytes().eval_count(&b).unwrap(),
            k_off.data_bytes().eval_count(&b).unwrap(),
            "data bytes differ for {}", func
        );
        prop_assert_eq!(
            k_on.footprint_lines().eval_count(&b).unwrap(),
            k_off.footprint_lines().eval_count(&b).unwrap(),
            "footprints differ for {}", func
        );

        // … so the placement is identical, ceiling by ceiling
        let p_on = k_on.place(&c, &b).unwrap();
        let p_off = k_off.place(&c, &b).unwrap();
        prop_assert_eq!(p_on, p_off, "placement differs for {} at n={n} reps={reps}", func);

        // while the *total* bytes genuinely differ whenever the spill
        // build moved traffic to the frame (regression guard: the split
        // is doing real work, not vacuously equal)
        let total_on = on.report(func, &b).unwrap().total_bytes();
        let total_off = off.report(func, &b).unwrap().total_bytes();
        prop_assert!(total_on <= total_off, "regalloc never adds traffic");
    }
}

/// The dynamic side of the same property, spot-checked: identical cache
/// simulator placement for both builds of the triad (the simulator sees
/// different stack traffic, but stack lines are few and L1-resident, and
/// the data-byte ceilings dominate the classification).
#[test]
fn dynamic_classification_invariant_under_regalloc() {
    let (on, off) = both_modes(TRIAD_SRC);
    let c = Ceilings::from_arch(&on.arch);
    let (n, reps) = (1024i64, 4i64);
    let b = bindings(&[("n", n as i128), ("reps", reps as i128)]);
    let run = |analysis: &Analysis| {
        let mut vm = Vm::load(
            &analysis.object,
            VmOptions {
                mem_profile: Some(analysis.arch.cache_hierarchy()),
                ..VmOptions::default()
            },
        )
        .unwrap();
        let a = vm.alloc_f64(&vec![1.0; n as usize]);
        let bb = vm.alloc_f64(&vec![2.0; n as usize]);
        let cc = vm.alloc_f64(&vec![0.5; n as usize]);
        vm.call(
            "triad",
            &[
                HostVal::Int(n),
                HostVal::Int(reps),
                HostVal::Int(a as i64),
                HostVal::Int(bb as i64),
                HostVal::Int(cc as i64),
                HostVal::Fp(3.0),
            ],
        )
        .unwrap();
        vm.flush_mem();
        vm.mem_stats().unwrap()
    };
    let kernel = KernelRoofline::analyze(&on, "triad").unwrap();
    let flops = kernel.flops().eval_count(&b).unwrap();
    let p_on = dynamic_placement(flops, &run(&on), &c, false);
    let p_off = dynamic_placement(flops, &run(&off), &c, false);
    assert_eq!(p_on.binding, p_off.binding, "{p_on} vs {p_off}");
    // and both match the static call
    let p_static = kernel.place(&c, &b).unwrap();
    assert_eq!(p_static.binding, p_on.binding, "{p_static} vs {p_on}");
}
