//! `mira-serve` end to end: compile DGEMM's placement model for two
//! machine descriptions, sweep n = 1..512 through the compiled
//! evaluator, and print cycle bounds, bound classifications, and every
//! size at which the kernel changes regime — plus the bisected
//! crossover, answered without ever re-walking the symbolic trees.
//!
//! Run with: `cargo run --release --example serve`

use mira_core::{analyze_source, MiraOptions};
use mira_roofline::{Ceilings, KernelRoofline};
use mira_serve::{machines, CompiledKernel, ServeIndex};

fn main() {
    // one index, one kernel, two machines: analyze DGEMM under each
    // architecture description, compile, and admit both models
    let mut index = ServeIndex::new();
    let arches = [
        mira_arch::ArchDescription::default(),
        machines::avx2_fma().expect("bundled description parses"),
    ];
    for arch in &arches {
        let opts = MiraOptions {
            arch: arch.clone(),
            ..Default::default()
        };
        let analysis =
            analyze_source(mira_workloads::dgemm::DGEMM_SRC, &opts).expect("dgemm analyzes");
        let kr = KernelRoofline::analyze(&analysis, "dgemm").expect("roofline analyzes");
        let k = CompiledKernel::build(&kr, &Ceilings::from_arch(arch), &arch.machine.name)
            .expect("dgemm compiles");
        index.insert(k).expect("dgemm admits");
    }

    for arch in &arches {
        let machine = &arch.machine.name;
        let id = index.find("dgemm", machine).expect("admitted above");
        let k = index.kernel(id).expect("kernel exists");
        println!("dgemm on {machine} ({} ops compiled, {} CSE reuses):",
            k.program().ops_len(), k.program().cse_hits());

        // full sweep n = 1..=512 (reps = 1); report regime changes and
        // a few landmark sizes
        // every parameter pinned to 1; the sweep rebinds "n" per size
        let base: Vec<i128> = k.params().iter().map(|_| 1).collect();
        let mut last = None;
        let landmarks = [1i128, 8, 64, 512];
        for (n, r) in index
            .sweep(id, "n", &base, 1, 512)
            .expect("sweep builds")
        {
            let p = r.expect("placement evaluates");
            let regime = format!("{}", p.binding);
            let changed = last.as_ref() != Some(&regime);
            if changed || landmarks.contains(&n) {
                println!(
                    "  n = {n:>3}: {} {p}",
                    if changed { "->" } else { "  " },
                );
            }
            last = Some(regime);
        }

        // the same regime exit, solved by bisection over the compiled
        // evaluator instead of read off the sweep
        match index.crossover(id, "n", &base, 2, 64) {
            Ok(Some(x)) => println!(
                "  crossover: leaves {} for {} at n = {}\n",
                x.from, x.to, x.value
            ),
            Ok(None) => println!("  crossover: no regime change in [2, 64]\n"),
            Err(e) => println!("  crossover refused: {e}\n"),
        }
    }
}
