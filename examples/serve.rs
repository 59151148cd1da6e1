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
        // the first regime change after n = 2, read off the sweep
        let mut exit = None;
        let landmarks = [1i128, 8, 64, 512];
        for (n, r) in index
            .sweep(id, "n", &base, 1, 512)
            .expect("sweep builds")
        {
            let p = r.expect("placement evaluates");
            let changed = last.is_some_and(|b| b != p.binding);
            if changed && n > 2 && n <= 64 && exit.is_none() {
                exit = Some((last, p.binding, n));
            }
            if changed || landmarks.contains(&n) {
                println!(
                    "  n = {n:>3}: {} {p}",
                    if changed { "->" } else { "  " },
                );
            }
            last = Some(p.binding);
        }

        // the same regime exit, solved by bisection over the compiled
        // evaluator instead of read off the sweep
        let crossover = index
            .crossover(id, "n", &base, 2, 64)
            .expect("crossover solves");
        match crossover {
            Some(x) => println!(
                "  crossover: leaves {} for {} at n = {}\n",
                x.from, x.to, x.value
            ),
            None => println!("  crossover: no regime change in [2, 64]\n"),
        }
        assert_eq!(
            crossover.map(|x| (Some(x.from), x.to, x.value)),
            exit,
            "the bisected crossover is the sweep's regime exit"
        );
    }
}
