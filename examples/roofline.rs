//! `mira-roofline` end to end: place the STREAM triad and DGEMM on the
//! machine's roofline from the static closed forms alone, diff the
//! placement against the cache simulator, and solve for the size at
//! which DGEMM changes regime.
//!
//! Run with: `cargo run --release --example roofline`

use mira_roofline::{Ceilings, KernelRoofline};
use mira_sym::bindings;
use mira_workloads::roofval;
use mira_workloads::{dgemm::Dgemm, memval};

fn main() {
    let arch = mira_arch::ArchDescription::default();
    let c = Ceilings::from_arch(&arch);
    println!(
        "machine: {} scalar / {} packed FLOPs per cycle; {} / {} / {} B per cycle at L1 / L2 / DRAM\n",
        c.peak_scalar, c.peak_vector, c.bandwidth[0], c.bandwidth[1], c.bandwidth[2],
    );

    // --- the triad, placed statically and against the simulator ---
    for (n, reps, label) in [(20_000i64, 2i64, "capacity-sized"), (1024, 20, "L1-resident")] {
        let row = roofval::triad_roof(n, reps, false);
        println!("triad, n = {n}, reps = {reps} ({label}):");
        println!("  static:    {}", row.static_p);
        println!("  simulator: {}", row.dynamic_p);
        println!("  agreement: {}\n", if row.agrees() { "YES" } else { "NO" });
    }

    // --- the closed forms behind the placement ---
    let triad = mira_core::analyze_source(
        memval::TRIAD_SRC,
        &mira_core::MiraOptions::default(),
    )
    .unwrap();
    let kernel = KernelRoofline::analyze(&triad, "triad").unwrap();
    let b = bindings(&[("n", 1024), ("reps", 20)]);
    println!("triad closed forms at n = 1024, reps = 20:");
    println!("  FLOPs      = {}", kernel.flops().eval_count(&b).unwrap());
    println!("  data bytes = {}", kernel.data_bytes().eval_count(&b).unwrap());
    println!(
        "  compute ceiling = {} cycles, L1 ceiling = {} cycles",
        kernel.compute_cycles_expr(&c).eval_count(&b).unwrap(),
        kernel.l1_cycles_expr(&c).eval_count(&b).unwrap(),
    );

    // --- the DGEMM regime crossover, solved from the closed forms ---
    let dgemm = Dgemm::new();
    let k = KernelRoofline::analyze(&dgemm.analysis, "dgemm").unwrap();
    let base = bindings(&[("reps", 1)]);
    let x = k
        .crossover(&c, "n", &base, 2, 64)
        .unwrap()
        .expect("DGEMM changes regime");
    println!(
        "\nDGEMM leaves the {} roof at n = {} (onto the {} roof):",
        x.from, x.value, x.to
    );
    for n in [x.value - 2, x.value - 1, x.value, x.value + 4] {
        let b = bindings(&[("n", n), ("reps", 1)]);
        let p = k.place(&c, &b).unwrap();
        println!("  n = {n:>3}: {p}");
    }
    println!(
        "\n(cold compulsory DRAM traffic is O(n²): {} lines at n = {}; compute is O(n³))",
        k.footprint_lines()
            .eval_count(&bindings(&[("n", x.value), ("reps", 1)]))
            .unwrap(),
        x.value,
    );
}
