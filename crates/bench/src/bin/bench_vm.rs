//! `bench_vm` — the VM performance trajectory.
//!
//! Runs the STREAM triad, DGEMM and miniFE CG-solve workloads through both
//! interpreters — the block-dispatch engine (`mira_vm::Vm`) and the
//! per-step seed loop (`mira_vm::reference::ReferenceVm`) — verifies their
//! profiles are bit-identical, and writes throughput plus speedup to
//! `BENCH_vm.json` so future PRs have a perf baseline to defend.
//!
//! Since `mira-vcc` gained a register allocator, each row also records the
//! dynamic retired-instruction count of the same workload compiled with
//! the spill-everything baseline (`baseline_steps`) next to the default
//! regalloc build (`steps`), and their ratio (`step_reduction`) — so
//! step-count regressions are caught, not just wall-clock ones.
//!
//! Usage: `cargo run --release -p mira-bench --bin bench_vm
//! [--quick|--pairs|--check|--hot] [--trace <out.json>]`
//! (`--quick` shrinks sizes and rounds for CI smoke runs and writes
//! `target/bench-quick/BENCH_vm.json`; `--pairs` prints the
//! execution-weighted adjacent-instruction pairs the µop fusion table in
//! `mira_vm::uop` is tuned against, instead of timing; `--check`
//! re-measures the dynamic step counts at the committed sizes and exits
//! non-zero when any workload regressed more than 2% versus the committed
//! `BENCH_vm.json` — the CI gate that turns step-count regressions into
//! failures instead of printed numbers; `--hot` runs each workload with
//! `VmOptions::block_profile` and prints the hottest basic blocks plus
//! µop fusion rates; `--trace` captures the whole run with `mira-probe`
//! and writes a Chrome trace-event JSON).
//!
//! Each JSON row also records `analysis_ms` — the wall time of that
//! workload's full static pipeline (parse → compile → disassemble →
//! model) — and the file carries a `phase_wall_ms` breakdown from the
//! probe spans, so the perf trajectory includes model-generation time,
//! not just retired steps. Outside `--trace`, probes are captured only
//! around construction: the timed interpreter loops run with probes
//! disabled.

use mira_bench::{json_open, Bench};
use mira_vm::reference::ReferenceVm;
use mira_vm::{Vm, VmOptions};
use mira_vobj::Object;
use mira_workloads::run::Shape;
use mira_workloads::{dgemm::Dgemm, minife::MiniFe, stream::Stream};
use std::time::Instant;

/// The benchmark rows: name, compiled kernel, shape at the row's size
/// and the function the row runs. `mira_workloads::run` owns how each
/// shape is set up, on either engine; miniFE counts the CG solve only.
type Rows<'a> = [(&'static str, &'a Object, Shape, &'static str)];

struct Row {
    workload: &'static str,
    analysis_ms: f64,
    steps: u64,
    baseline_steps: u64,
    engine_ns: f64,
    reference_ns: f64,
}

impl Row {
    fn engine_minst_s(&self) -> f64 {
        self.steps as f64 / self.engine_ns * 1e3
    }
    fn reference_minst_s(&self) -> f64 {
        self.steps as f64 / self.reference_ns * 1e3
    }
    fn speedup(&self) -> f64 {
        self.reference_ns / self.engine_ns
    }
    fn step_reduction(&self) -> f64 {
        self.baseline_steps as f64 / self.steps as f64
    }
}

/// Best-of-`rounds` wall time of `f`, in nanoseconds.
fn best_of<F: FnMut() -> u64>(rounds: usize, mut f: F) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut steps = 0;
    for _ in 0..rounds {
        let t0 = Instant::now();
        steps = f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    (steps, best)
}

fn main() {
    let bench = Bench::from_args("vm");
    let (json, trace) = if bench.trace.is_some() {
        // one capture covers the whole run — pipeline phase spans,
        // budget spans, VM calls — and lands in a Chrome trace
        let ((json, _), trace) = mira_probe::capture(|| run(&bench));
        (json, trace)
    } else {
        // probes stay disabled through the timed interpreter loops;
        // run() captures the construction phase internally and returns
        // that trace for the phase_wall_ms breakdown
        let (json, trace) = run(&bench);
        (json, trace.unwrap_or_default())
    };
    bench.write(json, &trace);
}

/// The whole benchmark; returns the pending JSON body (through the
/// workloads array) when this run records one, plus the construction-
/// phase trace when one was captured locally (no enclosing `--trace`).
fn run(bench: &Bench) -> (Option<String>, Option<mira_probe::Trace>) {
    let pairs = std::env::args().any(|a| a == "--pairs");
    let hot = std::env::args().any(|a| a == "--hot");
    let rounds = if bench.quick { 2 } else { 5 };
    let (stream_n, dgemm_n, grid) = if bench.quick {
        (500i64, 12i64, 6i64)
    } else {
        (20_000, 40, 10)
    };

    // static-pipeline construction, individually timed per workload and
    // captured so the phase breakdown lands in the JSON
    let build = || {
        let t0 = Instant::now();
        let stream = Stream::new();
        let stream_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let dgemm = Dgemm::new();
        let dgemm_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let minife = MiniFe::new();
        let minife_ms = t0.elapsed().as_secs_f64() * 1e3;
        (stream, stream_ms, dgemm, dgemm_ms, minife, minife_ms)
    };
    let (built, ctrace) = if mira_probe::enabled() {
        (build(), None)
    } else {
        let (b, t) = mira_probe::capture(build);
        (b, Some(t))
    };
    let (stream, stream_ms, dgemm, dgemm_ms, minife, minife_ms) = built;
    let stream_shape = |n| Shape::Stream { n, reps: 2 };
    let square = Shape::Square {
        n: dgemm_n,
        reps: 1,
    };
    let solve = Shape::MiniFe {
        nx: grid,
        ny: grid,
        nz: grid,
        max_iter: 500,
        tol: 1e-8,
    };
    let workloads = [
        (
            "stream_triad",
            &stream.analysis.object,
            stream_shape(stream_n),
            "stream_kernels",
        ),
        ("dgemm", &dgemm.analysis.object, square, "dgemm_bench"),
        ("minife_cg", &minife.analysis.object, solve, "cg_solve"),
    ];

    if pairs {
        print_pairs(&workloads);
        return (None, ctrace);
    }
    if hot {
        print_hot(&workloads);
        return (None, ctrace);
    }
    if bench.check {
        check_steps(bench, &workloads);
        return (None, ctrace);
    }

    let spill = mira_vcc::Options::spill_everything();
    let spilled = [
        Stream::with_compiler(spill).analysis.object,
        Dgemm::with_compiler(spill).analysis.object,
        MiniFe::with_compiler(spill).analysis.object,
    ];
    let opts = VmOptions::default();

    // sanity: the two engines must agree bit for bit before we compare speed
    let (probe, obj) = (stream_shape(200), &stream.analysis.object);
    let a = probe.run::<Vm>(obj, opts, "stream_kernels").vm.profile();
    let b = probe
        .run::<ReferenceVm>(obj, opts, "stream_kernels")
        .vm
        .profile();
    assert_eq!(a, b, "engines diverge — do not trust the numbers");

    let mut rows = Vec::new();
    let analysis_ms = [stream_ms, dgemm_ms, minife_ms];
    for ((&(name, obj, shape, func), spilled), analysis_ms) in
        workloads.iter().zip(&spilled).zip(analysis_ms)
    {
        // each timed round covers loading, setup and the call
        let (steps, engine_ns) = best_of(rounds, || shape.run::<Vm>(obj, opts, func).vm.steps());
        let (rsteps, reference_ns) = best_of(rounds, || {
            shape.run::<ReferenceVm>(obj, opts, func).vm.steps()
        });
        assert_eq!(steps, rsteps);
        let baseline_steps = shape.run::<Vm>(spilled, opts, func).vm.steps();
        rows.push(Row {
            workload: name,
            analysis_ms,
            steps,
            baseline_steps,
            engine_ns,
            reference_ns,
        });
    }

    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": \"{}\", \"analysis_ms\": {:.1}, \"steps\": {}, \"baseline_steps\": {}, \"step_reduction\": {:.2}, \"engine_minst_per_s\": {:.1}, \"reference_minst_per_s\": {:.1}, \"speedup\": {:.2}}}",
                r.workload,
                r.analysis_ms,
                r.steps,
                r.baseline_steps,
                r.step_reduction(),
                r.engine_minst_s(),
                r.reference_minst_s(),
                r.speedup(),
            )
        })
        .collect();
    let json = json_open(&[("bench", "vm_throughput"), ("unit", "Minst/s")], "workloads", &entries);

    println!(
        "{:<14} {:>12} {:>14} {:>10} {:>16} {:>16} {:>9}",
        "workload", "steps", "spill steps", "step red.", "engine Minst/s", "seed Minst/s", "speedup"
    );
    for r in &rows {
        println!(
            "{:<14} {:>12} {:>14} {:>9.2}x {:>16.1} {:>16.1} {:>8.2}x",
            r.workload,
            r.steps,
            r.baseline_steps,
            r.step_reduction(),
            r.engine_minst_s(),
            r.reference_minst_s(),
            r.speedup()
        );
    }
    (Some(json), ctrace)
}

/// `--hot`: run each workload with `VmOptions::block_profile` and print
/// the hottest basic blocks (by retired steps), the µop fusion rates,
/// and the slow-tier step count.
fn print_hot(workloads: &Rows) {
    let opts = VmOptions { block_profile: true, ..VmOptions::default() };
    for &(name, obj, shape, func) in workloads {
        let vm = shape.run::<Vm>(obj, opts, func).vm;
        let total = vm.steps().max(1);
        println!(
            "== {name}: hottest blocks ({} retired steps) ==",
            vm.steps()
        );
        println!(
            "{:<22} {:>6} {:>6} {:>12} {:>12} {:>7} {:>7}",
            "func", "line", "addr", "execs", "steps", "%steps", "fused%"
        );
        for b in vm.block_stats().expect("block_profile is on").iter().take(10) {
            let line = b.line.map(|l| l.to_string()).unwrap_or_else(|| "-".into());
            let fused_pct = if b.uops > 0 {
                100.0 * b.fused_uops as f64 / b.uops as f64
            } else {
                0.0
            };
            println!(
                "{:<22} {:>6} {:>6} {:>12} {:>12} {:>6.1}% {:>6.1}%",
                b.func,
                line,
                b.addr,
                b.execs,
                b.steps,
                100.0 * b.steps as f64 / total as f64,
                fused_pct
            );
        }
        if let Some(f) = vm.fusion_stats() {
            println!(
                "fusion: {} dispatches, {} fused pairs, {:.1}% of fast-tier instructions fused",
                f.dispatches,
                f.fused,
                100.0 * f.fused_inst_rate()
            );
        }
        println!("slow-tier steps: {} ({:.3}% of total)\n", vm.slow_steps(), 100.0 * vm.slow_steps() as f64 / total as f64);
    }
}

/// `--check`: re-measure dynamic step counts (deterministic — no timing)
/// and fail when any workload retired more than 2% extra steps versus
/// the committed BENCH_vm.json.
fn check_steps(bench: &Bench, workloads: &Rows) {
    let mut check = bench.baseline();
    for &(name, obj, shape, func) in workloads {
        let steps = shape.run::<Vm>(obj, VmOptions::default(), func).vm.steps();
        let committed = check.number(name, "steps");
        check.compare(name, "steps", committed, steps as f64, |com, cur| {
            cur <= com * 1.02
        });
    }
    check.finish();
}

/// `--pairs`: print the execution-weighted adjacent-pair histograms the
/// µop fusion table is tuned against, over exactly what the benchmark
/// counts.
fn print_pairs(workloads: &Rows) {
    for &(name, obj, shape, func) in workloads {
        let vm = shape.run::<Vm>(obj, VmOptions::default(), func).vm;
        println!("== {name}: top adjacent pairs (execution-weighted) ==");
        for ((a, b), n) in vm.pair_profile().into_iter().take(20) {
            println!("{n:>12}  {a} + {b}");
        }
        println!();
    }
}
