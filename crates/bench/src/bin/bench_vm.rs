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
use mira_vm::{HostVal, Vm, VmOptions};
use mira_vobj::Object;
use mira_workloads::minife::{SolveAlloc, SolveBuffers};
use mira_workloads::{dgemm::Dgemm, minife::MiniFe, stream::Stream};
use std::time::Instant;

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

/// The surface of the two interpreters this bench drives (both count
/// retired steps with an inherent `steps()`).
trait Engine: SolveAlloc + Sized {
    fn load(obj: &Object, options: VmOptions) -> Self;
    fn alloc(&mut self, data: &[f64]) -> u64;
    fn call(&mut self, func: &str, args: &[HostVal]);
    fn reset(&mut self);
}

impl Engine for Vm {
    fn load(obj: &Object, options: VmOptions) -> Self {
        Vm::load(obj, options).expect("workload object loads")
    }
    fn alloc(&mut self, data: &[f64]) -> u64 {
        self.alloc_f64(data)
    }
    fn call(&mut self, func: &str, args: &[HostVal]) {
        Vm::call(self, func, args).expect("workload runs");
    }
    fn reset(&mut self) {
        self.reset_counters();
    }
}

impl Engine for ReferenceVm {
    fn load(obj: &Object, options: VmOptions) -> Self {
        ReferenceVm::load(obj, options).expect("workload object loads")
    }
    fn alloc(&mut self, data: &[f64]) -> u64 {
        self.alloc_f64(data)
    }
    fn call(&mut self, func: &str, args: &[HostVal]) {
        ReferenceVm::call(self, func, args).expect("workload runs");
    }
    fn reset(&mut self) {
        self.reset_counters();
    }
}

#[derive(Clone, Copy)]
enum Kernel {
    Stream,
    Dgemm,
    MiniFe,
}

/// One row's workload: a compiled object, its kernel and its size (array
/// length, matrix order or grid edge).
#[derive(Clone, Copy)]
struct Workload<'a> {
    name: &'static str,
    kernel: Kernel,
    obj: &'a Object,
    size: i64,
}

impl Workload<'_> {
    /// Run on a fresh engine and hand it back, its counters covering what
    /// the row counts. miniFE counts the CG solve only: the assembly runs
    /// first and its counts are reset away, like the paper scopes TAU to
    /// the solve. The allocation shape and call contracts live in
    /// `mira_workloads::minife` (`SolveBuffers`).
    fn run<V: Engine>(&self, options: VmOptions) -> V {
        let mut vm = V::load(self.obj, options);
        let n = self.size;
        match self.kernel {
            Kernel::Stream => {
                let a = vm.alloc(&vec![1.0; n as usize]);
                let b = vm.alloc(&vec![2.0; n as usize]);
                let c = vm.alloc(&vec![0.0; n as usize]);
                let [a, b, c] = [a, b, c].map(|p| HostVal::Int(p as i64));
                vm.call("stream_kernels", &[HostVal::Int(n), HostVal::Int(2), a, b, c, HostVal::Fp(3.0)]);
            }
            Kernel::Dgemm => {
                let sz = (n * n) as usize;
                let a = vm.alloc(&vec![1.0; sz]);
                let b = vm.alloc(&vec![2.0; sz]);
                let c = vm.alloc(&vec![0.0; sz]);
                let [a, b, c] = [a, b, c].map(|p| HostVal::Int(p as i64));
                vm.call("dgemm_bench", &[HostVal::Int(n), HostVal::Int(1), a, b, c]);
            }
            Kernel::MiniFe => {
                let cells = (n * n * n) as usize;
                let bufs = SolveBuffers::alloc(&mut vm, cells);
                vm.call("assemble", &bufs.assemble_args(n, n, n));
                vm.reset();
                vm.call("cg_solve", &bufs.solve_args(cells as i64, 500, 1e-8));
            }
        }
        vm
    }
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
    let workloads = [
        Workload { name: "stream_triad", kernel: Kernel::Stream, obj: &stream.analysis.object, size: stream_n },
        Workload { name: "dgemm", kernel: Kernel::Dgemm, obj: &dgemm.analysis.object, size: dgemm_n },
        Workload { name: "minife_cg", kernel: Kernel::MiniFe, obj: &minife.analysis.object, size: grid },
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
    let probe = Workload { size: 200, ..workloads[0] };
    let (a, b): (Vm, ReferenceVm) = (probe.run(opts), probe.run(opts));
    assert_eq!(a.profile(), b.profile(), "engines diverge — do not trust the numbers");

    let mut rows = Vec::new();
    for ((w, spilled), analysis_ms) in workloads.iter().zip(&spilled).zip([stream_ms, dgemm_ms, minife_ms]) {
        let (steps, engine_ns) = best_of(rounds, || w.run::<Vm>(opts).steps());
        let (rsteps, reference_ns) = best_of(rounds, || w.run::<ReferenceVm>(opts).steps());
        assert_eq!(steps, rsteps);
        let baseline_steps = Workload { obj: spilled, ..*w }.run::<Vm>(opts).steps();
        rows.push(Row {
            workload: w.name,
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
fn print_hot(workloads: &[Workload]) {
    let opts = VmOptions { block_profile: true, ..VmOptions::default() };
    for w in workloads {
        let vm: Vm = w.run(opts);
        let total = vm.steps().max(1);
        println!("== {}: hottest blocks ({} retired steps) ==", w.name, vm.steps());
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
fn check_steps(bench: &Bench, workloads: &[Workload]) {
    let mut check = bench.baseline();
    for w in workloads {
        let steps = w.run::<Vm>(VmOptions::default()).steps();
        let committed = check.number(w.name, "steps");
        check.compare(w.name, "steps", committed, steps as f64, |com, cur| cur <= com * 1.02);
    }
    check.finish();
}

/// `--pairs`: print the execution-weighted adjacent-pair histograms the
/// µop fusion table is tuned against, over exactly what the benchmark
/// counts.
fn print_pairs(workloads: &[Workload]) {
    for w in workloads {
        let vm: Vm = w.run(VmOptions::default());
        println!("== {}: top adjacent pairs (execution-weighted) ==", w.name);
        for ((a, b), n) in vm.pair_profile().into_iter().take(20) {
            println!("{n:>12}  {a} + {b}");
        }
        println!();
    }
}
