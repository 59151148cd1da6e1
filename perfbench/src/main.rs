//! `perfbench` — the repo's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_model|fleet|validate|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload all` runs the three one after another, each in a process
//! of its own so each peak RSS is that workload's alone.
//!
//! Each workload is a closed loop driven by one thread. It sets up
//! several times (the median is `setup_s`), measures for `--seconds`,
//! checks every op against an independent oracle, prints a human table
//! under the metric names of the workload, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Every workload
//! reports the same end-to-end metrics, each read in the workload's own
//! terms:
//!
//! | metric             | cold_model               | fleet              | validate                  |
//! |--------------------|--------------------------|--------------------|---------------------------|
//! | `throughput_per_s` | models built per s       | queries per s      | VM instructions per s     |
//! | `answer_us_p*`     | first placement          | one sweep (512 n)  | static model evaluation   |
//! | `slow_path_ms_p*`  | source → first answer    | reload             | instrumented dynamic run  |
//!
//! plus `setup_s` and `peak_rss_mb`. `--trace 1` measures half the time
//! untraced and half traced, adds a short traced census of the other
//! two workloads so every per-layer metric is measured, prints the
//! per-layer table with the end-to-end metric each row should move, and
//! writes it and a Chrome trace under the cargo target directory.

mod cold_model;
mod fleet;
mod inputs;
mod util;
mod validate;

use std::fmt::Write as _;
use std::time::Instant;

use util::{metric, out_dir, peak_rss_mb, Calibration, Layers, Metric, Samples};

const WORKLOADS: [&str; 3] = ["cold_model", "fleet", "validate"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Seconds each other workload runs traced in a `--trace 1` census.
const CENSUS_SECONDS: f64 = 2.0;

/// Every per-layer metric: `(name, unit, which end-to-end metrics it
/// should move on which workload, and where it should move nothing)`.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "minic.frontend_us",
        "us",
        "cold_model: slow_path_ms, throughput; none on validate",
    ),
    (
        "vcc.compile_us",
        "us",
        "cold_model: slow_path_ms, throughput; none on validate",
    ),
    (
        "vcc.insts",
        "count",
        "cold_model: slow_path_ms, throughput; none on validate",
    ),
    (
        "vobj.disassemble_us",
        "us",
        "cold_model: slow_path_ms, throughput; none on validate",
    ),
    (
        "core.metrics_us",
        "us",
        "cold_model: slow_path_ms, throughput; fleet: slow_path_ms",
    ),
    (
        "mem.analyze_us",
        "us",
        "cold_model: slow_path_ms, throughput; none on validate",
    ),
    (
        "mem.nest_refusals",
        "count",
        "cold_model: slow_path_ms, throughput; none on validate",
    ),
    (
        "roofline.analyze_us",
        "us",
        "cold_model: slow_path_ms, throughput; fleet: slow_path_ms",
    ),
    (
        "serve.compile_us",
        "us",
        "cold_model: slow_path_ms, throughput; fleet: slow_path_ms",
    ),
    (
        "serve.program_ops",
        "count",
        "cold_model: slow_path_ms; fleet, validate: answer_us",
    ),
    (
        "serve.hit_ns_p50",
        "ns",
        "fleet: answer_us, throughput; none on cold_model",
    ),
    (
        "serve.miss_ns_p50",
        "ns",
        "fleet: answer_us, throughput; validate: answer_us",
    ),
    (
        "serve.cache_hit_rate",
        "ratio",
        "fleet: answer_us, throughput; none on cold_model",
    ),
    (
        "serve.cache_evictions",
        "per_1k",
        "fleet: answer_us, throughput; none on cold_model",
    ),
    (
        "serve.cache_invalidations",
        "per_1k",
        "fleet: answer_us, throughput; none on cold_model",
    ),
    (
        "serve.reload_recompiled",
        "count",
        "fleet: slow_path_ms, throughput",
    ),
    ("arch.load_dir_ms", "ms", "fleet: slow_path_ms, throughput"),
    ("reload.analyze_ms", "ms", "fleet: slow_path_ms, throughput"),
    (
        "reload.roofline_ms",
        "ms",
        "fleet: slow_path_ms, throughput",
    ),
    ("reload.build_ms", "ms", "fleet: slow_path_ms, throughput"),
    (
        "vm.load_us",
        "us",
        "validate: slow_path_ms, throughput; none on cold_model, fleet",
    ),
    (
        "vm.steps",
        "count",
        "validate: slow_path_ms; none on cold_model, fleet",
    ),
    (
        "vm.fused_share",
        "ratio",
        "validate: throughput, slow_path_ms; none on cold_model, fleet",
    ),
    (
        "vm.slow_step_share",
        "ratio",
        "validate: throughput, slow_path_ms; none on cold_model, fleet",
    ),
    (
        "mem.cachesim_share",
        "ratio",
        "validate: throughput, slow_path_ms; none on cold_model, fleet",
    ),
    (
        "core.model_eval_us",
        "us",
        "validate: answer_us; none on cold_model, fleet",
    ),
    (
        "roofline.place_us",
        "us",
        "validate: answer_us; none on cold_model, fleet",
    ),
    (
        "serve.place_ns",
        "ns",
        "validate: answer_us; fleet: answer_us",
    ),
    (
        "validate.breakeven_n",
        "n",
        "informational (a faster VM raises it, a faster build lowers it)",
    ),
    (
        "probe.overhead_share",
        "ratio",
        "traced vs untraced throughput of the workload run",
    ),
];

/// What one measured stretch of a workload produced.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the answers of a fixed, seed-determined prefix of
    /// the run — two runs on one seed must print the same hash.
    pub hash: u64,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// The end-to-end figures under the workload's own metric names.
    pub human: Vec<Metric>,
    pub notes: Vec<String>,
    pub error: Option<String>,
    /// An end-to-end percentile the run had too few samples for. Fatal
    /// for an untraced run; a traced census measures layers only.
    pub short: Option<String>,
    /// Mean of the throughput windows, for the tracing overhead: a
    /// traced half-run may hold too few windows for a median.
    rate: f64,
}

impl Report {
    pub fn new(
        attempted: u64,
        failed: u64,
        hash: u64,
        fill: impl FnOnce(&mut Report) -> Result<(), String>,
    ) -> Report {
        let mut r = Report {
            attempted,
            failed,
            hash,
            e2e: Vec::new(),
            layers: Vec::new(),
            human: Vec::new(),
            notes: Vec::new(),
            error: None,
            short: None,
            rate: f64::NAN,
        };
        if let Err(e) = fill(&mut r) {
            r.error = Some(e);
        }
        r
    }

    pub fn e2e(&mut self, m: Metric, own_name: &str) {
        self.human.push(metric(own_name, m.value, m.unit));
        self.e2e.push(m);
    }

    /// `<base>_p50` and `<base>_p90` of `s` (scaled into `unit`); the
    /// human table also gets p99 when the run has samples enough.
    pub fn e2e_pct(
        &mut self,
        s: &Samples,
        scale: f64,
        base: &str,
        unit: &'static str,
        own_name: &str,
    ) {
        for (q, tag) in [(0.5, "p50"), (0.9, "p90")] {
            let name = format!("{base}_{tag}");
            match s.pct(q, &name) {
                Ok(v) => self.e2e(metric(&name, v * scale, unit), &format!("{own_name}_{tag}")),
                Err(e) => self.short = Some(e),
            }
        }
        if let Ok(v) = s.pct(0.99, "p99") {
            self.human
                .push(metric(&format!("{own_name}_p99"), v * scale, unit));
        }
        self.notes.push(format!("{own_name}: {} samples", s.len()));
    }

    /// The median of per-window rates: a transient stall of the host
    /// moves a window or two, not the figure.
    pub fn e2e_median(
        &mut self,
        windows: &Samples,
        name: &str,
        unit: &'static str,
        own_name: &str,
    ) {
        self.rate = windows.sum() / windows.len() as f64;
        match windows.pct(0.5, name) {
            Ok(v) => self.e2e(metric(name, v, unit), own_name),
            Err(e) => self.short = Some(e),
        }
    }

    pub fn layer(&mut self, m: Metric) {
        self.layers.push(m);
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    fn throughput(&self) -> f64 {
        self.rate
    }
}

enum Bench {
    Cold(cold_model::ColdModel),
    Fleet(Box<fleet::Fleet>),
    Validate(validate::Validate),
}

impl Bench {
    fn setup(workload: &str, seed: u64) -> Result<Bench, String> {
        Ok(match workload {
            "cold_model" => Bench::Cold(cold_model::setup(seed)?),
            "fleet" => Bench::Fleet(Box::new(fleet::setup(seed)?)),
            "validate" => Bench::Validate(validate::setup(seed)?),
            other => return Err(format!("unknown workload `{other}`")),
        })
    }

    /// Set up `reps` times from scratch; keep the last, return the
    /// median set-up time in seconds.
    fn setup_timed(
        workload: &str,
        seed: u64,
        reps: usize,
        cal: &mut Calibration,
    ) -> Result<(Bench, f64), String> {
        let mut times = Vec::new();
        let mut kept = None;
        for _ in 0..reps {
            drop(kept.take());
            let clock = cal.probe();
            let t = Instant::now();
            kept = Some(Bench::setup(workload, seed)?);
            times.push(t.elapsed().as_secs_f64() * clock);
        }
        times.sort_by(|a, b| a.total_cmp(b));
        let bench = kept.ok_or("no set-up ran")?;
        Ok((bench, times[times.len() / 2]))
    }

    fn measure(
        &mut self,
        seconds: f64,
        layers: Option<&mut Layers>,
        cal: &mut Calibration,
    ) -> Report {
        match self {
            Bench::Cold(b) => b.measure(seconds, layers, cal),
            Bench::Fleet(b) => b.measure(seconds, layers, cal),
            Bench::Validate(b) => b.measure(seconds, layers, cal),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload.as_str();
    if w == "all" {
        return run_all(&args);
    }
    if !args.trace {
        let mut cal = Calibration::new();
        let (mut bench, setup_s) = Bench::setup_timed(w, args.seed, SETUP_REPS, &mut cal)?;
        let mut r = bench.measure(args.seconds, None, &mut cal);
        drop(bench);
        if let Some(e) = r.error.take().or(r.short.take()) {
            return Err(e);
        }
        r.e2e.insert(0, metric("setup_s", setup_s, "s"));
        r.e2e.insert(1, metric("peak_rss_mb", peak_rss_mb()?, "MB"));
        let cal_ns = cal.median_ns()?;
        println!("workload {w}  seed {}  seconds {}", args.seed, args.seconds);
        print_rows("end-to-end (on the reference clock)", &r.e2e);
        print_rows(&format!("as named for {w}"), &r.human);
        println!(
            "  calibration probe median {:.1} us (reference {:.1} us)",
            cal_ns / 1e3,
            util::CAL_REF_NS / 1e3
        );
        for n in &r.notes {
            println!("  {n}");
        }
        println!(
            "  ops {}  failed {}  answer_hash {:016x}",
            r.attempted, r.failed, r.hash
        );
        return print_json(r.failed, r.attempted, &r.e2e);
    }

    // --trace 1: untraced and traced halves of the same workload, then
    // a short traced census of the other two
    let mut cal = Calibration::new();
    let (mut bench, _) = Bench::setup_timed(w, args.seed, 1, &mut cal)?;
    let plain = bench.measure(args.seconds / 2.0, None, &mut cal);
    let mut layers = Layers::default();
    let mut traced = bench.measure(args.seconds / 2.0, Some(&mut layers), &mut cal);
    drop(bench);
    for r in [&plain, &traced] {
        if let Some(e) = &r.error {
            return Err(e.clone());
        }
    }
    let (mut attempted, mut failed) = (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    );
    let overhead = 1.0 - traced.throughput() / plain.throughput();
    traced.layer(metric("probe.overhead_share", overhead, "ratio"));
    let mut sources: Vec<(Metric, &str)> = traced.layers.iter().map(|m| (m.clone(), w)).collect();
    for other in WORKLOADS.iter().filter(|o| **o != w) {
        let (mut b, _) = Bench::setup_timed(other, args.seed, 1, &mut cal)?;
        let mut census = Layers::default();
        let r = b.measure(CENSUS_SECONDS, Some(&mut census), &mut cal);
        if let Some(e) = r.error {
            return Err(format!("{other} census: {e}"));
        }
        attempted += r.attempted;
        failed += r.failed;
        sources.extend(r.layers.into_iter().map(|m| (m, *other)));
    }
    let mut ordered = Vec::new();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<26} {:>14} {:<7} {:<11} should move",
        "per-layer metric", "value", "unit", "measured on"
    );
    for (name, unit, moves) in PER_LAYER {
        let (m, on) = sources
            .iter()
            .find(|(m, _)| m.name == *name)
            .ok_or(format!("per-layer metric {name} was not measured"))?;
        if m.unit != *unit {
            return Err(format!("{name}: unit {} where {unit} is declared", m.unit));
        }
        let _ = writeln!(
            table,
            "{:<26} {:>14.4} {:<7} {:<11} {moves}",
            name, m.value, unit, on
        );
        ordered.push(m.clone());
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let stem = dir.join(format!("{w}-seed{}", args.seed));
    let trace = layers.trace();
    let json_path = stem.with_extension("trace.json");
    std::fs::write(&json_path, trace.chrome_json())
        .map_err(|e| format!("writing {}: {e}", json_path.display()))?;
    let table_path = stem.with_extension("layers.txt");
    std::fs::write(&table_path, format!("{table}\n{}", trace.report()))
        .map_err(|e| format!("writing {}: {e}", table_path.display()))?;
    println!(
        "workload {w}  seed {}  seconds {}  (traced)",
        args.seed, args.seconds
    );
    print!("{table}");
    println!(
        "  ops {attempted}  failed {failed}  answer_hash {:016x}  trace {}",
        traced.hash,
        json_path.display()
    );
    print_json(failed, attempted, &ordered)
}

/// `--workload all`: every workload in a child process of this binary,
/// one after the other.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("running {w}: {e}"))?;
        if !status.success() {
            failed.push(w);
        }
    }
    match failed.is_empty() {
        true => Ok(()),
        false => Err(format!("workloads failed: {failed:?}")),
    }
}

fn print_rows(title: &str, rows: &[Metric]) {
    println!("  {title}:");
    for m in rows {
        println!("    {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The last line of stdout: the result object the contract defines.
fn print_json(failed: u64, attempted: u64, metrics: &[Metric]) -> Result<(), String> {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number ({})", m.name, m.value));
        }
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    println!("{s}");
    Ok(())
}
