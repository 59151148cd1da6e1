//! `validate`: the paper's static-vs-dynamic comparison. Models are
//! built during set-up; one op is one (kernel, `n`) row of a seeded size
//! ladder: evaluate the static model (report, tree-walk placement,
//! compiled placement), then run the same binary on a fresh VM with the
//! cache simulator on and place the measured traffic.

use std::time::{Duration, Instant};

use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_mem::MemStats;
use mira_roofline::{dynamic_placement, Ceilings, KernelRoofline, Placement};
use mira_serve::{CompiledKernel, Scratch, ServeError};
use mira_sym::Bindings;
use mira_vm::{HostVal, Vm, VmOptions};
use mira_workloads::minife::{MiniFe, SolveBuffers};

use crate::util::{metric, same_answer, Calibration, Fnv, Layers, Rng, Samples};
use crate::Report;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Triad,
    Stream,
    Dgemm,
    DgemmTiled,
    TriadBlocked,
    Trisolve,
    Stencil,
    MiniFe,
}

/// `(kind, function, source, ladder rungs)`; miniFE's rung is the cube
/// edge `d` (`n = d³` rows).
const KERNELS: [(Kind, &str, &str, [i64; 3]); 8] = [
    (
        Kind::Triad,
        "triad",
        mira_workloads::memval::TRIAD_SRC,
        [8192, 32768, 131_072],
    ),
    (
        Kind::Stream,
        "stream_kernels",
        mira_workloads::stream::STREAM_SRC,
        [8192, 32768, 65536],
    ),
    (
        Kind::Dgemm,
        "dgemm",
        mira_workloads::dgemm::DGEMM_SRC,
        [24, 40, 56],
    ),
    (
        Kind::DgemmTiled,
        "dgemm_tiled",
        mira_workloads::roofval::DGEMM_TILED_SRC,
        [24, 40, 56],
    ),
    (
        Kind::TriadBlocked,
        "triad_blocked",
        mira_workloads::roofval::TRIAD_BLOCKED_SRC,
        [8192, 32768, 131_072],
    ),
    (
        Kind::Trisolve,
        "trisolve",
        mira_workloads::compose::TRISOLVE_SRC,
        [192, 384, 768],
    ),
    (
        Kind::Stencil,
        "stencil_sweep",
        mira_workloads::compose::STENCIL_SWEEP_SRC,
        [8192, 32768, 131_072],
    ),
    (
        Kind::MiniFe,
        "cg_solve",
        mira_workloads::minife::MINIFE_SRC,
        [4, 5, 6],
    ),
];

const REPS: i64 = 2;
/// Static evaluations per row; the row's static time is their median.
const STATIC_EVALS: usize = 5;
const STEPS: i64 = 2;
const CG_MAX_ITER: i64 = 500;
const CG_TOL: f64 = 1e-8;

struct Kernel {
    kind: Kind,
    func: &'static str,
    analysis: Analysis,
    kr: KernelRoofline,
    ck: CompiledKernel,
    c: Ceilings,
    /// Wall time of building this model (analysis, roofline, compile).
    build_ns: f64,
}

/// One ladder row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    kernel: usize,
    n: i64,
}

pub struct Validate {
    kernels: Vec<Kernel>,
    rng: Rng,
}

pub fn setup(seed: u64) -> Result<Validate, String> {
    let opts = MiraOptions::default();
    let mut kernels = Vec::new();
    for (kind, func, src, _) in KERNELS {
        let t = Instant::now();
        let analysis = analyze_source(src, &opts).map_err(|e| format!("{func}: {e}"))?;
        let kr = KernelRoofline::analyze(&analysis, func).map_err(|e| format!("{func}: {e}"))?;
        let c = Ceilings::from_arch(&analysis.arch);
        let ck = CompiledKernel::build(&kr, &c, &analysis.arch.machine.name)
            .map_err(|e| format!("{func}: {e}"))?;
        kernels.push(Kernel {
            kind,
            func,
            analysis,
            kr,
            ck,
            c,
            build_ns: t.elapsed().as_nanos() as f64,
        });
    }
    Ok(Validate {
        kernels,
        rng: Rng::new(seed).fork("validate"),
    })
}

/// One pass of the seeded size ladder: every kernel at every rung, the
/// streaming sizes jittered by up to ±3%, in seeded order.
pub fn ladder(rng: &mut Rng) -> Vec<Row> {
    let mut rows = Vec::new();
    for (k, (kind, _, _, rungs)) in KERNELS.iter().enumerate() {
        for &r in rungs {
            let n = match kind {
                Kind::Triad | Kind::Stream | Kind::Stencil | Kind::Trisolve => {
                    r + rng.range(-r * 3 / 100, r * 3 / 100)
                }
                _ => r,
            };
            rows.push(Row { kernel: k, n });
        }
    }
    rng.shuffle(&mut rows);
    rows
}

/// Everything one row measured and checked.
struct RowOut {
    static_ns: f64,
    dynamic_ns: f64,
    call_ns: f64,
    steps: u64,
    slow_steps: u64,
    fused_insts: u64,
    fast_insts: u64,
    answer: Result<Placement, String>,
}

// Arrays are allocated zeroed in VM memory, with no host-side buffer:
// the counted instructions and bytes of these kernels do not depend on
// the data, and building a host copy per row would churn the host heap
// (and make peak RSS depend on the order the seed draws).

fn stream_args(vm: &mut Vm, n: i64, reps: i64) -> Vec<HostVal> {
    let a = vm.alloc_zeroed_f64(n as usize);
    let b = vm.alloc_zeroed_f64(n as usize);
    let c = vm.alloc_zeroed_f64(n as usize);
    vec![
        HostVal::Int(n),
        HostVal::Int(reps),
        HostVal::Int(a as i64),
        HostVal::Int(b as i64),
        HostVal::Int(c as i64),
        HostVal::Fp(3.0),
    ]
}

fn square_args(vm: &mut Vm, n: i64, reps: i64) -> Vec<HostVal> {
    let nn = (n * n) as usize;
    let a = vm.alloc_zeroed_f64(nn);
    let b = vm.alloc_zeroed_f64(nn);
    let c = vm.alloc_zeroed_f64(nn);
    vec![
        HostVal::Int(n),
        HostVal::Int(reps),
        HostVal::Int(a as i64),
        HostVal::Int(b as i64),
        HostVal::Int(c as i64),
    ]
}

/// VM memory for a row: the arrays plus the 64 MiB the harnesses in
/// `mira-workloads` reserve for stack and slack.
fn mem_size(kind: Kind, n: i64) -> usize {
    let elems = match kind {
        Kind::Dgemm | Kind::DgemmTiled | Kind::Trisolve => n * n,
        Kind::MiniFe => return mira_workloads::minife::solve_mem_size((n * n * n) as usize),
        _ => n,
    };
    3 * elems as usize * 8 + (64 << 20)
}

/// A finished dynamic run: the VM (counters scoped to the measured
/// call), the call's wall time, and the bindings the static side is
/// evaluated at.
struct Dynamic {
    vm: Vm,
    call_ns: f64,
    binds: Vec<(&'static str, i128)>,
}

/// Load a fresh VM and run the row's kernel.
fn run_dynamic(k: &Kernel, n: i64, profile: bool, blocks: bool) -> Result<Dynamic, String> {
    let mut vm = {
        let _a = mira_probe::accum("bench.vm.load");
        Vm::load(
            &k.analysis.object,
            VmOptions {
                mem_size: mem_size(k.kind, n),
                mem_profile: profile.then(|| k.analysis.arch.cache_hierarchy()),
                block_profile: blocks,
                ..VmOptions::default()
            },
        )
        .map_err(|e| e.to_string())?
    };
    let (args, mut binds) = match k.kind {
        Kind::Triad | Kind::Stream | Kind::TriadBlocked => (
            stream_args(&mut vm, n, REPS),
            vec![("n", n as i128), ("reps", REPS as i128)],
        ),
        Kind::Dgemm | Kind::DgemmTiled => (
            square_args(&mut vm, n, 1),
            vec![("n", n as i128), ("reps", 1)],
        ),
        Kind::Trisolve => {
            let l = vm.alloc_zeroed_f64((n * n) as usize);
            let b = vm.alloc_zeroed_f64(n as usize);
            let x = vm.alloc_zeroed_f64(n as usize);
            let args = [n, l as i64, b as i64, x as i64].map(HostVal::Int).to_vec();
            (args, vec![("n", n as i128)])
        }
        Kind::Stencil => {
            let u = vm.alloc_zeroed_f64(n as usize);
            let v = vm.alloc_zeroed_f64(n as usize);
            let args = [n, STEPS, u as i64, v as i64].map(HostVal::Int).to_vec();
            (args, vec![("n", n as i128), ("steps", STEPS as i128)])
        }
        Kind::MiniFe => {
            // assemble first; the measured solve starts from cold caches
            let rows = n * n * n;
            let bufs = SolveBuffers::alloc(&mut vm, rows as usize);
            vm.call("assemble", &bufs.assemble_args(n, n, n))
                .map_err(|e| format!("assemble: {e}"))?;
            vm.reset_counters();
            let nnz = MiniFe::nnz_row_milli(n, n, n) as i128;
            (
                bufs.solve_args(rows, CG_MAX_ITER, CG_TOL),
                vec![("n", rows as i128), ("nnz_row_milli", nnz)],
            )
        }
    };
    let t = Instant::now();
    {
        let _a = mira_probe::accum("bench.vm.call");
        vm.call(k.func, &args)
            .map_err(|e| format!("{}: {e}", k.func))?;
    }
    let call_ns = t.elapsed().as_nanos() as f64;
    if k.kind == Kind::MiniFe {
        let iters = vm.int_return();
        if iters >= CG_MAX_ITER {
            return Err(format!(
                "cg_solve did not converge in {CG_MAX_ITER} iterations"
            ));
        }
        binds.push(("cg_iters", iters as i128));
    }
    {
        let _a = mira_probe::accum("bench.vm.flush");
        vm.flush_mem();
    }
    Ok(Dynamic { vm, call_ns, binds })
}

/// What one row observed: the static side's report and two placements,
/// and the dynamic side's FP count and simulated traffic.
#[derive(Clone)]
struct Observed {
    report: mira_model::Report,
    tree: Placement,
    served: Result<Placement, ServeError>,
    dyn_fpi: i128,
    stats: MemStats,
}

/// The row's oracle: the compiled placement equals the tree walk bit for
/// bit, FPI and data bytes equal the measured ones exactly, and the
/// binding roof agrees with the placement of the simulated traffic.
fn check(k: &Kernel, o: &Observed) -> Result<(), String> {
    let tree = o.tree;
    if !same_answer(&o.served, &Ok::<_, String>(tree)) {
        return Err(format!("compiled {:?} vs tree walk {tree:?}", o.served));
    }
    let static_fpi = o.report.fpi(&k.analysis.arch);
    // miniFE's FP count rests on annotations and misses by ~0.5%
    // (Table V carries a tolerance), so only the affine kernels pin
    // FPI exactly
    if k.kind != Kind::MiniFe && static_fpi != o.dyn_fpi {
        return Err(format!("FPI: static {static_fpi} vs dynamic {}", o.dyn_fpi));
    }
    let static_bytes = o.report.data_bytes();
    if static_bytes != o.stats.data_bytes() as i128 {
        return Err(format!(
            "data bytes: static {static_bytes} vs simulated {}",
            o.stats.data_bytes()
        ));
    }
    let dynamic_p = dynamic_placement(o.report.flops, &o.stats, &k.c, k.kr.vectorized);
    if !tree.agrees_with(&dynamic_p) {
        return Err(format!(
            "binding roof: static {tree} vs simulated {dynamic_p}"
        ));
    }
    Ok(())
}

impl Validate {
    /// Run one row on both sides and time it, without judging it.
    fn observe(
        &self,
        row: Row,
        traced: bool,
        s: &mut Scratch,
    ) -> Result<(Observed, RowOut), String> {
        let k = &self.kernels[row.kernel];
        let arch = &k.analysis.arch;
        // the dynamic side: fresh VM, cache simulator on
        let t = Instant::now();
        let Dynamic { vm, call_ns, binds } = run_dynamic(k, row.n, true, traced)?;
        let stats = vm.mem_stats().ok_or("memory profiling was off")?;
        let dyn_fpi = vm.profile().fpi(k.func, arch);
        let dynamic_ns = t.elapsed().as_nanos() as f64;

        // the static side: model report, tree walk, compiled placement
        let b: Bindings = binds.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        let vals: Vec<i128> =
            k.ck.params()
                .iter()
                .map(|p| {
                    binds
                        .iter()
                        .find(|(n, _)| n == p)
                        .map(|(_, v)| *v)
                        .unwrap_or(0)
                })
                .collect();
        let eval = |s: &mut Scratch| {
            let report = {
                let _a = mira_probe::accum("bench.core.model_eval");
                k.analysis.report(k.func, &b)
            };
            let tree = {
                let _a = mira_probe::accum("bench.roofline.place");
                k.kr.place(&k.c, &b)
            };
            let served = {
                let _a = mira_probe::accum("bench.serve.place");
                k.ck.place_values(&vals, s)
            };
            (report, tree, served)
        };
        // evaluated STATIC_EVALS times back to back; the row's time is
        // their median, so one evaluation slowed by the caches the VM run
        // left behind, or by an interrupt, does not set it
        let mut times = [0f64; STATIC_EVALS];
        let mut last = None;
        for time in &mut times {
            let t = Instant::now();
            let r = std::hint::black_box(eval(s));
            *time = t.elapsed().as_nanos() as f64;
            last = Some(r);
        }
        times.sort_by(f64::total_cmp);
        let static_ns = times[STATIC_EVALS / 2];
        let (report, tree, served) = last.ok_or("no static evaluation ran")?;

        let seen = Observed {
            report: report.map_err(|e| format!("model: {e}"))?,
            tree: tree.map_err(|e| format!("tree walk: {e}"))?,
            served,
            dyn_fpi,
            stats,
        };
        let fusion = vm.fusion_stats().unwrap_or_default();
        let out = RowOut {
            static_ns,
            dynamic_ns,
            call_ns,
            steps: vm.steps(),
            slow_steps: vm.slow_steps(),
            fused_insts: 2 * fusion.fused,
            fast_insts: fusion.fast_insts,
            answer: Ok(seen.tree),
        };
        if traced {
            // the cache simulator's share: the same call with it off
            let off_ns = run_dynamic(k, row.n, false, false)?.call_ns;
            mira_probe::add("bench.vm.call_on_ns", call_ns as i64);
            mira_probe::add("bench.vm.call_off_ns", off_ns as i64);
        }
        Ok((seen, out))
    }

    /// One op: observe the row, then check it against the oracle.
    fn row(&self, row: Row, traced: bool, s: &mut Scratch) -> Result<RowOut, String> {
        let (seen, out) = self.observe(row, traced, s)?;
        check(&self.kernels[row.kernel], &seen)?;
        Ok(out)
    }

    pub fn measure(
        &mut self,
        seconds: f64,
        mut layers: Option<&mut Layers>,
        cal: &mut Calibration,
    ) -> Report {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let traced = layers.is_some();
        let mut s = Scratch::new();
        let mut statics = Samples::default();
        let mut windows = Samples::default();
        let (mut pass_steps, mut pass_ns) = (0u64, 0f64);
        let mut dynamics = Samples::default();
        let (mut steps, mut call_ns) = (0u64, 0f64);
        let (mut slow, mut fused, mut fast) = (0u64, 0u64, 0u64);
        let mut first_pass_steps = 0u64;
        let mut by_rung: Vec<[Samples; 2]> = vec![Default::default(); KERNELS.len()];
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut hash = Fnv::new();
        // warm-up, unmeasured: every kernel at its largest rung, so the
        // allocator reaches its steady state (and the peak footprint)
        // the same way whatever order the seed draws
        for (k, (_, _, _, rungs)) in KERNELS.iter().enumerate() {
            let _ = self.row(
                Row {
                    kernel: k,
                    n: rungs[2],
                },
                false,
                &mut s,
            );
        }
        let mut pass = 0;
        'run: loop {
            for row in ladder(&mut self.rng) {
                if pass > 0 && Instant::now() >= deadline {
                    break 'run;
                }
                let clock = cal.factor();
                let mut unit = || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.row(row, traced, &mut s)
                    }))
                    .unwrap_or_else(|_| Err("panicked".to_string()))
                };
                let out = match layers.as_deref_mut() {
                    Some(l) => l.capture(unit),
                    None => unit(),
                };
                attempted += 1;
                let out = match out {
                    Ok(o) => o,
                    Err(why) => {
                        failed += 1;
                        eprintln!("validate: {} n={}: {why}", KERNELS[row.kernel].1, row.n);
                        if pass == 0 {
                            hash.byte(0xfe);
                        }
                        continue;
                    }
                };
                pass_steps += out.steps;
                pass_ns += out.call_ns * clock;
                statics.push(out.static_ns * clock);
                dynamics.push(out.dynamic_ns * clock);
                steps += out.steps;
                call_ns += out.call_ns;
                slow += out.slow_steps;
                fused += out.fused_insts;
                fast += out.fast_insts;
                let rungs = KERNELS[row.kernel].3;
                if row.n <= rungs[0] + rungs[0] / 20 {
                    by_rung[row.kernel][0].push(out.static_ns);
                } else if row.n >= rungs[2] - rungs[2] / 20 {
                    by_rung[row.kernel][1].push(out.static_ns);
                }
                if pass == 0 {
                    first_pass_steps += out.steps;
                    hash.answer(&out.answer);
                }
            }
            // a whole ladder pass is one throughput window: instructions
            // over instrumented call time, summed across its rows
            windows.push(pass_steps as f64 / (pass_ns / 1e9));
            (pass_steps, pass_ns) = (0, 0.0);
            pass += 1;
        }
        let rows_first = (KERNELS.len() * 3) as f64;
        Report::new(attempted, failed, hash.finish(), |r| {
            r.e2e_median(&windows, "throughput_per_s", "1/s", "dynamic_inst_per_s");
            r.e2e_pct(&statics, 1e-3, "answer_us", "us", "static_eval_us");
            r.e2e_pct(&dynamics, 1e-6, "slow_path_ms", "ms", "dynamic_run_ms");
            // the paper's point: static cost does not grow with n
            for (k, [small, large]) in by_rung.iter().enumerate() {
                let mean = |s: &Samples| s.sum() / s.len().max(1) as f64 / 1e3;
                r.note(format!(
                    "static eval {:<14} mean {:>8.2} us at the smallest n, {:>8.2} us at the largest",
                    KERNELS[k].1,
                    mean(small),
                    mean(large)
                ));
            }
            if let Some(l) = layers.as_deref() {
                let per_eval = |row: &str| l.total_ns(row) / l.calls(row).max(1) as f64 / 1e3;
                let loads = l.calls("bench.vm.load").max(1) as f64;
                r.layer(metric(
                    "vm.load_us",
                    l.total_ns("bench.vm.load") / loads / 1e3,
                    "us",
                ));
                r.layer(metric(
                    "vm.steps",
                    first_pass_steps as f64 / rows_first,
                    "count",
                ));
                r.layer(metric(
                    "vm.fused_share",
                    fused as f64 / fast.max(1) as f64,
                    "ratio",
                ));
                r.layer(metric(
                    "vm.slow_step_share",
                    slow as f64 / steps.max(1) as f64,
                    "ratio",
                ));
                let on = l.counter("bench.vm.call_on_ns") as f64;
                let off = l.counter("bench.vm.call_off_ns") as f64;
                r.layer(metric("mem.cachesim_share", 1.0 - off / on, "ratio"));
                r.layer(metric(
                    "core.model_eval_us",
                    per_eval("bench.core.model_eval"),
                    "us",
                ));
                r.layer(metric(
                    "roofline.place_us",
                    per_eval("bench.roofline.place"),
                    "us",
                ));
                r.layer(metric(
                    "serve.place_ns",
                    per_eval("bench.serve.place") * 1e3,
                    "ns",
                ));
                let rate = steps as f64 / (call_ns / 1e9);
                r.layer(metric(
                    "validate.breakeven_n",
                    self.breakeven_n(rate)? as f64,
                    "n",
                ));
            }
            Ok(())
        })
    }

    /// The triad size beyond which one model build (set-up's measured
    /// analysis + roofline + compile) costs less than one instrumented
    /// run at `rate` instructions per second — the paper's §IV-D1
    /// trade-off as one number.
    fn breakeven_n(&self, rate: f64) -> Result<i128, String> {
        let k = self
            .kernels
            .iter()
            .find(|k| k.kind == Kind::Triad)
            .ok_or("no triad kernel")?;
        let run_s = |n: i128| -> Result<f64, String> {
            let b: Bindings = [("n".to_string(), n), ("reps".to_string(), 1)]
                .into_iter()
                .collect();
            let r = k.analysis.report(k.func, &b).map_err(|e| e.to_string())?;
            Ok(r.total() as f64 / rate)
        };
        let build_s = k.build_ns / 1e9;
        let (mut lo, mut hi) = (1i128, 2i128);
        while run_s(hi)? < build_s {
            lo = hi;
            hi *= 2;
            if hi > 1 << 40 {
                return Err("breakeven beyond 2^40".into());
            }
        }
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if run_s(mid)? < build_s {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ladder() {
        let a = ladder(&mut Rng::new(1));
        assert_eq!(a, ladder(&mut Rng::new(1)));
        assert_ne!(a, ladder(&mut Rng::new(2)));
        assert_eq!(a.len(), KERNELS.len() * 3);
    }

    /// An honest row passes the row's oracle; the same observation with
    /// one answer corrupted — the compiled placement one ulp off, the
    /// static byte count or the measured FP count changed — fails it.
    #[test]
    fn corrupted_row_fails_the_check() {
        let v = setup(1).unwrap();
        let mut s = Scratch::new();
        let row = Row { kernel: 0, n: 1024 };
        assert!(v.row(row, false, &mut s).is_ok(), "triad row checks");
        let (seen, _) = v.observe(row, false, &mut s).expect("triad row runs");
        let k = &v.kernels[row.kernel];
        assert_eq!(check(k, &seen), Ok(()));
        let mut served = seen.clone();
        match &mut served.served {
            Ok(p) => p.mem_cycles[1] = f64::from_bits(p.mem_cycles[1].to_bits() + 1),
            Err(e) => panic!("triad must place: {e}"),
        }
        assert!(check(k, &served).is_err(), "compiled answer one ulp off");
        let mut bytes = seen.clone();
        bytes.report.data_load_bytes += 8;
        assert!(check(k, &bytes).is_err(), "static bytes one element off");
        let mut fpi = seen;
        fpi.dyn_fpi += 1;
        assert!(check(k, &fpi).is_err(), "measured FP count one off");
    }
}
