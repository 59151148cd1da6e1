//! `cold_model`: one op takes one program on one machine from MiniC
//! source to the first served placement of every function in it,
//! calling each layer through its public entry point.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mira_core::{metrics, Analysis, MiraError, MiraOptions, Phase};
use mira_roofline::{Ceilings, KernelRoofline, Placement};
use mira_serve::{BuildError, CompiledKernel, Scratch, ServeError, ServeIndex};
use mira_sym::EvalError;

use crate::inputs::{cold_programs, machines, param_value, Program};
use crate::util::{metric, Calibration, Fnv, Layers, Rng, Samples};
use crate::Report;

/// What the oracle expects of one function.
#[derive(Debug)]
enum Expect {
    /// `KernelRoofline::analyze` refuses it (typed).
    Refused,
    /// The tree walk's placement at the case's parameter values.
    Answer(Result<mira_roofline::Placement, EvalError>),
}

/// One (program, machine) pair with the oracle's verdict, computed once
/// during set-up through `analyze_source` and the tree walk.
#[derive(Debug)]
struct Case {
    prog: usize,
    machine: usize,
    /// Seeds the parameter values of every function in the program.
    values: u64,
    /// `Err(phase)` when the whole program refuses.
    expect: Result<Vec<(String, Expect)>, Phase>,
}

/// One op's result: the analysis it built (kept for the traced run's
/// access-analysis timing and the per-pass counts), what it served per
/// function, and the compiled programs' total op count.
pub struct Built {
    analysis: Analysis,
    served: Vec<(String, Served)>,
    program_ops: usize,
}

/// What one op served for one function.
#[derive(Debug)]
pub enum Served {
    Refused,
    NotAdmitted(BuildError),
    Answer(Result<Placement, ServeError>),
}

pub struct ColdModel {
    programs: Vec<Program>,
    /// One option set per bundled machine.
    opts: Vec<MiraOptions>,
    cases: Vec<Case>,
    rng: Rng,
}

/// Bindings for every parameter any function of `analysis` references.
fn bindings_for(analysis: &Analysis, case: u64) -> mira_sym::Bindings {
    analysis
        .parameters()
        .into_iter()
        .map(|p| {
            let v = param_value(case, &p);
            (p, v)
        })
        .collect()
}

pub fn setup(seed: u64) -> Result<ColdModel, String> {
    let rng = Rng::new(seed).fork("cold_model");
    let programs = cold_programs(&rng);
    let opts: Vec<MiraOptions> = machines()?
        .into_iter()
        .map(|arch| MiraOptions {
            arch,
            ..MiraOptions::default()
        })
        .collect();
    let mut draw = rng.fork("values");
    let mut cases = Vec::new();
    for (p, prog) in programs.iter().enumerate() {
        for (m, o) in opts.iter().enumerate() {
            let values = draw.next_u64();
            let expect = match mira_core::analyze_source(&prog.src, o) {
                Err(e) => Err(e.phase()),
                Ok(analysis) => {
                    let b = bindings_for(&analysis, values);
                    let c = Ceilings::from_arch(&o.arch);
                    Ok(analysis
                        .program
                        .functions()
                        .map(|f| {
                            let e = match KernelRoofline::analyze(&analysis, &f.name) {
                                Err(_) => Expect::Refused,
                                Ok(kr) => Expect::Answer(kr.place(&c, &b)),
                            };
                            (f.name.clone(), e)
                        })
                        .collect())
                }
            };
            cases.push(Case {
                prog: p,
                machine: m,
                values,
                expect,
            });
        }
    }
    Ok(ColdModel {
        programs,
        opts,
        cases,
        rng: rng.fork("order"),
    })
}

/// The op: `analyze_source` (front end → compiler → disassembler →
/// metrics, the shipped entry point) → per function: roofline →
/// compiled kernel → served first placement. `answers` receives each
/// first placement's latency in ns, scaled by `clock` (see
/// [`Calibration::factor`]).
pub fn build_and_serve(
    src: &str,
    opts: &MiraOptions,
    values: u64,
    answers: &mut Samples,
    clock: f64,
) -> Result<Built, MiraError> {
    let analysis = mira_core::analyze_source(src, opts)?;
    let arch = &opts.arch;
    let c = Ceilings::from_arch(arch);
    let mut index = ServeIndex::new();
    let mut s = Scratch::new();
    let mut served = Vec::new();
    let mut program_ops = 0;
    for f in analysis.program.functions() {
        let kr = {
            let _a = mira_probe::accum("bench.roofline.analyze");
            KernelRoofline::analyze(&analysis, &f.name)
        };
        let Ok(kr) = kr else {
            served.push((f.name.clone(), Served::Refused));
            continue;
        };
        let built = {
            let _a = mira_probe::accum("bench.serve.compile");
            CompiledKernel::build(&kr, &c, &arch.machine.name)
        };
        let k = match built {
            Ok(k) => k,
            Err(e) => {
                served.push((f.name.clone(), Served::NotAdmitted(e)));
                continue;
            }
        };
        program_ops += k.program().ops_len();
        let answer = match index.insert(k) {
            Err(e) => Served::NotAdmitted(e),
            Ok(id) => {
                let t = Instant::now();
                let r = {
                    let _a = mira_probe::accum("bench.serve.place");
                    index.kernel(id).and_then(|k| {
                        let vals: Vec<i128> =
                            k.params().iter().map(|p| param_value(values, p)).collect();
                        let q = index.query(id, &vals)?;
                        index.place(&q, &mut s)
                    })
                };
                answers.push(t.elapsed().as_nanos() as f64 * clock);
                Served::Answer(r)
            }
        };
        served.push((f.name.clone(), answer));
    }
    Ok(Built {
        analysis,
        served,
        program_ops,
    })
}

/// Does one op's result match the oracle? Returns a description of the
/// first disagreement.
fn check(
    expect: &Result<Vec<(String, Expect)>, Phase>,
    got: &Result<Vec<(String, Served)>, MiraError>,
) -> Result<(), String> {
    match (expect, got) {
        (Err(p), Err(e)) if *p == e.phase() => Ok(()),
        (Err(p), Err(e)) => Err(format!(
            "refused in {} where the oracle refused in {p}",
            e.phase()
        )),
        (Err(p), Ok(_)) => Err(format!("analyzed where the oracle refused in {p}")),
        (Ok(_), Err(e)) => Err(format!("refused ({e}) where the oracle analyzed")),
        (Ok(exp), Ok(got)) => {
            if exp.len() != got.len() {
                return Err(format!(
                    "{} functions served, oracle has {}",
                    got.len(),
                    exp.len()
                ));
            }
            for ((fe, e), (fg, g)) in exp.iter().zip(got) {
                if fe != fg {
                    return Err(format!("function order: {fg} where the oracle has {fe}"));
                }
                let ok = match (e, g) {
                    (_, Served::NotAdmitted(b)) => {
                        return Err(format!("{fe}: not admitted ({b}), oracle {e:?}"))
                    }
                    (Expect::Refused, Served::Refused) => true,
                    (Expect::Answer(t), Served::Answer(s)) => {
                        let s: Result<Placement, String> =
                            s.as_ref().map(|p| *p).map_err(|e| match e {
                                ServeError::Eval(e) => e.to_string(),
                                other => other.to_string(),
                            });
                        crate::util::same_answer(t, &s)
                    }
                    _ => false,
                };
                if !ok {
                    return Err(format!("{fe}: served {g:?}, oracle {e:?}"));
                }
            }
            Ok(())
        }
    }
}

/// Per-pass facts the traced run reports as counts.
#[derive(Default)]
struct PassCounts {
    insts: u64,
    program_ops: u64,
    kernels: u64,
    nest_refusals: u64,
}

impl ColdModel {
    pub fn measure(
        &mut self,
        seconds: f64,
        mut layers: Option<&mut Layers>,
        cal: &mut Calibration,
    ) -> Report {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut ops = Samples::default();
        let mut answers = Samples::default();
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut hash = Fnv::new();
        let mut first = PassCounts::default();
        let mut order: Vec<usize> = (0..self.cases.len()).collect();
        let mut pass = 0;
        let mut windows = Samples::default();
        let mut pass_ns = 0.0;
        'run: loop {
            self.rng.shuffle(&mut order);
            for &ci in &order {
                if pass > 0 && Instant::now() >= deadline {
                    break 'run;
                }
                let case = &self.cases[ci];
                let src = &self.programs[case.prog].src;
                let opts = &self.opts[case.machine];
                let traced = layers.is_some();
                let clock = cal.factor();
                let mut unit = || {
                    let t = Instant::now();
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        build_and_serve(src, opts, case.values, &mut answers, clock)
                    }));
                    let dt = t.elapsed().as_nanos() as f64 * clock;
                    // the traced run re-times the analysis layers one by
                    // one, outside the op's clock
                    let refusals = match &r {
                        Ok(Ok(built)) if traced => analysis_layers(src, opts, &built.analysis),
                        _ => 0,
                    };
                    (r, dt, refusals)
                };
                let (r, dt, refusals) = match layers.as_deref_mut() {
                    Some(l) => l.capture(unit),
                    None => unit(),
                };
                attempted += 1;
                ops.push(dt);
                pass_ns += dt;
                let got = match r {
                    Err(_) => {
                        failed += 1;
                        eprintln!(
                            "cold_model: op panicked on {}",
                            self.programs[case.prog].name
                        );
                        continue;
                    }
                    Ok(got) => got,
                };
                if pass == 0 {
                    if let Ok(b) = &got {
                        first.insts += b.analysis.binary.instruction_count() as u64;
                        first.program_ops += b.program_ops as u64;
                        first.kernels += b
                            .served
                            .iter()
                            .filter(|(_, s)| matches!(s, Served::Answer(_)))
                            .count() as u64;
                        first.nest_refusals += refusals;
                    }
                }
                let got = got.map(|b| b.served);
                if let Err(why) = check(&case.expect, &got) {
                    failed += 1;
                    eprintln!(
                        "cold_model: {} on {}: {why}",
                        self.programs[case.prog].name, self.opts[case.machine].arch.machine.name
                    );
                }
                if pass == 0 {
                    match &got {
                        Err(_) => hash.byte(0xfe),
                        Ok(served) => {
                            for (name, s) in served {
                                hash.bytes(name.as_bytes());
                                match s {
                                    Served::Answer(a) => hash.answer(a),
                                    _ => hash.byte(0xfd),
                                }
                            }
                        }
                    }
                }
            }
            // a whole pass is one throughput window: every case once
            windows.push(order.len() as f64 / (pass_ns / 1e9));
            pass_ns = 0.0;
            pass += 1;
        }
        Report::new(attempted, failed, hash.finish(), |r| {
            r.e2e_median(&windows, "throughput_per_s", "1/s", "models_per_s");
            r.e2e_pct(&answers, 1e-3, "answer_us", "us", "first_answer_place_us");
            r.e2e_pct(&ops, 1e-6, "slow_path_ms", "ms", "first_answer_ms");
            if let Some(l) = layers.as_deref() {
                let per_op = |name: &str| l.total_ns(name) / ops.len() as f64 / 1e3;
                for (m, row) in [
                    ("minic.frontend_us", "bench.minic.frontend"),
                    ("vcc.compile_us", "bench.vcc.compile"),
                    ("vobj.disassemble_us", "bench.vobj.disassemble"),
                    ("core.metrics_us", "bench.core.metrics"),
                    ("mem.analyze_us", "bench.mem.analyze_program"),
                    ("roofline.analyze_us", "bench.roofline.analyze"),
                    ("serve.compile_us", "bench.serve.compile"),
                ] {
                    r.layer(metric(m, per_op(row), "us"));
                }
                let cases = self.cases.len() as f64;
                r.layer(metric("vcc.insts", first.insts as f64 / cases, "count"));
                r.layer(metric(
                    "serve.program_ops",
                    first.program_ops as f64 / first.kernels.max(1) as f64,
                    "count",
                ));
                r.layer(metric(
                    "mem.nest_refusals",
                    first.nest_refusals as f64,
                    "count",
                ));
            }
            Ok(())
        })
    }
}

/// The layers `analyze_source` runs, each timed on its own through its
/// public entry point — front end, compiler, disassembler, metrics
/// under the default budget — then the access analysis:
/// `analyze_program`, and each function's `footprint` and `nest_model`.
/// Every call repeats work the op already did, so the op's clock never
/// sees it. Returns how many functions the per-nest model refused.
fn analysis_layers(src: &str, opts: &MiraOptions, analysis: &Analysis) -> u64 {
    {
        let _a = mira_probe::accum("bench.minic.frontend");
        let _ = std::hint::black_box(mira_minic::frontend(src));
    }
    {
        let _a = mira_probe::accum("bench.vcc.compile");
        let _ = std::hint::black_box(mira_vcc::compile(&analysis.program, &opts.compiler));
    }
    {
        let _a = mira_probe::accum("bench.vobj.disassemble");
        let _ = std::hint::black_box(mira_vobj::disasm::disassemble(&analysis.object));
    }
    {
        let _a = mira_probe::accum("bench.core.metrics");
        let _ = std::hint::black_box(mira_sym::budget::with_default_budget(|| {
            metrics::generate_model(&analysis.program, &analysis.object, &analysis.binary)
        }));
    }
    let access = {
        let _a = mira_probe::accum("bench.mem.analyze_program");
        mira_mem::analyze_program(&analysis.program)
    };
    let line = analysis.arch.machine.cache_line_bytes;
    let mut refusals = 0;
    for f in analysis.program.functions() {
        {
            let _a = mira_probe::accum("bench.mem.footprint");
            std::hint::black_box(access.footprint(&f.name));
        }
        let nm = {
            let _a = mira_probe::accum("bench.mem.nest_model");
            access.nest_model(&f.name, line)
        };
        if nm.is_none() {
            refusals += 1;
        }
    }
    refusals
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deliberately corrupted answer is a failure, and an honest one
    /// passes.
    #[test]
    fn corrupted_answer_is_counted() {
        let m = setup(5).expect("set-up");
        let case = m
            .cases
            .iter()
            .find(|c| matches!(&c.expect, Ok(f) if f.iter().any(|(_, e)| matches!(e, Expect::Answer(Ok(_))))))
            .expect("some case places");
        let mut answers = Samples::default();
        let got = build_and_serve(
            &m.programs[case.prog].src,
            &m.opts[case.machine],
            case.values,
            &mut answers,
            1.0,
        )
        .map(|b| b.served);
        assert_eq!(check(&case.expect, &got), Ok(()));
        let mut bad = got.expect("analyzes");
        for (_, s) in bad.iter_mut() {
            if let Served::Answer(Ok(p)) = s {
                p.mem_cycles[0] *= 1.5;
                break;
            }
        }
        assert!(check(&case.expect, &Ok(bad)).is_err());
    }
}
