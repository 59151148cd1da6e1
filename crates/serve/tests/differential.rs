//! Differential pinning of the compiled evaluator against the
//! symbolic tree walk: values, rounding, `i64` refusals, missing
//! parameters and overflow must all be bit-identical — over a generated
//! expression corpus, and over every workload model's closed forms and
//! placements on both machine descriptions. Budget-depth refusals are
//! compile-time refusals: what the scoped tree walk refuses on depth
//! does not compile.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_roofline::{Ceilings, KernelRoofline, Placement};
use mira_serve::{
    machines, AnswerCache, CompileError, CompiledExpr, CompiledKernel, KernelId, PlacementProgram,
    ProgramBuilder, Scratch, ServeError, ServeIndex,
};
use mira_sym::budget::BudgetError;
use mira_sym::{bindings, budget, Atom, Bindings, Rat, SymExpr};
use proptest::test_runner::TestRng;

/// Compare every evaluation mode of `e`, unscoped and under a budget
/// scope, between the tree walk and a fresh compilation.
fn check_parity(e: &SymExpr, b: &Bindings) {
    let ce = CompiledExpr::compile(e).expect("corpus expressions compile");
    let mut s = Scratch::new();
    assert_eq!(e.eval(b), ce.eval_with(b, &mut s), "eval: {e:?}");
    assert_eq!(
        e.eval_count(b),
        ce.eval_count_with(b, &mut s),
        "eval_count: {e:?}"
    );
    assert_eq!(
        e.eval_count_i64(b),
        ce.eval_count_i64_with(b, &mut s),
        "eval_count_i64: {e:?}"
    );
    let tree = budget::with_default_budget(|| e.eval(b));
    let compiled = budget::with_default_budget(|| ce.eval_with(b, &mut s));
    assert_eq!(tree, compiled, "scoped eval: {e:?}");
}

fn gen_atom(rng: &mut TestRng, depth: u32) -> Atom {
    let choices = if depth == 0 { 3 } else { 5 };
    match rng.next_u64() % choices {
        0 => Atom::Param("n".into()),
        1 => Atom::Param("m".into()),
        2 => Atom::Param("k".into()),
        3 => Atom::FloorDiv(
            Rc::new(gen_expr(rng, depth - 1)),
            1 + (rng.next_u64() % 7) as i64,
        ),
        _ => Atom::Clamp(Rc::new(gen_expr(rng, depth - 1))),
    }
}

fn gen_expr(rng: &mut TestRng, depth: u32) -> SymExpr {
    let nterms = 1 + rng.next_u64() % 3;
    let mut e = SymExpr::zero();
    for _ in 0..nterms {
        let num = (rng.next_u64() % 19) as i128 - 9;
        let den = 1 + (rng.next_u64() % 3) as i128;
        let mut t = SymExpr::from_rat(Rat::new(num, den));
        for _ in 0..rng.next_u64() % 3 {
            let pow = 1 + (rng.next_u64() % 2) as u32;
            t = t.mul_expr(&SymExpr::from_atom(gen_atom(rng, depth)).pow(pow));
        }
        e = e.add_expr(&t);
    }
    e
}

fn has_composite(e: &SymExpr) -> bool {
    e.terms()
        .iter()
        .any(|t| t.monomial.iter().any(|(a, _)| !matches!(a, Atom::Param(_))))
}

#[test]
fn generated_corpus_matches_tree_walk() {
    let mut rng = TestRng::deterministic("serve-differential");
    let grids = [
        bindings(&[("n", 7), ("m", -3), ("k", 12)]),
        bindings(&[("n", 0), ("m", 1), ("k", 1_000_000)]),
        bindings(&[("n", -50), ("m", 999), ("k", 1)]),
        // overflow parity: squared i64::MAX atoms exceed i128
        bindings(&[("n", i64::MAX as i128), ("m", i64::MAX as i128), ("k", 2)]),
        // missing-parameter parity (m, k unbound)
        bindings(&[("n", 5)]),
    ];
    let mut composite = 0;
    for _ in 0..300 {
        let e = gen_expr(&mut rng, 3);
        if has_composite(&e) {
            composite += 1;
        }
        for b in &grids {
            check_parity(&e, b);
        }
    }
    assert!(
        composite >= 100,
        "corpus must exercise composite atoms: {composite}/300"
    );
}

/// A floor-div chain of `height` composite atoms over `n`.
fn chain(height: u32) -> SymExpr {
    let mut e = SymExpr::param("n");
    for i in 0..height {
        e = SymExpr::from_atom(Atom::FloorDiv(Rc::new(e), 1 + i as i64 % 3));
    }
    e
}

/// Depth is decided at compile time: a chain at the budget's depth
/// limit compiles and equals the tree walk, scoped and unscoped; one
/// level deeper does not compile, and the scoped tree walk refuses it.
#[test]
fn depth_limit_is_a_compile_time_refusal() {
    let b = bindings(&[("n", 1_000_000)]);
    let at = chain(budget::MAX_DEPTH);
    let ce = CompiledExpr::compile(&at).expect("a chain at the limit compiles");
    let mut s = Scratch::new();
    assert!(at.eval(&b).is_ok());
    assert_eq!(at.eval(&b), ce.eval_with(&b, &mut s));
    let tree = budget::with_default_budget(|| at.eval(&b));
    let compiled = budget::with_default_budget(|| ce.eval_with(&b, &mut s));
    assert!(
        matches!(&tree, Ok(Ok(_))),
        "at the limit the scope holds: {tree:?}"
    );
    assert_eq!(tree, compiled);

    let over = chain(budget::MAX_DEPTH + 1);
    assert_eq!(
        CompiledExpr::compile(&over).err(),
        Some(CompileError::TooDeep)
    );
    assert_eq!(
        budget::with_default_budget(|| over.eval(&b)),
        Err(BudgetError::DepthExceeded)
    );
}

/// A CSE reuse stands in for re-walking the reused subtree where it is
/// reused. A chain one level below the limit, compiled as one output,
/// compiles again one level deeper inside a second output; two levels
/// deeper is refused, exactly where the scoped tree walk refuses.
#[test]
fn cse_reuse_counts_at_its_reuse_depth() {
    let b = bindings(&[("n", i64::MAX as i128)]);
    let base = chain(budget::MAX_DEPTH - 1);
    let wrap = |e: &SymExpr| SymExpr::from_atom(Atom::Clamp(Rc::new(e.clone())));
    let one = wrap(&base);
    let two = wrap(&one);

    let mut pb = ProgramBuilder::new();
    pb.add_output(&base).expect("the chain compiles");
    let out = pb.add_output(&one).expect("one level deeper compiles");
    let sec = pb.seal_section(true);
    let p = pb.finish();
    assert!(p.cse_hits() > 0, "the chain must be reused, not recompiled");
    let mut s = Scratch::new();
    let compiled = budget::with_default_budget(|| {
        p.bind(&b, &mut s);
        p.run_section(sec, &mut s).map(|()| p.output(out, &s))
    });
    let tree = budget::with_default_budget(|| one.eval(&b));
    assert!(
        matches!(&tree, Ok(Ok(_))),
        "one level deeper the scope holds: {tree:?}"
    );
    assert_eq!(tree, compiled);

    let mut pb = ProgramBuilder::new();
    pb.add_output(&base).expect("the chain compiles");
    assert_eq!(pb.add_output(&two).err(), Some(CompileError::TooDeep));
    assert_eq!(
        budget::with_default_budget(|| two.eval(&b)),
        Err(BudgetError::DepthExceeded)
    );
}

/// Every workload kernel.
const SOURCES: [(&str, &str); 7] = [
    ("triad", mira_workloads::memval::TRIAD_SRC),
    ("dgemm", mira_workloads::dgemm::DGEMM_SRC),
    ("dgemm_tiled", mira_workloads::roofval::DGEMM_TILED_SRC),
    ("triad_blocked", mira_workloads::roofval::TRIAD_BLOCKED_SRC),
    ("trisolve", mira_workloads::compose::TRISOLVE_SRC),
    ("blur", mira_workloads::compose::STENCIL_SWEEP_SRC),
    ("cg_solve", mira_workloads::minife::MINIFE_SRC),
];

/// Every workload kernel, on both machine descriptions.
fn workload_cases() -> Vec<(String, Analysis)> {
    let arches = [
        mira_arch::ArchDescription::default(),
        machines::avx2_fma().expect("second machine parses"),
    ];
    let mut cases = Vec::new();
    for arch in &arches {
        for (func, src) in &SOURCES {
            let opts = MiraOptions {
                arch: arch.clone(),
                ..Default::default()
            };
            let analysis = analyze_source(src, &opts).expect("workload analyzes");
            cases.push((func.to_string(), analysis));
        }
    }
    cases
}

fn size_grid() -> Vec<Bindings> {
    let mut grid = Vec::new();
    for n in [1i128, 2, 7, 8, 9, 16, 63, 64, 100, 256, 512, 4096, 1 << 20] {
        for reps in [1i128, 3] {
            grid.push(bindings(&[
                ("n", n),
                ("reps", reps),
                ("nnz_row_milli", 26_144),
                ("cg_iters", 20),
            ]));
        }
    }
    // refusal parity at astronomically large sizes
    grid.push(bindings(&[
        ("n", i64::MAX as i128),
        ("reps", i64::MAX as i128),
        ("nnz_row_milli", 26_144),
        ("cg_iters", i64::MAX as i128),
    ]));
    grid
}

#[test]
fn workload_closed_forms_match_tree_walk() {
    for (func, analysis) in workload_cases() {
        let forms = analysis
            .model
            .closed_forms(&func, &analysis.arch)
            .expect("closed forms");
        assert!(!forms.is_empty());
        let mut s = Scratch::new();
        for (label, e) in &forms {
            let ce = CompiledExpr::compile(e).expect("workload form compiles");
            for b in size_grid() {
                assert_eq!(
                    e.eval(&b),
                    ce.eval_with(&b, &mut s),
                    "{func}/{label} on {}",
                    analysis.arch.machine.name
                );
                assert_eq!(
                    e.eval_count_i64(&b),
                    ce.eval_count_i64_with(&b, &mut s),
                    "{func}/{label} i64 on {}",
                    analysis.arch.machine.name
                );
            }
        }
    }
}

#[test]
fn workload_placements_match_tree_walk_bit_for_bit() {
    for (func, analysis) in workload_cases() {
        let kr = KernelRoofline::analyze(&analysis, &func).expect("roofline analyzes");
        let c = Ceilings::from_arch(&analysis.arch);
        let machine = &analysis.arch.machine.name;
        let ck = CompiledKernel::build(&kr, &c, machine).expect("kernel compiles");
        let mut s = Scratch::new();
        for b in size_grid() {
            let tree = kr.place(&c, &b);
            let compiled = ck.place(&b, &mut s);
            match (&tree, &compiled) {
                (Ok(t), Ok(cp)) => {
                    assert_eq!(t.binding, cp.binding, "{func}@{machine} {b:?}");
                    assert_eq!(
                        t.compute_cycles.to_bits(),
                        cp.compute_cycles.to_bits(),
                        "{func}@{machine} compute {b:?}"
                    );
                    for i in 0..3 {
                        assert_eq!(
                            t.mem_cycles[i].to_bits(),
                            cp.mem_cycles[i].to_bits(),
                            "{func}@{machine} mem[{i}] {b:?}"
                        );
                    }
                }
                _ => assert_eq!(tree, compiled, "{func}@{machine} {b:?}"),
            }
        }
    }
}

/// Compile `func` under the analysis' machine and insert it; returns
/// the id plus the tree walker it must agree with.
fn admit(
    index: &mut ServeIndex,
    analysis: &Analysis,
    func: &str,
) -> (KernelId, KernelRoofline, Ceilings) {
    let kr = KernelRoofline::analyze(analysis, func).expect("roofline analyzes");
    let c = Ceilings::from_arch(&analysis.arch);
    let k = CompiledKernel::build(&kr, &c, &analysis.arch.machine.name).expect("kernel compiles");
    (index.insert(k).expect("kernel admits"), kr, c)
}

/// Bit-identity between two served answers: placements compare by f64
/// bit pattern, refusals by the typed error.
fn assert_bit_identical(
    a: &Result<Placement, ServeError>,
    b: &Result<Placement, ServeError>,
    ctx: &str,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.binding, y.binding, "{ctx}");
            assert_eq!(
                x.compute_cycles.to_bits(),
                y.compute_cycles.to_bits(),
                "{ctx} compute"
            );
            for i in 0..3 {
                assert_eq!(
                    x.mem_cycles[i].to_bits(),
                    y.mem_cycles[i].to_bits(),
                    "{ctx} mem[{i}]"
                );
            }
        }
        _ => assert_eq!(a, b, "{ctx}"),
    }
}

/// The answer cache is a pure memo: every workload kernel on both
/// machines, over the full size grid (including the refusal row — error
/// answers are cached too), twice — so the second pass is served from
/// the cache — with every answer bit-identical to the uncached compiled
/// path *and* the symbolic tree walk.
#[test]
fn cached_answers_match_uncached_and_tree_walk() {
    let mut index = ServeIndex::new();
    let mut walkers = Vec::new();
    for (func, analysis) in workload_cases() {
        walkers.push(admit(&mut index, &analysis, &func));
    }
    let mut cache = AnswerCache::new(1 << 12);
    let mut s_cold = Scratch::new();
    let mut s = Scratch::new();
    for pass in 0..2 {
        for (id, kr, c) in &walkers {
            let params: Vec<String> = index.kernel(*id).expect("kernel exists").params().to_vec();
            for b in size_grid() {
                let vals: Vec<i128> = params
                    .iter()
                    .map(|p| b.get(p).copied().unwrap_or(1))
                    .collect();
                let q = index.query(*id, &vals).expect("query builds");
                let uncached = index.place(&q, &mut s_cold);
                let cached = index.place_cached(&q, &mut cache, &mut s);
                let ctx = format!("pass {pass} {} {vals:?}", kr.func);
                assert_bit_identical(&uncached, &cached, &ctx);
                // and both equal the tree walk, values and refusals
                let mut full = b.clone();
                for (p, v) in params.iter().zip(&vals) {
                    full.insert(p.clone(), *v);
                }
                let walked = kr.place(c, &full).map_err(ServeError::Eval);
                assert_bit_identical(&walked, &cached, &ctx);
            }
        }
    }
    let st = cache.probe();
    assert!(st.hits > 0, "second pass must hit: {st:?}");
    assert!(st.misses > 0, "first pass must miss: {st:?}");
}

/// One program per workload kernel, attached to four machines of one
/// analysis key with different L1/L2 capacities, serves every query
/// through one small answer cache exactly like the uncached path and the
/// tree walk. Queries interleave a few points at a time across the
/// machines, so entries filled on one machine are read on another (with
/// nest traffic asked at capacities the entry does not hold yet), other
/// points run in the shared scratch in between, entries are evicted,
/// and the grid holds values past `i64` (cells stay empty) and refusals.
///
/// Each point is read twice on each machine, in rotation over four
/// machines — more than an entry keeps placements for — so the second
/// read of a placed point is answered by the placement kept for that
/// machine, and the rotation displaces kept placements. Halfway through,
/// between the two reads of a placed point, its machine's kernels are
/// replaced by the same programs under doubled DRAM bandwidth: the
/// second read must serve the new ceilings, as must every later read.
#[test]
fn shared_programs_serve_every_machine_through_one_cache() {
    let base = mira_arch::ArchDescription::default();
    let resized = |name: &str, l1: u32, l2: u32| {
        let mut a = base.clone();
        a.machine.name = name.to_string();
        a.machine.l1.size_bytes = l1;
        a.machine.l2.size_bytes = l2;
        a
    };
    let arches = [
        base.clone(),
        machines::avx2_fma().expect("second machine parses"),
        resized("small", 8 << 10, 64 << 10),
        resized("large", 64 << 10, 8 << 20),
    ];
    let key = mira_roofline::AnalysisKey::of(&base);
    assert!(arches
        .iter()
        .all(|a| mira_roofline::AnalysisKey::of(a) == key));
    let mut ceilings: Vec<Ceilings> = arches.iter().map(Ceilings::from_arch).collect();

    let mut index = ServeIndex::new();
    // per kernel: its tree walker, its program and its ids, in machine
    // order
    let mut kernels = Vec::new();
    for (func, src) in SOURCES {
        let analysis = analyze_source(src, &MiraOptions::default()).expect("workload analyzes");
        let kr = KernelRoofline::analyze(&analysis, func).expect("roofline analyzes");
        let program = Arc::new(PlacementProgram::compile(&kr).expect("program compiles"));
        let ids: Vec<KernelId> = arches
            .iter()
            .zip(&ceilings)
            .map(|(a, c)| {
                let k = CompiledKernel::attach(program.clone(), c, &a.machine.name);
                index.insert(k).expect("kernel admits")
            })
            .collect();
        kernels.push((kr, program, ids));
    }
    let mut points = Vec::new();
    for (k, (_, _, ids)) in kernels.iter().enumerate() {
        let params = index
            .kernel(ids[0])
            .expect("kernel exists")
            .params()
            .to_vec();
        // n = ⌊√i64::MAX⌋: trisolve's FLOPs primitive (n²) fits `i64`,
        // its data bytes' (n² + 2n) does not, so a hit reads the earlier
        // mandatory cells and runs the data-bytes section fresh
        for n in [
            1i128,
            9,
            64,
            300,
            4096,
            1 << 20,
            1 << 22,
            3_037_000_499,
            1 << 40,
            1 << 60,
            i64::MAX as i128,
        ] {
            for reps in [1i128, 3, i64::MAX as i128] {
                let vals: Vec<i128> = params
                    .iter()
                    .map(|p| match p.as_str() {
                        "n" => n,
                        "reps" | "cg_iters" => reps,
                        "nnz_row_milli" => 26_144,
                        _ => 2,
                    })
                    .collect();
                if !points.contains(&(k, vals.clone())) {
                    points.push((k, vals));
                }
            }
        }
    }

    let mut rng = TestRng::deterministic("serve-shared-cache");
    let mut cache = AnswerCache::new(32);
    let (mut s, mut s_cold) = (Scratch::new(), Scratch::new());
    let mut last_machine: HashMap<(usize, Vec<i128>), usize> = HashMap::new();
    let (mut cross_hits, mut refusals) = (0, 0);
    let mut replaced = None;
    for pass in 0..2 {
        let mut order = points.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for (chunk_ix, chunk) in order.chunks(4).enumerate() {
            for step in 0..arches.len() {
                let m = (step + chunk_ix) % arches.len();
                for (k, vals) in chunk {
                    let mut first: Option<Result<Placement, ServeError>> = None;
                    for read in 0..2 {
                        let (kr, _, ids) = &kernels[*k];
                        let dram = mira_roofline::MemLevel::Dram.index();
                        let swap_now = pass == 1
                            && replaced.is_none()
                            && first.as_ref().is_some_and(|f| {
                                f.as_ref().is_ok_and(|p| p.mem_cycles[dram] > 0.0)
                            });
                        if swap_now {
                            ceilings[m].bandwidth[dram] *= 2;
                            for (_, program, kernel_ids) in &kernels {
                                let swapped = CompiledKernel::attach(
                                    program.clone(),
                                    &ceilings[m],
                                    &arches[m].machine.name,
                                );
                                assert_eq!(index.replace(swapped), kernel_ids[m], "ids are stable");
                            }
                            replaced = Some(m);
                        }
                        let q = index.query(ids[m], vals).expect("query builds");
                        let before = cache.probe();
                        let cached = index.place_cached(&q, &mut cache, &mut s);
                        let after = cache.probe();
                        let hit = after.hits > before.hits;
                        let memo_hit = after.memo_hits > before.memo_hits;
                        let prev = last_machine.insert((*k, vals.clone()), m);
                        if hit && prev.is_some_and(|p| p != m) {
                            cross_hits += 1;
                        }
                        let uncached = index.place(&q, &mut s_cold);
                        let b: Bindings = index
                            .kernel(ids[m])
                            .expect("kernel exists")
                            .params()
                            .iter()
                            .cloned()
                            .zip(vals.iter().copied())
                            .collect();
                        let walked = kr.place(&ceilings[m], &b).map_err(ServeError::Eval);
                        let ctx = format!(
                            "pass {pass} read {read} {}@{} {vals:?}",
                            kr.func, arches[m].machine.name
                        );
                        assert_bit_identical(&uncached, &cached, &ctx);
                        assert_bit_identical(&walked, &cached, &ctx);
                        refusals += cached.is_err() as usize;
                        match first.take() {
                            None => first = Some(cached),
                            Some(f) if swap_now => {
                                let (f, c) = (f.expect("placed"), cached.expect("placed"));
                                assert!(
                                    c.mem_cycles[dram] < f.mem_cycles[dram],
                                    "{ctx}: the replaced kernel serves the new ceilings"
                                );
                                assert!(!memo_hit, "{ctx}: a new attach reads no kept placement");
                            }
                            // the same kernel read the same point just
                            // before: a placement was kept for it
                            Some(f) => assert_eq!(memo_hit, f.is_ok(), "{ctx}"),
                        }
                    }
                }
            }
        }
    }
    let st = cache.probe();
    assert!(
        replaced.is_some(),
        "a placed point must trigger the replace"
    );
    assert!(
        cross_hits > 0,
        "entries must be read on another machine: {st:?}"
    );
    assert!(st.evictions > 0, "the cache must evict: {st:?}");
    assert!(
        st.memo_hits > 0,
        "second reads must be answered by kept placements: {st:?}"
    );
    assert!(
        st.memo_evictions > 0,
        "four machines must displace kept placements: {st:?}"
    );
    assert!(refusals > 0, "the grid must refuse somewhere");
    assert_eq!(st.invalidations, 0);
}

/// [`ServeIndex::crossover_table`] rows — every kernel × machine pair,
/// serial and sharded — agree exactly with the per-pair tree-walk
/// [`KernelRoofline::crossover`] (same `crossover_bisect` core, same
/// window, same defaults).
#[test]
fn crossover_table_matches_tree_walk() {
    let mut index = ServeIndex::new();
    let mut walkers = Vec::new();
    for (func, analysis) in workload_cases() {
        let (_, kr, c) = admit(&mut index, &analysis, &func);
        walkers.push((func, analysis.arch.machine.name.clone(), kr, c));
    }
    let defaults: &[(&str, i128)] = &[("reps", 2), ("nnz_row_milli", 26_144), ("cg_iters", 20)];
    for workers in [1, 4] {
        let rows = index.crossover_table("n", defaults, 2, 512, workers);
        assert_eq!(rows.len(), index.len(), "one row per pair");
        for (i, row) in rows.iter().enumerate() {
            let expect_id = index.kernels().nth(i).map(|(id, _)| id);
            assert_eq!(Some(row.kernel), expect_id, "rows in KernelId order");
            let k = index.kernel(row.kernel).expect("kernel exists");
            let ctx = format!("{}@{} workers={workers}", row.func, row.machine);
            if !k.params().iter().any(|p| p == "n") {
                match &row.result {
                    Err(ServeError::UnknownParam(p)) => assert_eq!(p, "n", "{ctx}"),
                    other => panic!("{ctx}: expected UnknownParam, got {other:?}"),
                }
                continue;
            }
            let base: Bindings = k
                .params()
                .iter()
                .map(|p| {
                    let v = defaults
                        .iter()
                        .find(|(name, _)| name == p)
                        .map(|(_, v)| *v)
                        .unwrap_or(1);
                    (p.clone(), v)
                })
                .collect();
            let (_, _, kr, c) = walkers
                .iter()
                .find(|(f, m, _, _)| f == &row.func && m == &row.machine)
                .expect("pair has a tree walker");
            let walked = kr.crossover(c, "n", &base, 2, 512);
            match (&row.result, &walked) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{ctx}"),
                (Err(ServeError::Eval(a)), Err(b)) => assert_eq!(a, b, "{ctx}"),
                other => panic!("{ctx}: served vs tree walk diverge: {other:?}"),
            }
        }
    }
}
