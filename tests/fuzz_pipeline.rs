//! Adversarial fuzzing of the whole analysis pipeline: random token
//! soup, mutated valid programs, and adversarial loop nests (zero trip
//! counts, deep nesting, huge constants and extents) are pushed through
//! front-end → compile → model generation → roofline → serving tier
//! under `catch_unwind`. The property: **every input yields `Ok` or a
//! typed error — never a panic**, and refusals come back through the
//! [`mira_core::MiraError`] taxonomy with a phase attached. Every
//! roofline that analyzes is also compiled, once, and served on both
//! bundled machines (which share an analysis key): it must refuse with
//! a typed `BuildError` or answer bit-identically to each machine's tree
//! walk, refusals included, uncached and through one answer cache shared
//! by every kernel and machine of the input, and adversarial queries
//! (wrong arity, `i128` extremes, negative sizes) must come back as
//! typed `ServeError`s. Every function's model evaluation must equal the
//! per-op reference evaluator's (`crates/model/tests/reference`), report
//! or refusal. A served answer that differs from the tree walk, or a
//! report from its reference, is reported as a divergence, with the
//! kernel and the query, not as a panic.
//!
//! Inputs are drawn from the in-tree proptest shim's deterministic RNG,
//! so any failure reproduces by rerunning the same test. The case count
//! per generator honours `MIRA_FUZZ_CASES` (CI smoke runs a bounded
//! subset in release; the full adversarial run uses ≥700 per generator,
//! i.e. ≥2,100 inputs total).

#[path = "../crates/model/tests/reference/mod.rs"]
mod model_reference;

use mira_core::{analyze_source, MiraOptions};
use mira_roofline::{Ceilings, KernelRoofline, Placement};
use mira_serve::{
    machines, AnswerCache, CompiledKernel, PlacementProgram, Scratch, ServeError, ServeIndex,
};
use mira_sym::Bindings;
use proptest::test_runner::TestRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn cases(default: usize) -> usize {
    std::env::var("MIRA_FUZZ_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Drive one source through the full pipeline and the serving tier.
/// Panics (and thereby fails the test) if some phase panics instead of
/// refusing, or if a served answer diverges from the tree walk.
fn drive(src: &str, huge_bindings: bool) {
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
        let analysis = match analyze_source(src, &MiraOptions::default()) {
            Ok(a) => a,
            Err(e) => {
                // typed refusal: phase attribution and Display must work
                let _ = e.phase();
                let _ = format!("{e}");
                let _ = std::error::Error::source(&e);
                return Ok(());
            }
        };
        let value: i128 = if huge_bindings { i64::MAX as i128 / 2 } else { 17 };
        let b: Bindings = analysis
            .parameters()
            .into_iter()
            .map(|p| (p, value))
            .collect();
        // the analysis' machine and the second bundled one, which share
        // its analysis key: one program serves both
        let avx2 = machines::avx2_fma().map_err(|e| format!("second machine: {e}"))?;
        let served_on = [
            (
                analysis.arch.machine.name.clone(),
                Ceilings::from_arch(&analysis.arch),
            ),
            (avx2.machine.name.clone(), Ceilings::from_arch(&avx2)),
        ];
        let mut index = ServeIndex::new();
        let mut cache = AnswerCache::new(64);
        let funcs: Vec<String> = analysis.model.functions.keys().cloned().collect();
        for f in funcs {
            // native evaluation: Ok or typed ModelError (overflow refusal),
            // the same report or refusal as the per-op reference evaluator
            let report = analysis.report(&f, &b);
            if let Err(e) = &report {
                let _ = format!("{e}");
            }
            let reference = model_reference::eval(&analysis.model, &f, &b);
            if !model_reference::same(&report, &reference) {
                return Err(format!(
                    "`{f}` model evaluation {report:?} vs per-op reference {reference:?}"
                ));
            }
            // roofline: analysis may refuse (budget), placement may refuse
            // (overflow / missing param) — both typed
            match KernelRoofline::analyze(&analysis, &f) {
                Ok(k) => serve(&mut index, &mut cache, &k, &served_on, &b)?,
                Err(e) => {
                    let _ = format!("{e}");
                }
            }
        }
        // the emitted Python must always materialize
        let _ = analysis.python_model();
        // one table over every served kernel and the widest window
        let rows = index.crossover_table("n", &[], -1, i128::MAX, 2);
        if rows.len() != index.len() {
            return Err(format!(
                "crossover_table: {} rows for {} pairs",
                rows.len(),
                index.len()
            ));
        }
        Ok(())
    }));
    match outcome {
        Ok(Ok(())) => {}
        Ok(Err(divergence)) => {
            panic!("answer diverges from its reference: {divergence}\non:\n{src}")
        }
        Err(_) => panic!("pipeline panicked instead of refusing on:\n{src}"),
    }
}

/// Two answers agree bit for bit: placements by binding roof and the
/// bit patterns of every cycle bound, refusals by typed error.
fn same<E: PartialEq>(a: &Result<Placement, E>, b: &Result<Placement, E>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.binding == y.binding
                && x.compute_cycles.to_bits() == y.compute_cycles.to_bits()
                && x.mem_cycles.map(f64::to_bits) == y.mem_cycles.map(f64::to_bits)
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Parameter values no query may panic on.
const EXTREMES: [i128; 4] = [i128::MIN, i64::MIN as i128, -1, i128::MAX];

/// Compile one analyzed roofline once and serve it on every machine of
/// `served_on`. It must refuse with a typed `BuildError`, or place
/// bit-identically to each machine's tree walk (at the fuzzer's bindings
/// `b`) and then answer adversarial queries, uncached and through
/// `cache`, as placements or typed `ServeError`s that again match the
/// tree walk. Returns the first divergence.
fn serve(
    index: &mut ServeIndex,
    cache: &mut AnswerCache,
    kr: &KernelRoofline,
    served_on: &[(String, Ceilings)],
    b: &Bindings,
) -> Result<(), String> {
    let program = match PlacementProgram::compile(kr) {
        Ok(p) => Arc::new(p),
        Err(e) => {
            let _ = format!("{e}");
            return Ok(());
        }
    };
    for (machine, c) in served_on {
        let k = CompiledKernel::attach(program.clone(), c, machine);
        serve_on(index, cache, kr, k, c, b)?;
    }
    Ok(())
}

/// [`serve`] on one machine with ceilings `c`.
fn serve_on(
    index: &mut ServeIndex,
    cache: &mut AnswerCache,
    kr: &KernelRoofline,
    k: CompiledKernel,
    c: &Ceilings,
    b: &Bindings,
) -> Result<(), String> {
    let f = &kr.func;
    let m = k.machine().to_string();
    let walked = kr.place(c, b);
    if let Err(e) = &walked {
        let _ = format!("{e}");
    }
    let served = k.place(b, &mut Scratch::new());
    if !same(&walked, &served) {
        return Err(format!(
            "`{f}`@{m} at {b:?}: tree walk {walked:?}, compiled {served:?}"
        ));
    }
    let params = k.params().to_vec();
    let id = index.insert(k).map_err(|e| format!("`{f}`@{m}: {e}"))?;
    // wrong arity is a typed refusal on every entry point
    let long = vec![1; params.len() + 1];
    for (what, r) in [
        ("query", index.query(id, &long).map(drop)),
        ("sweep", index.sweep(id, "n", &long, 0, 1).map(drop)),
        ("crossover", index.crossover(id, "n", &long, 0, 1).map(drop)),
    ] {
        if !matches!(r, Err(ServeError::BadArity { .. })) {
            return Err(format!("`{f}`@{m} {what} of {} values: {r:?}", long.len()));
        }
    }
    let mut s = Scratch::new();
    for v in EXTREMES {
        let vals = vec![v; params.len()];
        let all: Bindings = params.iter().map(|p| (p.clone(), v)).collect();
        let at = |p: &str, x: i128| {
            let mut b = all.clone();
            b.insert(p.to_string(), x);
            b
        };
        let q = index
            .query(id, &vals)
            .map_err(|e| format!("`{f}`@{m} query {vals:?}: {e}"))?;
        let walked = kr.place(c, &all).map_err(ServeError::Eval);
        for (how, served) in [
            ("served", index.place(&q, &mut s)),
            ("cached", index.place_cached(&q, cache, &mut s)),
        ] {
            if !same(&walked, &served) {
                return Err(format!(
                    "`{f}`@{m} at {vals:?}: tree walk {walked:?}, {how} {served:?}"
                ));
            }
        }
        for p in &params {
            for (lo, hi) in [(i128::MIN, i128::MAX), (-1, i128::MAX), (i128::MIN, -1)] {
                let served = index.crossover(id, p, &vals, lo, hi);
                let walked = kr.crossover(c, p, &all, lo, hi).map_err(ServeError::Eval);
                if served != walked {
                    return Err(format!(
                        "`{f}`@{m} crossover of {p} in [{lo}, {hi}] from {vals:?}: \
                         tree walk {walked:?}, served {served:?}"
                    ));
                }
            }
            for (lo, hi) in [
                (i128::MAX - 1, i128::MAX),
                (i128::MIN, i128::MIN + 1),
                (-2, 1),
            ] {
                let sweep = index
                    .sweep(id, p, &vals, lo, hi)
                    .map_err(|e| format!("`{f}`@{m} sweep of {p}: {e}"))?;
                let mut points = 0;
                for (x, served) in sweep.take(8) {
                    let walked = kr.place(c, &at(p, x)).map_err(ServeError::Eval);
                    if !same(&walked, &served) {
                        return Err(format!(
                            "`{f}`@{m} sweep of {p} at {x} from {vals:?}: \
                             tree walk {walked:?}, served {served:?}"
                        ));
                    }
                    points += 1;
                }
                if points != hi - lo + 1 {
                    return Err(format!(
                        "`{f}`@{m} sweep of {p} in [{lo}, {hi}] placed {points} points"
                    ));
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- soup

/// Random token soup: mostly-valid tokens in a random order, so lexing
/// usually succeeds and the parser/sema layers absorb the chaos.
fn token_soup(rng: &mut TestRng) -> String {
    const TOKENS: &[&str] = &[
        "int", "double", "for", "while", "if", "else", "return", "extern",
        "(", ")", "{", "}", "[", "]", ";", ",", "+", "-", "*", "/", "%",
        "=", "==", "!=", "<", ">", "<=", ">=", "++", "--", "+=", "-=",
        "&&", "||", "!", "x", "y", "n", "i", "a", "f", "main", "0", "1",
        "2", "42", "0.5", "1e9", "9999999999999999999999", "#pragma",
        "@Annotation", "\"str", "'", "\\", "$", "\u{0}",
    ];
    let len = 4 + (rng.next_u64() as usize % 120);
    let mut s = String::new();
    for _ in 0..len {
        s.push_str(TOKENS[rng.next_u64() as usize % TOKENS.len()]);
        if !rng.next_u64().is_multiple_of(3) {
            s.push(' ');
        }
        if rng.next_u64().is_multiple_of(11) {
            s.push('\n');
        }
    }
    s
}

#[test]
fn fuzz_token_soup_never_panics() {
    let mut rng = TestRng::deterministic("fuzz_token_soup_never_panics");
    for _ in 0..cases(150) {
        let src = token_soup(&mut rng);
        drive(&src, false);
    }
}

// ------------------------------------------------------------- mutation

const SEEDS: &[&str] = &[
    r#"
double dot(int n, double* x, double* y) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
        s += x[i] * y[i];
    }
    return s;
}
"#,
    r#"
double axpy(int n, double alpha, double* x, double* y) {
    for (int i = 0; i < n; i++) {
        y[i] = alpha * x[i] + y[i];
    }
    return y[0];
}
"#,
    r#"
extern double sqrt(double);
double norm(int n, double* x) {
    double s = 0.0;
    for (int i = 0; i < n; i++) { s += x[i] * x[i]; }
    return sqrt(s);
}
double scaled(int n, double* x) {
    return norm(n, x) * 0.5;
}
"#,
    r#"
double stencil(int n, double* a, double* b) {
    for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < n - 1; j++) {
            b[i * n + j] = 0.25 * (a[(i - 1) * n + j] + a[(i + 1) * n + j]
                + a[i * n + j - 1] + a[i * n + j + 1]);
        }
    }
    return b[n + 1];
}
"#,
];

/// Mutate a valid program: delete, duplicate, or scramble a random span,
/// or splice two seeds together.
fn mutate(rng: &mut TestRng) -> String {
    let seed = SEEDS[rng.next_u64() as usize % SEEDS.len()];
    let mut bytes: Vec<u8> = seed.bytes().collect();
    let muts = 1 + rng.next_u64() % 4;
    for _ in 0..muts {
        if bytes.is_empty() {
            break;
        }
        let a = rng.next_u64() as usize % bytes.len();
        let b = (a + 1 + rng.next_u64() as usize % 24).min(bytes.len());
        match rng.next_u64() % 5 {
            0 => {
                bytes.drain(a..b);
            }
            1 => {
                let dup: Vec<u8> = bytes[a..b].to_vec();
                let at = rng.next_u64() as usize % (bytes.len() + 1);
                bytes.splice(at..at, dup);
            }
            2 => {
                bytes[a] = b"(){};=+*<>[]"[rng.next_u64() as usize % 12];
            }
            3 => {
                bytes.truncate(a);
            }
            _ => {
                let other = SEEDS[rng.next_u64() as usize % SEEDS.len()];
                let cut = rng.next_u64() as usize % (other.len() + 1);
                bytes.extend_from_slice(&other.as_bytes()[..cut]);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn fuzz_mutated_programs_never_panic() {
    let mut rng = TestRng::deterministic("fuzz_mutated_programs_never_panic");
    for _ in 0..cases(150) {
        let src = mutate(&mut rng);
        drive(&src, false);
    }
}

// ------------------------------------------------------ adversarial nests

/// Valid-but-hostile loop nests: zero trip counts, deep nesting, huge
/// constant bounds and extents, dependent bounds. These compile, so the
/// symbolic layers (poly, metrics, mem, roofline) take the hit — budgets
/// and checked evaluation must degrade or refuse, never hang or panic.
fn adversarial_nest(rng: &mut TestRng) -> String {
    let depth = match rng.next_u64() % 4 {
        0 => 1 + rng.next_u64() as usize % 3,
        1 => 4 + rng.next_u64() as usize % 6,
        2 => 16 + rng.next_u64() as usize % 16,
        _ => 40 + rng.next_u64() as usize % 25, // up to 64 deep
    };
    let mut src = String::from("double f(int n, double* a) {\n    double s = 0.0;\n");
    let mut indent = String::from("    ");
    for lvl in 0..depth {
        let v = format!("i{lvl}");
        let bound = match rng.next_u64() % 6 {
            0 => "0".to_string(),                      // zero trip count
            1 => "n".to_string(),
            2 => format!("n + {}", rng.next_u64() % 8),
            3 => format!("{}", 1 + rng.next_u64() % 4),
            4 => format!("{}", 1_000_000_000u64 + rng.next_u64() % 4_000_000_000), // huge
            _ => {
                if lvl > 0 {
                    format!("i{} + 2", lvl - 1) // dependent bound
                } else {
                    "n".to_string()
                }
            }
        };
        src.push_str(&format!(
            "{indent}for (int {v} = 0; {v} < {bound}; {v}++) {{\n"
        ));
        indent.push_str("    ");
    }
    let inner = format!("i{}", depth - 1);
    // huge extents / strides in the body indexing
    let stmt = match rng.next_u64() % 5 {
        0 => format!("s += a[{inner}];"),
        1 => format!("s += a[{inner} * {}];", 1 + rng.next_u64() % 1_000_000_007),
        2 => format!("a[{inner}] = s * 2.0;"),
        3 => format!(
            "s += a[{inner} + {}];",
            rng.next_u64() % 4_000_000_000_000u64
        ),
        _ => {
            // every loop variable strides the index: the dense-coverage
            // search must not try every order of the loops
            let every: Vec<String> = (0..depth).map(|l| format!("i{l} * n")).collect();
            format!("s += a[{}];", every.join(" + "))
        }
    };
    src.push_str(&format!("{indent}{stmt}\n"));
    for _ in 0..depth {
        indent.truncate(indent.len() - 4);
        src.push_str(&format!("{indent}}}\n"));
    }
    src.push_str("    return s;\n}\n");
    src
}

#[test]
fn fuzz_adversarial_nests_never_panic() {
    let mut rng = TestRng::deterministic("fuzz_adversarial_nests_never_panic");
    for i in 0..cases(150) {
        let src = adversarial_nest(&mut rng);
        // alternate huge and small parameter bindings so both the
        // symbolic layers and the checked closed-form evaluation are hit
        drive(&src, i % 2 == 0);
    }
}

// ------------------------------------- triangular × composed programs

/// Programs crossing dependent (triangular) bounds with 1–2 levels of
/// callee composition — the shapes the per-nest model now admits. The
/// callee's nests splice into the caller with formal→actual
/// substitution, dependent bounds go through the average-extent path,
/// and hostile argument lists (swapped pointers/values, arity
/// mismatches) must come back as typed refusals, never panics.
fn triangular_composed(rng: &mut TestRng) -> String {
    let mut src = String::new();
    // leaf: 1-3 loops, each bound possibly dependent on an ancestor
    let leaf_depth = 1 + rng.next_u64() as usize % 3;
    src.push_str("double leaf(int n, double* p, double* q) {\n    double s = 0.0;\n");
    let mut indent = String::from("    ");
    for lvl in 0..leaf_depth {
        let v = format!("i{lvl}");
        let bound = match rng.next_u64() % 5 {
            0 => "n".to_string(),
            1 => format!("{}", 1 + rng.next_u64() % 8),
            2 if lvl > 0 => format!("i{} + {}", lvl - 1, rng.next_u64() % 3),
            3 if lvl > 0 => format!("n - i{}", lvl - 1), // decreasing extent
            _ => "n + 1".to_string(),
        };
        src.push_str(&format!(
            "{indent}for (int {v} = 0; {v} < {bound}; {v}++) {{\n"
        ));
        indent.push_str("    ");
    }
    let inner = format!("i{}", leaf_depth - 1);
    match rng.next_u64() % 3 {
        0 => src.push_str(&format!("{indent}s += p[{inner}] * q[{inner}];\n")),
        1 => src.push_str(&format!("{indent}p[{inner}] = q[{inner}] + s;\n")),
        _ => src.push_str(&format!("{indent}p[i0] = p[i0] + 1.0;\n")),
    }
    for _ in 0..leaf_depth {
        indent.truncate(indent.len() - 4);
        src.push_str(&format!("{indent}}}\n"));
    }
    src.push_str("    return s;\n}\n");
    // optional middle hop: a second composition level
    let two_level = rng.next_u64().is_multiple_of(2);
    if two_level {
        src.push_str(
            "double mid(int n, double* u, double* v) {\n    return leaf(n, u, v) + leaf(n, v, u);\n}\n",
        );
    }
    // caller: 0-2 enclosing loops (possibly triangular) around 1-2 calls
    // with adversarial argument lists
    src.push_str("double f(int n, double* a, double* b) {\n    double s = 0.0;\n");
    let call_depth = rng.next_u64() as usize % 3;
    let mut indent = String::from("    ");
    for lvl in 0..call_depth {
        let v = format!("k{lvl}");
        let bound = if lvl > 0 && rng.next_u64().is_multiple_of(2) {
            format!("k{} + 1", lvl - 1)
        } else {
            "n".to_string()
        };
        src.push_str(&format!(
            "{indent}for (int {v} = 0; {v} < {bound}; {v}++) {{\n"
        ));
        indent.push_str("    ");
    }
    let callee = if two_level { "mid" } else { "leaf" };
    for _ in 0..(1 + rng.next_u64() % 2) {
        let args = match rng.next_u64() % 6 {
            0 => "n, a, b".to_string(),
            1 => "n, b, a".to_string(),
            2 => "n + 2, a, a".to_string(),
            3 if call_depth > 0 => "k0, a, b".to_string(), // loop-var extent
            4 => "n, a".to_string(),                       // arity mismatch
            _ => "n, b, b".to_string(),
        };
        src.push_str(&format!("{indent}s += {callee}({args});\n"));
    }
    for _ in 0..call_depth {
        indent.truncate(indent.len() - 4);
        src.push_str(&format!("{indent}}}\n"));
    }
    src.push_str("    return s;\n}\n");
    src
}

#[test]
fn fuzz_triangular_composed_never_panics() {
    let mut rng = TestRng::deterministic("fuzz_triangular_composed_never_panics");
    for i in 0..cases(150) {
        let src = triangular_composed(&mut rng);
        drive(&src, i % 2 == 0);
    }
}
