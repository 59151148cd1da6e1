//! Generated differential corpus for the per-nest working-set model.
//!
//! Random affine loop nests are emitted as MiniC source, pushed through
//! the full `mira-minic` → `mira-vcc` pipeline, and executed in the VM
//! with the cache simulator on a small fully-associative hierarchy. For
//! every case the static per-nest working-set model
//! (`mira_mem::NestModel`) must predict the simulator's cold-cache
//! *data* fill and write-back counts **exactly, level by level** — L1
//! and L2 fills, L1 and L2 write-backs.
//!
//! Full associativity makes the capacity model's regimes sharp (no
//! conflict misses), and a capacity-margin guard skips cases whose
//! working sets land too close to a boundary (where stack-line
//! pollution or first-iteration pinning could tip the regime); the
//! suite requires that at least 256 of the generated nests are
//! assertable. Mismatches shrink to a minimal failing shape via the
//! proptest runner.

use mira_arch::{ArchDescription, CacheLevel};
use mira_core::{analyze_source, MiraOptions};
use mira_mem::NestHeader;
use mira_sym::{AtomTable, Bindings};
use mira_vm::{HostVal, Vm, VmOptions};
use proptest::test_runner::ProptestConfig;
use std::sync::atomic::{AtomicUsize, Ordering};

const LINE: u32 = 64;
const L1_BYTES: u32 = 8 * 1024; // 128 lines
const L2_BYTES: u32 = 64 * 1024; // 1024 lines

/// The corpus machine: tiny caches so small nests hit every regime, and
/// full associativity (one set) so the working-set capacity model is
/// exact — no conflict misses.
fn corpus_arch() -> ArchDescription {
    let mut arch = ArchDescription::default();
    arch.machine.l1 = CacheLevel {
        size_bytes: L1_BYTES,
        assoc: L1_BYTES / LINE,
    };
    arch.machine.l2 = CacheLevel {
        size_bytes: L2_BYTES,
        assoc: L2_BYTES / LINE,
    };
    arch
}

/// One generated nest: source, integer arguments (in parameter order,
/// doubling as model bindings), and the element count of each pointer
/// argument (in parameter order, after the ints).
struct Case {
    src: String,
    ints: Vec<(&'static str, i64)>,
    arrays: Vec<usize>,
}

fn build_case(template: usize, sa: usize, sb: usize, reps: i64) -> Case {
    match template {
        // three streaming arrays under a repetition loop
        0 => {
            let n = [64i64, 1024, 8192][sa];
            Case {
                src: "void kernel(int n, int reps, double* a, double* b, double* c) {\n\
                      for (int r = 0; r < reps; r++) {\n\
                        for (int i = 0; i < n; i++) {\n\
                          a[i] = b[i] + 1.5 * c[i];\n\
                        } } }"
                    .to_string(),
                ints: vec![("n", n), ("reps", reps)],
                arrays: vec![n as usize; 3],
            }
        }
        // constant-offset stencil: load and store share lines
        1 => {
            let n = [128i64, 2048, 16384][sa];
            Case {
                src: "void kernel(int n, int reps, double* a) {\n\
                      for (int r = 0; r < reps; r++) {\n\
                        for (int i = 0; i < n - 1; i++) {\n\
                          a[i] = a[i + 1] * 0.5 + 1.0;\n\
                        } } }"
                    .to_string(),
                ints: vec![("n", n), ("reps", reps)],
                arrays: vec![n as usize],
            }
        }
        // matrix sweep with a vector reused across rows: v's reuse is
        // carried by the i loop and must not be multiplied by reps once
        // the per-row working set fits
        2 => {
            let m = [16i64, 48, 128][sa];
            let k = [16i64, 64, 128][sb];
            Case {
                src: "void kernel(int m, int k, int reps, double* x, double* v, double* y) {\n\
                      for (int r = 0; r < reps; r++) {\n\
                        for (int i = 0; i < m; i++) {\n\
                          for (int j = 0; j < k; j++) {\n\
                            y[i] = y[i] + x[i * k + j] * v[j];\n\
                          } } } }"
                    .to_string(),
                ints: vec![("m", m), ("k", k), ("reps", reps)],
                arrays: vec![(m * k) as usize, k as usize, m as usize],
            }
        }
        // ikj DGEMM — the ROADMAP's blocked-reuse shape, n=40 included
        3 => {
            let n = [8i64, 12, 40][sa];
            Case {
                src: "void kernel(int n, double* a, double* b, double* c) {\n\
                      for (int i = 0; i < n; i++) {\n\
                        for (int k = 0; k < n; k++) {\n\
                          for (int j = 0; j < n; j++) {\n\
                            c[i * n + j] += a[i * n + k] * b[k * n + j];\n\
                          } } } }"
                    .to_string(),
                ints: vec![("n", n)],
                arrays: vec![(n * n) as usize; 3],
            }
        }
        // two sequential nests re-touching the same arrays
        _ => {
            let n = [64i64, 1024, 8192][sa];
            Case {
                src: "void kernel(int n, int reps, double* a, double* b) {\n\
                      for (int r = 0; r < reps; r++) {\n\
                        for (int i = 0; i < n; i++) {\n\
                          a[i] = b[i];\n\
                        }\n\
                        for (int i = 0; i < n; i++) {\n\
                          b[i] = a[i] * 2.0;\n\
                        } } }"
                    .to_string(),
                ints: vec![("n", n), ("reps", reps)],
                arrays: vec![n as usize; 2],
            }
        }
    }
}

/// Statically predict, run, compare — or return without asserting when
/// the case sits too close to a capacity boundary.
fn check_case(case: &Case, asserted: &AtomicUsize) {
    let arch = corpus_arch();
    let opts = MiraOptions {
        arch: arch.clone(),
        ..MiraOptions::default()
    };
    let analysis = analyze_source(&case.src, &opts).expect("corpus case analyzes");
    let access = mira_mem::analyze_program(&analysis.program);
    let fp = access.footprint("kernel");
    let nm = access
        .nest_model("kernel", LINE)
        .expect("generated nests are fully attributable");
    assert!(nm.exact(), "generated nests are dense affine: {}", case.src);

    let b: Bindings = case
        .ints
        .iter()
        .map(|(k, v)| (k.to_string(), *v as i128))
        .collect();
    let footprint = fp.total_lines_expr(LINE).eval_count(&b).unwrap();
    let stored: i128 = fp
        .arrays
        .iter()
        .filter(|a| a.stored)
        .map(|a| a.lines_expr(LINE).eval_count(&b).unwrap())
        .sum();

    // capacity-margin guard: every per-node working set and the whole
    // footprint must sit clearly on one side of both capacities
    // (≤ 2/3·C or ≥ 3/2·C)
    let mut wss: Vec<i128> = nm
        .nodes
        .iter()
        .map(|n| n.ws_lines.eval_count(&b).unwrap())
        .collect();
    wss.push(footprint);
    let safe = |cap_lines: i128| {
        wss.iter()
            .all(|w| w * 3 <= cap_lines * 2 || w * 2 >= cap_lines * 3)
    };
    if !safe((L1_BYTES / LINE) as i128) || !safe((L2_BYTES / LINE) as i128) {
        return;
    }

    // dynamic side: cold cache, flush at the end so every dirty line is
    // on the books
    let mem_size = case.arrays.iter().sum::<usize>() * 8 + (4 << 20);
    let mut vm = Vm::load(
        &analysis.object,
        VmOptions {
            mem_size,
            mem_profile: Some(arch.cache_hierarchy()),
            ..VmOptions::default()
        },
    )
    .expect("vm loads");
    let mut args: Vec<HostVal> = case.ints.iter().map(|(_, v)| HostVal::Int(*v)).collect();
    for n in &case.arrays {
        args.push(HostVal::Int(vm.alloc_f64(&vec![1.0; *n]) as i64));
    }
    vm.call("kernel", &args).expect("kernel runs");
    vm.flush_mem();
    let stats = vm.mem_stats().expect("profiling on");

    // the header is staged once, as a placement stages it, and read at
    // both capacities
    let mut atoms = AtomTable::new();
    let mut header = NestHeader::default();
    nm.stage(&mut header, &b, &mut atoms).unwrap();
    let mut predict = |cap_bytes: u32| -> (i128, i128) {
        if footprint * LINE as i128 <= cap_bytes as i128 {
            (footprint, stored) // fully resident: compulsory only
        } else {
            let t = nm
                .boundary_traffic(cap_bytes as u64, &header, &b, &mut atoms)
                .unwrap();
            (t.fill_lines, t.writeback_lines)
        }
    };
    let (f1, w1) = predict(L1_BYTES);
    assert_eq!(f1, stats.data_l1_fills as i128, "L1 fills\n{}", case.src);
    assert_eq!(
        w1, stats.data_l1_writebacks as i128,
        "L1 write-backs\n{}",
        case.src
    );
    let (f2, w2) = predict(L2_BYTES);
    assert_eq!(f2, stats.data_l2_fills as i128, "L2 fills\n{}", case.src);
    assert_eq!(
        w2, stats.data_l2_writebacks as i128,
        "L2 write-backs\n{}",
        case.src
    );
    asserted.fetch_add(1, Ordering::Relaxed);
}

#[test]
fn generated_nests_match_simulated_fill_counts() {
    let asserted = AtomicUsize::new(0);
    proptest::run_cases(
        "generated_nests_match_simulated_fill_counts",
        &ProptestConfig::with_cases(384),
        (0usize..5, 0usize..3, 0usize..3, 1i64..4),
        |(template, sa, sb, reps)| check_case(&build_case(template, sa, sb, reps), &asserted),
    );
    let n = asserted.load(Ordering::Relaxed);
    assert!(
        n >= 256,
        "only {n} of 384 generated nests were assertable — the corpus lost coverage"
    );
}

/// One generated triangular or call-composed nest — the two shapes the
/// model refused before the average-extent and splice lifts.
fn build_lifted_case(template: usize, sa: usize, sb: usize, reps: i64) -> Case {
    match template {
        // triangular repetition: the body re-sweeps both arrays once per
        // (i, r) pair, i·(i+1)/2 sweeps in total — the average-extent
        // product must recover that count exactly
        0 => {
            let n = [64i64, 1024, 8192][sa];
            let m = [3i64, 5, 8][sb];
            Case {
                src: "void kernel(int m, int n, double* a, double* b) {\n\
                      for (int i = 0; i < m; i++) {\n\
                        for (int r = 0; r < i + 1; r++) {\n\
                          for (int j = 0; j < n; j++) {\n\
                            a[j] = a[j] + b[j] * 0.5;\n\
                          } } } }"
                    .to_string(),
                ints: vec![("m", m), ("n", n)],
                arrays: vec![n as usize; 2],
            }
        }
        // triangular prefix access: the inner bound rides the outer
        // induction variable and the reference moves with it; sizes keep
        // the prefix resident, where the hi-pinned ladder is exact
        1 => {
            let m = [16i64, 48, 96][sa];
            Case {
                src: "void kernel(int m, int reps, double* x, double* y) {\n\
                      for (int r = 0; r < reps; r++) {\n\
                        for (int i = 0; i < m; i++) {\n\
                          for (int j = 0; j < i + 1; j++) {\n\
                            y[i] = y[i] + x[j];\n\
                          } } } }"
                    .to_string(),
                ints: vec![("m", m), ("reps", reps)],
                arrays: vec![m as usize; 2],
            }
        }
        // one level of composition: the repetition loop multiplies the
        // callee's spliced sweep when uncaptured
        2 => {
            let n = [64i64, 1024, 8192][sa];
            Case {
                src: "void scale_add(int n, double* dst, double* src) {\n\
                      for (int i = 0; i < n; i++) { dst[i] = dst[i] + src[i] * 2.0; }\n\
                      }\n\
                      void kernel(int n, int reps, double* a, double* b) {\n\
                        for (int r = 0; r < reps; r++) { scale_add(n, a, b); } }"
                    .to_string(),
                ints: vec![("n", n), ("reps", reps)],
                arrays: vec![n as usize; 2],
            }
        }
        // two levels of composition, formals crossing at each hop: the
        // sequential-nest re-touch shape (corpus template 4), spliced
        3 => {
            let n = [64i64, 1024, 8192][sa];
            Case {
                src: "void leaf(int n, double* p, double* q) {\n\
                      for (int i = 0; i < n; i++) { p[i] = q[i] * 0.5; }\n\
                      }\n\
                      void mid(int n, double* u, double* v) { leaf(n, u, v); leaf(n, v, u); }\n\
                      void kernel(int n, int reps, double* a, double* b) {\n\
                        for (int r = 0; r < reps; r++) { mid(n, a, b); } }"
                    .to_string(),
                ints: vec![("n", n), ("reps", reps)],
                arrays: vec![n as usize; 2],
            }
        }
        // triangular × composed: a callee sweep under a dependent bound
        _ => {
            let n = [64i64, 1024, 8192][sa];
            let m = [3i64, 5, 8][sb];
            Case {
                src: "void axpy1(int n, double* p, double* q) {\n\
                      for (int k = 0; k < n; k++) { p[k] = p[k] + q[k]; }\n\
                      }\n\
                      void kernel(int m, int n, double* a, double* b) {\n\
                        for (int i = 0; i < m; i++) {\n\
                          for (int r = 0; r < i + 1; r++) { axpy1(n, a, b); } } }"
                    .to_string(),
                ints: vec![("m", m), ("n", n)],
                arrays: vec![n as usize; 2],
            }
        }
    }
}

#[test]
fn generated_triangular_and_composed_nests_match_simulated_fill_counts() {
    let asserted = AtomicUsize::new(0);
    proptest::run_cases(
        "generated_triangular_and_composed_nests_match_simulated_fill_counts",
        &ProptestConfig::with_cases(384),
        (0usize..5, 0usize..3, 0usize..3, 1i64..4),
        |(template, sa, sb, reps)| check_case(&build_lifted_case(template, sa, sb, reps), &asserted),
    );
    let n = asserted.load(Ordering::Relaxed);
    assert!(
        n >= 256,
        "only {n} of 384 triangular/composed nests were assertable — the corpus lost coverage"
    );
}
