//! Cross-crate integration tests: the full pipeline (front-end → compiler →
//! object → disassembler → metric generator → model → VM validation)
//! exercised through the workspace's public APIs.

use mira_arch::Category;
use mira_sym::bindings;
use mira_vm::{HostVal, Vm};
use mira_workloads::{dgemm::Dgemm, minife::MiniFe, stream::Stream};
use std::collections::BTreeMap;

#[test]
fn stream_table3_shape() {
    let s = Stream::new();
    let rows: Vec<_> = [20_000i64, 50_000].iter().map(|&n| s.row(n, 2)).collect();
    for row in &rows {
        assert!(row.dynamic_fpi >= row.static_fpi, "{row:?}");
        assert!(row.error_pct() < 0.5, "{row:?}");
    }
    // counts scale linearly with n
    let ratio = rows[1].dynamic_fpi as f64 / rows[0].dynamic_fpi as f64;
    assert!((ratio - 2.5).abs() < 0.05, "ratio {ratio}");
}

#[test]
fn dgemm_table4_shape() {
    let d = Dgemm::new();
    let rows: Vec<_> = [16i64, 32].iter().map(|&n| d.row(n, 1)).collect();
    for row in &rows {
        assert!(row.error_pct() < 0.1, "{row:?}");
    }
    // cubic scaling
    let ratio = rows[1].dynamic_fpi as f64 / rows[0].dynamic_fpi as f64;
    assert!(ratio > 7.0 && ratio < 9.0, "ratio {ratio}");
}

#[test]
fn minife_table5_shape() {
    let m = MiniFe::new();
    let rows = m.rows(8, 8, 8, 500, 1e-8);
    assert_eq!(rows.len(), 3);
    for row in &rows {
        // 8^3 sits in CG's pre-asymptotic regime, so the iteration
        // estimate is coarse; at the paper-scale grids of repro_table5 the
        // cg_solve error lands in the paper's few-percent band.
        assert!(
            row.error_pct() < 30.0,
            "{} error {}%",
            row.function,
            row.error_pct()
        );
    }
    // waxpby is the most predictable, cg_solve the least (annotation-driven)
    let waxpby = rows.iter().find(|r| r.function == "waxpby").unwrap();
    assert!(waxpby.error_pct() < 0.1, "{}", waxpby.error_pct());
}

#[test]
fn full_pipeline_category_exactness() {
    // a fresh kernel not used elsewhere: 2-D stencil with interior loop
    let src = r#"
void stencil(int n, double* u, double* v) {
    for (int i = 1; i < n - 1; i++) {
        for (int j = 1; j < n - 1; j++) {
            v[i * n + j] = 0.25 * (u[(i - 1) * n + j] + u[(i + 1) * n + j]
                + u[i * n + j - 1] + u[i * n + j + 1]);
        }
    }
}
"#;
    let analysis = mira_core::analyze_source(src, &mira_core::MiraOptions::default()).unwrap();
    assert!(analysis.warnings.is_empty(), "{:?}", analysis.warnings);
    let n = 20i64;
    let mut vm = Vm::new(&analysis.object).unwrap();
    let u = vm.alloc_f64(&vec![1.0; (n * n) as usize]);
    let v = vm.alloc_zeroed_f64((n * n) as usize);
    vm.call(
        "stencil",
        &[HostVal::Int(n), HostVal::Int(u as i64), HostVal::Int(v as i64)],
    )
    .unwrap();
    let report = analysis
        .report("stencil", &bindings(&[("n", n as i128)]))
        .unwrap();
    let prof = vm.profile();
    let dynamic = &prof.function("stencil").unwrap().inclusive;
    for cat in Category::ALL {
        assert_eq!(report.counts.get(cat), dynamic.get(cat), "cat {cat}");
    }
}

/// The lifted shapes reach the emitted model end to end: the triangular
/// solve's per-line closed forms carry the exact `n(n-1)/2` trip count,
/// the composed sweep's call composition scales the callee by the step
/// loop, and the generated Python reproduces the Rust evaluation of
/// both — bit for bit — when executed under the system interpreter.
#[test]
fn triangular_and_composed_closed_forms_reach_python() {
    let n = 64i128;
    let tri = mira_core::analyze_source(
        mira_workloads::compose::TRISOLVE_SRC,
        &mira_core::MiraOptions::default(),
    )
    .unwrap();
    let binds = bindings(&[("n", n)]);
    // line 5 (`s = s - l[i*n+j] * x[j]`) loads 16 bytes per triangular
    // trip: 16 · n(n-1)/2
    let lines = tri.model.line_data_bytes_exprs("trisolve").unwrap();
    let (tri_load, tri_store) = &lines[&5];
    assert_eq!(tri_load.eval_count(&binds).unwrap(), 16 * n * (n - 1) / 2);
    assert_eq!(tri_store.eval_count(&binds).unwrap(), 0);

    let sweep = mira_core::analyze_source(
        mira_workloads::compose::STENCIL_SWEEP_SRC,
        &mira_core::MiraOptions::default(),
    )
    .unwrap();
    let sw_binds = bindings(&[("n", 100), ("steps", 7)]);

    // Rust-side reference values for both kernels …
    let expect = [
        tri.model.data_load_bytes_expr("trisolve").unwrap().eval_count(&binds).unwrap(),
        tri.model.data_store_bytes_expr("trisolve").unwrap().eval_count(&binds).unwrap(),
        tri.model.flops_expr("trisolve").unwrap().eval_count(&binds).unwrap(),
        sweep.model.data_load_bytes_expr("stencil_sweep").unwrap().eval_count(&sw_binds).unwrap(),
        sweep.model.data_store_bytes_expr("stencil_sweep").unwrap().eval_count(&sw_binds).unwrap(),
        sweep.model.flops_expr("stencil_sweep").unwrap().eval_count(&sw_binds).unwrap(),
    ];
    // … against the same six numbers from the generated Python
    let dir = std::env::temp_dir().join(format!("mira_pymodel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("tri_model.py"), tri.python_model()).unwrap();
    std::fs::write(dir.join("sweep_model.py"), sweep.python_model()).unwrap();
    let script = "import sys; sys.path.insert(0, sys.argv[1]); \
                  import tri_model, sweep_model; \
                  t = tri_model.trisolve_4(64); \
                  s = sweep_model.stencil_sweep_4(100, 7); \
                  data = lambda m, k: m.get(k + '_bytes', 0) - m.get('frame_' + k + '_bytes', 0); \
                  print(data(t, 'load'), data(t, 'store'), t.get('flops', 0), \
                        data(s, 'load'), data(s, 'store'), s.get('flops', 0))";
    let out = std::process::Command::new("python3")
        .args(["-c", script, dir.to_str().unwrap()])
        .output()
        .expect("python3 runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got: Vec<i128> = String::from_utf8_lossy(&out.stdout)
        .split_whitespace()
        .map(|v| v.parse().unwrap())
        .collect();
    assert_eq!(got, expect, "Python model diverged from the Rust closed forms");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `branch_frac: 0.5` branch in an `n`-trip loop executes `n/2` times:
/// a half-way count at odd `n`. The emitted Python must round it as the
/// Rust evaluator does (`Rat::round_count`, halves up: 2.5 → 3), not as
/// Python's `round` (halves to even: 2.5 → 2), in every metric.
#[test]
fn half_way_counts_round_alike_in_python() {
    const HALF: &str = r#"
double half(int n, double* a, double t) {
    double s = 0.0;
    for (int i = 0; i < n; i++) {
#pragma @Annotation {branch_frac: 0.5}
        if (a[i] > t) {
            s += a[i];
        }
    }
    return s;
}
"#;
    let analysis = mira_core::analyze_source(HALF, &mira_core::MiraOptions::default()).unwrap();
    let sizes = [5i128, 7, 1001];
    let expect: Vec<BTreeMap<String, i128>> = sizes
        .iter()
        .map(|&n| {
            let r = analysis.report("half", &bindings(&[("n", n)])).unwrap();
            let mut m: BTreeMap<String, i128> = Category::ALL
                .iter()
                .map(|c| (c.name().to_string(), r.counts.get(*c)))
                .collect();
            m.insert("load_bytes".to_string(), r.load_bytes);
            m.insert("store_bytes".to_string(), r.store_bytes);
            m.insert("flops".to_string(), r.flops);
            m.retain(|_, v| *v != 0);
            m
        })
        .collect();
    // the annotated statement's FLOPs: ⌊n/2 + 1/2⌋
    assert_eq!(expect[0]["flops"], 3);
    assert_eq!(expect[2]["flops"], 501);

    let dir = std::env::temp_dir().join(format!("mira_pyhalf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("half_model.py"), analysis.python_model()).unwrap();
    // the rounding helper alone, on halves either side of zero and on an
    // integer past float precision, comes first
    let mut expect_rounded: Vec<i128> = (-7..=7)
        .map(|k| mira_sym::Rat::new(k, 2).round_count().unwrap())
        .collect();
    expect_rounded.push((1 << 70) + 1);
    let script = "import sys\n\
                  sys.path.insert(0, sys.argv[1])\n\
                  import half_model\n\
                  print(' '.join(str(half_model._round_count(k / 2)) for k in range(-7, 8)), \
                        half_model._round_count(2**70 + 1))\n\
                  for n in sys.argv[2:]:\n\
                  \tm = half_model.half_3(int(n))\n\
                  \tprint(' '.join(f'{k}={v}' for k, v in m.items() if v and not k.startswith('frame_')))\n";
    let mut args = vec!["-c".to_string(), script.to_string(), dir.to_str().unwrap().to_string()];
    args.extend(sizes.iter().map(|n| n.to_string()));
    let out = std::process::Command::new("python3")
        .args(&args)
        .output()
        .expect("python3 runs");
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let rounded: Vec<i128> = lines
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .map(|v| v.parse().unwrap())
        .collect();
    assert_eq!(rounded, expect_rounded, "_round_count differs from Rat::round_count");
    let got: Vec<BTreeMap<String, i128>> = lines
        .map(|line| {
            line.split_whitespace()
                .map(|kv| {
                    let (k, v) = kv.split_once('=').unwrap();
                    (k.to_string(), v.parse().unwrap())
                })
                .collect()
        })
        .collect();
    assert_eq!(got, expect, "Python rounds half-way counts differently");
}

#[test]
fn pbound_vs_mira_on_vectorized_code() {
    const TRIAD: &str = r#"
void triad(int n, double* a, double* b, double* c, double s) {
    for (int i = 0; i < n; i++) {
        a[i] = b[i] + s * c[i];
    }
}
"#;
    let n = 10_000i64;
    let binds = bindings(&[("n", n as i128)]);
    let program = mira_minic::frontend(TRIAD).unwrap();
    let pb_flops = mira_pbound::analyze(&program)["triad"].eval_flops(&binds);

    let opts = mira_core::MiraOptions {
        compiler: mira_vcc::Options::vectorized(),
        ..mira_core::MiraOptions::default()
    };
    let analysis = mira_core::analyze_source(TRIAD, &opts).unwrap();
    let mira_fpi = analysis.report("triad", &binds).unwrap().fpi(&analysis.arch);

    let mut vm = Vm::new(&analysis.object).unwrap();
    let b = vm.alloc_f64(&vec![1.0; n as usize]);
    let c = vm.alloc_f64(&vec![2.0; n as usize]);
    let a = vm.alloc_zeroed_f64(n as usize);
    vm.call(
        "triad",
        &[
            HostVal::Int(n),
            HostVal::Int(a as i64),
            HostVal::Int(b as i64),
            HostVal::Int(c as i64),
            HostVal::Fp(3.0),
        ],
    )
    .unwrap();
    let dyn_fpi = vm.profile().fpi("triad", &analysis.arch);

    // Mira (binary-informed) is exact; PBound (source-only) overestimates
    // FP instructions by ~2x on vectorized code — the paper's core claim.
    assert_eq!(mira_fpi, dyn_fpi);
    assert_eq!(pb_flops, 2 * n as i128);
    assert!(pb_flops as f64 / dyn_fpi as f64 > 1.8);
}
