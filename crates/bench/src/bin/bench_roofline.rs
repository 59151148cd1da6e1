//! `bench_roofline` — the roofline-placement trajectory.
//!
//! Runs the STREAM triad (scalar and SSE2), the four STREAM kernels,
//! DGEMM and the miniFE CG solve through the `mira-workloads::roofval`
//! harnesses: each workload is placed on the roofline twice — from the
//! static closed forms (`mira-roofline`) and from the cache simulator's
//! per-boundary fill/write-back traffic — and both bound classifications,
//! the per-ceiling cycle bounds and their agreement land in
//! `BENCH_roofline.json`, together with the DGEMM regime crossover
//! (bisection-solved and brute-force-swept).
//!
//! Usage: `cargo run --release -p mira-bench --bin bench_roofline
//! [--quick|--check] [--trace <out.json>]` — `--quick` shrinks sizes for
//! the CI smoke run; `--check` re-derives the placements at the
//! committed sizes and exits non-zero when any bound classification (or
//! the crossover) changed versus the committed `BENCH_roofline.json`,
//! the regression gate that turns silent regime changes into failures;
//! `--trace` captures the whole run with `mira-probe` and writes a
//! Chrome trace-event JSON (every pipeline `Phase` span, the
//! fuel-annotated `sym.budget` spans, and the roofline placement /
//! crossover spans). The file also carries a `phase_wall_ms` breakdown
//! of the static pipeline's per-phase wall time.

use mira_workloads::roofval::{self, RoofRow};

/// The trajectory rows, each under a stable key (the workload name plus
/// the capacity regime its size targets, so the capacity and resident
/// variants coexist in the JSON and the `--check` gate can match them
/// unambiguously).
fn rows(quick: bool) -> Vec<(String, RoofRow)> {
    let (stream_n, stream_reps, resident_n, resident_reps, dgemm_n, grid) = if quick {
        // capacity-regime sizes shrink; the resident shapes stay as-is
        // (they are already small)
        (6_000i64, 2i64, 1024i64, 20i64, 16i64, 5i64)
    } else {
        (20_000, 2, 1024, 20, 32, 15)
    };
    // blocked/tiled shapes: their footprints exceed L1 (dgemm_ws,
    // dgemm_tiled) or every cache (triad_blocked), but their per-nest
    // working sets keep the traffic compulsory-only — the placements the
    // reuse-distance model is gated on
    let (tiled_n, blocked_n, blocked_reps) = if quick {
        (32i64, 8192i64, 2i64)
    } else {
        (64, 65536, 4)
    };
    let mut out: Vec<(String, RoofRow)> = vec![
        ("triad_capacity".into(), roofval::triad_roof(stream_n, stream_reps, false)),
        ("triad_resident".into(), roofval::triad_roof(resident_n, resident_reps, false)),
        ("triad_simd_resident".into(), roofval::triad_roof(resident_n, resident_reps, true)),
        ("stream_capacity".into(), roofval::stream_roof(stream_n, stream_reps)),
        ("stream_resident".into(), roofval::stream_roof(resident_n, resident_reps)),
        ("triad_blocked".into(), roofval::triad_blocked_roof(blocked_n, blocked_reps)),
        ("dgemm_tiled".into(), roofval::dgemm_tiled_roof(tiled_n, 1)),
        // the ROADMAP's working-set case at full size in both modes —
        // it is already tiny
        ("dgemm_ws40".into(), roofval::dgemm_roof(40, 1)),
    ];
    // the lifted refusals: a triangular nest (average-extent model) and
    // a composed two-kernel sweep (callee splice), each at a resident
    // and a capacity size
    let (tri_n, sweep_n) = if quick { (160i64, 20_000i64) } else { (512, 200_000) };
    out.push(("trisolve_resident".into(), roofval::trisolve_roof(32)));
    out.push(("trisolve_capacity".into(), roofval::trisolve_roof(tri_n)));
    out.push(("stencil_resident".into(), roofval::stencil_sweep_roof(1024, 8)));
    out.push(("stencil_capacity".into(), roofval::stencil_sweep_roof(sweep_n, 4)));
    let dgemm = roofval::dgemm_roof(dgemm_n, 1);
    let minife = roofval::minife_roof(grid, 2000, 1e-8);
    out.push((dgemm.workload.clone(), dgemm));
    out.push((minife.workload.clone(), minife));
    out
}

fn main() {
    // always capture: the placements are deterministic cycle bounds, so
    // probes never skew a measurement here, and the capture both feeds
    // the phase_wall_ms breakdown and (with --trace) the Chrome trace
    let (json, trace) = mira_probe::capture(run);
    if let Some(mut json) = json {
        json.push_str(&format!(
            "  \"phase_wall_ms\": {}\n}}\n",
            mira_bench::trace::phase_wall_ms_json(&trace)
        ));
        std::fs::write("BENCH_roofline.json", &json).expect("write BENCH_roofline.json");
        println!("wrote BENCH_roofline.json");
    }
    if let Some(path) = mira_bench::trace::trace_arg() {
        mira_bench::trace::write(&path, &trace);
    }
}

fn run() -> Option<String> {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    // --check always measures at the committed sizes
    let rows = rows(quick && !check);
    let (solved, swept) = roofval::dgemm_crossover(2, 64);

    if check {
        check_placements(&rows, &solved, &swept);
        return None;
    }

    let mut json = String::from("{\n  \"bench\": \"roofline\",\n  \"workloads\": [\n");
    for (i, (k, r)) in rows.iter().enumerate() {
        let sp = &r.static_p;
        let dp = &r.dynamic_p;
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"flops\": {}, \"static_data_bytes\": {}, \"dynamic_data_bytes\": {}, \"data_bytes_exact\": {}, \"footprint_lines\": {}, \"static_bound\": \"{}\", \"dynamic_bound\": \"{}\", \"agree\": {}, \"compute_cycles\": {:.0}, \"static_l1_cycles\": {:.0}, \"static_l2_cycles\": {:.0}, \"static_dram_cycles\": {:.0}, \"dynamic_l2_cycles\": {:.0}, \"dynamic_dram_cycles\": {:.0}}}{}\n",
            k,
            r.flops,
            r.static_data_bytes,
            r.dynamic_data_bytes,
            r.data_bytes_exact(),
            r.footprint_lines,
            sp.binding,
            dp.binding,
            r.agrees(),
            sp.compute_cycles,
            sp.mem_cycles[0],
            sp.mem_cycles[1],
            sp.mem_cycles[2],
            dp.mem_cycles[1],
            dp.mem_cycles[2],
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    let x = solved.expect("DGEMM crosses regimes in [2, 64]");
    json.push_str(&format!(
        "  \"dgemm_crossover\": {{\"param\": \"n\", \"solved\": {}, \"swept\": {}, \"from\": \"{}\", \"to\": \"{}\", \"match\": {}}},\n",
        x.value,
        swept.map(|s| s.value.to_string()).unwrap_or_else(|| "null".to_string()),
        x.from,
        x.to,
        solved == swept,
    ));

    println!(
        "{:<22} {:>12} {:>14} {:>6} {:>9} {:>9}  agree",
        "workload", "flops", "data bytes", "exact", "static", "dynamic"
    );
    for (k, r) in &rows {
        println!(
            "{:<22} {:>12} {:>14} {:>6} {:>9} {:>9}  {}",
            k,
            r.flops,
            r.static_data_bytes,
            r.data_bytes_exact(),
            r.static_p.binding.to_string(),
            r.dynamic_p.binding.to_string(),
            r.agrees(),
        );
    }
    println!(
        "\nDGEMM leaves the {} roof at n = {} (sweep: {}) → {}",
        x.from,
        x.value,
        swept.map(|s| s.value.to_string()).unwrap_or_else(|| "-".to_string()),
        x.to
    );

    // the validation contract the tests pin, enforced here too so a CI
    // smoke run fails loudly if the placements ever drift apart
    for (k, r) in &rows {
        assert!(
            r.agrees(),
            "{k}: static {} vs simulator {} placement",
            r.static_p,
            r.dynamic_p
        );
        assert!(r.data_bytes_exact(), "{k}: data bytes diverged");
    }
    assert_eq!(solved, swept, "crossover solver disagrees with the sweep");
    Some(json)
}

/// `--check`: re-derive every placement at the committed sizes and fail
/// when any bound classification changed versus BENCH_roofline.json.
fn check_placements(
    rows: &[(String, RoofRow)],
    solved: &Option<mira_roofline::Crossover>,
    swept: &Option<mira_roofline::Crossover>,
) {
    let committed = std::fs::read_to_string("BENCH_roofline.json").expect(
        "BENCH_roofline.json not found — run bench_roofline once to create the baseline",
    );
    let mut failed = false;
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}  verdict",
        "workload", "com.static", "static", "com.dyn", "dynamic"
    );
    for (k, r) in rows {
        let com_s = mira_bench::committed_field(&committed, k, "static_bound");
        let com_d = mira_bench::committed_field(&committed, k, "dynamic_bound");
        let (cur_s, cur_d) = (r.static_p.binding.to_string(), r.dynamic_p.binding.to_string());
        let ok = com_s.as_deref() == Some(cur_s.as_str())
            && com_d.as_deref() == Some(cur_d.as_str())
            && r.agrees();
        if !ok {
            failed = true;
        }
        println!(
            "{k:<22} {:>10} {cur_s:>10} {:>10} {cur_d:>10}  {}",
            com_s.as_deref().unwrap_or("MISSING"),
            com_d.as_deref().unwrap_or("MISSING"),
            if ok { "ok" } else { "CHANGED" }
        );
    }
    match (solved, swept) {
        (Some(x), Some(y)) if x == y => {
            // value AND both roof names: a switch that stays at the same
            // n but lands on a different roof is still a regime change
            for (field, cur) in [
                ("solved", x.value.to_string()),
                ("from", x.from.to_string()),
                ("to", x.to.to_string()),
            ] {
                let com = mira_bench::committed_field(&committed, "dgemm_crossover", field);
                if com.as_deref() == Some(cur.as_str()) {
                    println!("dgemm crossover {field} = {cur}: ok");
                } else {
                    failed = true;
                    println!(
                        "dgemm crossover {field} = {cur} (committed {}): CHANGED",
                        com.as_deref().unwrap_or("MISSING")
                    );
                }
            }
        }
        _ => {
            failed = true;
            println!("dgemm crossover: solver and sweep disagree — {solved:?} vs {swept:?}");
        }
    }
    if failed {
        eprintln!("\nbench_roofline --check: bound classifications changed — failing");
        std::process::exit(1);
    }
    println!("\nbench_roofline --check: all placements match the committed baseline");
}
