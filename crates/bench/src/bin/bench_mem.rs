//! `bench_mem` — the memory-traffic trajectory.
//!
//! Runs the STREAM triad, the four STREAM kernels, DGEMM and the miniFE
//! CG solve through the `mira-mem` validation harnesses
//! (`mira_workloads::memval`): each workload is evaluated statically
//! (closed-form bytes/FLOPs plus distinct-line footprints) and executed
//! dynamically under the VM cache simulator, and the agreement plus the
//! per-level miss counts land in `BENCH_mem.json`. A separate timing pass
//! runs each workload with the simulator off and on to record the
//! instrumentation overhead (`sim_overhead`, wall-clock ratio) — the
//! price of `VmOptions::mem_profile`, which stays off the hot path by
//! default.
//!
//! Usage: `cargo run --release -p mira-bench --bin bench_mem
//! [--quick|--check] [--trace <out.json>]`
//! (`--quick` shrinks sizes for the CI smoke run; `--check` re-runs the
//! workloads at the committed sizes and fails on any difference in
//! bytes, fills, misses or write-backs from the committed
//! BENCH_mem.json, without timing anything or writing the file;
//! `--trace` captures the whole run with `mira-probe` and writes a
//! Chrome trace-event JSON). The file also carries a `phase_wall_ms`
//! breakdown of the static pipeline's per-phase wall time, taken from
//! the probe spans.

use mira_workloads::memval::{self, MemRow};

struct Entry {
    row: MemRow,
    sim_overhead: f64,
}

/// Every row, in file order, with its simulator overhead when `timed`
/// (NaN otherwise, and for the rows that never time it).
fn entries(quick: bool, timed: bool) -> Vec<Entry> {
    let (stream_n, reps, dgemm_n, grid) = if quick {
        (1024i64, 2i64, 12i64, 5i64)
    } else {
        (20_000, 2, 40, 8)
    };
    // one overhead measurement per kernel shape (the slowest part of this
    // bench); the SIMD triad shares the scalar STREAM number
    let (stream_ovhd, dgemm_ovhd) = if timed {
        (
            memval::stream_sim_overhead(stream_n, reps, 3),
            memval::dgemm_sim_overhead(dgemm_n, 3),
        )
    } else {
        (f64::NAN, f64::NAN)
    };
    vec![
        Entry {
            row: memval::triad_row(stream_n, reps, false),
            sim_overhead: stream_ovhd,
        },
        Entry {
            row: memval::triad_row(stream_n, reps, true),
            sim_overhead: f64::NAN, // overhead measured once on the scalar path
        },
        Entry {
            row: memval::stream_row(stream_n, reps),
            sim_overhead: stream_ovhd,
        },
        Entry {
            row: memval::dgemm_row(dgemm_n, 1),
            sim_overhead: dgemm_ovhd,
        },
        Entry {
            row: memval::minife_row(grid, 2000, 1e-8),
            sim_overhead: f64::NAN, // dominated by the solve; see stream/dgemm
        },
    ]
}

/// A row's exact fields in file order: everything but the timing.
fn exact_fields(r: &MemRow) -> [(&'static str, String); 13] {
    [
        ("static_load_bytes", r.static_load_bytes.to_string()),
        ("static_store_bytes", r.static_store_bytes.to_string()),
        ("dynamic_load_bytes", r.dynamic.load_bytes.to_string()),
        ("dynamic_store_bytes", r.dynamic.store_bytes.to_string()),
        ("bytes_exact", r.bytes_exact().to_string()),
        ("static_lines", r.static_lines.to_string()),
        ("data_l1_fills", r.dynamic.data_l1_fills.to_string()),
        ("l1_misses", r.dynamic.l1.misses.to_string()),
        ("l2_misses", r.dynamic.l2.misses.to_string()),
        ("l1_writebacks", r.dynamic.l1.writebacks.to_string()),
        ("l2_writebacks", r.dynamic.l2.writebacks.to_string()),
        ("flops", r.static_flops.to_string()),
        ("bytes_ai", format!("{:.4}", r.bytes_ai)),
    ]
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check();
        return;
    }
    match mira_bench::trace::trace_arg() {
        Some(path) => {
            let (json, trace) = mira_probe::capture(run);
            finish_json(json, &trace);
            mira_bench::trace::write(&path, &trace);
        }
        None => {
            // capture construction + analysis anyway: this bench's timed
            // section (sim_overhead) runs inside run() with probes on,
            // but the overhead ratio divides two equally-probed runs, so
            // the comparison stays fair
            let (json, trace) = mira_probe::capture(run);
            finish_json(json, &trace);
        }
    }
}

fn finish_json(json: String, trace: &mira_probe::Trace) {
    let mut json = json;
    json.push_str(&format!(
        "  \"phase_wall_ms\": {}\n}}\n",
        mira_bench::trace::phase_wall_ms_json(trace)
    ));
    std::fs::write("BENCH_mem.json", &json).expect("write BENCH_mem.json");
    println!("\nwrote BENCH_mem.json");
}

fn run() -> String {
    let quick = std::env::args().any(|a| a == "--quick");
    let entries = entries(quick, true);

    let mut json = String::from("{\n  \"bench\": \"mem_traffic\",\n  \"workloads\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let fields: Vec<String> = exact_fields(&e.row)
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", {}, \"sim_overhead\": {}}}{}\n",
            e.row.workload,
            fields.join(", "),
            if e.sim_overhead.is_nan() {
                "null".to_string()
            } else {
                format!("{:.2}", e.sim_overhead)
            },
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");

    println!(
        "{:<18} {:>14} {:>14} {:>6} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "workload", "static bytes", "dynamic bytes", "exact", "lines", "L1 fills", "L2 miss", "AI", "sim ovhd"
    );
    for e in &entries {
        let r = &e.row;
        println!(
            "{:<18} {:>14} {:>14} {:>6} {:>10} {:>10} {:>10} {:>8.4} {:>9}",
            r.workload,
            r.static_load_bytes + r.static_store_bytes,
            r.dynamic.total_bytes(),
            r.bytes_exact(),
            r.static_lines,
            r.dynamic.data_l1_fills,
            r.dynamic.l2.misses,
            r.bytes_ai,
            if e.sim_overhead.is_nan() {
                "-".to_string()
            } else {
                format!("{:.2}x", e.sim_overhead)
            },
        );
    }
    // the validation contract the tests pin, enforced here too so a CI
    // smoke run fails loudly if the halves ever drift
    for e in &entries {
        assert!(
            e.row.bytes_exact(),
            "{}: static and simulated bytes diverged",
            e.row.workload
        );
    }
    json
}

/// `--check`: re-run every row at the committed sizes (untimed) and fail
/// when any exact field differs from the committed BENCH_mem.json.
fn check() {
    let committed = std::fs::read_to_string("BENCH_mem.json")
        .expect("BENCH_mem.json not found — run bench_mem once to create the baseline");
    let mut failed = false;
    for e in entries(false, false) {
        let r = &e.row;
        let changed: Vec<String> = exact_fields(r)
            .into_iter()
            .filter_map(|(name, value)| {
                let com = mira_bench::committed_field(&committed, &r.workload, name);
                (com.as_deref() != Some(value.as_str()))
                    .then(|| format!("{name} {} → {value}", com.as_deref().unwrap_or("MISSING")))
            })
            .collect();
        failed |= !changed.is_empty() || !r.bytes_exact();
        println!(
            "{:<18} {}",
            r.workload,
            if changed.is_empty() {
                "ok".to_string()
            } else {
                format!("CHANGED: {}", changed.join(", "))
            }
        );
    }
    if failed {
        eprintln!("\nbench_mem --check: counters differ from the committed baseline — failing");
        std::process::exit(1);
    }
    println!("\nbench_mem --check: every counter matches the committed baseline");
}
