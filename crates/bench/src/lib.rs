//! # mira-bench — reproduction harnesses for every table and figure
//!
//! One `repro_*` binary per experiment in the paper's evaluation:
//!
//! | binary | reproduces |
//! |---|---|
//! | `repro_table1` | Table I — loop coverage survey |
//! | `repro_fig2_fig3` | Figures 2–3 — source / binary AST dumps (DOT) |
//! | `repro_fig4` | Figure 4 — polyhedral domains for Listings 2–5 |
//! | `repro_fig5` | Figure 5 — generated Python model |
//! | `repro_table2_fig6` | Table II + Figure 6 + §IV-D2 arithmetic intensity |
//! | `repro_table3` | Table III / Fig. 7(a) — STREAM FPI validation |
//! | `repro_table4` | Table IV / Fig. 7(b) — DGEMM FPI validation |
//! | `repro_table5` | Table V / Fig. 7(c,d) — miniFE FPI validation |
//! | `repro_pbound` | §I/§V — source-only (PBound) vs Mira vs dynamic |
//!
//! The paper's §IV-D1 speed claim — a model is built once and evaluated
//! at a cost that does not grow with `n`, while an instrumented run does
//! — is measured end to end by perfbench's `validate` workload (its
//! `validate.breakeven_n` is the `n` past which building the model beats
//! one dynamic run).
//!
//! ## The bench harness
//!
//! Four `bench_*` binaries each record one trajectory in a committed
//! `BENCH_<name>.json` and gate it under `--check`:
//!
//! | binary | records | `--check` fails on |
//! |---|---|---|
//! | `bench_vm` | interpreter throughput, retired steps | `steps` > 1.02× committed |
//! | `bench_roofline` | static vs simulated placements, DGEMM crossover | any changed bound class or crossover |
//! | `bench_mem` | static vs simulated bytes, cache counters | any changed counter |
//! | `bench_serve` | served-answer hashes, queries/s | any changed hash, q/cal < 0.98× committed |
//!
//! Each binary keeps its rows, its measurements and the list of what it
//! gates; this module makes the decisions they share. [`Bench`] parses
//! the common flags — `--quick` (smoke sizes), `--check` (always at the
//! committed sizes) and `--trace <out.json>` — and writes a run's output
//! ([`Bench::write`]): a full run replaces `BENCH_<name>.json`, a
//! `--quick` run writes `target/bench-quick/BENCH_<name>.json` and never
//! touches the committed file, and `--check` writes no JSON. Every file
//! has the layout [`json_open`] starts, one entry per line, which is what
//! lets [`committed_field`] look a figure up by line. [`Check`] gates
//! figures against the committed file, prints one verdict per gate and
//! exits with status 1 if any gate failed; a committed figure that is
//! missing is always a failure.

use std::fmt::Display;

use mira_probe::Trace;

/// Format one validation row like the paper's Tables III–V.
pub fn fmt_row(label: &str, func: &str, dynamic: i128, statict: i128) -> String {
    let err = if dynamic == 0 {
        0.0
    } else {
        100.0 * (dynamic - statict).abs() as f64 / dynamic as f64
    };
    format!("{label:>12} {func:<28} {dynamic:>16} {statict:>16} {err:>9.4}%")
}

/// Table header matching [`fmt_row`].
pub fn header(size_label: &str) -> String {
    format!(
        "{:>12} {:<28} {:>16} {:>16} {:>10}\n{}",
        size_label,
        "Function / Tool",
        "TAU (dynamic)",
        "Mira (static)",
        "Error",
        "-".repeat(86)
    )
}

/// Parse a `--full` flag (paper-scale sizes) from argv.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Pull `"field": value` out of a committed `BENCH_*.json` baseline: from
/// the entry whose line holds `"workload": "<key>"` or `"row": "<key>"`,
/// or from the object line opening `"<key>": {` (e.g. `dgemm_crossover`).
/// Quotes are stripped from string values. A figure is only ever read
/// from its own entry's line: an entry that lacks `field` yields `None`,
/// never a neighbour's value. No serde in this offline environment — the
/// files hold one entry per line (see [`json_open`]), so line-scoped
/// scanning is exact.
pub fn committed_field(json: &str, key: &str, field: &str) -> Option<String> {
    let entries = [format!("\"workload\": \"{key}\""), format!("\"row\": \"{key}\"")];
    let object = format!("\"{key}\": {{");
    let line = json.lines().find(|l| {
        entries.iter().any(|e| l.contains(e.as_str())) || l.trim_start().starts_with(&object)
    })?;
    let at = line.find(&format!("\"{field}\": "))?;
    let value: String = line[at + field.len() + 4..]
        .chars()
        .skip_while(|c| *c == ' ')
        .take_while(|c| !",}".contains(*c))
        .collect();
    Some(value.trim().trim_matches('"').to_string())
}

/// Open a `BENCH_*.json` body: `{`, the string fields of `head`, then the
/// `array` of `rows`, one entry per line. The binary appends its one-line
/// objects; [`Bench::write`] closes the body.
pub fn json_open(head: &[(&str, &str)], array: &str, rows: &[String]) -> String {
    let mut json = String::from("{\n");
    for (key, value) in head {
        json.push_str(&format!("  \"{key}\": \"{value}\",\n"));
    }
    json.push_str(&format!("  \"{array}\": [\n    {}\n  ],\n", rows.join(",\n    ")));
    json
}

/// The flags every `bench_*` binary shares, and where its output goes.
pub struct Bench {
    name: &'static str,
    /// `--quick` without `--check`: smoke sizes. `--check` always
    /// measures at the committed sizes, or its comparison would be
    /// apples to oranges.
    pub quick: bool,
    /// `--check`: gate against `BENCH_<name>.json` instead of writing.
    pub check: bool,
    /// `--trace <out.json>`: write the run's Chrome trace there.
    pub trace: Option<String>,
}

impl Bench {
    /// Parse the shared flags of `bench_<name>`, whose committed baseline
    /// is `BENCH_<name>.json` in the working directory.
    pub fn from_args(name: &'static str) -> Bench {
        let args: Vec<String> = std::env::args().collect();
        let has = |flag: &str| args.iter().any(|a| a == flag);
        let check = has("--check");
        Bench {
            name,
            quick: has("--quick") && !check,
            check,
            trace: args
                .iter()
                .position(|a| a == "--trace")
                .and_then(|i| args.get(i + 1).cloned()),
        }
    }

    /// Read the committed baseline for a `--check` run.
    pub fn baseline(&self) -> Check {
        let path = format!("BENCH_{}.json", self.name);
        let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{path}: {e} — run bench_{} once to create the baseline", self.name)
        });
        println!(
            "{:<28} {:<20} {:>18} {:>18}  verdict",
            "entry", "field", "committed", "current"
        );
        Check {
            bench: self.name,
            committed,
            gates: 0,
            failed: 0,
        }
    }

    /// Close a pending JSON body with the run's `phase_wall_ms` and write
    /// it — to `BENCH_<name>.json`, or under `target/bench-quick/` for a
    /// `--quick` run — then, under `--trace`, the Chrome trace and its
    /// flat report. `json` is `None` for a run that records nothing.
    pub fn write(&self, json: Option<String>, trace: &Trace) {
        if let Some(mut json) = json {
            json.push_str(&format!("  \"phase_wall_ms\": {}\n}}\n", phase_wall_ms_json(trace)));
            let mut path = format!("BENCH_{}.json", self.name);
            if self.quick {
                std::fs::create_dir_all("target/bench-quick").expect("create target/bench-quick");
                path = format!("target/bench-quick/{path}");
            }
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("\nwrote {path}");
        }
        if let Some(path) = &self.trace {
            std::fs::write(path, trace.chrome_json()).expect("write trace file");
            println!("\n{}", trace.report());
            println!("wrote Chrome trace to {path} (load in chrome://tracing or Perfetto)");
        }
    }
}

/// The four pipeline phases' wall time as a JSON object fragment,
/// e.g. `{"frontend": 1.2, "compile": 3.4, "object": 0.1, "metrics": 8.9}`
/// (milliseconds). Phases that never ran under the capture report 0.
fn phase_wall_ms_json(trace: &Trace) -> String {
    let ms = |name: &str| trace.span_total_ns(name) as f64 / 1e6;
    format!(
        "{{\"frontend\": {:.3}, \"compile\": {:.3}, \"object\": {:.3}, \"metrics\": {:.3}}}",
        ms("phase.frontend"),
        ms("phase.compile"),
        ms("phase.object"),
        ms("phase.metrics"),
    )
}

/// A `--check` run against a committed baseline: each gate prints one
/// verdict line, and [`Check::finish`] sets the exit status.
pub struct Check {
    bench: &'static str,
    committed: String,
    gates: usize,
    failed: usize,
}

impl Check {
    /// The committed number `field` of entry `key`.
    pub fn number(&self, key: &str, field: &str) -> Option<f64> {
        committed_field(&self.committed, key, field)?.parse().ok()
    }

    /// Gate: `current` must equal the committed text of `field` exactly.
    pub fn exact(&mut self, key: &str, field: &str, current: impl Display) {
        let current = current.to_string();
        let committed = committed_field(&self.committed, key, field);
        let ok = committed.as_deref() == Some(current.as_str());
        self.verdict(key, field, committed.as_deref(), &current, ok);
    }

    /// Gate: `pass(committed, current)` must hold for a committed figure.
    pub fn compare(
        &mut self,
        key: &str,
        field: &str,
        committed: Option<f64>,
        current: f64,
        pass: impl FnOnce(f64, f64) -> bool,
    ) {
        let ok = committed.is_some_and(|c| pass(c, current));
        self.verdict(key, field, committed.map(num).as_deref(), &num(current), ok);
    }

    /// Gate: a condition of this run with no committed counterpart.
    pub fn holds(&mut self, key: &str, what: &str, ok: bool) {
        self.verdict(key, what, Some("-"), &ok.to_string(), ok);
    }

    fn verdict(&mut self, key: &str, field: &str, committed: Option<&str>, current: &str, ok: bool) {
        self.gates += 1;
        self.failed += usize::from(!ok);
        println!(
            "{key:<28} {field:<20} {:>18} {current:>18}  {}",
            committed.unwrap_or("MISSING"),
            if ok { "ok" } else { "FAIL" }
        );
    }

    /// Print the summary; exit with status 1 if any gate failed.
    pub fn finish(self) {
        if self.failed > 0 {
            eprintln!(
                "\nbench_{} --check: {} of {} gates failed against BENCH_{}.json",
                self.bench, self.failed, self.gates, self.bench
            );
            std::process::exit(1);
        }
        println!("\nbench_{} --check: all {} gates pass", self.bench, self.gates);
    }
}

/// A figure for a verdict line: at most six decimals, no trailing zeros.
fn num(x: f64) -> String {
    let s = format!("{x:.6}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_formatting() {
        let r = fmt_row("2M", "stream_bench", 1000, 990);
        assert!(r.contains("1.0000%"), "{r}");
        assert!(header("Array size").contains("Mira"));
    }

    #[test]
    fn committed_fields_are_line_scoped() {
        // verbatim lines of the four committed baselines, ordered so that
        // a key sharing a prefix with another comes after it
        let vm = r#"    {"workload": "stream_triad", "analysis_ms": 0.8, "steps": 1560078, "baseline_steps": 2880084, "step_reduction": 1.85, "engine_minst_per_s": 295.4, "reference_minst_per_s": 131.1, "speedup": 2.25},
    {"workload": "dgemm", "analysis_ms": 0.5, "steps": 1487397, "baseline_steps": 2137461, "step_reduction": 1.44, "engine_minst_per_s": 392.5, "reference_minst_per_s": 128.1, "speedup": 3.06},"#;
        let roofline = r#"    {"workload": "dgemm_tiled", "flops": 524288, "static_data_bytes": 8388608, "dynamic_data_bytes": 8388608, "data_bytes_exact": true, "footprint_lines": 1705, "static_bound": "l1", "dynamic_bound": "l1", "agree": true, "compute_cycles": 262144, "static_l1_cycles": 262144, "static_l2_cycles": 24996, "static_dram_cycles": 36368, "dynamic_l2_cycles": 22528, "dynamic_dram_cycles": 32768},
    {"workload": "minife_cg_15x15x15", "flops": 3720726, "static_data_bytes": 48270600, "dynamic_data_bytes": 48270600, "data_bytes_exact": true, "footprint_lines": 8102, "static_bound": "dram", "dynamic_bound": "dram", "agree": true, "compute_cycles": 1860363, "static_l1_cycles": 1508456, "static_l2_cycles": 2083600, "static_dram_cycles": 8334400, "dynamic_l2_cycles": 2039984, "dynamic_dram_cycles": 6230672}
  ],
  "dgemm_crossover": {"param": "n", "solved": 9, "swept": 9, "from": "dram", "to": "l1", "match": true},"#;
        let mem = r#"    {"workload": "triad_simd", "static_load_bytes": 960136, "static_store_bytes": 320112, "dynamic_load_bytes": 960136, "dynamic_store_bytes": 320112, "bytes_exact": true, "static_lines": 7500, "data_l1_fills": 15000, "l1_misses": 15003, "l2_misses": 15003, "l1_writebacks": 4815, "l2_writebacks": 3857, "flops": 80000, "bytes_ai": 0.0625, "sim_overhead": null},
    {"workload": "triad", "static_load_bytes": 960104, "static_store_bytes": 320080, "dynamic_load_bytes": 960104, "dynamic_store_bytes": 320080, "bytes_exact": true, "static_lines": 7500, "data_l1_fills": 15000, "l1_misses": 15003, "l2_misses": 15003, "l1_writebacks": 4815, "l2_writebacks": 3857, "flops": 80000, "bytes_ai": 0.0625, "sim_overhead": 1.54},"#;
        let serve = r#"    {"row": "triad_blocked@generic-x86_64", "kernel": "triad_blocked", "machine": "generic-x86_64", "sizes": 512, "qps": 865173, "p99_ns": 1391, "answers_hash": "15cedb0a16a21e25", "verified": 65, "mismatches": 0},
    {"row": "triad@generic-x86_64", "kernel": "triad", "machine": "generic-x86_64", "sizes": 512, "qps": 1149499, "p99_ns": 1162, "answers_hash": "d124ad5faf018f36", "verified": 65, "mismatches": 0},
  ],
  "calibration": {"row": "cal", "ops_per_sec": 793710390},
  "aggregate": {"row": "all", "queries": 7168, "qps": 508588, "sharded_qps": 516634, "workers": 1, "p99_ns": 5793, "answers_hash": "dbed2c0332b01013"},"#;
        let field = |json, key, name| committed_field(json, key, name);
        // "workload" rows, and keys sharing a prefix
        assert_eq!(field(vm, "stream_triad", "steps").as_deref(), Some("1560078"));
        assert_eq!(field(vm, "dgemm", "steps").as_deref(), Some("1487397"));
        assert_eq!(field(roofline, "dgemm_tiled", "static_bound").as_deref(), Some("l1"));
        assert_eq!(field(roofline, "minife_cg_15x15x15", "agree").as_deref(), Some("true"));
        assert_eq!(field(roofline, "dgemm", "static_bound"), None);
        assert_eq!(field(mem, "triad", "static_load_bytes").as_deref(), Some("960104"));
        assert_eq!(field(mem, "triad", "sim_overhead").as_deref(), Some("1.54"));
        assert_eq!(field(mem, "triad_simd", "sim_overhead").as_deref(), Some("null"));
        assert_eq!(field(mem, "triad_simd", "bytes_ai").as_deref(), Some("0.0625"));
        // "row" rows, with keys sharing a prefix up to the '@'
        let hash = |key| field(serve, key, "answers_hash");
        assert_eq!(hash("triad@generic-x86_64").as_deref(), Some("d124ad5faf018f36"));
        assert_eq!(hash("triad_blocked@generic-x86_64").as_deref(), Some("15cedb0a16a21e25"));
        assert_eq!(hash("triad@avx2-fma"), None);
        // keyed objects, by their row key or their object key; field
        // names sharing a suffix stay apart
        assert_eq!(hash("all").as_deref(), Some("dbed2c0332b01013"));
        assert_eq!(field(serve, "aggregate", "qps").as_deref(), Some("508588"));
        assert_eq!(field(serve, "all", "sharded_qps").as_deref(), Some("516634"));
        assert_eq!(field(serve, "cal", "ops_per_sec").as_deref(), Some("793710390"));
        assert_eq!(field(serve, "calibration", "ops_per_sec").as_deref(), Some("793710390"));
        for (name, value) in [("solved", "9"), ("from", "dram"), ("to", "l1")] {
            assert_eq!(field(roofline, "dgemm_crossover", name).as_deref(), Some(value));
        }
        // a row without the field never reads its neighbour's
        let malformed = vm.replace("\"steps\": 1560078, ", "");
        assert_eq!(field(&malformed, "stream_triad", "steps"), None);
        assert_eq!(field(&malformed, "dgemm", "steps").as_deref(), Some("1487397"));
    }

    #[test]
    fn json_bodies_read_back_by_line() {
        let rows = [
            "{\"workload\": \"a\", \"steps\": 1}".to_string(),
            "{\"workload\": \"b\", \"steps\": 2}".to_string(),
        ];
        let json = json_open(&[("bench", "t"), ("unit", "u")], "workloads", &rows);
        assert_eq!(
            json,
            "{\n  \"bench\": \"t\",\n  \"unit\": \"u\",\n  \"workloads\": [\n    \
             {\"workload\": \"a\", \"steps\": 1},\n    {\"workload\": \"b\", \"steps\": 2}\n  ],\n"
        );
        assert_eq!(committed_field(&json, "b", "steps").as_deref(), Some("2"));
    }
}
