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
//! `cargo bench -p mira-bench` runs the Criterion suite behind the paper's
//! §IV-D1 speed discussion: model generation and evaluation cost versus
//! dynamic-instrumentation cost, plus polyhedral-counting and
//! vectorization ablations.

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

/// Pull `"field": value` out of a committed `BENCH_*.json` baseline, for
/// the `--check` gates: from the entry whose line mentions
/// `"workload": "<entry_key>"`, or else from the top-level object line
/// opening `"<entry_key>": {` (e.g. `dgemm_crossover`). Quotes are
/// stripped from string values. No serde in this offline environment —
/// the files are written by the bench binaries themselves, one JSON
/// object per line, so line-scoped scanning is exact.
pub fn committed_field(json: &str, entry_key: &str, field: &str) -> Option<String> {
    let row = format!("\"workload\": \"{entry_key}\"");
    let object = format!("\"{entry_key}\": {{");
    let line = json
        .lines()
        .find(|l| l.contains(&row))
        .or_else(|| json.lines().find(|l| l.trim_start().starts_with(&object)))?;
    let at = line.find(&format!("\"{field}\": "))?;
    let rest = &line[at + field.len() + 4..];
    let value: String = rest
        .chars()
        .skip_while(|c| *c == ' ')
        .take_while(|c| !",}".contains(*c))
        .collect();
    Some(value.trim().trim_matches('"').to_string())
}

/// Shared `--trace` plumbing for the bench binaries: argument parsing,
/// Chrome trace emission, and the `phase_wall_ms` JSON fragment recorded
/// into the `BENCH_*.json` files.
pub mod trace {
    use mira_probe::Trace;

    /// Parse `--trace <out.json>` from argv.
    pub fn trace_arg() -> Option<String> {
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            if a == "--trace" {
                return args.next();
            }
        }
        None
    }

    /// Write the Chrome trace-event JSON to `path` and print the flat
    /// text report to stdout.
    pub fn write(path: &str, trace: &Trace) {
        std::fs::write(path, trace.chrome_json()).expect("write trace file");
        println!("\n{}", trace.report());
        println!("wrote Chrome trace to {path} (load in chrome://tracing or Perfetto)");
    }

    /// The four pipeline phases' wall time as a JSON object fragment,
    /// e.g. `{"frontend": 1.2, "compile": 3.4, "object": 0.1, "metrics": 8.9}`
    /// (milliseconds). Phases that never ran under the capture report 0.
    pub fn phase_wall_ms_json(trace: &Trace) -> String {
        let ms = |name: &str| trace.span_total_ns(name) as f64 / 1e6;
        format!(
            "{{\"frontend\": {:.3}, \"compile\": {:.3}, \"object\": {:.3}, \"metrics\": {:.3}}}",
            ms("phase.frontend"),
            ms("phase.compile"),
            ms("phase.object"),
            ms("phase.metrics"),
        )
    }
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
        let json = "{\n  \"workloads\": [\n    \
            {\"workload\": \"triad\", \"l1_misses\": 15003, \"bytes_exact\": true},\n    \
            {\"workload\": \"triad_simd\", \"l1_misses\": 7, \"bound\": \"dram\"}\n  ],\n  \
            \"dgemm_crossover\": {\"solved\": 9, \"from\": \"dram\"}\n}\n";
        let field = |key, name| committed_field(json, key, name);
        assert_eq!(field("triad", "l1_misses").as_deref(), Some("15003"));
        assert_eq!(field("triad", "bytes_exact").as_deref(), Some("true"));
        assert_eq!(field("triad_simd", "bound").as_deref(), Some("dram"));
        assert_eq!(field("dgemm_crossover", "from").as_deref(), Some("dram"));
        assert_eq!(field("triad", "bound"), None);
        assert_eq!(field("stream", "l1_misses"), None);
    }
}
