//! Python model emission — the paper's output language (Fig. 5).
//!
//! The generated module mirrors the paper's structure: one Python function
//! per source function, named `name_<argcount>`, returning a metric
//! dictionary keyed by instruction-category name; call composition goes
//! through `handle_function_call(caller_metrics, callee_metrics,
//! loop_iterations)`.

use crate::{Model, ModelOp};
use mira_arch::ArchDescription;
use mira_sym::python::to_python;

/// Emit the model plus the machine's roofline constants and a
/// `roofline_cycles` helper, so the generated Python can place any
/// metric dict on the roofline without the Rust toolchain. The
/// streaming-regime traffic model is used for the deeper boundaries
/// (loads cross once, stores twice) — footprint-aware placement stays on
/// the Rust side, where the access analysis lives.
pub fn emit_with_arch(model: &Model, arch: &ArchDescription) -> String {
    let mut out = emit(model);
    let m = &arch.machine;
    out.push_str(&format!(
        "# Roofline ceilings from the architecture description ([peak] and\n\
         # [bandwidth *] sections), in FLOPs and bytes per cycle.\n\
         MACHINE = {{\n\
         \t'peak_scalar_flops_per_cycle': {},\n\
         \t'peak_vector_flops_per_cycle': {},\n\
         \t'bandwidth_bytes_per_cycle': {{'l1': {}, 'l2': {}, 'dram': {}}},\n\
         }}\n\n",
        m.peak.scalar_flops_per_cycle(),
        m.peak.vector_flops_per_cycle(m.fp_lanes_per_vector),
        m.bandwidth.l1,
        m.bandwidth.l2,
        m.bandwidth.dram,
    ));
    out.push_str(
        "def roofline_cycles(metrics, vectorized=False):\n\
         \t\"\"\"Streaming roofline bounds of a metric dict, in cycles.\n\n\
         \tFrame (spill) traffic is excluded from the memory ceilings;\n\
         \tstores cross the deeper boundaries twice (write-allocate fill\n\
         \tplus write-back). Returns one bound per ceiling and the\n\
         \tbinding roof under 'bound' (memory wins ties).\"\"\"\n\
         \tloads = metrics.get('load_bytes', 0) - metrics.get('frame_load_bytes', 0)\n\
         \tstores = metrics.get('store_bytes', 0) - metrics.get('frame_store_bytes', 0)\n\
         \tpeak = MACHINE['peak_vector_flops_per_cycle' if vectorized else 'peak_scalar_flops_per_cycle']\n\
         \tbw = MACHINE['bandwidth_bytes_per_cycle']\n\
         \tbounds = {\n\
         \t\t'compute': metrics.get('flops', 0) / peak,\n\
         \t\t'l1': (loads + stores) / bw['l1'],\n\
         \t\t'l2': (loads + 2 * stores) / bw['l2'],\n\
         \t\t'dram': (loads + 2 * stores) / bw['dram'],\n\
         \t}\n\
         \tlevels = ['l1', 'l2', 'dram']\n\
         \tmemory = max(levels, key=lambda k: (bounds[k], levels.index(k)))\n\
         \tbounds['bound'] = 'compute' if bounds['compute'] > bounds[memory] else memory\n\
         \treturn bounds\n\n",
    );
    out
}

/// Emit the whole model as a self-contained Python module.
pub fn emit(model: &Model) -> String {
    let mut out = String::new();
    out.push_str(
        "# Performance model generated by Mira (static analysis)\n\
         # Evaluate: import this module, set parameters, call a function.\n\
         # Besides per-category instruction counts, metric dicts carry\n\
         # 'load_bytes'/'store_bytes' (explicit data-memory traffic) and\n\
         # 'flops' (packed-aware FP operations) for roofline analysis.\n\
         # All accumulation is checked against signed 64-bit range via\n\
         # _chk_i64, matching the Rust evaluator: parameter values large\n\
         # enough to overflow i64 raise OverflowError instead of silently\n\
         # producing counts the native toolchain would refuse.\n\n\
         import math\n\n\
         _I64_MAX = (1 << 63) - 1\n\n\
         def _chk_i64(v):\n\
         \t\"\"\"Refuse values outside signed 64-bit range (Rust parity).\"\"\"\n\
         \tif v > _I64_MAX or v < -_I64_MAX - 1:\n\
         \t\traise OverflowError('model value exceeds signed 64-bit range')\n\
         \treturn v\n\n\
         def _round_count(v):\n\
         \t\"\"\"Round a count to the nearest integer, halves up: floor(v + 1/2),\n\
         \tas the Rust evaluator does (Python's round takes halves to even).\n\
         \tIntegers pass through untouched, so large counts stay exact.\"\"\"\n\
         \tif isinstance(v, int):\n\
         \t\treturn v\n\
         \treturn (math.floor(2 * v) + 1) // 2\n\n\
         def handle_function_call(caller, callee, iterations):\n\
         \t\"\"\"Merge callee metrics into caller, scaled by loop iterations.\"\"\"\n\
         \tfor key, value in callee.items():\n\
         \t\tcaller[key] = _chk_i64(caller.get(key, 0) + value * iterations)\n\n\
         def bytes_arithmetic_intensity(metrics):\n\
         \t\"\"\"FLOPs per byte moved through explicit memory operands.\n\n\
         \tA kernel with FLOPs but no memory traffic is compute-bound in\n\
         \tthe extreme (inf), not memory-bound (0).\"\"\"\n\
         \tmoved = metrics.get('load_bytes', 0) + metrics.get('store_bytes', 0)\n\
         \tif moved:\n\
         \t\treturn metrics.get('flops', 0) / moved\n\
         \treturn float('inf') if metrics.get('flops', 0) else 0.0\n\n",
    );
    for f in model.functions.values() {
        let params = f.params.join(", ");
        out.push_str(&format!("def {}({}):\n", f.mangled, params));
        out.push_str("\tmetrics = {}\n");
        for op in &f.ops {
            match op {
                ModelOp::Acc {
                    line,
                    category,
                    count,
                } => {
                    let expr = to_python(count);
                    out.push_str(&format!(
                        "\t# line {line}\n\tmetrics['{}'] = _chk_i64(metrics.get('{}', 0) + _round_count({expr}))\n",
                        category.name(),
                        category.name(),
                    ));
                }
                ModelOp::Call {
                    callee,
                    line,
                    multiplier,
                } => {
                    let callee_m = model
                        .functions
                        .get(callee)
                        .map(|c| c.mangled.clone())
                        .unwrap_or_else(|| callee.clone());
                    let callee_params = model
                        .functions
                        .get(callee)
                        .map(|c| c.params.join(", "))
                        .unwrap_or_default();
                    out.push_str(&format!(
                        "\t# line {line}: call {callee}\n\thandle_function_call(metrics, {callee_m}({callee_params}), _chk_i64(_round_count({})))\n",
                        to_python(multiplier),
                    ));
                }
                ModelOp::MemAcc {
                    line,
                    store,
                    bytes_per_exec,
                    frame,
                    count,
                } => {
                    let key = if *store { "store_bytes" } else { "load_bytes" };
                    let expr = to_python(count);
                    out.push_str(&format!(
                        "\t# line {line}\n\tmetrics['{key}'] = _chk_i64(metrics.get('{key}', 0) + {bytes_per_exec} * _round_count({expr}))\n",
                    ));
                    if *frame {
                        // frame (spill-slot) traffic is tracked separately so
                        // roofline consumers can subtract it from the totals
                        let fkey = if *store {
                            "frame_store_bytes"
                        } else {
                            "frame_load_bytes"
                        };
                        out.push_str(&format!(
                            "\tmetrics['{fkey}'] = _chk_i64(metrics.get('{fkey}', 0) + {bytes_per_exec} * _round_count({expr}))\n",
                        ));
                    }
                }
                ModelOp::FlopAcc { line, count } => {
                    out.push_str(&format!(
                        "\t# line {line}\n\tmetrics['flops'] = _chk_i64(metrics.get('flops', 0) + _round_count({}))\n",
                        to_python(count),
                    ));
                }
            }
        }
        out.push_str("\treturn metrics\n\n");
        // the per-line (per loop nest) data-byte closed forms, the
        // Python mirror of `Model::line_data_bytes_exprs` — per-nest
        // roofline consumers read these without the Rust toolchain
        if let Ok(lines) = model.line_data_bytes_exprs(&f.name) {
            out.push_str(&format!("def {}_line_bytes({}):\n", f.mangled, params));
            out.push_str(
                "\t\"\"\"Per-source-line (load, store) data bytes, frame traffic excluded.\"\"\"\n",
            );
            if lines.is_empty() {
                out.push_str("\treturn {}\n\n");
            } else {
                out.push_str("\treturn {\n");
                for (line, (load, store)) in &lines {
                    out.push_str(&format!(
                        "\t\t{line}: (_round_count({}), _round_count({})),\n",
                        to_python(load),
                        to_python(store),
                    ));
                }
                out.push_str("\t}\n\n");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FuncModel;
    use mira_arch::Category;
    use mira_sym::SymExpr;

    fn model() -> Model {
        let mut m = Model::default();
        m.functions.insert(
            "foo".to_string(),
            FuncModel {
                name: "foo".to_string(),
                mangled: "foo_2".to_string(),
                params: vec!["n".to_string(), "y".to_string()],
                ops: vec![
                    ModelOp::Acc {
                        line: 4,
                        category: Category::Sse2PackedArith,
                        count: SymExpr::param("n") * SymExpr::param("y"),
                    },
                    ModelOp::MemAcc {
                        line: 4,
                        store: false,
                        bytes_per_exec: 16,
                        frame: false,
                        count: SymExpr::param("n"),
                    },
                    ModelOp::MemAcc {
                        line: 5,
                        store: true,
                        bytes_per_exec: 8,
                        frame: true,
                        count: SymExpr::constant(2),
                    },
                    ModelOp::FlopAcc {
                        line: 4,
                        count: SymExpr::param("n") * SymExpr::param("y"),
                    },
                ],
            },
        );
        m.functions.insert(
            "main".to_string(),
            FuncModel {
                name: "main".to_string(),
                mangled: "main_0".to_string(),
                params: vec!["n".to_string(), "y".to_string()],
                ops: vec![ModelOp::Call {
                    callee: "foo".to_string(),
                    line: 16,
                    multiplier: SymExpr::constant(1),
                }],
            },
        );
        m
    }

    #[test]
    fn emits_fig5_structure() {
        let py = emit(&model());
        assert!(py.contains("def handle_function_call(caller, callee, iterations):"));
        assert!(py.contains("def foo_2(n, y):"), "{py}");
        assert!(py.contains("def main_0(n, y):"), "{py}");
        assert!(
            py.contains("handle_function_call(metrics, foo_2(n, y)"),
            "{py}"
        );
        assert!(py.contains("metrics['sse2_packed_arith']"), "{py}");
        assert!(py.contains("return metrics"));
    }

    #[test]
    fn emits_bytes_and_flops() {
        let py = emit(&model());
        assert!(
            py.contains("def bytes_arithmetic_intensity(metrics):"),
            "{py}"
        );
        assert!(
            py.contains("metrics['load_bytes'] = _chk_i64(metrics.get('load_bytes', 0) + 16 * _round_count(n))"),
            "{py}"
        );
        assert!(
            py.contains("metrics['flops'] = _chk_i64(metrics.get('flops', 0) + _round_count("),
            "{py}"
        );
        // frame ops land in the totals AND the frame_* side channel
        assert!(
            py.contains("metrics['store_bytes'] = _chk_i64(metrics.get('store_bytes', 0) + 8 * _round_count(2))"),
            "{py}"
        );
        assert!(
            py.contains("metrics['frame_store_bytes'] = _chk_i64(metrics.get('frame_store_bytes', 0) + 8 * _round_count(2))"),
            "{py}"
        );
        // data ops do not emit a frame_* line
        assert!(!py.contains("frame_load_bytes"), "{py}");
    }

    #[test]
    fn emits_per_line_byte_helpers() {
        let py = emit(&model());
        assert!(py.contains("def foo_2_line_bytes(n, y):"), "{py}");
        // line 4's 16-byte packed load, as a (load, store) pair; the
        // frame-only line 5 is excluded
        assert!(
            py.contains("4: (_round_count(16*n), _round_count(0)),"),
            "{py}"
        );
        assert!(!py.contains("5: ("), "frame-only lines are omitted: {py}");
        // main has no own memory ops: empty dict, still emitted
        assert!(py.contains("def main_0_line_bytes(n, y):"), "{py}");
    }

    #[test]
    fn emits_chk_i64_guard() {
        let py = emit(&model());
        // the helper itself …
        assert!(py.contains("def _chk_i64(v):"), "{py}");
        assert!(py.contains("_I64_MAX = (1 << 63) - 1"), "{py}");
        assert!(py.contains("raise OverflowError"), "{py}");
        // … guards every accumulation path, including call composition
        assert!(
            py.contains("caller[key] = _chk_i64(caller.get(key, 0) + value * iterations)"),
            "{py}"
        );
        assert!(
            py.contains("handle_function_call(metrics, foo_2(n, y), _chk_i64(_round_count(1)))"),
            "{py}"
        );
    }

    #[test]
    fn python_is_tab_consistent() {
        let py = emit(&model());
        for line in py.lines() {
            // no mixed indentation
            assert!(!line.starts_with(' '), "space-indented line: {line:?}");
        }
    }

    #[test]
    fn emits_roofline_machine_and_helper() {
        let arch = mira_arch::ArchDescription::default();
        let py = emit_with_arch(&model(), &arch);
        assert!(py.contains("MACHINE = {"), "{py}");
        assert!(py.contains("'peak_scalar_flops_per_cycle': 2,"), "{py}");
        assert!(py.contains("'peak_vector_flops_per_cycle': 4,"), "{py}");
        assert!(
            py.contains("'bandwidth_bytes_per_cycle': {'l1': 32, 'l2': 16, 'dram': 4},"),
            "{py}"
        );
        assert!(
            py.contains("def roofline_cycles(metrics, vectorized=False):"),
            "{py}"
        );
        // frame traffic is subtracted before the ceilings
        assert!(py.contains("metrics.get('frame_load_bytes', 0)"), "{py}");
        // the plain emitter stays machine-free
        assert!(
            !emit(&model()).contains("MACHINE"),
            "arch-less emit unchanged"
        );
        // indentation discipline holds for the appended code too
        for line in py.lines() {
            assert!(!line.starts_with(' '), "space-indented line: {line:?}");
        }
    }
}
