//! # mira-model — the generated performance model
//!
//! Mira's output (paper §III-C) is a *parametric model*: per source
//! function, a program that accumulates per-category instruction counts as
//! symbolic expressions over user parameters, composed across calls via the
//! `handle_function_call` helper. The paper emits Python (Fig. 5); we keep
//! the model as a typed IR with
//!
//! * a native evaluator ([`Model::eval`]) used by the validation harness
//!   and tests, and
//! * a Python emitter ([`python::emit`]) that reproduces the paper's
//!   output format (mangled function names like `A_foo_2`, metric dicts,
//!   `handle_function_call`).

pub mod python;

use mira_arch::{ArchDescription, Category, CategoryCounts};
use mira_sym::{Bindings, EvalError, Rat, SymExpr};
use std::collections::BTreeMap;
use std::fmt;

/// One accumulation or call-composition step in a function model.
#[derive(Clone, PartialEq, Debug)]
pub enum ModelOp {
    /// `metrics[category] += count` — `count` is parametric; `line` records
    /// the source line this contribution came from (statement-level
    /// granularity, §III-C6).
    Acc {
        line: u32,
        category: Category,
        count: SymExpr,
    },
    /// `handle_function_call(metrics, callee(), multiplier)` — the callee's
    /// whole metric dict scaled by the call count (paper §III-C5).
    Call {
        callee: String,
        line: u32,
        multiplier: SymExpr,
    },
    /// `bytes += bytes_per_exec * count` — explicit data-memory traffic of
    /// the instructions on `line` (see `mira_isa::Inst::memory_bytes` for
    /// the accounting contract shared with the VM cache simulator).
    MemAcc {
        line: u32,
        /// `true` for stores, `false` for loads.
        store: bool,
        /// Bytes moved per execution (8 scalar, 16 packed).
        bytes_per_exec: u32,
        /// `true` when the operand addresses the stack frame (spill
        /// slots, stack-passed arguments — `mira_isa::Inst::is_frame_access`)
        /// rather than heap arrays. Frame traffic counts toward the byte
        /// totals but not toward the roofline's *data* traffic.
        frame: bool,
        count: SymExpr,
    },
    /// `flops += count` — source-level FP operations (packed instructions
    /// contribute both lanes), the numerator of bytes-based arithmetic
    /// intensity.
    FlopAcc { line: u32, count: SymExpr },
}

/// The model of one source function.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FuncModel {
    /// Original source name.
    pub name: String,
    /// Mangled model name (`name_<argcount>`, as in the paper's `A_foo_2`).
    pub mangled: String,
    /// Model parameters this function's expressions reference.
    pub params: Vec<String>,
    pub ops: Vec<ModelOp>,
}

/// A whole-program performance model.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Model {
    pub functions: BTreeMap<String, FuncModel>,
}

/// Model evaluation errors.
#[derive(Clone, PartialEq, Debug)]
pub enum ModelError {
    UnknownFunction(String),
    Eval(EvalError),
    /// Call graph too deep (recursion is not modelable statically).
    TooDeep,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::UnknownFunction(n) => write!(f, "model has no function `{n}`"),
            ModelError::Eval(e) => write!(f, "{e}"),
            ModelError::TooDeep => write!(f, "call composition too deep (recursive model?)"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<EvalError> for ModelError {
    fn from(e: EvalError) -> ModelError {
        ModelError::Eval(e)
    }
}

/// Refuse values outside signed 64-bit range — the checked domain model
/// evaluation shares with the emitted Python's `_chk_i64`.
fn in_i64(v: i128) -> Result<i128, ModelError> {
    if i64::try_from(v).is_ok() {
        Ok(v)
    } else {
        Err(ModelError::Eval(EvalError::Overflow))
    }
}

fn checked(v: Option<i128>) -> Result<i128, ModelError> {
    v.ok_or(ModelError::Eval(EvalError::Overflow))
}

/// `acc + sub * k` with every step checked.
fn acc_scaled(acc: i128, sub: i128, k: i128) -> Result<i128, ModelError> {
    checked(acc.checked_add(checked(sub.checked_mul(k))?))
}

/// The result of evaluating a function model: concrete per-category counts,
/// with per-line attribution retained.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub counts: CategoryCounts,
    /// line → counts for the *directly owned* contributions (callee counts
    /// are merged only into `counts`, attributed to the call line).
    pub lines: BTreeMap<u32, CategoryCounts>,
    /// Bytes loaded through explicit memory operands (callees included).
    pub load_bytes: i128,
    /// Bytes stored through explicit memory operands (callees included).
    pub store_bytes: i128,
    /// The subset of `load_bytes` that targets heap data (arrays) rather
    /// than the stack frame — the load traffic a roofline memory ceiling
    /// sees.
    pub data_load_bytes: i128,
    /// Heap-data subset of `store_bytes` (see `data_load_bytes`).
    pub data_store_bytes: i128,
    /// Source-level FP operations (packed instructions count both lanes).
    pub flops: i128,
    /// line → `(load bytes, store bytes)` for the directly owned
    /// contributions — the per-statement rollup of the memory model.
    pub line_bytes: BTreeMap<u32, (i128, i128)>,
}

impl Report {
    /// Value of a metric group (e.g. `fpi`).
    pub fn metric(&self, cats: &[Category]) -> i128 {
        self.counts.metric(cats)
    }

    /// `PAPI_FP_INS` equivalent under an architecture description.
    pub fn fpi(&self, arch: &ArchDescription) -> i128 {
        self.metric(arch.fpi())
    }

    /// Instruction-based arithmetic intensity (paper §IV-D2): FP arithmetic
    /// instructions over FP data-movement instructions. A ratio of retired
    /// instruction counts — not bytes; see
    /// [`Report::bytes_arithmetic_intensity`] for the roofline-style
    /// FLOPs-per-byte metric.
    pub fn instruction_arithmetic_intensity(&self, arch: &ArchDescription) -> f64 {
        let num = self.fpi(arch) as f64;
        let den = self
            .counts
            .metric(arch.metric("fp_movement").unwrap_or(&[])) as f64;
        if den == 0.0 {
            0.0
        } else {
            num / den
        }
    }

    /// Total explicit-memory-operand traffic, loads plus stores.
    pub fn total_bytes(&self) -> i128 {
        self.load_bytes + self.store_bytes
    }

    /// Heap-data traffic only — frame (spill/argument) bytes excluded.
    pub fn data_bytes(&self) -> i128 {
        self.data_load_bytes + self.data_store_bytes
    }

    /// Bytes-based arithmetic intensity: FLOPs per byte moved through
    /// explicit memory operands — the x-axis of a roofline plot. A
    /// kernel that computes without touching memory is compute-bound in
    /// the extreme: `+∞`, not `0` (which would claim the opposite).
    /// `0.0` only when there are neither FLOPs nor bytes.
    pub fn bytes_arithmetic_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0 {
            if self.flops == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.flops as f64 / b as f64
        }
    }

    /// Total instructions.
    pub fn total(&self) -> i128 {
        self.counts.total()
    }

    /// Table-II style rows: `(display name, count)`, descending.
    pub fn category_table(&self) -> Vec<(&'static str, i128)> {
        self.counts
            .nonzero()
            .into_iter()
            .map(|(c, n)| (c.display_name(), n))
            .collect()
    }
}

impl Model {
    pub fn function(&self, name: &str) -> Option<&FuncModel> {
        self.functions.get(name)
    }

    /// All parameter names referenced anywhere in the model.
    pub fn params(&self) -> Vec<String> {
        let mut set = std::collections::BTreeSet::new();
        for f in self.functions.values() {
            for p in &f.params {
                set.insert(p.clone());
            }
        }
        set.into_iter().collect()
    }

    /// Evaluate the model of `func` under parameter bindings, composing
    /// callee models (inclusive counts, like a TAU profile).
    ///
    /// Evaluation is *checked*: every evaluated count and every
    /// accumulated metric must stay within signed 64-bit range, at every
    /// composition level. Bindings large enough to push a count past
    /// `i64::MAX` refuse with [`EvalError::Overflow`] instead of
    /// silently wrapping — the same contract the emitted Python enforces
    /// through its `_chk_i64` helper.
    pub fn eval(&self, func: &str, bindings: &Bindings) -> Result<Report, ModelError> {
        self.eval_depth(func, bindings, 0)
    }

    fn eval_depth(
        &self,
        func: &str,
        bindings: &Bindings,
        depth: u32,
    ) -> Result<Report, ModelError> {
        if depth > 64 {
            return Err(ModelError::TooDeep);
        }
        let fm = self
            .functions
            .get(func)
            .ok_or_else(|| ModelError::UnknownFunction(func.to_string()))?;
        let mut report = Report::default();
        for op in &fm.ops {
            match op {
                ModelOp::Acc {
                    line,
                    category,
                    count,
                } => {
                    let v = in_i64(count.eval_count(bindings)?)?;
                    report.counts.add(*category, v);
                    report
                        .lines
                        .entry(*line)
                        .or_default()
                        .add(*category, v);
                }
                ModelOp::Call {
                    callee,
                    line: _,
                    multiplier,
                } => {
                    let k = in_i64(multiplier.eval_count(bindings)?)?;
                    if k == 0 {
                        continue;
                    }
                    let sub = self.eval_depth(callee, bindings, depth + 1)?;
                    for (c, n) in sub.counts.nonzero() {
                        let scaled = checked(n.checked_mul(k))?;
                        report
                            .counts
                            .set(c, checked(report.counts.get(c).checked_add(scaled))?);
                    }
                    report.load_bytes = acc_scaled(report.load_bytes, sub.load_bytes, k)?;
                    report.store_bytes = acc_scaled(report.store_bytes, sub.store_bytes, k)?;
                    report.data_load_bytes =
                        acc_scaled(report.data_load_bytes, sub.data_load_bytes, k)?;
                    report.data_store_bytes =
                        acc_scaled(report.data_store_bytes, sub.data_store_bytes, k)?;
                    report.flops = acc_scaled(report.flops, sub.flops, k)?;
                }
                ModelOp::MemAcc {
                    line,
                    store,
                    bytes_per_exec,
                    frame,
                    count,
                } => {
                    let b = checked(
                        in_i64(count.eval_count(bindings)?)?.checked_mul(*bytes_per_exec as i128),
                    )?;
                    let entry = report.line_bytes.entry(*line).or_default();
                    if *store {
                        report.store_bytes = checked(report.store_bytes.checked_add(b))?;
                        if !frame {
                            report.data_store_bytes =
                                checked(report.data_store_bytes.checked_add(b))?;
                        }
                        entry.1 += b;
                    } else {
                        report.load_bytes = checked(report.load_bytes.checked_add(b))?;
                        if !frame {
                            report.data_load_bytes =
                                checked(report.data_load_bytes.checked_add(b))?;
                        }
                        entry.0 += b;
                    }
                }
                ModelOp::FlopAcc { line: _, count } => {
                    report.flops = checked(
                        report
                            .flops
                            .checked_add(in_i64(count.eval_count(bindings)?)?),
                    )?;
                }
            }
        }
        // Every accumulated metric must still be representable in i64 —
        // the checked domain the emitted Python (`_chk_i64`) shares.
        for (_, n) in report.counts.nonzero() {
            in_i64(n)?;
        }
        in_i64(report.load_bytes)?;
        in_i64(report.store_bytes)?;
        in_i64(report.flops)?;
        Ok(report)
    }

    /// Parametric FPI expression for one function (no evaluation) — the
    /// closed form a user can inspect.
    pub fn fpi_expr(&self, func: &str, arch: &ArchDescription) -> Result<SymExpr, ModelError> {
        let cats = arch.fpi();
        self.fold_expr(func, 0, &|op| match op {
            ModelOp::Acc {
                category, count, ..
            } if cats.contains(category) => Some(count.clone()),
            _ => None,
        })
    }

    /// Closed-form expression for the bytes loaded by one call of `func`
    /// (callees composed through their multipliers).
    pub fn load_bytes_expr(&self, func: &str) -> Result<SymExpr, ModelError> {
        self.bytes_expr(func, false, false)
    }

    /// Closed-form expression for the bytes stored by one call of `func`.
    pub fn store_bytes_expr(&self, func: &str) -> Result<SymExpr, ModelError> {
        self.bytes_expr(func, true, false)
    }

    /// Closed-form heap-data load bytes (frame traffic excluded) — the
    /// numerator of a roofline memory ceiling.
    pub fn data_load_bytes_expr(&self, func: &str) -> Result<SymExpr, ModelError> {
        self.bytes_expr(func, false, true)
    }

    /// Closed-form heap-data store bytes (frame traffic excluded).
    pub fn data_store_bytes_expr(&self, func: &str) -> Result<SymExpr, ModelError> {
        self.bytes_expr(func, true, true)
    }

    /// Every labeled closed form of `func` in one list: FLOPs, FPI, the
    /// total and data-only byte expressions. This is the enumeration
    /// the compiled-evaluator differential tests sweep — any new model
    /// surface should be added here so it is automatically covered.
    pub fn closed_forms(
        &self,
        func: &str,
        arch: &ArchDescription,
    ) -> Result<Vec<(String, SymExpr)>, ModelError> {
        Ok(vec![
            ("flops".to_string(), self.flops_expr(func)?),
            ("fpi".to_string(), self.fpi_expr(func, arch)?),
            ("load_bytes".to_string(), self.load_bytes_expr(func)?),
            ("store_bytes".to_string(), self.store_bytes_expr(func)?),
            ("data_load_bytes".to_string(), self.data_load_bytes_expr(func)?),
            ("data_store_bytes".to_string(), self.data_store_bytes_expr(func)?),
        ])
    }

    /// Per-line closed forms of the *data* (frame-excluded) bytes moved
    /// by the function's own statements: `line → (load bytes, store
    /// bytes)`. Call lines are not included — a callee's traffic
    /// belongs to the callee's own nests. This is the byte side of the
    /// `<name>_line_bytes` helpers in the emitted Python.
    pub fn line_data_bytes_exprs(
        &self,
        func: &str,
    ) -> Result<BTreeMap<u32, (SymExpr, SymExpr)>, ModelError> {
        let fm = self
            .functions
            .get(func)
            .ok_or_else(|| ModelError::UnknownFunction(func.to_string()))?;
        let mut by_line: BTreeMap<u32, (SymExpr, SymExpr)> = BTreeMap::new();
        for op in &fm.ops {
            if let ModelOp::MemAcc {
                line,
                store,
                bytes_per_exec,
                frame: false,
                count,
            } = op
            {
                let e = by_line
                    .entry(*line)
                    .or_insert_with(|| (SymExpr::zero(), SymExpr::zero()));
                let bytes = count.scale(Rat::int(*bytes_per_exec as i128));
                if *store {
                    e.1 = e.1.add_expr(&bytes);
                } else {
                    e.0 = e.0.add_expr(&bytes);
                }
            }
        }
        Ok(by_line)
    }

    /// Closed-form expression for the FLOPs of one call of `func`.
    pub fn flops_expr(&self, func: &str) -> Result<SymExpr, ModelError> {
        self.fold_expr(func, 0, &|op| match op {
            ModelOp::FlopAcc { count, .. } => Some(count.clone()),
            _ => None,
        })
    }

    fn bytes_expr(
        &self,
        func: &str,
        want_store: bool,
        data_only: bool,
    ) -> Result<SymExpr, ModelError> {
        self.fold_expr(func, 0, &|op| match op {
            ModelOp::MemAcc {
                store,
                bytes_per_exec,
                frame,
                count,
                ..
            } if *store == want_store && !(data_only && *frame) => {
                Some(count.scale(Rat::int(*bytes_per_exec as i128)))
            }
            _ => None,
        })
    }

    /// Sum `pick`'s contributions over a function's ops, composing callees
    /// scaled by their call multipliers.
    fn fold_expr(
        &self,
        func: &str,
        depth: u32,
        pick: &dyn Fn(&ModelOp) -> Option<SymExpr>,
    ) -> Result<SymExpr, ModelError> {
        if depth > 64 {
            return Err(ModelError::TooDeep);
        }
        let fm = self
            .functions
            .get(func)
            .ok_or_else(|| ModelError::UnknownFunction(func.to_string()))?;
        let mut total = SymExpr::zero();
        for op in &fm.ops {
            if let Some(e) = pick(op) {
                total = total.add_expr(&e);
            } else if let ModelOp::Call {
                callee, multiplier, ..
            } = op
            {
                let sub = self.fold_expr(callee, depth + 1, pick)?;
                total = total.add_expr(&sub.mul_expr(multiplier));
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_sym::bindings;

    fn simple_model() -> Model {
        // leaf: per call, n mulsd + n addsd (one parametric loop), loading
        // two doubles and storing one per element
        let n = SymExpr::param("n");
        let leaf = FuncModel {
            name: "waxpby".to_string(),
            mangled: "waxpby_3".to_string(),
            params: vec!["n".to_string()],
            ops: vec![
                ModelOp::Acc {
                    line: 2,
                    category: Category::Sse2PackedArith,
                    count: n.clone().scale(mira_sym::Rat::int(2)),
                },
                ModelOp::Acc {
                    line: 2,
                    category: Category::Sse2DataMovement,
                    count: n.clone().scale(mira_sym::Rat::int(3)),
                },
                ModelOp::MemAcc {
                    line: 2,
                    store: false,
                    bytes_per_exec: 8,
                    frame: false,
                    count: n.clone().scale(mira_sym::Rat::int(2)),
                },
                ModelOp::MemAcc {
                    line: 2,
                    store: true,
                    bytes_per_exec: 8,
                    frame: false,
                    count: n.clone(),
                },
                // one spilled local per call: frame traffic counts toward
                // the totals but not toward the data bytes
                ModelOp::MemAcc {
                    line: 3,
                    store: true,
                    bytes_per_exec: 8,
                    frame: true,
                    count: SymExpr::constant(1),
                },
                ModelOp::FlopAcc {
                    line: 2,
                    count: n.clone().scale(mira_sym::Rat::int(2)),
                },
            ],
        };
        // root calls leaf `iters` times
        let root = FuncModel {
            name: "solve".to_string(),
            mangled: "solve_1".to_string(),
            params: vec!["n".to_string(), "iters".to_string()],
            ops: vec![
                ModelOp::Acc {
                    line: 10,
                    category: Category::IntArith,
                    count: SymExpr::param("iters"),
                },
                ModelOp::Call {
                    callee: "waxpby".to_string(),
                    line: 11,
                    multiplier: SymExpr::param("iters"),
                },
            ],
        };
        let mut m = Model::default();
        m.functions.insert(leaf.name.clone(), leaf);
        m.functions.insert(root.name.clone(), root);
        m
    }

    #[test]
    fn eval_leaf() {
        let m = simple_model();
        let arch = ArchDescription::default();
        let r = m.eval("waxpby", &bindings(&[("n", 100)])).unwrap();
        assert_eq!(r.fpi(&arch), 200);
        assert_eq!(r.counts.get(Category::Sse2DataMovement), 300);
        assert_eq!(r.lines.get(&2).unwrap().total(), 500);
    }

    #[test]
    fn eval_composes_calls() {
        let m = simple_model();
        let arch = ArchDescription::default();
        let r = m
            .eval("solve", &bindings(&[("n", 100), ("iters", 7)]))
            .unwrap();
        // 7 × (200 FPI) from the callee
        assert_eq!(r.fpi(&arch), 1400);
        assert_eq!(r.counts.get(Category::IntArith), 7);
    }

    #[test]
    fn arithmetic_intensity() {
        let m = simple_model();
        let arch = ArchDescription::default();
        let r = m.eval("waxpby", &bindings(&[("n", 10)])).unwrap();
        // 20 FPI / 30 movement
        assert!((r.instruction_arithmetic_intensity(&arch) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_and_flops_eval_and_compose() {
        let m = simple_model();
        let r = m.eval("waxpby", &bindings(&[("n", 10)])).unwrap();
        assert_eq!(r.load_bytes, 160);
        assert_eq!(r.store_bytes, 88, "80 data + 8 frame");
        assert_eq!(r.total_bytes(), 248);
        // the frame spill is excluded from the data traffic
        assert_eq!(r.data_load_bytes, 160);
        assert_eq!(r.data_store_bytes, 80);
        assert_eq!(r.data_bytes(), 240);
        assert_eq!(r.flops, 20);
        assert_eq!(r.line_bytes.get(&2), Some(&(160, 80)));
        assert_eq!(r.line_bytes.get(&3), Some(&(0, 8)));
        // 20 flops / 248 bytes
        assert!((r.bytes_arithmetic_intensity() - 20.0 / 248.0).abs() < 1e-12);
        // register-only FP work is compute-bound (+inf), not 0
        let pure = Report {
            flops: 10,
            ..Report::default()
        };
        assert_eq!(pure.bytes_arithmetic_intensity(), f64::INFINITY);
        assert_eq!(Report::default().bytes_arithmetic_intensity(), 0.0);
        // call composition scales bytes (total and data) and flops
        let r = m
            .eval("solve", &bindings(&[("n", 10), ("iters", 3)]))
            .unwrap();
        assert_eq!(r.load_bytes, 480);
        assert_eq!(r.store_bytes, 264);
        assert_eq!(r.data_store_bytes, 240);
        assert_eq!(r.flops, 60);
    }

    #[test]
    fn bytes_closed_forms() {
        let m = simple_model();
        let b = bindings(&[("n", 10), ("iters", 3)]);
        assert_eq!(
            m.load_bytes_expr("solve").unwrap().eval_count(&b).unwrap(),
            480
        );
        assert_eq!(
            m.store_bytes_expr("solve").unwrap().eval_count(&b).unwrap(),
            264
        );
        // the data-only closed forms drop the frame contribution …
        assert_eq!(
            m.data_store_bytes_expr("solve")
                .unwrap()
                .eval_count(&b)
                .unwrap(),
            240
        );
        // … and match the total where no frame ops exist
        assert_eq!(
            m.data_load_bytes_expr("solve").unwrap(),
            m.load_bytes_expr("solve").unwrap()
        );
        assert_eq!(m.flops_expr("solve").unwrap().eval_count(&b).unwrap(), 60);
        assert!(matches!(
            m.load_bytes_expr("nope"),
            Err(ModelError::UnknownFunction(_))
        ));
    }

    #[test]
    fn line_data_bytes_closed_forms() {
        let m = simple_model();
        let lines = m.line_data_bytes_exprs("waxpby").unwrap();
        let b = bindings(&[("n", 10)]);
        // line 2 moves the data traffic; the line-3 frame spill is
        // excluded entirely (no entry, not a zero)
        let (load, store) = lines.get(&2).expect("kernel line present");
        assert_eq!(load.eval_count(&b).unwrap(), 160);
        assert_eq!(store.eval_count(&b).unwrap(), 80);
        assert!(!lines.contains_key(&3), "frame-only lines are omitted");
        assert!(matches!(
            m.line_data_bytes_exprs("nope"),
            Err(ModelError::UnknownFunction(_))
        ));
    }

    #[test]
    fn fpi_expr_closed_form() {
        let m = simple_model();
        let arch = ArchDescription::default();
        let e = m.fpi_expr("solve", &arch).unwrap();
        // 2n * iters
        let b = bindings(&[("n", 50), ("iters", 3)]);
        assert_eq!(e.eval_count(&b).unwrap(), 300);
        assert_eq!(m.params(), vec!["iters".to_string(), "n".to_string()]);
    }

    #[test]
    fn missing_binding_surfaces() {
        let m = simple_model();
        let r = m.eval("waxpby", &bindings(&[]));
        assert!(matches!(r, Err(ModelError::Eval(_))));
    }

    #[test]
    fn unknown_function_error() {
        let m = simple_model();
        assert!(matches!(
            m.eval("nope", &bindings(&[])),
            Err(ModelError::UnknownFunction(_))
        ));
    }

    #[test]
    fn recursion_detected() {
        let mut m = Model::default();
        m.functions.insert(
            "f".to_string(),
            FuncModel {
                name: "f".to_string(),
                mangled: "f_0".to_string(),
                params: vec![],
                ops: vec![ModelOp::Call {
                    callee: "f".to_string(),
                    line: 1,
                    multiplier: SymExpr::constant(1),
                }],
            },
        );
        assert!(matches!(
            m.eval("f", &bindings(&[])),
            Err(ModelError::TooDeep)
        ));
    }

    #[test]
    fn huge_bindings_refuse_instead_of_wrapping() {
        let m = simple_model();
        // n alone stays in range; the leaf is fine …
        let big = (i64::MAX / 64) as i128;
        assert!(m.eval("waxpby", &bindings(&[("n", big)])).is_ok());
        // … but composing it under a large iteration count pushes the
        // accumulated counts past i64: typed refusal, not a wrapped count
        let r = m.eval("solve", &bindings(&[("n", big), ("iters", big)]));
        assert!(
            matches!(r, Err(ModelError::Eval(EvalError::Overflow))),
            "{r:?}"
        );
    }

    #[test]
    fn category_table_sorted() {
        let m = simple_model();
        let r = m.eval("waxpby", &bindings(&[("n", 5)])).unwrap();
        let t = r.category_table();
        assert_eq!(t[0].0, "SSE2 data movement instruction");
        assert_eq!(t[0].1, 15);
    }
}
