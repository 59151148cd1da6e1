//! The per-op model evaluator `Model::eval` replaced, kept as the
//! reference it is held to: every op's count is evaluated from its
//! expression, and every call site evaluates its callee's whole model
//! again, lines included. Shared by the model crate's differential test
//! and the pipeline fuzzer (`tests/fuzz_pipeline.rs` includes this file).

use mira_model::{Model, ModelError, ModelOp, Report};
use mira_sym::{Bindings, EvalError};

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

fn acc_scaled(acc: i128, sub: i128, k: i128) -> Result<i128, ModelError> {
    checked(acc.checked_add(checked(sub.checked_mul(k))?))
}

/// `model.eval(func, bindings)` as it was computed op by op.
pub fn eval(model: &Model, func: &str, bindings: &Bindings) -> Result<Report, ModelError> {
    eval_depth(model, func, bindings, 0)
}

fn eval_depth(
    model: &Model,
    func: &str,
    bindings: &Bindings,
    depth: u32,
) -> Result<Report, ModelError> {
    if depth > 64 {
        return Err(ModelError::TooDeep);
    }
    let fm = model
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
                report.lines.entry(*line).or_default().add(*category, v);
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
                let sub = eval_depth(model, callee, bindings, depth + 1)?;
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
                        report.data_store_bytes = checked(report.data_store_bytes.checked_add(b))?;
                    }
                    entry.1 += b;
                } else {
                    report.load_bytes = checked(report.load_bytes.checked_add(b))?;
                    if !frame {
                        report.data_load_bytes = checked(report.data_load_bytes.checked_add(b))?;
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
    for (_, n) in report.counts.nonzero() {
        in_i64(n)?;
    }
    in_i64(report.load_bytes)?;
    in_i64(report.store_bytes)?;
    in_i64(report.flops)?;
    Ok(report)
}

/// Two evaluation outcomes agree: every `Report` field, or the same
/// refusal.
pub fn same(a: &Result<Report, ModelError>, b: &Result<Report, ModelError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            // destructured, so a field added to `Report` must be added here
            let Report {
                counts,
                lines,
                load_bytes,
                store_bytes,
                data_load_bytes,
                data_store_bytes,
                flops,
                line_bytes,
            } = x;
            *counts == y.counts
                && *lines == y.lines
                && *load_bytes == y.load_bytes
                && *store_bytes == y.store_bytes
                && *data_load_bytes == y.data_load_bytes
                && *data_store_bytes == y.data_store_bytes
                && *flops == y.flops
                && *line_bytes == y.line_bytes
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}
