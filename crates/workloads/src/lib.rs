//! # mira-workloads — the paper's evaluation workloads in MiniC
//!
//! STREAM (§IV-B), DGEMM (§IV-B) and the miniFE mini-application (§IV-C),
//! rewritten in MiniC, together with the harnesses that run them both ways:
//!
//! * **statically** — Mira analyzes the source + compiled binary and
//!   evaluates the parametric model (no execution of the kernels), and
//! * **dynamically** — the instrumented VM executes the same binary and
//!   reports inclusive per-function counts (the TAU/PAPI stand-in).
//!
//! Every dynamic run goes through one runner, [`run`]: a [`run::Shape`]
//! owns a kernel's VM memory size, inputs, arguments, unmeasured setup
//! and static-side bindings, on either VM engine ([`run::Engine`]).
//! The FPI harnesses ([`stream`], [`dgemm`], [`minife`]) return
//! `(static FPI, dynamic FPI)` pairs from which the Table III–V
//! reproduction binaries compute the error columns; [`memval`] and
//! [`roofval`] hold the byte and roofline models to the cache simulator.
//! A [`corpus`] of ten small applications stands in for the Table-I loop
//! coverage survey.

pub mod compose;
pub mod corpus;
pub mod dgemm;
pub mod memval;
pub mod minife;
pub mod roofval;
pub mod run;
pub mod stream;

use mira_arch::ArchDescription;

/// One validation row: a workload configuration measured both ways.
#[derive(Clone, Debug)]
pub struct ValidationRow {
    pub label: String,
    pub function: String,
    pub dynamic_fpi: i128,
    pub static_fpi: i128,
}

impl ValidationRow {
    /// Relative error of the static estimate versus the dynamic
    /// measurement, in percent (the paper's error column).
    pub fn error_pct(&self) -> f64 {
        if self.dynamic_fpi == 0 {
            return 0.0;
        }
        100.0 * (self.dynamic_fpi - self.static_fpi).abs() as f64 / self.dynamic_fpi as f64
    }
}

/// Shared helper: default architecture description used by all harnesses.
pub fn arch() -> ArchDescription {
    ArchDescription::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_pct() {
        let r = ValidationRow {
            label: "t".to_string(),
            function: "f".to_string(),
            dynamic_fpi: 1000,
            static_fpi: 990,
        };
        assert!((r.error_pct() - 1.0).abs() < 1e-12);
        let z = ValidationRow {
            dynamic_fpi: 0,
            ..r
        };
        assert_eq!(z.error_pct(), 0.0);
    }
}
