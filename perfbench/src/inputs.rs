//! The programs and machines the workloads run on, and the seeded
//! generator of extra affine nests. Everything here is a pure function
//! of the seed.

use std::fmt::Write as _;

use mira_arch::ArchDescription;
use mira_serve::machines;

use crate::util::{Fnv, Rng};

/// The seven serving kernels: `(function, source)`.
pub const SERVING: [(&str, &str); 7] = [
    ("triad", mira_workloads::memval::TRIAD_SRC),
    ("dgemm", mira_workloads::dgemm::DGEMM_SRC),
    ("dgemm_tiled", mira_workloads::roofval::DGEMM_TILED_SRC),
    ("triad_blocked", mira_workloads::roofval::TRIAD_BLOCKED_SRC),
    ("trisolve", mira_workloads::compose::TRISOLVE_SRC),
    ("blur", mira_workloads::compose::STENCIL_SWEEP_SRC),
    ("cg_solve", mira_workloads::minife::MINIFE_SRC),
];

/// The two bundled machines, `(file name, description text)`.
pub fn machine_texts() -> [(&'static str, &'static str); 2] {
    [
        ("generic.ini", mira_arch::desc::DEFAULT_DESCRIPTION),
        ("avx2.ini", machines::AVX2_FMA_DESCRIPTION),
    ]
}

pub fn machines() -> Result<Vec<ArchDescription>, String> {
    let avx2 = machines::avx2_fma().map_err(|e| format!("avx2-fma description: {e}"))?;
    Ok(vec![ArchDescription::default(), avx2])
}

/// One input program.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    pub name: String,
    pub src: String,
}

/// The shapes of the generated nests, one nest each: `(depth,
/// triangular innermost bound, known callee, repetition loop)`. Fixing
/// the shape mix keeps the input set's total cost alike across seeds;
/// the seed draws each nest's references and statements.
const SHAPES: [(usize, bool, bool, bool); 12] = [
    (1, false, false, false),
    (1, false, false, true),
    (1, false, true, true),
    (2, false, false, false),
    (2, false, false, true),
    (2, false, true, false),
    (2, true, false, false),
    (2, true, true, true),
    (3, false, false, false),
    (3, false, true, true),
    (3, true, false, true),
    (3, true, true, false),
];

/// The `cold_model` inputs: the serving kernels, STREAM, the ten
/// Table-I corpus apps and one seeded nest per entry of [`SHAPES`].
pub fn cold_programs(rng: &Rng) -> Vec<Program> {
    let mut out: Vec<Program> = SERVING
        .iter()
        .map(|(f, src)| Program {
            name: f.to_string(),
            src: src.to_string(),
        })
        .collect();
    out.push(Program {
        name: "stream".into(),
        src: mira_workloads::stream::STREAM_SRC.into(),
    });
    for (name, src) in mira_workloads::corpus::corpus() {
        out.push(Program {
            name: name.into(),
            src: src.into(),
        });
    }
    let mut g = rng.fork("nests");
    for (i, &shape) in SHAPES.iter().enumerate() {
        out.push(generated_nest(&mut g, i, shape));
    }
    out
}

/// An affine nest of the given shape — depth 1–3, optionally under a
/// repetition loop, with a rectangular or triangular innermost bound and
/// optionally a known callee invoked from the outermost loop — whose two
/// statements of affine array references the seed draws.
pub fn generated_nest(
    rng: &mut Rng,
    idx: usize,
    (depth, triangular, callee, reps): (usize, bool, bool, bool),
) -> Program {
    const VARS: [&str; 3] = ["i", "j", "k"];
    let stmts = 2;
    let idx_choices: &[&str] = match depth {
        1 => &["i"],
        2 => &["i * n + j", "j * n + i", "j", "i"],
        _ => &["i * n + j", "i * n + k", "k * n + j", "j", "k"],
    };

    let mut src = String::new();
    if callee {
        let _ = writeln!(
            src,
            "void scale{idx}(int n, double* x, double* y) {{\n    for (int t = 0; t < n; t++) {{\n        y[t] = y[t] + 0.5 * x[t];\n    }}\n}}"
        );
    }
    let _ = writeln!(
        src,
        "void nest{idx}(int n, int reps, double* a, double* b, double* c, double s) {{"
    );
    let mut open = 0;
    let pad = |n: usize| "    ".repeat(n + 1);
    if reps {
        let _ = writeln!(src, "{}for (int r = 0; r < reps; r++) {{", pad(open));
        open += 1;
    }
    for level in 0..depth {
        let v = VARS[level];
        let bound = if triangular && level + 1 == depth {
            VARS[level - 1]
        } else {
            "n"
        };
        let _ = writeln!(
            src,
            "{}for (int {v} = 0; {v} < {bound}; {v}++) {{",
            pad(open)
        );
        open += 1;
        if level == 0 && callee {
            let _ = writeln!(src, "{}scale{idx}(n, a, b);", pad(open));
        }
    }
    for _ in 0..stmts {
        let mut pick = || idx_choices[rng.below(idx_choices.len() as u64) as usize];
        let (x, y, z) = (pick(), pick(), pick());
        let line = match rng.below(3) {
            0 => format!("a[{x}] = b[{y}] + s * c[{z}];"),
            1 => format!("a[{x}] += b[{y}] * c[{z}];"),
            _ => format!("c[{x}] = a[{y}] * s;"),
        };
        let _ = writeln!(src, "{}{line}", pad(open));
    }
    while open > 0 {
        open -= 1;
        let _ = writeln!(src, "{}}}", pad(open));
    }
    src.push_str("}\n");
    Program {
        name: format!("nest{idx}"),
        src,
    }
}

/// The value bound to a model parameter in one seeded case: sizes get
/// a wide range, repetition-like counts a narrow one, and miniFE's
/// density parameter its physical value. Deterministic in `(case, name)`
/// so the served query and the tree-walk oracle bind the same numbers.
pub fn param_value(case: u64, name: &str) -> i128 {
    let mut h = Fnv::new();
    h.bytes(name.as_bytes());
    h.u64(case);
    let mut r = Rng::new(h.finish());
    match name {
        "nnz_row_milli" => 26_144,
        "reps" | "steps" | "cg_iters" | "iters" | "max_iter" => r.range(1, 16) as i128,
        _ => r.range(8, 1 << 16) as i128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = cold_programs(&Rng::new(42));
        let b = cold_programs(&Rng::new(42));
        assert_eq!(a, b);
        let c = cold_programs(&Rng::new(43));
        assert_eq!(a.len(), c.len());
        assert_ne!(a, c, "the seed must drive the generated nests");
        assert_eq!(param_value(9, "n"), param_value(9, "n"));
    }

    /// Every generated nest goes through the whole pipeline: the
    /// generator emits only programs the front end accepts.
    #[test]
    fn generated_nests_analyze() {
        let mut rng = Rng::new(3);
        for i in 0..48 {
            let p = generated_nest(&mut rng, i, SHAPES[i % SHAPES.len()]);
            mira_core::analyze_source(&p.src, &mira_core::MiraOptions::default())
                .unwrap_or_else(|e| panic!("{e}\n{}", p.src));
        }
    }
}
