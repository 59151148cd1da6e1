//! ASCII rendering of two-dimensional iteration domains — used by the
//! Figure-4 reproduction binary to draw the lattice-point diagrams from the
//! paper (polyhedral area of a double-nested loop, the shrunken domain under
//! an `if` constraint, and the "holes" left by a modulo condition).

use crate::Polyhedron;
use mira_sym::Bindings;

/// Render the integer points of a 2-D domain (outer variable on the Y axis,
/// inner on the X axis) as an ASCII lattice plot. Points in the domain are
/// `●`, lattice positions of the bounding box outside it are `·`.
///
/// `excluded`, if given, marks the points of `domain` that a branch or a
/// modulo condition filters out: points in both domains are drawn `o`.
pub fn render_2d(
    domain: &Polyhedron,
    excluded: Option<&Polyhedron>,
    bindings: &Bindings,
    x_range: (i128, i128),
    y_range: (i128, i128),
) -> String {
    assert_eq!(domain.vars().len(), 2, "render_2d needs a 2-D domain");
    let yvar = domain.vars()[0].clone();
    let xvar = domain.vars()[1].clone();
    let mut out = String::new();
    let contains = |p: &Polyhedron, x: i128, y: i128| -> bool {
        let mut b = bindings.clone();
        b.insert(xvar.clone(), x);
        b.insert(yvar.clone(), y);
        p.constraints().iter().all(|c| {
            c.eval(&b)
                .map(|v| v >= mira_sym::Rat::ZERO)
                .unwrap_or(false)
        }) && p.lattices().iter().all(|l| {
            let v = *b.get(&l.var).unwrap();
            v.rem_euclid(l.modulus as i128) == l.residue as i128
        })
    };
    for y in (y_range.0..=y_range.1).rev() {
        out.push_str(&format!("{y:>3} |"));
        for x in x_range.0..=x_range.1 {
            let ch = if !contains(domain, x, y) {
                " ·"
            } else if excluded.is_some_and(|e| contains(e, x, y)) {
                " o"
            } else {
                " ●"
            };
            out.push_str(ch);
        }
        out.push('\n');
    }
    out.push_str("    +");
    for _ in x_range.0..=x_range.1 {
        out.push_str("--");
    }
    out.push('\n');
    out.push_str("     ");
    for x in x_range.0..=x_range.1 {
        out.push_str(&format!("{x:>2}"));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_sym::{bindings, SymExpr};

    /// The paper's Listing-2 domain: 1 ≤ i ≤ 4, i+1 ≤ j ≤ 6.
    fn listing2() -> Polyhedron {
        Polyhedron::new()
            .with_var("i")
            .with_var("j")
            .with_bounds("i", SymExpr::constant(1), SymExpr::constant(4))
            .with_bounds(
                "j",
                SymExpr::param("i") + SymExpr::constant(1),
                SymExpr::constant(6),
            )
    }

    #[test]
    fn renders_listing2_lattice() {
        let s = render_2d(&listing2(), None, &bindings(&[]), (0, 7), (0, 5));
        // row i=1 has points j=2..6 → five ●
        let row1: &str = s.lines().nth(4).unwrap(); // y from 5 down: 5,4,3,2,1
        assert_eq!(row1.matches('●').count(), 5, "{s}");
        // 14 points total (paper Fig. 4a)
        assert_eq!(s.matches('●').count(), 14, "{s}");
    }

    #[test]
    fn renders_branch_filtered_points() {
        // Fig 4(b): if (j > 4) excludes every j ≤ 4
        let excluded = listing2().with_constraint(SymExpr::constant(4) - SymExpr::param("j"));
        let s = render_2d(&listing2(), Some(&excluded), &bindings(&[]), (0, 7), (0, 5));
        assert_eq!(s.matches('●').count(), 8, "{s}");
        assert_eq!(s.matches('o').count(), 6, "{s}");
    }

    #[test]
    fn renders_modulo_holes_in_their_column() {
        // Fig 4(c): if (j % 4 != 0) leaves holes at j ≡ 0 (mod 4)
        let holes = listing2().with_lattice("j", 4, 0);
        let s = render_2d(&listing2(), Some(&holes), &bindings(&[]), (0, 7), (0, 5));
        assert_eq!(s.matches('●').count(), 11, "{s}");
        assert_eq!(s.matches('o').count(), 3, "{s}");
        for line in s.lines().filter(|l| l.contains('o')) {
            // cells follow the '|', two characters each, x = 0 first
            let cells: Vec<char> = line.split_once('|').unwrap().1.chars().skip(1).step_by(2).collect();
            assert_eq!(cells.iter().position(|&c| c == 'o'), Some(4), "{s}");
            assert_eq!(cells.iter().filter(|&&c| c == 'o').count(), 1, "{s}");
        }
    }
}
