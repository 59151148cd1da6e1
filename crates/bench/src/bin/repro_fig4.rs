//! Figure 4 reproduction: polyhedral iteration domains for the paper's
//! Listings 2–5 — lattice plots, counts, and the non-convex exception.

use mira_poly::ascii::render_2d;
use mira_poly::union::DomainUnion;
use mira_poly::Polyhedron;
use mira_sym::{bindings, SymExpr};

fn var(n: &str) -> SymExpr {
    SymExpr::param(n)
}

fn listing2() -> Polyhedron {
    Polyhedron::new()
        .with_var("i")
        .with_var("j")
        .with_bounds("i", SymExpr::constant(1), SymExpr::constant(4))
        .with_bounds("j", var("i") + SymExpr::constant(1), SymExpr::constant(6))
}

fn main() {
    let b = bindings(&[]);
    let d = listing2();

    println!("(a) double-nested loop (Listing 2): 1<=i<=4, i+1<=j<=6");
    println!("{}", render_2d(&d, None, &b, (0, 7), (0, 5)));
    println!("    integer points = {}\n", d.count().unwrap());

    let constrained = d.clone().with_constraint(var("j") - SymExpr::constant(5));
    let excluded = d.clone().with_constraint(SymExpr::constant(4) - var("j"));
    println!("(b) with branch constraint if (j > 4)  [o = excluded by branch]");
    println!("{}", render_2d(&d, Some(&excluded), &b, (0, 7), (0, 5)));
    println!("    integer points = {}\n", constrained.count().unwrap());

    let kept = d.count_complement_lattice("j", 4, 0).unwrap();
    let holes = d.clone().with_lattice("j", 4, 0);
    println!("(c) if (j % 4 != 0) causes holes  [o = hole]");
    println!("{}", render_2d(&d, Some(&holes), &b, (0, 7), (0, 5)));
    println!(
        "    Count_true = Count_total - Count_false = {} - {} = {}\n",
        d.count().unwrap(),
        holes.count().unwrap(),
        kept
    );

    println!("(d) Listing 3: j from min(6-i,3) to max(8-i,i) — non-convex.");
    println!("    Plain polyhedral counting rejects it (annotation required in the paper);");
    println!("    mira-poly's DomainUnion extension counts it by inclusion-exclusion:");
    let base = Polyhedron::new().with_var("i").with_var("j").with_bounds(
        "i",
        SymExpr::constant(1),
        SymExpr::constant(5),
    );
    let mut u = DomainUnion::new();
    for lb in [SymExpr::constant(6) - var("i"), SymExpr::constant(3)] {
        for ub in [SymExpr::constant(8) - var("i"), var("i")] {
            u.push(
                base.clone()
                    .with_constraint(var("j") - lb.clone())
                    .with_constraint(ub.clone() - var("j")),
            );
        }
    }
    println!(
        "    union count = {} (brute-force check: {})",
        u.count().unwrap(),
        u.enumerate(&b)
    );
}
