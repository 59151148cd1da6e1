//! The symbolic expression type.
//!
//! A [`SymExpr`] is a multivariate polynomial with [`Rat`] coefficients over
//! [`Atom`]s. Atoms are either named parameters, floor divisions (which
//! arise from strided loops and lattice/modulo constraints), or
//! `max(0, ·)` clamps (which arise from iteration domains that may be
//! empty for some parameter values). Expressions are kept in a canonical
//! sorted form so that structural equality is semantic equality for the
//! polynomial part.

use crate::budget;
use crate::rat::Rat;
use crate::Bindings;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};
use std::rc::Rc;

/// An indivisible symbolic quantity.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// A named model parameter (problem size, annotation variable, ...).
    /// The name is shared: cloning a monomial bumps a count instead of
    /// copying the string.
    Param(Rc<str>),
    /// `floor(expr / d)` with `d > 0`. The inner expression is
    /// reference-counted: atoms are cloned wholesale by `substitute`,
    /// `simplify` and polynomial arithmetic, and an `Rc` bump is O(1)
    /// where a `Box` clone deep-copied the whole tree.
    FloorDiv(Rc<SymExpr>, i64),
    /// `max(0, expr)` — used when an iteration domain may be empty.
    /// Reference-counted for the same reason as [`Atom::FloorDiv`].
    Clamp(Rc<SymExpr>),
}

impl Atom {
    /// The atom's value, its inner expression evaluated through `t`.
    fn eval_in<'a>(&'a self, b: &Bindings, t: &mut AtomTable<'a>) -> Result<i128, EvalError> {
        match self {
            Atom::Param(name) => b
                .get(&**name)
                .copied()
                .ok_or_else(|| EvalError::MissingParam(name.to_string())),
            Atom::FloorDiv(e, d) => {
                let _g = budget::descend()
                    .ok_or(EvalError::Budget(budget::BudgetError::DepthExceeded))?;
                let v = e.eval_in(b, t)?;
                let den = Rat::int(*d as i128);
                v.checked_div(den)
                    .ok_or(EvalError::Overflow)
                    .map(|r| r.floor())
            }
            Atom::Clamp(e) => {
                let _g = budget::descend()
                    .ok_or(EvalError::Budget(budget::BudgetError::DepthExceeded))?;
                let v = e.eval_in(b, t)?;
                if v < Rat::ZERO {
                    Ok(0)
                } else {
                    // clamp values are counts; they are integral in practice
                    Ok(v.floor())
                }
            }
        }
    }
}

/// The atom values of one evaluation context — one model report, one
/// placement — under one set of bindings. [`SymExpr::eval_in`] values
/// each distinct parameter, floor division and clamp it meets once and
/// answers later visits (of the same atom or an equal one) from here.
///
/// Reuse never changes an answer. A value is the atom's under the
/// bindings at any depth; only whether the walk to it trips the budget
/// depends on where it runs. So a composite atom's value, computed at
/// recursion depth `d`, is reused outside a budget scope, or inside one
/// at a depth no deeper than `d` when it was computed inside a scope:
/// the walk it saves would reach no deeper than the one that computed
/// it, so it could not trip either. Anywhere else the atom is valued
/// again, and a successful revaluation replaces the entry. Only values
/// are kept: an atom that refuses is walked again at every visit, so
/// which error comes first, and every budget trip, stay those of a walk
/// without a table (`crates/sym/tests/atom_table.rs`). Bind the table
/// to one set of bindings: its values are not checked against them.
#[derive(Default)]
pub struct AtomTable<'a> {
    entries: Vec<Valued<'a>>,
    valued: u64,
}

/// One table entry.
struct Valued<'a> {
    atom: &'a Atom,
    value: i128,
    /// [`budget::depth`] when it was computed.
    depth: u32,
    /// Computed inside a budget scope.
    scoped: bool,
}

impl<'a> AtomTable<'a> {
    pub fn new() -> AtomTable<'a> {
        AtomTable::default()
    }

    /// Atom valuations so far: one per distinct atom, plus one per
    /// revaluation the depth rule asked for or refusal walked again.
    pub fn valued(&self) -> u64 {
        self.valued
    }

    fn value(&mut self, atom: &'a Atom, b: &Bindings) -> Result<i128, EvalError> {
        // an atom met again is most often the same one; equal atoms
        // built apart compare structurally (their `Rc`s compare by
        // address first)
        let found = match self.entries.iter().position(|e| std::ptr::eq(e.atom, atom)) {
            Some(i) => Some(i),
            None => self.entries.iter().position(|e| e.atom == atom),
        };
        let (depth, scoped) = (budget::depth(), budget::active());
        if let Some(i) = found {
            let e = &self.entries[i];
            if matches!(atom, Atom::Param(_)) || !scoped || (e.scoped && depth <= e.depth) {
                return Ok(e.value);
            }
        }
        self.valued += 1;
        let value = atom.eval_in(b, self)?;
        let entry = Valued {
            atom,
            value,
            depth,
            scoped,
        };
        match found {
            Some(i) => self.entries[i] = entry,
            None => self.entries.push(entry),
        }
        Ok(value)
    }
}

/// One term of a polynomial: `coeff * Π atom_i ^ pow_i`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Term {
    pub coeff: Rat,
    /// Sorted by atom; powers are ≥ 1.
    pub monomial: Vec<(Atom, u32)>,
}

/// Errors produced when evaluating a symbolic expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EvalError {
    /// A parameter used by the expression was not bound.
    MissingParam(String),
    /// Intermediate arithmetic exceeded `i128`, or an exact count fell
    /// outside the range requested by the caller (see
    /// [`SymExpr::eval_count_i64`]).
    Overflow,
    /// Evaluation ran inside a [`budget`] scope that tripped (expression
    /// too deep for the recursion guard).
    Budget(budget::BudgetError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingParam(p) => write!(f, "unbound model parameter `{p}`"),
            EvalError::Overflow => write!(f, "arithmetic overflow during model evaluation"),
            EvalError::Budget(e) => write!(f, "model evaluation refused: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A multivariate polynomial over [`Atom`]s with rational coefficients.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SymExpr {
    /// Canonical: sorted by monomial, no zero coefficients, no duplicate
    /// monomials.
    terms: Vec<Term>,
}

impl SymExpr {
    pub fn zero() -> SymExpr {
        SymExpr { terms: Vec::new() }
    }

    pub fn constant(v: i128) -> SymExpr {
        SymExpr::from_rat(Rat::int(v))
    }

    pub fn from_rat(r: Rat) -> SymExpr {
        if r.is_zero() {
            SymExpr::zero()
        } else {
            SymExpr {
                terms: vec![Term {
                    coeff: r,
                    monomial: Vec::new(),
                }],
            }
        }
    }

    pub fn param(name: &str) -> SymExpr {
        SymExpr::from_atom(Atom::Param(name.into()))
    }

    pub fn from_atom(a: Atom) -> SymExpr {
        SymExpr {
            terms: vec![Term {
                coeff: Rat::ONE,
                monomial: vec![(a, 1)],
            }],
        }
    }

    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// If the expression is a constant, return it.
    pub fn as_constant(&self) -> Option<Rat> {
        match self.terms.len() {
            0 => Some(Rat::ZERO),
            1 if self.terms[0].monomial.is_empty() => Some(self.terms[0].coeff),
            _ => None,
        }
    }

    /// If the expression is a constant integer, return it.
    pub fn as_int(&self) -> Option<i128> {
        self.as_constant().and_then(|r| r.as_integer())
    }

    /// `self + o`: one pass over the two canonical term lists.
    pub fn add_expr(&self, o: &SymExpr) -> SymExpr {
        if !budget::charge(self.terms.len() as u64 + o.terms.len() as u64 + 1) {
            return SymExpr::zero();
        }
        match merge_terms(&self.terms, &o.terms) {
            Some(terms) => SymExpr { terms },
            None => {
                budget::overflow("SymExpr coefficient overflow in add");
                SymExpr::zero()
            }
        }
    }

    /// `*self = self.add_expr(&o)` — the same fuel, terms and overflow
    /// outcome — moving the terms of both sides instead of cloning them.
    fn add_assign(&mut self, o: SymExpr) {
        if !budget::charge(self.terms.len() as u64 + o.terms.len() as u64 + 1) {
            self.terms.clear();
            return;
        }
        match merge_terms(std::mem::take(&mut self.terms), o.terms) {
            Some(terms) => self.terms = terms,
            None => budget::overflow("SymExpr coefficient overflow in add"),
        }
    }

    pub fn neg_expr(&self) -> SymExpr {
        SymExpr {
            terms: self
                .terms
                .iter()
                .map(|t| Term {
                    coeff: t.coeff.neg(),
                    monomial: t.monomial.clone(),
                })
                .collect(),
        }
    }

    pub fn sub_expr(&self, o: &SymExpr) -> SymExpr {
        self.add_expr(&o.neg_expr())
    }

    pub fn scale(&self, r: Rat) -> SymExpr {
        if r.is_zero() {
            return SymExpr::zero();
        }
        if !budget::charge(self.terms.len() as u64 + 1) {
            return SymExpr::zero();
        }
        let mut terms = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            match t.coeff.checked_mul(r) {
                Some(coeff) => terms.push(Term {
                    coeff,
                    monomial: t.monomial.clone(),
                }),
                None => {
                    budget::overflow("SymExpr coefficient overflow in scale");
                    return SymExpr::zero();
                }
            }
        }
        SymExpr { terms }
    }

    pub fn mul_expr(&self, o: &SymExpr) -> SymExpr {
        let work = (self.terms.len() as u64).saturating_mul(o.terms.len() as u64);
        if !budget::charge(work + 1) {
            return SymExpr::zero();
        }
        if self.terms.len() == 1 || o.terms.len() == 1 {
            // one monomial times distinct monomials gives distinct
            // monomials, and nonzero coefficients give nonzero products:
            // nothing combines, the products only need sorting
            let mut terms = Vec::with_capacity(self.terms.len() * o.terms.len());
            for a in &self.terms {
                for b in &o.terms {
                    let Some(coeff) = a.coeff.checked_mul(b.coeff) else {
                        budget::overflow("SymExpr coefficient overflow in mul");
                        return SymExpr::zero();
                    };
                    terms.push(Term {
                        coeff,
                        monomial: merge_monomials(&a.monomial, &b.monomial),
                    });
                }
            }
            terms.sort_unstable_by(|x, y| x.monomial.cmp(&y.monomial));
            return SymExpr { terms };
        }
        let mut map: BTreeMap<Vec<(Atom, u32)>, Rat> = BTreeMap::new();
        for a in &self.terms {
            for b in &o.terms {
                let Some(coeff) = a.coeff.checked_mul(b.coeff) else {
                    budget::overflow("SymExpr coefficient overflow in mul");
                    return SymExpr::zero();
                };
                let mono = merge_monomials(&a.monomial, &b.monomial);
                let e = map.entry(mono).or_insert(Rat::ZERO);
                match e.checked_add(coeff) {
                    Some(v) => *e = v,
                    None => {
                        budget::overflow("SymExpr coefficient overflow in mul-add");
                        return SymExpr::zero();
                    }
                }
            }
        }
        let terms = map
            .into_iter()
            .filter(|(_, c)| !c.is_zero())
            .map(|(monomial, coeff)| Term { coeff, monomial })
            .collect();
        SymExpr { terms }
    }

    pub fn pow(&self, p: u32) -> SymExpr {
        let mut acc = SymExpr::constant(1);
        for _ in 0..p {
            acc = acc.mul_expr(self);
        }
        acc
    }

    /// `floor(self / d)` with `d > 0`, simplified when exact.
    ///
    /// If the expression can be written as `d·q + r` where `q` has
    /// integer coefficients and `r` is a constant with `0 ≤ r < d`, the
    /// result is exactly `q` (plus `floor(r/d) = 0`). Otherwise the
    /// division is kept as an opaque [`Atom::FloorDiv`].
    pub fn floor_div(&self, d: i64) -> SymExpr {
        if d <= 0 {
            // Inside a budget scope (untrusted input: e.g. a zero-stride
            // loop reached symbolic trip counting) this is a typed
            // refusal; outside one it is a caller bug, as before.
            if budget::active() {
                budget::trip(budget::BudgetError::BadDivisor);
                return SymExpr::zero();
            }
            panic!("floor_div by non-positive divisor");
        }
        if d == 1 {
            return self.clone();
        }
        if let Some(c) = self.as_constant() {
            if let Some(i) = c.as_integer() {
                return SymExpr::constant(i.div_euclid(d as i128));
            }
        }
        // Try the exact split.
        let dd = Rat::int(d as i128);
        let mut quotient_terms: Vec<Term> = Vec::new();
        let mut remainder = Rat::ZERO;
        let mut exact = true;
        for t in &self.terms {
            if t.monomial.is_empty() {
                remainder = t.coeff;
                continue;
            }
            let Some(q) = t.coeff.checked_div(dd) else {
                budget::overflow("floor_div overflow");
                return SymExpr::zero();
            };
            if q.is_integer() {
                quotient_terms.push(Term {
                    coeff: q,
                    monomial: t.monomial.clone(),
                });
            } else {
                exact = false;
                break;
            }
        }
        if exact {
            if let Some(r) = remainder.as_integer() {
                // split the constant remainder c = d*q + r' with 0 ≤ r' < d;
                // then floor((d*Q + c)/d) = Q + q exactly.
                let q = r.div_euclid(d as i128);
                if q != 0 {
                    quotient_terms.push(Term {
                        coeff: Rat::int(q),
                        monomial: Vec::new(),
                    });
                }
                quotient_terms.sort_by(|a, b| a.monomial.cmp(&b.monomial));
                return SymExpr {
                    terms: quotient_terms,
                };
            }
        }
        SymExpr::from_atom(Atom::FloorDiv(Rc::new(self.clone()), d))
    }

    /// `max(0, self)`, simplified for constants.
    pub fn clamp0(&self) -> SymExpr {
        if let Some(c) = self.as_constant() {
            return if c < Rat::ZERO {
                SymExpr::zero()
            } else {
                SymExpr::from_rat(c)
            };
        }
        SymExpr::from_atom(Atom::Clamp(Rc::new(self.clone())))
    }

    /// Replace every occurrence of parameter `name` (including inside
    /// floor-div and clamp atoms) with `repl`.
    pub fn substitute(&self, name: &str, repl: &SymExpr) -> SymExpr {
        // recursive calls go through `substitute_rec` directly, so the
        // aggregated hot-path row counts top-level substitutions once
        let _a = mira_probe::accum("sym.substitute");
        self.substitute_rec(name, repl)
    }

    fn substitute_rec(&self, name: &str, repl: &SymExpr) -> SymExpr {
        let Some(_g) = budget::descend() else {
            return SymExpr::zero();
        };
        if !budget::charge(self.terms.len() as u64 + 1) {
            return SymExpr::zero();
        }
        let mut out = SymExpr::zero();
        for t in &self.terms {
            let untouched = t
                .monomial
                .iter()
                .all(|(atom, _)| matches!(atom, Atom::Param(n) if &**n != name));
            let factor = if untouched {
                // the chain below would rebuild `t` as it is, through
                // `p` single-term products per `atom^p` and one more into
                // the factor, 2 fuel each: charge that, skip the work
                let muls: u64 = t.monomial.iter().map(|(_, p)| *p as u64 + 1).sum();
                if muls > 0 && !budget::charge(2 * muls) {
                    return SymExpr::zero();
                }
                SymExpr {
                    terms: vec![t.clone()],
                }
            } else {
                let mut factor = SymExpr::from_rat(t.coeff);
                for (atom, p) in &t.monomial {
                    let atom_expr = match atom {
                        Atom::Param(n) if &**n == name => repl.clone(),
                        Atom::Param(_) => SymExpr::from_atom(atom.clone()),
                        Atom::FloorDiv(inner, d) => inner.substitute_rec(name, repl).floor_div(*d),
                        Atom::Clamp(inner) => inner.substitute_rec(name, repl).clamp0(),
                    };
                    factor = factor.mul_expr(&atom_expr.pow(*p));
                }
                factor
            };
            out.add_assign(factor);
        }
        out
    }

    /// All parameter names referenced anywhere in the expression.
    pub fn params(&self) -> Vec<String> {
        let mut out = BTreeSet::new();
        self.collect_params(&mut out);
        out.into_iter().map(str::to_string).collect()
    }

    fn collect_params<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        let Some(_g) = budget::descend() else {
            return;
        };
        for t in &self.terms {
            for (atom, _) in &t.monomial {
                match atom {
                    Atom::Param(n) => {
                        out.insert(n);
                    }
                    Atom::FloorDiv(e, _) | Atom::Clamp(e) => e.collect_params(out),
                }
            }
        }
    }

    /// Does parameter `name` occur inside a floor-div or clamp atom?
    /// (Such occurrences block closed-form summation over `name`.)
    pub fn param_in_composite_atom(&self, name: &str) -> bool {
        for t in &self.terms {
            for (atom, _) in &t.monomial {
                if let Atom::FloorDiv(e, _) | Atom::Clamp(e) = atom {
                    if e.params().iter().any(|p| p == name) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Degree of the expression in parameter `name`, counting only direct
    /// `Param` occurrences.
    pub fn degree_in(&self, name: &str) -> u32 {
        self.terms
            .iter()
            .map(|t| {
                t.monomial
                    .iter()
                    .filter(|(a, _)| matches!(a, Atom::Param(n) if &**n == name))
                    .map(|(_, p)| *p)
                    .sum::<u32>()
            })
            .max()
            .unwrap_or(0)
    }

    /// Write `self = Σ_k coeffs[k] · name^k` and return the coefficient
    /// polynomials. Requires `name` not to occur inside composite atoms.
    pub fn coefficients_of(&self, name: &str) -> Vec<SymExpr> {
        let deg = self.degree_in(name) as usize;
        let mut coeffs = vec![SymExpr::zero(); deg + 1];
        for t in &self.terms {
            let mut k = 0usize;
            let mut rest = Vec::new();
            for (atom, p) in &t.monomial {
                if matches!(atom, Atom::Param(n) if &**n == name) {
                    k += *p as usize;
                } else {
                    rest.push((atom.clone(), *p));
                }
            }
            let part = SymExpr {
                terms: vec![Term {
                    coeff: t.coeff,
                    monomial: rest,
                }],
            };
            coeffs[k].add_assign(part);
        }
        coeffs
    }

    /// Evaluate to an exact rational under the given bindings.
    pub fn eval(&self, b: &Bindings) -> Result<Rat, EvalError> {
        self.eval_in(b, &mut AtomTable::new())
    }

    /// [`SymExpr::eval`], valuing atoms through `t`: the same value or
    /// error, without walking an atom `t` already holds a value for.
    pub fn eval_in<'a>(&'a self, b: &Bindings, t: &mut AtomTable<'a>) -> Result<Rat, EvalError> {
        let mut acc = Rat::ZERO;
        for term in &self.terms {
            let mut v = term.coeff;
            for (atom, p) in &term.monomial {
                let a = t.value(atom, b)?;
                for _ in 0..*p {
                    v = v.checked_mul(Rat::int(a)).ok_or(EvalError::Overflow)?;
                }
            }
            acc = acc.checked_add(v).ok_or(EvalError::Overflow)?;
        }
        Ok(acc)
    }

    /// Evaluate to an integer count. Count expressions built from integer
    /// polyhedra are always integral; annotation fractions (e.g. a branch
    /// taken "30% of the time") can produce non-integers, which are rounded
    /// to the nearest integer.
    pub fn eval_count(&self, b: &Bindings) -> Result<i128, EvalError> {
        self.eval_count_in(b, &mut AtomTable::new())
    }

    /// [`SymExpr::eval_count`], valuing atoms through `t`.
    pub fn eval_count_in<'a>(
        &'a self,
        b: &Bindings,
        t: &mut AtomTable<'a>,
    ) -> Result<i128, EvalError> {
        // halves round up, floor(x + 1/2) (shared with every other counter)
        self.eval_in(b, t)?.round_count().ok_or(EvalError::Overflow)
    }

    /// Evaluate to an `i64` count, refusing with [`EvalError::Overflow`]
    /// when the exact value falls outside `i64` — never wrapping or
    /// saturating. This is the checked arithmetic the emitted Python
    /// mirrors with its `_chk_i64` helper, so huge parameter values refuse
    /// identically on both sides.
    pub fn eval_count_i64(&self, b: &Bindings) -> Result<i64, EvalError> {
        let v = self.eval_count(b)?;
        i64::try_from(v).map_err(|_| EvalError::Overflow)
    }
}

/// The product of two monomials: one pass over the two sorted atom
/// lists, adding the powers of shared atoms.
fn merge_monomials(a: &[(Atom, u32)], b: &[(Atom, u32)]) -> Vec<(Atom, u32)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => {
                out.push(a[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(b[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                out.push((a[i].0.clone(), a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// A term of a list being merged: borrowed terms are cloned into the
/// result, owned ones moved.
trait MergeTerm {
    fn term(&self) -> &Term;
    fn into_term(self) -> Term;
}

impl MergeTerm for Term {
    fn term(&self) -> &Term {
        self
    }
    fn into_term(self) -> Term {
        self
    }
}

impl MergeTerm for &Term {
    fn term(&self) -> &Term {
        self
    }
    fn into_term(self) -> Term {
        self.clone()
    }
}

/// The sum of two canonical term lists, in one pass: like monomials
/// add their coefficients (`a`'s first) and drop out when they cancel.
/// `None` on coefficient overflow.
fn merge_terms<A: MergeTerm, B: MergeTerm>(
    a: impl IntoIterator<Item = A, IntoIter: ExactSizeIterator>,
    b: impl IntoIterator<Item = B, IntoIter: ExactSizeIterator>,
) -> Option<Vec<Term>> {
    let (mut a, mut b) = (a.into_iter(), b.into_iter());
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut x, mut y) = (a.next(), b.next());
    loop {
        match (x, y) {
            (Some(s), Some(t)) => match s.term().monomial.cmp(&t.term().monomial) {
                Ordering::Less => {
                    out.push(s.into_term());
                    (x, y) = (a.next(), Some(t));
                }
                Ordering::Greater => {
                    out.push(t.into_term());
                    (x, y) = (Some(s), b.next());
                }
                Ordering::Equal => {
                    let coeff = s.term().coeff.checked_add(t.term().coeff)?;
                    if !coeff.is_zero() {
                        out.push(Term {
                            coeff,
                            monomial: s.into_term().monomial,
                        });
                    }
                    (x, y) = (a.next(), b.next());
                }
            },
            (Some(s), None) => {
                out.push(s.into_term());
                out.extend(a.map(A::into_term));
                return Some(out);
            }
            (None, Some(t)) => {
                out.push(t.into_term());
                out.extend(b.map(B::into_term));
                return Some(out);
            }
            (None, None) => return Some(out),
        }
    }
}

impl Add for SymExpr {
    type Output = SymExpr;
    fn add(self, o: SymExpr) -> SymExpr {
        self.add_expr(&o)
    }
}

impl Sub for SymExpr {
    type Output = SymExpr;
    fn sub(self, o: SymExpr) -> SymExpr {
        self.sub_expr(&o)
    }
}

impl Mul for SymExpr {
    type Output = SymExpr;
    fn mul(self, o: SymExpr) -> SymExpr {
        self.mul_expr(&o)
    }
}

impl Neg for SymExpr {
    type Output = SymExpr;
    fn neg(self) -> SymExpr {
        self.neg_expr()
    }
}

impl From<i64> for SymExpr {
    fn from(v: i64) -> SymExpr {
        SymExpr::constant(v as i128)
    }
}

impl fmt::Display for SymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        // Display highest-degree terms first for readability.
        let mut terms: Vec<&Term> = self.terms.iter().collect();
        terms.sort_by_key(|t| std::cmp::Reverse(t.monomial.iter().map(|(_, p)| *p).sum::<u32>()));
        for (i, t) in terms.iter().enumerate() {
            let neg = t.coeff < Rat::ZERO;
            if i == 0 {
                if neg {
                    write!(f, "-")?;
                }
            } else if neg {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            let c = t.coeff.abs();
            if t.monomial.is_empty() {
                write!(f, "{c}")?;
            } else {
                let mut first = true;
                if !c.is_one() {
                    write!(f, "{c}")?;
                    first = false;
                }
                for (atom, p) in &t.monomial {
                    if !first {
                        write!(f, "*")?;
                    }
                    first = false;
                    match atom {
                        Atom::Param(n) => write!(f, "{n}")?,
                        Atom::FloorDiv(e, d) => write!(f, "floor(({e})/{d})")?,
                        Atom::Clamp(e) => write!(f, "max(0, {e})")?,
                    }
                    if *p > 1 {
                        write!(f, "^{p}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bindings;

    fn n() -> SymExpr {
        SymExpr::param("n")
    }

    #[test]
    fn constants_fold() {
        let e = SymExpr::constant(3) + SymExpr::constant(4);
        assert_eq!(e.as_int(), Some(7));
        assert!((SymExpr::constant(2) - SymExpr::constant(2)).is_zero());
    }

    #[test]
    fn polynomial_arithmetic() {
        // (n + 1)^2 = n^2 + 2n + 1
        let e = (n() + SymExpr::constant(1)).pow(2);
        let b = bindings(&[("n", 9)]);
        assert_eq!(e.eval_count(&b).unwrap(), 100);
        assert_eq!(e.degree_in("n"), 2);
    }

    #[test]
    fn mul_merges_like_terms() {
        // (n + 1)(n - 1) = n^2 - 1
        let e = (n() + SymExpr::constant(1)) * (n() - SymExpr::constant(1));
        let expected = n().pow(2) - SymExpr::constant(1);
        assert_eq!(e, expected);
    }

    #[test]
    fn substitute_param() {
        // n^2 with n := m + 2 → m^2 + 4m + 4
        let e = n()
            .pow(2)
            .substitute("n", &(SymExpr::param("m") + SymExpr::constant(2)));
        assert_eq!(e.eval_count(&bindings(&[("m", 3)])).unwrap(), 25);
        assert!(e.params() == vec!["m".to_string()]);
    }

    #[test]
    fn floor_div_simplifies_exact() {
        // floor((2n + 1)/2) would be kept; floor((2n)/2) = n; floor((4n+2)/2) = 2n+1
        let e = n().scale(Rat::int(2)).floor_div(2);
        assert_eq!(e, n());
        let e2 = (n().scale(Rat::int(4)) + SymExpr::constant(2)).floor_div(2);
        assert_eq!(e2, n().scale(Rat::int(2)) + SymExpr::constant(1));
        let e3 = (n().scale(Rat::int(2)) + SymExpr::constant(1)).floor_div(2);
        assert_eq!(e3, n()); // 2n+1 = 2*n + 1, remainder 1 in [0,2)
    }

    #[test]
    fn floor_div_opaque_when_inexact() {
        let e = n().floor_div(2); // floor(n/2) cannot simplify
        assert_eq!(e.eval_count(&bindings(&[("n", 7)])).unwrap(), 3);
        assert_eq!(e.eval_count(&bindings(&[("n", 8)])).unwrap(), 4);
    }

    #[test]
    fn floor_div_constant() {
        assert_eq!(SymExpr::constant(7).floor_div(2).as_int(), Some(3));
        assert_eq!(SymExpr::constant(-7).floor_div(2).as_int(), Some(-4));
    }

    #[test]
    fn clamp_semantics() {
        let e = (n() - SymExpr::constant(5)).clamp0();
        assert_eq!(e.eval_count(&bindings(&[("n", 3)])).unwrap(), 0);
        assert_eq!(e.eval_count(&bindings(&[("n", 8)])).unwrap(), 3);
        assert_eq!(SymExpr::constant(-4).clamp0().as_int(), Some(0));
        assert_eq!(SymExpr::constant(4).clamp0().as_int(), Some(4));
    }

    #[test]
    fn missing_param_error() {
        let e = n();
        assert_eq!(
            e.eval(&bindings(&[])),
            Err(EvalError::MissingParam("n".to_string()))
        );
    }

    #[test]
    fn coefficients_of_var() {
        // 3n^2*m + 2n + 5  →  [5, 2, 3m] in n
        let e = n().pow(2).scale(Rat::int(3)) * SymExpr::param("m")
            + n().scale(Rat::int(2))
            + SymExpr::constant(5);
        let cs = e.coefficients_of("n");
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0].as_int(), Some(5));
        assert_eq!(cs[1].as_int(), Some(2));
        assert_eq!(cs[2], SymExpr::param("m").scale(Rat::int(3)));
    }

    #[test]
    fn composite_atom_detection() {
        let e = n().floor_div(2);
        assert!(e.param_in_composite_atom("n"));
        assert!(!n().param_in_composite_atom("n"));
    }

    #[test]
    fn display_renders() {
        let e = n().pow(2).scale(Rat::new(3, 2)) + n() - SymExpr::constant(1);
        let s = e.to_string();
        assert!(s.contains("3/2*n^2"), "{s}");
        assert!(s.contains("- 1"), "{s}");
    }

    #[test]
    fn eval_count_rounds_fractions() {
        let e = n().scale(Rat::new(3, 10)); // 0.3 * n
        assert_eq!(e.eval_count(&bindings(&[("n", 10)])).unwrap(), 3);
        assert_eq!(e.eval_count(&bindings(&[("n", 5)])).unwrap(), 2); // 1.5 → 2
    }
}
