//! The static half of `mira-mem`: affine array access functions and
//! closed-form *distinct cache line* footprints.
//!
//! For every array reference inside a SCoP (`a[2*i + 3]`, `b[i*n + j]`,
//! ...) the analyzer derives the affine access function over the loop
//! nest's iteration domain, computes the index range by interval
//! substitution of the polyhedral bounds, checks that the nest covers the
//! range densely at cache-line granularity (stride- and vector-width-aware:
//! any stride ≤ the line size touches every line in the range, and a
//! packed access is just two adjacent elements), and folds the per-nest
//! ranges into one footprint per array. Footprints compose across calls by
//! substituting actual for formal parameters and uniting ranges, so
//! `cg_solve`'s prediction covers the arrays its callees stream.
//!
//! The closed forms assume cache-line-aligned array bases — which the VM
//! host allocator guarantees — so `⌈bytes/line⌉`-style expressions are
//! exact, not estimates. References whose index is not affine in the loop
//! variables and function parameters (CSR indirection `x[cols[k]]`,
//! mutated scalar locals) poison that array: it is reported in
//! [`FuncFootprints::unknown`] and the function's total is flagged
//! approximate, mirroring the paper's annotation-required cases.
//!
//! Two `#pragma @Annotation` keys let the user close those cases the same
//! way `lp_iters` closes data-dependent trip counts:
//!
//! * `lp_cumulative: yes` on an annotated data-dependent loop asserts its
//!   induction variable sweeps a *cumulative prefix* across the enclosing
//!   nest (the CSR pattern: `for (k = row_ptr[i]; k < row_ptr[i+1]; …)`
//!   covers `[0, nnz)` densely over all rows). The loop then becomes a
//!   synthetic affine dimension of extent `enclosing-trip-count ·
//!   lp_iters · lp_scale`, and arrays it indexes directly (`vals[k]`,
//!   `cols[k]`) get exact dense footprints.
//! * `idx_extent: n` bounds every *remaining* unanalyzable subscript in
//!   the annotated loop's body to `[0, n-1]` (the gather `x[cols[k]]`
//!   reads some subset of an `n`-vector). The bounded array is counted at
//!   that range but never claims dense coverage — an upper bound, like
//!   guarded references.

use mira_core::scop::{self, extract_for_scop, LoopScope};
use mira_minic::{
    AnnotValue, Annotation, BinOp, Expr, ExprKind, Func, Program, Stmt, StmtKind, UnOp,
};
use mira_sym::{AtomTable, Bindings, EvalError, Rat, SymExpr};
use std::collections::BTreeMap;

/// Every VX86 array element (double or 64-bit int) is 8 bytes wide.
pub const ELEM_BYTES: i64 = 8;

/// The distinct-line footprint of one array within one function (own
/// references and resolved callee references united).
#[derive(Clone, Debug)]
pub struct ArrayFootprint {
    /// Pointer parameter (or local) naming the array in this function.
    pub array: String,
    /// Smallest element index accessed (inclusive), in function params.
    pub min_index: SymExpr,
    /// Largest element index accessed (inclusive), in function params.
    pub max_index: SymExpr,
    /// Accessed by loads / by stores.
    pub loaded: bool,
    pub stored: bool,
    /// `Some(s)`: the range is provably covered with no gap wider than
    /// `s` bytes (dense chain of strides, no control-flow guard, ranges
    /// connected, sign-decidable arithmetic). `None`: coverage unproven —
    /// [`ArrayFootprint::lines_expr`] is then an upper bound.
    pub stride_bytes: Option<i128>,
}

impl ArrayFootprint {
    /// Is the distinct-line count exact at this line size? True when the
    /// coverage gap fits in one line and the allocator's 64-byte base
    /// alignment implies line alignment (line sizes above 64 would break
    /// that assumption, so they are never claimed exact).
    pub fn exact_for(&self, line_bytes: u32) -> bool {
        line_bytes <= 64 && matches!(self.stride_bytes, Some(s) if s <= line_bytes as i128)
    }
    /// Closed-form count of distinct cache lines touched, assuming the
    /// array base is line-aligned: `⌊(E·max + E − 1)/L⌋ − ⌊E·min/L⌋ + 1`.
    pub fn lines_expr(&self, line_bytes: u32) -> SymExpr {
        range_lines_expr(&self.min_index, &self.max_index, line_bytes)
    }
}

/// Closed-form distinct-line count of an inclusive element index range
/// `[min, max]` on a line-aligned base: `⌊(E·max + E − 1)/L⌋ − ⌊E·min/L⌋
/// + 1`.
pub fn range_lines_expr(min_index: &SymExpr, max_index: &SymExpr, line_bytes: u32) -> SymExpr {
    let l = line_bytes as i64;
    let last = max_index
        .scale(Rat::int(ELEM_BYTES as i128))
        .add_expr(&SymExpr::constant(ELEM_BYTES as i128 - 1))
        .floor_div(l);
    let first = min_index.scale(Rat::int(ELEM_BYTES as i128)).floor_div(l);
    last.sub_expr(&first).add_expr(&SymExpr::constant(1))
}

/// All footprints of one function, callee references included.
#[derive(Clone, Debug, Default)]
pub struct FuncFootprints {
    pub arrays: Vec<ArrayFootprint>,
    /// Arrays with at least one statically unanalyzable reference
    /// (data-dependent indices, unanalyzable loop bounds, non-var callee
    /// arguments).
    pub unknown: Vec<String>,
}

impl FuncFootprints {
    pub fn array(&self, name: &str) -> Option<&ArrayFootprint> {
        self.arrays.iter().find(|a| a.array == name)
    }

    /// Closed form for the total distinct lines across all analyzed
    /// arrays (arrays never share lines: the allocator aligns each base).
    pub fn total_lines_expr(&self, line_bytes: u32) -> SymExpr {
        let mut total = SymExpr::zero();
        for a in &self.arrays {
            total = total.add_expr(&a.lines_expr(line_bytes));
        }
        total
    }

    /// Is the total exact at this line size — every array analyzed,
    /// densely covered?
    pub fn is_exact(&self, line_bytes: u32) -> bool {
        self.unknown.is_empty() && self.arrays.iter().all(|a| a.exact_for(line_bytes))
    }
}

/// Per-function access summaries plus the call edges needed to resolve
/// footprints interprocedurally — of a whole program
/// ([`analyze_program`]) or of one function's call closure
/// ([`analyze_closure`]), which answers only for that function and its
/// callees.
pub struct AccessModel {
    functions: BTreeMap<String, FuncInfo>,
}

struct FuncInfo {
    /// Ordered parameter names, `Some(name)` for pointer params.
    ptr_params: Vec<Option<String>>,
    value_params: Vec<String>,
    /// This function's own (safe) references, one entry per reference.
    refs: Vec<RawRef>,
    unknown: Vec<String>,
    calls: Vec<CallSite>,
    /// The function's loop forest (parents before children), for the
    /// per-nest working-set model.
    nodes: Vec<NodeBuild>,
    /// Own references with their nest context — the inputs of
    /// [`AccessModel::nest_model`].
    nest_refs: Vec<NestRef>,
    /// Some traffic escaped the nest bookkeeping (guarded or bounded
    /// references, unanalyzable loops): the per-nest model would
    /// under-count, so it is not built.
    nest_tainted: bool,
}

/// One loop of the function's loop forest as recorded by the walker.
/// During the walk the current loop path indexes into the forest; it
/// outlives the walk so working sets can be derived per nest level
/// afterwards.
#[derive(Clone)]
struct NodeBuild {
    parent: Option<usize>,
    /// Renamed (unique) induction variable.
    var: String,
    lo: SymExpr,
    hi: SymExpr,
    step: i64,
}

impl NodeBuild {
    /// Trip count `(hi - lo)/step + 1`, in outer domain variables.
    fn extent(&self) -> SymExpr {
        let span = self.hi.sub_expr(&self.lo);
        if self.step > 1 {
            span.floor_div(self.step).add_expr(&SymExpr::constant(1))
        } else {
            span.add_expr(&SymExpr::constant(1))
        }
    }
}

/// One own array reference with its nest context: the enclosing loop
/// path and the index range at every pin depth.
#[derive(Clone)]
struct NestRef {
    array: String,
    /// Node ids of the enclosing loops, outermost first.
    path: Vec<usize>,
    /// `ranges[l]` is the index range with the outermost `l` loops of
    /// `path` pinned at their first iteration and the rest swept — the
    /// working-set ladder (`ranges[0]` is the full-sweep range). For an
    /// affine reference the walker records it ([`ladder`]), and the
    /// model builder derives it again only where the walker's cannot
    /// hold: for a spliced callee reference (left empty by
    /// [`AccessModel::flatten_nest`]) and under a consumed ancestor,
    /// which pins at its last iteration. For `gather` references it is
    /// the recorded flat bound, the only range the analysis has.
    ranges: Vec<(SymExpr, SymExpr)>,
    /// The affine access function itself (domain variables renamed);
    /// for `gather` references an opaque placeholder.
    idx: SymExpr,
    stored: bool,
    /// See [`ArrayFootprint::stride_bytes`] (full-sweep dense coverage).
    stride_bytes: Option<i128>,
    /// A data-dependent subscript bounded by `idx_extent`: the range is
    /// a coverage-unproven upper bound that moves with no loop, and the
    /// traffic model must cap its fills at the access count instead of
    /// multiplying by every enclosing extent.
    gather: bool,
}

#[derive(Clone)]
struct RawRef {
    array: String,
    min: SymExpr,
    max: SymExpr,
    loaded: bool,
    stored: bool,
    /// See [`ArrayFootprint::stride_bytes`].
    stride_bytes: Option<i128>,
}

struct CallSite {
    callee: String,
    /// Caller-side expression per callee parameter position: pointer
    /// params map to the caller's array name, value params to an affine
    /// expression. `Err(())` marks an unanalyzable argument.
    args: Vec<Result<Arg, ()>>,
    /// Node ids of the loops enclosing the call site, outermost first —
    /// the splice point for nest-group composition.
    path: Vec<usize>,
    /// The call sits under an `if`/unannotated-`while` guard: its traffic
    /// cannot be attributed to a nest level, so composition refuses.
    guarded: bool,
}

enum Arg {
    Ptr(String),
    Value(SymExpr),
}

/// Analyze every function of a program.
///
/// Each function is analyzed under a [`mira_sym::budget`] scope: a
/// function whose symbolic analysis trips the budget (adversarial nest
/// depth, huge constants, term explosion) is recorded as a conservative
/// refusal — every pointer parameter unknown, the nest model tainted —
/// so downstream consumers degrade to the streaming sweep model instead
/// of hanging or panicking.
pub fn analyze_program(program: &Program) -> AccessModel {
    let _sp = mira_probe::span("mem.analyze_program", "mem");
    let mut functions = BTreeMap::new();
    for f in program.functions() {
        functions.insert(f.name.clone(), analyze_budgeted(f));
    }
    AccessModel { functions }
}

/// Analyze `func` and the functions it calls, directly or transitively,
/// and nothing else: all that [`AccessModel::footprint`] and
/// [`AccessModel::nest_model`] of `func` read, so both answer exactly as
/// on [`analyze_program`]'s model. Each function goes through the same
/// budgeted analysis; a refused one has no call edges to follow.
pub fn analyze_closure(program: &Program, func: &str) -> AccessModel {
    let mut sp = mira_probe::span("mem.analyze_closure", "mem");
    sp.arg("func", func);
    // the last definition of a name wins, as in `analyze_program`
    let by_name: BTreeMap<&str, &Func> =
        program.functions().map(|f| (f.name.as_str(), f)).collect();
    let mut functions = BTreeMap::new();
    let mut work = vec![func];
    while let Some(name) = work.pop() {
        let Some(&f) = by_name.get(name) else {
            continue;
        };
        if functions.contains_key(name) {
            continue;
        }
        let info = analyze_budgeted(f);
        work.extend(
            info.calls
                .iter()
                .filter_map(|c| by_name.get_key_value(c.callee.as_str()).map(|(&k, _)| k)),
        );
        functions.insert(name.to_string(), info);
    }
    AccessModel { functions }
}

/// One function's access analysis under its own budget scope, or the
/// conservative refusal when the scope trips.
fn analyze_budgeted(f: &Func) -> FuncInfo {
    let mut sp = mira_probe::span("mem.analyze_func", "mem");
    sp.arg("func", &f.name);
    let analyzed = mira_sym::budget::with_default_budget(|| analyze_func(f));
    if analyzed.is_err() {
        sp.arg("refused", "budget");
        mira_probe::add("mem.func_refusals", 1);
    }
    analyzed.unwrap_or_else(|_| refused_func_info(f))
}

/// The conservative stand-in for a function whose analysis tripped the
/// budget: nothing analyzed, every pointer parameter unknown.
fn refused_func_info(f: &Func) -> FuncInfo {
    let ptr_params: Vec<Option<String>> = f
        .params
        .iter()
        .map(|p| p.ty.is_pointer().then(|| p.name.clone()))
        .collect();
    let unknown: Vec<String> = ptr_params.iter().flatten().cloned().collect();
    FuncInfo {
        ptr_params,
        value_params: Vec::new(),
        refs: Vec::new(),
        unknown,
        calls: Vec::new(),
        nodes: Vec::new(),
        nest_refs: Vec::new(),
        nest_tainted: true,
    }
}

/// Formal → actual maps of one call site: each pointer formal to the
/// caller's array, each value formal to the caller-side affine
/// expression; `Err` where the argument is unanalyzable. Footprint
/// composition ([`AccessModel::resolve`]) and nest splicing
/// ([`AccessModel::flatten_nest`]) share them.
#[allow(clippy::type_complexity)]
fn formal_maps<'a>(
    callee: &'a FuncInfo,
    call: &'a CallSite,
) -> (
    BTreeMap<&'a str, Result<&'a str, ()>>,
    BTreeMap<&'a str, Result<&'a SymExpr, ()>>,
) {
    let mut ptr_map = BTreeMap::new();
    let mut val_map = BTreeMap::new();
    let mut value_params = callee.value_params.iter();
    for (i, formal) in callee.ptr_params.iter().enumerate() {
        let actual = call.args.get(i);
        match formal {
            Some(name) => {
                let v = match actual {
                    Some(Ok(Arg::Ptr(p))) => Ok(p.as_str()),
                    _ => Err(()),
                };
                ptr_map.insert(name.as_str(), v);
            }
            None => {
                let Some(name) = value_params.next() else {
                    continue;
                };
                let v = match actual {
                    Some(Ok(Arg::Value(e))) => Ok(e),
                    _ => Err(()),
                };
                val_map.insert(name.as_str(), v);
            }
        }
    }
    (ptr_map, val_map)
}

impl AccessModel {
    /// Resolve the footprint of `func`, composing callees (their formals
    /// substituted by the actual arguments, ranges united per caller-side
    /// array).
    pub fn footprint(&self, func: &str) -> FuncFootprints {
        let mut sp = mira_probe::span("mem.footprint", "mem");
        sp.arg("func", func);
        // Interprocedural resolution (substitution + range unions) can
        // blow up on adversarial call graphs; a budget trip degrades to
        // "everything unknown", the conservative refusal.
        mira_sym::budget::with_default_budget(|| self.resolve(func, 0))
            .unwrap_or_else(|_| self.functions.get(func).map(unresolved).unwrap_or_default())
    }

    fn resolve(&self, func: &str, depth: u32) -> FuncFootprints {
        let mut out = FuncFootprints::default();
        let Some(info) = self.functions.get(func) else {
            return out;
        };
        if depth > 32 {
            // too deep to compose, but the callee's traffic still moves
            return unresolved(info);
        }
        let mut by_array: BTreeMap<String, ArrayFootprint> = BTreeMap::new();
        let mut unknown: Vec<String> = info.unknown.clone();
        for r in &info.refs {
            union_ref(&mut by_array, &mut unknown, r.clone());
        }
        for call in &info.calls {
            let Some(callee) = self.functions.get(&call.callee) else {
                continue;
            };
            let sub = self.resolve(&call.callee, depth + 1);
            let (ptr_map, val_map) = formal_maps(callee, call);
            let map_expr = |e: &SymExpr| -> Result<SymExpr, ()> {
                let mut out = e.clone();
                for p in e.params() {
                    if let Some(v) = val_map.get(p.as_str()) {
                        out = out.substitute(&p, (*v)?);
                    }
                    // params not bound at this site (annotation parameters
                    // like cg_iters) pass through unchanged
                }
                Ok(out)
            };
            for fp in &sub.arrays {
                match ptr_map.get(fp.array.as_str()) {
                    Some(Ok(caller_name)) => {
                        match (map_expr(&fp.min_index), map_expr(&fp.max_index)) {
                            (Ok(mn), Ok(mx)) => union_ref(
                                &mut by_array,
                                &mut unknown,
                                RawRef {
                                    array: caller_name.to_string(),
                                    min: mn,
                                    max: mx,
                                    loaded: fp.loaded,
                                    stored: fp.stored,
                                    stride_bytes: fp.stride_bytes,
                                },
                            ),
                            _ => unknown.push(caller_name.to_string()),
                        }
                    }
                    // an argument we could not map to a caller array still
                    // carries real traffic — it must surface as unknown,
                    // never silently vanish from the footprint
                    _ => unknown.push(format!("{}::{}", call.callee, fp.array)),
                }
            }
            for u in &sub.unknown {
                match ptr_map.get(u.as_str()) {
                    Some(Ok(caller_name)) => unknown.push(caller_name.to_string()),
                    _ => unknown.push(format!("{}::{u}", call.callee)),
                }
            }
        }
        unknown.sort();
        unknown.dedup();
        out.arrays = by_array.into_values().collect();
        out.unknown = unknown;
        out
    }
}

/// The conservative footprint of a function whose composition refused
/// (a budget trip, or callees past the depth limit): nothing analyzed,
/// every pointer parameter unknown.
fn unresolved(info: &FuncInfo) -> FuncFootprints {
    FuncFootprints {
        arrays: Vec::new(),
        unknown: info.ptr_params.iter().flatten().cloned().collect(),
    }
}

// ---- per-nest working-set (reuse-distance) model ----

/// One loop of a function's loop forest as the per-nest model exposes it
/// (parents precede children).
#[derive(Clone, Debug)]
pub struct NestNode {
    /// Trip count, with every ancestor pinned at its first iteration.
    /// For a triangular loop (trip count affine in one rectangular
    /// ancestor's variable) this is the *average* extent over the
    /// ancestor's range — the midpoint substitution of
    /// [`mira_sym::sum::avg_over`] — so products of extents along a path
    /// stay exact total iteration counts.
    pub extent: SymExpr,
    /// One-iteration working set of this loop, in distinct cache lines:
    /// the loop's variable and every ancestor pinned at their first
    /// iteration, everything deeper swept — united per array, summed
    /// across arrays. The quantity a cache level must hold for all reuse
    /// *inside* one iteration of this loop to hit.
    pub ws_lines: SymExpr,
}

/// The structure of one array's traffic inside one loop nest: what
/// picks the capture regime at evaluation time. Its closed-form line
/// counts are the group's entry of [`NestModel::forms`].
#[derive(Clone, Debug)]
pub struct NestGroup {
    pub array: String,
    /// Enclosing loop node ids, outermost first (empty for straight-line
    /// references).
    pub path: Vec<usize>,
    /// Per path level: does the reference range move with that loop's
    /// iterations? Independent levels re-touch the same lines, so an
    /// uncaptured independent loop multiplies the traffic.
    pub depends: Vec<bool>,
    /// Deepest capture level at which union counting stays valid: when
    /// `ℓ_fit` exceeds this, inter-reference (stencil) reuse escapes the
    /// cache and the per-access sums apply. `usize::MAX` for
    /// single-access groups.
    pub union_capture_level: usize,
    /// Every reference's stride chain closes at the model's line size
    /// and the offset analysis resolved: the traffic counts are exact
    /// for a fully-associative LRU cache with clear capacity margins,
    /// not upper bounds.
    pub exact: bool,
    /// Data-dependent (gather) group: the references' target lines are
    /// unknown, only their `idx_extent` bound is. The flat recorded
    /// range looks loop-independent at every level, but one deeper
    /// iteration does *not* re-touch the whole range, so the
    /// leading-prefix capture shortcut is off and fills are additionally
    /// capped at the access count (each access misses at most once).
    pub gather: bool,
    /// Reference count per innermost iteration (all, stored) — the fill
    /// and write-back caps for gather groups; `(0, 0)` otherwise.
    pub gather_refs: (i64, i64),
}

/// Evaluated traffic crossing one hierarchy boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BoundaryTraffic {
    /// Lines filled across the boundary (compulsory + capacity misses).
    pub fill_lines: i128,
    /// Dirty lines written back across it.
    pub writeback_lines: i128,
}

impl BoundaryTraffic {
    /// Total lines crossing the boundary, both directions.
    pub fn total_lines(&self) -> i128 {
        self.fill_lines + self.writeback_lines
    }
}

/// The per-nest working-set traffic model of one function — the
/// reuse-distance refinement of the whole-footprint fits-or-streams
/// decision. For each array × nest group it answers: at a boundary whose
/// upper level holds `C` bytes, how many lines cross?
///
/// The capture level `ℓ_fit` of a group is the outermost nest level
/// whose one-iteration working set ([`NestNode::ws_lines`], *all* arrays
/// united) fits in `C`: all reuse inside one iteration of that loop
/// hits above the boundary. Loops outside the captured subtree replay
/// the subtree's traffic once per iteration when the group's range does
/// not move with them (cyclic re-sweeps of the same lines, evicted
/// between uses because the carried working set exceeds `C`); ranges
/// that do move are already counted once each by the distinct-line
/// union. Built by [`AccessModel::nest_model`].
#[derive(Clone, Debug)]
pub struct NestModel {
    /// The groups' structure and the regime selection over them.
    pub shape: NestShape,
    pub nodes: Vec<NestNode>,
    /// Per group of [`NestShape::groups`], its closed-form line counts in
    /// [`GroupExpr::slot`] order: the distinct lines of the union of its
    /// references over the full nest sweep (the compulsory fills when
    /// reuse is captured), of the union of its *stored* references (zero
    /// when nothing stores: each eventually crosses back down as a
    /// write-back), and the sums of per-access-function distinct lines
    /// over all and over stored references — the counts when
    /// inter-reference (stencil) reuse is *not* captured and each offset
    /// access re-fills its own range.
    pub forms: Vec<[SymExpr; 4]>,
}

/// Which closed form of a group [`NestShape::traffic`] is asking its
/// evaluator for. Requests arrive lazily, in evaluation order — an
/// evaluator must not eagerly evaluate forms that were never requested,
/// or its errors would diverge from the tree walk's.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GroupExpr {
    /// Index into [`NestShape::groups`] and [`NestModel::forms`].
    pub group: usize,
    /// Union (capture) count vs per-reference sum (uncaptured stencil).
    pub union: bool,
    /// Stored-lines (write-back) side vs all-lines (fill) side.
    pub stored: bool,
}

impl GroupExpr {
    /// The requested form's index in its group's entry of
    /// [`NestModel::forms`]: union, stored union, sum, stored sum.
    pub fn slot(self) -> usize {
        match (self.union, self.stored) {
            (true, false) => 0,
            (true, true) => 1,
            (false, false) => 2,
            (false, true) => 3,
        }
    }
}

/// The `Send + Sync` structure of a [`NestModel`]: its groups without
/// their closed forms, and the regime selection over them. The tree
/// walk (here) and the compiled serving evaluator (`mira-serve`) both
/// select regimes through [`NestShape::traffic`].
#[derive(Clone, Debug)]
pub struct NestShape {
    pub groups: Vec<NestGroup>,
    pub line_bytes: u32,
}

/// The capacity-independent values of a nest-model evaluation, per loop
/// node: staged once per placement ([`NestHeader::stage`]) and read by
/// [`NestShape::traffic`] at every capacity.
#[derive(Clone, Debug, Default)]
pub struct NestHeader {
    ws: Vec<i128>,
    ext: Vec<Rat>,
}

impl NestHeader {
    /// Stage each node's one-iteration working set, rounded like
    /// `eval_count`, and its extent, in node order; the first refusal
    /// stops it. Extents stay rational — a triangular loop's average
    /// extent is a half-integer, and only each group's product is
    /// rounded (over a full path it is integral) — and clamp at zero.
    pub fn stage(
        &mut self,
        nodes: impl ExactSizeIterator<Item = Result<(i128, Rat), EvalError>>,
    ) -> Result<(), EvalError> {
        self.ws.clear();
        self.ext.clear();
        self.ws.reserve(nodes.len());
        self.ext.reserve(nodes.len());
        for node in nodes {
            let (ws, ext) = node?;
            self.ws.push(ws);
            self.ext.push(if ext < Rat::ZERO { Rat::ZERO } else { ext });
        }
        Ok(())
    }
}

impl NestShape {
    /// Line traffic crossing a boundary whose upper level holds
    /// `cap_bytes`, over a header staged at the query's values, with the
    /// per-group closed forms supplied lazily by `lines` — called only
    /// for the forms the selected regime needs, in evaluation order.
    pub fn traffic(
        &self,
        cap_bytes: u64,
        h: &NestHeader,
        mut lines: impl FnMut(GroupExpr) -> Result<i128, EvalError>,
    ) -> Result<BoundaryTraffic, EvalError> {
        let cap_lines = (cap_bytes / self.line_bytes.max(1) as u64) as i128;
        // halves round up, floor(x + 1/2), matching `SymExpr::eval_count`
        let round =
            |r: Rat| -> Result<i128, EvalError> { r.round_count().ok_or(EvalError::Overflow) };
        let mut t = BoundaryTraffic::default();
        for (gi, g) in self.groups.iter().enumerate() {
            let depth = g.path.len();
            // the capture level: the outermost nest level whose
            // one-iteration working set fits above the boundary
            let mut fit = depth + 1;
            for l in 1..=depth {
                if h.ws[g.path[l - 1]] <= cap_lines {
                    fit = l;
                    break;
                }
            }
            // uncaptured independent loops replay the traffic. The
            // reuse an independent level carries is separated by one
            // iteration of the *deepest* loop that still touches the
            // group's whole range — the leading-independent prefix `d`:
            // as long as capture reaches that depth (`fit ≤ needed`),
            // the lines are re-touched before anything can evict them
            // and no outer level multiplies. Gather ranges are bounds,
            // not sweeps — one deeper iteration touches a single line of
            // the range — so the prefix shortcut does not apply to them.
            let d = g.depends.iter().take_while(|dep| !**dep).count();
            let mut mult = Rat::ONE;
            for j in 0..depth {
                if g.depends[j] {
                    continue;
                }
                let needed = if g.gather {
                    j + 1
                } else if j < d {
                    d
                } else {
                    j + 1
                };
                if fit > needed {
                    mult = mult
                        .checked_mul(h.ext[g.path[j]])
                        .ok_or(EvalError::Overflow)?;
                }
            }
            let union = fit <= g.union_capture_level;
            let mut scaled = |stored: bool| -> Result<i128, EvalError> {
                let q = GroupExpr {
                    group: gi,
                    union,
                    stored,
                };
                round(
                    Rat::int(lines(q)?.max(0))
                        .checked_mul(mult)
                        .ok_or(EvalError::Overflow)?,
                )
            };
            let mut fills = scaled(false)?;
            let mut wbs = scaled(true)?;
            if g.gather {
                // each access fills at most one line and dirties at most
                // one line, however small the bounded range
                let mut iters = Rat::ONE;
                for &p in &g.path {
                    iters = iters.checked_mul(h.ext[p]).ok_or(EvalError::Overflow)?;
                }
                let cap_at = |count: i64| -> Result<i128, EvalError> {
                    round(
                        Rat::int(count as i128)
                            .checked_mul(iters)
                            .ok_or(EvalError::Overflow)?,
                    )
                };
                fills = fills.min(cap_at(g.gather_refs.0)?);
                wbs = wbs.min(cap_at(g.gather_refs.1)?);
            }
            t.fill_lines += fills;
            t.writeback_lines += wbs;
        }
        Ok(t)
    }
}

impl NestModel {
    /// Every group's traffic count is exact (dense affine coverage,
    /// resolved stencil offsets) rather than an upper bound.
    pub fn exact(&self) -> bool {
        self.shape.groups.iter().all(|g| g.exact)
    }

    /// Stage `h` at `b`, valuing atoms through `t`: the tree walk's
    /// header, once per placement.
    pub fn stage<'a>(
        &'a self,
        h: &mut NestHeader,
        b: &Bindings,
        t: &mut AtomTable<'a>,
    ) -> Result<(), EvalError> {
        h.stage(
            self.nodes
                .iter()
                .map(|n| Ok((n.ws_lines.eval_count_in(b, t)?, n.extent.eval_in(b, t)?))),
        )
    }

    /// Line traffic crossing a hierarchy boundary whose above-capacity
    /// is `cap_bytes`, at concrete parameter values, over `h` staged at
    /// the same values ([`NestModel::stage`]). The caller is expected to
    /// have short-circuited the fully-resident case (whole footprint ≤
    /// capacity) to the compulsory-only count; this method handles every
    /// partial-capture regime in between, down to full streaming
    /// ([`NestShape::traffic`], with the closed forms walked directly).
    ///
    /// Atoms are valued through `t`: a placement shares one table across
    /// its forms.
    pub fn boundary_traffic<'a>(
        &'a self,
        cap_bytes: u64,
        h: &NestHeader,
        b: &Bindings,
        t: &mut AtomTable<'a>,
    ) -> Result<BoundaryTraffic, EvalError> {
        self.shape.traffic(cap_bytes, h, |q| {
            self.forms[q.group][q.slot()].eval_count_in(b, t)
        })
    }
}

/// Pin every ancestor loop variable of `start`'s chain inside `e` at its
/// first iteration (ancestors resolve outward, so triangular bounds
/// collapse to closed forms in function parameters).
fn pin_ancestors(
    nodes: &[NodeBuild],
    pinned_lo: &[SymExpr],
    start: Option<usize>,
    mut e: SymExpr,
) -> Option<SymExpr> {
    let mut p = start;
    while let Some(a) = p {
        let var = &nodes[a].var;
        if e.degree_in(var) > 0 {
            if e.degree_in(var) > 1 || e.param_in_composite_atom(var) {
                return None;
            }
            e = e.substitute(var, &pinned_lo[a]);
        }
        p = nodes[a].parent;
    }
    Some(e)
}

/// Is node `a` a strict ancestor of node `i` in the loop forest?
fn is_ancestor(nodes: &[NodeBuild], a: usize, mut i: usize) -> bool {
    while let Some(p) = nodes[i].parent {
        if p == a {
            return true;
        }
        i = p;
    }
    false
}

/// An affine reference's index range swept over the loops of `path`,
/// innermost first, one loop per step ([`sweep_dim`]): entry `l` has
/// the loops `path[l..]` swept, so entry 0 is the full-sweep range and
/// the last the index itself. `None` when a loop variable occurs
/// non-affinely; the flag is set when a coefficient's sign was
/// undecidable (see [`sweep_dim`]).
fn sweeps(
    nodes: &[NodeBuild],
    path: &[usize],
    idx: &SymExpr,
) -> Option<(Vec<(SymExpr, SymExpr)>, bool)> {
    let mut out = Vec::with_capacity(path.len() + 1);
    out.push((idx.clone(), idx.clone()));
    let mut unknown_sign = false;
    for &n in path.iter().rev() {
        let (mut min, mut max) = out[out.len() - 1].clone();
        if !sweep_dim(&nodes[n], &mut min, &mut max, &mut unknown_sign) {
            return None;
        }
        out.push((min, max));
    }
    out.reverse();
    Some((out, unknown_sign))
}

/// Pin [`sweeps`]' entries into the reference's pinned-range ladder over
/// the loop forest: entry `l` becomes the index range with the outermost
/// `l` loops of `path` pinned and the rest swept. A pinned loop
/// collapses to its lower bound, innermost-pinned first so tiled bounds
/// resolve toward the outermost loop, except ancestors consumed by a
/// triangular child (`hi_pin`), which pin at their *upper* bound: that
/// is where the child sweeps its widest range, so the ladder stays a
/// maximal per-iteration working set.
fn pin_ladder(
    nodes: &[NodeBuild],
    path: &[usize],
    mut swept: Vec<(SymExpr, SymExpr)>,
    hi_pin: &std::collections::BTreeSet<String>,
) -> Option<Vec<(SymExpr, SymExpr)>> {
    for (pin, (min, max)) in swept.iter_mut().enumerate() {
        for dim in path[..pin].iter().rev().map(|&n| &nodes[n]) {
            let at = if hi_pin.contains(&dim.var) {
                &dim.hi
            } else {
                &dim.lo
            };
            for range in [&mut *min, &mut *max] {
                if range.degree_in(&dim.var) == 0 {
                    continue;
                }
                if range.degree_in(&dim.var) > 1 || range.param_in_composite_atom(&dim.var) {
                    return None;
                }
                *range = range.substitute(&dim.var, at);
            }
        }
    }
    Some(swept)
}

/// An affine reference's pinned-range ladder ([`sweeps`], then
/// [`pin_ladder`]): each loop of `path` swept once, where deriving each
/// entry on its own sweeps every inner loop again (the tests keep that
/// derivation, `ref_ladder`, as the reference).
fn ladder(
    nodes: &[NodeBuild],
    path: &[usize],
    idx: &SymExpr,
    hi_pin: &std::collections::BTreeSet<String>,
) -> Option<Vec<(SymExpr, SymExpr)>> {
    pin_ladder(nodes, path, sweeps(nodes, path, idx)?.0, hi_pin)
}

impl AccessModel {
    /// Build the per-nest working-set model of `func`, or `None` when
    /// its traffic cannot be fully attributed to affine loop nests.
    /// Known callees are inlined (`flatten_nest`): their loop forests
    /// splice under the call site with formal→actual substitution, so a
    /// composed solver like `cg_solve` places per-nest like inlined
    /// code. Triangular trip counts collapse to exact average extents;
    /// `idx_extent`-bounded gathers become capped conservative groups.
    /// What still refuses — guarded references and calls, unanalyzable
    /// loops, unmappable call arguments that reach an index or bound —
    /// sends callers back to the whole-footprint fits-or-streams model,
    /// exactly as conservative as before this model existed.
    pub fn nest_model(&self, func: &str, line_bytes: u32) -> Option<NestModel> {
        let mut sp = mira_probe::span("mem.nest_model", "mem");
        sp.arg("func", func);
        // A budget trip during working-set construction refuses the nest
        // model (None), which callers already treat as "fall back to the
        // fits-or-streams sweep" — the PR 5 refusal pattern.
        let built =
            mira_sym::budget::with_default_budget(|| self.nest_model_inner(func, line_bytes));
        if built.is_err() {
            sp.arg("refused", "budget");
            mira_probe::add("mem.nest_refusals", 1);
        }
        built.ok().flatten()
    }

    /// Inline every known callee's loop forest and references into the
    /// caller's, recursively: the nest-group analogue of the footprint
    /// composition in [`AccessModel::resolve`]. Callee domain variables
    /// are renamed (`$k` splice tags, so actuals can never capture
    /// them), value formals are substituted by the caller-side actual
    /// expressions, pointer formals map to caller arrays, and the
    /// callee's loops are re-parented under the call site's loop path.
    /// `None` when any callee traffic cannot be attributed (tainted or
    /// partially-unknown callee, guarded call, unmappable argument that
    /// reaches an index or bound) — the caller then falls back to the
    /// fits-or-streams sweep, the PR 6 refusal backstop.
    fn flatten_nest(
        &self,
        func: &str,
        depth: u32,
        splice: &mut usize,
    ) -> Option<(Vec<NodeBuild>, Vec<NestRef>)> {
        let info = self.functions.get(func)?;
        if info.nest_tainted || !info.unknown.is_empty() || depth > 16 {
            return None;
        }
        let mut nodes = info.nodes.clone();
        let mut refs = info.nest_refs.clone();
        for call in &info.calls {
            let Some(callee) = self.functions.get(&call.callee) else {
                // calls to functions outside the program (libm externs)
                // move no modeled bytes
                continue;
            };
            if call.guarded {
                return None;
            }
            let (cnodes, crefs) = self.flatten_nest(&call.callee, depth + 1, splice)?;
            *splice += 1;
            let tag = *splice;
            let (ptr_map, val_map) = formal_maps(callee, call);
            // rename callee domain variables first (splice-unique `$tag`
            // suffix), then substitute actuals — an actual that mentions a
            // caller loop variable can no longer capture a callee one. An
            // `Err` argument only refuses if its formal reaches an index
            // or bound; annotation parameters pass through unchanged.
            let renames: Vec<(String, String)> = cnodes
                .iter()
                .map(|n| (n.var.clone(), format!("{}${tag}", n.var)))
                .collect();
            let map_expr = |e: &SymExpr| -> Option<SymExpr> {
                let mut out = e.clone();
                for (old, new) in &renames {
                    if out.params().iter().any(|p| p == old) {
                        out = out.substitute(old, &SymExpr::param(new));
                    }
                }
                for p in out.params() {
                    if let Some(v) = val_map.get(p.as_str()) {
                        out = out.substitute(&p, (*v).ok()?);
                    }
                }
                Some(out)
            };
            let offset = nodes.len();
            for n in &cnodes {
                nodes.push(NodeBuild {
                    parent: n
                        .parent
                        .map(|p| p + offset)
                        .or_else(|| call.path.last().copied()),
                    var: format!("{}${tag}", n.var),
                    lo: map_expr(&n.lo)?,
                    hi: map_expr(&n.hi)?,
                    step: n.step,
                });
            }
            for r in &crefs {
                let array = match ptr_map.get(r.array.as_str()) {
                    Some(Ok(caller_name)) => caller_name.to_string(),
                    // traffic to an array we cannot name in the caller —
                    // the model would under-count, so it refuses
                    _ => return None,
                };
                let mut path = call.path.clone();
                path.extend(r.path.iter().map(|p| p + offset));
                // an affine ladder is derived over the spliced forest by
                // the model builder; a gather's flat bound is simply
                // re-tiled to the spliced depth
                let ranges = if r.gather {
                    let (mn, mx) = &r.ranges[0];
                    vec![(map_expr(mn)?, map_expr(mx)?); path.len() + 1]
                } else {
                    Vec::new()
                };
                refs.push(NestRef {
                    array,
                    path,
                    ranges,
                    idx: map_expr(&r.idx)?,
                    stored: r.stored,
                    stride_bytes: r.stride_bytes,
                    gather: r.gather,
                });
            }
        }
        Some((nodes, refs))
    }

    fn nest_model_inner(&self, func: &str, line_bytes: u32) -> Option<NestModel> {
        let mut splice = 0usize;
        let (nodes_b, mut refs) = self.flatten_nest(func, 0, &mut splice)?;
        // depth, first-iteration lower bound and trip count per node
        let var_node: BTreeMap<&str, usize> = nodes_b
            .iter()
            .enumerate()
            .map(|(i, n)| (n.var.as_str(), i))
            .collect();
        let mut depth = vec![0usize; nodes_b.len()];
        let mut pinned_lo: Vec<SymExpr> = Vec::with_capacity(nodes_b.len());
        let mut extents: Vec<SymExpr> = Vec::with_capacity(nodes_b.len());
        // ancestors consumed by a triangular child — their variables pin
        // at the *last* iteration in the working-set ladders (the largest
        // per-iteration working set), and no second triangular loop may
        // consume them (products of averages would stop being exact)
        let mut consumed: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut triangular: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for (i, nb) in nodes_b.iter().enumerate() {
            depth[i] = nb.parent.map(|p| depth[p] + 1).unwrap_or(0);
            let lo = pin_ancestors(&nodes_b, &pinned_lo, nb.parent, nb.lo.clone())?;
            pinned_lo.push(lo);
            let extent = nb.extent();
            let deps: Vec<usize> = extent
                .params()
                .iter()
                .filter_map(|p| var_node.get(p.as_str()).copied())
                .collect();
            if deps.is_empty() {
                // rectangular (tiled bounds cancel to a constant extent)
                extents.push(pin_ancestors(&nodes_b, &pinned_lo, nb.parent, extent)?);
                continue;
            }
            // a triangular loop: its trip count is affine in exactly one
            // rectangular ancestor's variable, and nonnegative across the
            // ancestor's whole range. Substituting the ancestor's range
            // midpoint gives the closed-form *average* extent
            // (`mira_sym::sum::avg_over`): the product of per-level
            // extents is then the exact total iteration count.
            let [a] = deps[..] else {
                return None;
            };
            let v = nodes_b[a].var.clone();
            if !is_ancestor(&nodes_b, a, i)
                || consumed.contains(&a)
                || triangular.contains(&a)
                || extent.degree_in(&v) != 1
                || extent.param_in_composite_atom(&v)
            {
                return None;
            }
            let (alo, ahi) = (&nodes_b[a].lo, &nodes_b[a].hi);
            let rectangular = |e: &SymExpr| {
                e.params()
                    .iter()
                    .all(|p| !var_node.contains_key(p.as_str()))
            };
            if !rectangular(alo) || !rectangular(ahi) {
                return None;
            }
            // the trip count must be nonnegative over the ancestor's
            // whole range — a shape that bottoms out negative would need
            // clamping, which the midpoint sum cannot represent exactly.
            // Affine in `v`, it is smallest at the end its slope points
            // away from, so one endpoint check covers the range.
            let slope = extent.coefficients_of(&v)[1].clone();
            let low_end = match sign_of(&slope) {
                Some(true) => alo,
                Some(false) => ahi,
                None => return None,
            };
            if sign_of(&extent.substitute(&v, low_end)) != Some(true) {
                return None;
            }
            let mid = alo.add_expr(ahi).scale(Rat::new(1, 2));
            let avg = extent.substitute(&v, &mid);
            if !rectangular(&avg) {
                return None;
            }
            consumed.insert(a);
            triangular.insert(i);
            extents.push(avg);
        }
        // the walker's ladder holds for an own affine reference unless a
        // consumed ancestor, pinned at its last iteration, is on its
        // path; a spliced callee reference has none yet
        let hi_pin: std::collections::BTreeSet<String> =
            consumed.iter().map(|&a| nodes_b[a].var.clone()).collect();
        for r in refs.iter_mut() {
            if !r.gather && (r.ranges.is_empty() || r.path.iter().any(|n| consumed.contains(n))) {
                r.ranges = ladder(&nodes_b, &r.path, &r.idx, &hi_pin)?;
            }
        }
        // per-node one-iteration working sets. Per-array ranges unite
        // when comparable; an incomparable pair (a hi-pinned consumed
        // ancestor against a swept triangular child, say `x[n-1]` vs
        // `x[0..n-2]` in a forward solve) keeps both ranges and sums
        // their line counts — at most one shared boundary line of
        // overcount per reference, and the ladder stays an upper bound
        // instead of refusing the whole model.
        let mut nodes = Vec::with_capacity(nodes_b.len());
        for i in 0..nodes_b.len() {
            let d = depth[i];
            let mut per_array: BTreeMap<&str, Vec<(SymExpr, SymExpr)>> = BTreeMap::new();
            for r in &refs {
                if r.path.get(d) != Some(&i) {
                    continue;
                }
                let (mn, mx) = &r.ranges[d + 1];
                let ranges = per_array.entry(r.array.as_str()).or_default();
                let mut united = false;
                for slot in ranges.iter_mut() {
                    if let Some(u) = sym_min_max(&slot.0, mn, &slot.1, mx) {
                        *slot = u;
                        united = true;
                        break;
                    }
                }
                if !united {
                    ranges.push((mn.clone(), mx.clone()));
                }
            }
            let mut ws = SymExpr::zero();
            for (mn, mx) in per_array.values().flatten() {
                ws = ws.add_expr(&range_lines_expr(mn, mx, line_bytes));
            }
            nodes.push(NestNode {
                extent: extents[i].clone(),
                ws_lines: ws,
            });
        }
        // array × nest groups (gathers grouped apart: their counting
        // regime differs)
        let mut by_group: BTreeMap<(String, Vec<usize>, bool), Vec<&NestRef>> = BTreeMap::new();
        for r in &refs {
            by_group
                .entry((r.array.clone(), r.path.clone(), r.gather))
                .or_default()
                .push(r);
        }
        let mut groups = Vec::with_capacity(by_group.len());
        let mut forms = Vec::with_capacity(by_group.len());
        for ((array, path, _), grefs) in by_group {
            let (g, f) = Self::build_group(&nodes_b, array, path, &grefs, line_bytes)?;
            groups.push(g);
            forms.push(f);
        }
        Some(NestModel {
            shape: NestShape { groups, line_bytes },
            nodes,
            forms,
        })
    }

    /// Build the traffic group, and its forms, for one array × path ×
    /// kind cluster of references. Gather (data-dependent) references get
    /// their own counting regime: the union of their `idx_extent` bounds
    /// as the compulsory line count, capped at the access count in
    /// [`NestShape::traffic`], never exact.
    fn build_group(
        nodes: &[NodeBuild],
        array: String,
        path: Vec<usize>,
        refs: &[&NestRef],
        line_bytes: u32,
    ) -> Option<(NestGroup, [SymExpr; 4])> {
        if refs.iter().any(|r| r.gather) {
            let mut union: Option<(SymExpr, SymExpr)> = None;
            let mut stored_union: Option<(SymExpr, SymExpr)> = None;
            let mut sum_lines = SymExpr::zero();
            let mut sum_stored_lines = SymExpr::zero();
            for r in refs {
                let (mn, mx) = &r.ranges[0];
                let l = range_lines_expr(mn, mx, line_bytes);
                sum_lines = sum_lines.add_expr(&l);
                union = Some(match union {
                    None => (mn.clone(), mx.clone()),
                    Some((umn, umx)) => sym_min_max(&umn, mn, &umx, mx)?,
                });
                if r.stored {
                    sum_stored_lines = sum_stored_lines.add_expr(&l);
                    stored_union = Some(match stored_union {
                        None => (mn.clone(), mx.clone()),
                        Some((smn, smx)) => sym_min_max(&smn, mn, &smx, mx)?,
                    });
                }
            }
            let (umn, umx) = union?;
            let forms = [
                range_lines_expr(&umn, &umx, line_bytes),
                stored_union
                    .map(|(a, b)| range_lines_expr(&a, &b, line_bytes))
                    .unwrap_or_else(SymExpr::zero),
                sum_lines,
                sum_stored_lines,
            ];
            let group = NestGroup {
                array,
                depends: vec![false; path.len()],
                union_capture_level: usize::MAX,
                exact: false,
                gather: true,
                gather_refs: (
                    refs.len() as i64,
                    refs.iter().filter(|r| r.stored).count() as i64,
                ),
                path,
            };
            return Some((group, forms));
        }
        // distinct access functions, each with its own united range
        struct Access {
            idx: SymExpr,
            min: SymExpr,
            max: SymExpr,
            stored: bool,
        }
        let mut accesses: Vec<Access> = Vec::new();
        for r in refs {
            let (mn, mx) = &r.ranges[0];
            match accesses.iter_mut().find(|a| a.idx == r.idx) {
                Some(a) => {
                    let (nmn, nmx) = sym_min_max(&a.min, mn, &a.max, mx)?;
                    a.min = nmn;
                    a.max = nmx;
                    a.stored |= r.stored;
                }
                None => accesses.push(Access {
                    idx: r.idx.clone(),
                    min: mn.clone(),
                    max: mx.clone(),
                    stored: r.stored,
                }),
            }
        }
        // full-sweep union (and the stored subset), tracking gap-freedom;
        // an incomparable union falls back to the per-access sum — a
        // valid (if overlapping) upper bound on the distinct lines
        let mut connected = true;
        let mut comparable = true;
        let mut union: Option<(SymExpr, SymExpr)> = None;
        let mut stored_union: Option<(SymExpr, SymExpr)> = None;
        for r in refs {
            let (mn, mx) = &r.ranges[0];
            union = Some(match union {
                None => (mn.clone(), mx.clone()),
                Some((umn, umx)) => {
                    if !ranges_connected(&umn, &umx, mn, mx) {
                        connected = false;
                    }
                    match sym_min_max(&umn, mn, &umx, mx) {
                        Some(u) => u,
                        None => {
                            comparable = false;
                            (umn, umx)
                        }
                    }
                }
            });
            if r.stored {
                stored_union = Some(match stored_union {
                    None => (mn.clone(), mx.clone()),
                    Some((smn, smx)) => match sym_min_max(&smn, mn, &smx, mx) {
                        Some(u) => u,
                        None => {
                            comparable = false;
                            (smn, smx)
                        }
                    },
                });
            }
        }
        let (umn, umx) = union?;
        let mut sum_lines = SymExpr::zero();
        let mut sum_stored_lines = SymExpr::zero();
        for a in &accesses {
            let l = range_lines_expr(&a.min, &a.max, line_bytes);
            sum_lines = sum_lines.add_expr(&l);
            if a.stored {
                sum_stored_lines = sum_stored_lines.add_expr(&l);
            }
        }
        let (lines, stored_lines) = if comparable {
            (
                range_lines_expr(&umn, &umx, line_bytes),
                stored_union
                    .as_ref()
                    .map(|(a, b)| range_lines_expr(a, b, line_bytes))
                    .unwrap_or_else(SymExpr::zero),
            )
        } else {
            (sum_lines.clone(), sum_stored_lines.clone())
        };
        // does pinning one more level move any reference's range?
        let mut depends = vec![false; path.len()];
        for r in refs {
            for (l, dep) in depends.iter_mut().enumerate() {
                if r.ranges[l] != r.ranges[l + 1] {
                    *dep = true;
                }
            }
        }
        // stencil analysis: a constant offset δ between two access
        // functions is reuse carried by the outermost loop whose
        // per-iteration index movement (its coefficient) covers δ —
        // union counting needs capture at that loop
        let mut union_capture_level = usize::MAX;
        let mut deltas_clean = true;
        for i in 0..accesses.len() {
            for j in i + 1..accesses.len() {
                let delta = accesses[i].idx.sub_expr(&accesses[j].idx);
                let Some(nonneg) = sign_of(&delta) else {
                    deltas_clean = false;
                    union_capture_level = 0;
                    continue;
                };
                let dabs = if nonneg { delta } else { delta.neg_expr() };
                let mut carried = None;
                for (l, node) in path.iter().enumerate() {
                    let var = &nodes[*node].var;
                    if accesses[i].idx.degree_in(var) == 0 {
                        continue;
                    }
                    let coeff = accesses[i].idx.coefficients_of(var)[1].clone();
                    let mag = match sign_of(&coeff) {
                        Some(true) => coeff,
                        Some(false) => coeff.neg_expr(),
                        None => {
                            deltas_clean = false;
                            union_capture_level = 0;
                            carried = None;
                            break;
                        }
                    };
                    // |coeff| ≤ |δ|: one iteration here spans the offset
                    if sign_of(&dabs.sub_expr(&mag)) == Some(true) {
                        carried = Some(l);
                        break;
                    }
                }
                if let Some(l) = carried {
                    union_capture_level = union_capture_level.min(l + 1);
                }
                // no qualifying level: the offset is smaller than every
                // per-iteration movement — reuse within one innermost
                // iteration, captured by any cache
            }
        }
        let dense = refs
            .iter()
            .all(|r| matches!(r.stride_bytes, Some(s) if s <= line_bytes as i128));
        let group = NestGroup {
            array,
            path,
            depends,
            union_capture_level,
            exact: line_bytes <= 64 && dense && connected && deltas_clean && comparable,
            gather: false,
            gather_refs: (0, 0),
        };
        Some((group, [lines, stored_lines, sum_lines, sum_stored_lines]))
    }
}

/// Fold one reference into the per-array footprint map, uniting index
/// ranges; incomparable ranges keep the first and flag the array.
fn union_ref(
    by_array: &mut BTreeMap<String, ArrayFootprint>,
    unknown: &mut Vec<String>,
    r: RawRef,
) {
    match by_array.entry(r.array.clone()) {
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(ArrayFootprint {
                array: r.array,
                min_index: r.min,
                max_index: r.max,
                loaded: r.loaded,
                stored: r.stored,
                stride_bytes: r.stride_bytes,
            });
        }
        std::collections::btree_map::Entry::Occupied(mut e) => {
            let fp = e.get_mut();
            fp.loaded |= r.loaded;
            fp.stored |= r.stored;
            // a dense union needs both sides dense AND the ranges
            // connected — otherwise the joined range has an unproven gap
            fp.stride_bytes = match (fp.stride_bytes, r.stride_bytes) {
                (Some(a), Some(b))
                    if ranges_connected(&fp.min_index, &fp.max_index, &r.min, &r.max) =>
                {
                    Some(a.max(b))
                }
                _ => None,
            };
            match sym_min_max(&fp.min_index, &r.min, &fp.max_index, &r.max) {
                Some((mn, mx)) => {
                    fp.min_index = mn;
                    fp.max_index = mx;
                }
                None => {
                    fp.stride_bytes = None;
                    unknown.push(fp.array.clone());
                }
            }
        }
    }
}

/// Can the union of two index ranges be treated as gap-free? True when
/// they numerically overlap or touch (all-constant case), or when both
/// endpoint differences are constants — equal-shape symbolic ranges
/// shifted by a constant, connected for the parameter-sized extents this
/// analysis models (a documented assumption, like nonnegative
/// parameters).
fn ranges_connected(min_a: &SymExpr, max_a: &SymExpr, min_b: &SymExpr, max_b: &SymExpr) -> bool {
    if let (Some(lo_a), Some(hi_a), Some(lo_b), Some(hi_b)) = (
        min_a.as_int(),
        max_a.as_int(),
        min_b.as_int(),
        max_b.as_int(),
    ) {
        return lo_b <= hi_a + 1 && lo_a <= hi_b + 1;
    }
    min_b.sub_expr(min_a).as_constant().is_some() && max_b.sub_expr(max_a).as_constant().is_some()
}

/// `min`/`max` of two affine expressions when their difference has a
/// decidable sign — constant, or uniformly signed in the (nonnegative)
/// parameters, so `i·n` and `(i+1)·n` row offsets compare; `None` when
/// incomparable (mixed-sign differences).
fn sym_min_max(
    min_a: &SymExpr,
    min_b: &SymExpr,
    max_a: &SymExpr,
    max_b: &SymExpr,
) -> Option<(SymExpr, SymExpr)> {
    let pick = |a: &SymExpr, b: &SymExpr, smaller: bool| -> Option<SymExpr> {
        let diff = a.sub_expr(b);
        let a_le_b = !sign_of(&diff)? || diff.is_zero();
        Some(if a_le_b == smaller {
            a.clone()
        } else {
            b.clone()
        })
    };
    Some((pick(min_a, min_b, true)?, pick(max_a, max_b, false)?))
}

// ---- per-function walker ----

struct Walker {
    scope: LoopScope,
    /// Mutable scalar state collected by a pre-pass — declared locals and
    /// every assignment/increment target anywhere in the function, so a
    /// later mutation also poisons earlier references. Loop induction
    /// variables land here too (their step mutates them), which is
    /// harmless: inside an analyzed loop they are renamed to domain
    /// variables before this check.
    poisoned: Vec<String>,
    safe_params: Vec<String>,
    /// Depth of enclosing `if`/`while` branches: a guarded reference can
    /// only shrink the touched set, so its range stays a valid bound but
    /// must not claim dense coverage.
    branch_depth: u32,
    /// Innermost-last stack of `idx_extent` annotations: unanalyzable
    /// subscripts inside an annotated loop are bounded to
    /// `[0, extent - 1]` instead of poisoning their array.
    extent_stack: Vec<SymExpr>,
    refs: Vec<RawRef>,
    unknown: Vec<String>,
    calls: Vec<CallSite>,
    var_counter: usize,
    /// Loop forest and per-reference nest bookkeeping (see [`FuncInfo`]);
    /// `node_path` is the current loop path, outermost first.
    nodes: Vec<NodeBuild>,
    node_path: Vec<usize>,
    nest_refs: Vec<NestRef>,
    nest_tainted: bool,
}

/// Pre-pass: every scalar the function ever declares, assigns or
/// increments. Indices built from these are not affine functions of the
/// iteration domain.
fn collect_mutations(s: &Stmt, out: &mut Vec<String>) {
    fn expr(e: &Expr, out: &mut Vec<String>) {
        match &e.kind {
            ExprKind::Assign { target, value, .. } => {
                if let ExprKind::Var(n) = &target.kind {
                    out.push(n.clone());
                }
                expr(target, out);
                expr(value, out);
            }
            ExprKind::IncDec { target, .. } => {
                if let ExprKind::Var(n) = &target.kind {
                    out.push(n.clone());
                }
                expr(target, out);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                expr(lhs, out);
                expr(rhs, out);
            }
            ExprKind::Unary { operand, .. }
            | ExprKind::Cast { operand, .. }
            | ExprKind::ImplicitCast { operand, .. } => expr(operand, out),
            ExprKind::Index { base, index } => {
                expr(base, out);
                expr(index, out);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    expr(a, out);
                }
            }
            ExprKind::Var(_) | ExprKind::IntLit(_) | ExprKind::FloatLit(_) => {}
        }
    }
    match &s.kind {
        StmtKind::Decl { name, init, .. } => {
            out.push(name.clone());
            if let Some(e) = init {
                expr(e, out);
            }
        }
        StmtKind::Expr(e) => expr(e, out),
        StmtKind::Return(Some(e)) => expr(e, out),
        StmtKind::Return(None) | StmtKind::Empty => {}
        StmtKind::Block(b) => {
            for s in &b.stmts {
                collect_mutations(s, out);
            }
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            expr(cond, out);
            collect_mutations(then_branch, out);
            if let Some(e) = else_branch {
                collect_mutations(e, out);
            }
        }
        StmtKind::While { cond, body } => {
            expr(cond, out);
            collect_mutations(body, out);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init.as_deref() {
                collect_mutations(i, out);
            }
            if let Some(c) = cond {
                expr(c, out);
            }
            if let Some(st) = step {
                expr(st, out);
            }
            collect_mutations(body, out);
        }
    }
}

fn analyze_func(f: &Func) -> FuncInfo {
    let ptr_params: Vec<Option<String>> = f
        .params
        .iter()
        .map(|p| p.ty.is_pointer().then(|| p.name.clone()))
        .collect();
    let value_params: Vec<String> = f
        .params
        .iter()
        .filter(|p| !p.ty.is_pointer())
        .map(|p| p.name.clone())
        .collect();
    let mut poisoned = Vec::new();
    for s in &f.body.stmts {
        collect_mutations(s, &mut poisoned);
    }
    poisoned.sort();
    poisoned.dedup();
    // a reassigned value parameter is mutable state, not a parameter
    let safe_params: Vec<String> = value_params
        .iter()
        .filter(|p| !poisoned.contains(p))
        .cloned()
        .collect();
    let mut w = Walker {
        scope: LoopScope::new(),
        poisoned,
        safe_params,
        branch_depth: 0,
        extent_stack: Vec::new(),
        refs: Vec::new(),
        unknown: Vec::new(),
        calls: Vec::new(),
        var_counter: 0,
        nodes: Vec::new(),
        node_path: Vec::new(),
        nest_refs: Vec::new(),
        nest_tainted: false,
    };
    for s in &f.body.stmts {
        w.walk_stmt(s);
    }
    let mut unknown = w.unknown;
    unknown.sort();
    unknown.dedup();
    FuncInfo {
        ptr_params,
        value_params,
        refs: w.refs,
        unknown,
        calls: w.calls,
        nodes: w.nodes,
        nest_refs: w.nest_refs,
        nest_tainted: w.nest_tainted,
    }
}

impl Walker {
    fn walk_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl { init, .. } => {
                if let Some(e) = init {
                    self.walk_expr(e, false);
                }
            }
            StmtKind::Expr(e) => self.walk_expr(e, false),
            StmtKind::Return(Some(e)) => self.walk_expr(e, false),
            StmtKind::Return(None) | StmtKind::Empty => {}
            StmtKind::Block(b) => {
                for s in &b.stmts {
                    self.walk_stmt(s);
                }
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                // footprints are unions over the whole domain; a branch
                // can only shrink the touched set, so both sides
                // contribute their full ranges — as upper bounds, never
                // as dense (exact) coverage
                self.walk_expr(cond, false);
                self.branch_depth += 1;
                self.walk_stmt(then_branch);
                if let Some(e) = else_branch {
                    self.walk_stmt(e);
                }
                self.branch_depth -= 1;
            }
            StmtKind::While { cond, body } => {
                self.walk_expr(cond, false);
                match s.annotation.as_ref().and_then(|a| self.annotated_iters(a)) {
                    Some(iters) => {
                        // `{lp_iters: t}` asserts the trip count: the loop
                        // becomes a synthetic repetition dimension
                        // `[0, t - 1]`, so the nest model sees how often
                        // the body re-sweeps — the cg_solve
                        // outer-iteration shape, whose callees' nests it
                        // carries
                        let dom = self.fresh_var("while");
                        let hi = iters.sub_expr(&SymExpr::constant(1));
                        self.walk_loop(None, dom, SymExpr::zero(), hi, 1, body);
                    }
                    None => {
                        // a bare while loop is a data-dependent guard
                        // around its body
                        self.branch_depth += 1;
                        self.walk_stmt(body);
                        self.branch_depth -= 1;
                    }
                }
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => self.walk_for(init, cond, step, body, s.annotation.as_ref()),
        }
    }

    fn walk_for(
        &mut self,
        init: &Option<Box<Stmt>>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
        ann: Option<&Annotation>,
    ) {
        let scop = match (init, cond, step) {
            (Some(i), Some(c), Some(st)) => extract_for_scop(i, c, st, &self.scope),
            _ => None,
        };
        // bound and step expressions themselves read memory (row_ptr[i])
        if let Some(i) = init.as_deref() {
            match &i.kind {
                StmtKind::Decl { init: Some(e), .. } => self.walk_expr(e, false),
                StmtKind::Expr(e) => self.walk_expr(e, false),
                _ => {}
            }
        }
        if let Some(c) = cond {
            self.walk_expr(c, false);
        }
        if let Some(st) = step {
            self.walk_expr(st, false);
        }
        let pushed_extent = match ann.and_then(|a| self.annot_expr(a, "idx_extent")) {
            Some(e) => {
                self.extent_stack.push(e);
                true
            }
            None => false,
        };
        match scop {
            Some(scop) => {
                let dom = self.fresh_var(&scop.var);
                let step = scop.stride.map(|(m, _)| m).unwrap_or(1);
                self.walk_loop(Some(&scop.var), dom, scop.lo, scop.hi, step, body);
            }
            None => match self.cumulative_dim(init, ann) {
                Some((var, lo, hi)) => {
                    // a `{lp_iters: t, lp_cumulative: yes}` annotation: the
                    // data-dependent loop sweeps a cumulative prefix across
                    // the enclosing nest, so it acts as one synthetic affine
                    // dimension of extent (enclosing trip count) · t
                    let dom = self.fresh_var(&var);
                    self.walk_loop(Some(&var), dom, lo, hi, 1, body);
                }
                None => {
                    // unanalyzable bounds: the induction variable is already
                    // poisoned by the mutation pre-pass (its step assigns
                    // it), so references indexed by it are reported unknown —
                    // and the loop's repetition count is invisible to the
                    // per-nest model, so that model must not be built
                    self.nest_tainted = true;
                    self.walk_stmt(body);
                }
            },
        }
        if pushed_extent {
            self.extent_stack.pop();
        }
    }

    /// An annotation value as a symbolic expression: identifiers become
    /// model parameters, numbers constants; rejected when the named
    /// parameter is mutable state.
    fn annot_expr(&self, ann: &Annotation, key: &str) -> Option<SymExpr> {
        let e = match ann.get(key)? {
            AnnotValue::Ident(name) if !self.poisoned.contains(name) => SymExpr::param(name),
            AnnotValue::Num(v) => SymExpr::constant(*v as i128),
            _ => return None,
        };
        Some(e)
    }

    /// The trip count an `lp_iters` annotation asserts,
    /// `t = lp_iters · lp_scale`, refused when it names mutable state.
    fn annotated_iters(&self, ann: &Annotation) -> Option<SymExpr> {
        scop::annotated_iters(ann, |name| !self.poisoned.iter().any(|p| p == name))
    }

    /// A fresh domain variable `stem@k`, unique within the function.
    fn fresh_var(&mut self, stem: &str) -> String {
        let var = format!("{stem}@{}", self.var_counter);
        self.var_counter += 1;
        var
    }

    /// Walk `body` one loop deeper: the loop joins the forest under the
    /// current path as domain variable `dom` over `[lo, hi]` in steps of
    /// `step`, and inside the body the source induction variable `var`
    /// (when there is one) names it.
    fn walk_loop(
        &mut self,
        var: Option<&str>,
        dom: String,
        lo: SymExpr,
        hi: SymExpr,
        step: i64,
        body: &Stmt,
    ) {
        let id = self.nodes.len();
        self.nodes.push(NodeBuild {
            parent: self.node_path.last().copied(),
            var: dom.clone(),
            lo,
            hi,
            step,
        });
        self.node_path.push(id);
        let saved = var.map(|v| (v, self.scope.insert(v.to_string(), dom)));
        self.walk_stmt(body);
        self.node_path.pop();
        match saved {
            Some((v, Some(outer))) => {
                self.scope.insert(v.to_string(), outer);
            }
            Some((v, None)) => {
                self.scope.remove(v);
            }
            None => {}
        }
    }

    /// The enclosing loops of the walk position, outermost first.
    fn loops(&self) -> impl DoubleEndedIterator<Item = &NodeBuild> {
        self.node_path.iter().map(|&n| &self.nodes[n])
    }

    /// The synthetic dimension for a `lp_cumulative` annotated loop:
    /// `[p·t, p·t + t - 1]` where `p` is the *ordinal* of the immediately
    /// enclosing loop's current iteration and `t = lp_iters · lp_scale`
    /// the annotated per-entry trip estimate — the average row slice of
    /// the cumulative prefix. Swept over the parent this covers exactly
    /// `[0, N·t)` (the whole prefix, as before), while pinning the
    /// parent restricts the range to one row's slice, so the working-set
    /// ladder sees that one parent iteration touches `t` entries rather
    /// than the whole prefix. Only the direct parent extends the
    /// prefix: the CSR pattern restarts at `row_ptr[0]` whenever an
    /// outer loop (a benchmark-style repetition loop, a higher nest
    /// level) re-enters the row loop, so outer dimensions are revisits
    /// of the same `[0, N·t)` range — exactly how an affine reference's
    /// range behaves under an enclosing reps loop.
    fn cumulative_dim(
        &self,
        init: &Option<Box<Stmt>>,
        ann: Option<&Annotation>,
    ) -> Option<(String, SymExpr, SymExpr)> {
        let ann = ann?;
        if !ann.flag("lp_cumulative") {
            return None;
        }
        let iters = self.annotated_iters(ann)?;
        // the annotated loop's induction variable, from its init clause
        let var = scop::init_var(init.as_deref()?)?;
        // the parent iteration's ordinal `(v - lo)/step`, zero when the
        // annotated loop is outermost (a single prefix entry)
        let ordinal = match self.loops().next_back() {
            Some(parent) => {
                let pos = SymExpr::param(&parent.var).sub_expr(&parent.lo);
                if parent.step > 1 {
                    pos.scale(Rat::new(1, parent.step as i128))
                } else {
                    pos
                }
            }
            None => SymExpr::zero(),
        };
        let lo = ordinal.mul_expr(&iters);
        let hi = lo.add_expr(&iters).sub_expr(&SymExpr::constant(1));
        Some((var, lo, hi))
    }

    fn walk_expr(&mut self, e: &Expr, is_store: bool) {
        match &e.kind {
            ExprKind::Index { base, index } => {
                self.walk_expr(index, false);
                // peel casts so a wrapped pointer still names its array
                let mut b: &Expr = base;
                while let ExprKind::Cast { operand, .. } | ExprKind::ImplicitCast { operand, .. } =
                    &b.kind
                {
                    b = operand;
                }
                self.record_ref(b, index, is_store);
            }
            ExprKind::Assign { target, value, op } => {
                self.walk_expr(target, true);
                if *op != mira_minic::AssignOp::Set {
                    // compound assignment reads the target too (same
                    // lines, but the load flag matters for reporting)
                    self.walk_expr(target, false);
                }
                self.walk_expr(value, false);
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.walk_expr(lhs, false);
                self.walk_expr(rhs, false);
            }
            ExprKind::Unary { operand, .. }
            | ExprKind::Cast { operand, .. }
            | ExprKind::ImplicitCast { operand, .. } => self.walk_expr(operand, false),
            ExprKind::IncDec { target, .. } => self.walk_expr(target, false),
            ExprKind::Call { name, args } => {
                for a in args {
                    self.walk_expr(a, false);
                }
                self.record_call(name, args);
            }
            ExprKind::Var(_) | ExprKind::IntLit(_) | ExprKind::FloatLit(_) => {}
        }
    }

    fn record_call(&mut self, name: &str, args: &[Expr]) {
        let mapped: Vec<Result<Arg, ()>> = args
            .iter()
            .map(|a| {
                if a.ty.is_pointer() {
                    match &a.kind {
                        ExprKind::Var(n) => Ok(Arg::Ptr(n.clone())),
                        _ => Err(()),
                    }
                } else {
                    match self.index_affine(a) {
                        Some(e) if self.expr_is_safe(&e) => Ok(Arg::Value(e)),
                        _ => Err(()),
                    }
                }
            })
            .collect();
        self.calls.push(CallSite {
            callee: name.to_string(),
            args: mapped,
            path: self.node_path.clone(),
            guarded: self.branch_depth > 0,
        });
    }

    /// An affine expression is safe when it only references loop domain
    /// variables and immutable value parameters.
    fn expr_is_safe(&self, e: &SymExpr) -> bool {
        e.params()
            .iter()
            .all(|p| self.loops().any(|l| &l.var == p) || self.safe_params.contains(p))
    }

    fn has_loop_var(&self, e: &SymExpr) -> bool {
        e.params().iter().any(|p| self.loops().any(|l| &l.var == p))
    }

    /// Convert an index expression to a form affine in the loop variables
    /// with *parameter* coefficients (`i*n + j` — the paper's affine
    /// access functions) — a superset of the bound conversion in
    /// `mira_core::scop::to_affine`, which only admits constant
    /// coefficients.
    fn index_affine(&self, e: &Expr) -> Option<SymExpr> {
        match &e.kind {
            ExprKind::IntLit(v) => Some(SymExpr::constant(*v as i128)),
            ExprKind::Var(name) => {
                let mapped = self
                    .scope
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| name.clone());
                Some(SymExpr::param(&mapped))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let l = self.index_affine(lhs)?;
                let r = self.index_affine(rhs)?;
                match op {
                    BinOp::Add => Some(l.add_expr(&r)),
                    BinOp::Sub => Some(l.sub_expr(&r)),
                    BinOp::Mul => {
                        // stays affine in the loop variables as long as at
                        // most one factor mentions them
                        if !self.has_loop_var(&l) || !self.has_loop_var(&r) {
                            Some(l.mul_expr(&r))
                        } else {
                            None
                        }
                    }
                    BinOp::Div => {
                        let c = r.as_constant()?.as_integer()?;
                        if c > 0 {
                            Some(l.floor_div(c as i64))
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            ExprKind::Unary {
                op: UnOp::Neg,
                operand,
            } => Some(self.index_affine(operand)?.neg_expr()),
            ExprKind::Cast { operand, .. } | ExprKind::ImplicitCast { operand, .. } => {
                self.index_affine(operand)
            }
            _ => None,
        }
    }

    fn record_ref(&mut self, base: &Expr, index: &Expr, store: bool) {
        let ExprKind::Var(array) = &base.kind else {
            return;
        };
        if !base.ty.is_pointer() {
            return;
        }
        let Some(idx) = self.index_affine(index) else {
            self.bounded_or_unknown(array, store);
            return;
        };
        if !self.expr_is_safe(&idx) || self.is_poisoned(&idx) {
            self.bounded_or_unknown(array, store);
            return;
        }
        // the index range over the enclosing iteration domain: the full
        // sweep, the first entry of the reference's ladder
        let Some((swept, unknown_sign)) = sweeps(&self.nodes, &self.node_path, &idx) else {
            self.bounded_or_unknown(array, store);
            return;
        };
        let (min, max) = swept[0].clone();
        // loop bounds may have pulled mutable locals into the range
        if self.is_poisoned(&min) || self.is_poisoned(&max) {
            self.bounded_or_unknown(array, store);
            return;
        }
        let stride = if unknown_sign {
            None
        } else {
            self.dense_coverage(&idx)
        };
        self.record_nest_ref(array, &idx, store, stride, swept);
        self.refs.push(RawRef {
            array: array.clone(),
            min,
            max,
            loaded: !store,
            stored: store,
            stride_bytes: if self.branch_depth == 0 { stride } else { None },
        });
    }

    /// Nest-model bookkeeping for one analyzable reference: the pinned
    /// range ladder over the current loop path, pinned from the ranges
    /// `swept` for its footprint. Guarded references taint the model —
    /// their traffic cannot be attributed to a nest level.
    fn record_nest_ref(
        &mut self,
        array: &str,
        idx: &SymExpr,
        store: bool,
        stride: Option<i128>,
        swept: Vec<(SymExpr, SymExpr)>,
    ) {
        if self.branch_depth > 0 {
            self.nest_tainted = true;
            return;
        }
        let no_hi_pin = std::collections::BTreeSet::new();
        let Some(ranges) = pin_ladder(&self.nodes, &self.node_path, swept, &no_hi_pin) else {
            self.nest_tainted = true;
            return;
        };
        if ranges
            .iter()
            .any(|(mn, mx)| self.is_poisoned(mn) || self.is_poisoned(mx))
        {
            self.nest_tainted = true;
            return;
        }
        self.nest_refs.push(NestRef {
            array: array.to_string(),
            path: self.node_path.clone(),
            ranges,
            idx: idx.clone(),
            stored: store,
            stride_bytes: stride,
            gather: false,
        });
    }

    /// An unanalyzable reference: inside an `idx_extent`-annotated loop it
    /// is bounded to `[0, extent - 1]` — a coverage-unproven upper bound,
    /// like a guarded reference — otherwise the array is unknown.
    ///
    /// A bounded reference also joins the nest bookkeeping as a *gather*:
    /// its flat range ladder never moves with any loop, and the traffic
    /// model caps its fills at the access count
    /// ([`NestGroup::gather`]). Guarded bounded references still taint —
    /// their execution count is unknown.
    fn bounded_or_unknown(&mut self, array: &str, store: bool) {
        if let Some(extent) = self.extent_stack.last() {
            if !self.is_poisoned(extent) {
                let max = extent.sub_expr(&SymExpr::constant(1));
                self.refs.push(RawRef {
                    array: array.to_string(),
                    min: SymExpr::zero(),
                    max: max.clone(),
                    loaded: !store,
                    stored: store,
                    stride_bytes: None,
                });
                if self.branch_depth == 0 {
                    let range = (SymExpr::zero(), max);
                    let idx = SymExpr::param(&self.fresh_var("gather"));
                    self.nest_refs.push(NestRef {
                        array: array.to_string(),
                        path: self.node_path.clone(),
                        ranges: vec![range; self.node_path.len() + 1],
                        idx,
                        stored: store,
                        stride_bytes: None,
                        gather: true,
                    });
                } else {
                    self.nest_tainted = true;
                }
                return;
            }
        }
        self.nest_tainted = true;
        self.unknown.push(array.to_string());
    }

    fn is_poisoned(&self, e: &SymExpr) -> bool {
        e.params().iter().any(|p| self.poisoned.contains(p))
    }

    /// Does the loop nest touch the index range with bounded gaps?
    /// `Some(stride_bytes)` when the per-variable strides chain up in
    /// some order of the contributing variables: the first stride must
    /// be a constant — it becomes the coverage gap, in bytes — and each
    /// next stride must equal the extent covered so far. The caller
    /// compares the gap against the line size
    /// ([`ArrayFootprint::exact_for`]); SSE2 packed accesses are just
    /// adjacent elements and need no special case.
    fn dense_coverage(&self, idx: &SymExpr) -> Option<i128> {
        struct Contrib {
            coeff: SymExpr,
            extent: SymExpr,
        }
        /// Order `order[at..]` behind `covered`, the extent the loops in
        /// `order[..at]` cover (`None` before the first), trying the
        /// orders a swap-based permutation search visits, in its order,
        /// and leaving the first that chains in `order`. Each loop is
        /// checked as it is placed, so a mismatch skips every order with
        /// that prefix; a loop equal in stride and extent to one already
        /// tried at this position would root the same failed subtree.
        fn chain(
            contribs: &[Contrib],
            order: &mut [usize],
            at: usize,
            covered: Option<&SymExpr>,
        ) -> bool {
            if at == order.len() {
                return true;
            }
            for i in at..order.len() {
                let c = &contribs[order[i]];
                let tried = order[at..i]
                    .iter()
                    .any(|&j| contribs[j].coeff == c.coeff && contribs[j].extent == c.extent);
                if tried {
                    continue;
                }
                let next = match covered {
                    // the first stride must be a constant: it is the gap
                    None if c.coeff.as_int().is_none() => continue,
                    None => c.coeff.mul_expr(&c.extent),
                    // each next stride must equal the extent covered so far
                    Some(cov) if !c.coeff.sub_expr(cov).is_zero() => continue,
                    Some(cov) => cov.mul_expr(&c.extent),
                };
                order.swap(at, i);
                if chain(contribs, order, at + 1, Some(&next)) {
                    return true;
                }
                order.swap(at, i);
            }
            false
        }
        let mut contribs: Vec<Contrib> = Vec::new();
        for dim in self.loops() {
            if idx.degree_in(&dim.var) == 0 {
                continue;
            }
            if idx.degree_in(&dim.var) > 1 || idx.param_in_composite_atom(&dim.var) {
                return None;
            }
            let coeff = idx.coefficients_of(&dim.var)[1].clone();
            let coeff = match sign_of(&coeff) {
                Some(true) => coeff,
                Some(false) => coeff.neg_expr(),
                None => return None,
            };
            // trip count along this dimension, in index units of `coeff`:
            // a stride-s loop visits (hi-lo)/s + 1 values
            let extent = dim.extent();
            // the element stride seen by the index is coeff · loop step
            let coeff = if dim.step > 1 {
                coeff.scale(Rat::int(dim.step as i128))
            } else {
                coeff
            };
            contribs.push(Contrib { coeff, extent });
        }
        if contribs.is_empty() {
            return Some(ELEM_BYTES as i128); // a single element
        }
        let mut order: Vec<usize> = (0..contribs.len()).collect();
        if !chain(&contribs, &mut order, 0, None) {
            return None;
        }
        contribs[order[0]]
            .coeff
            .as_int()
            .map(|c| c * ELEM_BYTES as i128)
    }
}

/// Sweep one loop: substitute `dim`'s bounds into `min`/`max` — a
/// positive-coefficient variable takes its lower bound in `min` and
/// upper bound in `max`, a negative one the reverse. Loops are swept
/// innermost first, so inner bounds that reference outer variables
/// resolve as the sweep goes out. Returns `false` when the variable
/// occurs non-affinely; sets `unknown_sign` when a coefficient's sign
/// was undecidable (the range stays a valid hull but dense coverage
/// must not be claimed). Each call is one `mem.sweep_steps`.
fn sweep_dim(
    dim: &NodeBuild,
    min: &mut SymExpr,
    max: &mut SymExpr,
    unknown_sign: &mut bool,
) -> bool {
    mira_probe::add("mem.sweep_steps", 1);
    for (range, subst_lo_when_pos) in [(min, true), (max, false)] {
        if range.degree_in(&dim.var) == 0 {
            continue;
        }
        if range.degree_in(&dim.var) > 1 || range.param_in_composite_atom(&dim.var) {
            return false;
        }
        let coeff = &range.coefficients_of(&dim.var)[1];
        let bound = match (sign_of(coeff), subst_lo_when_pos) {
            (Some(true), true) | (Some(false), false) => &dim.lo,
            (Some(true), false) | (Some(false), true) => &dim.hi,
            (None, lo) => {
                *unknown_sign = true;
                if lo {
                    &dim.lo
                } else {
                    &dim.hi
                }
            }
        };
        *range = range.substitute(&dim.var, bound);
    }
    true
}

/// `Some(true)` for provably nonnegative, `Some(false)` for provably
/// nonpositive, `None` when the sign depends on parameter values.
/// Parameters are assumed nonnegative (they are problem sizes).
fn sign_of(e: &SymExpr) -> Option<bool> {
    let all_nonneg = e.terms().iter().all(|t| t.coeff >= Rat::ZERO);
    let all_nonpos = e.terms().iter().all(|t| t.coeff <= Rat::ZERO);
    if all_nonneg {
        Some(true)
    } else if all_nonpos {
        Some(false)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_minic::frontend;
    use mira_sym::bindings;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The per-entry derivation [`ladder`] replaced, kept as its
    /// reference: every entry sweeps its inner loops from the index
    /// again, then pins the outer ones.
    fn ref_ladder(
        nodes: &[NodeBuild],
        path: &[usize],
        idx: &SymExpr,
        hi_pin: &BTreeSet<String>,
    ) -> Option<Vec<(SymExpr, SymExpr)>> {
        let mut out = Vec::with_capacity(path.len() + 1);
        for pin in 0..=path.len() {
            let mut min = idx.clone();
            let mut max = idx.clone();
            let mut unknown_sign = false;
            for &n in path[pin..].iter().rev() {
                if !sweep_dim(&nodes[n], &mut min, &mut max, &mut unknown_sign) {
                    return None;
                }
            }
            for dim in path[..pin].iter().rev().map(|&n| &nodes[n]) {
                let at = if hi_pin.contains(&dim.var) {
                    &dim.hi
                } else {
                    &dim.lo
                };
                for range in [&mut min, &mut max] {
                    if range.degree_in(&dim.var) == 0 {
                        continue;
                    }
                    if range.degree_in(&dim.var) > 1 || range.param_in_composite_atom(&dim.var) {
                        return None;
                    }
                    *range = range.substitute(&dim.var, at);
                }
            }
            out.push((min, max));
        }
        Some(out)
    }

    /// A chain nest `v0 ⊃ v1 ⊃ …`, one loop per spec `(lo shape, lo
    /// constant, hi shape, hi constant, step)`. A bound's shape is 0 for
    /// the constant alone, 1 for the enclosing loop's variable plus it
    /// (triangular; `n` for the outermost loop) and 2 for `n` plus it;
    /// an upper bound of shape 3 is the lower bound plus the constant's
    /// magnitude (a tile).
    fn chain_nest(loops: &[(u8, i8, u8, i8, u8)]) -> Vec<NodeBuild> {
        let mut nodes = Vec::new();
        for (k, &(lo_shape, lo_c, hi_shape, hi_c, step)) in loops.iter().enumerate() {
            let bound = |shape: u8, c: i8| {
                let c = SymExpr::constant(c as i128);
                match shape {
                    1 if k > 0 => SymExpr::param(&format!("v{}", k - 1)).add_expr(&c),
                    1 | 2 => SymExpr::param("n").add_expr(&c),
                    _ => c,
                }
            };
            let lo = bound(lo_shape, lo_c);
            let hi = match hi_shape {
                3 => lo.add_expr(&SymExpr::constant(hi_c.unsigned_abs() as i128)),
                _ => bound(hi_shape, hi_c),
            };
            nodes.push(NodeBuild {
                parent: k.checked_sub(1),
                var: format!("v{k}"),
                lo,
                hi,
                step: step as i64,
            });
        }
        nodes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The incremental ladder equals the per-entry reference, or both
        /// refuse, on random affine indexes (constant or `n`-scaled
        /// coefficients, an optional square that makes them non-affine)
        /// over random rectangular, triangular, tiled and strided chains,
        /// with and without loops pinned at their upper bound.
        #[test]
        fn the_incremental_ladder_matches_the_per_entry_reference(
            loops in vec((0u8..3, -2i8..3, 0u8..4, -3i8..9, 1u8..4), 1..6),
            coeffs in vec((-3i8..4, any::<bool>()), 5..6),
            offset in -4i8..5,
            square in 0u8..12,
            hi_pins in 0u8..32,
        ) {
            let nodes = chain_nest(&loops);
            let path: Vec<usize> = (0..nodes.len()).collect();
            let n = SymExpr::param("n");
            let mut idx = SymExpr::constant(offset as i128);
            for (node, &(c, scaled)) in nodes.iter().zip(&coeffs) {
                let coeff = SymExpr::constant(c as i128);
                let coeff = if scaled { coeff.mul_expr(&n) } else { coeff };
                idx = idx.add_expr(&coeff.mul_expr(&SymExpr::param(&node.var)));
            }
            if let Some(node) = nodes.get(square as usize) {
                let v = SymExpr::param(&node.var);
                idx = idx.add_expr(&v.mul_expr(&v));
            }
            let hi_pin: BTreeSet<String> = nodes
                .iter()
                .enumerate()
                .filter(|(k, _)| hi_pins & (1 << k) != 0)
                .map(|(_, node)| node.var.clone())
                .collect();
            prop_assert_eq!(
                ladder(&nodes, &path, &idx, &hi_pin),
                ref_ladder(&nodes, &path, &idx, &hi_pin)
            );
        }
    }

    fn footprint(src: &str, func: &str) -> FuncFootprints {
        let p = frontend(src).expect("parses");
        analyze_program(&p).footprint(func)
    }

    #[test]
    fn unit_stride_stream() {
        let fp = footprint(
            "void triad(int n, double* a, double* b, double* c, double s) {\n\
             for (int i = 0; i < n; i++) { a[i] = b[i] + s * c[i]; }\n}",
            "triad",
        );
        assert!(fp.is_exact(64), "{fp:?}");
        assert_eq!(fp.arrays.len(), 3);
        let b = bindings(&[("n", 1024)]);
        for a in &fp.arrays {
            // 1024 × 8 B / 64 B = 128 lines per array
            assert_eq!(a.lines_expr(64).eval_count(&b).unwrap(), 128, "{}", a.array);
            let extent = a.max_index.sub_expr(&a.min_index);
            assert_eq!(extent.eval_count(&b).unwrap(), 1023, "{}", a.array);
        }
        let a = fp.array("a").unwrap();
        assert!(a.stored && !a.loaded);
        assert!(fp.array("b").unwrap().loaded);
        assert_eq!(fp.total_lines_expr(64).eval_count(&b).unwrap(), 384);
    }

    #[test]
    fn non_multiple_of_line_rounds_up() {
        let fp = footprint(
            "void f(int n, double* a) { for (int i = 0; i < n; i++) { a[i] = 0.0; } }",
            "f",
        );
        // 100 elements = 800 bytes = 12.5 lines → 13 touched
        let b = bindings(&[("n", 100)]);
        assert_eq!(
            fp.array("a")
                .unwrap()
                .lines_expr(64)
                .eval_count(&b)
                .unwrap(),
            13
        );
    }

    #[test]
    fn row_major_matrix_is_dense() {
        let fp = footprint(
            "void mm(int n, double* a, double* b, double* c) {\n\
             for (int i = 0; i < n; i++) {\n\
               for (int k = 0; k < n; k++) {\n\
                 for (int j = 0; j < n; j++) {\n\
                   c[i * n + j] += a[i * n + k] * b[k * n + j];\n\
                 } } } }",
            "mm",
        );
        assert!(fp.is_exact(64), "{fp:?}");
        let b = bindings(&[("n", 24)]);
        for a in &fp.arrays {
            // 576 doubles = 4608 B = 72 lines each
            assert_eq!(a.lines_expr(64).eval_count(&b).unwrap(), 72, "{}", a.array);
        }
        let c = fp.array("c").unwrap();
        assert!(c.loaded && c.stored, "`+=` reads and writes c");
    }

    #[test]
    fn strided_access_within_line_stays_dense() {
        // stride 4 elements = 32 B < 64 B line: every line touched
        let fp = footprint(
            "void f(int n, double* a) { for (int i = 0; i < n; i += 4) { a[i] = 0.0; } }",
            "f",
        );
        let a = fp.array("a").unwrap();
        assert!(a.exact_for(64), "{fp:?}");
        let b = bindings(&[("n", 64)]);
        // last index 60 → bytes [0, 488) → 8 lines
        assert_eq!(a.lines_expr(64).eval_count(&b).unwrap(), 8);
    }

    #[test]
    fn wide_stride_flagged_inexact() {
        // stride 16 elements = 128 B: every other line skipped — range
        // formula over-counts, so it must not claim exactness
        let fp = footprint(
            "void f(int n, double* a) { for (int i = 0; i < n; i += 16) { a[i] = 0.0; } }",
            "f",
        );
        assert!(!fp.array("a").unwrap().exact_for(64));
        assert!(!fp.is_exact(64));
    }

    #[test]
    fn data_dependent_index_reported_unknown() {
        let fp = footprint(
            "void g(int n, int* cols, double* x, double* y) {\n\
             for (int i = 0; i < n; i++) { y[i] = x[cols[i]]; } }",
            "g",
        );
        assert!(fp.unknown.contains(&"x".to_string()), "{fp:?}");
        assert!(fp.array("y").unwrap().exact_for(64));
        assert!(fp.array("cols").unwrap().exact_for(64));
        assert!(!fp.is_exact(64));
    }

    #[test]
    fn offset_references_union() {
        let fp = footprint(
            "void f(int n, int* r) { for (int i = 0; i < n; i++) { r[i] = r[i + 1]; } }",
            "f",
        );
        let r = fp.array("r").unwrap();
        let b = bindings(&[("n", 8)]);
        // union [0, n-1] ∪ [1, n] = [0, n] → 9 elements → 2 lines
        assert_eq!(r.min_index.eval_count(&b).unwrap(), 0);
        assert_eq!(r.max_index.eval_count(&b).unwrap(), 8);
        assert_eq!(r.lines_expr(64).eval_count(&b).unwrap(), 2);
    }

    #[test]
    fn footprints_compose_through_calls() {
        let fp = footprint(
            "void kern(int m, double* p, double* q) {\n\
               for (int i = 0; i < m; i++) { q[i] = p[i]; } }\n\
             void driver(int n, double* x, double* y) {\n\
               kern(n, x, y);\n\
               kern(n, y, x);\n}",
            "driver",
        );
        assert!(fp.is_exact(64), "{fp:?}");
        let b = bindings(&[("n", 16)]);
        let x = fp.array("x").unwrap();
        assert!(x.loaded && x.stored);
        assert_eq!(x.lines_expr(64).eval_count(&b).unwrap(), 2);
        assert_eq!(fp.arrays.len(), 2);
    }

    #[test]
    fn unmappable_pointer_argument_surfaces_as_unknown() {
        // the pointer argument is an assignment expression, not a plain
        // variable — the callee's traffic cannot be attributed to a
        // caller array, but it must not vanish from the footprint
        let src = "void kern(int m, double* p) {\n\
                     for (int i = 0; i < m; i++) { p[i] = 0.0; } }\n\
                   void f(int n, double* x, double* y) {\n\
                     kern(n, x = y);\n}";
        let p = frontend(src);
        let Ok(p) = p else {
            return; // front-end rejects the form: nothing to defend
        };
        let fp = analyze_program(&p).footprint("f");
        assert!(
            !fp.unknown.is_empty() && !fp.is_exact(64),
            "unmapped callee traffic must be flagged: {fp:?}"
        );
    }

    #[test]
    fn mutated_local_index_is_poisoned() {
        let fp = footprint(
            "void f(int n, double* a) {\n\
               int w = 0;\n\
               for (int i = 0; i < n; i++) { a[w] = 0.0; w = w + 2; } }",
            "f",
        );
        assert!(fp.unknown.contains(&"a".to_string()), "{fp:?}");
    }

    #[test]
    fn mutated_value_param_index_is_poisoned() {
        // `n` is reassigned inside the loop — indexing through it is not
        // an affine access function, even though `n` starts as a param
        let fp = footprint(
            "void f(int n, double* a) {\n\
               while (n > 0) { a[n] = 0.0; n = n - 1; } }",
            "f",
        );
        assert!(fp.unknown.contains(&"a".to_string()), "{fp:?}");
        assert!(!fp.is_exact(64));
    }

    #[test]
    fn mutated_param_poisons_loop_bound_too() {
        // the mutation happens *after* the loop, but the bound is still
        // not a function parameter at modeling granularity
        let fp = footprint(
            "void f(int n, double* a) {\n\
               for (int i = 0; i < n; i++) { a[i] = 0.0; }\n\
               n = 0; }",
            "f",
        );
        assert!(fp.unknown.contains(&"a".to_string()), "{fp:?}");
    }

    #[test]
    fn guarded_reference_is_upper_bound_not_exact() {
        // only every 100th element is touched; the range is a valid
        // bound but must not claim dense coverage
        let fp = footprint(
            "void f(int n, double* a) {\n\
               for (int i = 0; i < n; i++) {\n\
                 if (i % 100 == 0) { a[i] = 0.0; } } }",
            "f",
        );
        let a = fp.array("a").unwrap();
        assert!(!a.exact_for(64), "{fp:?}");
        assert!(!fp.is_exact(64));
        let b = bindings(&[("n", 800)]);
        assert_eq!(
            a.lines_expr(64).eval_count(&b).unwrap(),
            100,
            "upper bound kept"
        );
    }

    #[test]
    fn disjoint_constant_ranges_not_dense() {
        let fp = footprint(
            "void f(double* a) {\n\
               for (int i = 0; i < 4; i++) { a[i] = 0.0; }\n\
               for (int j = 1000; j < 1004; j++) { a[j] = 0.0; } }",
            "f",
        );
        let a = fp.array("a").unwrap();
        assert!(!a.exact_for(64), "gap between 3 and 1000: {fp:?}");
        // touching/overlapping constant ranges stay dense
        let fp = footprint(
            "void g(double* a) {\n\
               for (int i = 0; i < 16; i++) { a[i] = 0.0; }\n\
               for (int j = 16; j < 32; j++) { a[j] = 0.0; } }",
            "g",
        );
        assert!(fp.array("a").unwrap().exact_for(64), "{fp:?}");
    }

    #[test]
    fn cumulative_annotation_bounds_csr_arrays() {
        // the CSR matvec pattern: k sweeps row_ptr[i]..row_ptr[i+1], which
        // across all rows covers [0, nnz) densely; the gather x[cols[k]]
        // is bounded by the vector length
        let fp = footprint(
            "void matvec(int n, int* row_ptr, int* cols, double* vals, double* x, double* y) {\n\
               for (int i = 0; i < n; i++) {\n\
                 double s = 0.0;\n\
             #pragma @Annotation {lp_iters: nnz_row_milli, lp_scale: 0.001, lp_cumulative: yes, idx_extent: n}\n\
                 for (int k = row_ptr[i]; k < row_ptr[i + 1]; k++) {\n\
                   s += vals[k] * x[cols[k]];\n\
                 }\n\
                 y[i] = s;\n\
               } }",
            "matvec",
        );
        assert!(
            fp.unknown.is_empty(),
            "annotations close every case: {fp:?}"
        );
        let b = bindings(&[("n", 216), ("nnz_row_milli", 6000)]);
        // vals and cols cover [0, n·6 - 1] densely — exact footprints
        for arr in ["vals", "cols"] {
            let a = fp.array(arr).unwrap();
            assert!(a.exact_for(64), "{arr}: {fp:?}");
            assert_eq!(a.max_index.eval_count(&b).unwrap(), 1295, "{arr}");
            // 1296 elements · 8 B / 64 B = 162 lines
            assert_eq!(a.lines_expr(64).eval_count(&b).unwrap(), 162, "{arr}");
        }
        // the gather target is bounded to [0, n-1] but never exact
        let x = fp.array("x").unwrap();
        assert!(!x.exact_for(64));
        assert_eq!(x.max_index.eval_count(&b).unwrap(), 215);
        assert_eq!(x.lines_expr(64).eval_count(&b).unwrap(), 27);
        // affine neighbours keep their exactness
        assert!(fp.array("row_ptr").unwrap().exact_for(64));
        assert!(fp.array("y").unwrap().exact_for(64));
        assert!(!fp.is_exact(64), "the bound on x is not dense coverage");
    }

    #[test]
    fn cumulative_prefix_restarts_under_an_outer_reps_loop() {
        // wrapping the annotated CSR nest in a benchmark-style reps loop
        // must not inflate the claimed-dense range: the prefix restarts
        // at row_ptr[0] on every repetition, so the union stays [0, n·t)
        let fp = footprint(
            "void bench(int n, int reps, int* row_ptr, int* cols, double* vals, double* x, double* y) {\n\
               for (int r = 0; r < reps; r++) {\n\
                 for (int i = 0; i < n; i++) {\n\
                   double s = 0.0;\n\
             #pragma @Annotation {lp_iters: nnz_row_milli, lp_scale: 0.001, lp_cumulative: yes, idx_extent: n}\n\
                   for (int k = row_ptr[i]; k < row_ptr[i + 1]; k++) {\n\
                     s += vals[k] * x[cols[k]];\n\
                   }\n\
                   y[i] = s;\n\
                 } } }",
            "bench",
        );
        let b = bindings(&[("n", 216), ("reps", 5), ("nnz_row_milli", 6000)]);
        for arr in ["vals", "cols"] {
            let a = fp.array(arr).unwrap();
            assert_eq!(
                a.max_index.eval_count(&b).unwrap(),
                1295,
                "{arr}: reps must not scale the prefix"
            );
            assert!(a.exact_for(64), "{arr}: {fp:?}");
        }
    }

    #[test]
    fn idx_extent_without_cumulative_still_bounds_gathers() {
        // a histogram update: the write target is data-dependent but
        // bounded; the loop itself is affine
        let fp = footprint(
            "void hist(int n, int bins, int* idx, double* h) {\n\
             #pragma @Annotation {idx_extent: bins}\n\
               for (int i = 0; i < n; i++) { h[idx[i]] = h[idx[i]] + 1.0; } }",
            "hist",
        );
        assert!(fp.unknown.is_empty(), "{fp:?}");
        let h = fp.array("h").unwrap();
        assert!(h.loaded && h.stored);
        assert!(!h.exact_for(64), "upper bound only");
        let b = bindings(&[("n", 100), ("bins", 64)]);
        assert_eq!(h.max_index.eval_count(&b).unwrap(), 63);
        assert_eq!(h.lines_expr(64).eval_count(&b).unwrap(), 8);
        assert!(fp.array("idx").unwrap().exact_for(64));
    }

    #[test]
    fn unannotated_csr_still_unknown() {
        // without the annotation nothing changes: data-dependent loops
        // and gathers stay unknown rather than silently estimated
        let fp = footprint(
            "void matvec(int n, int* row_ptr, int* cols, double* vals, double* x, double* y) {\n\
               for (int i = 0; i < n; i++) {\n\
                 double s = 0.0;\n\
                 for (int k = row_ptr[i]; k < row_ptr[i + 1]; k++) {\n\
                   s += vals[k] * x[cols[k]];\n\
                 }\n\
                 y[i] = s;\n\
               } }",
            "matvec",
        );
        for arr in ["vals", "cols", "x"] {
            assert!(fp.unknown.contains(&arr.to_string()), "{arr}: {fp:?}");
        }
    }

    /// `f0` calls `f1`, … calls `f{depth}`, passing `b` down; only the
    /// last one touches memory, storing `b[0..n)`.
    fn call_chain(depth: usize) -> String {
        let mut src = format!(
            "void f{depth}(int n, double* b) {{ for (int i = 0; i < n; i++) {{ b[i] = 1.0; }} }}\n"
        );
        for k in (0..depth).rev() {
            src.push_str(&format!(
                "void f{k}(int n, double* b) {{ f{}(n, b); }}\n",
                k + 1
            ));
        }
        src
    }

    #[test]
    fn callees_past_the_composition_depth_are_unknown_not_empty() {
        // 32 calls deep, the store composes into the caller's footprint
        let fp = footprint(&call_chain(32), "f0");
        assert!(fp.is_exact(64), "{fp:?}");
        assert!(fp.array("b").is_some_and(|b| b.stored), "{fp:?}");
        // one call deeper, composition stops: the array it reaches is
        // unknown, never an empty footprint claimed exact
        let fp = footprint(&call_chain(33), "f0");
        assert!(!fp.is_exact(64), "{fp:?}");
        assert_eq!(fp.unknown, ["b"]);
    }

    // ---- per-nest working-set model ----

    fn nest(src: &str, func: &str) -> NestModel {
        let p = frontend(src).expect("parses");
        analyze_program(&p)
            .nest_model(func, 64)
            .expect("nest model builds")
    }

    /// Nest traffic at `cap_bytes`, over a header staged at `b` as a
    /// placement stages it.
    fn traffic(nm: &NestModel, cap_bytes: u64, b: &Bindings) -> BoundaryTraffic {
        let mut t = AtomTable::new();
        let mut h = NestHeader::default();
        nm.stage(&mut h, b, &mut t).unwrap();
        nm.boundary_traffic(cap_bytes, &h, b, &mut t).unwrap()
    }

    const MM_SRC: &str = "void mm(int n, int reps, double* a, double* b, double* c) {\n\
         for (int r = 0; r < reps; r++) {\n\
           for (int i = 0; i < n; i++) {\n\
             for (int k = 0; k < n; k++) {\n\
               for (int j = 0; j < n; j++) {\n\
                 c[i * n + j] += a[i * n + k] * b[k * n + j];\n\
               } } } } }";

    #[test]
    fn dgemm_per_nest_working_sets() {
        let nm = nest(MM_SRC, "mm");
        assert!(nm.exact(), "{nm:?}");
        assert_eq!(nm.nodes.len(), 4, "r, i, k, j");
        let b = bindings(&[("n", 40), ("reps", 1)]);
        // one r iteration touches everything: 3 × 200 lines
        assert_eq!(nm.nodes[0].ws_lines.eval_count(&b).unwrap(), 600);
        // one i iteration: a row (5) + c row (5) + all of b (200)
        assert_eq!(nm.nodes[1].ws_lines.eval_count(&b).unwrap(), 210);
        // one k iteration: c row + b row + one a element's line
        assert_eq!(nm.nodes[2].ws_lines.eval_count(&b).unwrap(), 11);
        // one j iteration: three lines
        assert_eq!(nm.nodes[3].ws_lines.eval_count(&b).unwrap(), 3);
        assert_eq!(nm.nodes[1].extent.eval_count(&b).unwrap(), 40);
    }

    #[test]
    fn dgemm_n40_boundary_traffic_is_compulsory_at_l1_capacity() {
        // the ROADMAP case: the whole 38400-byte footprint exceeds a
        // 32 KiB L1, but the per-i working set (two rows + all of b)
        // fits — every array moves compulsory lines only
        let nm = nest(MM_SRC, "mm");
        let b = bindings(&[("n", 40), ("reps", 1)]);
        let t = traffic(&nm, 32 * 1024, &b);
        assert_eq!(t.fill_lines, 600, "compulsory fills only");
        assert_eq!(t.writeback_lines, 200, "c written back once");
        // a 1 KiB cache captures only the k-level working set: b is
        // re-swept once per i iteration (n × 200 lines), a and c stay
        // compulsory (their rows stream monotonically)
        let t = traffic(&nm, 1024, &b);
        assert_eq!(t.fill_lines, 200 + 200 + 40 * 200);
        assert_eq!(t.writeback_lines, 200);
    }

    #[test]
    fn repetition_loop_multiplies_uncaptured_traffic() {
        let nm = nest(
            "void triad(int n, int reps, double* a, double* b, double* c, double s) {\n\
               for (int r = 0; r < reps; r++) {\n\
                 for (int i = 0; i < n; i++) {\n\
                   a[i] = b[i] + s * c[i];\n\
                 } } }",
            "triad",
        );
        assert!(nm.exact());
        let b = bindings(&[("n", 20000), ("reps", 2)]);
        // 3 × 2500 lines per sweep; the per-rep working set exceeds the
        // cap, so each rep re-fills every array and re-evicts a dirty
        let t = traffic(&nm, 256 * 1024, &b);
        assert_eq!(t.fill_lines, 3 * 2500 * 2);
        assert_eq!(t.writeback_lines, 2500 * 2);
        // a cache that holds the whole 480000-byte footprint captures
        // the rep-carried reuse: compulsory only
        let t = traffic(&nm, 1 << 20, &b);
        assert_eq!(t.fill_lines, 3 * 2500);
        assert_eq!(t.writeback_lines, 2500);
    }

    #[test]
    fn stencil_offsets_sum_when_uncaptured() {
        // a 5-point-style row stencil: the three row-offset reads of u
        // are reuse carried by the i loop (offset n = i's coefficient);
        // once three rows no longer fit, each offset re-fills its range
        let src = "void relax(int n, double* u, double* out) {\n\
             for (int i = 1; i < n - 1; i++) {\n\
               for (int j = 0; j < n; j++) {\n\
                 out[i * n + j] = u[(i - 1) * n + j] + u[i * n + j] + u[(i + 1) * n + j];\n\
               } } }";
        let nm = nest(src, "relax");
        let group = |array: &str| {
            let gi = nm.shape.groups.iter().position(|g| g.array == array);
            gi.map(|gi| (&nm.shape.groups[gi], &nm.forms[gi]))
                .expect("grouped")
        };
        let ((gu, fu), (go, fo)) = (group("u"), group("out"));
        assert_eq!(gu.union_capture_level, 1, "carried by the i loop");
        assert_eq!(go.union_capture_level, usize::MAX, "single access");
        let b = bindings(&[("n", 64)]);
        let union_lines = fu[0].eval_count(&b).unwrap();
        let sum_lines = fu[2].eval_count(&b).unwrap();
        let out_lines = fo[0].eval_count(&b).unwrap();
        assert!(sum_lines > union_lines, "{sum_lines} vs {union_lines}");
        // captured (one i iteration = 4 rows = 32 lines fit): union
        let t = traffic(&nm, 8 * 1024, &b);
        assert_eq!(t.fill_lines, union_lines + out_lines);
        assert_eq!(t.writeback_lines, out_lines);
        // uncaptured (rows no longer fit): the three offsets re-fill
        let t = traffic(&nm, 1024, &b);
        assert_eq!(t.fill_lines, sum_lines + out_lines);
    }

    #[test]
    fn nest_model_refuses_unattributable_traffic() {
        // guarded reference
        let p = frontend(
            "void f(int n, double* a) {\n\
               for (int i = 0; i < n; i++) { if (i % 2 == 0) { a[i] = 0.0; } } }",
        )
        .unwrap();
        assert!(analyze_program(&p).nest_model("f", 64).is_none());
        // unbounded data-dependent index
        let p = frontend(
            "void g(int n, int* cols, double* x, double* y) {\n\
               for (int i = 0; i < n; i++) { y[i] = x[cols[i]]; } }",
        )
        .unwrap();
        assert!(analyze_program(&p).nest_model("g", 64).is_none());
        // guarded call: the callee's repetition count is unknown
        let p = frontend(
            "void kern(int m, double* p) { for (int i = 0; i < m; i++) { p[i] = 0.0; } }\n\
             void f(int n, double* x) { if (n > 1) { kern(n, x); } }",
        )
        .unwrap();
        let am = analyze_program(&p);
        assert!(am.nest_model("f", 64).is_none());
        assert!(am.nest_model("kern", 64).is_some(), "the leaf still models");
    }

    #[test]
    fn composed_callee_nests_splice_into_caller() {
        // the callee's loop forest inlines under the call site with
        // formal→actual substitution: f places per-nest like inlined code
        let p = frontend(
            "void kern(int m, double* p) { for (int i = 0; i < m; i++) { p[i] = 0.0; } }\n\
             void f(int n, double* x) { kern(n, x); }",
        )
        .unwrap();
        let am = analyze_program(&p);
        let nm = am.nest_model("f", 64).expect("composed callee splices");
        assert_eq!(nm.nodes.len(), 1);
        let b = bindings(&[("n", 64)]);
        assert_eq!(nm.nodes[0].extent.eval_count(&b).unwrap(), 64);
        let g = &nm.shape.groups[0];
        assert_eq!(g.array, "x", "formal p maps to actual x");
        let t = traffic(&nm, 64, &b);
        assert_eq!(t.fill_lines, 8);
        assert_eq!(t.writeback_lines, 8);
        // a repetition loop around the call multiplies uncaptured traffic
        let p = frontend(
            "void kern(int m, double* p) { for (int i = 0; i < m; i++) { p[i] = p[i] + 1.0; } }\n\
             void f(int n, int reps, double* x) {\n\
               for (int r = 0; r < reps; r++) { kern(n, x); } }",
        )
        .unwrap();
        let am = analyze_program(&p);
        let nm = am.nest_model("f", 64).expect("call under a loop splices");
        let b = bindings(&[("n", 512), ("reps", 10)]);
        // 512 doubles = 64 lines; captured: compulsory once
        let t = traffic(&nm, 8 * 1024, &b);
        assert_eq!(t.fill_lines, 64);
        assert_eq!(t.writeback_lines, 64);
        // uncaptured: every rep re-fills and re-dirties the sweep
        let t = traffic(&nm, 1024, &b);
        assert_eq!(t.fill_lines, 640);
        assert_eq!(t.writeback_lines, 640);
    }

    #[test]
    fn triangular_extents_average_exactly() {
        // the inner trip count varies with i: the model admits it with
        // the closed-form average extent (n-1)/2, so the uncaptured
        // multipliers recover the exact total n·(n-1)/2 sweep count
        let p = frontend(
            "void f(int n, double* a) {\n\
               for (int i = 0; i < n; i++) {\n\
                 for (int r = 0; r < i; r++) {\n\
                   for (int j = 0; j < n; j++) { a[j] = a[j] + 1.0; } } } }",
        )
        .unwrap();
        let nm = analyze_program(&p)
            .nest_model("f", 64)
            .expect("triangular repetition admits");
        let b = bindings(&[("n", 64)]);
        let avg = nm.nodes[1].extent.eval(&b).unwrap();
        assert_eq!(avg, Rat::new(63, 2), "average of 0..=63");
        // captured at 8 KiB (a = 8 lines fits): compulsory only
        let t = traffic(&nm, 8 * 1024, &b);
        assert_eq!(t.fill_lines, 8);
        assert_eq!(t.writeback_lines, 8);
        // nothing fits: each of the n·(n-1)/2 = 2016 sweeps re-fills
        let t = traffic(&nm, 64, &b);
        assert_eq!(t.fill_lines, 2016 * 8);
        assert_eq!(t.writeback_lines, 2016 * 8);
        // tiled bounds cancel to a constant extent and stay modelable
        let p = frontend(
            "void g(int n, double* a) {\n\
               for (int ii = 0; ii < n; ii += 8) {\n\
                 for (int i = ii; i < ii + 8; i++) { a[i] = 0.0; } } }",
        )
        .unwrap();
        assert!(analyze_program(&p).nest_model("g", 64).is_some());
        // a second triangular loop over the *same* ancestor still
        // refuses: products of two averages stop being exact
        let p = frontend(
            "void h(int n, double* a) {\n\
               for (int i = 0; i < n; i++) {\n\
                 for (int r = 0; r < i; r++) { a[0] = 1.0; }\n\
                 for (int s = 0; s < i; s++) { a[1] = 1.0; } } }",
        )
        .unwrap();
        assert!(analyze_program(&p).nest_model("h", 64).is_none());
    }

    /// A triangular child consumes its ancestor, and every ladder under
    /// that ancestor pins it at its last iteration, where the child
    /// sweeps widest. One row of a forward solve at `n = 64` holds
    /// `l[63·64 .. 63·64+62]` (8 lines) and `l[63·64+63]` (1), `x[0..62]`
    /// (8) and `x[63]` (1), and `b[63]` (1): 19 lines. Pinned at its
    /// first row instead, the row would hold 3.
    #[test]
    fn a_consumed_ancestor_pins_the_working_set_at_its_last_row() {
        let p = frontend(
            "void trisolve(int n, double* l, double* b, double* x) {\n\
               for (int i = 0; i < n; i++) {\n\
                 double s = b[i];\n\
                 for (int j = 0; j < i; j++) { s = s - l[i * n + j] * x[j]; }\n\
                 x[i] = s / l[i * n + i]; } }",
        )
        .unwrap();
        let nm = analyze_program(&p).nest_model("trisolve", 64).unwrap();
        let b = bindings(&[("n", 64)]);
        assert_eq!(nm.nodes[1].extent.eval(&b).unwrap(), Rat::new(63, 2));
        assert_eq!(nm.nodes[0].ws_lines.eval(&b).unwrap(), Rat::int(19));
    }

    #[test]
    fn straight_line_references_count_once() {
        let nm = nest(
            "void edge(int n, double* a) { a[0] = 1.0; a[n - 1] = 2.0; }",
            "edge",
        );
        let b = bindings(&[("n", 1024)]);
        let t = traffic(&nm, 64, &b);
        assert_eq!(t.fill_lines, 2);
        assert_eq!(t.writeback_lines, 2);
    }

    /// A 16-deep nest around `a[index]`, each loop's bound given by
    /// `bound(level)`.
    fn deep_nest(bound: impl Fn(usize) -> String, index: &str) -> String {
        let mut src = String::from("void f(int n, double* a) {\n");
        for k in 0..16 {
            src.push_str(&format!(
                "for (int i{k} = 0; i{k} < {}; i{k}++) {{\n",
                bound(k)
            ));
        }
        src.push_str(&format!("a[{index}] = 1.0;\n"));
        src.push_str(&"}\n".repeat(17));
        src
    }

    #[test]
    fn dense_coverage_search_is_bounded_on_deep_nests() {
        // every stride is `n`, never a constant: no order can chain, and
        // checking each prefix as it is placed says so at the first loop
        // (all 16! orders were built before any was checked)
        let every: Vec<String> = (0..16).map(|k| format!("i{k} * n")).collect();
        let fp = footprint(&deep_nest(|_| "n".into(), &every.join(" + ")), "f");
        assert!(fp.unknown.is_empty(), "{:?}", fp.unknown);
        assert_eq!(fp.array("a").unwrap().stride_bytes, None);
        // fifteen equal unit-stride, unit-extent loops and one stride-2
        // loop: no order chains, and the ties are tried once per position
        // instead of in every arrangement
        let mut ties: Vec<String> = (0..15).map(|k| format!("i{k}")).collect();
        ties.push("2 * i15".into());
        let bound = |k: usize| if k < 15 { "1".into() } else { "n".into() };
        let fp = footprint(&deep_nest(bound, &ties.join(" + ")), "f");
        assert!(fp.unknown.is_empty(), "{:?}", fp.unknown);
        assert_eq!(fp.array("a").unwrap().stride_bytes, None);
        // and a chain found behind the ties is the one the full search
        // found first: stride 1 after fifteen unit extents
        let fp = footprint(&deep_nest(bound, &ties[..15].join(" + ")), "f");
        assert_eq!(fp.array("a").unwrap().stride_bytes, Some(8));
    }

    /// A caller `depth` loops deep passing the sum of its loop variables
    /// to a callee whose one loop makes `refs` references `a[m + j + r]`:
    /// every spliced reference's ladder spans `depth + 1` loops, with an
    /// index of `depth + 1` terms.
    fn spliced_under(depth: usize, refs: usize) -> String {
        let mut src = String::from("void g(int n, int m, double* a) {\n");
        src.push_str("for (int j = 0; j < n; j++) {\n");
        for r in 0..refs {
            src.push_str(&format!("a[m + j + {r}] = 1.0;\n"));
        }
        src.push_str("}\n}\nvoid f(int n, double* a) {\n");
        for k in 0..depth {
            src.push_str(&format!("for (int i{k} = 0; i{k} < n; i{k}++) {{\n"));
        }
        let sum: Vec<String> = (0..depth).map(|k| format!("i{k}")).collect();
        src.push_str(&format!("g(n, {}, a);\n", sum.join(" + ")));
        src.push_str(&"}\n".repeat(depth + 1));
        src
    }

    /// Does `f`'s nest model refuse on budget? Its access analysis must
    /// not: the walker never sees the spliced references.
    fn nest_refuses_on_budget(src: &str) -> bool {
        let program = frontend(src).unwrap();
        let (m, walked) = mira_probe::capture(|| analyze_program(&program));
        assert_eq!(walked.counter("mem.func_refusals"), None);
        let (built, trace) = mira_probe::capture(|| m.nest_model("f", 64));
        let refused = trace.counter("mem.nest_refusals").is_some();
        assert_eq!(built.is_none(), refused);
        refused
    }

    /// Where deep splicing first runs the nest model out of fuel. Its
    /// work grows with depth: each spliced reference's ladder sweeps
    /// each loop once and pins the outer ones per entry. Four
    /// references first refuse at depth 49, one builds up to depth 64.
    #[test]
    fn spliced_ladders_refuse_on_budget_from_depth_49() {
        // deep sources recurse deeply in a debug build's parser
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(|| {
                assert!(!nest_refuses_on_budget(&spliced_under(48, 4)));
                assert!(nest_refuses_on_budget(&spliced_under(49, 4)));
                assert!(!nest_refuses_on_budget(&spliced_under(64, 1)));
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn exactness_is_line_size_aware() {
        // stride 8 elements = 64 B: dense at 64-byte lines, gapped at 32
        let fp = footprint(
            "void f(int n, double* a) { for (int i = 0; i < n; i += 8) { a[i] = 0.0; } }",
            "f",
        );
        let a = fp.array("a").unwrap();
        assert_eq!(a.stride_bytes, Some(64));
        assert!(a.exact_for(64));
        assert!(!a.exact_for(32));
        // line sizes above the allocator's 64-byte alignment are never
        // claimed exact (base alignment can no longer be assumed)
        assert!(!a.exact_for(128));
    }
}
