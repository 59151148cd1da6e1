//! # mira-roofline — symbolic roofline bounds from the static byte/FLOP models
//!
//! Mira's end goal (paper §IV-D) is not counting instructions: it is
//! using statically derived arithmetic intensity to place a kernel on a
//! roofline and explain what bounds it. This crate is the consumer of
//! everything the byte models built — it combines
//!
//! * the closed-form FLOP and *data* byte expressions of
//!   [`mira_model::Model`] (frame/spill traffic excluded — it is a
//!   register-allocation artifact, not memory-wall pressure),
//! * the distinct-cache-line footprints of [`mira_mem::access`], and
//! * the machine's `[peak]`/`[bandwidth *]` sections from `mira-arch`
//!
//! into per-function **time bounds in cycles**: one
//! compute ceiling (`FLOPs / peak`) against one memory ceiling per
//! hierarchy boundary (`traffic / bandwidth`). The largest bound is the
//! **binding ceiling**; a kernel is *memory-bound* when any memory
//! ceiling is at least the compute ceiling, and the level that binds
//! names the roof it sits under.
//!
//! Per-level traffic is modeled piecewise with a reuse-distance
//! refinement. When the kernel's whole distinct-line footprint fits in
//! the level above, only compulsory traffic crosses the boundary (cold
//! fills of every touched line, plus the eventual write-back of every
//! stored line). When it does not, the per-nest working-set model
//! ([`mira_mem::NestModel`]) places each array's traffic at the
//! shallowest level whose capacity holds the relevant working set:
//! inner-loop reuse hits L1, loop-carried reuse hits the level that
//! holds the carried set, and only genuinely uncaptured re-sweeps
//! multiply the compulsory lines — so a blocked kernel whose footprint
//! slightly exceeds a level (DGEMM at n=40) still counts
//! compulsory-only traffic, exactly what the cache simulator observes.
//! The nest model composes across calls (callee nests splice under the
//! call site with formal→actual substitution), admits triangular trip
//! counts via exact average extents, and bounds `idx_extent`-annotated
//! gathers — so a composed solver like miniFE's `cg_solve` places
//! per-nest like inlined code. Kernels whose traffic still cannot be
//! attributed (guarded references or calls, unanalyzable loops) fall
//! back to the old binary sweep — every loaded byte crosses once and
//! every stored byte twice (write-allocate fill plus write-back), which
//! for unit-stride streaming kernels coincides with the working-set
//! count.
//!
//! ## One placement loop, ceilings applied last
//!
//! The regime choice above lives in one function, [`place_with`],
//! generic over an evaluator of six machine-independent quantities
//! ([`PlacementForms`]): FLOPs, footprint lines, data bytes, resident
//! lines, streaming bytes and nest traffic at a given capacity. The
//! machine enters only at the end, as one exact checked product per
//! ceiling ([`CeilingFactors`]) before the single `to_f64`. The tree walk
//! ([`KernelRoofline::place`]) and `mira-serve`'s compiled evaluator run
//! this same loop, so they agree on values and on where they refuse by
//! construction — and because nothing before the ceilings depends on
//! more of the machine than its [`AnalysisKey`], one analysis (and one
//! compiled program) serves every machine that shares the key.
//!
//! Because the bounds are [`SymExpr`] closed forms, regime questions are
//! *solvable*: [`KernelRoofline::crossover`] finds the exact parameter
//! value at which the binding ceiling changes — e.g. the `n` where DGEMM
//! leaves the DRAM roof because its `O(n²)` compulsory traffic is
//! overtaken by `O(n³)` compute — and
//! [`KernelRoofline::crossover_sweep`] is the brute-force oracle the
//! tests pin it against.
//!
//! ## Budgets and refusal
//!
//! [`KernelRoofline::analyze`] and [`KernelRoofline::place`] run their
//! symbolic work under an analysis budget ([`mira_sym::budget`]). A
//! tripped budget (fuel exhausted, recursion too deep, coefficient
//! overflow) surfaces as a typed refusal —
//! [`mira_sym::EvalError::Budget`] wrapped in the normal error path —
//! rather than a panic or a hang, and concrete evaluation of the
//! closed forms is checked against signed 64-bit range, so
//! adversarially huge parameters refuse instead of wrapping. Missing
//! nest models (including budget-refused ones from `mira-mem`) degrade
//! to the conservative streaming sweep, keeping every answer a sound
//! upper bound on traffic.
//!
//! The dynamic counterpart, [`dynamic_placement`], feeds the cache
//! simulator's per-level fill *and write-back* counters
//! ([`MemStats::beyond_l1_bytes`]/[`MemStats::beyond_l2_bytes`]) through
//! the same ceilings, so static and simulated placements can be diffed —
//! `mira_workloads::roofval` and `bench_roofline` pin their agreement on
//! STREAM, DGEMM and miniFE.

use mira_arch::{ArchDescription, Category};
use mira_core::Analysis;
use mira_mem::{BoundaryTraffic, MemStats};
use mira_model::ModelError;
use mira_sym::{Bindings, EvalError, Rat, SymExpr};
use std::fmt;

/// One memory-hierarchy boundary a roofline ceiling caps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MemLevel {
    /// Core ↔ L1 load/store bandwidth.
    L1,
    /// L1 ↔ L2 fill/write-back path.
    L2,
    /// L2 ↔ memory path.
    Dram,
}

impl MemLevel {
    pub const ALL: [MemLevel; 3] = [MemLevel::L1, MemLevel::L2, MemLevel::Dram];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            MemLevel::L1 => "l1",
            MemLevel::L2 => "l2",
            MemLevel::Dram => "dram",
        }
    }
}

/// A roofline ceiling: the compute roof or one memory roof.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Ceiling {
    Compute,
    Mem(MemLevel),
}

impl Ceiling {
    pub fn name(self) -> &'static str {
        match self {
            Ceiling::Compute => "compute",
            Ceiling::Mem(l) => l.name(),
        }
    }

    /// Parse the canonical [`Ceiling::name`] form back (for trajectory
    /// files).
    pub fn from_name(s: &str) -> Option<Ceiling> {
        match s {
            "compute" => Some(Ceiling::Compute),
            "l1" => Some(Ceiling::Mem(MemLevel::L1)),
            "l2" => Some(Ceiling::Mem(MemLevel::L2)),
            "dram" => Some(Ceiling::Mem(MemLevel::Dram)),
            _ => None,
        }
    }
}

impl fmt::Display for Ceiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A kernel placed against the ceilings: one lower time bound per roof,
/// in cycles, and which roof binds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Placement {
    pub compute_cycles: f64,
    /// Indexed by [`MemLevel::index`].
    pub mem_cycles: [f64; 3],
    pub binding: Ceiling,
}

impl Placement {
    /// Build a placement from the four bounds, picking the binding roof
    /// deterministically: among the memory levels the *deepest* one with
    /// the maximal bound wins (a tie means the kernel saturates both
    /// boundaries — the slower, farther level is the honest answer), and
    /// the compute roof binds only when it strictly exceeds every memory
    /// bound (a tie there is still a memory wall).
    pub fn classify(compute_cycles: f64, mem_cycles: [f64; 3]) -> Placement {
        let mut binding = Ceiling::Mem(MemLevel::L1);
        let mut best = mem_cycles[0];
        for level in [MemLevel::L2, MemLevel::Dram] {
            if mem_cycles[level.index()] >= best {
                best = mem_cycles[level.index()];
                binding = Ceiling::Mem(level);
            }
        }
        if compute_cycles > best {
            binding = Ceiling::Compute;
        }
        Placement {
            compute_cycles,
            mem_cycles,
            binding,
        }
    }

    /// The overall lower time bound: the binding ceiling's cycles.
    pub fn cycles(&self) -> f64 {
        self.compute_cycles
            .max(self.mem_cycles[0])
            .max(self.mem_cycles[1])
            .max(self.mem_cycles[2])
    }

    pub fn memory_bound(&self) -> bool {
        matches!(self.binding, Ceiling::Mem(_))
    }

    /// Same bound class (compute- vs memory-bound) *and* same binding
    /// roof — the agreement predicate between static and simulated
    /// placements.
    pub fn agrees_with(&self, other: &Placement) -> bool {
        self.binding == other.binding
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bound under the {} roof (compute {:.0} | l1 {:.0} | l2 {:.0} | dram {:.0} cycles)",
            if self.memory_bound() { "memory" } else { "compute" },
            self.binding,
            self.compute_cycles,
            self.mem_cycles[0],
            self.mem_cycles[1],
            self.mem_cycles[2],
        )
    }
}

/// The machine side of the roofline, pulled out of an architecture
/// description: peak FLOP rates, per-boundary bandwidths, capacities.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Ceilings {
    /// Peak scalar / packed FLOPs per cycle.
    pub peak_scalar: u32,
    pub peak_vector: u32,
    /// Bytes per cycle per boundary, indexed by [`MemLevel::index`].
    pub bandwidth: [u32; 3],
    /// Capacity of the level *above* each boundary: crossing traffic is
    /// compulsory-only when the footprint fits there. `None` for L1 —
    /// every access crosses the core↔L1 boundary regardless.
    pub capacity_above: [Option<u64>; 3],
    pub line_bytes: u32,
}

impl Ceilings {
    pub fn from_arch(arch: &ArchDescription) -> Ceilings {
        let m = &arch.machine;
        Ceilings {
            peak_scalar: m.peak.scalar_flops_per_cycle(),
            peak_vector: m.peak.vector_flops_per_cycle(m.fp_lanes_per_vector),
            bandwidth: [m.bandwidth.l1, m.bandwidth.l2, m.bandwidth.dram],
            capacity_above: [
                None,
                Some(m.l1.size_bytes as u64),
                Some(m.l2.size_bytes as u64),
            ],
            line_bytes: m.cache_line_bytes,
        }
    }

    /// Peak FLOPs/cycle for a kernel, by whether it retires packed
    /// arithmetic.
    pub fn peak(&self, vectorized: bool) -> u32 {
        if vectorized {
            self.peak_vector
        } else {
            self.peak_scalar
        }
    }
}

/// [`Ceilings`] prepared for the placement loop: the exact factor each
/// ceiling multiplies a machine-independent quantity by — cycles per
/// FLOP (`1/peak`), per data byte (`1/bandwidth`) and per cache line
/// (`line/bandwidth`). Reduced once per machine, so a placement spends
/// no time building fractions.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CeilingFactors {
    ceilings: Ceilings,
    /// Indexed by `vectorized as usize`.
    per_flop: [Rat; 2],
    /// Indexed by [`MemLevel::index`].
    per_byte: [Rat; 3],
    per_line: [Rat; 3],
}

impl CeilingFactors {
    pub fn new(c: &Ceilings) -> CeilingFactors {
        let bw = c.bandwidth.map(|b| b as i128);
        CeilingFactors {
            ceilings: *c,
            per_flop: [c.peak(false), c.peak(true)].map(|p| Rat::new(1, p as i128)),
            per_byte: bw.map(|b| Rat::new(1, b)),
            per_line: bw.map(|b| Rat::new(c.line_bytes as i128, b)),
        }
    }

    pub fn ceilings(&self) -> &Ceilings {
        &self.ceilings
    }
}

/// The static roofline model of one function: closed-form FLOPs, data
/// bytes and footprints, ready to be placed at any parameter binding.
#[derive(Clone, Debug)]
pub struct KernelRoofline {
    pub func: String,
    /// Packed-aware FLOPs per call.
    pub flops: SymExpr,
    /// Heap-data bytes per call (frame/spill traffic excluded).
    pub data_load_bytes: SymExpr,
    pub data_store_bytes: SymExpr,
    /// Distinct cache lines touched (all analyzed arrays).
    pub footprint_lines: SymExpr,
    /// Distinct lines of *stored* arrays — each eventually crosses every
    /// boundary again as a write-back.
    pub stored_lines: SymExpr,
    /// Every array was analyzable (annotations included): the footprint
    /// is a true total, not a lower bound over the analyzed subset.
    pub footprint_known: bool,
    /// The kernel retires packed FP arithmetic, so the vector peak is its
    /// compute ceiling.
    pub vectorized: bool,
    /// The per-nest working-set traffic model (reuse-distance
    /// refinement): present when every reference lives in an affine nest
    /// of the function's own body. `None` falls back to the
    /// whole-footprint fits-or-streams regime choice.
    pub nest_model: Option<mira_mem::NestModel>,
}

/// Where one parameter value sits relative to a regime change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Crossover {
    /// Smallest parameter value (in the searched window) whose binding
    /// ceiling differs from the window's start.
    pub value: i128,
    pub from: Ceiling,
    pub to: Ceiling,
}

/// What [`KernelRoofline::analyze`] reads of a machine description, and
/// all it reads: the cache line size (footprints, working sets and the
/// nest model count lines) and the `[metric fpi]` categories (packed-FLOP
/// detection). Bandwidths, peaks, capacities, vector widths and the name
/// are ceilings, applied only at placement time, so descriptions with
/// equal keys analyze every kernel to identical closed forms and one
/// analysis places correctly under any of their [`Ceilings`]. A serving
/// fleet shares compiled programs by this key (`mira-serve`'s fleet
/// tests pin that analysis reads nothing else).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AnalysisKey {
    pub line_bytes: u32,
    pub fpi: Vec<Category>,
}

impl AnalysisKey {
    pub fn of(arch: &ArchDescription) -> AnalysisKey {
        AnalysisKey {
            line_bytes: arch.machine.cache_line_bytes,
            fpi: arch.fpi().to_vec(),
        }
    }
}

impl KernelRoofline {
    /// Build the static roofline model of `func` from an analysis.
    ///
    /// Runs under a [`mira_sym::budget`] scope: if combining the model's
    /// closed forms trips the analysis budget, the kernel is refused with
    /// a typed error instead of hanging. (The access analysis — of
    /// `func` and its callees only, [`mira_mem::analyze_closure`] — and
    /// the nest model inside are separately budgeted and degrade on their
    /// own.)
    pub fn analyze(analysis: &Analysis, func: &str) -> Result<KernelRoofline, ModelError> {
        let mut sp = mira_probe::span("roofline.analyze", "roofline");
        sp.arg("func", func);
        match mira_sym::budget::with_default_budget(|| Self::analyze_inner(analysis, func)) {
            Ok(r) => r,
            Err(e) => {
                sp.arg("refused", "budget");
                Err(ModelError::Eval(EvalError::Budget(e)))
            }
        }
    }

    fn analyze_inner(analysis: &Analysis, func: &str) -> Result<KernelRoofline, ModelError> {
        let model = &analysis.model;
        let flops = model.flops_expr(func)?;
        // packed arithmetic retires more FLOPs than FP instructions; for
        // scalar code the two closed forms coincide
        let fpi = model.fpi_expr(func, &analysis.arch)?;
        let vectorized = !flops.sub_expr(&fpi).is_zero();
        let access = mira_mem::analyze_closure(&analysis.program, func);
        let fp = access.footprint(func);
        let line = analysis.arch.machine.cache_line_bytes;
        let mut stored = SymExpr::zero();
        for a in &fp.arrays {
            if a.stored {
                stored = stored.add_expr(&a.lines_expr(line));
            }
        }
        Ok(KernelRoofline {
            func: func.to_string(),
            flops,
            data_load_bytes: model.data_load_bytes_expr(func)?,
            data_store_bytes: model.data_store_bytes_expr(func)?,
            footprint_lines: fp.total_lines_expr(line),
            stored_lines: stored,
            footprint_known: fp.unknown.is_empty(),
            vectorized,
            nest_model: access.nest_model(func, line),
        })
    }

    /// Total data bytes per call, as a closed form.
    pub fn data_bytes(&self) -> SymExpr {
        self.data_load_bytes.add_expr(&self.data_store_bytes)
    }

    /// Compulsory lines per call, as a closed form: one cold fill per
    /// touched line plus one eventual write-back per stored line — the
    /// traffic of a boundary whose upper level holds the whole footprint.
    pub fn resident_lines(&self) -> SymExpr {
        self.footprint_lines.add_expr(&self.stored_lines)
    }

    /// Streaming-sweep bytes per call, as a closed form: every loaded
    /// byte crosses once (its fill) and every stored byte twice — the
    /// write-allocate fill on the way in and the dirty write-back on the
    /// way out, exactly what the simulator's fill + write-back counters
    /// observe for unit-stride streams.
    pub fn streaming_bytes(&self) -> SymExpr {
        self.data_load_bytes
            .add_expr(&self.data_store_bytes.scale(Rat::int(2)))
    }

    /// The analysis-time facts the placement loop branches on.
    pub fn shape(&self) -> KernelShape {
        KernelShape {
            vectorized: self.vectorized,
            footprint_known: self.footprint_known,
            nest_model: self.nest_model.is_some(),
        }
    }

    /// The compute ceiling in cycles: `FLOPs / peak`.
    pub fn compute_cycles_expr(&self, c: &Ceilings) -> SymExpr {
        self.flops.scale(Rat::new(1, c.peak(self.vectorized) as i128))
    }

    /// The L1 ceiling in cycles: every data byte crosses the core↔L1
    /// boundary (`bytes / bw_l1`), footprint regardless.
    pub fn l1_cycles_expr(&self, c: &Ceilings) -> SymExpr {
        self.data_bytes().scale(Rat::new(1, c.bandwidth[0] as i128))
    }

    /// The streaming-regime bound of a deeper boundary: the working set
    /// does not fit above, so [`KernelRoofline::streaming_bytes`] cross.
    pub fn streaming_cycles_expr(&self, c: &Ceilings, level: MemLevel) -> SymExpr {
        self.streaming_bytes()
            .scale(Rat::new(1, c.bandwidth[level.index()] as i128))
    }

    /// Place the kernel at concrete parameter values: run the placement
    /// loop ([`place_with`]) over the closed forms, evaluated directly.
    ///
    /// Each deeper boundary's traffic is chosen piecewise. When the
    /// whole footprint fits in the level above, only compulsory traffic
    /// crosses ([`KernelRoofline::resident_lines`]). Otherwise the
    /// per-nest working-set model refines the old binary sweep: each
    /// array's traffic is placed at the shallowest level whose capacity
    /// holds the relevant per-iteration working set, so inner-loop reuse
    /// hits L1, loop-carried reuse hits the level that holds the carried
    /// set, and only genuinely uncaptured re-sweeps multiply
    /// ([`mira_mem::NestModel::boundary_traffic`]).
    ///
    /// When the per-nest model is unavailable (guarded references or
    /// calls, unanalyzable loops — composed callees and triangular
    /// nests now model) the boundary falls back to the streaming bound, and
    /// when the footprint is *not* fully known (unanalyzed, unannotated
    /// arrays) the analyzed lines are only a lower bound, so the
    /// fits-above test cannot be trusted — a kernel with data-dependent
    /// accesses the analysis could not bound is assumed to sweep, never
    /// to sit compulsory-only in cache.
    pub fn place(&self, c: &Ceilings, b: &Bindings) -> Result<Placement, EvalError> {
        let _a = mira_probe::accum("roofline.place");
        let roof = CeilingFactors::new(c);
        let mut forms = TreeWalk { kr: self, b };
        // placement evaluates closed forms over untrusted bindings; the
        // budget scope bounds evaluation depth and work, refusing with a
        // typed error instead of overflowing the host stack
        match mira_sym::budget::with_default_budget(|| {
            place_with(&roof, self.shape(), &mut forms)
        }) {
            Ok(r) => r,
            Err(e) => Err(EvalError::Budget(e)),
        }
    }

    /// Solve for the regime crossover of `param` in `[lo, hi]`: the
    /// smallest value whose binding ceiling differs from the one at `lo`,
    /// found by bisection over the closed forms — valid when the window
    /// contains a single regime change (the binding is monotone in the
    /// predicate "still under the starting roof"), which is what the
    /// polynomial growth orders of the bounds give on any window that
    /// stays within one capacity regime shape. `None` when the binding
    /// never changes. [`KernelRoofline::crossover_sweep`] is the
    /// assumption-free oracle.
    pub fn crossover(
        &self,
        c: &Ceilings,
        param: &str,
        base: &Bindings,
        lo: i128,
        hi: i128,
    ) -> Result<Option<Crossover>, EvalError> {
        let mut sp = mira_probe::span("roofline.crossover", "roofline");
        sp.arg("func", &self.func);
        sp.arg("param", param);
        let mut b = base.clone();
        crossover_bisect(lo, hi, |v| {
            b.insert(param.to_string(), v);
            Ok(self.place(c, &b)?.binding)
        })
    }

    /// Brute-force crossover: walk every value of `param` in `[lo, hi]`
    /// and report the first whose binding differs from the one at `lo`.
    pub fn crossover_sweep(
        &self,
        c: &Ceilings,
        param: &str,
        base: &Bindings,
        lo: i128,
        hi: i128,
    ) -> Result<Option<Crossover>, EvalError> {
        let mut b = base.clone();
        b.insert(param.to_string(), lo);
        let from = self.place(c, &b)?.binding;
        for v in lo + 1..=hi {
            b.insert(param.to_string(), v);
            let binding = self.place(c, &b)?.binding;
            if binding != from {
                return Ok(Some(Crossover {
                    value: v,
                    from,
                    to: binding,
                }));
            }
        }
        Ok(None)
    }
}

/// The analysis-time facts the placement loop branches on: everything
/// [`place_with`] needs of a kernel besides its evaluated forms.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelShape {
    /// Packed FP arithmetic: the vector peak is the compute ceiling.
    pub vectorized: bool,
    /// The footprint is a true total, so the fits-above test may trust
    /// it.
    pub footprint_known: bool,
    /// A per-nest working-set model exists.
    pub nest_model: bool,
}

/// The six machine-independent quantities a placement reads, evaluated
/// at one parameter binding. [`place_with`] requests them lazily, in the
/// order its regime choice needs them, and each at most once per
/// placement (nest traffic once per capacity), so two evaluators of the
/// same closed forms raise the same refusals at the same point. Both
/// evaluate each Rat form as its [`ScaledForm`]: the tree walk
/// ([`KernelRoofline::place`]) walks the primitive directly,
/// `mira-serve` runs it as a compiled bytecode section.
pub trait PlacementForms {
    /// Packed-aware FLOPs per call ([`KernelRoofline::flops`]).
    fn flops(&mut self) -> Result<Rat, EvalError>;
    /// Distinct footprint lines, rounded like [`SymExpr::eval_count`].
    /// Requested only when the footprint is fully known.
    fn footprint_lines(&mut self) -> Result<i128, EvalError>;
    /// Data bytes per call ([`KernelRoofline::data_bytes`]).
    fn data_bytes(&mut self) -> Result<Rat, EvalError>;
    /// Compulsory lines ([`KernelRoofline::resident_lines`]).
    fn resident_lines(&mut self) -> Result<Rat, EvalError>;
    /// Streaming-sweep bytes ([`KernelRoofline::streaming_bytes`]).
    fn streaming_bytes(&mut self) -> Result<Rat, EvalError>;
    /// Nest-model traffic across a boundary whose upper level holds
    /// `cap_bytes` ([`mira_mem::NestModel::boundary_traffic`]). Requested
    /// only when the kernel has a nest model.
    fn nest_traffic(&mut self, cap_bytes: u64) -> Result<BoundaryTraffic, EvalError>;
}

/// The placement loop: the one copy every evaluator runs.
///
/// Evaluates the compute ceiling, the footprint (known-footprint kernels
/// only) and the L1 bound, then chooses each deeper boundary's regime
/// piecewise — resident when the known footprint fits above, else the
/// nest model, else the streaming sweep (see [`KernelRoofline::place`])
/// — and classifies. Each ceiling is applied last, as one exact checked
/// product of a machine-independent value and the machine's factor, so
/// the only rounding is the final `to_f64`; the nest branch scales its
/// line count in `f64`.
pub fn place_with(
    roof: &CeilingFactors,
    k: KernelShape,
    f: &mut impl PlacementForms,
) -> Result<Placement, EvalError> {
    let c = &roof.ceilings;
    let compute = cycles(f.flops()?, roof.per_flop[k.vectorized as usize])?;
    // only consulted in the known-footprint case — an unanalyzable
    // kernel's placement must not require the partial footprint to be
    // evaluable
    let footprint_bytes = if k.footprint_known {
        f.footprint_lines()?
            .checked_mul(c.line_bytes as i128)
            .ok_or(EvalError::Overflow)?
    } else {
        0
    };
    let mut mem = [cycles(f.data_bytes()?, roof.per_byte[0])?, 0.0, 0.0];
    let (mut resident, mut streaming) = (None, None);
    for level in [MemLevel::L2, MemLevel::Dram] {
        let i = level.index();
        let cap = c.capacity_above[i].unwrap_or(0) as i128;
        mem[i] = if k.footprint_known && footprint_bytes <= cap {
            let lines = match resident {
                Some(v) => v,
                None => *resident.insert(f.resident_lines()?),
            };
            cycles(lines, roof.per_line[i])?
        } else if k.nest_model {
            let t = f.nest_traffic(cap.max(0) as u64)?;
            t.total_lines() as f64 * c.line_bytes as f64 / c.bandwidth[i] as f64
        } else {
            let bytes = match streaming {
                Some(v) => v,
                None => *streaming.insert(f.streaming_bytes()?),
            };
            cycles(bytes, roof.per_byte[i])?
        };
    }
    Ok(Placement::classify(compute, mem))
}

/// One ceiling applied: `v · factor`, exact and checked, then rounded.
fn cycles(v: Rat, factor: Rat) -> Result<f64, EvalError> {
    v.checked_mul(factor)
        .map(Rat::to_f64)
        .ok_or(EvalError::Overflow)
}

/// A closed form split as `content × primitive`: `content` is the
/// positive rational gcd of the coefficients, so the primitive has
/// coprime integer coefficients. Forms that differ only by a constant
/// factor — the FLOPs and data bytes of most kernels — share one
/// primitive, which a compiled evaluator computes once. Every
/// [`PlacementForms`] evaluator evaluates the forms this way
/// ([`ScaledForm::eval`]), which gives the form's exact value and the
/// same refusals on every evaluator.
#[derive(Clone, PartialEq, Debug)]
pub struct ScaledForm {
    pub content: Rat,
    pub primitive: SymExpr,
}

impl ScaledForm {
    /// Split `e`. A form whose content does not fit the coefficient range
    /// stays whole (content 1).
    pub fn split(e: &SymExpr) -> ScaledForm {
        let whole = || ScaledForm {
            content: Rat::ONE,
            primitive: e.clone(),
        };
        let (mut g, mut l) = (0u128, 1u128);
        for t in e.terms() {
            g = gcd(g, t.coeff.num().unsigned_abs());
            let d = t.coeff.den().unsigned_abs();
            match (l / gcd(l, d)).checked_mul(d) {
                Some(v) => l = v,
                None => return whole(),
            }
        }
        let (Ok(g), Ok(l)) = (i128::try_from(g), i128::try_from(l)) else {
            return whole();
        };
        if g == 0 {
            return whole();
        }
        let inv = Rat::new(l, g);
        // the primitive's coefficients are integers, but with unlike
        // denominators they can outgrow the coefficient range
        if e.terms().iter().any(|t| t.coeff.checked_mul(inv).is_none()) {
            return whole();
        }
        ScaledForm {
            content: Rat::new(g, l),
            primitive: e.scale(inv),
        }
    }

    /// The form's value: the primitive's, times the content.
    pub fn eval(&self, b: &Bindings) -> Result<Rat, EvalError> {
        self.primitive
            .eval(b)?
            .checked_mul(self.content)
            .ok_or(EvalError::Overflow)
    }
}

fn gcd(a: u128, b: u128) -> u128 {
    // `u128` remainder is a library call; coefficients almost always fit
    // `u64`, where the loop runs on hardware division
    if let (Ok(mut a), Ok(mut b)) = (u64::try_from(a), u64::try_from(b)) {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        return a as u128;
    }
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The tree-walk evaluator: every form is its closed form, split and
/// evaluated directly.
struct TreeWalk<'a> {
    kr: &'a KernelRoofline,
    b: &'a Bindings,
}

impl PlacementForms for TreeWalk<'_> {
    fn flops(&mut self) -> Result<Rat, EvalError> {
        ScaledForm::split(&self.kr.flops).eval(self.b)
    }

    fn footprint_lines(&mut self) -> Result<i128, EvalError> {
        let lines = ScaledForm::split(&self.kr.footprint_lines).eval(self.b)?;
        lines.round_count().ok_or(EvalError::Overflow)
    }

    fn data_bytes(&mut self) -> Result<Rat, EvalError> {
        ScaledForm::split(&self.kr.data_bytes()).eval(self.b)
    }

    fn resident_lines(&mut self) -> Result<Rat, EvalError> {
        ScaledForm::split(&self.kr.resident_lines()).eval(self.b)
    }

    fn streaming_bytes(&mut self) -> Result<Rat, EvalError> {
        ScaledForm::split(&self.kr.streaming_bytes()).eval(self.b)
    }

    fn nest_traffic(&mut self, cap_bytes: u64) -> Result<BoundaryTraffic, EvalError> {
        match &self.kr.nest_model {
            Some(nest) => nest.boundary_traffic(cap_bytes, self.b),
            None => Ok(BoundaryTraffic::default()),
        }
    }
}

/// The bisection core of [`KernelRoofline::crossover`], generic over
/// how a parameter value is placed: `place_at(v)` returns the binding
/// ceiling at `v`. Shared by the tree-walk crossover above and the
/// compiled-evaluator crossover in `mira-serve`, so both tiers solve
/// regime changes with the identical search — any answer difference
/// between them can only come from the placement evaluator itself,
/// which the differential tests pin. Valid when the window contains a
/// single regime change; `None` when the binding never changes.
pub fn crossover_bisect(
    lo: i128,
    hi: i128,
    mut place_at: impl FnMut(i128) -> Result<Ceiling, EvalError>,
) -> Result<Option<Crossover>, EvalError> {
    let from = place_at(lo)?;
    if place_at(hi)? == from {
        return Ok(None);
    }
    let (mut below, mut above) = (lo, hi);
    while below + 1 < above {
        let mid = below + (above - below) / 2;
        if place_at(mid)? == from {
            below = mid;
        } else {
            above = mid;
        }
    }
    Ok(Some(Crossover {
        value: above,
        from,
        to: place_at(above)?,
    }))
}

/// Place a *measured* run against the same ceilings: the simulator's
/// observed traffic per boundary (explicit data bytes at L1, data fills
/// plus dirty data write-backs beyond L1 and L2 — flush the VM first so
/// end-of-run stores are on the books) against the model's FLOPs. Frame
/// (stack) lines are excluded at every boundary, mirroring the static
/// side's frame-free closed forms, so the placement stays
/// register-allocation-invariant.
pub fn dynamic_placement(
    flops: i128,
    stats: &MemStats,
    c: &Ceilings,
    vectorized: bool,
) -> Placement {
    let _a = mira_probe::accum("roofline.dynamic_placement");
    let compute = flops as f64 / c.peak(vectorized) as f64;
    let mem = [
        stats.data_bytes() as f64 / c.bandwidth[0] as f64,
        stats.data_beyond_l1_bytes(c.line_bytes) as f64 / c.bandwidth[1] as f64,
        stats.data_beyond_l2_bytes(c.line_bytes) as f64 / c.bandwidth[2] as f64,
    ];
    Placement::classify(compute, mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_core::{analyze_source, MiraOptions};
    use mira_sym::bindings;

    const TRIAD: &str = "void triad(int n, int reps, double* a, double* b, double* c, double s) {\n\
         for (int r = 0; r < reps; r++) {\n\
           for (int i = 0; i < n; i++) {\n\
             a[i] = b[i] + s * c[i];\n\
           }\n\
         }\n}";

    fn triad_model(vectorized: bool) -> (KernelRoofline, Ceilings) {
        let compiler = if vectorized {
            mira_vcc::Options::vectorized()
        } else {
            mira_vcc::Options::default()
        };
        let analysis = analyze_source(
            TRIAD,
            &MiraOptions {
                compiler,
                ..MiraOptions::default()
            },
        )
        .unwrap();
        let c = Ceilings::from_arch(&analysis.arch);
        (KernelRoofline::analyze(&analysis, "triad").unwrap(), c)
    }

    /// A kernel's analysis reads its own call closure only: the unrelated
    /// function is never analyzed, and the model is the one built from a
    /// program without it.
    #[test]
    fn analysis_reads_only_the_call_closure() {
        const CALLEE: &str = "void scale(int n, double* x, double s) {\n\
             for (int i = 0; i < n; i++) { x[i] = s * x[i]; }\n}\n";
        const OTHER: &str = "double other(int m, double* y) {\n\
             double t = 0.0;\n\
             for (int j = 0; j < m; j++) { t += y[j]; }\n\
             return t;\n}\n";
        const F: &str = "void f(int n, int reps, double* a) {\n\
             for (int r = 0; r < reps; r++) { scale(n, a, 2.0); }\n}\n";
        let opts = MiraOptions::default();
        let with = analyze_source(&format!("{CALLEE}{OTHER}{F}"), &opts).unwrap();
        let (kr, trace) = mira_probe::capture(|| KernelRoofline::analyze(&with, "f"));
        let mut analyzed: Vec<&str> = trace
            .events
            .iter()
            .filter(|e| e.name == "mem.analyze_func")
            .flat_map(|e| e.args.iter().filter(|(k, _)| *k == "func"))
            .map(|(_, v)| v.as_str())
            .collect();
        analyzed.sort_unstable();
        assert_eq!(analyzed, ["f", "scale"]);
        let without = analyze_source(&format!("{CALLEE}{F}"), &opts).unwrap();
        let alone = KernelRoofline::analyze(&without, "f").unwrap();
        let kr = kr.unwrap();
        assert!(kr.nest_model.is_some() && kr.footprint_known, "{kr:?}");
        assert_eq!(format!("{kr:?}"), format!("{alone:?}"));
    }

    #[test]
    fn classify_rules() {
        // deepest memory level wins ties among memory …
        let p = Placement::classify(1.0, [5.0, 5.0, 2.0]);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::L2));
        assert!(p.memory_bound());
        assert_eq!(p.cycles(), 5.0);
        // … compute must strictly exceed every memory bound
        let p = Placement::classify(5.0, [5.0, 1.0, 1.0]);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::L1));
        let p = Placement::classify(6.0, [5.0, 1.0, 1.0]);
        assert_eq!(p.binding, Ceiling::Compute);
        assert!(!p.memory_bound());
        assert_eq!(p.mem_cycles[MemLevel::Dram.index()], 1.0);
    }

    #[test]
    fn ceiling_names_roundtrip() {
        for c in [
            Ceiling::Compute,
            Ceiling::Mem(MemLevel::L1),
            Ceiling::Mem(MemLevel::L2),
            Ceiling::Mem(MemLevel::Dram),
        ] {
            assert_eq!(Ceiling::from_name(c.name()), Some(c));
        }
        assert_eq!(Ceiling::from_name("l3"), None);
    }

    #[test]
    fn default_ceilings() {
        let arch = ArchDescription::default();
        let c = Ceilings::from_arch(&arch);
        assert_eq!(c.peak_scalar, 2);
        assert_eq!(c.peak_vector, 4);
        assert_eq!(c.bandwidth, [32, 16, 4]);
        assert_eq!(c.capacity_above, [None, Some(32768), Some(262144)]);
        assert_eq!(c.line_bytes, 64);
        assert_eq!(c.peak(false), 2);
        assert_eq!(c.peak(true), 4);
    }

    #[test]
    fn triad_closed_forms_and_regimes() {
        let (k, c) = triad_model(false);
        assert!(!k.vectorized, "scalar triad");
        assert!(k.footprint_known);
        // 2 FLOPs and 24 data bytes per element per rep
        let b = bindings(&[("n", 1000), ("reps", 4)]);
        assert_eq!(k.flops.eval_count(&b).unwrap(), 8000);
        assert_eq!(k.data_bytes().eval_count(&b).unwrap(), 96_000);
        // footprint: 3 arrays × 125 lines; only `a` is stored
        assert_eq!(k.footprint_lines.eval_count(&b).unwrap(), 375);
        assert_eq!(k.stored_lines.eval_count(&b).unwrap(), 125);
        // ceilings at the default machine
        let p = k.place(&c, &b).unwrap();
        assert_eq!(p.compute_cycles, 4000.0);
        assert_eq!(p.mem_cycles[0], 3000.0);
        // 24 KB footprint fits L1: beyond-L1 traffic is compulsory only
        assert_eq!(p.mem_cycles[1], (375.0 + 125.0) * 64.0 / 16.0);
        assert_eq!(p.mem_cycles[2], (375.0 + 125.0) * 64.0 / 4.0);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::Dram), "{p}");
        // large n leaves every cache: streaming regime at every level —
        // loads cross once, stores twice (fill + write-back)
        let b = bindings(&[("n", 1_000_000), ("reps", 4)]);
        let p = k.place(&c, &b).unwrap();
        let sweep = (k.data_load_bytes.eval_count(&b).unwrap()
            + 2 * k.data_store_bytes.eval_count(&b).unwrap()) as f64;
        assert_eq!(p.mem_cycles[1], sweep / 16.0);
        assert_eq!(p.mem_cycles[2], sweep / 4.0);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::Dram));
    }

    #[test]
    fn scaled_forms_split_out_the_rational_gcd() {
        let n = SymExpr::param("n");
        let m = SymExpr::param("m");
        let b = bindings(&[("n", 7), ("m", -3)]);
        let e = n.scale(Rat::int(6)).add_expr(&m.scale(Rat::int(-4)));
        let f = ScaledForm::split(&e);
        assert_eq!(f.content, Rat::int(2));
        assert_eq!(f.primitive, n.scale(Rat::int(3)).sub_expr(&m.scale(Rat::int(2))));
        assert_eq!(f.eval(&b), e.eval(&b));
        let e = n.scale(Rat::new(1, 2)).add_expr(&n.mul_expr(&n).scale(Rat::new(2, 3)));
        let f = ScaledForm::split(&e);
        assert_eq!(f.content, Rat::new(1, 6));
        assert_eq!(f.eval(&b), e.eval(&b));
        assert_eq!(ScaledForm::split(&SymExpr::zero()).content, Rat::ONE);
        // proportional forms share their primitive: triad's FLOPs and
        // data bytes differ by a constant factor
        let (k, _) = triad_model(false);
        let (flops, data) = (ScaledForm::split(&k.flops), ScaledForm::split(&k.data_bytes()));
        assert_eq!(flops.primitive, data.primitive);
        assert_eq!((flops.content, data.content), (Rat::int(2), Rat::int(24)));
    }

    #[test]
    fn placement_loop_requests_each_form_at_most_once() {
        // a counting wrapper around the tree walk: when both deeper
        // boundaries take the same regime, the form they share is
        // evaluated once, not once per boundary
        struct Counting<'a> {
            inner: TreeWalk<'a>,
            calls: [u32; 5],
            caps: Vec<u64>,
        }
        impl PlacementForms for Counting<'_> {
            fn flops(&mut self) -> Result<Rat, EvalError> {
                self.calls[0] += 1;
                self.inner.flops()
            }
            fn footprint_lines(&mut self) -> Result<i128, EvalError> {
                self.calls[1] += 1;
                self.inner.footprint_lines()
            }
            fn data_bytes(&mut self) -> Result<Rat, EvalError> {
                self.calls[2] += 1;
                self.inner.data_bytes()
            }
            fn resident_lines(&mut self) -> Result<Rat, EvalError> {
                self.calls[3] += 1;
                self.inner.resident_lines()
            }
            fn streaming_bytes(&mut self) -> Result<Rat, EvalError> {
                self.calls[4] += 1;
                self.inner.streaming_bytes()
            }
            fn nest_traffic(&mut self, cap: u64) -> Result<BoundaryTraffic, EvalError> {
                self.caps.push(cap);
                self.inner.nest_traffic(cap)
            }
        }
        let (k, c) = triad_model(false);
        assert!(k.nest_model.is_some());
        // the same kernel without a nest model or a trusted footprint
        // streams at both deeper boundaries
        let mut sweep = k.clone();
        sweep.nest_model = None;
        sweep.footprint_known = false;
        let roof = CeilingFactors::new(&c);
        let cases: [(&KernelRoofline, i128, [u32; 5], &[u64]); 3] = [
            (&k, 1000, [1, 1, 1, 1, 0], &[]),
            (&k, 1_000_000, [1, 1, 1, 0, 0], &[32768, 262144]),
            (&sweep, 1000, [1, 0, 1, 0, 1], &[]),
        ];
        for (kr, n, calls, caps) in cases {
            let b = bindings(&[("n", n), ("reps", 4)]);
            let mut f = Counting {
                inner: TreeWalk { kr, b: &b },
                calls: [0; 5],
                caps: Vec::new(),
            };
            let p = place_with(&roof, kr.shape(), &mut f).unwrap();
            assert_eq!(p, kr.place(&c, &b).unwrap(), "n = {n}");
            assert_eq!(f.calls, calls, "n = {n}");
            assert_eq!(f.caps, caps, "n = {n}");
        }
    }

    #[test]
    fn unknown_footprint_never_claims_residency() {
        // an unannotated CSR gather: vals/cols/x are unanalyzable, so the
        // footprint is a lower bound — the deeper ceilings must use the
        // streaming model even though the *analyzed* lines would fit L1
        let src = "void matvec(int n, int* row_ptr, int* cols, double* vals, double* x, double* y) {\n\
               for (int i = 0; i < n; i++) {\n\
                 double s = 0.0;\n\
                 for (int k = row_ptr[i]; k < row_ptr[i + 1]; k++) {\n\
                   s += vals[k] * x[cols[k]];\n\
                 }\n\
                 y[i] = s;\n\
               } }";
        let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
        let c = Ceilings::from_arch(&analysis.arch);
        let k = KernelRoofline::analyze(&analysis, "matvec").unwrap();
        assert!(!k.footprint_known);
        let b = bindings(&[("n", 64), ("iters_l4", 7)]);
        let p = k.place(&c, &b).unwrap();
        assert_eq!(
            p.mem_cycles[2],
            k.streaming_cycles_expr(&c, MemLevel::Dram).eval(&b).unwrap().to_f64(),
            "unknown footprint ⇒ sweep, not compulsory-only: {p}"
        );
    }

    #[test]
    fn vectorized_triad_uses_vector_peak() {
        let (k, c) = triad_model(true);
        assert!(k.vectorized, "packed arithmetic detected");
        let b = bindings(&[("n", 1024), ("reps", 1)]);
        // same FLOPs, half the compute cycles
        let (ks, _) = triad_model(false);
        assert_eq!(
            k.flops.eval_count(&b).unwrap(),
            ks.flops.eval_count(&b).unwrap()
        );
        let pv = k.place(&c, &b).unwrap();
        let p = ks.place(&c, &b).unwrap();
        assert!((pv.compute_cycles - p.compute_cycles / 2.0).abs() < 1e-9);
    }

    #[test]
    fn triad_crossover_matches_sweep() {
        // at small n·reps the cold DRAM footprint dominates; at high reps
        // the kernel becomes compute-bound while L1-resident. The solver
        // and the brute-force sweep must find the same switch point.
        let (k, c) = triad_model(false);
        let base = bindings(&[("n", 1024)]);
        let solved = k.crossover(&c, "reps", &base, 1, 200).unwrap();
        let swept = k.crossover_sweep(&c, "reps", &base, 1, 200).unwrap();
        assert_eq!(solved, swept);
        let x = solved.expect("triad changes regime as reps grow");
        assert_eq!(x.from, Ceiling::Mem(MemLevel::Dram));
        assert!(x.value > 1);
    }

    #[test]
    fn crossover_none_when_regime_constant() {
        let (k, c) = triad_model(false);
        // huge n: DRAM-bound at every rep count in the window
        let base = bindings(&[("n", 10_000_000)]);
        assert_eq!(k.crossover(&c, "reps", &base, 1, 50).unwrap(), None);
        assert_eq!(k.crossover_sweep(&c, "reps", &base, 1, 50).unwrap(), None);
    }

    #[test]
    fn working_set_refinement_keeps_blocked_dgemm_compulsory() {
        // n=40: the 38400-byte footprint exceeds the 32 KiB L1, so the
        // old fits-or-streams model predicted a full sweep at the L2
        // boundary; the per-i working set (two rows + all of b) fits, so
        // the working-set model keeps the compulsory-only count — the
        // ROADMAP's reuse-distance case
        let src = "void mm(int n, int reps, double* a, double* b, double* c) {\n\
             for (int r = 0; r < reps; r++) {\n\
               for (int i = 0; i < n; i++) {\n\
                 for (int k = 0; k < n; k++) {\n\
                   for (int j = 0; j < n; j++) {\n\
                     c[i * n + j] += a[i * n + k] * b[k * n + j];\n\
                   } } } } }";
        let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
        let c = Ceilings::from_arch(&analysis.arch);
        let k = KernelRoofline::analyze(&analysis, "mm").unwrap();
        assert!(k.nest_model.is_some(), "own affine nests only");
        let b = bindings(&[("n", 40), ("reps", 1)]);
        let footprint = k.footprint_lines.eval_count(&b).unwrap();
        assert_eq!(footprint, 600);
        assert!(footprint * 64 > 32768, "exceeds L1 but …");
        let p = k.place(&c, &b).unwrap();
        // … the L2 boundary still carries compulsory lines only:
        // 600 fills + 200 write-backs of c
        assert_eq!(p.mem_cycles[1], 800.0 * 64.0 / 16.0, "{p}");
        // footprint fits L2, so the DRAM boundary is resident
        assert_eq!(p.mem_cycles[2], 800.0 * 64.0 / 4.0);
        // the sweep model would have said 2.5·n³ cycles and bound the
        // kernel at L2; the refinement leaves it on the L1 knee
        let sweep = k.streaming_cycles_expr(&c, MemLevel::L2).eval(&b).unwrap().to_f64();
        assert!(sweep > p.mem_cycles[0], "old model misclassified");
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::L1), "{p}");
    }

    #[test]
    fn dynamic_placement_uses_fills_and_writebacks() {
        let c = Ceilings::from_arch(&ArchDescription::default());
        let stats = MemStats {
            data_load_bytes: 64_000,
            data_store_bytes: 32_000,
            load_bytes: 64_000,
            store_bytes: 32_000,
            ..MemStats::default()
        };
        // no misses: deeper levels idle, L1 carries all 96 KB
        let p = dynamic_placement(2_000, &stats, &c, false);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::L1));
        assert_eq!(p.mem_cycles[0], 3000.0);
        assert_eq!(p.mem_cycles[2], 0.0);
        // register-only compute: compute-bound
        let p = dynamic_placement(2_000, &MemStats::default(), &c, false);
        assert_eq!(p.binding, Ceiling::Compute);
        assert_eq!(p.compute_cycles, 1000.0);
    }
}
