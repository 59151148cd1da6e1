//! Deterministic work counts of the static answer and of the cold model
//! build: counts that neither code layout nor host speed moves, pinned
//! exactly or within a stated bound.
//!
//! * A model report values each distinct atom of its counts once
//!   (the probe counter `sym.atoms_valued`).
//! * A model build counts each distinct polyhedral context once
//!   (`core.contexts_counted`), and the access analysis sweeps each loop
//!   of a reference's path once (`mem.sweep_steps`).
//! * A tree-walk placement evaluates closed forms split at analysis and
//!   builds no expression: its allocations are the atom table's buffer
//!   and the nest-model header, staged once per placement. The
//!   counting allocator follows the `no_alloc` tests of `mira-serve`,
//!   `mira-probe` and `mira-mem`: only the thread inside a bracket
//!   counts.

use mira_core::{analyze_source, MiraOptions};
use mira_roofline::{Ceilings, KernelRoofline};
use mira_sym::{bindings, Bindings};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// On while this thread is inside a bracket. `const`-initialised and
    /// read with `try_with`, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn count(&self) {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    ALLOCS.load(Ordering::SeqCst) - before
}

/// Atom valuations of one report of `func` at `b`.
fn atoms_valued(src: &str, func: &str, b: &Bindings) -> i64 {
    let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
    let (report, trace) = mira_probe::capture(|| analysis.report(func, b));
    report.unwrap();
    trace.counter("sym.atoms_valued").unwrap()
}

/// One `dgemm_tiled` report values its 9 distinct atoms once each, at
/// every perfbench `validate` rung (walking every count, it made 3,316
/// atom evaluations); `cg_solve`'s, callees included, values its 5.
#[test]
fn a_report_values_each_distinct_atom_once() {
    for n in [24, 40, 56] {
        let b = bindings(&[("n", n), ("reps", 1)]);
        let dgemm = atoms_valued(mira_workloads::roofval::DGEMM_TILED_SRC, "dgemm_tiled", &b);
        assert_eq!(dgemm, 9, "dgemm_tiled at n = {n}");
    }
    let b = bindings(&[("n", 64), ("nnz_row_milli", 15_625), ("cg_iters", 9)]);
    assert_eq!(atoms_valued(mira_workloads::minife::MINIFE_SRC, "cg_solve", &b), 5);
}

/// A kernel: function, source, bindings.
type Kernel = (&'static str, &'static str, &'static [(&'static str, i128)]);

/// Every workload kernel, with the bindings of its smaller run.
const KERNELS: [Kernel; 7] = [
    ("triad", mira_workloads::memval::TRIAD_SRC, &[("n", 8192), ("reps", 2)]),
    ("dgemm", mira_workloads::dgemm::DGEMM_SRC, &[("n", 40), ("reps", 1)]),
    (
        "dgemm_tiled",
        mira_workloads::roofval::DGEMM_TILED_SRC,
        &[("n", 40), ("reps", 1)],
    ),
    (
        "triad_blocked",
        mira_workloads::roofval::TRIAD_BLOCKED_SRC,
        &[("n", 32768), ("reps", 2)],
    ),
    ("trisolve", mira_workloads::compose::TRISOLVE_SRC, &[("n", 384)]),
    (
        "stencil_sweep",
        mira_workloads::compose::STENCIL_SWEEP_SRC,
        &[("n", 32768), ("steps", 2)],
    ),
    (
        "cg_solve",
        mira_workloads::minife::MINIFE_SRC,
        &[("n", 125), ("nnz_row_milli", 8_000), ("cg_iters", 9)],
    ),
];

/// A tree-walk placement allocates no more than its atom table's buffer
/// (a doubling `Vec`: at most 5 allocations for up to 64 atoms) and the
/// two vectors of the nest-model header it stages once: 7 at most, at
/// any size (2 to 5 for these kernels). Building an expression
/// per query — a split, a sum of two forms — costs an allocation per
/// term and per monomial: the walk that summed and split the forms per
/// query made 30 to 108 allocations per placement of these kernels.
#[test]
fn a_tree_walk_placement_builds_no_expression() {
    for (func, src, binds) in KERNELS {
        let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
        let kr = KernelRoofline::analyze(&analysis, func).unwrap();
        let c = Ceilings::from_arch(&analysis.arch);
        for scale in [1, 64] {
            let mut b = bindings(binds);
            *b.get_mut("n").unwrap() *= scale;
            kr.place(&c, &b).unwrap();
            let allocs = allocs_in(|| {
                std::hint::black_box(kr.place(&c, &b)).unwrap();
            });
            assert!(allocs <= 7, "{func} at {b:?}: {allocs} allocations");
        }
    }
}

/// A probe counter over `f`, zero when nothing bumped it.
fn counted<T>(name: &str, f: impl FnOnce() -> T) -> i64 {
    let (_, trace) = mira_probe::capture(f);
    trace.counter(name).unwrap_or(0)
}

/// One `analyze_source` of each kernel's program runs the polyhedral
/// counter once per distinct context (`Ctx::count`): 3/8/7/4/3/4/14,
/// where counting at every statement line made 6/21/14/8/8/11/67
/// counts.
#[test]
fn a_model_build_counts_each_context_once() {
    let mut counts = Vec::new();
    for (_, src, _) in KERNELS {
        counts.push(counted("core.contexts_counted", || {
            analyze_source(src, &MiraOptions::default()).unwrap()
        }));
    }
    assert_eq!(counts, [3, 8, 7, 4, 3, 4, 14]);
}

/// `KernelRoofline::analyze` of every function of each kernel's program
/// sweeps each loop of an affine reference's path once
/// (`mem.sweep_steps`): the walker derives each reference's ladder
/// incrementally, its first entry is the reference's footprint range,
/// and the nest model reuses it. Deriving each ladder entry on its own,
/// for the footprint, the walker and the nest model apart, made
/// 24/198/192/45/25/44/143 steps.
#[test]
fn a_roofline_analysis_sweeps_each_loop_once_per_reference() {
    let mut steps = Vec::new();
    for (_, src, _) in KERNELS {
        let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
        steps.push(counted("mem.sweep_steps", || {
            for f in analysis.model.functions.keys() {
                let _ = KernelRoofline::analyze(&analysis, f);
            }
        }));
    }
    assert_eq!(steps, [6, 51, 24, 9, 14, 24, 69]);
}
