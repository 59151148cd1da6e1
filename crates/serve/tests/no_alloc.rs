//! The hot-loop allocation contract: after warm-up (scratch sized,
//! output vector at capacity), answering query batches through
//! [`ServeIndex::run_batch`] allocates nothing — the serving path is
//! pure register arithmetic over reused buffers — and neither does
//! [`ServeIndex::run_batch_cached`]: answer-cache slots, with their
//! cells and kept placements, are fixed-size and allocated when the
//! cache is built.
//!
//! Pinned with a counting global allocator; the harness itself
//! allocates, so the assertion brackets only the batch runs, and only
//! the bracketing thread's allocations count. The counter is global,
//! so this file holds exactly one test to keep the bracket exclusive.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mira_core::{analyze_source, MiraOptions};
use mira_roofline::{Ceilings, KernelRoofline};
use mira_serve::{AnswerCache, CompiledKernel, Query, Scratch, ServeIndex};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// On while this thread is inside a bracket. `const`-initialised and
    /// read with `try_with`, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    /// Count an allocation only on a thread inside a bracket: the test
    /// harness's other threads may allocate at any time.
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

#[test]
fn warm_query_batches_do_not_allocate() {
    let mut index = ServeIndex::new();
    for (func, src) in [
        ("triad", mira_workloads::memval::TRIAD_SRC),
        ("dgemm", mira_workloads::dgemm::DGEMM_SRC),
    ] {
        let analysis = analyze_source(src, &MiraOptions::default()).expect("workload analyzes");
        let kr = KernelRoofline::analyze(&analysis, func).expect("roofline analyzes");
        let c = Ceilings::from_arch(&analysis.arch);
        let k =
            CompiledKernel::build(&kr, &c, &analysis.arch.machine.name).expect("kernel compiles");
        index.insert(k).expect("kernel admits");
    }
    let mut queries: Vec<Query> = Vec::new();
    for (id, k) in index.kernels() {
        for n in 1..=256i128 {
            let vals: Vec<i128> = k
                .params()
                .iter()
                .map(|p| if p == "n" { n } else { 2 })
                .collect();
            queries.push(index.query(id, &vals).expect("query builds"));
        }
    }
    let mut s = Scratch::new();
    let mut out = Vec::new();
    // warm-up: sizes the scratch registers and the output vector
    index.run_batch(&queries, &mut s, &mut out);
    assert!(out.iter().all(|r| r.is_ok()));

    let allocs = allocs_in(|| {
        for _ in 0..10 {
            index.run_batch(&queries, &mut s, &mut out);
        }
    });
    assert_eq!(
        allocs,
        0,
        "warm serving path allocated {allocs} times over {} queries",
        10 * queries.len()
    );
    assert!(out.iter().all(|r| r.is_ok()));

    // through a cache smaller than the batch, so warm batches both hit
    // and miss (evict)
    let mut cache = AnswerCache::new(512);
    let uncached = out.clone();
    index.run_batch_cached(&queries, &mut cache, &mut s, &mut out);
    let allocs = allocs_in(|| {
        for _ in 0..10 {
            index.run_batch_cached(&queries, &mut cache, &mut s, &mut out);
        }
    });
    let st = cache.probe();
    assert_eq!(
        allocs,
        0,
        "warm cached serving allocated {allocs} times over {} queries ({st:?})",
        10 * queries.len()
    );
    assert!(
        st.hits > 0 && st.memo_hits > 0 && st.evictions > 0,
        "{st:?}"
    );
    assert_eq!(out, uncached);
}
