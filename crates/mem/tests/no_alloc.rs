//! The simulator's memory contract: its tables are sized once in
//! `CacheSim::new`, and accesses, flushes, resets and stats reads never
//! allocate.
//!
//! Pinned with a counting global allocator that counts only the
//! bracketing thread's allocations. The counter is global, so this file
//! holds exactly one test to keep the bracket exclusive.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use mira_arch::CacheHierarchy;
use mira_mem::CacheSim;

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
fn accesses_flushes_and_resets_do_not_allocate() {
    let mut sim = CacheSim::new(CacheHierarchy::default());
    let mut stats = None;
    let allocs = allocs_in(|| {
        // a store stream far larger than L2, straddling reads, and stack
        // traffic: every level fills, evicts and writes back
        for i in 0..200_000u64 {
            sim.access(i * 8, 8, i % 3 == 0, false);
            sim.access((i * 72) % (1 << 22) + 60, 16, false, false);
            sim.access((1 << 40) - 8 * (i % 32), 8, i % 2 == 0, true);
            if i % 50_000 == 0 {
                sim.flush();
            }
        }
        sim.flush();
        stats = Some(sim.stats());
        sim.reset();
    });
    assert_eq!(allocs, 0, "the simulator allocated {allocs} times");
    let stats = stats.expect("the bracket ran");
    assert!(stats.l2.writebacks > 0 && stats.l1.misses > 0, "{stats:?}");
}
