//! The simulator's memory contract: its tables are sized once in
//! `CacheSim::new`, and accesses, flushes, resets and stats reads never
//! allocate.
//!
//! Pinned with a counting global allocator. The counter is global, so
//! this file holds exactly one test to keep the bracket exclusive.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mira_arch::CacheHierarchy;
use mira_mem::CacheSim;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: Counting = Counting;

#[test]
fn accesses_flushes_and_resets_do_not_allocate() {
    let mut sim = CacheSim::new(CacheHierarchy::default());
    let before = ALLOCS.load(Ordering::SeqCst);
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
    let stats = sim.stats();
    sim.reset();
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "the simulator allocated {} times",
        after - before
    );
    assert!(stats.l2.writebacks > 0 && stats.l1.misses > 0, "{stats:?}");
}
