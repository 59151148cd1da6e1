//! The disabled-path contract: with no collector installed, spans,
//! counters, instants and accumulators must not allocate at all.
//!
//! Pinned with a counting global allocator: the harness itself allocates
//! (test names, output buffers), so the assertion brackets only the
//! probe calls, and only the bracketing thread's allocations count. The
//! counter is global, so this file holds exactly one test to keep the
//! bracket exclusive.

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
fn disabled_probe_calls_do_not_allocate() {
    assert!(!mira_probe::enabled());
    // warm up the thread-locals outside the bracket
    drop(mira_probe::span("warmup", "t"));

    let allocs = allocs_in(|| {
        for i in 0..10_000i64 {
            let mut sp = mira_probe::span("disabled.span", "t");
            sp.arg("i", i);
            drop(sp);
            mira_probe::add("disabled.counter", i);
            mira_probe::instant("disabled.instant", "t");
            mira_probe::instant_kv("disabled.kv", "t", "i", i);
            drop(mira_probe::accum("disabled.accum"));
        }
    });
    assert_eq!(allocs, 0, "disabled probe path allocated {allocs} times");

    // sanity: the same sequence with probes enabled does record
    let (_, t) = mira_probe::capture(|| {
        let mut sp = mira_probe::span("enabled.span", "t");
        sp.arg("i", 1);
        drop(sp);
        mira_probe::add("enabled.counter", 2);
    });
    assert!(t.has_span("enabled.span"));
    assert_eq!(t.counter("enabled.counter"), Some(2));
}
