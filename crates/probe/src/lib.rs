//! # mira-probe — zero-cost tracing, metrics and hot-path profiling
//!
//! An in-tree, zero-dependency structured-observability layer for the
//! whole Mira pipeline (like the `proptest` shim, it assumes no registry
//! access). Three primitives, all routed through one
//! thread-local collector:
//!
//! * **Spans** ([`span`]) — RAII guards that record a named, categorized
//!   wall-time interval with optional key/value arguments. Nested spans
//!   nest naturally in the exported trace.
//! * **Counters** ([`add`]) — named monotonic tallies (vectorized loops,
//!   budget trips, cache misses, …), merged per name.
//! * **Accumulators** ([`accum`]) — RAII guards for *hot* call sites
//!   (e.g. `SymExpr::substitute`) that fold `(calls, total ns)` into one
//!   row per name instead of recording one event per call.
//!
//! ## Zero cost when disabled
//!
//! No collector is installed unless code runs inside [`capture`]. Outside
//! a capture, every probe call is a single thread-local flag test: the
//! guards hold `None`, no clock is read, no allocation happens, and
//! argument formatting is skipped entirely (the `Display` values are
//! never rendered). The disabled path is pinned allocation-free by the
//! `no_alloc` integration test, and `bench_vm` confirms the wall-time
//! overhead is within noise.
//!
//! ## Capturing a trace
//!
//! ```
//! use mira_probe as probe;
//!
//! let (value, trace) = probe::capture(|| {
//!     let mut sp = probe::span("phase.compute", "phase");
//!     sp.arg("n", 42);
//!     probe::add("widgets", 3);
//!     6 * 7
//! });
//! assert_eq!(value, 42);
//! assert!(trace.has_span("phase.compute"));
//! assert_eq!(trace.counter("widgets"), Some(3));
//! // Chrome-loadable (chrome://tracing, Perfetto) trace-event JSON:
//! let json = trace.chrome_json();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! // or a flat per-phase text report:
//! println!("{}", trace.report());
//! ```
//!
//! Captures nest per thread: an inner [`capture`] temporarily owns the
//! collector, so the outer trace does not double-count the inner one.
//!
//! ## Span taxonomy
//!
//! Instrumentation across the workspace uses dotted names under stable
//! prefixes — `phase.*` for the four pipeline phases (`phase.frontend`,
//! `phase.compile`, `phase.object`, `phase.metrics`, matching
//! `mira_core::Phase`), `minic.*`, `vcc.*`, `sym.*`, `mem.*`,
//! `roofline.*`, `vm.*` for per-crate detail, and `sym.budget` spans
//! carrying `fuel_spent`/`tripped` arguments so every budget refusal is
//! attributable to the span that spent the fuel.

mod chrome;
mod report;

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// How an [`Event`] renders in the Chrome trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A complete interval (`"ph": "X"`).
    Complete,
    /// A zero-duration marker (`"ph": "i"`).
    Instant,
}

/// One recorded trace event.
#[derive(Clone, Debug)]
pub struct Event {
    pub name: &'static str,
    /// Category, used as the Chrome `cat` field (e.g. `"phase"`).
    pub cat: &'static str,
    pub kind: EventKind,
    /// Nanoseconds since the enclosing capture began.
    pub start_ns: u64,
    /// Interval length (zero for instants).
    pub dur_ns: u64,
    /// Key/value arguments attached via [`Span::arg`] / [`instant_kv`].
    pub args: Vec<(&'static str, String)>,
}

/// One aggregated hot-path row (see [`accum`]).
#[derive(Clone, Debug)]
pub struct AccumRow {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
}

/// Everything one [`capture`] collected.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub events: Vec<Event>,
    pub counters: Vec<(&'static str, i64)>,
    pub accums: Vec<AccumRow>,
    /// Wall time of the whole capture, in nanoseconds.
    pub wall_ns: u64,
}

impl Trace {
    /// Chrome trace-event JSON (`chrome://tracing` / Perfetto loadable).
    pub fn chrome_json(&self) -> String {
        chrome::chrome_json(self)
    }

    /// Flat text report: per-span totals, counters, hot-path accumulators.
    pub fn report(&self) -> String {
        report::report(self)
    }

    /// Did any event with this name occur?
    pub fn has_span(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.name == name)
    }

    /// Total recorded duration of all events with this name, in ns.
    pub fn span_total_ns(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur_ns)
            .sum()
    }

    /// Number of events recorded under this name.
    pub fn span_count(&self, name: &str) -> u64 {
        self.events.iter().filter(|e| e.name == name).count() as u64
    }

    /// Final value of a named counter, if it was ever bumped.
    pub fn counter(&self, name: &str) -> Option<i64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The aggregated row of a named accumulator, if any.
    pub fn accum(&self, name: &str) -> Option<&AccumRow> {
        self.accums.iter().find(|a| a.name == name)
    }
}

struct Collector {
    epoch: Instant,
    events: Vec<Event>,
    counters: Vec<(&'static str, i64)>,
    accums: Vec<AccumRow>,
}

thread_local! {
    /// Mirror of `COLLECTOR.is_some()` — the one-flag fast path every
    /// probe call tests first.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Is a collector installed on this thread (i.e. are probes live)?
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

#[inline]
fn with_collector(f: impl FnOnce(&mut Collector)) {
    COLLECTOR.with(|c| {
        if let Ok(mut slot) = c.try_borrow_mut() {
            if let Some(col) = slot.as_mut() {
                f(col);
            }
        }
    });
}

/// Run `f` with a fresh collector installed on this thread and return its
/// value together with everything the probes recorded. Captures nest: an
/// enclosing capture is suspended (it sees neither the inner events nor
/// the inner wall time as a span) and restored afterwards.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let epoch = Instant::now();
    let prev = COLLECTOR.with(|c| {
        c.borrow_mut().replace(Collector {
            epoch,
            events: Vec::new(),
            counters: Vec::new(),
            accums: Vec::new(),
        })
    });
    ENABLED.with(|e| e.set(true));

    let value = f();

    let col = COLLECTOR.with(|c| c.borrow_mut().take());
    ENABLED.with(|e| e.set(prev.is_some()));
    let restored = prev.is_some();
    COLLECTOR.with(|c| *c.borrow_mut() = prev);
    let _ = restored;

    let trace = match col {
        Some(col) => Trace {
            events: col.events,
            counters: col.counters,
            accums: col.accums,
            wall_ns: saturating_ns(epoch.elapsed()),
        },
        None => Trace::default(),
    };
    (value, trace)
}

#[inline]
fn saturating_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// RAII span guard. Created by [`span`]; records a [`EventKind::Complete`]
/// event when dropped. Inert (no clock, no allocation) when probes are
/// disabled.
#[must_use = "a span records its interval when dropped"]
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    cat: &'static str,
    start: Instant,
    args: Vec<(&'static str, String)>,
}

impl Span {
    /// Attach a key/value argument (rendered into the trace's `args`).
    /// The value is only formatted when the span is live.
    pub fn arg(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(live) = self.live.as_mut() {
            live.args.push((key, value.to_string()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let dur_ns = saturating_ns(live.start.elapsed());
            with_collector(|c| {
                let start_ns = saturating_ns(live.start.saturating_duration_since(c.epoch));
                c.events.push(Event {
                    name: live.name,
                    cat: live.cat,
                    kind: EventKind::Complete,
                    start_ns,
                    dur_ns,
                    args: live.args,
                });
            });
        }
    }
}

/// Open a span: an RAII wall-time interval under `name` with Chrome
/// category `cat`. No-op (and allocation-free) when probes are disabled.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    Span {
        live: Some(LiveSpan {
            name,
            cat,
            start: Instant::now(),
            args: Vec::new(),
        }),
    }
}

/// Record a zero-duration marker event.
#[inline]
pub fn instant(name: &'static str, cat: &'static str) {
    if !enabled() {
        return;
    }
    record_instant(name, cat, Vec::new());
}

/// Record a zero-duration marker with one key/value argument. The value
/// is only formatted when probes are enabled.
#[inline]
pub fn instant_kv(name: &'static str, cat: &'static str, key: &'static str, value: impl std::fmt::Display) {
    if !enabled() {
        return;
    }
    record_instant(name, cat, vec![(key, value.to_string())]);
}

fn record_instant(name: &'static str, cat: &'static str, args: Vec<(&'static str, String)>) {
    with_collector(|c| {
        let start_ns = saturating_ns(c.epoch.elapsed());
        c.events.push(Event {
            name,
            cat,
            kind: EventKind::Instant,
            start_ns,
            dur_ns: 0,
            args,
        });
    });
}

/// Bump the named counter by `delta` (merged per name).
#[inline]
pub fn add(name: &'static str, delta: i64) {
    if !enabled() {
        return;
    }
    with_collector(|c| match c.counters.iter_mut().find(|(n, _)| *n == name) {
        Some((_, v)) => *v += delta,
        None => c.counters.push((name, delta)),
    });
}

/// RAII guard for a hot call site: folds one `(call, elapsed)` pair into
/// the named accumulator row on drop. See [`accum`].
#[must_use = "an accumulator guard records its interval when dropped"]
pub struct Accum {
    live: Option<(&'static str, Instant)>,
}

impl Drop for Accum {
    fn drop(&mut self) {
        if let Some((name, start)) = self.live.take() {
            let ns = saturating_ns(start.elapsed());
            with_collector(|c| match c.accums.iter_mut().find(|a| a.name == name) {
                Some(a) => {
                    a.calls += 1;
                    a.total_ns += ns;
                }
                None => c.accums.push(AccumRow {
                    name,
                    calls: 1,
                    total_ns: ns,
                }),
            });
        }
    }
}

/// Time a hot call site into an aggregated `(calls, total ns)` row
/// instead of a per-call event — for operations that run thousands of
/// times per analysis (symbolic substitution, cache-line probes) where
/// per-event traces would dominate the trace itself.
#[inline]
pub fn accum(name: &'static str) -> Accum {
    if !enabled() {
        return Accum { live: None };
    }
    Accum {
        live: Some((name, Instant::now())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_are_inert() {
        assert!(!enabled());
        let mut sp = span("x", "t");
        sp.arg("k", 1);
        drop(sp);
        add("c", 5);
        instant("i", "t");
        drop(accum("a"));
        // nothing was recorded anywhere: a capture started now is empty
        let (_, t) = capture(|| ());
        assert!(t.events.is_empty());
        assert!(t.counters.is_empty());
        assert!(t.accums.is_empty());
    }

    #[test]
    fn capture_records_spans_counters_accums() {
        let (v, t) = capture(|| {
            let mut outer = span("outer", "test");
            outer.arg("k", "v");
            {
                let _inner = span("inner", "test");
                add("hits", 2);
                add("hits", 3);
            }
            {
                let _a = accum("hot");
                let _b = accum("hot");
            }
            7
        });
        assert_eq!(v, 7);
        assert!(t.has_span("outer"));
        assert!(t.has_span("inner"));
        // children drop before parents, so inner is recorded first
        assert_eq!(t.events[0].name, "inner");
        assert_eq!(t.counter("hits"), Some(5));
        let hot = t.accum("hot").unwrap();
        assert_eq!(hot.calls, 2);
        // inner event's interval nests within outer's
        let inner = &t.events[0];
        let outer = t.events.iter().find(|e| e.name == "outer").unwrap();
        assert!(outer.start_ns <= inner.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns + 1_000);
        assert_eq!(outer.args, vec![("k", "v".to_string())]);
    }

    #[test]
    fn nested_captures_restore_the_outer_collector() {
        let (_, outer) = capture(|| {
            let _sp = span("outer.work", "test");
            let (_, inner) = capture(|| {
                add("inner.count", 1);
            });
            assert_eq!(inner.counter("inner.count"), Some(1));
            add("outer.count", 1);
        });
        assert!(outer.has_span("outer.work"));
        assert_eq!(outer.counter("outer.count"), Some(1));
        // the inner capture's activity did not leak into the outer trace
        assert_eq!(outer.counter("inner.count"), None);
        assert!(!enabled());
    }

    #[test]
    fn span_helpers() {
        let (_, t) = capture(|| {
            drop(span("a", "t"));
            drop(span("a", "t"));
            instant_kv("mark", "t", "why", 42);
        });
        assert_eq!(t.span_count("a"), 2);
        assert!(t.span_total_ns("a") < 1_000_000_000);
        let mark = t.events.iter().find(|e| e.name == "mark").unwrap();
        assert_eq!(mark.kind, EventKind::Instant);
        assert_eq!(mark.args, vec![("why", "42".to_string())]);
        assert_eq!(t.counter("missing"), None);
        assert!(t.accum("missing").is_none());
    }
}
