//! The dynamic half of `mira-mem`: a two-level set-associative LRU cache
//! simulator the VM hangs off its load/store path (behind
//! `VmOptions::mem_profile`).
//!
//! Semantics, chosen to make the static models checkable *exactly*:
//!
//! * Every probe is one explicit-memory-operand word access (8 bytes; a
//!   packed `movupd` arrives as two consecutive 8-byte accesses, touching
//!   the same lines one 16-byte access would). `push`/`pop` and implicit
//!   `call`/`ret` return-address traffic never reach the simulator —
//!   mirroring `mira_isa::Inst::memory_bytes`, the byte-accounting
//!   contract the static side counts against.
//! * Both levels are set-associative with true LRU replacement; loads and
//!   stores allocate alike (write-allocate), and dirty lines are tracked:
//!   evicting a dirty L1 line writes it back toward L2
//!   ([`LevelStats::writebacks`]), marking the L2 copy dirty — or passing
//!   straight through to memory (an L2 write-back) when L2 no longer
//!   holds it; evicting a dirty L2 line is an L2 write-back. Together
//!   with the fills this makes the traffic crossing each boundary
//!   observable: [`MemStats::beyond_l1_bytes`] /
//!   [`MemStats::beyond_l2_bytes`] are what a roofline's L2 and memory
//!   ceilings cap. [`CacheSim::flush`] drains still-resident dirty lines
//!   so end-of-run store traffic is accounted before the stats are read.
//! * L1 fills and byte counts are split into *data* (the VM heap, where
//!   host-allocated arrays live) and *stack* (frames, spills), so
//!   cold-cache data fills can be compared against the per-array
//!   footprints of [`crate::access`], and data bytes against the
//!   frame-excluded closed forms (`Model::data_load_bytes_expr`).
//!
//! Layout, sized for speed (the simulator runs on every explicit load and
//! store of an instrumented VM run):
//!
//! * Each level is one flat, set-major way table — a line number and a
//!   metadata word per way (recency stamp, dirty and stack bits) — plus
//!   each set's most recently used way. Sets are indexed with a mask when
//!   their count is a power of two (as on both bundled machines), with
//!   `%` otherwise.
//! * LRU stays exact: recency stamps from a per-level clock order the
//!   ways of a set exactly as a most-recent-first list would, so the
//!   victim is always the least recently used way. [`MemStats`] are
//!   identical to those of a naive list-per-set cache on every trace;
//!   `tests/reference_cache.rs` holds the simulator to such an
//!   independent reference.
//! * The common case, an L1 hit on its set's most recently used way, runs
//!   in line in [`CacheSim::access`] (which the VM inlines into its load
//!   and store paths): one compare, no data movement, no call. Other hits
//!   and all misses take one out-of-line call; there, sets wider than 16
//!   ways ask a hashed way predictor before searching, so they cost about
//!   what narrow sets do.
//! * Memory is fixed at construction and nothing is allocated per access
//!   or per flush: 16 bytes per way, 16 per set, and up to 32 per way of
//!   predictor in wide sets. The geometry comes from [`CacheLevel::sets`]
//!   and [`CacheLevel::ways`], so a level holds at most
//!   `size_bytes / line_bytes` ways (one when that is zero) and at most
//!   as many sets: under 50 bytes of table per line of capacity. The
//!   generic machine's 64 + 512 sets × 8 ways take 81 KiB.

use mira_arch::{CacheHierarchy, CacheLevel};

/// Hit/miss/write-back counters of one cache level (line-granular probes).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LevelStats {
    pub hits: u64,
    pub misses: u64,
    /// Dirty lines this level evicted (or flushed) toward the next level —
    /// at L1 the L1→L2 write-back traffic, at L2 the L2→memory traffic
    /// (including L1 write-backs that passed through a non-resident L2).
    pub writebacks: u64,
}

impl LevelStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Everything the simulator counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MemStats {
    /// Word accesses (one per 8-byte load/store reaching the simulator).
    pub loads: u64,
    pub stores: u64,
    /// Bytes moved by explicit memory operands.
    pub load_bytes: u64,
    pub store_bytes: u64,
    /// The subset of `load_bytes`/`store_bytes` that targets the VM heap
    /// (host-allocated arrays) rather than the stack region — the
    /// dynamic counterpart of the model's frame-excluded data bytes.
    pub data_load_bytes: u64,
    pub data_store_bytes: u64,
    pub l1: LevelStats,
    pub l2: LevelStats,
    /// L1 fills whose line lies in the VM heap (host-allocated arrays).
    pub data_l1_fills: u64,
    /// L1 fills whose line lies in the stack region (frames, spills).
    pub stack_l1_fills: u64,
    /// Heap-data subsets of the boundary-crossing counters, so roofline
    /// consumers can keep frame traffic out of the deeper memory
    /// ceilings (the stack totals are the `LevelStats` counters minus
    /// these).
    pub data_l1_writebacks: u64,
    pub data_l2_fills: u64,
    pub data_l2_writebacks: u64,
}

impl MemStats {
    pub fn total_bytes(&self) -> u64 {
        self.load_bytes + self.store_bytes
    }

    /// Heap-data traffic only (frame/spill bytes excluded).
    pub fn data_bytes(&self) -> u64 {
        self.data_load_bytes + self.data_store_bytes
    }

    /// Traffic crossing the L1↔L2 boundary: fills into L1 plus dirty
    /// lines written back out of it — what a roofline L2 ceiling caps.
    pub fn beyond_l1_bytes(&self, line_bytes: u32) -> u64 {
        (self.l1.misses + self.l1.writebacks) * line_bytes as u64
    }

    /// Traffic crossing the L2↔memory boundary: fills into L2 plus dirty
    /// write-backs leaving it — what a roofline DRAM ceiling caps.
    pub fn beyond_l2_bytes(&self, line_bytes: u32) -> u64 {
        (self.l2.misses + self.l2.writebacks) * line_bytes as u64
    }

    /// Heap-data traffic crossing the L1↔L2 boundary — the L2 ceiling's
    /// input with frame (stack) lines excluded, mirroring the static
    /// side's frame-free closed forms.
    pub fn data_beyond_l1_bytes(&self, line_bytes: u32) -> u64 {
        (self.data_l1_fills + self.data_l1_writebacks) * line_bytes as u64
    }

    /// Heap-data traffic crossing the L2↔memory boundary (see
    /// [`MemStats::data_beyond_l1_bytes`]).
    pub fn data_beyond_l2_bytes(&self, line_bytes: u32) -> u64 {
        (self.data_l2_fills + self.data_l2_writebacks) * line_bytes as u64
    }
}

/// Line number of an empty way. No access produces it: line numbers are
/// addresses shifted right by at least three bits.
const EMPTY: u64 = u64::MAX;
/// [`Level::meta`] flag: the line lies in the stack region.
const STACK: u64 = 1;
/// [`Level::meta`] flag: the line holds stores not yet written back.
const DIRTY: u64 = 2;
/// Bits of [`Level::meta`] below the recency stamp.
const FLAGS: u64 = STACK | DIRTY;

/// Sets wider than this many ways get a way predictor.
const WIDE: usize = 16;

/// A line and the way (flat index) holding it: a set's most recently
/// used way, or a way-predictor entry.
#[derive(Clone, Copy)]
struct Way {
    line: u64,
    way: usize,
}

/// An unused [`Way`] entry: its line never matches, so its way is never
/// read.
const NO_WAY: Way = Way {
    line: EMPTY,
    way: 0,
};

/// One set-associative level as flat, set-major way tables: way `w` of
/// set `s` is entry `s * assoc + w` of `lines` and `meta`.
///
/// Replacement is exact LRU by recency stamps. Every fill, and every hit
/// on a way other than its set's MRU way, ticks `clock` and stamps the
/// way, so within a set the least recently used way carries the smallest
/// stamp. A hit on the MRU way leaves the stamps alone: that way already
/// carries its set's largest stamp, and stamps are only ever compared
/// within a set.
struct Level {
    /// Line held by each way, [`EMPTY`] when invalid.
    lines: Box<[u64]>,
    /// Per way: recency stamp `<< 2`, OR-ed with [`DIRTY`] and
    /// [`STACK`]. Empty ways are 0, below every stamp, so the smallest
    /// entry of a set is its victim, empty ways first.
    meta: Box<[u64]>,
    /// Per set, its most recently used way.
    mru: Box<[Way]>,
    /// Way predictor for sets wider than [`WIDE`] ways (empty otherwise,
    /// where a search is cheap): one entry per way, rounded up to a power
    /// of two, indexed by a multiplicative hash of the line, holding
    /// where a line was last found or filled. Evicting a line clears its
    /// entry, so an entry's line is always resident in its way: a match
    /// is a hit found without searching the set.
    hints: Box<[Way]>,
    /// `64 - log2(hints.len())`: the hash keeps the product's top bits.
    hint_shift: u32,
    assoc: usize,
    sets: u64,
    /// `sets - 1` when the set count is a power of two: index by mask.
    mask: Option<u64>,
    clock: u64,
}

impl Level {
    fn new(level: CacheLevel, line_bytes: u32) -> Level {
        // the geometry formulas live in mira-arch so the static models
        // and the simulator can never disagree about them
        let sets = level.sets(line_bytes) as usize;
        let assoc = level.ways(line_bytes) as usize;
        let hints = if assoc > WIDE {
            (sets * assoc).next_power_of_two()
        } else {
            0
        };
        Level {
            lines: vec![EMPTY; sets * assoc].into_boxed_slice(),
            meta: vec![0; sets * assoc].into_boxed_slice(),
            mru: vec![NO_WAY; sets].into_boxed_slice(),
            hints: vec![NO_WAY; hints].into_boxed_slice(),
            hint_shift: 64 - hints.trailing_zeros(),
            assoc,
            sets: sets as u64,
            mask: sets.is_power_of_two().then_some(sets as u64 - 1),
            clock: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        match self.mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets) as usize,
        }
    }

    fn hint_of(&self, line: u64) -> usize {
        (line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.hint_shift) as usize
    }

    /// The flat index of `line`'s way in `set`, if resident: from the way
    /// predictor of a wide set, else by searching the set (and recording
    /// the way found in the predictor).
    fn find(&mut self, set: usize, line: u64) -> Option<usize> {
        let hint = (!self.hints.is_empty()).then(|| self.hint_of(line));
        if let Some(h) = hint {
            if self.hints[h].line == line {
                return Some(self.hints[h].way);
            }
        }
        let base = set * self.assoc;
        let i = self.lines[base..base + self.assoc]
            .iter()
            .position(|&l| l == line)?;
        let way = base + i;
        if let Some(h) = hint {
            self.hints[h] = Way { line, way };
        }
        Some(way)
    }

    /// When `line` is resident in `set`, make it MRU, OR in `dirty`
    /// ([`DIRTY`] or 0) and return true.
    fn hit(&mut self, set: usize, line: u64, dirty: u64) -> bool {
        let mru = self.mru[set];
        if mru.line == line {
            self.meta[mru.way] |= dirty;
            return true;
        }
        let Some(w) = self.find(set, line) else {
            return false;
        };
        self.clock += 1;
        self.meta[w] = self.clock << 2 | (self.meta[w] & FLAGS) | dirty;
        self.mru[set] = Way { line, way: w };
        true
    }

    /// `line` replaces the LRU way of `set` (an empty one while the set
    /// has any) and becomes MRU. Returns the victim as `(line, was_stack)`
    /// when it was dirty.
    fn fill(&mut self, set: usize, line: u64, dirty: u64, stack: bool) -> Option<(u64, bool)> {
        let base = set * self.assoc;
        let ways = &self.meta[base..base + self.assoc];
        let (mut lru, mut oldest) = (0, ways[0]);
        for (i, &m) in ways.iter().enumerate().skip(1) {
            if m < oldest {
                (lru, oldest) = (i, m);
            }
        }
        let w = base + lru;
        let old = self.lines[w];
        if !self.hints.is_empty() {
            let h = self.hint_of(old);
            if self.hints[h].line == old {
                self.hints[h] = NO_WAY;
            }
            let h = self.hint_of(line);
            self.hints[h] = Way { line, way: w };
        }
        self.clock += 1;
        self.lines[w] = line;
        self.meta[w] = self.clock << 2 | dirty | if stack { STACK } else { 0 };
        self.mru[set] = Way { line, way: w };
        (oldest & DIRTY != 0).then_some((old, oldest & STACK != 0))
    }

    /// Set the dirty bit of `line` if resident, *without* touching LRU
    /// order (a write-back arriving from the level above is not a use).
    /// Returns whether the line was resident.
    fn mark_dirty(&mut self, line: u64) -> bool {
        match self.find(self.set_of(line), line) {
            Some(w) => {
                self.meta[w] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Cold: every way empty.
    fn clear(&mut self) {
        self.lines.fill(EMPTY);
        self.meta.fill(0);
        self.mru.fill(NO_WAY);
        self.hints.fill(NO_WAY);
        self.clock = 0;
    }
}

/// The simulator: L1 and L2, shared line size, LRU, write-allocate,
/// write-back.
pub struct CacheSim {
    line_shift: u32,
    l1: Level,
    l2: Level,
    stats: MemStats,
}

/// Count one dirty line leaving L2 for memory.
fn writeback_from_l2(stats: &mut MemStats, stack: bool) {
    stats.l2.writebacks += 1;
    if !stack {
        stats.data_l2_writebacks += 1;
    }
}

/// A dirty line leaving L1 heads for L2: mark the resident copy dirty
/// (no LRU update — a write-back is not a use), or pass straight
/// through to memory as an L2 write-back when L2 evicted it already.
///
/// A line can legitimately produce *two* L2→memory write-backs when it
/// is re-dirtied across an intervening L2 eviction (the L2 victim
/// carries the earlier store generation, the pass-through the later
/// one) — each crossing moves distinct data, as on real hardware.
fn writeback_from_l1(l2: &mut Level, stats: &mut MemStats, line: u64, stack: bool) {
    stats.l1.writebacks += 1;
    if !stack {
        stats.data_l1_writebacks += 1;
    }
    if !l2.mark_dirty(line) {
        writeback_from_l2(stats, stack);
    }
}

impl CacheSim {
    /// Build a cold simulator from a declared hierarchy.
    ///
    /// Panics on a line size that is not a power of two ≥ 8 — the
    /// description parser rejects those, and a hand-built hierarchy that
    /// slipped one through would make the simulator silently disagree
    /// with the static line-footprint models.
    pub fn new(h: CacheHierarchy) -> CacheSim {
        let line = h.line_bytes;
        assert!(
            line >= 8 && line.is_power_of_two(),
            "cache line size must be a power of two >= 8, got {line}"
        );
        CacheSim {
            line_shift: line.trailing_zeros(),
            l1: Level::new(h.l1, line),
            l2: Level::new(h.l2, line),
            stats: MemStats::default(),
        }
    }

    pub fn line_bytes(&self) -> u32 {
        1 << self.line_shift
    }

    /// Record one access. `stack` marks accesses outside the VM heap
    /// (frame slots and spills); they are simulated identically but their
    /// bytes and L1 fills are tallied separately.
    ///
    /// Always inlined: the VM calls this on every explicit load and store,
    /// and its body is the counters plus the MRU-hit compare.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, len: u32, store: bool, stack: bool) {
        let bytes = len as u64;
        let data_bytes = if stack { 0 } else { bytes };
        if store {
            self.stats.stores += 1;
            self.stats.store_bytes += bytes;
            self.stats.data_store_bytes += data_bytes;
        } else {
            self.stats.loads += 1;
            self.stats.load_bytes += bytes;
            self.stats.data_load_bytes += data_bytes;
        }
        let dirty = if store { DIRTY } else { 0 };
        let first = addr >> self.line_shift;
        let last = addr.wrapping_add(bytes.max(1) - 1) >> self.line_shift;
        if first == last {
            // the common case, a hit on the set's most recently used way,
            // runs in line: one compare, no data movement, no call
            let mru = self.l1.mru[self.l1.set_of(first)];
            if mru.line == first {
                self.stats.l1.hits += 1;
                self.l1.meta[mru.way] |= dirty;
                return;
            }
        }
        for line in first..=last {
            self.touch(line, dirty, stack);
        }
    }

    /// Probe one line through both levels: an L1 hit, or an L1 fill
    /// (writing back a dirty victim) and an L2 probe.
    #[inline(never)]
    fn touch(&mut self, line: u64, dirty: u64, stack: bool) {
        let set = self.l1.set_of(line);
        if self.l1.hit(set, line, dirty) {
            self.stats.l1.hits += 1;
            return;
        }
        if let Some((v, v_stack)) = self.l1.fill(set, line, dirty, stack) {
            writeback_from_l1(&mut self.l2, &mut self.stats, v, v_stack);
        }
        self.stats.l1.misses += 1;
        if stack {
            self.stats.stack_l1_fills += 1;
        } else {
            self.stats.data_l1_fills += 1;
        }
        // the line fills into L2 clean — the freshly written data lives
        // (dirty) in L1 until it is evicted back down
        let set = self.l2.set_of(line);
        if self.l2.hit(set, line, 0) {
            self.stats.l2.hits += 1;
            return;
        }
        if let Some((_, v_stack)) = self.l2.fill(set, line, 0, stack) {
            writeback_from_l2(&mut self.stats, v_stack);
        }
        self.stats.l2.misses += 1;
        if !stack {
            self.stats.data_l2_fills += 1;
        }
    }

    /// Write back every still-resident dirty line (L1 first, so its
    /// write-backs land in L2 before L2 drains), leaving residency and
    /// LRU order untouched. Call before reading [`CacheSim::stats`] when
    /// end-of-run store traffic must be on the books — a kernel's final
    /// results sit dirty in cache until something forces them out.
    pub fn flush(&mut self) {
        let CacheSim { l1, l2, stats, .. } = self;
        for (meta, &line) in l1.meta.iter_mut().zip(l1.lines.iter()) {
            if *meta & DIRTY != 0 {
                *meta &= !DIRTY;
                writeback_from_l1(l2, stats, line, *meta & STACK != 0);
            }
        }
        for meta in l2.meta.iter_mut() {
            if *meta & DIRTY != 0 {
                *meta &= !DIRTY;
                writeback_from_l2(stats, *meta & STACK != 0);
            }
        }
    }

    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Back to a cold cache with zeroed counters.
    pub fn reset(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.stats = MemStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_arch::{CacheHierarchy, CacheLevel};

    fn tiny() -> CacheSim {
        // 2 sets × 2 ways × 64B lines = 256B L1; 1KB L2
        CacheSim::new(CacheHierarchy {
            line_bytes: 64,
            l1: CacheLevel {
                size_bytes: 256,
                assoc: 2,
            },
            l2: CacheLevel {
                size_bytes: 1024,
                assoc: 4,
            },
        })
    }

    #[test]
    fn bytes_and_word_counts() {
        let mut s = tiny();
        s.access(0, 8, false, false);
        s.access(8, 8, true, false);
        s.access(64, 16, false, false);
        let st = s.stats();
        assert_eq!(st.loads, 2);
        assert_eq!(st.stores, 1);
        assert_eq!(st.load_bytes, 24);
        assert_eq!(st.store_bytes, 8);
        assert_eq!(st.total_bytes(), 32);
        assert_eq!(st.data_bytes(), 32, "no stack accesses yet");
    }

    #[test]
    fn data_vs_stack_byte_split() {
        let mut s = tiny();
        s.access(0, 8, false, false); // data load
        s.access(1 << 20, 8, true, true); // stack store (spill)
        s.access(8, 16, true, false); // data store
        let st = s.stats();
        assert_eq!(st.load_bytes, 8);
        assert_eq!(st.store_bytes, 24);
        assert_eq!(st.data_load_bytes, 8);
        assert_eq!(st.data_store_bytes, 16, "the spill store is excluded");
        assert_eq!(st.data_bytes(), 24);
    }

    #[test]
    fn same_line_hits_after_cold_fill() {
        let mut s = tiny();
        s.access(0, 8, false, false);
        for i in 1..8 {
            s.access(i * 8, 8, false, false);
        }
        let st = s.stats();
        assert_eq!(st.l1.misses, 1, "one cold fill for the line");
        assert_eq!(st.l1.hits, 7);
        assert_eq!(st.l2.misses, 1);
        assert_eq!(st.data_l1_fills, 1);
    }

    #[test]
    fn lru_evicts_least_recent_way() {
        let mut s = tiny();
        // set 0 holds lines 0, 2, 4, ... (2 sets); fill both ways
        s.access(0, 8, false, false); // line 0 → miss
        s.access(128, 8, false, false); // line 2 → miss
        s.access(0, 8, false, false); // line 0 → hit, now MRU
        s.access(256, 8, false, false); // line 4 → miss, evicts line 2
        s.access(0, 8, false, false); // line 0 still resident → hit
        s.access(128, 8, false, false); // line 2 evicted → miss, but L2 hit
        let st = s.stats();
        assert_eq!(st.l1.misses, 4);
        assert_eq!(st.l1.hits, 2);
        assert_eq!(st.l2.misses, 3, "only the cold misses reach memory");
        assert_eq!(st.l2.hits, 1);
        assert_eq!(st.l1.writebacks, 0, "clean evictions write nothing back");
    }

    #[test]
    fn straddling_access_touches_both_lines() {
        let mut s = tiny();
        s.access(56, 16, false, false); // crosses the 64-byte boundary
        let st = s.stats();
        assert_eq!(st.l1.misses, 2);
        assert_eq!(st.load_bytes, 16);
    }

    #[test]
    fn stack_fills_tallied_separately() {
        let mut s = tiny();
        s.access(0, 8, false, false);
        s.access(1 << 20, 8, true, true);
        let st = s.stats();
        assert_eq!(st.data_l1_fills, 1);
        assert_eq!(st.stack_l1_fills, 1);
        assert_eq!(st.l1.misses, 2);
        assert_eq!(st.data_l2_fills, 1, "only the data line counts");
    }

    #[test]
    fn stack_writebacks_excluded_from_data_counters() {
        // one dirty data line and one dirty stack line, both flushed: the
        // totals see two write-backs per level, the data counters one —
        // frame spill traffic must never reach the roofline's deeper
        // ceilings
        let mut s = tiny();
        s.access(0, 8, true, false); // data store
        s.access(1 << 20, 8, true, true); // stack spill store
        s.flush();
        let st = s.stats();
        assert_eq!(st.l1.writebacks, 2);
        assert_eq!(st.l2.writebacks, 2);
        assert_eq!(st.data_l1_writebacks, 1, "{st:?}");
        assert_eq!(st.data_l2_writebacks, 1, "{st:?}");
        assert_eq!(st.data_beyond_l1_bytes(64), (1 + 1) * 64);
        assert_eq!(st.beyond_l1_bytes(64), (2 + 2) * 64);
    }

    #[test]
    fn dirty_eviction_writes_back_and_marks_l2() {
        let mut s = tiny();
        s.access(0, 8, true, false); // line 0 dirty in L1
        s.access(128, 8, false, false); // line 2 fills the other way
        s.access(256, 8, false, false); // line 4 evicts line 0 (LRU) → wb
        let st = s.stats();
        assert_eq!(st.l1.writebacks, 1, "dirty line 0 written back to L2");
        assert_eq!(st.l2.writebacks, 0, "L2 still holds it — absorbed");
        // bring line 0 back: it must come from L2 (hit), not memory
        s.access(0, 8, false, false);
        assert_eq!(s.stats().l2.hits, 1);
        // flushing now drains the re-dirtied L2 copy
        s.flush();
        assert_eq!(s.stats().l2.writebacks, 1, "L2's dirty copy reaches memory");
    }

    #[test]
    fn writeback_passes_through_when_l2_evicted_the_line() {
        // L1 keeps a dirty line alive while 4 other lines of the same L2
        // set march through L2 and evict its copy; the eventual L1
        // eviction then writes back straight to memory
        let mut s = tiny();
        s.access(0, 8, true, false); // line 0 dirty in L1 (set 0 of both)
                                     // lines 8,16,24,32 map to L2 set 0 (8 sets… L2: 1024/64/4 = 4 sets)
                                     // pick lines ≡ 0 mod 4 for L2 set 0: 4, 8, 12, 16 → addrs 256·k
        for k in 1..=4u64 {
            // L1 set of line 4k alternates; keep line 0 in L1 by touching it
            s.access(0, 8, false, false);
            s.access(4 * k * 64, 8, false, false);
        }
        // L2 set 0 now holds {16,12,8,4}: line 0 was evicted clean from L2
        // evict line 0 from its L1 set (set 0 holds {0, even lines…}):
        // lines 2 and 4 are already there; touch two fresh even lines
        s.access(6 * 64, 8, false, false);
        s.access(10 * 64, 8, false, false);
        let st = s.stats();
        assert_eq!(st.l1.writebacks, 1, "dirty line 0 left L1");
        assert_eq!(
            st.l2.writebacks, 1,
            "L2 no longer held line 0 — write-back passed through to memory"
        );
    }

    #[test]
    fn flush_drains_dirty_lines_once_and_keeps_residency() {
        let mut s = tiny();
        s.access(0, 8, true, false);
        s.access(64, 8, true, false);
        s.access(128, 8, false, false);
        s.flush();
        let st = s.stats();
        assert_eq!(st.l1.writebacks, 2, "both dirty lines drained");
        assert_eq!(st.l2.writebacks, 2, "…and propagated to memory");
        // idempotent: nothing left dirty
        s.flush();
        assert_eq!(s.stats().l1.writebacks, 2);
        // lines stayed resident: re-touching them hits
        s.access(0, 8, false, false);
        s.access(64, 8, false, false);
        assert_eq!(s.stats().l1.misses, 3, "no new misses after flush");
    }

    #[test]
    fn streaming_store_traffic_equals_store_bytes() {
        // stream a 16KiB array (≫ 256B L1, ≫ 1KB L2) with stores: after a
        // flush, every stored byte has crossed both boundaries exactly
        // once — fills (write-allocate) plus write-backs
        let mut s = tiny();
        let lines = 256u64;
        for i in 0..lines * 8 {
            s.access(i * 8, 8, true, false);
        }
        s.flush();
        let st = s.stats();
        assert_eq!(st.l1.misses, lines);
        assert_eq!(st.l1.writebacks, lines, "every line was dirty");
        assert_eq!(st.l2.writebacks, lines);
        assert_eq!(st.beyond_l1_bytes(64), 2 * st.store_bytes);
        assert_eq!(st.beyond_l2_bytes(64), 2 * st.store_bytes);
    }

    #[test]
    fn reset_is_cold() {
        let mut s = tiny();
        s.access(0, 8, true, false);
        s.access(0, 8, false, false);
        assert_eq!(s.stats().l1.hits, 1);
        s.reset();
        assert_eq!(s.stats(), MemStats::default());
        s.access(0, 8, false, false);
        assert_eq!(s.stats().l1.misses, 1, "cache content was cleared");
        s.flush();
        assert_eq!(s.stats().l1.writebacks, 0, "dirty bits were cleared too");
    }

    #[test]
    fn non_power_of_two_set_count_indexes_by_remainder() {
        // 3 sets × 2 ways: lines 0, 3, 6 share set 0, so the third evicts
        // the first; line 1 lives in set 1 and is never disturbed
        let mut s = CacheSim::new(CacheHierarchy {
            line_bytes: 64,
            l1: CacheLevel {
                size_bytes: 3 * 2 * 64,
                assoc: 2,
            },
            l2: CacheLevel {
                size_bytes: 1 << 16,
                assoc: 4,
            },
        });
        for line in [1u64, 0, 3, 6, 1, 3, 0] {
            s.access(line * 64, 8, false, false);
        }
        let st = s.stats();
        assert_eq!(st.l1.hits, 2, "line 1 and line 3 hit again: {st:?}");
        assert_eq!(st.l1.misses, 5, "line 0 was evicted by line 6: {st:?}");
    }

    #[test]
    fn hand_built_level_wider_than_itself_holds_its_capacity() {
        // one set of 2^26 ways at 64-byte lines spans 4 GiB: the parser
        // refuses it, and a hand-built copy is simulated as the
        // fully-associative 512 lines its 32 KiB can hold (the zero-way
        // L2 as direct-mapped)
        let mut s = CacheSim::new(CacheHierarchy {
            line_bytes: 64,
            l1: CacheLevel {
                size_bytes: 32 * 1024,
                assoc: 67_108_864,
            },
            l2: CacheLevel {
                size_bytes: 1 << 20,
                assoc: 0,
            },
        });
        for line in 0..513u64 {
            s.access(line * 64, 8, false, false);
        }
        s.access(64, 8, false, false); // line 1 survived
        s.access(0, 8, false, false); // line 0 was the LRU victim
        let st = s.stats();
        assert_eq!((st.l1.hits, st.l1.misses), (1, 514), "{st:?}");
    }

    #[test]
    fn streaming_fills_equal_footprint_when_resident() {
        // default hierarchy: 3 arrays of 1024 doubles fit L1 entirely →
        // cold fills = 3 · 8KiB/64 = 384 no matter how many sweeps
        let mut s = CacheSim::new(CacheHierarchy::default());
        let base = [0u64, 8192, 16384];
        for _ in 0..3 {
            for i in 0..1024u64 {
                for b in base {
                    s.access(b + i * 8, 8, false, false);
                }
            }
        }
        assert_eq!(s.stats().data_l1_fills, 384);
        assert_eq!(s.stats().l1.misses, 384);
        assert_eq!(s.stats().l1.writebacks, 0, "loads never dirty a line");
    }
}
