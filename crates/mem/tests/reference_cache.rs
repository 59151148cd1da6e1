//! An independent reference cache, and the differential test that holds
//! `mira_mem::CacheSim` to it.
//!
//! `Vm` and `ReferenceVm` share one `CacheSim`, so their agreement says
//! nothing about the simulator itself. The reference here shares no code
//! with it: each set is a plain list of lines ordered most recently used
//! first, and every rule of the simulator's contract is re-stated
//! directly (true LRU, write-allocate, dirty and stack bits, L1
//! write-backs marking L2 without a use or passing through to memory,
//! `flush` without eviction, `reset`). Seeded traces then drive both and
//! compare the full `MemStats` every [`CHECK_EVERY`] accesses.
//!
//! The last test plants known defects in the reference and asserts the
//! harness catches each one within the trace budget, so a pass here
//! means the comparison can fail.

use mira_arch::{ArchDescription, CacheHierarchy, CacheLevel};
use mira_mem::{CacheSim, MemStats};

/// Compare the full counters after this many accesses (and after every
/// flush and reset).
const CHECK_EVERY: usize = 16;
/// Accesses per geometry and seed: the trace budget.
const BUDGET: usize = 60_000;
/// Addresses at or above this lie in the stack region.
const STACK_BASE: u64 = 1 << 40;
/// Start of the data region.
const DATA_BASE: u64 = 1 << 20;

/// A defect planted in the reference to show the oracle bites.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Bug {
    /// Evict the most recently used line instead of the least.
    MruVictim,
    /// An L1 write-back landing in L2 refreshes the line's recency.
    MarkDirtyRefreshes,
    /// A write-back passing through a non-resident L2 is not counted.
    DropPassThrough,
}

#[derive(Clone, Copy)]
struct Line {
    line: u64,
    dirty: bool,
    stack: bool,
}

/// One level: per set, resident lines, most recently used first.
struct RefLevel {
    sets: Vec<Vec<Line>>,
    ways: usize,
}

impl RefLevel {
    fn new(level: CacheLevel, line_bytes: u32) -> RefLevel {
        let ways = level.assoc as usize;
        let sets = level.size_bytes as usize / (line_bytes as usize * ways);
        assert!(sets >= 1, "reference needs a valid geometry");
        RefLevel {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<Line> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    /// Use `line`: move it to the front, or insert it there, evicting the
    /// back of a full set. Returns whether it hit, and the evicted line
    /// if it was dirty.
    fn use_line(
        &mut self,
        line: u64,
        dirty: bool,
        stack: bool,
        bug: Option<Bug>,
    ) -> (bool, Option<Line>) {
        let ways = self.ways;
        let set = self.set(line);
        if let Some(pos) = set.iter().position(|l| l.line == line) {
            let mut l = set.remove(pos);
            l.dirty |= dirty;
            set.insert(0, l);
            return (true, None);
        }
        let mut victim = None;
        if set.len() == ways {
            let v = if bug == Some(Bug::MruVictim) {
                set.remove(0)
            } else {
                set.remove(ways - 1)
            };
            victim = v.dirty.then_some(v);
        }
        set.insert(0, Line { line, dirty, stack });
        (false, victim)
    }
}

/// What a trace exercised, as seen by the reference.
#[derive(Default, Debug)]
struct Coverage {
    accesses: usize,
    straddles: usize,
    /// L1 write-backs that found their line in L2.
    absorbed: usize,
    /// L1 write-backs that passed through to memory.
    passed_through: usize,
    /// Dirty lines L2 evicted.
    l2_dirty_evictions: usize,
    stack_fills: usize,
    flushes: usize,
    resets: usize,
}

struct RefCache {
    shift: u32,
    l1: RefLevel,
    l2: RefLevel,
    stats: MemStats,
    bug: Option<Bug>,
    cov: Coverage,
}

impl RefCache {
    fn new(h: CacheHierarchy, bug: Option<Bug>) -> RefCache {
        RefCache {
            shift: h.line_bytes.trailing_zeros(),
            l1: RefLevel::new(h.l1, h.line_bytes),
            l2: RefLevel::new(h.l2, h.line_bytes),
            stats: MemStats::default(),
            bug,
            cov: Coverage::default(),
        }
    }

    fn access(&mut self, addr: u64, len: u32, store: bool, stack: bool) {
        let s = &mut self.stats;
        if store {
            s.stores += 1;
            s.store_bytes += len as u64;
        } else {
            s.loads += 1;
            s.load_bytes += len as u64;
        }
        if !stack {
            if store {
                s.data_store_bytes += len as u64;
            } else {
                s.data_load_bytes += len as u64;
            }
        }
        let first = addr >> self.shift;
        let last = (addr + len.max(1) as u64 - 1) >> self.shift;
        self.cov.accesses += 1;
        self.cov.straddles += (last > first) as usize;
        for line in first..=last {
            let (hit, victim) = self.l1.use_line(line, store, stack, self.bug);
            if let Some(v) = victim {
                self.l1_writeback(v);
            }
            if hit {
                self.stats.l1.hits += 1;
                continue;
            }
            self.stats.l1.misses += 1;
            if stack {
                self.stats.stack_l1_fills += 1;
                self.cov.stack_fills += 1;
            } else {
                self.stats.data_l1_fills += 1;
            }
            let (hit2, victim2) = self.l2.use_line(line, false, stack, self.bug);
            if let Some(v) = victim2 {
                self.cov.l2_dirty_evictions += 1;
                self.l2_writeback(v.stack);
            }
            if hit2 {
                self.stats.l2.hits += 1;
            } else {
                self.stats.l2.misses += 1;
                if !stack {
                    self.stats.data_l2_fills += 1;
                }
            }
        }
    }

    fn l2_writeback(&mut self, stack: bool) {
        self.stats.l2.writebacks += 1;
        if !stack {
            self.stats.data_l2_writebacks += 1;
        }
    }

    fn l1_writeback(&mut self, v: Line) {
        self.stats.l1.writebacks += 1;
        if !v.stack {
            self.stats.data_l1_writebacks += 1;
        }
        let refresh = self.bug == Some(Bug::MarkDirtyRefreshes);
        let set = self.l2.set(v.line);
        match set.iter().position(|l| l.line == v.line) {
            Some(pos) => {
                self.cov.absorbed += 1;
                set[pos].dirty = true;
                if refresh {
                    let l = set.remove(pos);
                    set.insert(0, l);
                }
            }
            None => {
                self.cov.passed_through += 1;
                if self.bug != Some(Bug::DropPassThrough) {
                    self.l2_writeback(v.stack);
                }
            }
        }
    }

    fn flush(&mut self) {
        self.cov.flushes += 1;
        let mut dirty = Vec::new();
        for set in &mut self.l1.sets {
            for l in set.iter_mut().filter(|l| l.dirty) {
                l.dirty = false;
                dirty.push(*l);
            }
        }
        for l in dirty {
            self.l1_writeback(l);
        }
        let mut dirty = Vec::new();
        for set in &mut self.l2.sets {
            for l in set.iter_mut().filter(|l| l.dirty) {
                l.dirty = false;
                dirty.push(l.stack);
            }
        }
        for stack in dirty {
            self.l2_writeback(stack);
        }
    }

    fn reset(&mut self) {
        self.cov.resets += 1;
        for level in [&mut self.l1, &mut self.l2] {
            for set in &mut level.sets {
                set.clear();
            }
        }
        self.stats = MemStats::default();
    }
}

/// splitmix64: a small, seedable, dependency-free generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

enum Op {
    Access {
        addr: u64,
        len: u32,
        store: bool,
        stack: bool,
    },
    Flush,
    Reset,
}

/// The access shapes a trace switches between, each for a few hundred
/// accesses.
enum Pattern {
    /// Sequential streams over distinct arrays; the last one is stored
    /// to, as in a triad.
    Streams {
        cursors: Vec<u64>,
        stride: u64,
        next: usize,
    },
    /// Random words within a working set of `lines` lines.
    Hot {
        base: u64,
        lines: u64,
        store_one_in: u64,
    },
    /// Lines that all map to one L1 set, more of them than it has ways,
    /// touched in a shuffled cycle: replacement order decides every miss.
    SetSweep { lines: Vec<u64>, next: usize },
    /// A few lines stored to over and over between the steps of a
    /// stream: the hot lines stay dirty in L1 while the stream pushes
    /// their copies out of L2, so their eventual L1 evictions (or the
    /// next flush) pass through to memory.
    HotAndStream {
        hot: Vec<u64>,
        cursor: u64,
        stride: u64,
        step: u64,
    },
}

/// A seeded trace over one geometry.
struct Trace {
    rng: Rng,
    line: u64,
    l1_sets: u64,
    l1_ways: u64,
    l1_lines: u64,
    l2_sets: u64,
    l2_ways: u64,
    l2_lines: u64,
    pattern: Pattern,
    left: usize,
    emitted: usize,
    reset_at: usize,
}

impl Trace {
    fn new(h: CacheHierarchy, seed: u64, budget: usize) -> Trace {
        let line = h.line_bytes as u64;
        let l1_lines = h.l1.size_bytes as u64 / line;
        let l1_sets = l1_lines / h.l1.assoc as u64;
        Trace {
            rng: Rng(seed),
            line,
            l1_sets,
            l1_ways: h.l1.assoc as u64,
            l1_lines,
            l2_sets: h.l2.size_bytes as u64 / line / h.l2.assoc as u64,
            l2_ways: h.l2.assoc as u64,
            l2_lines: h.l2.size_bytes as u64 / line,
            // replaced before the first access (`left` is 0)
            pattern: Pattern::SetSweep {
                lines: Vec::new(),
                next: 0,
            },
            left: 0,
            emitted: 0,
            reset_at: budget / 2,
        }
    }

    /// A line-aligned address in the data region, spread over four times
    /// the L2 capacity.
    fn data_line(&mut self) -> u64 {
        DATA_BASE + self.rng.below(4 * self.l2_lines) * self.line
    }

    /// A working-set size around one of the capacities.
    fn working_set(&mut self) -> u64 {
        let (l1, l2) = (self.l1_lines, self.l2_lines);
        [l1 / 2, l1 + l1 / 2, l1 * 3, l2 / 2, l2 + l2 / 4, l2 * 2][self.rng.below(6) as usize]
            .max(2)
    }

    fn pick_pattern(&mut self) {
        self.left = 64 + self.rng.below(512) as usize;
        self.pattern = match self.rng.below(5) {
            0 => Pattern::Streams {
                cursors: (0..1 + self.rng.below(4))
                    .map(|_| self.data_line())
                    .collect(),
                stride: [8, 8, 16, 64, 72][self.rng.below(5) as usize],
                next: 0,
            },
            1 => Pattern::Hot {
                base: self.data_line(),
                lines: self.working_set(),
                store_one_in: 1 + self.rng.below(4),
            },
            2 => {
                let base = self.data_line();
                let n = self.l1_ways + 1 + self.rng.below(3);
                let mut lines: Vec<u64> = (0..n)
                    .map(|k| base + k * self.l1_sets * self.line)
                    .collect();
                for i in (1..lines.len()).rev() {
                    lines.swap(i, self.rng.below(i as u64 + 1) as usize);
                }
                Pattern::SetSweep { lines, next: 0 }
            }
            3 => {
                let hot: Vec<u64> = (0..1 + self.rng.below(4))
                    .map(|_| self.data_line())
                    .collect();
                // either a plain line-by-line stream, or one that stays in
                // the first hot line's L2 set and evicts it within
                // `l2_ways` steps
                let (cursor, stride) = if self.rng.chance(2) {
                    (self.data_line(), self.line)
                } else {
                    (hot[0], self.l2_sets * self.line)
                };
                self.left += 4 * (self.l2_ways as usize + 2);
                Pattern::HotAndStream {
                    hot,
                    cursor,
                    stride,
                    step: 0,
                }
            }
            // frame traffic: spills and reloads in the stack region
            _ => Pattern::Hot {
                base: STACK_BASE + self.rng.below(64) * self.line,
                lines: 1 + self.rng.below(self.l1_lines),
                store_one_in: 2,
            },
        };
    }

    fn next_op(&mut self) -> Op {
        if self.emitted == self.reset_at {
            self.emitted += 1;
            return Op::Reset;
        }
        self.emitted += 1;
        if self.rng.chance(2048) {
            return Op::Flush;
        }
        if self.left == 0 {
            self.pick_pattern();
        }
        self.left -= 1;
        let line = self.line;
        let (mut addr, store) = match &mut self.pattern {
            Pattern::Streams {
                cursors,
                stride,
                next,
            } => {
                let i = *next;
                *next = (i + 1) % cursors.len();
                let a = cursors[i];
                cursors[i] += *stride;
                (a, i + 1 == cursors.len() && cursors.len() > 1)
            }
            Pattern::Hot {
                base,
                lines,
                store_one_in,
            } => {
                let (base, lines, store_one_in) = (*base, *lines, *store_one_in);
                let a = base + self.rng.below(lines * line / 8) * 8;
                (a, self.rng.chance(store_one_in))
            }
            Pattern::SetSweep { lines, next } => {
                let a = lines[*next];
                *next = (*next + 1) % lines.len();
                let store = self.rng.chance(3);
                (a + self.rng.below(line / 8) * 8, store)
            }
            Pattern::HotAndStream {
                hot,
                cursor,
                stride,
                step,
            } => {
                *step += 1;
                if *step % 2 == 0 {
                    (hot[(*step / 2) as usize % hot.len()], true)
                } else {
                    *cursor += *stride;
                    (*cursor, false)
                }
            }
        };
        // shapes: mostly aligned words; some 16-byte accesses placed to
        // straddle a line boundary; a few odd lengths at odd offsets
        let mut len = 8;
        match self.rng.below(32) {
            0..=1 => {
                addr = (addr | (line - 1)) - 7;
                len = 16;
            }
            2 => {
                addr += self.rng.below(8);
                len = 1 + self.rng.below(24) as u32;
            }
            _ => {}
        }
        Op::Access {
            addr,
            len,
            store,
            stack: addr >= STACK_BASE,
        }
    }
}

/// Where a run first disagreed.
#[derive(Debug)]
struct Divergence {
    after_accesses: usize,
    expected: MemStats,
    got: MemStats,
}

/// Drive `CacheSim` and the reference (with `bug` planted) through the
/// same trace of `budget` accesses, comparing the full counters every
/// [`CHECK_EVERY`] accesses, after every flush and reset, and after a
/// final flush.
fn differential(
    h: CacheHierarchy,
    seed: u64,
    budget: usize,
    bug: Option<Bug>,
) -> Result<Coverage, Box<Divergence>> {
    let mut sim = CacheSim::new(h);
    let mut reference = RefCache::new(h, bug);
    let mut trace = Trace::new(h, seed, budget);
    let mut since_check = 0;
    let check = |sim: &CacheSim, reference: &RefCache| {
        let (got, expected) = (sim.stats(), reference.stats);
        if got == expected {
            Ok(())
        } else {
            Err(Box::new(Divergence {
                after_accesses: reference.cov.accesses,
                expected,
                got,
            }))
        }
    };
    while reference.cov.accesses < budget {
        match trace.next_op() {
            Op::Access {
                addr,
                len,
                store,
                stack,
            } => {
                sim.access(addr, len, store, stack);
                reference.access(addr, len, store, stack);
                since_check += 1;
                if since_check < CHECK_EVERY {
                    continue;
                }
            }
            Op::Flush => {
                sim.flush();
                reference.flush();
            }
            Op::Reset => {
                sim.reset();
                reference.reset();
            }
        }
        since_check = 0;
        check(&sim, &reference)?;
    }
    sim.flush();
    reference.flush();
    check(&sim, &reference)?;
    Ok(reference.cov)
}

fn level(size_bytes: u32, assoc: u32) -> CacheLevel {
    CacheLevel { size_bytes, assoc }
}

/// The geometries under test: a direct-mapped L1, non-power-of-two set
/// counts, one wide fully-associative set per level (the `nest_corpus`
/// shape), and both bundled machines.
fn geometries() -> Vec<(&'static str, CacheHierarchy)> {
    let h = |line_bytes, l1, l2| CacheHierarchy { line_bytes, l1, l2 };
    vec![
        // fewer L2 sets than L1 sets, so an L2 eviction can leave the
        // line dirty in L1 (a later pass-through) even with one L1 way
        (
            "direct-mapped L1",
            h(64, level(64 * 64, 1), level(32 * 4 * 64, 4)),
        ),
        (
            "3 and 12 sets",
            h(64, level(3 * 2 * 64, 2), level(12 * 4 * 64, 4)),
        ),
        (
            "one 128-way set",
            h(64, level(128 * 64, 128), level(1024 * 64, 1024)),
        ),
        (
            "generic-x86_64",
            ArchDescription::default().cache_hierarchy(),
        ),
        // the geometry of mira-serve's bundled `avx2-fma` description
        ("avx2-fma", h(64, level(32 << 10, 8), level(1 << 20, 16))),
    ]
}

#[test]
fn cachesim_matches_the_reference_cache() {
    for (name, h) in geometries() {
        for seed in [1, 2, 3] {
            let cov = differential(h, seed, BUDGET, None).unwrap_or_else(|d| {
                panic!(
                    "{name}, seed {seed}: CacheSim diverged from the reference after {} accesses\n\
                     reference {:#?}\nCacheSim {:#?}",
                    d.after_accesses, d.expected, d.got
                )
            });
            // the trace reached every behaviour the contract names
            assert!(cov.straddles > 0, "{name}/{seed}: {cov:?}");
            assert!(cov.stack_fills > 0, "{name}/{seed}: {cov:?}");
            assert!(cov.absorbed > 0, "{name}/{seed}: {cov:?}");
            assert!(cov.passed_through > 0, "{name}/{seed}: {cov:?}");
            assert!(cov.l2_dirty_evictions > 0, "{name}/{seed}: {cov:?}");
            assert!(cov.flushes > 1 && cov.resets == 1, "{name}/{seed}: {cov:?}");
        }
    }
}

#[test]
fn the_oracle_catches_planted_defects() {
    for bug in [
        Bug::MruVictim,
        Bug::MarkDirtyRefreshes,
        Bug::DropPassThrough,
    ] {
        for (name, h) in geometries() {
            match differential(h, 1, BUDGET, Some(bug)) {
                Ok(cov) => panic!("{bug:?} on {name} survived {BUDGET} accesses: {cov:?}"),
                Err(d) => eprintln!(
                    "{bug:?} on {name}: caught after {} accesses",
                    d.after_accesses
                ),
            }
        }
    }
}
