//! The answer cache: a bounded table of the machine-independent values
//! a placement reads, keyed by compiled program and parameter values,
//! with the finished placements of the last two ceilings that read them.
//!
//! A placement is a machine's ceilings applied to a handful of
//! machine-independent values ([`mira_roofline::PlacementForms`]): the
//! FLOPs, the footprint count, data bytes, resident lines, streaming
//! bytes, and nest traffic at a capacity. They depend only on the
//! kernel's compiled [`PlacementProgram`](crate::PlacementProgram) and
//! the live parameter values, so an entry is keyed by `(program id,
//! live values)` and holds those values (each form as the output of its
//! primitive section, before the constant content scales it).
//! [`ServeIndex::place_cached`] runs the one placement loop over an
//! entry under the querying kernel's own ceilings, running program
//! sections only for the values the entry does not hold yet. Every
//! machine a program is attached to shares its entries: sweeping a
//! kernel on a second machine reads what the first one computed.
//!
//! Beside its values an entry keeps the finished [`Placement`] under the
//! last 2 attached ceilings that read it, each under the id
//! [`CompiledKernel::attach`] drew for those ceilings. A query whose
//! kernel's id is kept is answered by that placement alone: no section
//! run and no ceiling product. Otherwise the loop runs over the values as
//! above and an `Ok` answer is kept in place of the least recently read
//! one; a refusal is never kept.
//!
//! Nothing can go stale. Programs are immutable and numbered when they
//! are compiled, and every attach draws a new id, so a swap
//! ([`ServeIndex::replace`]) or a fleet reload that only re-attaches
//! ceilings keeps every value valid, and its new ids simply miss the
//! placements kept under the old ones; a recompiled kernel is a new
//! program with new keys. There is no invalidation:
//! [`CacheStats::invalidations`] reads 0.
//!
//! Each value lives in a fixed-size `i64` cell and is stored only when
//! it is exact there: a fraction (a form whose content could not be
//! split off), a magnitude past `i64` or a refusal leaves its cell empty
//! and is re-derived on every query. Nest traffic is kept for the 4
//! capacities asked last. So a cached answer comes out of the same
//! placement loop over the same values as an uncached one, and is
//! bit-identical to it, refusals included; a kept placement is such an
//! answer.
//!
//! The table is 8-way set-associative over a power-of-two slot array:
//! one hash of the key picks a set, a full set evicts its least recently
//! used way (by access stamp). Every slot is 320 bytes (key, stamp, cells
//! and the two kept placements), allocated once at construction with no
//! per-entry heap, so serving through the cache never allocates.
//!
//! [`ServeIndex::place_cached`]: crate::ServeIndex::place_cached
//! [`ServeIndex::replace`]: crate::ServeIndex::replace
//! [`CompiledKernel::attach`]: crate::CompiledKernel::attach

use mira_mem::BoundaryTraffic;
use mira_roofline::Placement;

use crate::index::MAX_QUERY_PARAMS;

/// Ways per set.
const WAYS: usize = 8;

/// Attached ceilings an entry keeps a finished placement for.
const MEMOS: usize = 2;

/// Capacities whose nest traffic an entry keeps.
const NEST_CAPS: usize = 4;

/// Hit/miss/occupancy counters of an [`AnswerCache`] — the capacity
/// tuning signal (`hits / (hits + misses)` is the hit rate).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Probes that found their `(program, values)` entry. A hit may
    /// still run sections for values its entry does not hold.
    pub hits: u64,
    /// The hits answered by a placement the entry kept for the querying
    /// kernel's ceilings: no section ran and no ceiling product.
    pub memo_hits: u64,
    pub misses: u64,
    /// Entries displaced from a full set (least recently used first) —
    /// high eviction counts at low occupancy mean the traffic wants a
    /// bigger table.
    pub evictions: u64,
    /// Kept placements displaced by the placement of a third ceilings
    /// (the least recently read first): queries alternating over more
    /// machines than an entry keeps placements for.
    pub memo_evictions: u64,
    /// Always 0: entries are keyed by immutable compiled programs, so
    /// no swap or reload ever invalidates one.
    pub invalidations: u64,
    /// Occupied slots.
    pub len: usize,
    /// Slot capacity (power of two).
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over probes, 0.0 when the cache was never probed.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

/// The placement forms a [`Cells`] table holds one primitive output
/// each of.
#[derive(Clone, Copy, Debug)]
pub(crate) enum FormCell {
    Flops,
    Footprint,
    DataBytes,
    Resident,
    Streaming,
}

const FORMS: usize = 5;

/// The machine-independent values of one placement point. A cell holds
/// a value only when it is exact in `i64`; everything else is
/// re-derived by the caller.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct Cells {
    /// Bit `i` set: `forms[i]` holds [`FormCell`] `i`'s value.
    filled: u8,
    forms: [i64; FORMS],
    nest_len: u8,
    /// `(capacity, fill lines, write-back lines)`, most recently asked
    /// first.
    nest: [(u64, i64, i64); NEST_CAPS],
}

impl Cells {
    pub(crate) fn get(&self, c: FormCell) -> Option<i128> {
        let i = c as usize;
        (self.filled & (1 << i) != 0).then(|| self.forms[i] as i128)
    }

    /// Keep `v` if a cell holds it exactly.
    pub(crate) fn put(&mut self, c: FormCell, v: i128) {
        if let Ok(x) = i64::try_from(v) {
            self.forms[c as usize] = x;
            self.filled |= 1 << c as usize;
        }
    }

    /// Nest traffic at `cap`, if kept; a hit becomes the most recent.
    pub(crate) fn nest(&mut self, cap: u64) -> Option<BoundaryTraffic> {
        let live = &mut self.nest[..self.nest_len as usize];
        let i = live.iter().position(|&(c, _, _)| c == cap)?;
        live[..=i].rotate_right(1);
        let (_, fill, writeback) = live[0];
        Some(BoundaryTraffic {
            fill_lines: fill as i128,
            writeback_lines: writeback as i128,
        })
    }

    /// Keep nest traffic at `cap` (absent before) if cells hold it
    /// exactly, dropping the least recently asked capacity when full.
    pub(crate) fn put_nest(&mut self, cap: u64, t: BoundaryTraffic) {
        if let (Ok(fill), Ok(writeback)) = (
            i64::try_from(t.fill_lines),
            i64::try_from(t.writeback_lines),
        ) {
            let len = (self.nest_len as usize + 1).min(NEST_CAPS);
            self.nest[..len].rotate_right(1);
            self.nest[0] = (cap, fill, writeback);
            self.nest_len = len as u8;
        }
    }
}

#[derive(Clone, Copy, Default, Debug)]
struct Slot {
    /// The cache clock at the last access; 0 marks an empty slot.
    stamp: u64,
    program: u64,
    /// The live values, zero-padded: a program fixes its arity.
    values: [i128; MAX_QUERY_PARAMS],
    cells: Cells,
    /// `(attach id, placement)`, most recently read first.
    memos: [Option<(u64, Placement)>; MEMOS],
}

impl Slot {
    /// The placement kept under `attach`; a hit becomes the most recent.
    fn memo(&mut self, attach: u64) -> Option<Placement> {
        let i = self
            .memos
            .iter()
            .position(|m| m.is_some_and(|(a, _)| a == attach))?;
        self.memos[..=i].rotate_right(1);
        self.memos[0].map(|(_, p)| p)
    }

    /// Keep `p` under `attach` (absent before), dropping the least
    /// recently read placement when full. True if one was dropped.
    fn keep(&mut self, attach: u64, p: Placement) -> bool {
        let dropped = self.memos[MEMOS - 1].is_some();
        self.memos.rotate_right(1);
        self.memos[0] = Some((attach, p));
        dropped
    }
}

/// A bounded table of placement values in front of the compiled
/// evaluator. See the [module docs](self) for the contract; wire it in
/// with [`crate::ServeIndex::place_cached`] /
/// [`crate::ServeIndex::run_batch_cached`].
#[derive(Debug)]
pub struct AnswerCache {
    /// Sets of [`WAYS`] consecutive slots.
    slots: Vec<Slot>,
    /// `log2` of the set count.
    set_bits: u32,
    /// Access stamps, strictly increasing.
    clock: u64,
    len: usize,
    hits: u64,
    memo_hits: u64,
    misses: u64,
    evictions: u64,
    memo_evictions: u64,
}

impl AnswerCache {
    /// A cache with at least `capacity` slots (rounded up to a power of
    /// two, minimum 16). Memory is bounded at construction (320 bytes a
    /// slot): serving never grows the table.
    pub fn new(capacity: usize) -> AnswerCache {
        let cap = capacity.clamp(16, 1 << 24).next_power_of_two();
        AnswerCache {
            slots: vec![Slot::default(); cap],
            set_bits: (cap / WAYS).trailing_zeros(),
            clock: 0,
            len: 0,
            hits: 0,
            memo_hits: 0,
            misses: 0,
            evictions: 0,
            memo_evictions: 0,
        }
    }

    /// Counters snapshot.
    pub fn probe(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            memo_hits: self.memo_hits,
            misses: self.misses,
            evictions: self.evictions,
            memo_evictions: self.memo_evictions,
            invalidations: 0,
            len: self.len,
            capacity: self.slots.len(),
        }
    }

    /// The set of a key: the top bits of a sum that is linear in every
    /// value, each slot with its own odd multiplier (Fibonacci hashing).
    /// A sweep over one parameter moves the sum by a fixed step, which
    /// spreads its consecutive points evenly over the sets instead of
    /// piling some of them up by chance.
    fn set_of(&self, program: u64, key: &[i128; MAX_QUERY_PARAMS]) -> usize {
        const MUL: [u64; MAX_QUERY_PARAMS] = [
            0x9e37_79b9_7f4a_7c15,
            0xc2b2_ae3d_27d4_eb4f,
            0x1656_67b1_9e37_79f9,
            0x27d4_eb2f_1656_67c5,
        ];
        let mut h = program.wrapping_mul(0xff51_afd7_ed55_8ccd);
        for (&v, m) in key.iter().zip(MUL) {
            h = h
                .wrapping_add((v as u64).wrapping_mul(m))
                .wrapping_add(((v >> 64) as u64).wrapping_mul(m.rotate_left(32)));
        }
        h.checked_shr(64 - self.set_bits).unwrap_or(0) as usize
    }

    /// Answer `(program, values)` under the ceilings attached as
    /// `attach`: the placement the entry keeps for them, or else
    /// `place` run over the entry's cells, its `Ok` answer kept in place
    /// of the least recently read one. `values` are a program's live
    /// values, at most [`MAX_QUERY_PARAMS`] of them.
    pub(crate) fn place<E>(
        &mut self,
        program: u64,
        attach: u64,
        values: &[i128],
        place: impl FnOnce(&mut Cells) -> Result<Placement, E>,
    ) -> Result<Placement, E> {
        let i = self.way(program, values);
        let slot = &mut self.slots[i];
        if let Some(p) = slot.memo(attach) {
            self.memo_hits += 1;
            return Ok(p);
        }
        let r = place(&mut slot.cells);
        if let Ok(p) = r {
            self.memo_evictions += slot.keep(attach, p) as u64;
        }
        r
    }

    /// The slot of `(program, values)`: a hit refreshes the entry's
    /// stamp, a miss installs an empty entry in the set's least recently
    /// used way.
    fn way(&mut self, program: u64, values: &[i128]) -> usize {
        let mut key = [0i128; MAX_QUERY_PARAMS];
        for (k, v) in key.iter_mut().zip(values) {
            *k = *v;
        }
        self.clock += 1;
        let first = self.set_of(program, &key) * WAYS;
        let set = &mut self.slots[first..first + WAYS];
        let found = set
            .iter()
            .position(|w| w.stamp != 0 && w.program == program && w.values == key);
        let way = match found {
            Some(i) => {
                self.hits += 1;
                i
            }
            None => {
                self.misses += 1;
                // an empty way has stamp 0, the least of all
                let mut lru = 0;
                for (i, w) in set.iter().enumerate() {
                    if w.stamp < set[lru].stamp {
                        lru = i;
                    }
                }
                match set[lru].stamp {
                    0 => self.len += 1,
                    _ => self.evictions += 1,
                }
                set[lru] = Slot {
                    program,
                    values: key,
                    ..Slot::default()
                };
                lru
            }
        };
        set[way].stamp = self.clock;
        first + way
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells of `(program, values)`, looked up like a query does.
    fn cells<'a>(c: &'a mut AnswerCache, program: u64, values: &[i128]) -> &'a mut Cells {
        let i = c.way(program, values);
        &mut c.slots[i].cells
    }

    fn traffic(fill: i128, writeback: i128) -> BoundaryTraffic {
        BoundaryTraffic {
            fill_lines: fill,
            writeback_lines: writeback,
        }
    }

    #[test]
    fn capacity_is_bounded_and_power_of_two() {
        assert_eq!(AnswerCache::new(0).probe().capacity, 16);
        assert_eq!(AnswerCache::new(100).probe().capacity, 128);
        assert_eq!(AnswerCache::new(4096).probe().capacity, 4096);
    }

    /// The slot size the docs state.
    #[test]
    fn slots_are_fixed_size() {
        assert_eq!(std::mem::size_of::<Slot>(), 320);
    }

    #[test]
    fn hit_after_fill_miss_before() {
        let mut c = AnswerCache::new(64);
        cells(&mut c, 1, &[3, 1]).put(FormCell::Flops, 10);
        assert_eq!(cells(&mut c, 1, &[3, 1]).get(FormCell::Flops), Some(10));
        // another program with the same values is another key
        assert_eq!(cells(&mut c, 2, &[3, 1]).get(FormCell::Flops), None);
        assert_eq!(cells(&mut c, 1, &[3, 2]).get(FormCell::Flops), None);
        let st = c.probe();
        assert_eq!((st.hits, st.misses, st.len), (1, 3, 3));
        assert!(st.hit_rate() > 0.24 && st.hit_rate() < 0.26);
        assert_eq!(st.invalidations, 0);
    }

    /// Only values exact in `i64` are kept; the rest stay empty.
    #[test]
    fn cells_keep_only_exact_values() {
        let mut cells = Cells::default();
        cells.put(FormCell::DataBytes, i64::MAX as i128 + 1);
        cells.put(FormCell::Resident, i64::MIN as i128);
        assert_eq!(cells.get(FormCell::DataBytes), None);
        assert_eq!(cells.get(FormCell::Resident), Some(i64::MIN as i128));
        cells.put_nest(64, traffic(1, i64::MAX as i128 + 1));
        assert_eq!(cells.nest(64), None);
    }

    /// Nest traffic is kept per capacity, the least recently asked one
    /// dropped first.
    #[test]
    fn nest_traffic_is_kept_per_capacity() {
        let mut cells = Cells::default();
        for cap in 1..=NEST_CAPS as u64 {
            cells.put_nest(cap, traffic(cap as i128, 0));
        }
        assert_eq!(cells.nest(1), Some(traffic(1, 0)));
        cells.put_nest(99, traffic(99, 7));
        assert_eq!(
            cells.nest(2),
            None,
            "the least recently asked capacity goes"
        );
        for cap in [1, 3, 4] {
            assert_eq!(cells.nest(cap), Some(traffic(cap as i128, 0)));
        }
        assert_eq!(cells.nest(99), Some(traffic(99, 7)));
    }

    /// Filling far more keys than slots keeps the table bounded; each
    /// miss past the capacity evicts.
    #[test]
    fn eviction_keeps_the_table_bounded() {
        let mut c = AnswerCache::new(16);
        for n in 0..10_000i128 {
            cells(&mut c, 1, &[n]);
        }
        let st = c.probe();
        assert_eq!(st.capacity, 16);
        assert!(st.len <= 16);
        assert_eq!(st.evictions as usize, 10_000 - st.len);
    }

    /// A full set evicts its least recently used way: a key refreshed
    /// by a hit survives keys that arrive after it.
    #[test]
    fn full_sets_evict_the_least_recently_used_way() {
        let mut c = AnswerCache::new(16);
        // WAYS + 1 keys of one set
        let keys: Vec<i128> = (0..)
            .filter(|&n| c.set_of(1, &[n, 0, 0, 0]) == c.set_of(1, &[0, 0, 0, 0]))
            .take(WAYS + 1)
            .collect();
        for &k in &keys[..WAYS] {
            cells(&mut c, 1, &[k]).put(FormCell::Flops, k);
        }
        // touch the oldest: the second key becomes the LRU way
        assert_eq!(
            cells(&mut c, 1, &[keys[0]]).get(FormCell::Flops),
            Some(keys[0])
        );
        cells(&mut c, 1, &[keys[WAYS]]);
        assert_eq!(c.probe().evictions, 1);
        assert_eq!(
            cells(&mut c, 1, &[keys[0]]).get(FormCell::Flops),
            Some(keys[0])
        );
        assert_eq!(cells(&mut c, 1, &[keys[1]]).get(FormCell::Flops), None);
    }

    /// A placement whose compute bound tags which run produced it.
    fn placed(tag: f64) -> Placement {
        Placement::classify(tag, [0.0; 3])
    }

    /// Ask `(program 1, [5])` under `attach`; the loop, if it runs,
    /// answers `placed(attach)`. Returns the answer and whether it ran.
    fn ask(c: &mut AnswerCache, attach: u64) -> (Placement, bool) {
        let mut ran = false;
        let p = c
            .place(1, attach, &[5], |_| {
                ran = true;
                Ok::<_, ()>(placed(attach as f64))
            })
            .expect("places");
        (p, ran)
    }

    /// An entry keeps the placements of two attached ceilings; a third
    /// displaces the least recently read, whose next query runs the loop
    /// again.
    #[test]
    fn two_ceilings_are_kept_and_a_third_evicts_the_least_recent() {
        let mut c = AnswerCache::new(16);
        assert_eq!(ask(&mut c, 10), (placed(10.0), true));
        assert_eq!(ask(&mut c, 11), (placed(11.0), true));
        // both kept: neither runs, each answers its own placement
        assert_eq!(ask(&mut c, 10), (placed(10.0), false));
        assert_eq!(ask(&mut c, 11), (placed(11.0), false));
        let st = c.probe();
        assert_eq!((st.hits, st.memo_hits, st.memo_evictions), (3, 2, 0));
        // 10 was read before 11: the third ceilings displace it
        assert_eq!(ask(&mut c, 12), (placed(12.0), true));
        assert_eq!(c.probe().memo_evictions, 1);
        assert_eq!(ask(&mut c, 11), (placed(11.0), false));
        assert_eq!(ask(&mut c, 12), (placed(12.0), false));
        assert_eq!(ask(&mut c, 10), (placed(10.0), true));
        let st = c.probe();
        assert_eq!((st.memo_hits, st.memo_evictions, st.len), (4, 2, 1));
    }

    /// A refusal is never kept: the next query runs the loop again.
    #[test]
    fn refusals_are_not_kept() {
        let mut c = AnswerCache::new(16);
        for _ in 0..2 {
            let mut ran = false;
            let r = c.place(1, 7, &[5], |_| {
                ran = true;
                Err::<Placement, _>("refused")
            });
            assert_eq!(r, Err("refused"));
            assert!(ran, "a refusal is re-derived");
        }
        let st = c.probe();
        assert_eq!((st.hits, st.memo_hits), (1, 0));
    }

    /// A new entry keeps no placement of the entry it evicted.
    #[test]
    fn an_evicted_entry_takes_its_placements_along() {
        let mut c = AnswerCache::new(16);
        assert!(ask(&mut c, 3).1);
        for n in 0..1000i128 {
            cells(&mut c, 1, &[n]);
        }
        assert!(c.probe().evictions > 0);
        assert!(
            ask(&mut c, 3).1,
            "the entry of [5] was evicted and refilled"
        );
    }
}
