//! The answer cache: a bounded table of the machine-independent values
//! a placement reads, keyed by compiled program and parameter values.
//!
//! A placement is a machine's ceilings applied to a handful of
//! machine-independent values ([`mira_roofline::PlacementForms`]): the
//! FLOPs, the footprint count, data bytes, resident lines, streaming
//! bytes, and nest traffic at a capacity. They depend only on the
//! kernel's compiled [`PlacementProgram`](crate::PlacementProgram) and
//! the live parameter values, so an entry is keyed by `(program id,
//! live values)` and holds those values (each form as the output of its
//! primitive section, before the constant content scales it), not a
//! finished placement. [`ServeIndex::place_cached`] runs the one
//! placement loop over an entry under the querying kernel's own
//! ceilings, running program sections only for the values the entry
//! does not hold yet. Every machine a program is attached to shares its
//! entries: sweeping a kernel on a second machine reads what the first
//! one computed.
//!
//! Nothing can go stale. Programs are immutable and numbered when they
//! are compiled, so a swap ([`ServeIndex::replace`]) or a fleet reload
//! that only re-attaches ceilings keeps every entry valid, and a
//! recompiled kernel is a new program with new keys. There is no
//! invalidation: [`CacheStats::invalidations`] reads 0.
//!
//! Each value lives in a fixed-size `i64` cell and is stored only when
//! it is exact there: a fraction (a form whose content could not be
//! split off), a magnitude past `i64` or a refusal leaves its cell empty
//! and is re-derived on every query. Nest traffic is kept for the 4
//! capacities asked last. So a cached answer comes out of the same
//! placement loop over the same values as an uncached one, and is
//! bit-identical to it, refusals included.
//!
//! The table is 4-way set-associative over a power-of-two slot array:
//! one hash of the key picks a set, a full set evicts its least recently
//! used way (by access stamp). Every slot is 224 bytes (key, stamp and
//! cells), allocated once at construction with no per-entry heap, so
//! serving through the cache never allocates.
//!
//! [`ServeIndex::place_cached`]: crate::ServeIndex::place_cached
//! [`ServeIndex::replace`]: crate::ServeIndex::replace

use mira_mem::BoundaryTraffic;

use crate::index::MAX_QUERY_PARAMS;

/// Ways per set.
const WAYS: usize = 4;

/// Capacities whose nest traffic an entry keeps.
const NEST_CAPS: usize = 4;

/// Hit/miss/occupancy counters of an [`AnswerCache`] — the capacity
/// tuning signal (`hits / (hits + misses)` is the hit rate).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Probes that found their `(program, values)` entry. A hit may
    /// still run sections for values its entry does not hold.
    pub hits: u64,
    pub misses: u64,
    /// Entries displaced from a full set (least recently used first) —
    /// high eviction counts at low occupancy mean the traffic wants a
    /// bigger table.
    pub evictions: u64,
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
    misses: u64,
    evictions: u64,
}

impl AnswerCache {
    /// A cache with at least `capacity` slots (rounded up to a power of
    /// two, minimum 16). Memory is bounded at construction (224 bytes a
    /// slot): serving never grows the table.
    pub fn new(capacity: usize) -> AnswerCache {
        let cap = capacity.clamp(16, 1 << 24).next_power_of_two();
        AnswerCache {
            slots: vec![Slot::default(); cap],
            set_bits: (cap / WAYS).trailing_zeros(),
            clock: 0,
            len: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Counters snapshot.
    pub fn probe(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
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

    /// The cells of `(program, values)`: a hit refreshes the entry's
    /// stamp, a miss installs empty cells in the set's least recently
    /// used way. `values` are a program's live values, at most
    /// [`MAX_QUERY_PARAMS`] of them.
    pub(crate) fn cells(&mut self, program: u64, values: &[i128]) -> &mut Cells {
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
                    stamp: 0,
                    program,
                    values: key,
                    cells: Cells::default(),
                };
                lru
            }
        };
        set[way].stamp = self.clock;
        &mut set[way].cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(std::mem::size_of::<Slot>(), 224);
    }

    #[test]
    fn hit_after_fill_miss_before() {
        let mut c = AnswerCache::new(64);
        c.cells(1, &[3, 1]).put(FormCell::Flops, 10);
        assert_eq!(c.cells(1, &[3, 1]).get(FormCell::Flops), Some(10));
        // another program with the same values is another key
        assert_eq!(c.cells(2, &[3, 1]).get(FormCell::Flops), None);
        assert_eq!(c.cells(1, &[3, 2]).get(FormCell::Flops), None);
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
            c.cells(1, &[n]);
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
            c.cells(1, &[k]).put(FormCell::Flops, k);
        }
        // touch the oldest: the second key becomes the LRU way
        assert_eq!(c.cells(1, &[keys[0]]).get(FormCell::Flops), Some(keys[0]));
        c.cells(1, &[keys[WAYS]]);
        assert_eq!(c.probe().evictions, 1);
        assert_eq!(c.cells(1, &[keys[0]]).get(FormCell::Flops), Some(keys[0]));
        assert_eq!(c.cells(1, &[keys[1]]).get(FormCell::Flops), None);
    }
}
