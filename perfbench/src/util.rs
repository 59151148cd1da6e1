//! Shared measurement plumbing: the seeded generator every input is
//! drawn from, FNV answer hashing, bit-exact answer comparison,
//! percentiles, and the per-layer table the traced run folds its
//! captures into.

use std::collections::BTreeMap;
use std::path::PathBuf;

use mira_probe::{AccumRow, Event, Trace};
use mira_roofline::{Ceiling, MemLevel, Placement};

/// SplitMix64: small, fast, and the same stream on every platform — the
/// only source of randomness in the benchmark, so a seed fixes every
/// input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// An independent stream for one purpose, so adding draws to one
    /// input family never shifts another.
    pub fn fork(&self, tag: &str) -> Rng {
        let mut h = Fnv::new();
        h.bytes(tag.as_bytes());
        h.u64(self.0);
        Rng::new(h.finish())
    }
}

/// FNV-1a, the answer-hash function (as in the repo's bench binaries).
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A served answer: binding roof plus the bits of all four bounds; a
    /// refusal hashes a marker byte.
    pub fn answer<E>(&mut self, a: &Result<Placement, E>) {
        match a {
            Ok(p) => {
                self.byte(ceiling_byte(p.binding));
                for bits in [
                    p.compute_cycles.to_bits(),
                    p.mem_cycles[0].to_bits(),
                    p.mem_cycles[1].to_bits(),
                    p.mem_cycles[2].to_bits(),
                ] {
                    self.u64(bits);
                }
            }
            Err(_) => self.byte(0xff),
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn ceiling_byte(c: Ceiling) -> u8 {
    match c {
        Ceiling::Compute => 0,
        Ceiling::Mem(MemLevel::L1) => 1,
        Ceiling::Mem(MemLevel::L2) => 2,
        Ceiling::Mem(MemLevel::Dram) => 3,
    }
}

/// Bit-for-bit placement equality (binding roof and every bound).
pub fn same_placement(a: &Placement, b: &Placement) -> bool {
    a.binding == b.binding
        && a.compute_cycles.to_bits() == b.compute_cycles.to_bits()
        && (0..3).all(|l| a.mem_cycles[l].to_bits() == b.mem_cycles[l].to_bits())
}

/// Two answers agree: the same placement bit for bit, or the same
/// refusal (compared by its rendered form, so the error types of the
/// two evaluators need not match).
pub fn same_answer<E: std::fmt::Display, F: std::fmt::Display>(
    a: &Result<Placement, E>,
    b: &Result<Placement, F>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => same_placement(x, y),
        (Err(x), Err(y)) => x.to_string() == y.to_string(),
        _ => false,
    }
}

/// Percentile `q` (0..1) of `sorted`: the mean of the order statistics
/// in a window of ±0.5% of the samples around the nearest rank (at
/// least the rank itself). Timer readings are whole nanoseconds, so on
/// fast ops a bare order statistic sits on one integer run after run;
/// the window keeps the estimate faithful and lets it resolve below a
/// nanosecond. `None` when fewer than ten samples lie beyond the window
/// — a tail read off a handful of points is noise, so it is not
/// reported at all.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let w = n / 200;
    let (lo, hi) = (rank.saturating_sub(w).max(1), rank + w);
    if hi > n || n - hi < 10 {
        return None;
    }
    let window = &sorted[lo - 1..hi];
    Some(window.iter().sum::<f64>() / window.len() as f64)
}

/// Most samples a [`Samples`] keeps; beyond this it keeps a uniform
/// reservoir, so memory (and peak RSS) does not grow with run length.
const RESERVOIR: usize = 1 << 16;

/// A sample set with the percentile rule above: exact count and sum,
/// percentiles over at most [`RESERVOIR`] uniformly kept samples.
#[derive(Clone, Debug)]
pub struct Samples {
    kept: Vec<f64>,
    seen: u64,
    sum: f64,
    rng: Rng,
}

impl Default for Samples {
    fn default() -> Samples {
        Samples {
            kept: Vec::new(),
            seen: 0,
            sum: 0.0,
            rng: Rng::new(0x5eed),
        }
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        self.sum += v;
        if self.kept.len() < RESERVOIR {
            self.kept.push(v);
        } else {
            let slot = self.rng.below(self.seen) as usize;
            if slot < RESERVOIR {
                self.kept[slot] = v;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.seen as usize
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Percentile `q`, or an error naming the metric when the run did
    /// not collect enough samples for it.
    pub fn pct(&self, q: f64, what: &str) -> Result<f64, String> {
        let mut v = self.kept.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        percentile(&v, q).ok_or_else(|| {
            format!(
                "{what}: {} samples are too few for p{:.0} (need 10 beyond it)",
                v.len(),
                q * 100.0
            )
        })
    }
}

/// A fixed piece of host work, independent of every crate under test,
/// timed between measurement windows. It is a small mix shaped like the
/// workloads: walk an expression tree laid out in an arena (pointer
/// chasing, like the analysis layers), step a tiny bytecode interpreter
/// (dispatch-bound, like the VM) and hash 16 KiB of integers. It
/// allocates nothing, so its time does not depend on the heap the
/// workload leaves behind, and it runs twice back to back, keeping the
/// warm time, so it reads the speed of the core rather than the state of
/// its caches.
///
/// The 2-core virtual machine this benchmark was tuned on switches
/// between a fast and a slow regime (about 1.6× apart) every second or
/// so, and a run's timings mix both in a proportion that differs from
/// run to run. Every timing is therefore scaled by
/// [`Calibration::factor`] — reference probe time over the probe time
/// measured just before it — which puts all timings on the reference
/// host's clock.
pub struct Calibration {
    tree: Vec<(u8, u32, u32)>,
    samples: Samples,
    last: Option<std::time::Instant>,
    factor: f64,
}

/// Least time between two probes (a probe costs about 0.5 ms).
const CAL_EVERY: std::time::Duration = std::time::Duration::from_millis(50);

/// The probe time of the reference host, in ns: a factor of 1 means the
/// host runs at reference speed.
pub const CAL_REF_NS: f64 = 2.5e5;

/// `(op, left, right)` nodes: op 0 is a leaf holding `left` as its value.
fn eval(tree: &[(u8, u32, u32)], at: u32) -> u64 {
    let (op, l, r) = tree[at as usize];
    match op {
        0 => l as u64,
        1 => eval(tree, l).wrapping_add(eval(tree, r)),
        _ => eval(tree, l).wrapping_mul(eval(tree, r)) & 0xffff,
    }
}

/// A countdown loop in a four-op bytecode: `acc = acc * 3 + i`,
/// `i -= 1`, loop while `i > 0`.
fn interpret(iters: i64) -> i64 {
    const CODE: [u8; 4] = [0, 1, 2, 3];
    let (mut acc, mut i, mut pc) = (0i64, iters, 0usize);
    loop {
        match CODE[pc] {
            0 => acc = acc.wrapping_mul(3),
            1 => acc = acc.wrapping_add(i),
            2 => i -= 1,
            _ => {
                if i <= 0 {
                    return acc;
                }
                pc = 0;
                continue;
            }
        }
        pc += 1;
    }
}

impl Calibration {
    pub fn new() -> Calibration {
        // a random full binary tree of 2^13 leaves, nodes shuffled
        // through the arena so the walk hops around memory
        const LEAVES: u32 = 1 << 13;
        let mut rng = Rng::new(0xca1);
        let total = 2 * LEAVES - 1;
        let mut slots: Vec<u32> = (0..total).collect();
        rng.shuffle(&mut slots[1..]);
        let mut tree = vec![(0u8, 0u32, 0u32); total as usize];
        // heap numbering: node i has children 2i+1, 2i+2
        for i in 0..total {
            let slot = slots[i as usize] as usize;
            tree[slot] = if i >= LEAVES - 1 {
                (0, rng.below(16) as u32, 0)
            } else {
                let op = 1 + rng.below(2) as u8;
                (op, slots[(2 * i + 1) as usize], slots[(2 * i + 2) as usize])
            };
        }
        Calibration {
            tree,
            samples: Samples::default(),
            last: None,
            factor: 1.0,
        }
    }

    fn run(&self) -> f64 {
        let t = std::time::Instant::now();
        let v = eval(&self.tree, 0);
        let w = interpret(std::hint::black_box(20_000));
        let mut h = Fnv::new();
        for i in 0..2048u64 {
            h.u64(i);
        }
        std::hint::black_box((v, w, h.finish()));
        t.elapsed().as_nanos() as f64
    }

    /// Probe the host now.
    pub fn probe(&mut self) -> f64 {
        self.run();
        let ns = self.run();
        self.samples.push(ns);
        self.last = Some(std::time::Instant::now());
        self.factor = CAL_REF_NS / ns;
        self.factor
    }

    /// The factor that puts a timing taken now on the reference clock,
    /// re-probing when the last probe is older than [`CAL_EVERY`].
    pub fn factor(&mut self) -> f64 {
        match self.last {
            Some(t) if t.elapsed() < CAL_EVERY => self.factor,
            _ => self.probe(),
        }
    }

    /// Median probe time in ns.
    pub fn median_ns(&self) -> Result<f64, String> {
        let mut v = self.samples.kept.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v.get(v.len() / 2)
            .copied()
            .ok_or("no calibration probe".into())
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Where the benchmark writes its traces and scratch files: under the
/// cargo target directory, which the checkout never commits.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    base.join("perfbench-out")
}

/// Most trace events kept for the Chrome JSON; everything beyond folds
/// into the per-name rows only.
const SAMPLE_EVENTS: usize = 4096;

/// The traced run's per-layer table. Each unit of work (one op, one
/// fleet write interval, one validation row) runs under its own
/// [`mira_probe::capture`]; the unit's trace is folded into per-name
/// `(calls, total ns)` rows and counter sums and then dropped, so a
/// traced run holds bounded memory however long it runs. The first
/// [`SAMPLE_EVENTS`] events are kept verbatim for the Chrome JSON.
#[derive(Debug, Default)]
pub struct Layers {
    rows: BTreeMap<&'static str, (u64, u64)>,
    counters: BTreeMap<&'static str, i64>,
    sample: Vec<Event>,
    wall_ns: u64,
    units: u64,
}

impl Layers {
    pub fn capture<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (v, t) = mira_probe::capture(f);
        self.absorb(t);
        v
    }

    fn absorb(&mut self, t: Trace) {
        for a in &t.accums {
            let r = self.rows.entry(a.name).or_default();
            r.0 += a.calls;
            r.1 += a.total_ns;
        }
        for e in &t.events {
            if e.dur_ns > 0 {
                let r = self.rows.entry(e.name).or_default();
                r.0 += 1;
                r.1 += e.dur_ns;
            }
        }
        for (name, v) in &t.counters {
            *self.counters.entry(name).or_default() += v;
        }
        let room = SAMPLE_EVENTS.saturating_sub(self.sample.len());
        let base = self.wall_ns;
        self.sample
            .extend(t.events.into_iter().take(room).map(|mut e| {
                e.start_ns += base;
                e
            }));
        self.wall_ns += t.wall_ns;
        self.units += 1;
    }

    /// Total nanoseconds recorded under `name` (accumulator or span).
    pub fn total_ns(&self, name: &str) -> f64 {
        self.rows.get(name).map(|r| r.1 as f64).unwrap_or(0.0)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.rows.get(name).map(|r| r.0).unwrap_or(0)
    }

    pub fn counter(&self, name: &str) -> i64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Everything folded so far as one probe [`Trace`]: the sampled
    /// events plus every row as an accumulator — the input to the
    /// Chrome JSON and the flat text report.
    pub fn trace(&self) -> Trace {
        Trace {
            events: self.sample.clone(),
            counters: self.counters.iter().map(|(k, v)| (*k, *v)).collect(),
            accums: self
                .rows
                .iter()
                .map(|(&name, &(calls, total_ns))| AccumRow {
                    name,
                    calls,
                    total_ns,
                })
                .collect(),
            wall_ns: self.wall_ns,
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = Rng::new(8);
        assert_ne!(xs[0], c.next_u64());
        assert_ne!(
            Rng::new(7).fork("a").next_u64(),
            Rng::new(7).fork("b").next_u64()
        );
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // p99 of 100 samples has one sample beyond it: not reported
        assert_eq!(percentile(&v, 0.99), None);
        let w: Vec<f64> = (1..=19).map(|x| x as f64).collect();
        assert_eq!(percentile(&w, 0.5), None, "9 beyond the median");
        let x: Vec<f64> = (1..=20).map(|x| x as f64).collect();
        assert_eq!(percentile(&x, 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn answers_compare_bit_for_bit() {
        let p = Placement::classify(10.0, [5.0, 4.0, 3.0]);
        let mut q = p;
        assert!(same_answer::<String, String>(&Ok(p), &Ok(q)));
        q.mem_cycles[2] = f64::from_bits(q.mem_cycles[2].to_bits() + 1);
        assert!(!same_answer::<String, String>(&Ok(p), &Ok(q)));
        assert!(!same_answer::<String, String>(&Ok(p), &Err("x".into())));
        assert!(same_answer::<String, &str>(&Err("x".into()), &Err("x")));
    }
}
