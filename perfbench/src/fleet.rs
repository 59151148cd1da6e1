//! `fleet`: a [`MachineFleet`] over a directory holding the two bundled
//! machine descriptions, every serving kernel admitted. A read request
//! is one kernel × machine pair's sweep over `n = 1..=512`, issued as
//! single `place_cached` queries through one [`AnswerCache`]; every
//! [`WRITE_EVERY`] requests a write rewrites one machine's file (toggling
//! one bandwidth or capacity value) and calls `reload()`.
//!
//! The read traffic is the one the serving tier documents: `bench_serve`
//! sweeps every pair over `n = 1..=512` with the same fixed parameters,
//! and the README sizes the answer cache for sweep-heavy traffic that
//! revisits the same points. No document gives a write rate.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mira_core::{analyze_source, MiraOptions};
use mira_roofline::{Ceilings, KernelRoofline, Placement};
use mira_serve::{AnswerCache, CompiledKernel, KernelId, MachineFleet, Query, Scratch, ServeError};

use crate::inputs::{machine_texts, SERVING};
use crate::util::{metric, out_dir, same_answer, Calibration, Fnv, Layers, Rng, Samples};
use crate::Report;

/// The swept sizes of one read request: `n = 1..=SWEEP_N`.
const SWEEP_N: i128 = 512;
/// Read requests between two writes (16384 queries). Chosen, not
/// documented: a write interval then lasts some tens of milliseconds, so
/// one run holds hundreds of reloads.
const WRITE_EVERY: u64 = 32;
/// Answer-cache slots, the README's example size: fewer than the 7168
/// distinct points of the 14 pairs' sweeps, so a revisit hits only where
/// its entries survived.
const CACHE_SLOTS: usize = 4096;
/// One query in this many is re-derived by the tree walk.
const CHECK_EVERY: u64 = 256;
/// Queries whose answers go into the run's answer hash.
const HASHED_READS: u64 = 65_536;
/// Non-swept parameter values (as in `bench_serve`).
const FIXED: &[(&str, i128)] = &[("reps", 2), ("nnz_row_milli", 26_144), ("cg_iters", 20)];

/// The toggles a write can flip: `(section, key)`. Bandwidths and the L2
/// capacity double when their bit is set.
const TOGGLES: [(&str, &str); 4] = [
    ("[bandwidth l1]", "bytes_per_cycle"),
    ("[bandwidth l2]", "bytes_per_cycle"),
    ("[bandwidth dram]", "bytes_per_cycle"),
    ("[cache l2]", "size_bytes"),
];

/// A machine description with the toggles in `mask` applied: each set
/// bit doubles its value. Pure text surgery, so the result is a pure
/// function of `(text, mask)`.
pub fn edited(text: &str, mask: u8) -> String {
    let mut out = String::with_capacity(text.len() + 8);
    let mut section = "";
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            section = t;
        }
        let hit = TOGGLES.iter().enumerate().find(|(bit, (sec, key))| {
            mask & (1 << bit) != 0 && section == *sec && t.starts_with(key)
        });
        match hit.and_then(|(_, (_, key))| {
            let v: u64 = t.split('=').nth(1)?.trim().parse().ok()?;
            Some(format!("{key} = {}", v * 2))
        }) {
            Some(l) => out.push_str(&l),
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// One kernel × machine pair the reads address.
struct Pair {
    func: usize,
    machine: usize,
    id: KernelId,
    base: Vec<i128>,
    n_slot: usize,
}

/// The tree-walk oracle for one machine state: one roofline per serving
/// kernel plus the ceilings, built from the description text itself.
struct Oracle {
    rooflines: Vec<KernelRoofline>,
    ceilings: Ceilings,
}

impl Oracle {
    fn build(text: &str) -> Result<Oracle, String> {
        let arch = mira_arch::ArchDescription::parse(text).map_err(|e| e.to_string())?;
        let opts = MiraOptions {
            arch: arch.clone(),
            ..MiraOptions::default()
        };
        let mut rooflines = Vec::new();
        for (func, src) in SERVING {
            let a = analyze_source(src, &opts).map_err(|e| format!("{func}: {e}"))?;
            rooflines.push(KernelRoofline::analyze(&a, func).map_err(|e| format!("{func}: {e}"))?);
        }
        Ok(Oracle {
            rooflines,
            ceilings: Ceilings::from_arch(&arch),
        })
    }
}

pub struct Fleet {
    dir: PathBuf,
    fleet: MachineFleet,
    cache: AnswerCache,
    files: Vec<(PathBuf, &'static str)>,
    masks: Vec<u8>,
    /// Writes so far, and the seeded order the toggles cycle through.
    writes: usize,
    toggle_order: [u8; 4],
    pairs: Vec<Pair>,
    rng: Rng,
    oracles: HashMap<(usize, u8), Oracle>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn setup(seed: u64) -> Result<Fleet, String> {
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = out_dir().join(format!("fleet-{}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for (name, text) in machine_texts() {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        files.push((path, text));
    }
    let mut fleet = MachineFleet::load(&dir).map_err(|e| e.to_string())?;
    for (func, src) in SERVING {
        fleet.admit_source(func, src).map_err(|e| e.to_string())?;
    }
    let names: Vec<String> = fleet.machines().map(|m| m.name().to_string()).collect();
    let rng = Rng::new(seed).fork("fleet");
    let mut pairs = Vec::new();
    for (f, (func, _)) in SERVING.iter().enumerate() {
        for (m, name) in names.iter().enumerate() {
            let id = fleet
                .find(func, name)
                .ok_or(format!("{func} not served on {name}"))?;
            let k = fleet.index().kernel(id).map_err(|e| e.to_string())?;
            let base: Vec<i128> = k
                .params()
                .iter()
                .map(|p| {
                    FIXED
                        .iter()
                        .find(|(n, _)| n == p)
                        .map(|(_, v)| *v)
                        .unwrap_or(1)
                })
                .collect();
            let n_slot = k
                .params()
                .iter()
                .position(|p| p == "n")
                .ok_or("kernel without n")?;
            pairs.push(Pair {
                func: f,
                machine: m,
                id,
                base,
                n_slot,
            });
        }
    }
    // files sort by name in the fleet; keep `files` in the same order
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(Fleet {
        dir,
        fleet,
        cache: AnswerCache::new(CACHE_SLOTS),
        masks: vec![0; files.len()],
        writes: 0,
        toggle_order: {
            let mut order = [0, 1, 2, 3];
            rng.fork("toggles").shuffle(&mut order);
            order
        },
        files,
        pairs,
        rng: rng.fork("stream"),
        oracles: HashMap::new(),
    })
}

impl Fleet {
    /// The pair the next read request sweeps, drawn uniformly.
    fn next_pair(&mut self) -> usize {
        self.rng.below(self.pairs.len() as u64) as usize
    }

    /// The query for point `n` of pair `p`'s sweep.
    fn query(&self, p: usize, n: i128) -> Result<Query, ServeError> {
        let pair = &self.pairs[p];
        let mut vals = pair.base.clone();
        vals[pair.n_slot] = n;
        self.fleet.index().query(pair.id, &vals)
    }

    fn oracle_answer(&mut self, p: usize, q: &Query) -> Result<Result<Placement, String>, String> {
        let pair = &self.pairs[p];
        let key = (pair.machine, self.masks[pair.machine]);
        if !self.oracles.contains_key(&key) {
            let text = edited(self.files[pair.machine].1, key.1);
            self.oracles.insert(key, Oracle::build(&text)?);
        }
        let o = &self.oracles[&key];
        let k = self
            .fleet
            .index()
            .kernel(pair.id)
            .map_err(|e| e.to_string())?;
        let b: mira_sym::Bindings = k
            .params()
            .iter()
            .zip(q.values.iter())
            .map(|(name, v)| (name.clone(), *v))
            .collect();
        Ok(o.rooflines[pair.func]
            .place(&o.ceilings, &b)
            .map_err(|e| e.to_string()))
    }

    /// Toggle one value in one machine's file and reload. Returns the
    /// reload's wall time in ns, or why it failed.
    fn write(&mut self, traced: bool) -> Result<f64, String> {
        // machines alternate and each cycles through every toggle, so
        // every seed's run reloads the same mix of edits
        let m = self.writes % self.files.len();
        let bit = self.toggle_order[(self.writes / self.files.len()) % TOGGLES.len()];
        self.writes += 1;
        self.masks[m] ^= 1 << bit;
        let text = edited(self.files[m].1, self.masks[m]);
        std::fs::write(&self.files[m].0, &text).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let report = {
            let _a = mira_probe::accum("bench.fleet.reload");
            self.fleet.reload().map_err(|e| e.to_string())?
        };
        let dt = t.elapsed().as_nanos() as f64;
        let name = mira_arch::ArchDescription::parse(&text)
            .map_err(|e| e.to_string())?
            .machine
            .name;
        if report.changed != [name.clone()] || report.recompiled != SERVING.len() {
            return Err(format!("reload of {name} reported {report:?}"));
        }
        mira_probe::add("bench.fleet.recompiled", report.recompiled as i64);
        if traced {
            self.retime_reload(&text)?;
        }
        Ok(dt)
    }

    /// The traced run splits a reload by layer from outside: it re-reads
    /// the directory and re-runs analysis, roofline and compile for every
    /// kernel under the edited description, each under its own row.
    fn retime_reload(&mut self, text: &str) -> Result<(), String> {
        {
            let _a = mira_probe::accum("bench.arch.load_dir");
            mira_arch::load_dir(&self.dir).map_err(|e| e.to_string())?;
        }
        let arch = mira_arch::ArchDescription::parse(text).map_err(|e| e.to_string())?;
        let opts = MiraOptions {
            arch: arch.clone(),
            ..MiraOptions::default()
        };
        let c = Ceilings::from_arch(&arch);
        for (func, src) in SERVING {
            let a = {
                let _a = mira_probe::accum("bench.reload.analyze");
                analyze_source(src, &opts).map_err(|e| e.to_string())?
            };
            let kr = {
                let _a = mira_probe::accum("bench.reload.roofline");
                KernelRoofline::analyze(&a, func).map_err(|e| e.to_string())?
            };
            let _a = mira_probe::accum("bench.reload.build");
            CompiledKernel::build(&kr, &c, &arch.machine.name).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    pub fn measure(
        &mut self,
        seconds: f64,
        mut layers: Option<&mut Layers>,
        cal: &mut Calibration,
    ) -> Report {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let traced = layers.is_some();
        let mut s = Scratch::new();
        let mut reads = Samples::default();
        let mut sweeps = Samples::default();
        let mut hits = Samples::default();
        let mut misses = Samples::default();
        let mut reloads = Samples::default();
        let mut n_reads = 0u64;
        let mut attempted = 0u64;
        let mut failed = 0u64;
        let mut hash = Fnv::new();
        let mut windows = Samples::default();
        let start_stats = self.cache.probe();
        let fail = |why: String| {
            eprintln!("fleet: {why}");
            1
        };
        while windows.len() == 0 || Instant::now() < deadline {
            // one write interval per capture in the traced run
            let mut interval = |this: &mut Fleet| -> (u64, f64) {
                let mut bad = 0;
                let mut busy = 0.0;
                for _ in 0..WRITE_EVERY {
                    let clock = cal.factor();
                    let p = this.next_pair();
                    // a request's latency: the time its queries were served
                    let mut sweep = 0.0;
                    for n in 1..=SWEEP_N {
                        let q = match this.query(p, n) {
                            Ok(q) => q,
                            Err(e) => {
                                bad += fail(format!("building a query: {e}"));
                                continue;
                            }
                        };
                        let before = this.cache.probe().hits;
                        let t = Instant::now();
                        let a = {
                            let _a = mira_probe::accum("bench.serve.place_cached");
                            this.fleet.index().place_cached(&q, &mut this.cache, &mut s)
                        };
                        let dt = t.elapsed().as_nanos() as f64 * clock;
                        reads.push(dt);
                        sweep += dt;
                        if traced {
                            if this.cache.probe().hits > before {
                                hits.push(dt);
                            } else {
                                misses.push(dt);
                            }
                        }
                        if n_reads < HASHED_READS {
                            hash.answer(&a);
                        }
                        if this.rng.below(CHECK_EVERY) == 0 {
                            match this.oracle_answer(p, &q) {
                                Ok(t) if same_answer(&a, &t) => {}
                                Ok(t) => {
                                    bad += fail(format!("{q:?}: served {a:?}, tree walk {t:?}"))
                                }
                                Err(e) => bad += fail(format!("oracle: {e}")),
                            }
                        }
                        n_reads += 1;
                    }
                    sweeps.push(sweep);
                    busy += sweep;
                }
                let clock = cal.factor();
                match this.write(traced) {
                    Ok(dt) => {
                        reloads.push(dt * clock);
                        busy += dt * clock;
                    }
                    Err(e) => bad += fail(e),
                }
                (bad, busy)
            };
            let (bad, busy) = match layers.as_deref_mut() {
                Some(l) => l.capture(|| interval(self)),
                None => interval(self),
            };
            // one write interval is one throughput window
            let queries = WRITE_EVERY * SWEEP_N as u64;
            windows.push(queries as f64 / (busy / 1e9));
            attempted += queries + 1;
            failed += bad;
        }
        let stats = self.cache.probe();
        Report::new(attempted, failed, hash.finish(), |r| {
            r.e2e_median(&windows, "throughput_per_s", "1/s", "queries_per_s");
            let probes = (stats.hits + stats.misses - start_stats.hits - start_stats.misses) as f64;
            let hit_rate = (stats.hits - start_stats.hits) as f64 / probes;
            r.note(format!(
                "{n_reads} queries in {} sweeps, {} reloads, cache hit rate {hit_rate:.4}",
                sweeps.len(),
                reloads.len(),
            ));
            r.e2e_pct(&sweeps, 1e-3, "answer_us", "us", "sweep_us");
            r.e2e_pct(&reloads, 1e-6, "slow_path_ms", "ms", "reload_ms");
            for (q, tag) in [(0.5, "p50"), (0.9, "p90"), (0.99, "p99")] {
                if let Ok(v) = reads.pct(q, tag) {
                    r.human
                        .push(metric(&format!("query_us_{tag}"), v * 1e-3, "us"));
                }
            }
            if let Some(l) = layers.as_deref() {
                r.layer(metric(
                    "serve.hit_ns_p50",
                    hits.pct(0.5, "hit latency")?,
                    "ns",
                ));
                r.layer(metric(
                    "serve.miss_ns_p50",
                    misses.pct(0.5, "miss latency")?,
                    "ns",
                ));
                r.layer(metric("serve.cache_hit_rate", hit_rate, "ratio"));
                let per_kq = |v: u64| v as f64 * 1e3 / probes;
                r.layer(metric(
                    "serve.cache_evictions",
                    per_kq(stats.evictions - start_stats.evictions),
                    "per_1k",
                ));
                r.layer(metric(
                    "serve.cache_invalidations",
                    per_kq(stats.invalidations - start_stats.invalidations),
                    "per_1k",
                ));
                let n = reloads.len() as f64;
                r.layer(metric(
                    "serve.reload_recompiled",
                    l.counter("bench.fleet.recompiled") as f64 / n,
                    "count",
                ));
                let per_reload = |row: &str| l.total_ns(row) / n / 1e6;
                r.layer(metric(
                    "arch.load_dir_ms",
                    per_reload("bench.arch.load_dir"),
                    "ms",
                ));
                r.layer(metric(
                    "reload.analyze_ms",
                    per_reload("bench.reload.analyze"),
                    "ms",
                ));
                r.layer(metric(
                    "reload.roofline_ms",
                    per_reload("bench.reload.roofline"),
                    "ms",
                ));
                r.layer(metric(
                    "reload.build_ms",
                    per_reload("bench.reload.build"),
                    "ms",
                ));
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggles_double_one_value_each() {
        let base = mira_arch::desc::DEFAULT_DESCRIPTION;
        assert_eq!(
            edited(base, 0),
            format!("{}\n", base.trim_end_matches('\n'))
        );
        let a = mira_arch::ArchDescription::parse(base).unwrap();
        let b = mira_arch::ArchDescription::parse(&edited(base, 0b1111)).unwrap();
        assert_eq!(b.machine.l2.size_bytes, 2 * a.machine.l2.size_bytes);
        assert_eq!(b.machine.l1.size_bytes, a.machine.l1.size_bytes);
        let (ca, cb) = (Ceilings::from_arch(&a), Ceilings::from_arch(&b));
        for l in 0..3 {
            assert_eq!(cb.bandwidth[l], 2 * ca.bandwidth[l]);
        }
        assert_ne!(edited(base, 0b0100), edited(base, 0b0010));
    }

    /// Same seed, same request stream and edit order; another seed, another.
    #[test]
    fn same_seed_same_requests() {
        let mut a = setup(11).unwrap();
        let mut b = setup(11).unwrap();
        let mut c = setup(13).unwrap();
        let pa: Vec<usize> = (0..64).map(|_| a.next_pair()).collect();
        let pb: Vec<usize> = (0..64).map(|_| b.next_pair()).collect();
        let pc: Vec<usize> = (0..64).map(|_| c.next_pair()).collect();
        assert_eq!(pa, pb);
        assert_ne!(pa, pc);
        assert_eq!(a.toggle_order, b.toggle_order);
        for n in [1, 300, SWEEP_N] {
            let (qa, qb) = (a.query(pa[0], n).unwrap(), b.query(pb[0], n).unwrap());
            assert_eq!(qa.values, qb.values);
        }
    }

    /// A served answer that disagrees with the tree walk is caught.
    #[test]
    fn corrupted_answer_is_counted() {
        let mut f = setup(12).unwrap();
        let mut s = Scratch::new();
        let mut placed = 0;
        for p in 0..f.pairs.len() {
            for n in [1, 64, SWEEP_N] {
                let q = f.query(p, n).unwrap();
                let a = f.fleet.index().place_cached(&q, &mut f.cache, &mut s);
                let t = f.oracle_answer(p, &q).unwrap();
                assert!(same_answer(&a, &t), "{a:?} vs {t:?}");
                if let Ok(mut bad) = a {
                    bad.compute_cycles = f64::from_bits(bad.compute_cycles.to_bits() ^ 1);
                    assert!(!same_answer(&Ok::<_, String>(bad), &t));
                    placed += 1;
                }
            }
        }
        assert!(placed > 0, "some query must place");
    }
}
