//! `MachineFleet` end to end: serve a *directory* of machine
//! descriptions, compile DGEMM and triad once for the machines that
//! share an analysis key, answer queries through the bounded answer
//! cache, then edit one `*.ini` on disk and hot-reload — the changed
//! machine's entries get the new ceilings attached (a bandwidth edit
//! compiles nothing) and are swapped atomically under stable
//! `KernelId`s, and the new ceilings are served immediately, from the
//! same cache entry: it holds the machine-independent values of the
//! compiled program, which the reload did not change. The entry then
//! keeps the finished placement under the new ceilings, so asking again
//! is one lookup.
//!
//! Run with: `cargo run --release --example fleet`

use std::fs;

use mira_roofline::MemLevel;
use mira_serve::{machines, AnswerCache, MachineFleet, Scratch};

fn main() {
    // a throwaway fleet directory with the two bundled descriptions
    let dir = std::env::temp_dir().join(format!("mira_fleet_example_{}", std::process::id()));
    fs::create_dir_all(&dir).expect("fleet dir creates");
    fs::write(
        dir.join("generic.ini"),
        mira_arch::desc::DEFAULT_DESCRIPTION,
    )
    .expect("generic.ini writes");
    fs::write(dir.join("avx2.ini"), machines::AVX2_FMA_DESCRIPTION).expect("avx2.ini writes");

    // load every *.ini, then admit each kernel against every machine
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits on every machine");
    fleet
        .admit_source("dgemm", mira_workloads::dgemm::DGEMM_SRC)
        .expect("dgemm admits on every machine");
    println!(
        "fleet over {}: {} machines x {} kernels = {} served entries",
        dir.display(),
        fleet.machines().count(),
        fleet.funcs().count(),
        fleet.index().len(),
    );

    // answer a triad query on the AVX2 machine, through the cache
    let id = fleet
        .find("triad", machines::AVX2_FMA)
        .expect("admitted above");
    let k = fleet.index().kernel(id).expect("kernel exists");
    let values: Vec<i128> = k
        .params()
        .iter()
        .map(|p| if p == "n" { 1 << 16 } else { 1 })
        .collect();
    let q = fleet.index().query(id, &values).expect("query builds");
    let mut cache = AnswerCache::new(1024);
    let mut s = Scratch::new();
    let before = fleet
        .index()
        .place_cached(&q, &mut cache, &mut s)
        .expect("places");
    let dram = MemLevel::Dram.index();
    println!(
        "triad on {} at n = 65536: {} ({} DRAM cycles)",
        machines::AVX2_FMA,
        before,
        before.mem_cycles[dram],
    );

    // edit the machine on disk — double its DRAM bandwidth — and reload
    let edited = machines::AVX2_FMA_DESCRIPTION.replace(
        "[bandwidth dram]\nbytes_per_cycle = 8",
        "[bandwidth dram]\nbytes_per_cycle = 16",
    );
    fs::write(dir.join("avx2.ini"), edited).expect("avx2.ini rewrites");
    let (report, trace) =
        mira_probe::capture(|| fleet.reload().expect("reload swaps the edited machine"));
    println!(
        "reload: changed = {:?}, {} entries swapped to the new ceilings \
         ({} programs compiled, ids stable)",
        report.changed,
        report.recompiled,
        trace.span_count("serve.compile"),
    );

    // same query, same id, same cache: the entry filled before the
    // reload serves, under the new ceilings
    let after = fleet
        .index()
        .place_cached(&q, &mut cache, &mut s)
        .expect("places after reload");
    let stats = cache.probe();
    println!(
        "after reload: {} ({} DRAM cycles, cache hits = {}, misses = {})",
        after, after.mem_cycles[dram], stats.hits, stats.misses,
    );
    assert!(
        after.mem_cycles[dram] < before.mem_cycles[dram],
        "doubled bandwidth halves the DRAM bound"
    );
    assert_eq!(
        (stats.hits, stats.misses, stats.memo_hits),
        (1, 1, 0),
        "the answer after the reload is computed from the entry filled before it"
    );

    // asked again, the entry answers with the placement it kept for the
    // reloaded machine's ceilings
    let again = fleet
        .index()
        .place_cached(&q, &mut cache, &mut s)
        .expect("places again");
    let stats = cache.probe();
    println!(
        "asked again: {} (cache hits = {}, of them answered by a kept placement = {})",
        again, stats.hits, stats.memo_hits,
    );
    assert_eq!(again, after);
    assert_eq!(
        (stats.hits, stats.memo_hits),
        (2, 1),
        "the second read after the reload is the kept placement"
    );
    assert_eq!(report.changed, [machines::AVX2_FMA]);
    assert_eq!(
        trace.span_count("serve.compile"),
        0,
        "a bandwidth edit compiles nothing"
    );

    // one sharded pass: where does every kernel leave its regime on
    // every machine?
    println!("crossover table (n in [2, 64], reps = 1):");
    for row in fleet.index().crossover_table("n", &[("reps", 1)], 2, 64, 4) {
        match row.result {
            Ok(Some(x)) => println!(
                "  {:>5} on {:<14} leaves {} for {} at n = {}",
                row.func, row.machine, x.from, x.to, x.value
            ),
            Ok(None) => println!(
                "  {:>5} on {:<14} holds its regime across the window",
                row.func, row.machine
            ),
            Err(e) => println!("  {:>5} on {:<14} refused: {e}", row.func, row.machine),
        }
    }

    let _ = fs::remove_dir_all(&dir);
}
