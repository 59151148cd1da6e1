//! Service-level contracts of [`ServeIndex`]: batch answers equal
//! per-query answers, sharded execution is bit-identical to
//! single-threaded, sweeps stream the same placements, typed refusals
//! for bad queries, and the compiled crossover reproduces the tree
//! walk's pinned DGEMM regime exit.

use std::sync::Arc;

use mira_core::{analyze_source, Analysis, MiraOptions};
use mira_roofline::{Ceiling, Ceilings, KernelRoofline, MemLevel};
use mira_serve::{
    machines, AnswerCache, CompiledKernel, KernelId, PlacementProgram, Query, Scratch, ServeError,
    ServeIndex,
};
use mira_sym::bindings;

/// Compile `func` under the analysis' machine and insert it.
fn admit(index: &mut ServeIndex, analysis: &Analysis, func: &str) -> KernelId {
    let kr = KernelRoofline::analyze(analysis, func).expect("roofline analyzes");
    let c = Ceilings::from_arch(&analysis.arch);
    let k = CompiledKernel::build(&kr, &c, &analysis.arch.machine.name).expect("kernel compiles");
    index.insert(k).expect("kernel admits")
}

/// An index over triad + DGEMM on both machine descriptions.
fn build_index() -> ServeIndex {
    let mut index = ServeIndex::new();
    let arches = [
        mira_arch::ArchDescription::default(),
        machines::avx2_fma().expect("second machine parses"),
    ];
    for arch in &arches {
        for (func, src) in [
            ("triad", mira_workloads::memval::TRIAD_SRC),
            ("dgemm", mira_workloads::dgemm::DGEMM_SRC),
        ] {
            let opts = MiraOptions {
                arch: arch.clone(),
                ..Default::default()
            };
            let analysis = analyze_source(src, &opts).expect("workload analyzes");
            admit(&mut index, &analysis, func);
        }
    }
    index
}

/// Positional base values for a kernel: `n` slots get `n0`, `reps`-like
/// slots get 1.
fn base_values(index: &ServeIndex, id: KernelId, n0: i128) -> Vec<i128> {
    index
        .kernel(id)
        .expect("kernel exists")
        .params()
        .iter()
        .map(|p| if p == "n" { n0 } else { 1 })
        .collect()
}

#[test]
fn batch_and_sharded_answers_are_identical() {
    let index = build_index();
    assert_eq!(index.len(), 4);
    let mut queries: Vec<Query> = Vec::new();
    for (id, k) in index.kernels() {
        for n in 1..=200i128 {
            let vals: Vec<i128> = k
                .params()
                .iter()
                .map(|p| if p == "n" { n } else { 2 })
                .collect();
            queries.push(index.query(id, &vals).expect("query builds"));
        }
    }
    let mut s = Scratch::new();
    let mut single = Vec::new();
    index.run_batch(&queries, &mut s, &mut single);
    assert_eq!(single.len(), queries.len());
    assert!(single.iter().all(|r| r.is_ok()), "all answers place");
    // per-query answers agree with the batch
    for (q, r) in queries.iter().zip(&single) {
        assert_eq!(&index.place(q, &mut s), r);
    }
    // sharded runs, any *exact* worker count, are bit-identical in
    // order (bypassing the min-batch / core-count policy so real
    // multi-thread execution is exercised even on small hosts)
    for workers in [1, 2, 3, 7, 64] {
        let mut sharded = Vec::new();
        index.run_batch_sharded_exact(&queries, workers, &mut sharded);
        assert_eq!(single, sharded, "exact workers={workers}");
    }
    // and the policy path answers identically too, whatever worker
    // count it actually picks
    let mut sharded = Vec::new();
    index.run_batch_sharded(&queries, 8, &mut sharded);
    assert_eq!(single, sharded);
}

/// The sharding policy: small batches run serial, and worker counts cap
/// at the host's parallelism (threads beyond the core count measured as
/// a net loss — the BENCH_serve sharded regression).
#[test]
fn effective_workers_degrades_small_batches_and_caps_at_the_host() {
    use mira_serve::SHARD_MIN_BATCH;
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    assert_eq!(ServeIndex::effective_workers(0, 64), 1);
    assert_eq!(ServeIndex::effective_workers(SHARD_MIN_BATCH - 1, 64), 1);
    assert_eq!(ServeIndex::effective_workers(SHARD_MIN_BATCH, 1), 1);
    let at = ServeIndex::effective_workers(SHARD_MIN_BATCH, 64);
    assert!(
        at >= 1 && at <= 64.min(hw),
        "policy stays in [1, min(64, hw)]: {at}"
    );
    assert_eq!(ServeIndex::effective_workers(1 << 20, usize::MAX), hw);
}

/// Satellite regression (stale-kernel shadowing): duplicate `(func,
/// machine)` registration is a typed refusal, and `replace` swaps the
/// model under the *same* [`mira_serve::KernelId`] so the new answers —
/// not the originals — are served, also through an answer cache filled
/// before the swap.
#[test]
fn duplicate_is_refused_and_replace_serves_new_answers() {
    let analysis = analyze_source(mira_workloads::memval::TRIAD_SRC, &MiraOptions::default())
        .expect("triad analyzes");
    let kr = KernelRoofline::analyze(&analysis, "triad").expect("roofline");
    let c = Ceilings::from_arch(&analysis.arch);
    let program = Arc::new(PlacementProgram::compile(&kr).expect("program compiles"));

    let build = |c: &Ceilings, machine: &str| CompiledKernel::attach(program.clone(), c, machine);
    let mut index = ServeIndex::new();
    let id = index.insert(build(&c, "m")).expect("first insert admits");

    // the old behavior: a second add slipped in and `find` kept serving
    // the first — now it refuses, typed
    match index.insert(build(&c, "m")) {
        Err(mira_serve::BuildError::Duplicate { func, machine }) => {
            assert_eq!((func.as_str(), machine.as_str()), ("triad", "m"));
        }
        other => panic!("expected Duplicate, got {:?}", other.map(|_| ())),
    }
    assert_eq!(index.len(), 1, "the refused insert did not grow the index");

    let base = base_values(&index, id, 4096);
    let q = index.query(id, &base).expect("query builds");
    let mut s = Scratch::new();
    let before = index.place(&q, &mut s).expect("places");
    let mut cache = AnswerCache::new(64);
    let cached = index.place_cached(&q, &mut cache, &mut s);
    assert_eq!(cached, Ok(before), "the cache is filled before the swap");

    // re-register with doubled DRAM bandwidth: same pair, same id, new
    // answers — what a ceilings-only hot-reload does
    let mut c2 = c;
    c2.bandwidth[MemLevel::Dram.index()] *= 2;
    let id2 = index.replace(build(&c2, "m"));
    assert_eq!(id2, id, "replace keeps the KernelId stable");
    assert_eq!(index.len(), 1);

    let after = index.place(&q, &mut s).expect("places after replace");
    assert!(
        after.mem_cycles[MemLevel::Dram.index()] < before.mem_cycles[MemLevel::Dram.index()],
        "the *new* model answers: DRAM bound halves with doubled bandwidth \
         ({} -> {})",
        before.mem_cycles[MemLevel::Dram.index()],
        after.mem_cycles[MemLevel::Dram.index()],
    );
    // the entry filled before the swap still serves, under the new
    // ceilings, bit-identical to the tree walk
    let hits = cache.probe().hits;
    let cached = index
        .place_cached(&q, &mut cache, &mut s)
        .expect("places through the cache after replace");
    assert_eq!(cache.probe().hits, hits + 1, "the entry survives the swap");
    let params = index.kernel(id).expect("kernel").params().to_vec();
    let b = params.into_iter().zip(base.iter().copied()).collect();
    let walked = kr.place(&c2, &b).expect("tree walk places");
    for (what, p) in [("uncached", &after), ("cached", &cached)] {
        assert_eq!(p.binding, walked.binding, "{what}");
        assert_eq!(
            p.compute_cycles.to_bits(),
            walked.compute_cycles.to_bits(),
            "{what}"
        );
        assert_eq!(
            p.mem_cycles.map(f64::to_bits),
            walked.mem_cycles.map(f64::to_bits),
            "{what}"
        );
    }

    // replace of an unregistered pair is an insert
    let id3 = index.replace(build(&c, "m2"));
    assert_ne!(id3, id);
    assert_eq!(index.len(), 2);
}

/// Satellite regression (O(n) find): the HashMap lookup answers exactly
/// like the old first-match linear scan on a 100-kernel fleet — which it
/// only can because duplicates are now refused at admission.
#[test]
fn find_matches_the_linear_scan_on_a_100_kernel_fleet() {
    let analysis = analyze_source(mira_workloads::memval::TRIAD_SRC, &MiraOptions::default())
        .expect("triad analyzes");
    let kr = KernelRoofline::analyze(&analysis, "triad").expect("roofline");
    let c = Ceilings::from_arch(&analysis.arch);

    let mut index = ServeIndex::new();
    for i in 0..100 {
        let k = CompiledKernel::build(&kr, &c, &format!("machine-{i:03}")).expect("compiles");
        index.insert(k).expect("admits");
    }
    assert_eq!(index.len(), 100);

    // the old implementation, verbatim: first match over insertion order
    let linear_scan = |func: &str, machine: &str| {
        index
            .kernels()
            .find(|(_, k)| k.func() == func && k.machine() == machine)
            .map(|(id, _)| id)
    };
    for i in 0..100 {
        let m = format!("machine-{i:03}");
        assert_eq!(index.find("triad", &m), linear_scan("triad", &m), "{m}");
        assert!(index.find("triad", &m).is_some());
    }
    assert_eq!(
        index.find("triad", "machine-100"),
        linear_scan("triad", "machine-100")
    );
    assert_eq!(
        index.find("nope", "machine-000"),
        linear_scan("nope", "machine-000")
    );
    assert_eq!(index.find("", ""), None);
}

#[test]
fn sweep_streams_the_same_answers() {
    let index = build_index();
    let id = index
        .find("dgemm", machines::GENERIC)
        .expect("dgemm on the default machine");
    let base = base_values(&index, id, 0);
    let mut s = Scratch::new();
    let mut count = 0;
    for (n, r) in index.sweep(id, "n", &base, 1, 64).expect("sweep builds") {
        let mut vals = base.clone();
        let slot = index
            .kernel(id)
            .unwrap()
            .params()
            .iter()
            .position(|p| p == "n")
            .unwrap();
        vals[slot] = n;
        let q = index.query(id, &vals).unwrap();
        assert_eq!(index.place(&q, &mut s), r, "n={n}");
        count += 1;
    }
    assert_eq!(count, 64);
}

/// A sweep whose window ends at `i128::MAX` stops after placing it; the
/// cursor must not step past the last value (a debug-build overflow
/// panic, a release-build wrap to `i128::MIN` that never ends).
#[test]
fn sweep_ending_at_i128_max_yields_once() {
    let index = build_index();
    let id = index.find("triad", machines::GENERIC).expect("triad");
    let base = base_values(&index, id, 1);
    let swept: Vec<_> = index
        .sweep(id, "n", &base, i128::MAX, i128::MAX)
        .expect("sweep builds")
        .take(3)
        .collect();
    assert_eq!(swept.len(), 1, "{swept:?}");
    let (n, answer) = &swept[0];
    assert_eq!(*n, i128::MAX);
    let q = index
        .query(id, &base_values(&index, id, i128::MAX))
        .expect("query builds");
    assert_eq!(answer, &index.place(&q, &mut Scratch::new()));
}

/// The crossover table over the widest window `[-1, i128::MAX]` prices
/// its shard policy without overflowing the window width and answers
/// one typed row per pair, equal to the single-pair crossover.
#[test]
fn crossover_table_over_the_widest_window_returns_typed_rows() {
    let index = build_index();
    for workers in [1, 4] {
        let rows = index.crossover_table("n", &[], -1, i128::MAX, workers);
        assert_eq!(rows.len(), index.len(), "one row per pair");
        for (row, (id, _)) in rows.iter().zip(index.kernels()) {
            assert_eq!(row.kernel, id);
            let single = index.crossover(id, "n", &base_values(&index, id, 1), -1, i128::MAX);
            assert_eq!(row.result, single, "{}@{}", row.func, row.machine);
        }
    }
}

#[test]
fn typed_refusals_for_bad_queries() {
    let index = build_index();
    let id = index.find("triad", machines::GENERIC).expect("triad");
    // wrong arity
    match index.query(id, &[1]) {
        Err(ServeError::BadArity { expected, got }) => {
            assert_eq!(got, 1);
            assert!(expected >= 2);
        }
        other => panic!("expected BadArity, got {other:?}"),
    }
    // unknown sweep parameter
    let base = base_values(&index, id, 8);
    match index.sweep(id, "bogus", &base, 1, 4) {
        Err(ServeError::UnknownParam(p)) => assert_eq!(p, "bogus"),
        other => panic!("expected UnknownParam, got {:?}", other.err()),
    }
    // unknown machine
    assert!(index.find("triad", "no-such-machine").is_none());
}

/// Satellite regression: the crossover solver now routes through the
/// compiled evaluator ([`mira_roofline::crossover_bisect`] is shared),
/// and the pinned DGEMM answer — leaving the DRAM roof onto the L1 knee
/// at n = 9 — is unchanged on both paths.
#[test]
fn compiled_crossover_matches_tree_walk_pinned_dgemm() {
    let analysis = analyze_source(mira_workloads::dgemm::DGEMM_SRC, &MiraOptions::default())
        .expect("dgemm analyzes");
    let kr = KernelRoofline::analyze(&analysis, "dgemm").expect("roofline");
    let c = Ceilings::from_arch(&analysis.arch);
    let tree = kr
        .crossover(&c, "n", &bindings(&[("reps", 1)]), 2, 64)
        .expect("tree crossover evaluates")
        .expect("DGEMM leaves the DRAM roof in [2, 64]");

    let mut index = ServeIndex::new();
    let id = admit(&mut index, &analysis, "dgemm");
    let base = base_values(&index, id, 2);
    let served = index
        .crossover(id, "n", &base, 2, 64)
        .expect("compiled crossover evaluates")
        .expect("compiled solver finds the same exit");

    assert_eq!(served, tree);
    assert_eq!(served.value, 9, "DGEMM exits the DRAM roof at n = 9");
    assert_eq!(served.from, Ceiling::Mem(MemLevel::Dram));
    assert_eq!(served.to, Ceiling::Mem(MemLevel::L1));
}
