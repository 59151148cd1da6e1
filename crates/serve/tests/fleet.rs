//! Fleet serving contracts: directory-loading refusals are typed and
//! all-or-nothing, hot-reload swaps changed machines atomically under
//! stable [`mira_serve::KernelId`]s, answer caches filled before a
//! reload serve the new ceilings' answers, and fleet-reloaded answers
//! are bit-identical to the symbolic tree walk under the edited
//! description. Compilation follows the analysis key: admission
//! compiles once per key, a ceilings-only reload analyzes and compiles
//! nothing, and the key itself covers everything analysis reads of a
//! description.

use std::fs;
use std::path::PathBuf;

use mira_arch::desc::DEFAULT_DESCRIPTION;
use mira_arch::{ArchDescription, Bandwidths, CacheLevel, LoadError, PeakParams};
use mira_core::{analyze_source, MiraOptions};
use mira_roofline::{AnalysisKey, Ceilings, KernelRoofline, MemLevel, Placement};
use mira_serve::{machines, AnswerCache, FleetError, MachineFleet, Scratch, ServeError};
use proptest::test_runner::TestRng;

/// The seven serving kernels, as `bench_serve` serves them.
const SERVING: [(&str, &str); 7] = [
    ("triad", mira_workloads::memval::TRIAD_SRC),
    ("dgemm", mira_workloads::dgemm::DGEMM_SRC),
    ("dgemm_tiled", mira_workloads::roofval::DGEMM_TILED_SRC),
    ("triad_blocked", mira_workloads::roofval::TRIAD_BLOCKED_SRC),
    ("trisolve", mira_workloads::compose::TRISOLVE_SRC),
    ("blur", mira_workloads::compose::STENCIL_SWEEP_SRC),
    ("cg_solve", mira_workloads::minife::MINIFE_SRC),
];

/// The spans of analysis and compilation: none may run while a reload
/// only swaps ceilings.
const PIPELINE_SPANS: [&str; 4] = [
    "phase.frontend",
    "phase.metrics",
    "roofline.analyze",
    "serve.compile",
];

/// A fresh temp directory holding the two stock machine descriptions.
fn fleet_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mira_serve_fleet_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    fs::write(dir.join("generic.ini"), DEFAULT_DESCRIPTION).expect("write generic");
    fs::write(dir.join("avx2.ini"), machines::AVX2_FMA_DESCRIPTION).expect("write avx2");
    dir
}

/// Positional values for a kernel: `n` slots get `n0`, the rest 1.
fn base_values(fleet: &MachineFleet, id: mira_serve::KernelId, n0: i128) -> Vec<i128> {
    fleet
        .index()
        .kernel(id)
        .expect("kernel exists")
        .params()
        .iter()
        .map(|p| if p == "n" { n0 } else { 1 })
        .collect()
}

fn assert_bit_identical(a: &Placement, b: &Placement, ctx: &str) {
    assert_eq!(a.binding, b.binding, "{ctx}");
    assert_eq!(
        a.compute_cycles.to_bits(),
        b.compute_cycles.to_bits(),
        "{ctx} compute"
    );
    for i in 0..3 {
        assert_eq!(
            a.mem_cycles[i].to_bits(),
            b.mem_cycles[i].to_bits(),
            "{ctx} mem[{i}]"
        );
    }
}

/// The tree-walk roofline of `func` under a description.
fn roofline(arch: &ArchDescription, func: &str, src: &str) -> KernelRoofline {
    let opts = MiraOptions {
        arch: arch.clone(),
        ..Default::default()
    };
    let analysis = analyze_source(src, &opts).expect("workload analyzes");
    KernelRoofline::analyze(&analysis, func).expect("roofline analyzes")
}

/// The tree walk's placement of `func` under a description text, for
/// differential comparison against fleet-served answers.
fn tree_walk(desc_text: &str, func: &str, src: &str, values: &[(&str, i128)]) -> Placement {
    let arch = ArchDescription::parse(desc_text).expect("description parses");
    let kr = roofline(&arch, func, src);
    kr.place(&Ceilings::from_arch(&arch), &mira_sym::bindings(values))
        .expect("tree walk places")
}

/// Every kernel the fleet serves on `machine` answers like the tree walk
/// under `desc_text`, bit for bit, across regimes (n = 8 … 1M).
fn assert_serves_tree_walk(
    fleet: &MachineFleet,
    machine: &str,
    desc_text: &str,
    kernels: &[(&str, &str)],
) {
    let arch = ArchDescription::parse(desc_text).expect("description parses");
    let c = Ceilings::from_arch(&arch);
    let mut s = Scratch::new();
    for (func, src) in kernels {
        let kr = roofline(&arch, func, src);
        let id = fleet.find(func, machine).expect("kernel served");
        let params = fleet.index().kernel(id).expect("kernel").params().to_vec();
        for n in [8, 300, 4096, 1 << 20] {
            let vals = base_values(fleet, id, n);
            let q = fleet.index().query(id, &vals).expect("query builds");
            let served = fleet.index().place(&q, &mut s).expect("places");
            let b = params.iter().cloned().zip(vals.iter().copied()).collect();
            let walked = kr.place(&c, &b).expect("tree walk places");
            assert_bit_identical(&walked, &served, &format!("{func}@{machine} n={n}"));
        }
    }
}

#[test]
fn fleet_compiles_the_full_cross_product() {
    let dir = fleet_dir("cross");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    assert_eq!(fleet.machines().count(), 2);
    let ids = fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits");
    assert_eq!(ids.len(), 2, "one id per machine");
    fleet
        .admit_source("dgemm", mira_workloads::dgemm::DGEMM_SRC)
        .expect("dgemm admits");
    assert_eq!(fleet.index().len(), 4, "2 kernels x 2 machines");
    for func in ["triad", "dgemm"] {
        for machine in [machines::GENERIC, machines::AVX2_FMA] {
            assert!(fleet.find(func, machine).is_some(), "{func}@{machine}");
        }
    }
    assert_eq!(fleet.funcs().collect::<Vec<_>>(), ["triad", "dgemm"]);
    // re-admitting is a typed refusal, not 2 more shadowed entries
    match fleet.admit_source("triad", mira_workloads::memval::TRIAD_SRC) {
        Err(FleetError::DuplicateKernel { func }) => assert_eq!(func, "triad"),
        other => panic!("expected DuplicateKernel, got {:?}", other.map(|_| ())),
    }
    assert_eq!(fleet.index().len(), 4);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_description_is_a_typed_per_file_error() {
    let dir = fleet_dir("malformed");
    fs::write(dir.join("broken.ini"), "[machine]\ncores = banana\n").expect("write");
    match MachineFleet::load(&dir) {
        Err(FleetError::Load(LoadError::Parse { path, .. })) => {
            assert!(
                path.ends_with("broken.ini"),
                "error names the file: {path:?}"
            );
        }
        Err(other) => panic!("expected Load(Parse), got {other:?}"),
        Ok(_) => panic!("malformed directory must refuse, not half-load"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reload_is_atomic_against_a_malformed_edit() {
    let dir = fleet_dir("atomic");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let id = fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits")[0];
    let q = fleet
        .index()
        .query(id, &base_values(&fleet, id, 4096))
        .expect("query builds");
    let mut s = Scratch::new();
    let before = fleet.index().place(&q, &mut s).expect("places");
    let mut cache = AnswerCache::new(64);
    let filled = fleet.index().place_cached(&q, &mut cache, &mut s);
    assert_eq!(filled, Ok(before), "the cache is filled before any reload");

    // an untouched directory reloads as a no-op
    let report = fleet.reload().expect("noop reload");
    assert!(report.is_noop());
    assert_eq!(report.recompiled, 0);

    // corrupt one file — malformed, truncated mid-line, not UTF-8: each
    // reload refuses (typed, names the file) and the fleet keeps serving
    // exactly its pre-reload answers, uncached and through the cache
    let cut = DEFAULT_DESCRIPTION
        .find("[cache l1]")
        .expect("has an l1 section")
        + 4;
    let mut not_utf8 = DEFAULT_DESCRIPTION.as_bytes().to_vec();
    not_utf8.splice(10..10, [0xff, 0xfe]);
    let edits: [(&str, &[u8]); 3] = [
        ("malformed", b"[machine\nname oops"),
        ("truncated", &DEFAULT_DESCRIPTION.as_bytes()[..cut]),
        ("non-UTF-8", &not_utf8),
    ];
    for (what, bytes) in edits {
        fs::write(dir.join("generic.ini"), bytes).expect("corrupt");
        match (what, fleet.reload()) {
            ("non-UTF-8", Err(FleetError::Load(LoadError::Io { path, .. })))
            | (_, Err(FleetError::Load(LoadError::Parse { path, .. }))) => {
                assert!(path.ends_with("generic.ini"), "{what}: {path:?}");
            }
            (_, other) => panic!(
                "{what}: expected a typed Load refusal, got {:?}",
                other.map(|_| ())
            ),
        }
        let after = fleet.index().place(&q, &mut s).expect("still places");
        assert_bit_identical(
            &before,
            &after,
            &format!("{what}: refused reload changes nothing"),
        );
        let cached = fleet
            .index()
            .place_cached(&q, &mut cache, &mut s)
            .expect("still places through the cache");
        assert_bit_identical(
            &before,
            &cached,
            &format!("{what}: cached answer unchanged"),
        );
    }

    // restoring the original text reloads as a no-op again
    fs::write(dir.join("generic.ini"), DEFAULT_DESCRIPTION).expect("restore");
    assert!(fleet.reload().expect("reload").is_noop());
    let _ = fs::remove_dir_all(&dir);
}

/// The tentpole regression: edit a machine description, reload, and the
/// *new* model answers — under the same [`mira_serve::KernelId`],
/// through an [`AnswerCache`] filled before the reload, and
/// bit-identical to the tree walk under the edited description. Exactly
/// the sequence the old first-match index turned into silent stale
/// serving.
#[test]
fn reload_swaps_changed_machines_under_stable_ids() {
    let dir = fleet_dir("swap");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits");
    fleet
        .admit_source("dgemm", mira_workloads::dgemm::DGEMM_SRC)
        .expect("dgemm admits");
    let id = fleet.find("triad", machines::AVX2_FMA).expect("triad@avx2");
    let vals = base_values(&fleet, id, 4096);
    let q = fleet.index().query(id, &vals).expect("query builds");
    let mut s = Scratch::new();
    let mut cache = AnswerCache::new(256);
    let before = fleet
        .index()
        .place_cached(&q, &mut cache, &mut s)
        .expect("places");
    // the point is cached before the reload
    assert_eq!(cache.probe().len, 1);

    // double the avx2 machine's DRAM bandwidth and reload
    let edited = machines::AVX2_FMA_DESCRIPTION.replace(
        "[bandwidth dram]\nbytes_per_cycle = 8",
        "[bandwidth dram]\nbytes_per_cycle = 16",
    );
    assert_ne!(edited, machines::AVX2_FMA_DESCRIPTION, "edit applied");
    fs::write(dir.join("avx2.ini"), &edited).expect("edit avx2");
    let report = fleet.reload().expect("reload succeeds");
    assert_eq!(report.changed, ["avx2-fma"]);
    assert!(report.added.is_empty() && report.removed.is_empty());
    assert_eq!(
        report.recompiled, 2,
        "both entries of the edited machine swapped"
    );

    // same id, new answers — through the cache, whose entry survives:
    // the reload attached the new ceilings to the same program
    assert_eq!(
        fleet.find("triad", machines::AVX2_FMA),
        Some(id),
        "id stable"
    );
    let after = fleet
        .index()
        .place_cached(&q, &mut cache, &mut s)
        .expect("places after reload");
    assert_eq!(
        cache.probe().hits,
        1,
        "the entry filled before the reload serves"
    );
    let dram = MemLevel::Dram.index();
    assert!(
        after.mem_cycles[dram] < before.mem_cycles[dram],
        "doubled DRAM bandwidth halves the DRAM bound ({} -> {})",
        before.mem_cycles[dram],
        after.mem_cycles[dram],
    );

    // differential: the served answer equals the tree walk under the
    // *edited* description, bit for bit, cached and uncached
    let binds: Vec<(&str, i128)> = fleet
        .index()
        .kernel(id)
        .expect("kernel")
        .params()
        .iter()
        .zip(&vals)
        .map(|(p, v)| (p.as_str(), *v))
        .collect();
    let walked = tree_walk(&edited, "triad", mira_workloads::memval::TRIAD_SRC, &binds);
    assert_bit_identical(&walked, &after, "reloaded vs tree walk");
    let uncached = fleet.index().place(&q, &mut s).expect("places uncached");
    assert_bit_identical(&uncached, &after, "cached vs uncached after reload");

    // the untouched machine's answers did not move
    let gid = fleet
        .find("triad", machines::GENERIC)
        .expect("triad@generic");
    let gq = fleet
        .index()
        .query(gid, &base_values(&fleet, gid, 4096))
        .expect("query builds");
    let gserved = fleet.index().place(&gq, &mut s).expect("places");
    let gwalked = tree_walk(
        DEFAULT_DESCRIPTION,
        "triad",
        mira_workloads::memval::TRIAD_SRC,
        &binds,
    );
    assert_bit_identical(&gwalked, &gserved, "untouched machine");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reload_adds_and_removes_machines() {
    let dir = fleet_dir("addrm");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits");
    assert_eq!(fleet.index().len(), 2);

    // a third machine appears: its kernels are compiled and added
    let charlie = DEFAULT_DESCRIPTION.replace("generic-x86_64", "charlie");
    fs::write(dir.join("charlie.ini"), &charlie).expect("write charlie");
    let report = fleet.reload().expect("reload");
    assert_eq!(report.added, ["charlie"]);
    assert_eq!(report.recompiled, 1);
    assert_eq!(fleet.index().len(), 3);
    let cid = fleet.find("triad", "charlie").expect("triad@charlie");
    let mut s = Scratch::new();
    let q = fleet
        .index()
        .query(cid, &base_values(&fleet, cid, 1024))
        .expect("query builds");
    assert!(fleet.index().place(&q, &mut s).is_ok());

    // fill a cache on every machine, then remove one: rebuild, ids void
    let mut cache = AnswerCache::new(64);
    for machine in [machines::GENERIC, machines::AVX2_FMA, "charlie"] {
        let id = fleet.find("triad", machine).expect("triad served");
        let q = fleet
            .index()
            .query(id, &base_values(&fleet, id, 1024))
            .expect("query builds");
        assert!(
            fleet.index().place_cached(&q, &mut cache, &mut s).is_ok(),
            "{machine}"
        );
    }
    fs::remove_file(dir.join("charlie.ini")).expect("remove charlie");
    let report = fleet.reload().expect("reload");
    assert_eq!(report.removed, ["charlie"]);
    assert_eq!(
        report.recompiled, 2,
        "full rebuild over the remaining machines"
    );
    assert_eq!(fleet.index().len(), 2);
    assert!(fleet.find("triad", "charlie").is_none());
    // the survivors, re-found, answer through the cache filled before
    // the removal exactly like the tree walk under their descriptions
    for (machine, text) in [
        (machines::GENERIC, DEFAULT_DESCRIPTION),
        (machines::AVX2_FMA, machines::AVX2_FMA_DESCRIPTION),
    ] {
        let id = fleet.find("triad", machine).expect("survivor serves");
        let vals = base_values(&fleet, id, 1024);
        let q = fleet.index().query(id, &vals).expect("query builds");
        let cached = fleet
            .index()
            .place_cached(&q, &mut cache, &mut s)
            .expect("survivor places through the cache");
        let params = fleet.index().kernel(id).expect("kernel").params().to_vec();
        let binds: Vec<(&str, i128)> = params
            .iter()
            .map(String::as_str)
            .zip(vals.iter().copied())
            .collect();
        let walked = tree_walk(text, "triad", mira_workloads::memval::TRIAD_SRC, &binds);
        assert_bit_identical(&walked, &cached, machine);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Error answers flow through the cache unchanged: a refusal served
/// cold equals the refusal served from the cache.
#[test]
fn cached_refusals_match_uncached() {
    let dir = fleet_dir("refusals");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let id = fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits")[0];
    // every parameter astronomical: the triad's n·reps products leave
    // the i128 range (n alone no longer does — its closed form cancels
    // to 2·n·reps FLOPs, evaluated once through the shared primitive)
    let huge = vec![i64::MAX as i128; base_values(&fleet, id, 1).len()];
    let q = fleet.index().query(id, &huge).expect("query builds");
    let mut s = Scratch::new();
    let mut cache = AnswerCache::new(64);
    let cold = fleet.index().place(&q, &mut s);
    let first = fleet.index().place_cached(&q, &mut cache, &mut s);
    let second = fleet.index().place_cached(&q, &mut cache, &mut s);
    assert!(
        matches!(cold, Err(ServeError::Eval(_))),
        "astronomical n refuses: {cold:?}"
    );
    assert_eq!(cold, first, "cold vs cache-miss");
    assert_eq!(cold, second, "cold vs cache-hit");
    assert!(cache.probe().hits >= 1);
    let _ = fs::remove_dir_all(&dir);
}

/// The fleet shares one analysis and one compiled program among the
/// machines of an [`AnalysisKey`], which is sound only while analysis
/// reads nothing else of a description. Change every field outside the
/// key — all three bandwidths, the peak, the vector width and lanes,
/// both cache levels and the name — and every serving kernel must
/// analyze to the identical roofline: closed forms, `vectorized` and
/// the nest model. Change the line size and the footprints must move.
#[test]
fn analysis_reads_nothing_outside_the_sharing_key() {
    let generic = ArchDescription::default();
    let mut other = generic.clone();
    other.machine.name = "elsewhere".to_string();
    other.machine.bandwidth = Bandwidths {
        l1: 96,
        l2: 40,
        dram: 12,
    };
    other.machine.peak = PeakParams {
        fp_pipes: 3,
        fma: true,
    };
    other.machine.fp_lanes_per_vector = 8;
    other.machine.vector_bits = 512;
    other.machine.l1 = CacheLevel {
        size_bytes: 49152,
        assoc: 12,
    };
    other.machine.l2 = CacheLevel {
        size_bytes: 1 << 21,
        assoc: 16,
    };
    assert_eq!(AnalysisKey::of(&other), AnalysisKey::of(&generic));
    let (cg, co) = (Ceilings::from_arch(&generic), Ceilings::from_arch(&other));
    assert_ne!(cg.peak_scalar, co.peak_scalar);
    assert_ne!(cg.peak_vector, co.peak_vector);
    for l in 0..3 {
        assert_ne!(cg.bandwidth[l], co.bandwidth[l], "bandwidth {l}");
    }
    assert_ne!(cg.capacity_above[1], co.capacity_above[1]);
    assert_ne!(cg.capacity_above[2], co.capacity_above[2]);

    let mut wide = generic.clone();
    wide.machine.cache_line_bytes = 128;
    assert_ne!(AnalysisKey::of(&wide), AnalysisKey::of(&generic));

    for (func, src) in SERVING {
        let base = roofline(&generic, func, src);
        let moved = roofline(&other, func, src);
        // Debug prints every field: each closed form, footprint_known,
        // vectorized and the whole nest model
        assert_eq!(
            format!("{base:?}"),
            format!("{moved:?}"),
            "{func}: analysis read a description field outside the sharing key"
        );
        assert_eq!(base.vectorized, moved.vectorized, "{func}");
        let widened = roofline(&wide, func, src);
        assert_ne!(
            base.footprint_lines(),
            widened.footprint_lines(),
            "{func}: the line size must reach the footprint"
        );
    }
}

/// Admission compiles once per analysis key, not once per machine: the
/// two bundled machines share a key, so K kernels cost K compilations
/// for 2K served entries — and each machine's entries still answer like
/// the tree walk under its own description.
#[test]
fn admission_compiles_once_per_analysis_key() {
    let dir = fleet_dir("admit_key");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let keys: Vec<AnalysisKey> = fleet.machines().map(|m| AnalysisKey::of(&m.desc)).collect();
    assert_eq!(keys.len(), 2);
    assert_eq!(
        keys[0], keys[1],
        "the bundled machines share an analysis key"
    );
    let ((), trace) = mira_probe::capture(|| {
        for (func, src) in SERVING {
            fleet.admit_source(func, src).expect("kernel admits");
        }
    });
    assert_eq!(fleet.index().len(), 2 * SERVING.len());
    let k = SERVING.len() as u64;
    assert_eq!(
        trace.span_count("serve.compile"),
        k,
        "one program per kernel"
    );
    assert_eq!(trace.span_count("roofline.analyze"), k);
    assert_eq!(trace.span_count("phase.frontend"), k);
    assert_serves_tree_walk(&fleet, machines::GENERIC, DEFAULT_DESCRIPTION, &SERVING);
    assert_serves_tree_walk(
        &fleet,
        machines::AVX2_FMA,
        machines::AVX2_FMA_DESCRIPTION,
        &SERVING,
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A reload after a bandwidth, peak or L2-size edit re-attaches the new
/// ceilings to the programs already compiled: no analysis, no
/// compilation — and the answers are bit-identical to the tree walk
/// under the edited file.
#[test]
fn ceilings_only_reloads_compile_nothing() {
    let dir = fleet_dir("ceilings");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let kernels = &SERVING[..2];
    for (func, src) in kernels {
        fleet.admit_source(func, src).expect("kernel admits");
    }
    let edits = [
        (
            "[bandwidth dram]\nbytes_per_cycle = 8",
            "[bandwidth dram]\nbytes_per_cycle = 16",
        ),
        ("fp_pipes = 2\nfma = yes", "fp_pipes = 3\nfma = yes"),
        (
            "[cache l2]\nsize_bytes = 1048576",
            "[cache l2]\nsize_bytes = 65536",
        ),
    ];
    let mut text = machines::AVX2_FMA_DESCRIPTION.to_string();
    for (from, to) in edits {
        let edited = text.replace(from, to);
        assert_ne!(edited, text, "edit `{to}` applies");
        text = edited;
        fs::write(dir.join("avx2.ini"), &text).expect("edit avx2");
        let (report, trace) = mira_probe::capture(|| fleet.reload().expect("reload succeeds"));
        assert_eq!(report.changed, [machines::AVX2_FMA], "{to}");
        assert_eq!(
            report.recompiled,
            kernels.len(),
            "every entry swapped: {to}"
        );
        for span in PIPELINE_SPANS {
            assert_eq!(trace.span_count(span), 0, "{span} ran for `{to}`");
        }
        assert_serves_tree_walk(&fleet, machines::AVX2_FMA, &text, kernels);
    }
    assert_serves_tree_walk(&fleet, machines::GENERIC, DEFAULT_DESCRIPTION, kernels);
    let _ = fs::remove_dir_all(&dir);
}

/// A `cache_line_bytes` edit changes the machine's analysis key: its
/// kernels are analyzed and compiled under the new line size (and still
/// match the tree walk), while the untouched machine keeps its programs.
/// Editing the line size back re-shares the other machine's programs
/// without compiling.
#[test]
fn line_size_edit_recompiles_and_matches_the_tree_walk() {
    let dir = fleet_dir("line");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let kernels = &SERVING[..2];
    for (func, src) in kernels {
        fleet.admit_source(func, src).expect("kernel admits");
    }
    let wide =
        machines::AVX2_FMA_DESCRIPTION.replace("cache_line_bytes = 64", "cache_line_bytes = 128");
    assert_ne!(wide, machines::AVX2_FMA_DESCRIPTION, "edit applies");
    fs::write(dir.join("avx2.ini"), &wide).expect("edit avx2");
    let (report, trace) = mira_probe::capture(|| fleet.reload().expect("reload succeeds"));
    assert_eq!(report.changed, [machines::AVX2_FMA]);
    assert_eq!(report.recompiled, kernels.len());
    assert_eq!(
        trace.span_count("serve.compile"),
        kernels.len() as u64,
        "the new key compiles every kernel once"
    );
    assert_serves_tree_walk(&fleet, machines::AVX2_FMA, &wide, kernels);
    assert_serves_tree_walk(&fleet, machines::GENERIC, DEFAULT_DESCRIPTION, kernels);

    fs::write(dir.join("avx2.ini"), machines::AVX2_FMA_DESCRIPTION).expect("restore avx2");
    let (report, trace) = mira_probe::capture(|| fleet.reload().expect("reload succeeds"));
    assert_eq!(report.changed, [machines::AVX2_FMA]);
    assert_eq!(
        trace.span_count("serve.compile"),
        0,
        "the old key is still served"
    );
    assert_serves_tree_walk(
        &fleet,
        machines::AVX2_FMA,
        machines::AVX2_FMA_DESCRIPTION,
        kernels,
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Section-header offsets of a description: a cut there leaves whole
/// sections only.
fn header_offsets(text: &str) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_start().starts_with('[') {
            offsets.push(at);
        }
        at += line.len();
    }
    offsets
}

/// A stock description with two bytes that are not UTF-8.
fn not_utf8() -> Vec<u8> {
    let mut bytes = DEFAULT_DESCRIPTION.as_bytes().to_vec();
    bytes.splice(10..10, [0xff, 0xfe]);
    bytes
}

/// The two stock descriptions, by file name.
const STOCK: [(&str, &str); 2] = [
    ("generic.ini", DEFAULT_DESCRIPTION),
    ("avx2.ini", machines::AVX2_FMA_DESCRIPTION),
];

/// A seeded generator of fleet-directory contents.
struct DirFuzz(TestRng);

impl DirFuzz {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// A file of random bytes: half of them drawn from the description
    /// alphabet, so the parser gets past its first line.
    fn bytes(&mut self) -> Vec<u8> {
        const ALPHABET: &[u8] =
            b"[]=#;\n \tmachine cache l1 l2 bandwidth dram peak metric fpi name size_bytes 0123456789";
        let len = self.below(256);
        let ini_like = self.below(2) == 0;
        (0..len)
            .map(|_| match ini_like {
                true => ALPHABET[self.below(ALPHABET.len())],
                false => self.0.next_u64() as u8,
            })
            .collect()
    }

    /// A random value: a number at or past the edges of `u32`, a word,
    /// printable junk or nothing.
    fn token(&mut self) -> String {
        const TOKENS: [&str; 12] = [
            "0",
            "1",
            "-1",
            "3",
            "8",
            "64",
            "128",
            "4294967295",
            "4294967296",
            "yes",
            "banana",
            "",
        ];
        match self.below(3) {
            0 => (self.0.next_u64() as u32).to_string(),
            1 => (0..1 + self.below(8))
                .map(|_| (b' ' + self.below(95) as u8) as char)
                .collect(),
            _ => TOKENS[self.below(TOKENS.len())].to_string(),
        }
    }

    /// `text` with one `key = value` line's value replaced by a random
    /// token.
    fn retoken(&mut self, text: &str) -> String {
        let lines: Vec<&str> = text.lines().collect();
        let values: Vec<usize> = (0..lines.len())
            .filter(|&i| !lines[i].trim_start().starts_with('#') && lines[i].contains('='))
            .collect();
        let pick = values[self.below(values.len())];
        let token = self.token();
        lines
            .iter()
            .enumerate()
            .map(|(i, l)| match i == pick {
                true => format!("{}= {token}\n", l.split('=').next().unwrap_or_default()),
                false => format!("{l}\n"),
            })
            .collect()
    }

    /// `text` cut at one of its section headers.
    fn truncate<'t>(&mut self, text: &'t str) -> &'t str {
        let offsets = header_offsets(text);
        &text[..offsets[self.below(offsets.len())]]
    }

    /// One random edit of a fleet directory holding [`STOCK`]; returns
    /// what it did.
    fn edit(&mut self, dir: &std::path::Path) -> String {
        let (name, text) = STOCK[self.below(STOCK.len())];
        let write = |file: &str, bytes: &[u8]| fs::write(dir.join(file), bytes).expect("write");
        match self.below(12) {
            0 => {
                write(name, &self.bytes());
                format!("random bytes in {name}")
            }
            1 => {
                write(name, self.truncate(text).as_bytes());
                format!("{name} cut at a section header")
            }
            2 | 3 => {
                let t = self.retoken(text);
                write(name, t.as_bytes());
                format!("{name} with a random value: {t:?}")
            }
            4 => {
                write(name, &not_utf8());
                format!("{name} not UTF-8")
            }
            5 => {
                write("copy.ini", text.as_bytes());
                format!("copy.ini duplicates {name}")
            }
            6 => {
                write("notes.txt", &self.bytes());
                write(&format!("{name}.bak"), &self.bytes());
                "stray non-.ini files".to_string()
            }
            7 => {
                let bw = 1 + self.below(64);
                let t = text.replace(
                    "[bandwidth dram]\nbytes_per_cycle = ",
                    &format!("[bandwidth dram]\nbytes_per_cycle = {bw}"),
                );
                write(name, t.as_bytes());
                format!("{name} at DRAM bandwidth {bw}")
            }
            8 => {
                let t = DEFAULT_DESCRIPTION.replace("generic-x86_64", "charlie");
                write("charlie.ini", t.as_bytes());
                "charlie.ini added".to_string()
            }
            9 => {
                let _ = fs::remove_file(dir.join("charlie.ini"));
                "charlie.ini removed".to_string()
            }
            _ => {
                for (name, text) in STOCK {
                    write(name, text.as_bytes());
                }
                let _ = fs::remove_file(dir.join("copy.ini"));
                "stock files restored".to_string()
            }
        }
    }
}

/// A directory's contents: `(file name, bytes)`.
type Files = Vec<(String, Vec<u8>)>;

/// `MachineFleet::load` over seeded directory contents — empty, random
/// bytes, the stock descriptions cut at every section header or with one
/// value replaced by a random token, a non-UTF-8 file, a duplicate
/// machine name, stray entries that are not `*.ini` files — loads or
/// refuses with a typed [`FleetError::Load`], and never panics.
#[test]
fn fuzzed_fleet_directories_load_or_refuse_typed() {
    let mut fuzz = DirFuzz(TestRng::deterministic("fleet-dir-fuzz"));
    let stock = || -> Files {
        STOCK
            .iter()
            .map(|(name, text)| (name.to_string(), text.as_bytes().to_vec()))
            .collect()
    };
    let with = |name: &str, bytes: Vec<u8>| {
        let mut files = stock();
        match files.iter_mut().find(|(n, _)| n == name) {
            Some(f) => f.1 = bytes,
            None => files.push((name.to_string(), bytes)),
        }
        files
    };
    let mut cases: Vec<(String, Files)> = vec![("empty".to_string(), Vec::new())];
    for i in 0..16 {
        let files = (0..1 + fuzz.below(3))
            .map(|j| (format!("r{j}.ini"), fuzz.bytes()))
            .collect();
        cases.push((format!("random bytes {i}"), files));
    }
    for (name, text) in STOCK {
        for cut in header_offsets(text) {
            let files = with(name, text.as_bytes()[..cut].to_vec());
            cases.push((format!("{name} cut at byte {cut}"), files));
        }
        for i in 0..12 {
            let files = with(name, fuzz.retoken(text).into_bytes());
            cases.push((format!("{name} random value {i}"), files));
        }
    }
    cases.push(("non-UTF-8".to_string(), with("generic.ini", not_utf8())));
    cases.push((
        "duplicate name".to_string(),
        with("copy.ini", DEFAULT_DESCRIPTION.as_bytes().to_vec()),
    ));
    let mut stray = with("notes.txt", fuzz.bytes());
    stray.push(("generic.ini.bak".to_string(), fuzz.bytes()));
    stray.push(("README".to_string(), fuzz.bytes()));
    cases.push(("stray".to_string(), stray));

    let dir = std::env::temp_dir().join(format!("mira_serve_fleet_fuzz_{}", std::process::id()));
    let (mut loaded, mut refused) = (0, 0);
    for (what, files) in &cases {
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        for (name, bytes) in files {
            fs::write(dir.join(name), bytes).expect("write");
        }
        if what == "stray" {
            // a directory is not a description, whatever its name
            fs::create_dir(dir.join("sub.ini")).expect("create sub.ini/");
        }
        match MachineFleet::load(&dir) {
            Ok(fleet) => {
                loaded += 1;
                let inis = files.iter().filter(|(n, _)| n.ends_with(".ini")).count();
                assert_eq!(fleet.machines().count(), inis, "{what}");
            }
            Err(FleetError::Load(e)) => {
                refused += 1;
                assert!(!e.to_string().is_empty(), "{what}");
            }
            Err(other) => panic!("{what}: load refused with {other:?}"),
        }
    }
    // the cases whose outcome is known
    let outcome = |what: &str| {
        let (_, files) = cases.iter().find(|(w, _)| w == what).expect("case exists");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        for (name, bytes) in files {
            fs::write(dir.join(name), bytes).expect("write");
        }
        MachineFleet::load(&dir)
    };
    assert!(matches!(outcome("empty"), Ok(f) if f.machines().count() == 0));
    assert!(matches!(
        outcome("non-UTF-8"),
        Err(FleetError::Load(LoadError::Io { .. }))
    ));
    assert!(matches!(
        outcome("duplicate name"),
        Err(FleetError::Load(LoadError::DuplicateName { .. }))
    ));
    assert!(matches!(outcome("stray"), Ok(f) if f.machines().count() == 2));
    assert!(
        loaded > 0 && refused > 0,
        "{loaded} loaded, {refused} refused"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A point of every served kernel × machine pair, and its uncached
/// answer.
type Served = Vec<(
    String,
    String,
    mira_serve::Query,
    Result<Placement, ServeError>,
)>;

fn served(fleet: &MachineFleet, s: &mut Scratch) -> Served {
    let mut out = Vec::new();
    for (id, k) in fleet.index().kernels() {
        for n in [8, 300, 4096, 1 << 20] {
            let q = fleet
                .index()
                .query(id, &base_values(fleet, id, n))
                .expect("query builds");
            let a = fleet.index().place(&q, s);
            out.push((k.func().to_string(), k.machine().to_string(), q, a));
        }
    }
    out
}

fn assert_same_answer(
    a: &Result<Placement, ServeError>,
    b: &Result<Placement, ServeError>,
    ctx: &str,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => assert_bit_identical(x, y, ctx),
        _ => assert_eq!(a, b, "{ctx}"),
    }
}

/// Seeded random edits of a loaded fleet's directory (random bytes,
/// cuts at section headers, random values, non-UTF-8, duplicate names,
/// stray files, valid bandwidth edits, machines added and removed,
/// restores): every `reload()` either applies — each changed or added
/// machine then answers like the tree walk under its loaded description,
/// and every other machine as before — or refuses with a typed error
/// and leaves every answer unchanged, uncached and through an answer
/// cache holding the placements it served before the refusal.
#[test]
fn fuzzed_fleet_edits_apply_or_refuse_atomically() {
    let dir = fleet_dir("fuzz_edits");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let kernels = &SERVING[..2];
    for (func, src) in kernels {
        fleet.admit_source(func, src).expect("kernel admits");
    }
    let mut fuzz = DirFuzz(TestRng::deterministic("fleet-edit-fuzz"));
    let mut cache = AnswerCache::new(256);
    let mut s = Scratch::new();
    let mut before = served(&fleet, &mut s);
    let (mut applied, mut refused, mut kept_reads) = (0, 0, 0);
    for step in 0..48 {
        // read every point through the cache, so its entries keep the
        // placements of the kernels now served
        for (func, machine, q, want) in &before {
            let got = fleet.index().place_cached(q, &mut cache, &mut s);
            assert_same_answer(want, &got, &format!("step {step} {func}@{machine} cached"));
        }
        let what = fuzz.edit(&dir);
        match fleet.reload() {
            Ok(report) => {
                applied += 1;
                let after = served(&fleet, &mut s);
                for (func, machine, q, got) in &after {
                    let ctx = format!("step {step} ({what}): {func}@{machine}");
                    let touched = report
                        .changed
                        .iter()
                        .chain(&report.added)
                        .any(|m| m == machine);
                    if touched {
                        let m = fleet
                            .machines()
                            .find(|m| m.name() == machine)
                            .expect("served machine is loaded");
                        let src = kernels.iter().find(|(f, _)| f == func).expect("admitted").1;
                        let kr = roofline(&m.desc, func, src);
                        let k = fleet.index().kernel(q.kernel).expect("kernel");
                        let b = k.params().iter().cloned().zip(q.values).collect();
                        let walked = kr.place(&Ceilings::from_arch(&m.desc), &b);
                        assert_same_answer(&walked.map_err(ServeError::Eval), got, &ctx);
                    } else {
                        let old = before
                            .iter()
                            .find(|(f, m, o, _)| f == func && m == machine && o.values == q.values)
                            .expect("an untouched machine was served before");
                        assert_same_answer(&old.3, got, &ctx);
                    }
                }
                before = after;
            }
            Err(e) => {
                refused += 1;
                assert!(!e.to_string().is_empty(), "step {step} ({what})");
                let memo_hits = cache.probe().memo_hits;
                for (func, machine, q, want) in &before {
                    let ctx = format!("step {step} ({what}) refused: {func}@{machine}");
                    assert_same_answer(want, &fleet.index().place(q, &mut s), &ctx);
                    let cached = fleet.index().place_cached(q, &mut cache, &mut s);
                    assert_same_answer(want, &cached, &format!("{ctx} cached"));
                }
                kept_reads += cache.probe().memo_hits - memo_hits;
            }
        }
    }
    assert!(
        applied > 0 && refused > 0,
        "{applied} applied, {refused} refused"
    );
    assert!(
        kept_reads > 0,
        "refused reloads must be read from kept placements"
    );
    let _ = fs::remove_dir_all(&dir);
}
