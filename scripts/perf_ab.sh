#!/usr/bin/env bash
# A/B comparison of two revisions on perfbench's end-to-end metrics,
# robust to code layout.
#
# The checkout path alone changes the perfbench binary (it feeds the crate
# metadata hashes, and ThinLTO then inlines differently), and on a shared
# host one build of each side can read 10-20% apart for identical sources.
# So each revision is exported with `git archive` to three checkout paths
# of equal length, perfbench is built at each with the benchmark's own
# command, and untraced runs of BENCHMARK.json's `run_seconds` alternate
# base/change pairs on fresh seeds, rotating through the layouts (pair p
# runs layout p mod 3 of both sides, base first on odd pairs, change
# first on even ones).
#
# usage: scripts/perf_ab.sh [options] BASE_REV CHANGE_REV
#   -w WORKLOAD  cold_model, fleet or validate (default cold_model)
#   -n PAIRS     alternating pairs, at least 3 (default 10)
#   -S SEED      pair p runs seed SEED + p on both sides (default 1000)
#   -d DIR       work directory (default .bench_build/perf_ab)
#
# A build is kept in DIR/<side><layout> and reused while it holds the same
# commit. Run logs go to DIR/runs. For every end-to-end metric the report
# gives each side's median and interquartile range as printed (normalized
# by perfbench's calibration probe) and raw, with the probe's factor
# undone: times x probe median / reference, rates x reference / probe
# median, peak RSS as printed, with the probe median and the reference
# read from each run's output. It gives the change in medians, the pairs
# the change won, and the spread of the per-layout medians. A metric
# moves only when its median gap exceeds both the base's IQR and the
# larger layout spread; otherwise the verdict is "no change". The script
# exits 1 when any run fails ops (`failed` above 0) or a pair's two answer
# hashes differ.
set -euo pipefail
cd "$(dirname "$0")/.."

layouts=3
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workload=cold_model pairs=10 seed=1000 dir=.bench_build/perf_ab
while getopts "w:n:S:d:" opt; do
    case $opt in
        w) workload=$OPTARG ;;
        n) pairs=$OPTARG ;;
        S) seed=$OPTARG ;;
        d) dir=$OPTARG ;;
        *) sed -n '2,/^set -euo/p' "$0" | sed '$d' >&2; exit 2 ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -ne 2 ] || [ "$pairs" -lt "$layouts" ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d' >&2
    exit 2
fi
base=$(git rev-parse --verify "$1^{commit}")
change=$(git rev-parse --verify "$2^{commit}")
mkdir -p "$dir/runs"
dir=$(cd "$dir" && pwd)

# build <side> <layout> <commit>: export and build, unless already built
build() {
    local path="$dir/$1$2"
    if [ "$(cat "$path/.perf_ab_rev" 2>/dev/null)" != "$3" ] \
        || [ ! -x "$path/perfbench/target/release/perfbench" ]; then
        rm -rf "$path"
        mkdir -p "$path"
        git archive "$3" | tar -x -C "$path"
        echo "building $1$2 (${3:0:12}) at $path" >&2
        (cd "$path" && env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
            --manifest-path perfbench/Cargo.toml)
        echo "$3" > "$path/.perf_ab_rev"
    fi
    local text
    text=$(size -A "$path/perfbench/target/release/perfbench" | awk '$1 == ".text" { print $2 }')
    echo "$1$2 ${3:0:12} .text $text B" >&2
}

for k in $(seq 1 "$layouts"); do
    build a "$k" "$base"
    build b "$k" "$change"
done

run() { # run <side> <layout> <pair>
    local s=$((seed + $3))
    (cd "$dir/$1$2" && perfbench/target/release/perfbench --workload "$workload" \
        --seed "$s" --seconds "$seconds" --trace 0) > "$dir/runs/$workload-$1-p$3.txt"
}

for p in $(seq 1 "$pairs"); do
    k=$(( (p - 1) % layouts + 1 ))
    echo "pair $p/$pairs: layout $k, seed $((seed + p))" >&2
    if [ $((p % 2)) -eq 1 ]; then
        run a "$k" "$p"
        run b "$k" "$p"
    else
        run b "$k" "$p"
        run a "$k" "$p"
    fi
done

python3 - "$dir/runs" "$workload" "$pairs" "$layouts" "${base:0:12}" "${change:0:12}" <<'EOF'
import json, re, sys

runs, workload, pairs, layouts, base, change = sys.argv[1:]
pairs, layouts = int(pairs), int(layouts)
# (metric, better, how the probe factor is undone: time, rate or none)
METRICS = [
    ("setup_s", "lower", "time"),
    ("peak_rss_mb", "lower", "none"),
    ("throughput_per_s", "higher", "rate"),
    ("answer_us_p50", "lower", "time"),
    ("answer_us_p90", "lower", "time"),
    ("slow_path_ms_p50", "lower", "time"),
    ("slow_path_ms_p90", "lower", "time"),
]

def parse(side, p):
    text = open(f"{runs}/{workload}-{side}-p{p}.txt").read()
    last = json.loads(text.strip().splitlines()[-1])
    probe, ref = map(float, re.search(
        r"calibration probe median ([0-9.]+) us \(reference ([0-9.]+) us\)", text).groups())
    answer = re.search(r"answer_hash ([0-9a-f]+)", text).group(1)
    values = {m: v["value"] for m, v in last["metrics"].items()}
    return {"failed": last["failed"], "probe": probe, "ref": ref, "hash": answer,
            "values": values}

def raw(run, metric, kind):
    v = run["values"][metric]
    if kind == "time":
        return v * run["probe"] / run["ref"]
    if kind == "rate":
        return v * run["ref"] / run["probe"]
    return v

def quantile(xs, q):
    xs = sorted(xs)
    at = (len(xs) - 1) * q
    lo = int(at)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (at - lo)

a = [parse("a", p) for p in range(1, pairs + 1)]
b = [parse("b", p) for p in range(1, pairs + 1)]
bad = []
for p, (x, y) in enumerate(zip(a, b), 1):
    if x["failed"] or y["failed"]:
        bad.append(f"pair {p}: failed {x['failed']} (base), {y['failed']} (change)")
    if x["hash"] != y["hash"]:
        bad.append(f"pair {p}: answer_hash {x['hash']} (base) != {y['hash']} (change)")

print(f"perf_ab {workload}: base {base} vs change {change}, {pairs} pairs over {layouts} layouts per side")
print(f"calibration probe median (us): base {quantile([r['probe'] for r in a], 0.5):.1f}, "
      f"change {quantile([r['probe'] for r in b], 0.5):.1f}")
for metric, better, kind in METRICS:
    if metric not in a[0]["values"]:
        continue
    print(f"{metric} ({better} is better)")
    for label, undo in (("printed", lambda r: r["values"][metric]), ("raw", lambda r: raw(r, metric, kind))):
        if label == "raw" and kind == "none":
            continue
        xa = [undo(r) for r in a]
        xb = [undo(r) for r in b]
        ma, mb = quantile(xa, 0.5), quantile(xb, 0.5)
        iqr = quantile(xa, 0.75) - quantile(xa, 0.25)
        spread = 0.0
        per_layout = {}
        for side, xs in (("base", xa), ("change", xb)):
            meds = [quantile(xs[k::layouts], 0.5) for k in range(layouts)]
            per_layout[side] = meds
            mid = quantile(xs, 0.5)
            if mid:
                spread = max(spread, (max(meds) - min(meds)) / abs(mid))
        won = sum(1 for x, y in zip(xa, xb) if (y > x if better == "higher" else y < x))
        gap = mb - ma
        rel = gap / ma if ma else 0.0
        moved = abs(gap) > iqr and abs(rel) > spread
        good = (gap > 0) == (better == "higher")
        verdict = ("better" if good else "worse") if moved else "no change"
        print(f"  {label:<7} base {ma:.4g} [{quantile(xa, 0.25):.4g}, {quantile(xa, 0.75):.4g}]"
              f"  change {mb:.4g} [{quantile(xb, 0.25):.4g}, {quantile(xb, 0.75):.4g}]"
              f"  {rel:+.1%}, change ahead {won}/{pairs}, layout spread {spread:.1%}: {verdict}")
        print(f"          per-layout medians: base "
              + " ".join(f"{m:.4g}" for m in per_layout["base"])
              + ", change " + " ".join(f"{m:.4g}" for m in per_layout["change"]))
for line in bad:
    print(f"FAIL {line}")
if bad:
    sys.exit(1)
print(f"failed 0 on every run; answer hashes equal on all {pairs} seeds")
EOF
