#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark (e2ebench/) between two
# git revisions:
#
#     tools/bench_ab.sh REV_A REV_B [pairs] [seconds]
#
# REV_A is the baseline (usually the parent), REV_B the change; any
# commit-ish works, including `git stash create` for uncommitted work.
# Each revision is exported with `git archive` into a scratch
# directory under $TMPDIR (nothing is registered in the repository)
# and its quma_e2e is built there once. Then, for every workload of
# BENCHMARK.json, the script runs `python3 e2ebench/run.py --workload
# W --seed 1 --seconds S --trace 0` in `pairs` A/B pairs, alternating
# which side goes first, so host drift and ordering bias hit both
# sides alike.
#
# The summary gives, per workload and end-to-end metric of
# BENCHMARK.json: the median of each side, the change in %, the
# baseline's interquartile range, how many pairs the change won, and
# a "WORSE" flag when the change's median is worse than the
# baseline's by more than the metric's bound; then the failed and
# attempted job counts of each side. Defaults: 10 pairs, 10 s.
# Raw results (one JSON object per run) stay in the printed
# results.jsonl; the sources and builds are deleted on exit.

set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,/^$/s/^# \{0,1\}//p' "$0"
    exit 2
fi
rev_a=$1
rev_b=$2
pairs=${3:-10}
seconds=${4:-10}
repo=$(git rev-parse --show-toplevel)
workloads=$(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' \
    "$repo/BENCHMARK.json")
work=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
trap 'rm -rf "$work/A" "$work/B"' EXIT
results=$work/results.jsonl
jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))

for side in A B; do
    rev=$rev_a
    [ "$side" = B ] && rev=$rev_b
    sha=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
    echo "bench_ab: $side = $rev ($sha)" >&2
    mkdir -p "$work/$side/src"
    git -C "$repo" archive "$sha" | tar -x -C "$work/$side/src"
    # The same configure and build run.py does, up front, so no
    # measured run pays for compilation.
    build=$work/$side/build/e2ebench
    mkdir -p "$build/tmp"
    TMPDIR=$build/tmp cmake -S "$work/$side/src/e2ebench" -B "$build" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$work/$side/build.log"
    TMPDIR=$build/tmp cmake --build "$build" -j "$jobs" \
        --target quma_e2e >> "$work/$side/build.log"
done

run_one() { # side workload pair
    local side=$1 workload=$2 pair=$3 out
    if ! out=$(cd "$work/$side/src" &&
               CARGO_TARGET_DIR="$work/$side/build" python3 \
                   e2ebench/run.py --workload "$workload" --seed 1 \
                   --seconds "$seconds" --trace 0 2> /dev/null |
               tail -n 1); then
        echo "bench_ab: $side $workload pair $pair exited non-zero" >&2
    fi
    python3 - "$side" "$workload" "$pair" "$out" >> "$results" <<'EOF'
import json, sys
side, workload, pair, line = sys.argv[1:5]
try:
    doc = json.loads(line)
except ValueError:
    doc = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
doc.update(side=side, workload=workload, pair=int(pair))
print(json.dumps(doc))
EOF
}

for workload in $workloads; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) = 1 ]; then order="A B"; else order="B A"; fi
        for side in $order; do
            echo "bench_ab: $workload pair $pair/$pairs side $side" >&2
            run_one "$side" "$workload" "$pair"
        done
    done
done

python3 - "$results" "$repo/BENCHMARK.json" "$rev_a" "$rev_b" <<'EOF'
import json, statistics, sys
from collections import defaultdict

path, spec_path, rev_a, rev_b = sys.argv[1:5]
runs = [json.loads(line) for line in open(path)]
spec = json.load(open(spec_path))["end_to_end"]
print(f"A = {rev_a}, B = {rev_b}; medians over pairs, IQR of A")
by = defaultdict(dict)  # workload -> pair -> side -> run
for r in runs:
    by[r["workload"]].setdefault(r["pair"], {})[r["side"]] = r
for workload, pairs in by.items():
    both = [p for p in pairs.values() if "A" in p and "B" in p]
    print(f"\n{workload} ({len(both)} pairs)")
    print(f"  {'metric':<20} {'A median':>11} {'B median':>11} "
          f"{'change':>8} {'A IQR':>10} {'B wins':>7}")
    for m in spec:
        name, higher = m["name"], m["better"] == "higher"
        vals = [(p["A"]["metrics"][name]["value"],
                 p["B"]["metrics"][name]["value"]) for p in both
                if name in p["A"]["metrics"] and name in p["B"]["metrics"]]
        if not vals:
            continue
        a = [v[0] for v in vals]
        b = [v[1] for v in vals]
        ma, mb = statistics.median(a), statistics.median(b)
        iqr = 0.0
        if len(a) > 1:
            q = statistics.quantiles(a, n=4, method="inclusive")
            iqr = q[2] - q[0]
        wins = sum((y > x) if higher else (y < x) for x, y in vals)
        delta = (mb - ma) / ma if ma else 0.0
        worse = -delta if higher else delta
        flag = "  WORSE" if worse > m["bound"] else ""
        print(f"  {name:<20} {ma:>11.4g} {mb:>11.4g} {delta:>+8.1%} "
              f"{iqr:>10.4g} {wins:>3}/{len(vals):<3}{flag}")
    for side in "AB":
        rs = [p[side] for p in pairs.values() if side in p]
        failed = sum(r.get("failed", 0) for r in rs)
        attempted = sum(r.get("attempted", 0) for r in rs)
        wrong = sum(not r.get("correct", False) for r in rs)
        print(f"  {side}: {failed} failed of {attempted} jobs, "
              f"{wrong} of {len(rs)} runs not correct")
print(f"\nraw results: {path}")
EOF
