#!/usr/bin/env bash
# A/B runner for speed claims: builds the benchmark at two revisions
# and runs one workload at each in strictly alternating pairs.
#
# Each revision is exported with `git archive` to target/ab/<sha>/ and
# its benchmark built there in release (`--offline`), so an export
# leaves no worktree registration behind and a rebuild of the same
# revision is incremental. Pair i runs the parent first when i is odd
# and the change first when i is even, so a host whose speed drifts
# within a run favours neither side. Every run starts in its own
# export, so its scratch files stay under that export's target/.
#
# Prints, for the six end-to-end metrics, each side's median and
# quartiles and "change better in k of n" pairs (by the metric's
# direction in BENCHMARK.json). With --traced N it then runs N traced
# pairs, also alternating, and prints every per-layer metric either
# side reported: counts as equal or not, timings as medians. Every
# run's JSON line is kept in target/ab/<workload>-<parent>-<change>.jsonl.
#
# Usage:
#   scripts/ab.sh [--workload W] [--pairs N] [--seconds S] [--seed N]
#                 [--traced N] PARENT_REV [CHANGE_REV]
#
#   --workload W   benchmark workload (default sweep-paper)
#   --pairs N      alternating untraced pairs (default 10)
#   --seconds S    seconds per run (default 20, BENCHMARK.json's)
#   --seed N       workload seed (default: the benchmark's)
#   --traced N     traced pairs after the untraced ones (default 0)
#   CHANGE_REV     defaults to HEAD; uncommitted edits are not built.
#
# Writes nothing outside target/ and does not touch benchmark/.

set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/ab.sh [--workload W] [--pairs N] [--seconds S] [--seed N] [--traced N] PARENT_REV [CHANGE_REV]"
workload=sweep-paper
pairs=10
seconds=20
seed=()
traced=0
revs=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --seed) seed=(--seed "$2"); shift 2 ;;
    --traced) traced="$2"; shift 2 ;;
    -h|--help) echo "$usage"; exit 0 ;;
    -*) echo "ab.sh: unknown flag $1" >&2; echo "$usage" >&2; exit 2 ;;
    *) revs+=("$1"); shift ;;
  esac
done
if [ "${#revs[@]}" -lt 1 ] || [ "${#revs[@]}" -gt 2 ]; then
  echo "$usage" >&2
  exit 2
fi
parent=$(git rev-parse --short=12 "${revs[0]}^{commit}")
change=$(git rev-parse --short=12 "${revs[1]:-HEAD}^{commit}")

# build REV — exports REV once and builds its benchmark binary.
build() {
  local dir="target/ab/$1"
  if [ ! -f "$dir/.exported" ]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$1" | tar -x -C "$dir"
    touch "$dir/.exported"
  fi
  echo "ab.sh: building $1" >&2
  cargo build --release --quiet --offline --manifest-path "$dir/benchmark/Cargo.toml" >&2
}
build "$parent"
build "$change"

log="target/ab/$workload-$parent-$change.jsonl"
: > "$log"
# run SIDE REV PAIR TRACE — one benchmark run; appends its tagged JSON
# line.
run() {
  local line
  line=$(cd "target/ab/$2" && benchmark/target/release/benchmark \
    --workload "$workload" --seconds "$seconds" "${seed[@]}" --trace "$4" | tail -n 1)
  printf '{"side": "%s", "pair": %d, "trace": %d, "run": %s}\n' "$1" "$3" "$4" "$line" >> "$log"
  echo "ab.sh: pair $3 $1 (trace $4) done" >&2
}
# pairs N TRACE — N pairs, the parent first on odd pairs.
pairs() {
  for i in $(seq 1 "$1"); do
    if [ $((i % 2)) -eq 1 ]; then
      run parent "$parent" "$i" "$2"
      run change "$change" "$i" "$2"
    else
      run change "$change" "$i" "$2"
      run parent "$parent" "$i" "$2"
    fi
  done
}
pairs "$pairs" 0
pairs "$traced" 1

python3 - "$log" "$workload" "$parent" "$change" <<'PY'
import json, statistics, sys

log, workload, parent, change = sys.argv[1:]
bench = json.load(open("BENCHMARK.json"))
runs = {(side, trace): {} for side in ("parent", "change") for trace in (0, 1)}
for line in open(log):
    row = json.loads(line)
    runs[row["side"], row["trace"]][row["pair"]] = row["run"]["metrics"]
    if not row["run"]["correct"] or row["run"]["failed"]:
        print(f"warning: {row['side']} pair {row['pair']} reported wrong or failed outputs")

def paired(name, trace):
    """(parent, change) values of `name` over the pairs both sides ran."""
    a, b = runs["parent", trace], runs["change", trace]
    return [(a[p][name]["value"], b[p][name]["value"])
            for p in sorted(set(a) & set(b)) if name in a[p] and name in b[p]]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))

def fmt(q):
    return "/".join(f"{v:.4g}" for v in q)

def delta(a, b):
    return f"{(b - a) / a * 100:+.1f}%" if a else "-"

n = len(set(runs["parent", 0]) & set(runs["change", 0]))
print(f"{workload}: parent {parent} vs change {change}, {n} alternating pairs")
print(f"{'metric':<18} {'parent q1/med/q3':>28} {'change q1/med/q3':>28} {'med Δ':>8} better")
for metric in bench["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    got = paired(name, 0)
    if not got:
        continue
    qa = quartiles([x for x, _ in got])
    qb = quartiles([y for _, y in got])
    better = sum((y > x) if higher else (y < x) for x, y in got)
    print(f"{name:<18} {fmt(qa):>28} {fmt(qb):>28} {delta(qa[1], qb[1]):>8} {better} of {len(got)}")

n = len(set(runs["parent", 1]) & set(runs["change", 1]))
if n:
    print(f"\nper layer, {n} traced runs per side (counts must be equal)")
    print(f"{'layer':<32} {'parent median':>14} {'change median':>14} {'Δ':>8}")
    for metric in bench["per_layer"]:
        name = metric["name"]
        got = paired(name, 1)
        if not any(x or y for x, y in got):
            continue
        a = [x for x, _ in got]
        b = [y for _, y in got]
        ma, mb = statistics.median(a), statistics.median(b)
        if metric["unit"] == "count":
            verdict = "equal" if len(set(a + b)) == 1 else "DIFFERS"
            print(f"{name:<32} {ma:>14.10g} {mb:>14.10g} {verdict:>8}")
        else:
            print(f"{name:<32} {ma:>14.4g} {mb:>14.4g} {delta(ma, mb):>8}")
PY
