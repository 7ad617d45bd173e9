#!/usr/bin/env bash
# Offline-safe CI gate for the adgen workspace.
#
# Runs the same checks the PR driver enforces:
#   1. formatting        (cargo fmt --check)
#   2. lints             (clippy, warnings are errors; then rustdoc
#                         with warnings as errors, so no intra-doc
#                         link may dangle or point at a private item)
#   3. tier-1 build      (release, all targets; then a release
#                         `cargo check` of the benchmark package, so
#                         a removed public item it imports fails in
#                         seconds rather than at stage 15)
#   4. tier-1 tests      (full workspace, then the serve e2e suite
#                         again under the release profile: its
#                         tests hold computations with fault-plan
#                         stalls, so they must not depend on how
#                         fast compute is; and the minimization-memo
#                         differential test and the memo's own tests
#                         (the lazy off-set entry's keys among them)
#                         under the release profile, because which
#                         worker leads and which waits on a shared
#                         input changes with compute speed;
#                         and the fault crate's tests and the
#                         jobs-invariance tests under the release
#                         profile within `timeout 300`, because fault
#                         passes wait on golden rows another worker
#                         publishes, so a lost wake-up must fail the
#                         run rather than hang it)
#   5. fuzz smoke        (fixed-seed differential fuzz, 200 cases,
#                         plus the two --dev-break demos, which must
#                         exit 1; every fuzz run's stdout, here and in
#                         stages 13 and 14, is byte-compared with its
#                         copy under crates/fuzz/tests/golden/)
#   6. fault smoke       (fixed-seed fault campaign, 4x4 array,
#                         full select-line stuck-at list; writes its
#                         record under target/bench-smoke/, then a
#                         schema check of it)
#   7. fault sweep       (exhaustive 8x8 fault campaign — affordable
#                         by default now that replays are bit-sliced;
#                         rewrites BENCH_fault.json byte for byte)
#   8. simbench smoke    (bit-sliced fault replay on the 4x4
#                         universe, timed against one-machine
#                         compiled replay; fails if either run
#                         classifies any fault differently from the
#                         event-driven oracle; writes its record
#                         under target/bench-smoke/, leaving the
#                         committed full-size BENCH_sim.json alone,
#                         then a schema check of it)
#   9. obs stage         (exporter goldens + jobs-invariance tests,
#                         then an overhead guard: the instrumented
#                         fuzz smoke must stay within 5% + 1s of the
#                         uninstrumented baseline)
#  10. serve smoke       (adgen-serve with a 4-entry LRU over a disk
#                         tier on an ephemeral loopback port,
#                         loadgen --smoke against it: warm-cache hit
#                         rate >= 90%, byte-identical warm responses,
#                         clean client-initiated shutdown)
#  11. overload smoke    (loadgen --overload against the epoll reactor
#                         with a 2-slot admission queue: every
#                         response must be a result or a typed
#                         queue-full shed, and the warm pass must
#                         still hit >= 90%; then a schema check of the
#                         overload fields of the smoke record under
#                         target/bench-smoke/BENCH_serve.json)
#  12. chaos smoke       (chaoscamp --smoke: servers killed at
#                         disk-tier fault-plan kill points and disk
#                         entries corrupted offline; every restart
#                         must serve byte-identical payloads,
#                         quarantine the damage, and re-warm to full
#                         hit rate; then a schema check of the smoke
#                         record under target/bench-smoke/)
#  13. affine stage      (adgen-affine unit/property tests, an
#                         affine-vs-reference differential fuzz smoke,
#                         and explore4 --smoke: the four-way
#                         FSM/SRAG/CntAG/affine comparison whose
#                         bit-exactness gate must pass on every
#                         workload; then a schema check of its record
#                         under target/bench-smoke/; then the
#                         full-size explore4 run, which rewrites
#                         BENCH_explore.json byte for byte)
#  14. bank stage        (adgen-bank unit tests, a bank-vs-reference
#                         differential fuzz smoke, and bankcamp
#                         --smoke: the QPP interleaver must schedule
#                         conflict-free across 4 banks with the
#                         decompose-picked generators strictly
#                         cheaper than monolithic per-bank FSMs; then
#                         a schema check of its record under
#                         target/bench-smoke/; then the full-size
#                         8-bank campaign, which rewrites
#                         BENCH_bank.json byte for byte)
#  15. benchmark stage   (the benchmark package's unit tests and its
#                         end-to-end smoke run: every workload at
#                         smoke size, timed and traced, which
#                         byte-compares the sweep-paper and
#                         fault-replay output digests and the figure
#                         CSVs against results/, then a self-compare;
#                         writes only under benchmark/target/)
#  16. line counts      (scripts/loc.sh: non-test lines per crate and
#                         for the workspace, then scripts/panics.sh:
#                         panic sites per library crate; informational,
#                         never fails the run)
#  17. repro by name     (every paper artefact named on the command
#                         line at --jobs 2, from the repo root: still
#                         a subset run, so it writes
#                         target/bench-smoke/BENCH_repro.json, and
#                         it rewrites results/fig3_4.csv and
#                         results/fig8_10.csv)
#  18. BENCH guard       (every committed BENCH_*.json and the two
#                         figure CSVs are hashed before stage 1 and
#                         must be unchanged here: smoke and subset
#                         runs write their records under
#                         target/bench-smoke/, the full-size runs of
#                         stages 7, 13 and 14 reproduce their records
#                         byte for byte, and stage 17 reproduces the
#                         CSVs)
#
# Set CI_SLOW=1 to additionally run the #[ignore]d large
# configurations (512x512 / 256x256 scale tests), the full-size
# simbench run with its 8x speedup contract, a 1000-connection
# overload run against the reactor, and the full chaos campaign.
#
# The workspace has zero external dependencies, so every step works
# without network access. Run from anywhere inside the repo.

set -euo pipefail
cd "$(dirname "$0")/.."

# check_schema FILE FIELD... — every per-stage BENCH_*.json record
# must carry the fields its consumers key on.
check_schema() {
  local file="$1"
  shift
  local field
  for field in "$@"; do
    grep -q "\"$field\"" "$file" || {
      echo "FAIL: $file is missing \"$field\"" >&2
      exit 1
    }
  done
}

# fuzz_golden NAME STATUS ARGS... — run the release fuzzer with ARGS,
# require exit status STATUS, and byte-compare its stdout with
# crates/fuzz/tests/golden/NAME.txt.
fuzz_golden() {
  local name="$1" want="$2"
  shift 2
  local out status=0
  out="$(mktemp)"
  target/release/fuzz "$@" > "$out" || status=$?
  if [[ "$status" != "$want" ]]; then
    echo "FAIL: fuzz $* exited $status, want $want" >&2
    exit 1
  fi
  diff -u "crates/fuzz/tests/golden/$name.txt" "$out" || {
    echo "FAIL: fuzz $* stdout differs from crates/fuzz/tests/golden/$name.txt" >&2
    exit 1
  }
  rm -f "$out"
}

# The committed records and figure CSVs, as they were before any
# stage ran.
bench_sums="$(sha256sum BENCH_*.json results/fig3_4.csv results/fig8_10.csv)"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace --all-targets

echo "==> cargo check benchmark (fail fast on a removed item it imports)"
cargo check --offline --release --manifest-path benchmark/Cargo.toml

echo "==> cargo test"
cargo test --workspace -q

echo "==> serve e2e + memo differential (release profile)"
cargo test --release -q -p adgen-serve --test e2e
cargo test --release -q -p adgen-serve --lib the_minimization_memo_changes_no_response_byte
cargo test --release -q -p adgen-synth --lib memo::tests

echo "==> fault pipeline + jobs-invariance (release profile, 300 s timeout)"
timeout 300 cargo test --release -q -p adgen-fault
timeout 300 cargo test --release -q -p adgen-obs --test jobs_invariance

echo "==> fuzz smoke (fixed seed, deterministic, stdout byte-compared)"
fuzz_golden fuzz_seed1 0 --iters 200 --seed 1
fuzz_golden fuzz_dev_break_mapper 1 --iters 60 --seed 1 --dev-break mapper
fuzz_golden fuzz_dev_break_cube 1 --iters 200 --dev-break cube

echo "==> fault-campaign smoke (fixed seed, 4x4, full select-line fault list)"
cargo run --release -p adgen-bench --bin faultcamp -- --smoke --seed 2026
check_schema target/bench-smoke/BENCH_fault.json variants banked hardening_overhead

echo "==> exhaustive 8x8 fault campaign (bit-sliced replay)"
cargo run --release -p adgen-bench --bin faultcamp -- --seed 2026

echo "==> simbench smoke (classifications vs the event-driven oracle; timed vs one-machine compiled replay)"
cargo run --release -p adgen-bench --bin simbench -- --smoke --seed 2026
check_schema target/bench-smoke/BENCH_sim.json variants fault_lanes_per_pass identical

echo "==> obs: exporter goldens + jobs-invariance + trace schema"
cargo test --release -q -p adgen-obs
cargo test --release -q -p adgen-bench --test trace_schema
cargo test --release -q --test golden_obs

echo "==> obs: instrumentation overhead guard (<5% + 1s on the fuzz smoke)"
fuzz_bin="target/release/fuzz"
now_ns() { date +%s%N; }
t0=$(now_ns)
"$fuzz_bin" --iters 200 --seed 1 > /dev/null
base_ns=$(( $(now_ns) - t0 ))
t0=$(now_ns)
"$fuzz_bin" --iters 200 --seed 1 --metrics > /dev/null
obs_ns=$(( $(now_ns) - t0 ))
limit_ns=$(( base_ns + base_ns / 20 + 1000000000 ))
echo "    baseline ${base_ns}ns, instrumented ${obs_ns}ns, limit ${limit_ns}ns"
if (( obs_ns > limit_ns )); then
  echo "FAIL: instrumented fuzz smoke exceeded the overhead budget" >&2
  exit 1
fi

echo "==> serve smoke (ephemeral loopback server + loadgen --smoke)"
serve_cache="$(mktemp -d)"
serve_log="$(mktemp)"
# --metrics: the server mirrors its counters into an obs session and
# prints the metrics JSON block at shutdown, checked below. Four LRU
# slots are fewer than the smoke's 12 distinct requests, so the warm
# passes run through memory-tier evictions and disk-tier promotions;
# the third pass's order also brings memory-tier hits.
target/release/adgen-serve --cache-dir "$serve_cache" --cache-entries 4 --metrics > "$serve_log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^adgen-serve listening on //p' "$serve_log")"
  [[ -n "$addr" ]] && break
  sleep 0.1
done
if [[ -z "$addr" ]]; then
  echo "FAIL: adgen-serve never reported readiness" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# loadgen exits nonzero unless every warm pass hits >= 90% and warm
# responses byte-match the cold ones; --shutdown then asks the server
# to exit, which `wait` turns into a clean-shutdown assertion.
target/release/loadgen --smoke --passes 3 --addr "$addr" --shutdown
wait "$serve_pid"
grep -q "adgen-serve shut down:" "$serve_log" || {
  echo "FAIL: server exited without its shutdown summary" >&2
  exit 1
}
check_schema "$serve_log" serve.req.map serve.req.synthesize serve.cache.hit.mem \
  serve.cache.hit.disk serve.cache.miss
rm -rf "$serve_cache" "$serve_log"

echo "==> overload smoke (typed shedding under a 2-slot admission queue)"
target/release/loadgen --smoke --conns 32 --queue-cap 2 --overload
# Schema check: the smoke record carries the latency/overload fields
# consumers key on.
check_schema target/bench-smoke/BENCH_serve.json p999_ms shed overload conns

echo "==> chaos smoke (kill-point crashes + offline corruption)"
# chaoscamp spawns its own adgen-serve per scenario, kills it at
# fault-plan kill points, corrupts disk entries between runs, and
# exits nonzero unless every restart serves byte-identical payloads,
# re-enforces the disk bound, and quarantines every mutation.
target/release/chaoscamp --smoke
check_schema target/bench-smoke/BENCH_chaos.json scenarios classification corrupt_quarantined \
  recovered failures

echo "==> affine: mapper property tests"
cargo test --release -q -p adgen-affine

echo "==> affine: affine-vs-reference differential fuzz smoke"
# Seed 11 draws ~20 affine-vs-reference cases in 400; the family's
# deterministic anchors also run as part of the adgen-fuzz unit tests.
fuzz_golden fuzz_seed11 0 --iters 400 --seed 11

echo "==> affine: four-way comparison smoke (bit-exactness gate)"
target/release/explore4 --smoke --seed 2026
check_schema target/bench-smoke/BENCH_explore.json affine_fit bit_exact_three_engines program_flip_flops \
  fault_coverage_pct

echo "==> affine: full-size four-way comparison (rewrites BENCH_explore.json byte for byte)"
target/release/explore4 --seed 2026

echo "==> bank: multi-bank ADDM + decompose unit tests"
cargo test --release -q -p adgen-bank

echo "==> bank: bank-vs-reference differential fuzz smoke"
# Seed 17 draws 12 bank-vs-reference cases in 400 (plus the rest of
# the matrix); the family's deterministic anchors also run in the
# adgen-bank unit tests.
fuzz_golden fuzz_seed17 0 --iters 400 --seed 17

echo "==> bank: banked interleaver campaign smoke (conflict-free + decompose-win gates)"
target/release/bankcamp --smoke --seed 2026
check_schema target/bench-smoke/BENCH_bank.json banks window conflict_free conflict_rate stall_cycles \
  decomposed_area monolithic_area decompose_win_pct choice

echo "==> bank: full-size banked interleaver campaign (rewrites BENCH_bank.json byte for byte)"
target/release/bankcamp --seed 2026

echo "==> benchmark: unit tests + smoke run (output digests, figure CSVs, self-compare)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> line counts (informational)"
scripts/loc.sh || echo "    (loc.sh failed; informational only)"

echo "==> panic sites (informational)"
scripts/panics.sh || echo "    (panics.sh failed; informational only)"

echo "==> repro: every artefact by name (writes under target/bench-smoke/ and results/)"
target/release/repro --jobs 2 table1 table2 fig3 fig4 synthtime fig8 fig9 fig10 \
  table3 power ablation sharing interconnect > /dev/null

# Before the slow tier: it writes full-size records on purpose.
echo "==> committed BENCH_*.json records and figure CSVs unchanged"
sha256sum --check --quiet <<< "$bench_sums" || {
  echo "FAIL: a stage rewrote a committed BENCH_*.json record or figure CSV" >&2
  exit 1
}

if [[ "${CI_SLOW:-0}" == "1" ]]; then
  echo "==> slow tier: ignored scale tests"
  cargo test --workspace --release -q -- --ignored
  echo "==> slow tier: full-size simbench (8x speedup contract)"
  cargo run --release -p adgen-bench --bin simbench -- --seed 2026
  echo "==> slow tier: 1000-connection overload run"
  target/release/loadgen --conns 1000 --overload
  echo "==> slow tier: full chaos campaign (every kill site, every mutation)"
  target/release/chaoscamp
fi

echo "==> CI OK"
