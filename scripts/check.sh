#!/usr/bin/env bash
# The local CI gauntlet: formatting, lints, and the full test suite.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The d2-bench gates build benchmark/ in place, which rewrites its
# tracked Cargo.lock: keep a copy and put it back on the way out.
BENCH_LOCK="$(mktemp)"
cp benchmark/Cargo.lock "$BENCH_LOCK"
restore_bench_lock() {
    cp "$BENCH_LOCK" benchmark/Cargo.lock
    rm -f "$BENCH_LOCK"
}
trap restore_bench_lock EXIT

echo "==> Cargo.lock names no external crate"
# The build is offline: every package is a workspace member or `rand`,
# the stand-in under benchmark/stubs/. An external crate added back
# brings a `source =` line and a build that needs the network.
if grep -n '^source = ' Cargo.lock; then
    echo "Cargo.lock resolves a crate from outside the repository"
    exit 1
fi

echo "==> no panic path in the wire and node code"
# A malformed frame or a failed call costs a connection or an op, never
# a node: outside comments and #[cfg(test)] items (which run to the
# next closing brace in column 0), the wire and node sources name no
# .unwrap(), .expect(, panic!( or unreachable!(. deployment.rs is
# exempt: its in-process test cluster panics by contract.
PANICS=$(for f in crates/wire/src/*.rs crates/net/src/*.rs; do
    [[ "$f" == crates/net/src/deployment.rs ]] && continue
    awk -v f="$f" '
        /^#\[cfg\(test\)\]/ { skip = 1; next }
        skip { if (/^}/) skip = 0; next }
        { code = $0; sub(/\/\/.*/, "", code) }
        code ~ /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/ { print f ":" NR ": " $0 }
    ' "$f"
done)
[[ -z "$PANICS" ]] || { echo "$PANICS"; exit 1; }

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test --workspace -q

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> d2-ec coder gate (unit + property tests)"
cargo test -q -p d2-ec

# The three sweeps print one line per seed (-v); their stdout, in this
# order, must match scripts/dst-sweeps.sha256, so a change that moves
# any DST schedule fails here unless it updates the file (and says why).
DST_TMP="$(mktemp -d)"
# Runs one sweep into $DST_TMP/$1 and prints its summary (or, if a seed
# failed, the failure and its shrunk plan).
dst_sweep() {
    local out="$DST_TMP/$1"
    shift
    ./target/release/d2-dst sweep "$@" -v > "$out" || { grep -v '^seed ' "$out"; exit 1; }
    grep -v '^seed ' "$out"
}

echo "==> d2-dst smoke sweep (64 seeds)"
dst_sweep classic.out --seeds 64

echo "==> d2-dst erasure-mode sweep (32 seeds, (3,6) fragments, throttled repair)"
dst_sweep ec.out --seeds 32 --ec 3/6 --repair-budget 5000

echo "==> d2-dst mixed-world sweep (64 seeds: partitions, gray nodes, WAN, skew)"
dst_sweep mixed.out --seeds 64 --world mixed

echo "==> d2-dst sweeps: stdout matches the committed sha256"
DST_WANT=$(cat scripts/dst-sweeps.sha256)
DST_GOT=$(cat "$DST_TMP/classic.out" "$DST_TMP/ec.out" "$DST_TMP/mixed.out" | sha256sum | cut -d' ' -f1)
[[ "$DST_GOT" == "$DST_WANT" ]] || {
    echo "the d2-dst sweeps print sha256 $DST_GOT, committed $DST_WANT"; exit 1; }
rm -rf "$DST_TMP"

echo "==> d2-exp figures (all, quick, seed 7): --jobs 1 and --jobs 2 print the same bytes"
# Every simulation cell derives its own seed and output is merged in
# canonical order, so the worker count must not change a figure.
EXP_TMP="$(mktemp -d)"
./target/release/d2-exp all --scale quick --seed 7 --jobs 1 > "$EXP_TMP/jobs1.out"
./target/release/d2-exp all --scale quick --seed 7 --jobs 2 > "$EXP_TMP/jobs2.out"
cmp "$EXP_TMP/jobs1.out" "$EXP_TMP/jobs2.out"

echo "==> d2-exp figures (all, quick, seed 7): stdout matches the committed sha256"
# scripts/exp-quick-seed7.sha256 holds the sha256 of that stdout, so a
# change that moves any figure fails here unless it updates the file
# in the same commit (and says why). Swapping the `rand` stand-in moves
# every figure once.
EXP_WANT=$(cat scripts/exp-quick-seed7.sha256)
EXP_GOT=$(sha256sum < "$EXP_TMP/jobs1.out" | cut -d' ' -f1)
[[ "$EXP_GOT" == "$EXP_WANT" ]] || {
    echo "d2-exp all --scale quick --seed 7 prints sha256 $EXP_GOT, committed $EXP_WANT"; exit 1; }

echo "==> d2-exp churn (quick, seed 7) at --jobs 8 prints the churn section of --jobs 1"
# Each cell is a simulated world of real protocol nodes (d2-dst), on
# its own seed: more workers than cells must not change a row.
CHURN_START=$(date +%s%N)
./target/release/d2-exp churn --scale quick --seed 7 --jobs 8 > "$EXP_TMP/churn8.out"
echo "churn sweep wall time: $(( ($(date +%s%N) - CHURN_START) / 1000000 )) ms at --jobs 8"
awk '/^Churn:/ { p = 1 } p && /^$/ { exit } p' "$EXP_TMP/jobs1.out" > "$EXP_TMP/churn1.out"
sed '/^$/d' "$EXP_TMP/churn8.out" | cmp - "$EXP_TMP/churn1.out"
rm -rf "$EXP_TMP"

echo "==> telemetry smoke (3-node cluster scrape, merged snapshot JSON)"
cargo run --release --quiet --example telemetry >/dev/null

echo "==> d2-load smoke (small pipelined run vs 3-process TCP cluster)"
SMOKE_TMP="$(mktemp -d)"
SMOKE_PIDS=()
smoke_cleanup() {
    for p in "${SMOKE_PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$SMOKE_TMP"
    restore_bench_lock
}
trap smoke_cleanup EXIT
./target/release/d2-node serve --listen 127.0.0.1:0 --pos 0.17 --replicas 2 \
    > "$SMOKE_TMP/n0.out" 2>/dev/null &
SMOKE_PIDS+=($!)
for _ in $(seq 1 50); do
    grep -q LISTEN "$SMOKE_TMP/n0.out" 2>/dev/null && break
    sleep 0.1
done
SMOKE_SEED=$(grep -oE '[0-9.]+:[0-9]+' "$SMOKE_TMP/n0.out" | head -1)
for pos in 0.50 0.83; do
    ./target/release/d2-node serve --listen 127.0.0.1:0 --seed "$SMOKE_SEED" \
        --pos "$pos" --replicas 2 > /dev/null 2>&1 &
    SMOKE_PIDS+=($!)
done
sleep 2
# A serving process is main plus the host thread, which turns the
# reactor itself: a third thread is a hand-off back on the path.
SMOKE_THREADS=$(awk '/^Threads:/ { print $2 }' "/proc/${SMOKE_PIDS[1]}/status")
[[ "$SMOKE_THREADS" == 2 ]] || { echo "d2-node serve runs $SMOKE_THREADS threads, not 2"; exit 1; }
./target/release/d2-load --node "$SMOKE_SEED" --workers 2 --ops 200 --keys 32 \
    --replicas 2 --timeout-ms 5000 | grep throughput

# Runs one d2-bench workload for 3 s (building offline into
# .bench_build/) and passes if no op failed and end-to-end metric $2 is
# at most $3; awk compares, since the replay's figures are fractions.
bench_gate() {
    local json value failed
    json=$(bash benchmark/run.sh --workload "$1" --seed 1 --seconds 3 --trace 0 | tail -1)
    value=$(sed -nE 's/.*"'"$2"'": \{"value": ([0-9.]+),.*/\1/p' <<<"$json")
    failed=$(sed -nE 's/.*"failed": ([0-9]+),.*/\1/p' <<<"$json")
    echo "$2=${value:-?} failed=${failed:-?}"
    [[ -n "$value" && -n "$failed" ]] || { echo "no result from d2-bench: $json"; exit 1; }
    awk -v value="$value" -v max="$3" -v failed="$failed" 'BEGIN { exit !(value <= max && failed == 0) }' \
        || { echo "$1 $2 gate failed"; exit 1; }
}

echo "==> d2-bench latency gate (ring3_seq_small for 3 s: op_p50_us <= 350, no failed op)"
# A warm op rides the client's lookup cache (DESIGN.md §14.5) and only
# the client waits for a flush tick (§15.1.1): one round trip, one 250 µs
# tick. A node that waits for a tick again reads two (500), and so do a
# client that lost the cache (a routed lookup's round trip comes first)
# and an op that misses its tick: a third wake-up back on a hop's path,
# a coarser timer anywhere on it. Each fails the gate.
bench_gate ring3_seq_small op_p50_us 350

echo "==> d2-bench replay gate (sim_harvard32 for 3 s: op_p50_us <= 0.3, every pass reproduces pass 1)"
# A simulated fetch indexes the static ring (DESIGN.md §9): its key's
# owner rank comes from a table resolved at build, its replica group is
# ring ranks, and its round trips come from a per-user row, so a cache
# hit does no ring search and no `sqrt`; the probe is one binary search
# of the user's sorted lookup cache. 22 three-second runs read
# 0.15-0.25 µs (0.14 in 15 s runs), the upper half on a busy host. A
# failure means the fetch searches again: a replica group taken by ring
# search and a round trip recomputed per fetch read 0.24-0.39 in
# three-second runs (0.20-0.21 in 15 s); a cache probe that scans, or
# hashed per-user state, reads more. `core.fetch_ns` and
# `store.lookup_cache_probe_ns` in a `--trace 1` run show which.
bench_gate sim_harvard32 op_p50_us 0.3

echo "==> d2-bench set-up gate (sim_harvard32: setup_s <= 0.15)"
# PerfSim's warm-up moves ring positions, not blocks: its balance rounds
# read loads from the initial file system's sorted keys (DESIGN.md §9),
# so the set-up is the trace, the builds and the cache warm-up:
# 0.054-0.066 s. A failure means PerfSim preloads and moves blocks
# again, which reads 0.2-0.4 s. AvailabilitySim's data-moving warm-up
# (fig7, fig8, table2) is timed by no gate; exp-quick-seed7.sha256 above
# still pins what it produces.
bench_gate sim_harvard32 setup_s 0.15

echo "==> d2-bench memory gate (sim_harvard32: rss_peak_mb <= 15)"
# A built PerfSim holds the warmed-up ring and the trace's key table, and
# its warm-up places no block (DESIGN.md §9): about 7 MB. A failure means
# PerfSim preloads and moves blocks again: about 30 MB.
bench_gate sim_harvard32 rss_peak_mb 15

echo "==> d2-bench memory gate (many64_tasks: rss_peak_mb <= 95)"
# The preloaded 64-node ring is 81-83 MB (4,096 blocks x 3 replicas) and
# the get window's buffers bring it to about 84. A repair round spends
# one digest per chain successor and moves only what differs (DESIGN.md
# §11.3), so it adds nothing. A failure means a round queues stored
# blocks again, an eager re-push or a digest that never agrees: that
# burst read 110-115.
bench_gate many64_tasks rss_peak_mb 95

echo "==> d2-bench set-up gate (many64_tasks: setup_s <= 0.5)"
# serve-many releases each boot wave the moment the ring so far passes
# `check_ring` (DESIGN.md §11.4): the 64-node boot is about 0.09 s and
# the set-up, preload included, 0.2-0.3. A failure means a boot paced by
# a fixed poll again, which reads 0.78-0.85.
bench_gate many64_tasks setup_s 0.5

echo "==> serve-many smoke (256 nodes in one process: boot, puts, invariants, drain)"
./target/release/d2-node serve-many --nodes 256 --replicas 3 \
    > "$SMOKE_TMP/many.out" 2>&1 &
MANY_PID=$!
SMOKE_PIDS+=("$MANY_PID")
# A 256-node boot takes about 0.15 s.
for _ in $(seq 1 1200); do
    grep -q "^STABLE" "$SMOKE_TMP/many.out" 2>/dev/null && break
    kill -0 "$MANY_PID" 2>/dev/null || { cat "$SMOKE_TMP/many.out"; exit 1; }
    sleep 0.1
done
grep -q "^STABLE" "$SMOKE_TMP/many.out" || {
    echo "serve-many never stabilized:"; cat "$SMOKE_TMP/many.out"; exit 1; }
MANY_ENTRY=$(awk '/^LISTEN/ { print $2; exit }' "$SMOKE_TMP/many.out")
./target/release/d2-load --node "$MANY_ENTRY" --workers 2 --ops 100 --keys 25 \
    --get-ratio 0 --replicas 3 --timeout-ms 10000 | grep throughput
./target/release/d2-node check --node "$MANY_ENTRY" --expect 256
./target/release/d2-node stop --node "$MANY_ENTRY" --all
for _ in $(seq 1 60); do
    kill -0 "$MANY_PID" 2>/dev/null || break
    sleep 0.5
done
kill -0 "$MANY_PID" 2>/dev/null && { echo "serve-many did not exit after stop --all"; exit 1; }

echo "OK"
