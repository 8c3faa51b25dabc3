#!/usr/bin/env bash
# The local CI gauntlet: formatting, lints, and the full test suite.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

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

echo "==> d2-dst smoke sweep (64 seeds)"
./target/release/d2-dst sweep --seeds 64

echo "==> d2-dst erasure-mode sweep (32 seeds, (3,6) fragments, throttled repair)"
./target/release/d2-dst sweep --seeds 32 --ec 3/6 --repair-budget 5000

echo "==> d2-dst mixed-world sweep (64 seeds: partitions, gray nodes, WAN, skew)"
./target/release/d2-dst sweep --seeds 64 --world mixed

echo "==> telemetry smoke (3-node cluster scrape, merged snapshot JSON)"
cargo run --release --quiet --example telemetry >/dev/null

echo "==> d2-load smoke (small pipelined run vs 3-process TCP cluster)"
SMOKE_TMP="$(mktemp -d)"
SMOKE_PIDS=()
smoke_cleanup() {
    for p in "${SMOKE_PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$SMOKE_TMP"
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

echo "==> d2-bench replay gate (sim_harvard32 for 3 s: op_p50_us <= 0.7, every pass reproduces pass 1)"
# A simulated fetch reads block keys from the trace's table (DESIGN.md
# §9): about 0.4 µs. A replay that names and hashes a block per access
# again reads 0.9–1.1 and fails the gate.
bench_gate sim_harvard32 op_p50_us 0.7

echo "==> d2-bench set-up gate (sim_harvard32: setup_s <= 0.5)"
# Nine tenths of the set-up is the D2 warm-up's balance moves, and a move
# is one `sync_keys` pass over the keys it touched that reads each
# holder's copy once (DESIGN.md §8): 0.31–0.50 s across quiet and busy
# hours. A pass that goes back to the stores at every step for what it
# has already read takes 0.52–0.78 s and fails the gate.
bench_gate sim_harvard32 setup_s 0.5

echo "==> d2-bench memory gate (many64_tasks: rss_peak_mb <= 95)"
# The preloaded 64-node ring is 81-83 MB (4,096 blocks x 3 replicas) and
# the get window's buffers bring it to about 84. A repair round spends
# one digest per chain successor and moves only what differs (DESIGN.md
# §11.3), so it adds nothing. A failure means a round queues stored
# blocks again, an eager re-push or a digest that never agrees: that
# burst read 110-115.
bench_gate many64_tasks rss_peak_mb 95

echo "==> serve-many smoke (256 nodes in one process: boot, puts, invariants, drain)"
./target/release/d2-node serve-many --nodes 256 --replicas 3 \
    > "$SMOKE_TMP/many.out" 2>&1 &
MANY_PID=$!
SMOKE_PIDS+=("$MANY_PID")
for _ in $(seq 1 240); do
    grep -q "^STABLE" "$SMOKE_TMP/many.out" 2>/dev/null && break
    kill -0 "$MANY_PID" 2>/dev/null || { cat "$SMOKE_TMP/many.out"; exit 1; }
    sleep 0.5
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
