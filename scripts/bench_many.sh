#!/usr/bin/env bash
# Paper-scale benchmark: boots a 1,000-node single-process cluster with
# `d2-node serve-many`, verifies the Zave ring invariants across all
# nodes, drives it with `d2-load` in serial and pipelined mode, and
# merges the results into BENCH_wire.json under "serve_many_1000".
# Run from the repository root: ./scripts/bench_many.sh
#
# Prerequisite: a file-descriptor budget comfortably above the client
# connection count (`ulimit -n 4096` is plenty — co-hosted nodes talk
# over the in-process loopback path and use no sockets at all).
set -euo pipefail
cd "$(dirname "$0")/.."

NODES="${NODES:-1000}"
WORKERS="${WORKERS:-2}"
WINDOW="${WINDOW:-64}"
OPS="${OPS:-4000}"
KEYS="${KEYS:-128}"
REPLICAS="${REPLICAS:-3}"
PORT="${PORT:-0}"

echo "==> cargo build --release -p d2-net -p d2-load"
cargo build --release -p d2-net -p d2-load
BIN=target/release

TMP="$(mktemp -d)"
SRV=""
cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "==> booting ${NODES} nodes in one process (d2-node serve-many)"
BOOT_START=$(date +%s.%N)
"$BIN/d2-node" serve-many --nodes "$NODES" --port "$PORT" --replicas "$REPLICAS" \
    > "$TMP/many.out" 2> "$TMP/many.err" &
SRV=$!
for _ in $(seq 1 600); do
    grep -q "^STABLE" "$TMP/many.out" 2>/dev/null && break
    kill -0 "$SRV" 2>/dev/null || { cat "$TMP/many.err" >&2; exit 1; }
    sleep 0.5
done
grep -q "^STABLE" "$TMP/many.out" || { echo "cluster never stabilized" >&2; exit 1; }
BOOT_S=$(awk -v a="$BOOT_START" -v b="$(date +%s.%N)" 'BEGIN { printf "%.1f", b - a }')
ENTRY=$(awk '/^LISTEN/ { print $2; exit }' "$TMP/many.out")
THREADS=$(awk '/^Threads:/ { print $2 }' "/proc/$SRV/status")
RSS_KB=$(awk '/^VmRSS:/ { print $2 }' "/proc/$SRV/status")
echo "    STABLE in ${BOOT_S}s; entry $ENTRY; $THREADS OS threads, ${RSS_KB} kB RSS"

echo "==> d2-node check (Zave ring invariants over all ${NODES} nodes)"
"$BIN/d2-node" check --node "$ENTRY" --expect "$NODES"

run_load() { # run_load <window>
    "$BIN/d2-load" --node "$ENTRY" --workers "$WORKERS" --window "$1" \
        --ops "$OPS" --keys "$KEYS" --replicas "$REPLICAS" \
        --timeout-ms 30000 --json
}

echo "==> d2-load serial (${WORKERS} workers, window 1)"
SERIAL=$(run_load 1)
echo "    $SERIAL"
echo "==> d2-load pipelined (${WORKERS} workers, window ${WINDOW})"
PIPELINED=$(run_load "$WINDOW")
echo "    $PIPELINED"

tput_of() { echo "$1" | jq .throughput_ops_s; }
SPEEDUP=$(awk -v a="$(tput_of "$PIPELINED")" -v b="$(tput_of "$SERIAL")" \
    'BEGIN { printf "%.2f", a / (b > 0 ? b : 1) }')

echo "==> d2-node check (invariants still hold under load)"
"$BIN/d2-node" check --node "$ENTRY" --expect "$NODES" | tail -1

echo "==> graceful drain (d2-node stop --all)"
"$BIN/d2-node" stop --node "$ENTRY" --all
for _ in $(seq 1 60); do
    kill -0 "$SRV" 2>/dev/null || break
    sleep 0.5
done
kill -0 "$SRV" 2>/dev/null && { echo "serve-many did not exit after stop --all" >&2; exit 1; }
SRV=""

[ -f BENCH_wire.json ] || echo '{}' > BENCH_wire.json
jq --argjson serial "$SERIAL" --argjson pipelined "$PIPELINED" \
   --arg exp "d2-load vs ${NODES}-node single-process cluster (serve-many; ${WORKERS} workers, ${OPS} ops, ${KEYS} keys, replicas ${REPLICAS})" \
   --argjson boot_s "$BOOT_S" --argjson threads "$THREADS" --argjson rss_kb "$RSS_KB" \
   '.serve_many_1000 = {
      experiment: $exp,
      note: "d2-load keys sit in the low bits of the id space, so all of them hash near the ring origin: this measures a hotspot workload routed through the full ring, not a uniformly spread one. Pipelining hides the multi-hop lookup latency, hence the large speedup.",
      boot_to_stable_s: $boot_s,
      os_threads: $threads,
      rss_kb: $rss_kb,
      serial: $serial,
      pipelined: $pipelined,
      pipelined_speedup: (($pipelined.throughput_ops_s / ([$serial.throughput_ops_s, 0.001] | max)) * 100 | round / 100)
    }' BENCH_wire.json > "$TMP/bench.json"
mv "$TMP/bench.json" BENCH_wire.json
echo "==> merged serve_many_1000 into BENCH_wire.json (pipelined ${SPEEDUP}x serial)"
