#!/usr/bin/env bash
# Data-plane benchmark: drives a real multi-process TCP cluster with
# `d2-load` in serial (window 1) and pipelined (window W) mode at the
# same worker count, and writes both reports plus the speedup to
# BENCH_wire.json. Run from the repository root: ./scripts/bench_wire.sh
set -euo pipefail
cd "$(dirname "$0")/.."

NODES="${NODES:-3}"
WORKERS="${WORKERS:-2}"
WINDOW="${WINDOW:-64}"
OPS="${OPS:-4000}"
KEYS="${KEYS:-128}"
REPLICAS="${REPLICAS:-2}"

echo "==> cargo build --release -p d2-net -p d2-load"
cargo build --release -p d2-net -p d2-load
BIN=target/release

TMP="$(mktemp -d)"
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$TMP"
}
trap cleanup EXIT

wait_listen() { # wait_listen <outfile> -> ip:port
    for _ in $(seq 1 50); do
        if grep -q LISTEN "$1" 2>/dev/null; then
            grep -oE '[0-9.]+:[0-9]+' "$1" | head -1
            return 0
        fi
        sleep 0.1
    done
    echo "node never printed LISTEN (see $1)" >&2
    exit 1
}

echo "==> launching ${NODES}-node cluster (one process per node)"
"$BIN/d2-node" serve --listen 127.0.0.1:0 --pos 0.01 --replicas "$REPLICAS" \
    > "$TMP/n0.out" 2> "$TMP/n0.err" &
PIDS+=($!)
SEED=$(wait_listen "$TMP/n0.out")
echo "    seed node at $SEED"
for i in $(seq 1 $((NODES - 1))); do
    POS=$(awk -v i="$i" -v n="$NODES" 'BEGIN { printf "%.4f", (i + 0.5) / n }')
    "$BIN/d2-node" serve --listen 127.0.0.1:0 --seed "$SEED" --pos "$POS" \
        --replicas "$REPLICAS" > "$TMP/n$i.out" 2> "$TMP/n$i.err" &
    PIDS+=($!)
    wait_listen "$TMP/n$i.out" > /dev/null
done
sleep 2 # let the ring stabilize

run_load() { # run_load <window>
    "$BIN/d2-load" --node "$SEED" --workers "$WORKERS" --window "$1" \
        --ops "$OPS" --keys "$KEYS" --replicas "$REPLICAS" \
        --timeout-ms 5000 --json
}

echo "==> d2-load serial (${WORKERS} workers, window 1)"
SERIAL=$(run_load 1)
echo "    $SERIAL"
echo "==> d2-load pipelined (${WORKERS} workers, window ${WINDOW})"
PIPELINED=$(run_load "$WINDOW")
echo "    $PIPELINED"

tput_of() { echo "$1" | grep -oE '"throughput_ops_s": [0-9.]+' | grep -oE '[0-9.]+'; }
T_SER=$(tput_of "$SERIAL")
T_PIP=$(tput_of "$PIPELINED")
SPEEDUP=$(awk -v a="$T_PIP" -v b="$T_SER" 'BEGIN { printf "%.2f", a / (b > 0 ? b : 1) }')

cat > BENCH_wire.json <<EOF
{
  "experiment": "d2-load vs ${NODES}-process TCP cluster (${WORKERS} workers, ${OPS} ops, ${KEYS} Zipf keys, replicas ${REPLICAS})",
  "serial": ${SERIAL},
  "pipelined": ${PIPELINED},
  "pipelined_speedup": ${SPEEDUP}
}
EOF
echo "==> wrote BENCH_wire.json (pipelined ${SPEEDUP}x serial: ${T_SER} -> ${T_PIP} ops/s)"
