#!/usr/bin/env bash
# BENCHMARK.json's command: build the program and the harness from
# source, then hand the arguments to d2-bench.
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The benchmark is its own cargo workspace (benchmark/Cargo.toml) with
# path dependencies on the repository's crates, so one build covers
# both `d2-bench` and the `d2-node` binary it spawns; they land side by
# side in the target directory. The build is offline: external crates
# resolve to the stand-ins under benchmark/stubs/. In a directory
# without the repository's crates the build fails and this script exits
# non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" -p d2-benchmark -p d2-net --bins >&2
exec "$target/release/d2-bench" "$@"
