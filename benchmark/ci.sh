#!/usr/bin/env bash
# Checks for the benchmark package only: format, lints, unit tests, then
# a --quick smoke pass of every workload (a twentieth of the full size,
# correctness gate on, no bounds; about 30 s after the build).
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline -q

cargo build --release --offline
start=$(date +%s)
for workload in partition-docs bulkload-stream serve-read serve-write; do
    for trace in 0 1; do
        echo "== $workload --quick --trace $trace"
        cargo run --release --offline --quiet -- \
            --workload "$workload" --seed 1 --quick --trace "$trace" | tail -n 1
    done
done
echo "quick pass: $(($(date +%s) - start)) s"
