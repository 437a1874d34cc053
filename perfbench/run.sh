#!/usr/bin/env bash
# Build the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default perfbench/target); traced runs write their spans there too.
set -euo pipefail
dir="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$dir/target}"
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
exec "$target/release/perfbench" --out-dir "$target" "$@"
