#!/usr/bin/env bash
# Builds mcps-serve and the benchmark from source, then runs one workload.
#
#   bash perfbench/run.sh --workload serve_flood|serve_interlock \
#       --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build artefacts go to $CARGO_TARGET_DIR
# (default .bench_build); run outputs go to .perfbench/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/serve" ]]; then
    echo "perfbench: the repository's sources are not next to the benchmark" >&2
    exit 2
fi
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p mcps-serve --bin mcps-serve >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
commit="$(git rev-parse --short HEAD 2>/dev/null || echo none)"
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/mcps-serve" --commit "$commit" "$@"
