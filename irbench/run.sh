#!/usr/bin/env bash
# Builds the `experiments` CLI with the repository's own workspace (as a
# user would) and the benchmark beside it, then runs the benchmark with
# the given arguments. Run from the root of a checkout.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "irbench/run.sh: run from the root of a checkout of the repository" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ir-experiments
cargo build --release --offline --quiet --manifest-path irbench/Cargo.toml
# Not `exec`: the benchmark reads its children's resource usage, which
# after an exec would include the two cargo processes above.
"$CARGO_TARGET_DIR/release/irbench" "$@"
