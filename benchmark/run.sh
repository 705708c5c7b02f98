#!/usr/bin/env bash
# The repository benchmark. Builds tgraph-serve from the root workspace and
# the driver from this directory (both offline), then hands over to the
# driver:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result JSON
#   benchmark/run.sh [--seed N] [--seconds S] [--repeats R] [--smoke] [--out FILE]
#       every workload, untraced then traced; one results file plus
#       benchmark/out/trace_<workload>.json
#   benchmark/run.sh compare BASE.json NEW.json
#       the regression gate; exits nonzero on any `worse`
#
# Reads and writes only inside the checkout: build products under
# $CARGO_TARGET_DIR (default: target/), everything else under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# One absolute target directory for both builds, wherever cargo is run from.
mkdir -p "${CARGO_TARGET_DIR:-target}"
CARGO_TARGET_DIR="$(cd "${CARGO_TARGET_DIR:-target}" && pwd)"
export CARGO_TARGET_DIR

# Build chatter goes to stderr: stdout belongs to the metrics.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    -p tgraph-serve --bin tgraph-serve >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

driver="$CARGO_TARGET_DIR/release/tgraph-benchmark"
case "${1:-}" in
compare | manifest) exec "$driver" "$@" ;;
esac
exec "$driver" "$@" \
    --serve-bin "$CARGO_TARGET_DIR/release/tgraph-serve" \
    --out-dir "$here/out"
