#!/usr/bin/env bash
# One command: every workload in a process of its own, every metric by name
# and unit, then a summary line. Extra arguments go to stbench: `--trace`
# adds the traced run, `--seed <n>` / `--seconds <s>` override the defaults.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --all --seed 2012 "$@"
