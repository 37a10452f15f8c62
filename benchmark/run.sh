#!/usr/bin/env bash
# Builds cgbench (release, offline) and runs it. With no arguments it runs
# every workload with the default seed; any arguments are passed through, so
# the driver's `--workload W --seed N --seconds S --trace T` form works too.
# Cargo honours CARGO_TARGET_DIR, so the caller decides where the build goes.
set -euo pipefail
here="$(dirname "$0")"
if [ "$#" -eq 0 ]; then
    set -- all --seed 1
fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
