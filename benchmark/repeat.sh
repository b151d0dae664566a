#!/bin/sh
# Run the whole benchmark set K times (default 2) with one seed (default 1)
# and print per metric the medians, quartiles, spread and verdict.
# usage: benchmark/repeat.sh [K] [seed] [--seconds S]
set -eu
rounds="${1:-2}"
seed="${2:-1}"
[ $# -ge 2 ] && shift 2 || shift $#
exec cargo run --release --offline --manifest-path "$(dirname "$0")/Cargo.toml" -- \
    --workload all --repeat "$rounds" --seed "$seed" "$@"
