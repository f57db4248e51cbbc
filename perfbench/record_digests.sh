#!/bin/sh
# Regenerates perfbench/digests.txt: the digest of every workload's
# checked outcomes for each of the 16 input variants. Run it from the
# repository root after a change that is meant to move simulated
# outcomes, and say why in the change.
set -eu
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
out=perfbench/digests.txt.new
{
    echo "# <workload> <input variant> <digest of the checked outcomes>"
    echo "# Written by perfbench/record_digests.sh; --seed N selects variant N % 16."
    for w in reap_fleet_hot span_store; do
        for v in $(seq 0 15); do
            "$bin" --workload "$w" --seed "$v" --print-digest
        done
    done
} > "$out"
mv "$out" perfbench/digests.txt
