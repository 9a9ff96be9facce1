#!/usr/bin/env bash
# Runs every paper reproduction at `--scale ci` and diffs its stdout
# against the golden file of the same name in this directory.
#
#   crates/bench/golden/check.sh [--bless] [BIN_DIR]
#
# BIN_DIR holds the release binaries (default: target/release; build them
# with `cargo build --release -p phe-bench --bins`). `--bless` rewrites
# the golden files instead of diffing. The wall-clock `build ms` column
# of `ablation_voptimal` (the last 10 characters of each line of its
# table) is cut before the comparison.
set -euo pipefail

golden="$(cd "$(dirname "$0")" && pwd)"
bless=0
if [ "${1:-}" = "--bless" ]; then
    bless=1
    shift
fi
bins="${1:-target/release}"
actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT

status=0
for name in figure1_distribution figure2_accuracy table2_orderings \
    ablation_base_sets ablation_voptimal downstream_plans; do
    "$bins/$name" --scale ci | sed -E '/build ms$/,/^$/ s/.{10}$//' > "$actual"
    if [ "$bless" = 1 ]; then
        cp "$actual" "$golden/$name.txt"
    elif ! diff -u "$golden/$name.txt" "$actual"; then
        echo "$name: stdout differs from $golden/$name.txt" >&2
        status=1
    fi
done
exit "$status"
