#!/usr/bin/env bash
# Kernel layout: where the linker put the step kernels and SpAP's BaseAP
# loop. Ledger rows on HM and LV move 3-15 % with the address mod 64 of
# the dense pass, and any code linked ahead of a kernel shifts it, so
# compare this output on both sides before reading such a move as a
# change's own (DESIGN.md §2, "Where the code sits").
#
#   scripts/kernel_layout.sh            # build the ledger binary, then read it
#   scripts/kernel_layout.sh <binary>   # read a binary already built
#
# With no argument the binary is the one `bash bench/run.sh` runs, built
# by its --spec mode (which prints the ledger's spec and reads nothing
# outside bench/) into .bench_build/bench. One line per symbol: the
# address, the address mod 64 and the size in bytes. A symbol missing
# from the binary fails the script.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=${1:-}
if [[ -z "$bin" ]]; then
    bash bench/run.sh --spec >/dev/null
    bin=.bench_build/bench
fi
syms=(
    'sparseap/internal/sim.(*Engine).stepSparse'
    'sparseap/internal/sim.(*Engine).stepDense'
    'sparseap/internal/sim.(*Engine).denseSlow'
    'sparseap/internal/spap.(*machine).runBase'
)
table=$(go tool nm -size "$bin")
printf '%-44s %10s %6s %6s\n' symbol address mod64 size
for sym in "${syms[@]}"; do
    # nm prints: address size type name.
    line=$(awk -v s="$sym" '$4 == s { print $1, $2; exit }' <<<"$table")
    if [[ -z "$line" ]]; then
        echo "kernel_layout.sh: $sym not in $bin" >&2
        exit 1
    fi
    read -r addr size <<<"$line"
    printf '%-44s %10s %6d %6d\n' "${sym#sparseap/internal/}" "0x$addr" $((16#$addr % 64)) "$size"
done
