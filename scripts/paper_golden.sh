#!/usr/bin/env bash
# Paper golden: the full apbench run at its 1/8-scale defaults, with the
# per-section wall times stripped, must match testdata/paper_golden.txt
# byte for byte. A kernel, partition or generator change that moves a
# number of the reproduced tables and figures fails here instead of
# drifting silently (~65-80 s on a 2-core box).
#
#   scripts/paper_golden.sh            # regenerate and diff
#   scripts/paper_golden.sh -update    # rewrite the golden
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/apbench" ./cmd/apbench
"$bin/apbench" | sed -E 's/^(=== [a-z0-9]+) \([0-9.]+s\) ===$/\1 ===/' > "$bin/paper.txt"
if [[ "${1:-}" == "-update" ]]; then
    cp "$bin/paper.txt" testdata/paper_golden.txt
    exit 0
fi
diff -u testdata/paper_golden.txt "$bin/paper.txt"
