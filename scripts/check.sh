#!/usr/bin/env bash
# Tier-1.5 gate: everything CI runs, runnable locally before a push.
#
#   scripts/check.sh           # full gate
#   scripts/check.sh -short    # skip the race pass (quick pre-commit loop)
#
# Steps: gofmt, go vet, staticcheck and govulncheck (when installed),
# build (native, then cross-built for darwin and windows), full test
# suite, vet and smoke test of the bench/ module, a check that every test
# and every internal or root package's func, type, var or const DESIGN.md
# and README.md name exists, a diff of the root package's API against
# testdata/api.txt,
# race-detector pass over the whole module, a fuzz
# smoke pass over the parser/compiler/slot-file/executor-differential/
# slot-pair/replication-frame/report-codec fuzz targets, the
# fault-injection smoke sweep, a chaos-soak smoke cell (kill/resume with
# stream comparison), the two serve-soak smoke cells (real SIGKILL of a
# live apserve with resumed streams; SIGKILL of a replicating node with
# client failover to its follower),
# the CAV4k static-partition scale cell (141 k states under a 10 s budget),
# the suite worst-case cell (certified bounds + adversarial witnesses over
# all 26 apps with the soundness, dominance and gap-geomean gates),
# the apopt certificate-checked rewrite of the suite, and the aplint sweep
# of the generated workload suite.
set -euo pipefail
cd "$(dirname "$0")/.."

short=0
[[ "${1:-}" == "-short" ]] && short=1

# step prints the header of the step that starts and, first, how many
# seconds the one before it took: a step that got slower shows in the log.
step_name="" total=0
step() {
    [[ -z "$step_name" ]] || { echo "-- ${SECONDS}s: $step_name"; total=$((total + SECONDS)); }
    step_name=$1 SECONDS=0
    [[ -z "$1" ]] || echo "== $1 =="
}

step "gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

# staticcheck is optional locally (CI installs the pinned version); the
# gate runs it whenever it is on PATH so local and CI findings match.
if command -v staticcheck >/dev/null 2>&1; then
    step "staticcheck"
    staticcheck ./...
else
    step "staticcheck (skipped: not installed; CI runs it)"
fi

# govulncheck likewise: optional locally, pinned in CI. The module is
# stdlib-only, so findings can only come from the standard library or the
# toolchain itself.
if command -v govulncheck >/dev/null 2>&1; then
    step "govulncheck"
    govulncheck ./...
else
    step "govulncheck (skipped: not installed; CI runs it)"
fi

step "go build"
go build ./...

# The checkpoint store syncs through a per-OS helper (fdatasync exists in
# syscall on Linux only); building the module for the other two families
# keeps that file pair, and everything else, portable.
step "cross-build (darwin/arm64, windows)"
GOOS=darwin GOARCH=arm64 go build ./...
GOOS=windows go build ./...

step "go test"
go test ./...

# bench/ is a module of its own (replace sparseap => ../), so the build
# and test above cannot see a change breaking the ledger's imports.
step "bench module (vet + smoke test)"
(cd bench && go vet . && go test .)

# A test the docs name must exist: a backticked Test*, Fuzz* or Benchmark*
# name in DESIGN.md or README.md with no func in any test file fails.
step "tests named in DESIGN.md and README.md exist"
missing=0
for name in $(grep -ohE '`(Test|Fuzz|Benchmark)[A-Za-z0-9_]*' DESIGN.md README.md | tr -d '`' | sort -u); do
    grep -rqE "^func $name\(" --include='*_test.go' . \
        || { echo "the docs name $name, which no test file defines" >&2; missing=1; }
done
[[ $missing -eq 0 ]] || exit 1

# A backticked `pkg.Name` in the docs, pkg a package under internal/, must
# name a func, method, type, var or const declared there (go doc finds it).
step "internal names in DESIGN.md and README.md exist"
for ref in $(grep -ohE '`[a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*' DESIGN.md README.md | tr -d '`' | sort -u); do
    pkg=${ref%%.*}
    [[ -d internal/$pkg ]] || continue
    go doc "./internal/$pkg" "${ref#*.}" >/dev/null 2>&1 \
        || { echo "the docs name $ref, which internal/$pkg does not declare" >&2; missing=1; }
done
# The same for the root package: `sparseap.Name`, `sparseap.Engine.Method`
# and a bare `Engine.Method` (the docs write sim's as `sim.Engine.Method`).
for ref in $(grep -ohE '`(sparseap|Engine)\.[A-Z][A-Za-z0-9_]*(\.[A-Z][A-Za-z0-9_]*)?' DESIGN.md README.md | tr -d '`' | sort -u); do
    go doc . "${ref#sparseap.}" >/dev/null 2>&1 \
        || { echo "the docs name $ref, which the root package does not declare" >&2; missing=1; }
done
[[ $missing -eq 0 ]] || exit 1

# The root package's exported surface is pinned, so a change to it is a
# reviewed diff (regenerate with: go doc -short . > testdata/api.txt).
step "root API matches testdata/api.txt"
diff -u testdata/api.txt <(go doc -short .)

if [[ $short -eq 0 ]]; then
    step "go test -race (whole module)"
    # The lint golden sweep is the long pole: 108 s under the race
    # detector on a 2-core box, 2.7 min for the whole module (the sweep
    # alone took 22 min there while the static partition was quadratic).
    # 600 s per package is 5x that, so only a genuine hang can hit it.
    go test -race -timeout 600s ./...
fi

if [[ $short -eq 0 ]]; then
    # Fuzz smoke: a few seconds per target catches regressions in the
    # corpus-seeded paths without turning the gate into a fuzz campaign.
    step "fuzz smoke (parser, compiler, slot file, executors against the oracle, slot pair, replication frame, report codec)"
    go test -run ZZZ -fuzz FuzzParseANML -fuzztime 5s ./internal/anml
    go test -run ZZZ -fuzz FuzzCompileRegex -fuzztime 5s ./internal/regexc
    go test -run ZZZ -fuzz FuzzSlotFileDamage -fuzztime 5s ./internal/checkpoint
    # Every executor, the rewriter and the worst-case bound against oracle.Run.
    go test -run ZZZ -fuzz FuzzDifferential -fuzztime 15s ./internal/oracle
    go test -run ZZZ -fuzz FuzzDecodePair -fuzztime 5s ./internal/replica
    go test -run ZZZ -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/replica
    go test -run ZZZ -fuzz FuzzMatchReply -fuzztime 5s ./internal/serve
    go test -run ZZZ -fuzz FuzzReportLine -fuzztime 5s ./internal/serve
fi

if [[ $short -eq 0 ]]; then
    # Fault-injection smoke sweep: every (seed, fault kind, app) cell runs the
    # guarded executor end to end at test scale. Stuck trials repair onto
    # spare STEs and apsim itself fails on report divergence; drop trials
    # must complete under the guard with losses accounted. A -timeout bounds
    # each cell so a regression hangs the gate for at most a minute.
    step "fault-injection smoke sweep"
    apsim_bin=$(mktemp -d)/apsim
    trap 'rm -rf "$(dirname "$apsim_bin")"' EXIT
    go build -o "$apsim_bin" ./cmd/apsim
    for seed in 1 2 3; do
        for spec in "stuckoff=0.02" "drop=0.05"; do
            for app in Fermi HM PEN Snort; do
                args=(-app "$app" -divisor 64 -input 8192 -capacity 375
                      -system spap -guard -timeout 60s
                      -fault "$spec" -faultseed "$seed" -nolint)
                [[ "$spec" == stuckoff=* ]] && args+=(-repair)
                "$apsim_bin" "${args[@]}" >/dev/null \
                    || { echo "smoke sweep failed: app=$app fault=$spec seed=$seed" >&2; exit 1; }
            done
        done
    done
    echo "smoke sweep: 24 cells green"
fi

if [[ $short -eq 0 ]]; then
    # Chaos-soak smoke: one kill/resume cell through the full apsim
    # surface (durable store, -resume, stream diff). The in-process soak
    # lives in chaos_test.go; this exercises the process-kill path.
    step "chaos soak smoke (1 app)"
    SOAK_INPUT=8192 scripts/soak.sh HM
fi

if [[ $short -eq 0 ]]; then
    # Serve-soak smoke: one app streamed through a live apserve process
    # that gets a real SIGKILL mid-stream and restarts on the same
    # checkpoint store; the loadgen verifies the resumed stream is
    # bit-identical. The full app set runs in CI's serve-soak job.
    step "serve soak smoke (1 app, real SIGKILL)"
    SERVE_SOAK_INPUT=65536 SERVE_SOAK_KILLS=1 scripts/serve_soak.sh restart HM
fi

if [[ $short -eq 0 ]]; then
    # Failover smoke: node A replicates every checkpoint slot to
    # follower B, takes a real SIGKILL mid-stream, and never comes back;
    # the loadgen's clients must fail over to B and resume from the
    # replicated slots with zero forced restarts. The full app set runs
    # in CI's serve-soak job.
    step "serve soak failover smoke (1 app, SIGKILL owner, failover to follower)"
    SERVE_SOAK_INPUT=65536 SERVE_SOAK_PACE=40ms scripts/serve_soak.sh failover HM
fi

# Static-partition scale cell: the profile-free partition of the suite's
# largest application (CAV4k at the default 1/8 scale, 141 k states) is
# linear in states + edges and takes a fraction of a second; the
# per-component quadratic sort it once carried took ~50 s. Built first so
# the budget covers the run, not the compile.
step "static partition at scale (CAV4k, 141k states, 10s budget)"
apstat_dir=$(mktemp -d)
go build -o "$apstat_dir/apstat" ./cmd/apstat
timeout 10s "$apstat_dir/apstat" -app CAV4k -hotness >/dev/null \
    || { rm -rf "$apstat_dir"; echo "static partition of CAV4k failed or exceeded 10s" >&2; exit 1; }

# Suite worst-case cell: certified frontier/report bounds and an
# adversarial witness for each of the 26 apps at test scale. apstat fails
# on a replay out-running its static bound, on a witness weaker than the
# canonical input it was seeded with, and on a bound/witness gap geomean
# above 4 (3.01 at this scale, 3.78 at the default one, which CI's check
# job runs). ~25 s; the budget only catches a hang.
step "certified worst case over the suite (26 apps, gap geomean <= 4, 120s budget)"
timeout 120s "$apstat_dir/apstat" -all -worstcase -divisor 32 -input 8192 | tail -n 1 \
    || { rm -rf "$apstat_dir"; echo "suite worst-case gates failed or exceeded 120s" >&2; exit 1; }
rm -rf "$apstat_dir"

# Rewrite the whole suite with the certificate chain re-verified: any
# unsound rewrite plan fails the gate here before it could reach users.
step "apopt certificate-checked suite rewrite"
go run ./cmd/apopt -all -check -divisor 64 -input 8192

# Error-severity findings fail the gate; the suite's known warnings (see
# internal/lint/testdata/golden.txt) do not, and the golden test pins them.
step "aplint"
go run ./cmd/aplint -all

step ""
echo "check.sh: all green (${total}s)"
