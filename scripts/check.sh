#!/usr/bin/env bash
# Tier-1.5 gate: everything CI runs, runnable locally before a push.
#
#   scripts/check.sh           # full gate
#   scripts/check.sh -short    # skip the race pass (quick pre-commit loop)
#
# Steps: gofmt, go vet, staticcheck and govulncheck (when installed),
# build (native, then cross-built for darwin and windows), full test
# suite (with it the doc cells: every name DESIGN.md and README.md put in
# backticks exists, and each stays under its size cap), vet and smoke test
# of the bench/ module, a diff of the root package's API against
# testdata/api.txt, the list of internal exports nothing but tests
# reaches against testdata/uncalled.txt, the allocation byte gates of the
# slot store and the stream path, a check that internal/lint does
# not link the rewriter, a check that no command declares its own source
# or scale flags (internal/cli registers them),
# race-detector pass over the whole module, a fuzz
# smoke pass over the parser/compiler/slot-file/executor-differential/
# slot-pair/replication-frame/report-codec fuzz targets, the
# fault-injection smoke sweep, a chaos-soak smoke cell (kill/resume with
# stream comparison), the two serve-soak smoke cells (real SIGKILL of a
# live apserve with resumed streams; SIGKILL of a replicating node with
# client failover to its follower),
# the paper golden (apbench's full 1/8-scale output against
# testdata/paper_golden.txt), the CAV4k static-partition scale cell
# (141 k states under a 10 s budget),
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

# go test includes the doc cells (docnames_test.go): every name DESIGN.md
# and README.md put in backticks (a test, an internal or root-package
# name, a bare identifier) must exist, and each document stays under its
# size cap.
step "go test"
go test ./...

# bench/ is a module of its own (replace sparseap => ../), so the build
# and test above cannot see a change breaking the ledger's imports.
step "bench module (vet + smoke test)"
(cd bench && go vet . && go test .)

# The root package's exported surface is pinned, so a change to it is a
# reviewed diff (regenerate with: go doc -short . > testdata/api.txt).
step "root API matches testdata/api.txt"
diff -u testdata/api.txt <(go doc -short .)

# An exported func, method, type, const or var under internal/ that no
# non-test Go file names (bench/ included) is deleted or listed, with the
# reason it stays, in testdata/uncalled.txt; a new one is a reviewed diff.
step "uncalled internal exports match testdata/uncalled.txt"
go test -count=1 -run '^TestUncalledExports$' .

# The store and the stream path are held to bytes, not object counts: an
# in-place save of 56 KiB allocates under 4 KiB, and a warmed report-heavy
# session at most twice its report slice plus 512 KiB. The race detector
# makes sync.Pool drop a share of what is put back, so the tight bounds
# are the ones checked here, outside the race pass.
step "allocation byte gates (in-place save, report-heavy session; no -race)"
go test -count=1 -run '^TestSaveInPlaceAllocationBytes$' ./internal/checkpoint
go test -count=1 -run '^TestReportHeavySessionAllocationBytes$' ./internal/serve

# lint checks a network against what placement sees; shrinking it is the
# rewriter's own pass (apopt, aplint -fix/-diff). Linking the rewriter
# into lint made every pre-run lint pay its fixpoint (7.7 s on Snort_L).
step "internal/lint does not depend on internal/rewrite"
if go list -deps ./internal/lint | grep -x 'sparseap/internal/rewrite' >/dev/null; then
    echo "internal/lint depends on internal/rewrite" >&2
    exit 1
fi

# The source and scale flags are registered once, by internal/cli, so
# every command reads one network source and one capacity rule
# (ap.Scaled(-divisor) unless -capacity is given).
step "cmd/ declares no source or scale flag of its own"
if grep -rnE 'flag\.[A-Za-z0-9]+\((&[^,]+, *)?"(app|all|anml|in|regex|divisor|input|seed|capacity)"' cmd/; then
    echo "the flags above belong to internal/cli (cli.Command)" >&2
    exit 1
fi

if [[ $short -eq 0 ]]; then
    step "go test -race (whole module)"
    # Under the race detector on a 2-core box the whole module takes
    # ~3.1 min; internal/worstcase and internal/lint are the long poles at
    # ~62 s each (the lint sweep alone took 22 min there while the static
    # partition was quadratic). 600 s per package is ~10x that, so only a
    # genuine hang can hit it.
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
                args=(-app "$app" -divisor 64 -input 8192
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

if [[ $short -eq 0 ]]; then
    # The paper's tables and figures as apbench prints them at 1/8 scale,
    # timings stripped, against testdata/paper_golden.txt (~65-80 s).
    step "paper golden (apbench at 1/8 scale vs testdata/paper_golden.txt)"
    scripts/paper_golden.sh
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
