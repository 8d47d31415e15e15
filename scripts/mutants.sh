#!/usr/bin/env bash
# Mutation check: each patch under testdata/mutants/ breaks the code on
# purpose, and the tests must notice.
#
#   scripts/mutants.sh                                  # every mutant
#   scripts/mutants.sh testdata/mutants/<name>.patch    # some of them
#
# Every patch is applied with `git apply` to a temporary `git worktree` of
# HEAD (so uncommitted edits are not what gets mutated), the patched tree
# must still build, and `go test` runs on the packages the patch touches,
# or on what a `# test: <packages and flags>` line in its header names.
# A mutant the tests do not kill fails the script, unless its header
# carries a `# survives: <why>` line. The header is the text above the
# patch's first `diff --git` line, which `git apply` ignores.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$PWD

tree=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tree" >/dev/null 2>&1 || rm -rf "$tree"
    git worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$tree" HEAD

patches=("$@")
[[ ${#patches[@]} -gt 0 ]] || patches=(testdata/mutants/*.patch)
failed=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    git -C "$tree" reset --quiet --hard HEAD
    if ! git -C "$tree" apply "$repo/$patch"; then
        echo "STALE: $name no longer applies to HEAD" >&2
        failed=$((failed + 1))
        continue
    fi
    if ! (cd "$tree" && go build ./... 2>/dev/null); then
        echo "INVALID: $name does not build, so no test can be said to kill it" >&2
        failed=$((failed + 1))
        continue
    fi
    args=$(sed -n 's/^# test: //p' "$patch")
    if [[ -z "$args" ]]; then
        args=$(git -C "$tree" diff --name-only | xargs -n1 dirname | sort -u | sed 's|^|./|')
    fi
    # $args is split on purpose: packages, then any go test flags.
    # shellcheck disable=SC2086
    if (cd "$tree" && go test -count=1 -timeout 600s $args >/dev/null 2>&1); then
        why=$(sed -n 's/^# survives: //p' "$patch")
        if [[ -n "$why" ]]; then
            echo "survives (expected): $name: $why"
        else
            echo "SURVIVED: $name (go test $args passed)" >&2
            failed=$((failed + 1))
        fi
    else
        echo "killed: $name (go test $args)"
    fi
done
if [[ $failed -gt 0 ]]; then
    echo "mutants.sh: $failed of ${#patches[@]} mutants survived or did not apply" >&2
    exit 1
fi
echo "mutants.sh: ${#patches[@]} mutants, all accounted for"
