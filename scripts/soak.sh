#!/usr/bin/env bash
# Chaos soak harness: kill apsim at seeded points, resume from the durable
# checkpoint store, and require the final report stream to be bit-identical
# to an uninterrupted fault-free run — zero duplicate, zero lost reports.
# One cell per suite application, plus a corrupted-checkpoint recovery cell
# that damages the newest checkpoint record in place and expects the resume
# to fall back to the record before it.
#
#   scripts/soak.sh                 # default app set
#   scripts/soak.sh HM Snort        # explicit app list (smoke: one app)
#
# Environment knobs:
#   SOAK_DIVISOR   network scale divisor        (default 64)
#   SOAK_INPUT     input length in symbols      (default 16384)
#   SOAK_RATE      per-symbol crash probability (default 0.0005)
#   SOAK_EVERY     checkpoint interval          (default 512)
#   SOAK_ATTEMPTS  resume attempt bound         (default 40)
set -euo pipefail
cd "$(dirname "$0")/.."

divisor=${SOAK_DIVISOR:-64}
input=${SOAK_INPUT:-16384}
rate=${SOAK_RATE:-0.0005}
every=${SOAK_EVERY:-512}
max_attempts=${SOAK_ATTEMPTS:-40}
apps=("$@")
[[ ${#apps[@]} -eq 0 ]] && apps=(HM Snort Fermi PEN TCP)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
apsim="$work/apsim"
go build -o "$apsim" ./cmd/apsim

common=(-divisor "$divisor" -input "$input" -system spap -guard -nolint)

# u64_at FILE OFFSET: the 64-bit integer at OFFSET (od reads in host byte
# order; the records are little-endian, like every host this runs on).
u64_at() { od -An -tu8 -j "$2" -N8 "$1" | tr -d ' '; }

# damage_newest_record FILE: flip the last byte of the record with the
# highest sequence number, in place (the file keeps its size and its other
# records). A slot file holds up to three records, each starting on a
# 4 KiB boundary with the header magic:8 version:u32 seq:u64 len:u64
# crc:u32 (28 bytes, little-endian) followed by len body bytes; the magic
# is "SPAPCKPN" for a record (a tombstone's, "SPAPCKPR", is skipped).
damage_newest_record() {
    local file=$1 size off best=-1 best_off=0 seq
    size=$(stat -c %s "$file")
    for (( off = 0; off + 28 <= size; off += 4096 )); do
        [[ $(dd if="$file" bs=1 skip="$off" count=8 2>/dev/null) == SPAPCKPN ]] || continue
        seq=$(u64_at "$file" $((off + 12)))
        if (( seq > best )); then best=$seq best_off=$off; fi
    done
    if (( best < 0 )); then
        echo "soak: no checkpoint record found in $file" >&2
        exit 1
    fi
    local last=$(( best_off + 28 + $(u64_at "$file" $((best_off + 20))) - 1 ))
    local byte
    byte=$(od -An -tu1 -j "$last" -N1 "$file" | tr -d ' ')
    printf "$(printf '\\x%02x' $(( byte ^ 0xff )))" \
        | dd of="$file" bs=1 seek="$last" conv=notrunc 2>/dev/null
}

# run_soak_cell APP SEED EXTRA_CORRUPTION(0/1): reference run, then a
# kill/resume loop under an injected-crash plan; streams must match.
run_soak_cell() {
    local app=$1 seed=$2 corrupt=$3
    local dir="$work/$app.$seed.ck" ref="$work/$app.$seed.ref" out="$work/$app.$seed.out"
    local label="app=$app seed=$seed corrupt=$corrupt"

    "$apsim" -app "$app" "${common[@]}" -reportout "$ref" >/dev/null \
        || { echo "soak: reference run failed: $label" >&2; exit 1; }

    local crashes=0 attempt=0 status resume_flag=()
    while :; do
        if (( attempt >= max_attempts )); then
            echo "soak: no convergence after $max_attempts attempts: $label" >&2
            exit 1
        fi
        status=0
        "$apsim" -app "$app" "${common[@]}" \
            -checkpoint "$dir" -every "$every" "${resume_flag[@]}" \
            -fault "crash=$rate" -faultseed "$seed" \
            -reportout "$out" >/dev/null || status=$?
        attempt=$((attempt + 1))
        resume_flag=(-resume)
        if (( status == 0 )); then
            break
        elif (( status == 17 )); then
            crashes=$((crashes + 1))
            if [[ $corrupt == 1 && $crashes == 1 ]]; then
                # Maim the newest record of the newest slot file: recovery
                # must come from the record before it.
                local slot
                slot=$(ls -t "$dir"/*.ckpt 2>/dev/null | head -1 || true)
                if [[ -n "$slot" ]]; then
                    damage_newest_record "$slot"
                fi
            fi
        else
            echo "soak: unexpected exit $status: $label (attempt $attempt)" >&2
            exit 1
        fi
    done
    if (( crashes == 0 )); then
        echo "soak: crash plan never fired ($label) — raise SOAK_RATE or SOAK_INPUT" >&2
        exit 1
    fi
    if ! cmp -s "$ref" "$out"; then
        echo "soak: report stream diverged after $crashes crashes: $label" >&2
        diff "$ref" "$out" | head -20 >&2
        exit 1
    fi
    if [[ $(sort "$out" | uniq -d | wc -l) -ne $(sort "$ref" | uniq -d | wc -l) ]]; then
        echo "soak: duplicate reports introduced across resumes: $label" >&2
        exit 1
    fi
    echo "soak: $label: ${crashes} crashes, $attempt attempts, streams identical ($(wc -l <"$ref") reports)"
}

for app in "${apps[@]}"; do
    run_soak_cell "$app" 1 0
done
# Corrupted-checkpoint recovery on the first app of the set.
run_soak_cell "${apps[0]}" 2 1

echo "soak.sh: all cells green"
