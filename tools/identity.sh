#!/usr/bin/env bash
# Cycle-identity check between two builds of this repository.
#
#   tools/identity.sh PARENT_BUILD CHANGE_BUILD [SCALE]
#
# PARENT_BUILD and CHANGE_BUILD are cmake build directories (each with
# tools/mssp-suite and tools/mssp-faultcamp built). Runs every
# deterministic CLI output in both and compares them byte for byte:
#
#   mssp-suite --json                           at --jobs 1 and --jobs 4
#   mssp-faultcamp --intensities 1,10 --json    at --jobs 1 and --jobs 4
#   mssp-faultcamp --intensities 1,10 --epoch-stats
#
# Within each build, the --jobs 4 outputs must also equal the --jobs 1
# outputs (the sharding contract, DESIGN.md §10). SCALE defaults to
# 1.0 (about 40 s of host time per build on 4 cores).
#
# Exit codes: 0 every output matches, 1 some output differs or a run
# failed, 2 usage error.
set -uo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
    echo "usage: tools/identity.sh PARENT_BUILD CHANGE_BUILD [SCALE]" >&2
    exit 2
fi
parent=$1
change=$2
scale=${3:-1.0}
for b in "$parent" "$change"; do
    for t in mssp-suite mssp-faultcamp; do
        if [[ ! -x "$b/tools/$t" ]]; then
            echo "identity.sh: $b/tools/$t not built" >&2
            exit 2
        fi
    done
done

out=$(mktemp -d "${TMPDIR:-/tmp}/mssp_identity.XXXXXX")
trap 'rm -rf "$out"' EXIT

status=0
# run SIDE CMD...: run one tool; a failed run marks the check failed.
run() {
    local side=$1
    shift
    if ! "$@" >/dev/null 2>"$out/$side.err"; then
        echo "identity.sh: $side: ${*} failed:" >&2
        tail -5 "$out/$side.err" >&2
        status=1
    fi
}

for side in parent change; do
    build=$parent
    [[ $side == change ]] && build=$change
    p=$out/$side
    echo "== $side ($build), scale $scale"
    for jobs in 1 4; do
        run "$side" "$build/tools/mssp-suite" --scale "$scale" --seed 1 \
            --jobs "$jobs" --quiet --json "$p.suite.j$jobs.json"
        run "$side" "$build/tools/mssp-faultcamp" --scale "$scale" \
            --seed 1 --intensities 1,10 --jobs "$jobs" --quiet \
            --json "$p.faultcamp.j$jobs.json" \
            --epoch-stats "$p.epochs.j$jobs.json"
    done
done

same() {
    if cmp -s "$1" "$2"; then
        echo "  same    $3"
    else
        echo "  DIFFERS $3"
        status=1
    fi
}

echo "== compare"
for f in suite.j1 suite.j4 faultcamp.j1 faultcamp.j4 epochs.j1 epochs.j4; do
    same "$out/parent.$f.json" "$out/change.$f.json" "$f: parent vs change"
done
for side in parent change; do
    for f in suite faultcamp epochs; do
        same "$out/$side.$f.j1.json" "$out/$side.$f.j4.json" \
            "$f: $side --jobs 1 vs --jobs 4"
    done
done

if [[ $status -eq 0 ]]; then
    echo "identity.sh: identical"
else
    echo "identity.sh: DIFFERENCES FOUND" >&2
fi
exit $status
