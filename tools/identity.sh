#!/usr/bin/env bash
# Cycle-identity check between two builds of this repository.
#
#   tools/identity.sh PARENT_BUILD CHANGE_BUILD [SCALE]
#
# PARENT_BUILD and CHANGE_BUILD are cmake build directories (each with
# tools/mssp-suite, tools/mssp-faultcamp and tools/mssp-lint built).
# Runs every deterministic CLI output in both and compares them byte
# for byte:
#
#   mssp-suite --json                           at --jobs 1 and --jobs 4
#   mssp-faultcamp --intensities 1,10 --json    at --jobs 1 and --jobs 4
#   mssp-faultcamp --intensities 1,10 --epoch-stats
#   mssp-lint --workload W --semantic --report=json, stdout and exit
#     code, for every workload the parent's suite JSON lists (the
#     suite keeps only finding counts; exit 0/1/2 are lint results,
#     anything else is a failed run)
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
    for t in mssp-suite mssp-faultcamp mssp-lint; do
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

# The workload list of the parent's suite document (its first
# "workloads" array; the campaign's comes later).
workloads=$(sed -n 's/.*"workloads": \[\([^]]*\)\].*/\1/p' \
    "$out/parent.suite.j1.json" 2>/dev/null | head -1 | tr -d '",')
if [[ -z $workloads ]]; then
    echo "identity.sh: no workload list in the parent suite JSON" >&2
    status=1
fi
for side in parent change; do
    build=$parent
    [[ $side == change ]] && build=$change
    for w in $workloads; do
        f=$out/$side.lint.$w.json
        "$build/tools/mssp-lint" --workload "$w" --scale "$scale" \
            --semantic --report=json >"$f" 2>"$out/$side.err"
        rc=$?
        echo "exit $rc" >>"$f"
        if ((rc > 2)); then
            echo "identity.sh: $side: mssp-lint --workload $w" \
                "failed (exit $rc):" >&2
            tail -5 "$out/$side.err" >&2
            status=1
        fi
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
for w in $workloads; do
    same "$out/parent.lint.$w.json" "$out/change.lint.$w.json" \
        "lint $w: parent vs change"
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
