#!/usr/bin/env bash
# Repo health check: formatting (advisory), a scan for library headers
# only tests include, a bench_compare.py self-check, a normal build +
# ctest, a tree-wide clang-tidy pass (gating when the binary is
# available), a lint-gate smoke test on a deliberately corrupted
# distilled object, a fault-injection campaign smoke (all fault
# types, determinism checked), a Release-build benchmark smoke run
# (regression gate), and a second build + ctest under ASan+UBSan
# (MSSP_SANITIZE).
#
#   tools/check.sh [--fast]     # --fast skips the sanitizer pass
#
# Every optional gate has a skip knob (set to 1 to skip):
#
#   MSSP_SKIP_TIDY        clang-tidy tree-wide pass
#   MSSP_SKIP_SPECSAFE    speculation-safety sweep (sharded vs serial)
#   MSSP_SKIP_SPECPLAN    speculation-plan sweep (sharded vs serial)
#   MSSP_SKIP_SPECULATE   value-speculation distill/adapt/lint gate
#   MSSP_SKIP_FAULTS      fault-injection campaign smoke
#   MSSP_SKIP_BENCH       Release benchmark smoke (regression gate)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

echo "== format check (advisory)"
tools/format.sh --check || echo "check.sh: formatting differs (advisory only)"

# A src/ header that tests include but no library, tool, bench,
# example or perfbench file does is code only tests use: delete it
# with its tests instead of shipping it in libmssp. The allow-list
# names headers that exist for tests, each with its reason.
echo "== test-only library headers"
declare -A test_only_ok=(
    [formal/abstract_model.hh]="the reference model tests check the machine against"
    [workloads/micro.hh]="the regression workload set"
)
test_only=()
while read -r hdr; do
    rel=${hdr#src/}
    if [[ -n "${test_only_ok[$rel]:-}" ]]; then
        continue
    fi
    grep -rqF "#include \"$rel\"" tests || continue
    users=$(grep -rlF "#include \"$rel\"" \
                src tools bench examples perfbench \
            | grep -vxF "${hdr%.hh}.cc" || true)
    if [[ -z "$users" ]]; then
        test_only+=("$rel")
    fi
done < <(find src -name '*.hh' | sort)
if [[ ${#test_only[@]} -gt 0 ]]; then
    echo "check.sh: src/ headers included only from tests/:" \
         "${test_only[*]}" >&2
    exit 1
fi

# bench_compare.py must insert a benchmark the committed file lacks
# on --update-counters, and report it as not gated on a compare.
echo "== bench_compare self-check"
python3 tools/bench_compare_selfcheck.py

echo "== build (default flags)"
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build -j"$JOBS"

echo "== ctest (default flags)"
ctest --test-dir build --output-on-failure -j"$JOBS"

# Tree-wide static analysis, driven by the committed .clang-tidy
# profile. A gate when the binary exists; skipped gracefully (with a
# note) when it doesn't, so minimal containers can still run check.sh.
if [[ "${MSSP_SKIP_TIDY:-0}" == "1" ]]; then
    echo "== skipping clang-tidy (MSSP_SKIP_TIDY=1)"
elif command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (tree-wide)"
    mapfile -t tidy_sources < <(find src tools -name '*.cc' | sort)
    if command -v run-clang-tidy >/dev/null 2>&1; then
        run-clang-tidy -quiet -p build "${tidy_sources[@]}"
    else
        clang-tidy -quiet -p build "${tidy_sources[@]}"
    fi
else
    echo "== clang-tidy not installed; skipping (set MSSP_SKIP_TIDY=1 to silence)"
fi

echo "== lint gate smoke test"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cat > "$tmp/prog.s" <<'EOF'
  addi t0, zero, 10
  addi t1, zero, 0
loop:
  add t1, t1, t0
  addi t0, t0, -1
  bne t0, zero, loop
  out t1, 0
  halt
EOF
build/tools/mssp-distill "$tmp/prog.s" -o "$tmp/prog.mdo" --verify
# Exit 0 = clean, 1 = warnings only (docs/LINT.md): both acceptable
# here, errors (2) and usage/read failures (3) are not.
lint_rc=0
build/tools/mssp-lint "$tmp/prog.s" --image "$tmp/prog.mdo" \
    || lint_rc=$?
if [[ $lint_rc -gt 1 ]]; then
    echo "check.sh: lint failed on a fresh image (exit $lint_rc)" >&2
    exit 1
fi
# Corrupt the restart map: the lint must reject the image (exit 2).
sed 's/^restart \(0x[0-9a-f]*\) 0x[0-9a-f]*/restart \1 0x999999/' \
    "$tmp/prog.mdo" > "$tmp/bad.mdo"
bad_rc=0
build/tools/mssp-lint "$tmp/prog.s" --image "$tmp/bad.mdo" \
    > /dev/null || bad_rc=$?
if [[ $bad_rc -ne 2 ]]; then
    echo "check.sh: lint did not reject a corrupted image with" \
         "exit 2 (got $bad_rc)" >&2
    exit 1
fi
echo "corrupted image rejected, as it should be"

# The JSON contract on error paths (docs/SCHEMAS.md): every
# --report=json invocation must emit a schema-bearing document on
# stdout, even for usage errors (exit 3) and unreadable input, so
# downstream jq pipelines never see an empty stream.
usage_rc=0
usage_out=$(build/tools/mssp-lint --report=json 2>/dev/null) \
    || usage_rc=$?
if [[ $usage_rc -ne 3 || "$usage_out" != *'"schema"'* ]]; then
    echo "check.sh: usage error did not emit a schema JSON document" \
         "with exit 3 (exit $usage_rc: $usage_out)" >&2
    exit 1
fi
noent_rc=0
noent_out=$(build/tools/mssp-lint --plan --report=json \
    "$tmp/does-not-exist.s" 2>/dev/null) || noent_rc=$?
if [[ $noent_rc -ne 3 || "$noent_out" != *'"mssp-specplan-v1"'* ]]; then
    echo "check.sh: unreadable input did not emit the mode's schema" \
         "JSON document with exit 3 (exit $noent_rc: $noent_out)" >&2
    exit 1
fi
echo "JSON error documents emitted on usage/read failures, as specified"

if [[ "${MSSP_SKIP_SPECSAFE:-0}" == "1" ]]; then
    echo "== skipping specsafe gate (MSSP_SKIP_SPECSAFE=1)"
else
    # Speculation-safety sweep over every registry workload: every
    # static load classified, persisted metadata re-validates, and
    # the aggregated JSON from a sharded run is byte-identical to the
    # serial one (the determinism contract, DESIGN.md §10).
    echo "== specsafe gate (all workloads, sharded vs serial)"
    spec_rc=0
    build/tools/mssp-lint --specsafe --workloads all --scale 0.05 \
        --jobs "$JOBS" --report=json > "$tmp/specsafe-par.json" \
        || spec_rc=$?
    if [[ $spec_rc -gt 1 ]]; then
        echo "check.sh: specsafe found errors (exit $spec_rc)" >&2
        exit 1
    fi
    build/tools/mssp-lint --specsafe --workloads all --scale 0.05 \
        --jobs 1 --report=json > "$tmp/specsafe-ser.json" || true
    if ! cmp -s "$tmp/specsafe-par.json" "$tmp/specsafe-ser.json"; then
        echo "check.sh: sharded specsafe report (--jobs $JOBS)" \
             "differs from the serial one" >&2
        exit 1
    fi
    echo "specsafe clean; --jobs $JOBS report byte-identical to --jobs 1"
fi

if [[ "${MSSP_SKIP_SPECPLAN:-0}" == "1" ]]; then
    echo "== skipping specplan gate (MSSP_SKIP_SPECPLAN=1)"
else
    # Speculation-plan sweep over every registry workload: the
    # persisted plans re-validate, and the aggregated JSON from a
    # sharded run is byte-identical to the serial one.
    echo "== specplan gate (all workloads, sharded vs serial)"
    plan_rc=0
    build/tools/mssp-lint --plan --workloads all --scale 0.05 \
        --jobs "$JOBS" --report=json > "$tmp/specplan-par.json" \
        || plan_rc=$?
    if [[ $plan_rc -gt 1 ]]; then
        echo "check.sh: specplan found errors (exit $plan_rc)" >&2
        exit 1
    fi
    build/tools/mssp-lint --plan --workloads all --scale 0.05 \
        --jobs 1 --report=json > "$tmp/specplan-ser.json" || true
    if ! cmp -s "$tmp/specplan-par.json" "$tmp/specplan-ser.json"; then
        echo "check.sh: sharded specplan report (--jobs $JOBS)" \
             "differs from the serial one" >&2
        exit 1
    fi
    echo "specplan clean; --jobs $JOBS report byte-identical to --jobs 1"
fi

if [[ "${MSSP_SKIP_SPECULATE:-0}" == "1" ]]; then
    echo "== skipping speculation gate (MSSP_SKIP_SPECULATE=1)"
else
    # Value-speculating distiller (DESIGN.md §13): distill one
    # workload with --speculate --adapt, require convergence and a
    # verified image (--verify replays every proven bake against the
    # SEQ oracle), then lint the image against the original program
    # and check the whole flow is deterministic (a second run must
    # produce the same bytes).
    echo "== speculation gate (distill --speculate --adapt + lint)"
    build/tools/mssp-distill --workload mcf --scale 0.05 \
        --speculate --adapt 4 --verify -o "$tmp/spec-mcf.mdo"
    spec_lint_rc=0
    build/tools/mssp-lint --workload mcf --scale 0.05 \
        --image "$tmp/spec-mcf.mdo" > /dev/null || spec_lint_rc=$?
    if [[ $spec_lint_rc -gt 1 ]]; then
        echo "check.sh: lint rejected the speculated image" \
             "(exit $spec_lint_rc)" >&2
        exit 1
    fi
    build/tools/mssp-distill --workload mcf --scale 0.05 \
        --speculate --adapt 4 -o "$tmp/spec-mcf2.mdo"
    if ! cmp -s "$tmp/spec-mcf.mdo" "$tmp/spec-mcf2.mdo"; then
        echo "check.sh: speculated image is not byte-deterministic" \
             "across re-distillation" >&2
        exit 1
    fi
    echo "speculated image verified, lint-clean, byte-deterministic"
fi

if [[ "${MSSP_SKIP_FAULTS:-0}" == "1" ]]; then
    echo "== skipping fault-campaign smoke (MSSP_SKIP_FAULTS=1)"
else
    # Quick sweep: every fault type on two workloads. The binary exits
    # nonzero if any invariant (output equivalence, forward progress,
    # clean architected state) fails or a fault type never fired. The
    # sweep runs twice — once sharded across every host core, once on
    # the exact serial path — and the two reports must be
    # byte-identical: that one diff checks both reproducibility and
    # the parallel driver's determinism contract (DESIGN.md §10)
    # without simulating a third time.
    echo "== fault-campaign smoke (all fault types, 2 workloads)"
    build/tools/mssp-faultcamp --workloads gzip,mcf --scale 0.05 \
        --seed 12345 --jobs "$JOBS" --quiet --json "$tmp/camp-par.json"
    build/tools/mssp-faultcamp --workloads gzip,mcf --scale 0.05 \
        --seed 12345 --jobs 1 --quiet --json "$tmp/camp-ser.json"
    if ! cmp -s "$tmp/camp-par.json" "$tmp/camp-ser.json"; then
        echo "check.sh: sharded campaign (--jobs $JOBS) differs from" \
             "the serial one" >&2
        exit 1
    fi
    echo "campaign passed; --jobs $JOBS report byte-identical to --jobs 1"
fi

# Numeric flags are parsed whole and range-checked: junk or a
# negative count is a usage error (exit 2), never a silent 0 or a
# wrapped-around huge value.
echo "== numeric flag values checked"
for cmd in "build/tools/mssp-faultcamp --scale abc" \
           "build/tools/mssp-run $tmp/prog.s --max-cycles -5"; do
    flag_rc=0
    $cmd > /dev/null 2>&1 || flag_rc=$?
    if [[ $flag_rc -ne 2 ]]; then
        echo "check.sh: '$cmd' did not exit 2 (got $flag_rc)" >&2
        exit 1
    fi
done
echo "bad numeric flag values rejected with exit 2"

if [[ "${MSSP_SKIP_BENCH:-0}" == "1" ]]; then
    echo "== skipping benchmark smoke (MSSP_SKIP_BENCH=1)"
else
    # Quick run with a wide tolerance: this catches builds that fell
    # off a performance cliff, not few-percent drift (the machine is
    # shared; tools/bench.sh with the default tolerance is the real
    # comparison).
    echo "== benchmark smoke (Release, quick run)"
    MSSP_BENCH_MIN_TIME=0.05 tools/bench.sh --tolerance 0.5
fi

if [[ $fast == 1 ]]; then
    echo "== skipping sanitizer pass (--fast)"
    exit 0
fi

echo "== build (ASan+UBSan)"
cmake -B build-san -S . -DMSSP_SANITIZE=address,undefined >/dev/null
cmake --build build-san -j"$JOBS"

echo "== ctest (ASan+UBSan)"
ctest --test-dir build-san --output-on-failure -j"$JOBS"

echo "== all checks passed"
