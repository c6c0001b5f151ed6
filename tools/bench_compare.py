#!/usr/bin/env python3
"""Compare a google-benchmark JSON run against BENCH_simspeed.json.

The committed file has two sections:

  baseline  the recorded seed numbers (never auto-updated): speedups
            are always reported against these, so "how much faster is
            the simulator than when we started measuring" is one
            command away.
  current   the numbers committed with the most recent optimization
            work: the regression gate. A fresh run whose items/sec
            drops more than --tolerance below any committed current
            number fails the compare.

Each benchmark also exports deterministic `sim_*` counters (simulated
instructions, cycles, tasks, ...). Unlike items/sec those are pure
simulation outputs — identical on any host — so they are compared
EXACTLY, and --counters-only restricts the gate to them. That is what
CI's bench-smoke job runs: a counter mismatch means the simulation
changed behaviour, a throughput dip on a noisy shared runner does not
fail the build (the wall-clock numbers ride along as an artifact).

Usage:
  bench_compare.py BENCH_simspeed.json run.json [--tolerance 0.10]
  bench_compare.py BENCH_simspeed.json run.json --counters-only
  bench_compare.py BENCH_simspeed.json run.json --update [--label L]
  bench_compare.py BENCH_simspeed.json run.json --update-counters

--update rewrites the file's "current" section from run.json (the
baseline is preserved verbatim). --update-counters rewrites only the
"counters" of existing current entries, leaving the committed perf
numbers untouched (use after a legitimate simulation change, without
having to re-measure throughput on the reference machine); a
benchmark the run has but "current" lacks is inserted whole from the
run and named in the message. A compare reports such a benchmark as
"not gated (no committed entry)" without failing.
"""

import argparse
import json
import sys


def load_json(path, what):
    """Parse a JSON file, exiting cleanly (not with a traceback) when
    it is missing or malformed."""
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        print(f"bench_compare: cannot read {what} {path}: "
              f"{e.strerror}", file=sys.stderr)
        sys.exit(1)
    except json.JSONDecodeError as e:
        print(f"bench_compare: {what} {path} is not valid JSON: {e}",
              file=sys.stderr)
        sys.exit(1)


def load_run(path):
    """name -> items_per_second from a google-benchmark JSON file."""
    data = load_json(path, "benchmark run")
    out = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        if "items_per_second" not in b:
            continue
        entry = {
            "items_per_second": b["items_per_second"],
            "real_time_ns": b["real_time"],
            "iterations": b["iterations"],
        }
        # google-benchmark flattens user counters into the benchmark
        # object; ours all start with "sim_" and are deterministic.
        counters = {k: v for k, v in b.items() if k.startswith("sim_")}
        if counters:
            entry["counters"] = counters
        out[b["name"]] = entry
    return out


def compare_counters(current, run):
    """Exact-match comparison of the deterministic sim_* counters.
    Returns (lines, failures)."""
    lines = []
    failures = []
    for name, cur in sorted(current.items()):
        committed = cur.get("counters", {})
        if not committed:
            continue
        got = run.get(name, {}).get("counters", {})
        for key, want in sorted(committed.items()):
            have = got.get(key)
            status = "ok" if have == want else "MISMATCH"
            have_s = "missing" if have is None else f"{have:.10g}"
            lines.append(f"{name + '.' + key:<34}{want:>16.10g}"
                         f"{have_s:>16} {status}")
            if have != want:
                failures.append(
                    f"{name}.{key}: run has {have_s}, committed "
                    f"{want:.10g} (sim counters must match exactly)")
    return lines, failures


def fmt(ips):
    return f"{ips:14.4g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("reference", help="committed BENCH_simspeed.json")
    ap.add_argument("run", help="fresh google-benchmark JSON output")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional drop vs committed current "
                         "(default 0.10)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the reference's 'current' section "
                         "from the run instead of comparing")
    ap.add_argument("--update-counters", action="store_true",
                    help="rewrite only the sim_* counters of existing "
                         "'current' entries (perf numbers untouched)")
    ap.add_argument("--counters-only", action="store_true",
                    help="gate only on exact sim_* counter matches; "
                         "report throughput without failing on it")
    ap.add_argument("--label", default="updated",
                    help="label recorded with --update")
    args = ap.parse_args()

    ref = load_json(args.reference, "reference")
    run = load_run(args.run)
    if not run:
        print("bench_compare: no benchmarks in run output", file=sys.stderr)
        return 1

    if args.update:
        ref["current"] = {"label": args.label, "benchmarks": run}
        with open(args.reference, "w") as f:
            json.dump(ref, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_compare: updated 'current' "
              f"({len(run)} benchmarks) in {args.reference}")
        return 0

    baseline = ref.get("baseline", {}).get("benchmarks", {})
    current = ref.get("current", {}).get("benchmarks", {})
    if not current:
        print("bench_compare: reference has no 'current' section",
              file=sys.stderr)
        return 1

    ungated = sorted(name for name in run if name not in current)

    if args.update_counters:
        n = 0
        for name, entry in current.items():
            counters = run.get(name, {}).get("counters")
            if counters:
                entry["counters"] = counters
                n += 1
            else:
                entry.pop("counters", None)
        for name in ungated:
            current[name] = run[name]
        with open(args.reference, "w") as f:
            json.dump(ref, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"bench_compare: rewrote counters for {n} benchmarks "
              f"in {args.reference} (perf numbers untouched)")
        if ungated:
            print(f"bench_compare: inserted {len(ungated)} new "
                  f"benchmark(s) whole from the run: "
                  f"{', '.join(ungated)}")
        return 0

    counter_lines, counter_failures = compare_counters(current, run)
    failures = list(counter_failures)
    print(f"{'benchmark':<20}{'baseline':>14}{'committed':>14}"
          f"{'this run':>14}{'vs base':>9}{'vs commit':>10}")
    for name, cur in sorted(current.items()):
        if name not in run:
            failures.append(f"{name}: missing from this run")
            continue
        now = run[name]["items_per_second"]
        committed = cur.get("items_per_second", 0)
        if not committed:
            failures.append(f"{name}: committed entry has no "
                            f"items_per_second")
            continue
        base = baseline.get(name, {}).get("items_per_second")
        vs_base = f"{now / base:7.2f}x" if base else "      --"
        ratio = now / committed
        print(f"{name:<20}{fmt(base) if base else '--':>14}"
              f"{fmt(committed)}{fmt(now)}{vs_base:>9}{ratio:9.2f}x")
        if now < committed * (1.0 - args.tolerance):
            msg = (f"{name}: {now:.4g} items/s is "
                   f"{(1 - ratio) * 100:.1f}% below committed "
                   f"{committed:.4g} (tolerance "
                   f"{args.tolerance * 100:.0f}%)")
            if args.counters_only:
                print(f"bench_compare: (non-gating) {msg}")
            else:
                failures.append(msg)

    for name in ungated:
        print(f"bench_compare: not gated (no committed entry): {name}")

    if counter_lines:
        print(f"\n{'deterministic counter':<34}{'committed':>16}"
              f"{'this run':>16}")
        for line in counter_lines:
            print(line)

    if failures:
        print("\nbench_compare: FAIL", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    if args.counters_only:
        print("\nbench_compare: OK (all deterministic sim counters "
              "match; throughput is informational)")
    else:
        print(f"\nbench_compare: OK (counters match; no benchmark "
              f"more than {args.tolerance * 100:.0f}% below "
              f"committed numbers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
