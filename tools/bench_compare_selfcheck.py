#!/usr/bin/env python3
"""Self-check for bench_compare.py's handling of new benchmarks.

Builds a google-benchmark run from the committed "current" entries of
BENCH_simspeed.json plus one benchmark the file does not have, then
checks on a temp copy of the file that

  - a compare passes and names the new benchmark as not gated, and
  - --update-counters inserts the new benchmark whole and names it,
    leaving every committed entry as it was.

Usage (from the repo root; tools/check.sh runs it):
  tools/bench_compare_selfcheck.py
"""

import json
import os
import subprocess
import sys
import tempfile

EXTRA = "BM_SelfCheck/extra"


def fail(msg):
    print(f"bench_compare_selfcheck: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    with open("BENCH_simspeed.json") as f:
        ref = json.load(f)
    committed = ref["current"]["benchmarks"]
    benches = []
    for name, e in committed.items():
        b = {"name": name, "run_type": "iteration",
             "items_per_second": e["items_per_second"],
             "real_time": e["real_time_ns"],
             "iterations": e["iterations"]}
        b.update(e.get("counters", {}))
        benches.append(b)
    benches.append({"name": EXTRA, "run_type": "iteration",
                    "items_per_second": 1.0, "real_time": 1.0,
                    "iterations": 1, "sim_insts": 42.0})

    with tempfile.TemporaryDirectory() as d:
        ref_path = os.path.join(d, "ref.json")
        run_path = os.path.join(d, "run.json")
        with open(ref_path, "w") as f:
            json.dump(ref, f)
        with open(run_path, "w") as f:
            json.dump({"benchmarks": benches}, f)

        def compare(*flags):
            return subprocess.run(
                [sys.executable, "tools/bench_compare.py", ref_path,
                 run_path, *flags], capture_output=True, text=True)

        r = compare("--counters-only")
        if r.returncode != 0:
            fail(f"compare failed on a run with one new benchmark:\n"
                 f"{r.stdout}{r.stderr}")
        if f"not gated (no committed entry): {EXTRA}" not in r.stdout:
            fail(f"compare did not name {EXTRA} as not gated")

        r = compare("--update-counters")
        if r.returncode != 0 or EXTRA not in r.stdout:
            fail(f"--update-counters did not name {EXTRA}:\n"
                 f"{r.stdout}{r.stderr}")
        with open(ref_path) as f:
            got = json.load(f)["current"]["benchmarks"]
        if got.get(EXTRA, {}).get("counters") != {"sim_insts": 42.0}:
            fail(f"--update-counters did not insert {EXTRA}")
        for name, e in committed.items():
            if got.get(name) != e:
                fail(f"--update-counters changed committed {name}")

    print("bench_compare: --update-counters inserts a new benchmark "
          "and compare reports it as not gated")
    return 0


if __name__ == "__main__":
    sys.exit(main())
