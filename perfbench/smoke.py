#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny workload scale.

Run from the root of a checkout (builds through perfbench/run.py):

    python3 perfbench/smoke.py

Checks that
  * `--workload all` runs every workload in one process and prints
    every end-to-end metric of BENCHMARK.json, by name and unit, and
    with --trace 1 every per-layer metric;
  * the sim_* values repeat exactly between the untraced and the
    traced run (each run also checks them across its own passes);
  * a deliberately wrong output (--corrupt 1) is counted as a failure
    on every workload.
Exits 0 when every check passes.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["run", "pipeline", "faults", "suite"]
TINY = ["--scale", "0.05", "--seconds", "0.2", "--seed", "7"]

failures = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def bench(workload, trace, *extra):
    """Run the benchmark; return (result dict, human-readable lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--trace", str(trace)] + TINY + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        check(False, f"{workload} trace={trace} {extra} exits 0 "
                     f"(got {proc.returncode})")
        return None, []
    return json.loads(lines[-1]), lines[:-1]


def sim_values(lines):
    """{(workload, sim_name): value} from the human-readable lines."""
    out = {}
    for line in lines:
        m = re.match(r"^(\w+)\s+(sim_\w+)\s+(\S+)$", line)
        if m:
            out[(m.group(1), m.group(2))] = float(m.group(3))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    untraced_sim = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res, lines = bench("all", trace)
        if res is None:
            continue
        want = {f"{w}.{m['name']}": m["unit"]
                for w in WORKLOADS for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        check(got == want, f"all trace={trace}: every {key} metric "
                           f"printed once with its unit")
        check(res["correct"] and res["failed"] == 0 and
              res["attempted"] > 0,
              f"all trace={trace}: correct, 0 failed of "
              f"{res['attempted']}")
        if trace == 0:
            check(all(v["value"] > 0 for v in res["metrics"].values()),
                  "all trace=0: every end-to-end metric is non-zero")
            untraced_sim = sim_values(lines)
        else:
            traced_sim = {
                (w, s): res["metrics"][f"{w}.{s}"]["value"]
                for (w, s) in untraced_sim}
            check(bool(untraced_sim) and traced_sim == untraced_sim,
                  f"sim_* values repeat between untraced and traced runs "
                  f"({len(untraced_sim)} values)")

    for w in WORKLOADS:
        res, _ = bench(w, 0, "--corrupt", "1")
        if res is not None:
            check(not res["correct"] and res["failed"] >= 1,
                  f"{w}: a wrong output is counted "
                  f"({res['failed']} failed of {res['attempted']})")

    print(f"smoke: {len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
