#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload run|pipeline|faults|suite|all \
        --seed N --seconds S --trace 0|1 [perfbench options...]

Configures and builds perfbench/ (which compiles the library from
../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs the benchmark binary with the same arguments. The binary
prints the human-readable metric lines and, as the last line of
standard output, the JSON result. With --trace 1 the spans are written
to <build dir>/trace-<workload>-<seed>.json. See perfbench/README.md.
"""

import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def arg_value(argv, flag, default):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def build(build_dir):
    """Configure (once) and build; all tool output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/: run from a full checkout", 2)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        # One build at a time per build directory.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def main():
    argv = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"build failed: {e}", 3)

    if arg_value(argv, "--trace", "0") != "0" and "--trace-out" not in argv:
        name = (f"trace-{arg_value(argv, '--workload', 'x')}-"
                f"{arg_value(argv, '--seed', '1')}.json")
        argv += ["--trace-out", os.path.join(build_dir, name)]
    try:
        proc = subprocess.run([os.path.join(build_dir, "perfbench")] + argv,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 4)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    # The binary's last line is the result; refuse anything malformed.
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)


if __name__ == "__main__":
    main()
