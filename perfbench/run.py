#!/usr/bin/env python3
"""Build and run the OMOS host-clock benchmark.

    python3 perfbench/run.py --workload exec|edit|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark program
(perfbench/omosbench.ml) is built from source with dune into
.bench_build/, then run once. Its human-readable lines go to stdout and
its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the spans of the traced blocks are written to
.bench_build/perfbench/spans-<workload>-seed<N>.jsonl.

Exits non-zero, without printing a result, if the checkout does not hold
the OMOS sources, the build fails, or the benchmark fails or times out.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "omosbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["exec", "edit", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    os.chdir(ROOT)
    for needed in ("dune-project", "lib/core/dune", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("not an OMOS source checkout: %s is missing" % needed)

    env = dict(os.environ)
    # keep every file dune writes inside the checkout
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(ROOT, BUILD_DIR, "xdg-cache")
    build = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "./perfbench/omosbench.exe",
    ]
    try:
        b = subprocess.run(build, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if b.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (dune exit code %d)" % b.returncode)

    cmd = [
        EXE, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=RUN_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark did not finish: %s" % e)
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("benchmark exited with code %d" % r.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(r.stdout)
        fail("benchmark printed no result object")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
