#!/usr/bin/env python3
"""Check that the benchmark is deterministic where it claims to be.

    python3 perfbench/check_determinism.py [--seconds S] [WORKLOAD ...]

For each workload (default: all three) this runs perfbench/run.py
twice with one seed and once with another, untraced and traced. Two
runs with the same seed must execute the same operation sequence and
report identical simulated time, allocation and per-layer counts; a
different seed must change the operation sequence. Host-time metrics
are not compared. Exits 1 on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
# end-to-end metrics that do not depend on the host clock
DETERMINISTIC_E2E = {"sim_us_per_op", "alloc_kwords_per_op", "ok_frac"}
# per-layer metrics read from the host clock
HOST_TIMED_UNITS = {"ms", "us", "ns", "s"}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().split("\n")
    digest = next(l.split(": ")[1] for l in lines if l.startswith("op sequence digest: "))
    return digest, json.loads(lines[-1])["metrics"]


def deterministic(metrics, trace):
    if trace:
        return {k: v["value"] for k, v in metrics.items()
                if v["unit"] not in HOST_TIMED_UNITS and k != "trace.overhead_frac"}
    return {k: v["value"] for k, v in metrics.items() if k in DETERMINISTIC_E2E}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=3)
    ap.add_argument("workloads", nargs="*", default=["exec", "edit", "serve"])
    args = ap.parse_args()
    ok = True
    for wl in args.workloads:
        for trace in (0, 1):
            d1, m1 = run(wl, 1, args.seconds, trace)
            d1b, m1b = run(wl, 1, args.seconds, trace)
            d2, _ = run(wl, 2, args.seconds, trace)
            a, b = deterministic(m1, trace), deterministic(m1b, trace)
            diffs = sorted(k for k in a if a[k] != b.get(k))
            same_seq = d1 == d1b
            seed_moves = d1 != d2
            verdict = "ok" if same_seq and seed_moves and not diffs else "FAIL"
            ok = ok and verdict == "ok"
            print("%-5s trace=%d: %d deterministic metrics compared; same seed same ops: %s; "
                  "other seed other ops: %s; differing: %s -> %s"
                  % (wl, trace, len(a), same_seq, seed_moves, ", ".join(diffs) or "none",
                     verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
