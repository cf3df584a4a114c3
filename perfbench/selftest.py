#!/usr/bin/env python3
"""Self-test of the traced run.

    python3 perfbench/selftest.py [--seed 7] [--workloads mc-noisy mc-quiet model]

For each workload it runs ``run.py --trace 1`` twice with the same seed, in
fresh processes, and requires that

* each run is correct: the traced call returned the same MC counts,
  gamma0 and surface rows as the same call untraced, the output passed its
  check, no engine was built inside the timed call, and every wrapper was
  removed afterwards;
* every count and count ratio of the per-layer metrics is identical in
  the two runs (times and ``trace.*`` overheads are allowed to differ).

Exits 0 when all hold, 1 otherwise.
"""
from __future__ import annotations

import argparse
import sys

import spread
import workloads


def deterministic(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in ("count", "ratio") and not k.startswith("trace.")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        first, second = (spread.run_once(w, args.seed, 0, 1) for _ in range(2))
        a, b = deterministic(first["metrics"]), deterministic(second["metrics"])
        differ = sorted(k for k in a if a[k] != b[k])
        correct = first["correct"] and second["correct"]
        print(f"{w}: traced == untraced and checks pass: {correct}; "
              f"{len(a)} per-layer counts repeat exactly: {not differ}"
              + (f" (differ: {', '.join(differ)})" if differ else ""))
        ok &= correct and not differ
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
