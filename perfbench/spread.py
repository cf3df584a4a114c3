#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads mc-noisy mc-quiet --seeds 1-10 \
        --seconds 40 [--out perfbench/results/spread.json]

For every workload and end-to-end metric it prints the median of the
per-run values, the first and third quartiles (``statistics.quantiles``
with n=4) and the spread (Q3 - Q1) / median.  Runs are sequential, one
process at a time.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    report = {}
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            res = run_once(w, seed, args.seconds, 0)
            res["seed"], res["wall_s"] = seed, time.perf_counter() - t0
            runs.append(res)
            vals = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
            print(f"{w} seed {seed}: correct={res['correct']} {vals} "
                  f"wall={res['wall_s']:.1f}s", flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        for k, s in metrics.items():
            print(f"{w:16s} {k:12s} median {s['median']:.5g}  "
                  f"Q1 {s['q1']:.5g}  Q3 {s['q3']:.5g}  spread {s['spread']:.4f}",
                  flush=True)
        report[w] = {"runs": runs, "metrics": metrics,
                     "all_correct": all(r["correct"] for r in runs)}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
