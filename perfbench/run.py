#!/usr/bin/env python3
"""ftqec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc-noisy --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload's timed call (identical inputs every time)
is repeated until ``--seconds`` would be exceeded, every output is
checked, and the end-to-end metrics are printed.  ``op_s`` is the mean
time per repeat over the run: the host's speed drifts on a scale of
seconds, and the mean integrates over the whole run.  With ``--trace 1`` the call runs once
untraced and once under the span wrappers of ``spans.py`` (whatever
``--seconds`` says); the per-layer metrics, the tracing overhead and the
traced-equals-untraced check are printed instead.  The last line
of standard output is one JSON object; a result file goes to
``perfbench/results/``.  Workloads are described in ``workloads.py`` and
README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

sys.path.insert(0, str(BENCH_DIR))
import spans  # noqa: E402
import workloads  # noqa: E402

# fresh processes that repeat the cold set-up, besides this process's own
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


class MissingSources(RuntimeError):
    pass


def import_ftqec():
    """Import the package from this checkout's ``src/`` only."""
    if not (SRC / "ftqec" / "__init__.py").is_file():
        raise MissingSources(f"no ftqec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ftqec
    import ftqec.analytic, ftqec.codes, ftqec.concat  # noqa: E401,F401
    import ftqec.network, ftqec.noise, ftqec.simulator, ftqec.sweep  # noqa: E401,F401
    if Path(ftqec.__file__).resolve().parent != (SRC / "ftqec").resolve():
        raise MissingSources(f"ftqec imported from {ftqec.__file__}, not {SRC}")
    return ftqec


def setup_probe(name: str, seed: int) -> float:
    """Cold imports plus set-up, timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "system": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def run_timed(wl: workloads.Workload, seconds: float) -> dict:
    durations, failures = [], []
    first = None
    start = time.perf_counter()
    while True:
        index = len(durations)
        t0 = time.perf_counter()
        try:
            out = wl.run()
        except Exception as exc:  # counted as a failed call
            durations.append(time.perf_counter() - t0)
            failures.append({"call": index, "problems": [f"raised {exc!r}"]})
        else:
            durations.append(time.perf_counter() - t0)
            summary = wl.summary(out)
            if first is None:
                first = summary
                problems = wl.check(summary)
            else:
                problems = [] if summary == first else ["output differs from the first call"]
            if problems:
                failures.append({"call": index, "problems": problems})
        elapsed = time.perf_counter() - start
        if elapsed + statistics.fmean(durations) > seconds:
            break
    return {"durations_s": durations, "summary": first, "failures": failures,
            "measured_s": time.perf_counter() - start}


def end_to_end(timed: dict, setup_samples: list[float]) -> dict:
    calls = len(timed["durations_s"])
    op_s = statistics.fmean(timed["durations_s"])
    return {
        "op_s": {"value": op_s, "unit": "s"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "ok_frac": {"value": (calls - len(timed["failures"])) / calls, "unit": "ratio"},
    }


def print_end_to_end(wl, timed: dict, metrics: dict) -> None:
    name = wl.name
    calls = len(timed["durations_s"])
    failed = len(timed["failures"])
    op_s = metrics["op_s"]["value"]
    print(f"workload {name}: {calls} timed calls in {timed['measured_s']:.1f} s")
    if name in workloads.MC_NOISE:
        print(f"  trials_per_s  {workloads.MC_BUDGET / op_s:12.2f} 1/s"
              f"  ({workloads.MC_BUDGET} trials per call, mean of {calls})")
    else:
        for part in ("threshold_s", "surface_s"):
            mean = statistics.fmean(p[part] for p in wl.part_times)
            print(f"  {part:<13} {mean:12.4f} s    (mean of {calls})")
    print(f"  op_s          {op_s:12.4f} s")
    print(f"  setup_s       {metrics['setup_s']['value']:12.4f} s")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb']['value']:12.1f} MB")
    print(f"  failed_frac   {failed / calls:12.4f}      ({failed} of {calls})")
    for f in timed["failures"]:
        print(f"  call {f['call']} failed: {'; '.join(f['problems'])}")


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def run_traced(wl, ftqec, tracer: spans.Tracer, setup_agg: dict) -> dict:
    t0 = time.perf_counter()
    plain = wl.summary(wl.run())
    untraced_s = time.perf_counter() - t0

    tracer.reset_aggregates()
    tracer.run_id = 1
    t0 = time.perf_counter()
    with spans.traced(tracer, ftqec):
        traced_out = wl.summary(wl.run())
    traced_s = time.perf_counter() - t0

    failures = []
    problems = wl.check(plain)
    if traced_out != plain:
        problems.append("traced output differs from untraced output")
    if problems:
        failures.append({"call": 0, "problems": problems})
    other = []
    if not spans.wrappers_removed(ftqec):
        other.append("span wrappers still installed after the traced run")
    metrics = spans.layer_metrics(tracer.aggregates(), setup_agg)
    if metrics["simulator.engine_init.timed_calls"][0]:
        other.append("an engine was built inside the timed calls")
    metrics["trace.spans"] = (tracer.span_count(), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return {"summary": plain, "failures": failures, "other_problems": other,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def print_traced(name: str, traced: dict) -> None:
    print(f"workload {name}: one call untraced, then traced")
    for key, m in traced["metrics"].items():
        print(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
    for f in traced["failures"]:
        print(f"  call {f['call']} failed: {'; '.join(f['problems'])}")
    for p in traced["other_problems"]:
        print(f"  check failed: {p}")


# ---------------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one cold set-up, print it and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        ftqec = import_ftqec()
    except MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.Workload(args.workload, args.seed, ftqec)
    tracer = spans.Tracer() if args.trace else None
    if tracer is None:
        wl.setup()
    else:
        with spans.traced(tracer, ftqec):
            wl.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "config": workloads.describe(args.workload),
              "machine": machine(), "commit": commit()}
    if tracer is None:
        setup_samples = [setup_s] + [setup_probe(args.workload, args.seed)
                                     for _ in range(SETUP_PROBES)]
        timed = run_timed(wl, args.seconds)
        metrics = end_to_end(timed, setup_samples)
        print_end_to_end(wl, timed, metrics)
        record.update(setup_samples_s=setup_samples, part_times=wl.part_times, **timed)
        attempted, failed = len(timed["durations_s"]), len(timed["failures"])
    else:
        setup_agg = tracer.aggregates()
        timed = run_traced(wl, ftqec, tracer, setup_agg)
        metrics = timed["metrics"]
        print_traced(args.workload, timed)
        record.update(timed)
        attempted, failed = 2, len(timed["failures"])

    correct = failed == 0 and not timed.get("other_problems")
    record.update(correct=correct, metrics=metrics)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS_DIR / f"{stem}.spans.csv.gz")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
