#!/usr/bin/env python3
"""Record the reference values the benchmark checks outputs against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``:

* ``mc``: per MC workload, the step-q_max crash count k among n trials at
  risk from one large run (seed REFERENCE_SEED, which no benchmark call
  uses), with its Clopper-Pearson interval at confidence 1 - ALPHA;
* ``model``: the threshold gamma0 and the surface rows (goldens).

Rerun it only when a change is declared to alter these outputs.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 2**40 + 17
REFERENCE_TRIALS = {"mc-noisy": 16384, "mc-quiet": 65536}


def clopper_pearson(k: int, n: int, alpha: float) -> tuple[float, float]:
    from scipy.special import betaincinv
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1 - alpha / 2))
    return lo, hi


def main() -> int:
    ftqec = run.import_ftqec()
    out = {"recorded_at_commit": run.commit(), "machine": run.machine(),
           "alpha": workloads.ALPHA, "mc": {}}
    for name, trials in REFERENCE_TRIALS.items():
        wl = workloads.Workload(name, 0, ftqec)
        wl.setup()
        t0 = time.perf_counter()
        stats = ftqec.simulator.estimate_pbar_mc(wl.mc_config(trials),
                                                 seed=REFERENCE_SEED, workers=1)
        q = stats.q_max
        k, n = int(stats.n_f[q]), int(stats.n_f[q] + stats.n_s[q])
        lo, hi = clopper_pearson(k, n, workloads.ALPHA)
        out["mc"][name] = {"seed": REFERENCE_SEED, "trials": int(stats.trials),
                           "q_max": q, "k": k, "n": n, "p_lo": lo, "p_hi": hi,
                           "wall_s": time.perf_counter() - t0}
        print(name, out["mc"][name], flush=True)
    wl = workloads.Workload("model", 0, ftqec)
    wl.setup()
    out["model"] = wl.summary(wl.run())
    workloads.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
