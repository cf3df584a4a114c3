"""Workload definitions, timed operations and their correctness checks.

Every workload is a set-up step (run once before timing, and repeated in
fresh processes for ``setup_s``) plus one timed call that goes through the
library's public entry points in-process with ``workers=1``.  A run
repeats the same call, with the same inputs, so every repeat does the same
work and must return the same output.

* ``mc-noisy`` / ``mc-quiet``: one ``estimate_pbar_mc`` call on golay with
  a fixed trial budget (unreachable ``target_failures``), at a fault-heavy
  and a fault-rare noise level, with the run's seed as MC seed.
* ``model``: one ``concat.threshold`` call (golay catalog entry,
  eps/gamma = 1, t_m = 1) followed by one ``sweep.build_surface`` call at
  gamma = 1e-4 over (golay, bch127-43) with the default concatenations.

The model is deterministic, so its inputs are the fixed configuration
above for every seed; the seed only selects MC streams.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

MC_CODE = "golay"
MC_T_M = 25
MC_PROTOCOL = (4, 3, 3)          # (r, r', r'') with parallel_corrections = 1
MC_BUDGET = 128                  # trials per timed call = 2 batches of 64
MC_NOISE = {"mc-noisy": (3e-3, 3e-5), "mc-quiet": (1e-4, 1e-6)}
THRESHOLD_ARGS = {"code": "golay", "eps_over_gamma": 1.0, "t_m": 1}
SURFACE_ARGS = {"gammas": [1e-4], "codes": ["golay", "bch127-43"]}

# two-sided tail probability below which a crash count is called inconsistent
ALPHA = 1e-6
GOLDEN_REL_TOL = 1e-12

WORKLOADS = ("mc-noisy", "mc-quiet", "model")


def describe(name: str) -> dict:
    """JSON-ready configuration of a workload."""
    if name in MC_NOISE:
        gamma, eps = MC_NOISE[name]
        r, rp, rpp = MC_PROTOCOL
        return {"entry": "simulator.estimate_pbar_mc", "code": MC_CODE,
                "gamma": gamma, "eps": eps, "t_m": MC_T_M,
                "r": r, "r_prime": rp, "r_dprime": rpp,
                "parallel_corrections": 1.0, "trials_per_call": MC_BUDGET,
                "chunk_batches": MC_BUDGET // 64, "workers": 1,
                "mc_seed": "the run's --seed, the same for every call"}
    if name == "model":
        return {"threshold": {"entry": "concat.threshold", **THRESHOLD_ARGS},
                "surface": {"entry": "sweep.build_surface", **SURFACE_ARGS,
                            "concatenations": "default"}}
    raise KeyError(name)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


class Workload:
    """Set-up, timed operation and check for one workload name."""

    def __init__(self, name: str, seed: int, ftqec):
        self.name = name
        self.seed = seed
        self.ftqec = ftqec
        self.reference = None
        self.part_times: list[dict] = []   # model: seconds per call part

    # -- set-up ----------------------------------------------------------
    def setup(self) -> None:
        """Everything the timed operations need built: for MC the code, its
        standard form, the networks and the decoder table (one cold engine
        build, left in the library's engine cache)."""
        sim, codes = self.ftqec.simulator, self.ftqec.codes
        if self.name in MC_NOISE:
            self.config = self.mc_config(MC_BUDGET)
            sim._engine_for(self.config)
        else:
            self.code = codes.params_from_catalog(THRESHOLD_ARGS["code"])
            self.config = self.ftqec.sweep.SweepConfig(
                gammas=tuple(SURFACE_ARGS["gammas"]),
                codes=tuple(SURFACE_ARGS["codes"]))
            for nm in SURFACE_ARGS["codes"]:
                self._warm_model(codes.params_from_catalog(nm))

    def _warm_model(self, code) -> None:
        """One crash estimate, so lazy first-call work is not timed."""
        f = self.ftqec
        f.analytic.crash_estimate(code, f.noise.NoiseParams.uniform(1e-4, 1e-4, 1),
                                  f.simulator.ProtocolParams(3, 2, 2))

    def mc_config(self, budget: int):
        f = self.ftqec
        gamma, eps = MC_NOISE[self.name]
        r, rp, rpp = MC_PROTOCOL
        return f.simulator.SimConfig(
            code_name=MC_CODE,
            noise=f.noise.NoiseParams.uniform(gamma, eps, MC_T_M),
            protocol=f.simulator.ProtocolParams(r, rp, rpp, parallel_corrections=1.0),
            target_failures=budget + 1, max_trials=budget,
            chunk_batches=budget // 64)

    # -- timed operation ---------------------------------------------------
    def run(self):
        """One timed call; returns its raw output."""
        f = self.ftqec
        if self.name in MC_NOISE:
            return f.simulator.estimate_pbar_mc(self.config, seed=self.seed, workers=1)
        t0 = time.perf_counter()
        gamma0 = f.concat.threshold(self.code, THRESHOLD_ARGS["eps_over_gamma"],
                                    THRESHOLD_ARGS["t_m"])
        t1 = time.perf_counter()
        surface = f.sweep.build_surface(self.config)
        self.part_times.append({"threshold_s": t1 - t0,
                                "surface_s": time.perf_counter() - t1})
        return gamma0, surface

    # -- output summaries and checks ---------------------------------------
    def summary(self, out):
        """Comparable, JSON-ready form of an operation's output."""
        if self.name in MC_NOISE:
            return {"trials": int(out.trials), "censored": bool(out.censored),
                    "n_f": [int(v) for v in out.n_f], "n_s": [int(v) for v in out.n_s]}
        gamma0, surface = out
        return {"gamma0": gamma0, "rows": surface.rows()}

    def check(self, summary) -> list[str]:
        """Problems with one operation's output; empty when correct."""
        if self.reference is None:
            self.reference = load_reference()
        if self.name in MC_NOISE:
            problems = check_bookkeeping(summary, MC_BUDGET)
            q = len(summary["n_f"]) - 1
            k, n = summary["n_f"][q], summary["n_f"][q] + summary["n_s"][q]
            problems += check_crash_count(k, n, self.reference["mc"][self.name])
            return problems
        return compare_golden(summary, self.reference["model"])


def check_bookkeeping(s: dict, budget: int) -> list[str]:
    """Trials equal the budget and every trial is counted once per step.

    The library leaves n_s[0] unused, so ``trials`` stands for the lanes
    alive before step 1: trials = n_f[1] + n_s[1] and
    n_s[q-1] = n_f[q] + n_s[q] for q >= 2.
    """
    problems = []
    if s["trials"] != budget:
        problems.append(f"trials {s['trials']} != budget {budget}")
    if not s["censored"]:
        problems.append("run stopped before the trial budget")
    n_f, n_s = s["n_f"], s["n_s"]
    alive = s["trials"]
    for q in range(1, len(n_f)):
        if n_f[q] + n_s[q] != alive:
            problems.append(f"step {q}: n_f + n_s = {n_f[q] + n_s[q]} != {alive}")
        alive = n_s[q]
    return problems


def check_crash_count(k: int, n: int, ref: dict) -> list[str]:
    """k crashes among n trials at risk against the reference rate interval.

    ``ref`` holds a Clopper-Pearson interval [p_lo, p_hi] for the step-q_max
    crash rate recorded at the reference commit.  The count is inconsistent
    when it is too high even for p_hi, or too low even for p_lo, at
    tail probability ALPHA.
    """
    from scipy.special import bdtr, bdtrc
    if n == 0:
        return ["no trial reached step q_max"]
    problems = []
    p_hi, p_lo = ref["p_hi"], ref["p_lo"]
    if k > 0 and bdtrc(k - 1, n, p_hi) < ALPHA:
        problems.append(f"{k} crashes in {n} exceeds the reference rate <= {p_hi:.3g}")
    if p_lo > 0 and bdtr(k, n, p_lo) < ALPHA:
        problems.append(f"{k} crashes in {n} is below the reference rate >= {p_lo:.3g}")
    return problems


def _close(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b:
            return True
        return (math.isfinite(a) and math.isfinite(b)
                and abs(a - b) <= GOLDEN_REL_TOL * max(abs(a), abs(b)))
    return a == b


def compare_golden(summary: dict, golden: dict) -> list[str]:
    """Every number within GOLDEN_REL_TOL relative, everything else equal."""
    problems = []
    if not _close(summary["gamma0"], golden["gamma0"]):
        problems.append(f"gamma0 {summary['gamma0']!r} != golden {golden['gamma0']!r}")
    rows, want = summary["rows"], golden["rows"]
    if len(rows) != len(want):
        return problems + [f"{len(rows)} surface rows != golden {len(want)}"]
    for i, (got, exp) in enumerate(zip(rows, want)):
        if set(got) != set(exp):
            problems.append(f"row {i}: columns {sorted(got)} != {sorted(exp)}")
            continue
        bad = [key for key in exp if not _close(got[key], exp[key])]
        if bad:
            problems.append(f"row {i}: {', '.join(bad)} differ from golden")
    return problems
