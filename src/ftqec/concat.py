"""Concatenated coding: crash rates of two-level codes and noise thresholds.

Concatenation is treated level by level: the inner blocks are recovered
inside the outer networks.  The inner crash probability per recovery
becomes the gate and memory failure rate of the level-1 qubits, with the
inner resting term stretched by eta = 1 + N_h_outer / (2 N_GV_outer) and the
outer level evaluated with no holes, unit measurement time and its resting
term shrunk by the same eta.

Iterating this map with one k = 1 code at every level yields the noise
threshold: the largest physical gate rate for which the per-level crash
probabilities keep falling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import analytic
# unused here; kept because perfbench/spans.py wraps concat.binom_pmf
from .analytic import binom_pmf  # noqa: F401
from .codes import CodeParams
from .noise import NoiseParams
from .protocol import ProtocolParams


@dataclass(frozen=True)
class ConcatSpec:
    """One inner-outer concatenation (inner encodes single qubits)."""
    inner: CodeParams
    outer: CodeParams
    n_rep: float = 1.0       # ancilla provisioning at both levels
    t_m: int = 1

    def __post_init__(self):
        if self.inner.k != 1:
            raise ValueError("inner code must encode a single qubit")


@dataclass
class ConcatEstimate:
    pbar: float
    inner_pbar: float
    eta: float
    below_breakeven: bool
    inner_protocol: ProtocolParams
    outer_protocol: ProtocolParams


def eta_factor(outer: CodeParams) -> float:
    """Mean level-2 steps between recoveries of one level-1 qubit."""
    if outer.N_GV == 0:
        return 1.0
    return 1.0 + outer.N_h / (2.0 * outer.N_GV)


def concat_estimate(spec: ConcatSpec, gamma: float, eps: float) -> ConcatEstimate:
    """Crash probability per recovery of the two-level code.

    Repetition parameters are optimized independently per level.
    """
    eta = eta_factor(spec.outer)
    noise_in = NoiseParams(gamma, eps, spec.t_m)
    inner_protocol, inner_pbar = analytic.optimize_protocol(
        spec.inner, noise_in, n_rep=spec.n_rep, rest_scale=eta)
    if inner_pbar >= 0.5:
        return ConcatEstimate(pbar=1.0, inner_pbar=inner_pbar, eta=eta,
                              below_breakeven=True,
                              inner_protocol=inner_protocol,
                              outer_protocol=ProtocolParams(1, 1, 1))
    noise_out = NoiseParams(inner_pbar, inner_pbar, t_m=1)
    outer_protocol, outer_pbar = analytic.optimize_protocol(
        _without_holes(spec.outer), noise_out, n_rep=spec.n_rep,
        rest_scale=1.0 / eta)
    return ConcatEstimate(pbar=outer_pbar, inner_pbar=inner_pbar, eta=eta,
                          below_breakeven=False,
                          inner_protocol=inner_protocol,
                          outer_protocol=outer_protocol)


def _without_holes(code: CodeParams) -> CodeParams:
    """Outer-level view: inter-gate memory noise absorbed into the rates."""
    return CodeParams(n=code.n, k=code.k, d=code.d, t=code.t, w=code.w,
                      N_A=code.N_A, N_GV=code.N_GV, N_h=0,
                      source=code.source, name=code.name + "+inner-recovered")


# ---------------------------------------------------------------------------
# multi-level threshold
# ---------------------------------------------------------------------------

class NoConvergenceError(RuntimeError):
    """The multi-level recursion diverges even at the lowest probed rate."""


LEVELS_CHECKED = 12
# generous provisioning, the top of the practical range: pushing n_rep
# higher shrinks the resting time toward zero and inflates the
# memory-limited thresholds beyond their calibration
THRESHOLD_N_REP = 10.0
# the physical gate rates the threshold bisection starts from
THRESHOLD_BRACKET = (1e-6, 3e-2)
_BISECTION_FLOOR = 1e-30


def level_trace(code: CodeParams, gamma: float, eps_over_gamma: float,
                t_m: int) -> list[float]:
    """Per-level crash probabilities of ``code`` concatenated with itself.

    Level 1 runs at the physical noise and measurement time; level 2 absorbs
    the inner recoveries (no holes, unit measurement time); levels 3 and up
    iterate the stationary map at unit measurement time with the full hole
    count up to ``LEVELS_CHECKED``, and stop once the rate reaches 1 or
    falls below the bisection floor.  Every level is optimized at
    ``THRESHOLD_N_REP``.
    """
    trace = []
    noise = NoiseParams(gamma, gamma * eps_over_gamma, t_m)
    for level in range(1, LEVELS_CHECKED + 1):
        level_code = _without_holes(code) if level == 2 else code
        _, p = analytic.optimize_protocol(level_code, noise, n_rep=THRESHOLD_N_REP)
        trace.append(p)
        if level >= 3 and (p >= 1.0 or p < _BISECTION_FLOOR):
            break
        noise = NoiseParams(p, p, t_m=1)
    return trace


def _converges(trace: list[float]) -> bool:
    """Crash probability falls at every checked level above the first.

    A trace cut short because the rate collapsed below the floor counts as
    convergent (the recursion is doubly exponential once it falls at all).
    """
    levels = trace[1:]
    if not levels:
        return False
    if any(not math.isfinite(p) for p in levels):
        return False
    for a, b in zip(levels, levels[1:]):
        if a < _BISECTION_FLOOR and b < _BISECTION_FLOOR:
            continue
        if b >= a:
            return False
    if trace[-1] < _BISECTION_FLOOR:
        return True
    return len(levels) >= LEVELS_CHECKED - 1


def threshold(code: CodeParams, eps_over_gamma: float, t_m: int,
              rel_width: float = 1e-2) -> float:
    """Bisect the physical gate rate separating convergent from divergent
    multi-level recursions, starting from ``THRESHOLD_BRACKET``.  Returns
    gamma_0."""
    if code.k != 1:
        raise ValueError("threshold recursion needs a k = 1 code")
    # the bisection stops once hi / lo <= 1 + rel_width, or once lo and hi
    # are adjacent doubles, which a rel_width below double resolution needs
    if not rel_width > 0:
        raise ValueError(f"rel_width must be > 0, got {rel_width}")

    def below(gamma: float) -> bool:
        # a memory rate above 1 is no noise level: the recursion diverges
        if gamma * eps_over_gamma > 1.0:
            return False
        return _converges(level_trace(code, gamma, eps_over_gamma, t_m))

    lo, hi = THRESHOLD_BRACKET
    if not below(lo):
        raise NoConvergenceError(f"no convergence even at gamma = {lo}")
    while below(hi):
        hi *= 2.0
        if hi > 0.5:
            return hi
    while hi / lo > 1.0 + rel_width:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
