"""Concatenated coding: crash rates of two-level codes and noise thresholds.

Two treatments are implemented.  The monolithic view regards the pair as a
single CSS code of parameters [[n_i n_o, k_o, (d_i d_o + d_i + d_o - 1)/2]]
and reuses the flat analytic model with the weight tail replaced by the
hierarchical uncorrectability condition (more than t_i errors in more than
t_o sub-blocks).  The level-recursive view recovers the inner blocks inside
the outer networks: the inner crash probability per recovery becomes the
gate and memory failure rate of the level-1 qubits, with the inner resting
term stretched by eta = 1 + N_h_outer / (2 N_GV_outer) and the outer level
evaluated with no holes, unit measurement time and its resting term shrunk
by the same eta.

Iterating the level-recursive map with one k = 1 code at every level yields
the noise threshold: the largest physical gate rate for which the per-level
crash probabilities keep falling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import analytic
from .analytic import binom_pmf
from .codes import CodeParams
from .noise import NoiseParams
from .protocol import ProtocolParams


@dataclass(frozen=True)
class ConcatSpec:
    """One inner-outer concatenation (inner encodes single qubits)."""
    inner: CodeParams
    outer: CodeParams
    n_rep_inner: float = 1.0
    n_rep_outer: float = 1.0
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


def supercode_params(inner: CodeParams, outer: CodeParams) -> CodeParams:
    """Parameters of the combined block in the monolithic view."""
    if inner.k != 1:
        raise ValueError("inner code must encode a single qubit")
    n = inner.n * outer.n
    k = outer.k
    d = (inner.d * outer.d + inner.d + outer.d - 1) // 2
    # w and N_A of the combined (I A) form are not needed by the
    # hierarchical tail; carry the inner/outer products for the counts
    w = inner.w * outer.w if inner.w and outer.w else max(inner.w, outer.w)
    n_a = inner.N_A * outer.n + outer.N_A * inner.n
    return CodeParams.from_counts(n, k, d, w, n_a,
                                  source="constructed",
                                  name=f"{inner.name}*{outer.name}")


def hierarchical_tail(inner: CodeParams, outer: CodeParams):
    """Uncorrectability probability for the monolithic treatment.

    Converts the failure-location counts into a per-bit error probability
    and demands more than t_i errors inside more than t_o sub-blocks.
    """
    n_total = inner.n * outer.n

    def tail(g: float, s: float, gamma_eff: float, eps_eff: float) -> float:
        p_bit = min(1.0, (g * gamma_eff + s * eps_eff) / n_total)
        p_block = binom_pmf(inner.n, inner.t + 1, p_bit)
        return binom_pmf(outer.n, outer.t + 1, p_block)

    return tail


def eta_factor(outer: CodeParams) -> float:
    """Mean level-2 steps between recoveries of one level-1 qubit."""
    if outer.N_GV == 0:
        return 1.0
    return 1.0 + outer.N_h / (2.0 * outer.N_GV)


def concat_estimate(spec: ConcatSpec, gamma: float, eps: float,
                    outer_protocol: Optional[ProtocolParams] = None,
                    r_values=range(1, 7), constraint=None) -> ConcatEstimate:
    """Crash probability per recovery of the two-level code.

    Repetition parameters are optimized independently per level; the outer
    level runs ``outer_protocol`` instead when it is given.
    """
    eta = eta_factor(spec.outer)
    noise_in = NoiseParams.uniform(gamma, eps, spec.t_m)
    inner_protocol, inner_pbar = analytic.optimize_protocol(
        spec.inner, noise_in, r_values=r_values, n_rep=spec.n_rep_inner,
        rest_scale=eta, constraint=constraint)
    below = inner_pbar >= 0.5
    if below:
        return ConcatEstimate(pbar=1.0, inner_pbar=inner_pbar, eta=eta,
                              below_breakeven=True,
                              inner_protocol=inner_protocol,
                              outer_protocol=outer_protocol
                              or ProtocolParams(1, 1, 1))
    outer_code = _without_holes(spec.outer)
    noise_out = NoiseParams.uniform(inner_pbar, inner_pbar, t_m=1)
    if outer_protocol is None:
        outer_protocol, outer_pbar = analytic.optimize_protocol(
            outer_code, noise_out, r_values=r_values,
            n_rep=spec.n_rep_outer, rest_scale=1.0 / eta,
            constraint=constraint)
    else:
        outer_pbar = analytic.crash_estimate(
            outer_code, noise_out, outer_protocol,
            rest_scale=1.0 / eta).pbar
    return ConcatEstimate(pbar=outer_pbar, inner_pbar=inner_pbar, eta=eta,
                          below_breakeven=False,
                          inner_protocol=inner_protocol,
                          outer_protocol=outer_protocol)


def monolithic_estimate(inner: CodeParams, outer: CodeParams,
                        gamma: float, eps: float, t_m: int,
                        n_rep: float = 1.0,
                        r_values=range(1, 7)) -> tuple[float, CodeParams]:
    """Crash probability treating the pair as one large CSS code."""
    combo = supercode_params(inner, outer)
    noise = NoiseParams.uniform(gamma, eps, t_m)
    tail = hierarchical_tail(inner, outer)
    _, pbar = analytic.optimize_protocol(
        combo, noise, r_values=r_values, n_rep=n_rep, tail_model=tail)
    return pbar, combo


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
                t_m: int, levels: int = LEVELS_CHECKED) -> list[float]:
    """Per-level crash probabilities of ``code`` concatenated with itself.

    Level 1 runs at the physical noise and measurement time; level 2 absorbs
    the inner recoveries (no holes, unit measurement time); levels 3 and up
    iterate the stationary map at unit measurement time with the full hole
    count, and stop once the rate reaches 1 or falls below the bisection
    floor.  Every level is optimized at ``THRESHOLD_N_REP``.
    """
    trace = []
    noise = NoiseParams.uniform(gamma, gamma * eps_over_gamma, t_m)
    for level in range(1, levels + 1):
        level_code = _without_holes(code) if level == 2 else code
        _, p = analytic.optimize_protocol(level_code, noise, n_rep=THRESHOLD_N_REP)
        trace.append(p)
        if level >= 3 and (p >= 1.0 or p < _BISECTION_FLOOR):
            break
        noise = NoiseParams.uniform(p, p, t_m=1)
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
    # the bisection stops only once hi / lo <= 1 + rel_width
    if not rel_width > 0:
        raise ValueError(f"rel_width must be > 0, got {rel_width}")

    def below(gamma: float) -> bool:
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
        if below(mid):
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)
