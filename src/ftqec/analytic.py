"""Closed-form estimate of the crash probability per block per recovery.

The model composes, for a given code, noise level and repetition schedule:

* the probability a verified ancilla still carries a syndrome-corrupting
  error (p_za) and the verified fraction (alpha),
* the counts of gate and memory failure locations feeding errors into the
  data block (g, s) together with the data resting time t_r, closed
  self-consistently through the zero-syndrome fraction beta,
* the probability of an uncorrectable accumulated error for each branch of
  the protocol (single extraction, full repetition, deferred rounds), the
  repeated-syndrome agreement probabilities, and the wrong-syndrome
  acceptance floor,

and finally folds the branches into pbar, the crash probability per
recovery.  Two dimensionless constants (mu, nu), fitted once against the
Monte-Carlo results, absorb the details of which late verification
failures escape detection.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .codes import CodeParams
from .noise import NoiseParams
from .protocol import ProtocolError, ProtocolParams, resting_time


@dataclass(frozen=True)
class AnalyticConstants:
    """Fitted escape-counting constants; override only for sensitivity studies."""
    mu: float = 0.35
    nu: float = 1.0


DEFAULT_CONSTANTS = AnalyticConstants()

_S_TRUNCATION_REL = 1e-3
_S_MAX_TERMS = 200
_BETA_TOL = 1e-12
_BETA_MAX_ITER = 200


# ---------------------------------------------------------------------------
# binomial building blocks (real-valued trial counts allowed)
# ---------------------------------------------------------------------------

def binom_pmf(n: float, m: int, p: float) -> float:
    """C(n, m) p^m (1-p)^(n-m) with the gamma-function generalization of
    C(n, m) so fractional location counts are usable."""
    if m < 0 or m > n:
        return 0.0
    if p <= 0.0:
        return 1.0 if m == 0 else 0.0
    if p >= 1.0:
        return 1.0 if abs(n - m) < 1e-12 else 0.0
    log_c = gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)
    return float(math.exp(log_c + m * math.log(p) + (n - m) * math.log1p(-p)))


def _binom_series(n: float, m_max: int, p: float) -> np.ndarray:
    """binom_pmf(n, m, p) for m = 0..m_max as one vectorized evaluation."""
    m = np.arange(m_max + 1, dtype=np.float64)
    if p <= 0.0:
        out = np.zeros(m_max + 1)
        out[0] = 1.0
        return out
    if p >= 1.0:
        out = np.zeros(m_max + 1)
        idx = int(round(n))
        if 0 <= idx <= m_max:
            out[idx] = 1.0
        return out
    log_c = gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)
    logs = log_c + m * math.log(p) + (n - m) * math.log1p(-p)
    if m_max <= n:   # every order is reachable: nothing to mask
        return np.exp(logs)
    valid = m <= n
    return np.where(valid, np.exp(np.where(valid, logs, 0.0)), 0.0)


def bprime(g: float, s: float, m: int, gamma: float, eps: float) -> float:
    """Probability of a weight-m data error from g gate locations at rate
    gamma and s memory locations at rate eps: the convolution
    sum_j B(g, j, gamma) B(s, m-j, eps)."""
    if m == 0 and 0.0 < gamma < 1.0 and 0.0 < eps < 1.0:
        # (1-gamma)^g (1-eps)^s, bit for bit the m = 0 series product below
        return float(np.exp(g * math.log1p(-gamma)) * np.exp(s * math.log1p(-eps)))
    bg = _binom_series(g, m, gamma)
    bs = _binom_series(s, m, eps)
    return float(np.dot(bg, bs[::-1]))


def uncorrectable_tail(g: float, s: float, t: int, n: int,
                       gamma: float, eps: float) -> float:
    """Probability of an uncorrectable accumulation: more than t failures.

    The direct sum over m = t+1..n is numerically exact when the expected
    failure count is small, where essentially no mass sits beyond n.  When
    failures saturate the block the direct sum loses that mass, so the
    complement 1 - sum_{m<=t} takes over; it is only trusted well above the
    double-precision cancellation floor.
    """
    bg = _binom_series(g, n, gamma)
    bs = _binom_series(s, n, eps)
    direct = float(np.convolve(bg, bs)[: n + 1][t + 1:].sum())
    # the head comes from its own short convolution: summing the first t+1
    # terms of the long one changes the last bits, and 1 - head amplifies them
    head = float(np.convolve(bg[: t + 1], bs[: t + 1])[: t + 1].sum())
    complement = 1.0 - head
    if complement > 1e-12:
        return min(max(complement, direct), 1.0)
    return min(direct, 1.0)


def bprime_approx_binomial(g: float, s: float, m: int,
                           gamma: float, eps: float) -> float:
    """First closed-form approximation: fold memory into an effective gate rate."""
    if g <= 0:
        return binom_pmf(s, m, eps)
    return binom_pmf(g, m, gamma + s * eps / g)


def bprime_approx_powerlaw(g: float, s: float, m: int,
                           gamma: float, eps: float) -> float:
    """Order-of-magnitude form ((g gamma + s eps) / (m/e))^m."""
    if m == 0:
        return 1.0
    return ((g * gamma + s * eps) * math.e / m) ** m


# ---------------------------------------------------------------------------
# model pieces
# ---------------------------------------------------------------------------

def preparation_stats(code: CodeParams, noise: NoiseParams) -> dict:
    """Verified-ancilla quality: {"p_za": ..., "alpha": ..., "usable": ...}.

    p_za is the probability a verified ancilla carries at least one
    syndrome-corrupting error; alpha the fraction of prepared ancillas that
    pass verification (linearized, clamped to [0, 1]).
    """
    g2, g1, gm, gp = noise.gamma2, noise.gamma1, noise.gamma_m, noise.gamma_p
    eps, t_m = noise.eps, noise.t_m
    n = code.n
    mem_count = 0.5 * code.N_h + t_m * n
    if g2 > 0.0:
        gate_count = 0.5 * code.N_GV + n * (1.0 + g1 / g2 + gm / g2)
        log_keep = gate_count * math.log1p(-2.0 * g2 / 3.0)
    else:
        # limit form: the gamma1/gamma2 ratios cancel against the rate
        log_keep = -(2.0 / 3.0) * n * (g1 + gm)
    if eps > 0.0:
        log_keep += mem_count * math.log1p(-2.0 * eps / 3.0)
    p_za = 1.0 - math.exp(log_keep)
    alpha = 1.0 - (2.0 / 3.0) * (code.N_GV * g2 + n * gp + code.N_h * eps)
    usable = alpha > 0.0
    return {"p_za": min(max(p_za, 0.0), 1.0),
            "alpha": min(max(alpha, 0.0), 1.0),
            "usable": usable}


def _g_count(code: CodeParams, consts: AnalyticConstants,
             r_x: float, r_z: float) -> float:
    return code.n * (1.0 + r_x + (1.0 + consts.mu * code.t) * r_z)


def _s_count(code: CodeParams, noise: NoiseParams, consts: AnalyticConstants,
             t_r: float, r_z: float, rest_scale: float = 1.0) -> float:
    return code.n * (rest_scale * t_r + (consts.nu * code.t + noise.t_m) * r_z)


def exposure_counts(code: CodeParams, noise: NoiseParams, pp: ProtocolParams,
                    alpha: float, beta: float, r_x: float, r_z: float,
                    consts: AnalyticConstants = DEFAULT_CONSTANTS,
                    rest_scale: float = 1.0) -> dict:
    """Failure-location counts {"g", "s", "t_r"} for a recovery with r_x
    X-type and r_z Z-type extractions."""
    t_r = resting_time(code.w, noise.t_m, pp, alpha, beta)
    return {
        "g": _g_count(code, consts, r_x, r_z),
        "s": _s_count(code, noise, consts, t_r, r_z, rest_scale),
        "t_r": t_r,
    }


def solve_beta(code: CodeParams, noise: NoiseParams, pp: ProtocolParams,
               consts: AnalyticConstants = DEFAULT_CONSTANTS,
               rest_scale: float = 1.0) -> tuple[float, float]:
    """Fixed point of the zero-syndrome fraction; returns (beta, p_0)."""
    prep = preparation_stats(code, noise)
    p_za, alpha = prep["p_za"], prep["alpha"]
    if not prep["usable"] and pp.parallel_corrections is None:
        # the resting time diverges: no verified ancillas to couple
        return 0.0, 0.0
    g2_eff = 2.0 * noise.gamma2 / 3.0
    eps_eff = 2.0 * noise.eps / 3.0
    beta = 0.5
    p0 = 0.0
    for _ in range(_BETA_MAX_ITER):
        t_r = resting_time(code.w, noise.t_m, pp, alpha, beta)
        g11 = _g_count(code, consts, 1, 1)
        g1r = _g_count(code, consts, 1, pp.r)
        s1 = _s_count(code, noise, consts, t_r, 1, rest_scale)
        sr = _s_count(code, noise, consts, t_r, pp.r, rest_scale)
        p0 = (beta * bprime(g11, s1, 0, g2_eff, eps_eff)
              + (1.0 - beta) * bprime(g1r, sr, 0, g2_eff, eps_eff))
        beta_new = p0 * (1.0 - p_za)
        if abs(beta_new - beta) < _BETA_TOL:
            return beta_new, p0
        beta = beta_new
    return beta, p0


@dataclass
class EstimateBreakdown:
    """Every intermediate of the crash-probability model."""
    p_za: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    p_0: float = 0.0
    t_r: float = 0.0
    g_1_1: float = 0.0
    g_1_r: float = 0.0
    g_r_1: float = 0.0
    g_r_r: float = 0.0
    s_1: float = 0.0
    s_r: float = 0.0
    p1_single: float = 0.0        # uncorrectable-error prob, one extraction
    p1_multi: float = 0.0         # same with r extractions
    p_agree_1: float = 0.0
    p_agree_later: float = 0.0
    p_ws: float = 0.0             # matched wrong-syndrome acceptance
    r_bar: float = 0.0            # mean extractions per recovery
    deferred_sum: float = 0.0     # crash weight of deferred recoveries
    pbar: float = 0.0
    usable: bool = True
    branch_leak: float = 0.0      # never-accepted probability mass left over

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "p_za", "alpha", "beta", "p_0", "t_r",
            "g_1_1", "g_1_r", "g_r_1", "g_r_r", "s_1", "s_r",
            "p1_single", "p1_multi", "p_agree_1", "p_agree_later",
            "p_ws", "r_bar", "deferred_sum", "pbar", "usable")}


def crash_estimate(code: CodeParams, noise: NoiseParams, pp: ProtocolParams,
                   consts: AnalyticConstants = DEFAULT_CONSTANTS,
                   rest_scale: float = 1.0,
                   tail_model=None) -> EstimateBreakdown:
    """Full model evaluation; ``rest_scale`` rescales the data resting term
    (used by the concatenation treatments), ``tail_model`` optionally swaps
    the flat weight tail for a callable (g, s, gamma_eff, eps_eff) -> prob.
    """
    if pp.r_prime > pp.r + pp.r_dprime:
        raise ProtocolError("r' exceeds the r + r'' syndrome pool")
    base, tail = _per_r_terms(code, noise, pp, consts, rest_scale, tail_model)
    return _finish_estimate(base, tail, code, noise, pp, consts, rest_scale)


def _per_r_terms(code: CodeParams, noise: NoiseParams, pp: ProtocolParams,
                 consts: AnalyticConstants, rest_scale: float, tail_model):
    """The terms of ``crash_estimate`` that do not depend on r' or r'':
    a breakdown filled in up to ``p1_multi``, and the tail it used (None
    when the block is unusable and the breakdown is final)."""
    out = EstimateBreakdown()

    prep = preparation_stats(code, noise)
    out.p_za, out.alpha = prep["p_za"], prep["alpha"]
    # pinned parallel-correction provisioning fixes the resting time without
    # reference to alpha, so the estimate stays defined past the clamp
    out.usable = prep["usable"] or pp.parallel_corrections is not None
    if not out.usable:
        out.pbar = 1.0
        out.beta = 0.0
        return out, None

    beta, p0 = solve_beta(code, noise, pp, consts, rest_scale)
    out.beta, out.p_0 = beta, p0
    out.t_r = resting_time(code.w, noise.t_m, pp, out.alpha, beta)

    g2_eff = 2.0 * noise.gamma2 / 3.0
    eps_eff = 2.0 * noise.eps / 3.0
    r, n, t = pp.r, code.n, code.t

    out.g_1_1 = _g_count(code, consts, 1, 1)
    out.g_1_r = _g_count(code, consts, 1, r)
    out.g_r_1 = _g_count(code, consts, r, 1)
    out.g_r_r = _g_count(code, consts, r, r)
    out.s_1 = _s_count(code, noise, consts, out.t_r, 1, rest_scale)
    out.s_r = _s_count(code, noise, consts, out.t_r, r, rest_scale)

    if tail_model is None:
        def tail(g: float, s: float) -> float:
            return uncorrectable_tail(g, s, t, n, g2_eff, eps_eff)
    else:
        def tail(g: float, s: float) -> float:
            return tail_model(g, s, g2_eff, eps_eff)

    def p1(r_x: float) -> float:
        g_a = _g_count(code, consts, r_x, 1)
        g_b = _g_count(code, consts, r_x, r)
        return (beta * tail(g_a, out.s_1) + (1.0 - beta) * tail(g_b, out.s_r))

    out.p1_single = p1(1)
    out.p1_multi = p1(r)
    return out, tail


def _finish_estimate(base: EstimateBreakdown, tail, code: CodeParams,
                     noise: NoiseParams, pp: ProtocolParams,
                     consts: AnalyticConstants,
                     rest_scale: float) -> EstimateBreakdown:
    """Complete a copy of ``_per_r_terms``' breakdown for the r' and r''
    of ``pp``: agreement, wrong-syndrome acceptance, deferred rounds, pbar."""
    out = copy.copy(base)
    if not out.usable:
        return out
    beta = out.beta
    r, rp, rpp = pp.r, pp.r_prime, pp.r_dprime

    good = 1.0 - out.p_za
    out.p_agree_1 = sum(binom_pmf(r, m, good) for m in range(rp, r + 1))
    out.p_agree_later = sum(binom_pmf(r + rpp, m, good)
                            for m in range(rp, r + rpp + 1))
    out.p_ws = (code.N_GV * (noise.gamma2 / 3.0) ** rp
                + code.N_h * (noise.eps / 3.0) ** rp)
    out.r_bar = beta + (1.0 - beta) * (out.p_agree_1 * r
                                       + (1.0 - out.p_agree_1) * rpp)

    # domain check: the branch enumeration assumes recoveries settle on a
    # syndrome within the summation horizon; when a finite fraction of the
    # probability mass never accepts, every crash channel is starved and
    # the estimate loses meaning, so report the block as uncorrected
    out.branch_leak = ((1.0 - out.p_agree_1)
                       * (1.0 - out.p_agree_later) ** (_S_MAX_TERMS - 1))
    if out.branch_leak > _S_TRUNCATION_REL:
        out.pbar = 1.0
        return out

    # deferred recoveries: first attempt found no consistent syndrome
    s_sum = 0.0
    prefix = 1.0 - out.p_agree_1
    for j in range(2, _S_MAX_TERMS + 1):
        rz = j * out.r_bar
        g_j = _g_count(code, consts, r + (j - 1) * rpp, rz)
        s_j = _s_count(code, noise, consts, out.t_r, rz, rest_scale)
        p_j = tail(g_j, s_j)
        term = prefix * out.p_agree_later * (out.p_ws + (1.0 - out.p_ws) * p_j) / j
        s_sum += term
        prefix *= (1.0 - out.p_agree_later)
        if j > 2 and (term < _S_TRUNCATION_REL * s_sum or prefix < _S_TRUNCATION_REL):
            break
    out.deferred_sum = s_sum

    pbar = 2.0 * (beta * out.p1_single
                  + (1.0 - beta) * (out.p_agree_1
                                    * (out.p_ws + (1.0 - out.p_ws) * out.p1_multi)
                                    + s_sum))
    out.pbar = min(max(pbar, 0.0), 1.0)
    return out


def optimize_protocol(code: CodeParams, noise: NoiseParams,
                      r_values=range(1, 7), rp_values=None, rpp_values=None,
                      n_rep: float = 1.0,
                      parallel_corrections: Optional[float] = None,
                      consts: AnalyticConstants = DEFAULT_CONSTANTS,
                      rest_scale: float = 1.0,
                      constraint=None,
                      tail_model=None) -> tuple[ProtocolParams, float]:
    """Exhaustive grid minimization of pbar over (r, r', r'').

    Ties break toward smaller (r, r', r'').  ``constraint`` optionally
    filters triples, e.g. the catalog's r-1 = r' = r''+1 family.  The
    terms that depend on r alone are computed once per r.
    """
    best = None
    best_p = None
    for r in r_values:
        per_r = None
        rps = rp_values if rp_values is not None else range(1, r + 1)
        rpps = rpp_values if rpp_values is not None else range(1, r + 1)
        for rp in rps:
            if rp > r:
                continue
            for rpp in rpps:
                if rpp > r:
                    continue
                if constraint is not None and not constraint(r, rp, rpp):
                    continue
                pp = ProtocolParams(r=r, r_prime=rp, r_dprime=rpp, n_rep=n_rep,
                                    parallel_corrections=parallel_corrections)
                if per_r is None:
                    per_r = _per_r_terms(code, noise, pp, consts, rest_scale,
                                         tail_model)
                est = _finish_estimate(*per_r, code, noise, pp, consts,
                                       rest_scale)
                key = (est.pbar, r, rp, rpp)
                if best_p is None or key < best_p:
                    best_p = key
                    best = pp
    if best is None:
        raise ProtocolError("empty protocol grid")
    return best, best_p[0]


# ---------------------------------------------------------------------------
# model-curve emission (the Monte-Carlo comparison grid)
# ---------------------------------------------------------------------------

def model_curves(gammas=None) -> list[dict]:
    """pbar over the standard comparison grid, as CSV-ready dicts."""
    from .codes import params_from_catalog
    if gammas is None:
        gammas = np.logspace(-4, -2, 13)
    runs = [
        ("hamming", ProtocolParams(2, 2, 2, parallel_corrections=1.0)),
        ("golay", ProtocolParams(4, 3, 3, parallel_corrections=1.0)),
        ("golay", ProtocolParams(3, 2, 2, parallel_corrections=1.0)),
    ]
    rows = []
    for name, pp in runs:
        code = params_from_catalog(name)
        for ratio in (1.0, 0.1, 0.01):
            for t_m in (1, 25):
                for gamma in gammas:
                    noise = NoiseParams.uniform(float(gamma),
                                                float(gamma) * ratio, t_m)
                    est = crash_estimate(code, noise, pp)
                    rows.append({
                        "code": name, "gamma": float(gamma),
                        "eps_over_gamma": ratio, "t_m": t_m,
                        "r": pp.r, "r_prime": pp.r_prime,
                        "r_dprime": pp.r_dprime, "pbar": est.pbar,
                    })
    return rows
