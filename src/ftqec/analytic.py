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
recovery.  Two dimensionless constants, ``MU`` and ``NU``, fitted once
against the Monte-Carlo results, absorb the details of which late
verification failures escape detection.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .codes import CodeParams
from .noise import NoiseParams
from .protocol import ProtocolError, ProtocolParams, resting_time


# fitted escape-counting constants: the late verification failures that
# escape detection add MU * t gate and NU * t memory locations per data
# qubit to every Z-type extraction (``_g_count``, ``_s_count``)
MU = 0.35
NU = 1.0

_S_TRUNCATION_REL = 1e-3
_S_MAX_TERMS = 200
_BETA_TOL = 1e-12
_BETA_MAX_ITER = 200
# deferred rounds whose series one _binom_rows pass draws: most finished
# triples stop at j = 3, and a series drawn past the stop costs no convolution
_DEFERRED_BLOCK = 4


# ---------------------------------------------------------------------------
# binomial building blocks (real-valued trial counts allowed)
# ---------------------------------------------------------------------------

def gammaln(x):
    """log|Gamma(x)|: ``scipy.special.gammaln``, which replaces this function
    as the module global on its first call.  Importing scipy costs more than
    the rest of the package's import, and the Monte-Carlo path never
    evaluates a binomial, so only the model routes pay for it."""
    global gammaln
    from scipy.special import gammaln
    return gammaln(x)


def binom_pmf(n: float, m: int, p: float) -> float:
    """C(n, m) p^m (1-p)^(n-m) with the gamma-function generalization of
    C(n, m) so fractional location counts are usable."""
    if m < 0 or m > n:
        return 0.0
    if p <= 0.0:
        return 1.0 if m == 0 else 0.0
    if p >= 1.0:
        return 1.0 if abs(n - m) < 1e-12 else 0.0
    return float(math.exp(_log_comb(n, m) + m * math.log(p) + (n - m) * math.log1p(-p)))


@functools.lru_cache(maxsize=1024)
def _log_comb(n: float, m: int) -> float:
    """log C(n, m) for ``binom_pmf``: the agreement rows ask for the same
    integer pools at every noise level."""
    return gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)


def _binom_rows(ns, m_max: int, p: float) -> np.ndarray:
    """binom_pmf(n, m, p) for m = 0..m_max, one row per count n in ``ns``,
    as one vectorized evaluation at the one rate p."""
    n = np.asarray(ns, dtype=np.float64).reshape(-1, 1)
    m = np.arange(m_max + 1, dtype=np.float64)
    if p <= 0.0:
        out = np.zeros((len(n), m_max + 1))
        out[:, 0] = 1.0
        return out
    if p >= 1.0:
        out = np.zeros((len(n), m_max + 1))
        for row, count in zip(out, n[:, 0]):
            idx = int(round(count))
            if 0 <= idx <= m_max:
                row[idx] = 1.0
        return out
    log_c = gammaln(n + 1.0) - gammaln(m + 1.0) - gammaln(n - m + 1.0)
    logs = log_c + m * math.log(p) + (n - m) * math.log1p(-p)
    if len(n) == 0 or n.min() >= m_max:   # every order is reachable: nothing to mask
        return np.exp(logs)
    valid = m <= n
    return np.where(valid, np.exp(np.where(valid, logs, 0.0)), 0.0)


def _binom_series(n: float, m_max: int, p: float) -> np.ndarray:
    """binom_pmf(n, m, p) for m = 0..m_max: the one-row ``_binom_rows``."""
    return _binom_rows([n], m_max, p)[0]


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


def uncorrectable_tail(gs, ss, t: int, n: int,
                       gamma: float, eps: float) -> list[float]:
    """Probability of an uncorrectable accumulation, more than t failures,
    for each pair of gate and memory counts of the equal-length sequences
    ``gs`` and ``ss``: the gate series of every pair come from one
    ``_binom_rows`` pass at rate gamma, the memory series from one at eps,
    and each pair's tail from its own two rows (``_tail_of_series``).

    The direct sum over m = t+1..n is numerically exact when the expected
    failure count is small, where essentially no mass sits beyond n.  When
    failures saturate the block the direct sum loses that mass, so the
    complement 1 - sum_{m<=t} takes over; it is only trusted well above the
    double-precision cancellation floor.
    """
    return [_tail_of_series(bg, bs, t) for bg, bs in
            zip(_binom_rows(gs, n, gamma), _binom_rows(ss, n, eps), strict=True)]


def _tail_of_series(bg: np.ndarray, bs: np.ndarray, t: int) -> float:
    """One tail of ``uncorrectable_tail`` from the gate and memory failure
    series over m = 0..n."""
    n = len(bg) - 1
    direct = float(np.convolve(bg, bs)[: n + 1][t + 1:].sum())
    # the head comes from its own short convolution: summing the first t+1
    # terms of the long one changes the last bits, and 1 - head amplifies them
    head = float(np.convolve(bg[: t + 1], bs[: t + 1])[: t + 1].sum())
    complement = 1.0 - head
    if complement > 1e-12:
        return min(max(complement, direct), 1.0)
    return min(direct, 1.0)


# ---------------------------------------------------------------------------
# model pieces
# ---------------------------------------------------------------------------

def preparation_stats(code: CodeParams, noise: NoiseParams) -> dict:
    """Verified-ancilla quality: {"p_za": ..., "alpha": ..., "usable": ...}.

    p_za is the probability a verified ancilla carries at least one
    syndrome-corrupting error; alpha the fraction of prepared ancillas that
    pass verification (linearized, clamped to [0, 1]).  Every operation
    fails at the one gate rate gamma: p_za counts half the N_GV preparation
    and verification gates plus 3 n coupling, Hadamard and measurement
    locations at 2 gamma / 3, and the resting slots at 2 eps / 3.
    """
    gamma, eps, t_m = noise.gamma, noise.eps, noise.t_m
    n = code.n
    mem_count = 0.5 * code.N_h + t_m * n
    gate_count = 0.5 * code.N_GV + 3 * n
    log_keep = gate_count * math.log1p(-2.0 * gamma / 3.0)
    if eps > 0.0:
        log_keep += mem_count * math.log1p(-2.0 * eps / 3.0)
    p_za = 1.0 - math.exp(log_keep)
    alpha = 1.0 - (2.0 / 3.0) * (code.N_GV * gamma + n * gamma + code.N_h * eps)
    usable = alpha > 0.0
    return {"p_za": min(max(p_za, 0.0), 1.0),
            "alpha": min(max(alpha, 0.0), 1.0),
            "usable": usable}


def _g_count(code: CodeParams, r_x: float, r_z: float) -> float:
    return code.n * (1.0 + r_x + (1.0 + MU * code.t) * r_z)


def _s_count(code: CodeParams, noise: NoiseParams,
             t_r: float, r_z: float, rest_scale: float = 1.0) -> float:
    return code.n * (rest_scale * t_r + (NU * code.t + noise.t_m) * r_z)


def solve_beta(code: CodeParams, noise: NoiseParams, pp: ProtocolParams,
               rest_scale: float = 1.0) -> tuple[float, float]:
    """Fixed point of the zero-syndrome fraction; returns (beta, p_0)."""
    prep = preparation_stats(code, noise)
    p_za, alpha = prep["p_za"], prep["alpha"]
    if not prep["usable"] and pp.parallel_corrections is None:
        # the resting time diverges: no verified ancillas to couple
        return 0.0, 0.0
    gamma_eff = 2.0 * noise.gamma / 3.0
    eps_eff = 2.0 * noise.eps / 3.0
    g11 = _g_count(code, 1, 1)
    g1r = _g_count(code, 1, pp.r)
    beta = 0.5
    p0 = 0.0
    for _ in range(_BETA_MAX_ITER):
        t_r = resting_time(code.w, noise.t_m, pp, alpha, beta)
        s1 = _s_count(code, noise, t_r, 1, rest_scale)
        sr = _s_count(code, noise, t_r, pp.r, rest_scale)
        p0 = (beta * bprime(g11, s1, 0, gamma_eff, eps_eff)
              + (1.0 - beta) * bprime(g1r, sr, 0, gamma_eff, eps_eff))
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
        """Every field but ``branch_leak``, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "branch_leak"}


def crash_estimate(code: CodeParams, noise: NoiseParams, pp: ProtocolParams,
                   rest_scale: float = 1.0) -> EstimateBreakdown:
    """Full model evaluation; ``rest_scale`` rescales the data resting term
    (used by the level-recursive concatenation)."""
    if pp.r_prime > pp.r + pp.r_dprime:
        raise ProtocolError("r' exceeds the r + r'' syndrome pool")
    base, = _per_r_terms(code, noise, [pp], rest_scale)
    triple = (pp.r, pp.r_prime, pp.r_dprime)
    agree, p_ws = _agreement(code, noise, base.p_za, [triple])
    return _finish_estimate(base, _floor_terms(base, *triple, agree, p_ws),
                            code, noise, pp, rest_scale)


def _per_r_terms(code: CodeParams, noise: NoiseParams, pps,
                 rest_scale: float) -> list[EstimateBreakdown]:
    """The terms of ``crash_estimate`` that do not depend on r' or r'', for
    each protocol of ``pps`` (a grid passes one per r): breakdowns filled in
    up to ``p1_multi`` (final when the block is unusable).  The four p1
    tails of every protocol come from one ``uncorrectable_tail`` call, so
    the grid's gate series are one 2-D ``_binom_rows`` pass and its memory
    series another."""
    prep = preparation_stats(code, noise)
    outs = []
    for pp in pps:
        # pinned parallel-correction provisioning fixes the resting time
        # without reference to alpha, so the estimate stays defined past the
        # clamp
        out = EstimateBreakdown(
            p_za=prep["p_za"], alpha=prep["alpha"],
            usable=prep["usable"] or pp.parallel_corrections is not None)
        outs.append(out)
        if not out.usable:
            out.pbar = 1.0
            continue
        out.beta, out.p_0 = solve_beta(code, noise, pp, rest_scale)
        out.t_r = resting_time(code.w, noise.t_m, pp, out.alpha, out.beta)
        out.g_1_1 = _g_count(code, 1, 1)
        out.g_1_r = _g_count(code, 1, pp.r)
        out.g_r_1 = _g_count(code, pp.r, 1)
        out.g_r_r = _g_count(code, pp.r, pp.r)
        out.s_1 = _s_count(code, noise, out.t_r, 1, rest_scale)
        out.s_r = _s_count(code, noise, out.t_r, pp.r, rest_scale)

    # p1 at r_x extractions: beta * tail(g_{r_x,1}, s_1)
    # + (1 - beta) * tail(g_{r_x,r}, s_r), for r_x = 1 (single) and r (multi)
    live = [out for out in outs if out.usable]
    tails = uncorrectable_tail(
        [g for out in live for g in (out.g_1_1, out.g_1_r, out.g_r_1, out.g_r_r)],
        [s for out in live for s in (out.s_1, out.s_r, out.s_1, out.s_r)],
        code.t, code.n, 2.0 * noise.gamma / 3.0, 2.0 * noise.eps / 3.0)
    for i, out in enumerate(live):
        single_1, single_r, multi_1, multi_r = tails[4 * i: 4 * i + 4]
        out.p1_single = out.beta * single_1 + (1.0 - out.beta) * single_r
        out.p1_multi = out.beta * multi_1 + (1.0 - out.beta) * multi_r
    return outs


def _agreement(code: CodeParams, noise: NoiseParams, p_za: float,
               triples) -> tuple[dict, dict]:
    """What the (r, r', r'') ``triples`` of a grid share: the agreement sums
    sum_{m >= r'} binom_pmf(N, m, 1 - p_za) keyed by (N, r') for the pools
    N = r and r + r'', and the wrong-syndrome acceptance p_ws keyed by r'.
    Neither depends on the rest of the triple, and p_za on none of it."""
    good = 1.0 - p_za
    keys = {(pool, rp) for r, rp, rpp in triples for pool in (r, r + rpp)}
    rows = {pool: [binom_pmf(pool, m, good) for m in range(pool + 1)]
            for pool in {pool for pool, _ in keys}}
    sums = {(pool, rp): sum(rows[pool][rp:]) for pool, rp in keys}
    p_ws = {rp: code.N_GV * (noise.gamma / 3.0) ** rp + code.N_h * (noise.eps / 3.0) ** rp
            for rp in {rp for _, rp in keys}}
    return sums, p_ws


def _pbar(base: EstimateBreakdown, p_agree_1: float, p_ws: float,
          s_sum: float) -> float:
    """The crash probability from the branch terms and the deferred sum."""
    beta = base.beta
    pbar = 2.0 * (beta * base.p1_single
                  + (1.0 - beta) * (p_agree_1
                                    * (p_ws + (1.0 - p_ws) * base.p1_multi)
                                    + s_sum))
    return min(max(pbar, 0.0), 1.0)


def _floor_terms(base: EstimateBreakdown, r: int, rp: int, rpp: int,
                 agree: dict, ws: dict) -> dict:
    """The fields that r' and r'' add to ``_per_r_terms``' breakdown for r
    before the deferred rounds: agreement, wrong-syndrome acceptance,
    r_bar, the branch leak and pbar (none for an unusable block, whose pbar
    is final).  ``agree`` and ``ws`` are ``_agreement``'s sums and p_ws.
    That pbar is final when the block leaks; otherwise it is the floor
    ``_pbar(..., 0.0)``, which ``_finish_estimate`` replaces."""
    if not base.usable:
        return {}
    beta = base.beta
    p_agree_1 = agree[r, rp]
    p_agree_later = agree[r + rpp, rp]
    p_ws = ws[rp]
    r_bar = beta + (1.0 - beta) * (p_agree_1 * r + (1.0 - p_agree_1) * rpp)

    # domain check: the branch enumeration assumes recoveries settle on a
    # syndrome within the summation horizon; when a finite fraction of the
    # probability mass never accepts, every crash channel is starved and
    # the estimate loses meaning, so report the block as uncorrected
    branch_leak = (1.0 - p_agree_1) * (1.0 - p_agree_later) ** (_S_MAX_TERMS - 1)
    pbar = 1.0 if branch_leak > _S_TRUNCATION_REL else _pbar(base, p_agree_1, p_ws, 0.0)
    return {"p_agree_1": p_agree_1, "p_agree_later": p_agree_later, "p_ws": p_ws,
            "r_bar": r_bar, "branch_leak": branch_leak, "pbar": pbar}


def _finish_estimate(base: EstimateBreakdown, terms: dict,
                     code: CodeParams, noise: NoiseParams, pp: ProtocolParams,
                     rest_scale: float) -> EstimateBreakdown:
    """A copy of ``_per_r_terms``' breakdown with ``_floor_terms``' fields,
    the deferred rounds and the final pbar."""
    out = replace(base, **terms)
    if not out.usable or out.branch_leak > _S_TRUNCATION_REL:
        return out

    # deferred recoveries: first attempt found no consistent syndrome
    s_sum = 0.0
    prefix = 1.0 - out.p_agree_1
    for j, p_j in _deferred_tails(out, code, noise, pp, rest_scale):
        term = prefix * out.p_agree_later * (out.p_ws + (1.0 - out.p_ws) * p_j) / j
        s_sum += term
        prefix *= (1.0 - out.p_agree_later)
        if j > 2 and (term < _S_TRUNCATION_REL * s_sum or prefix < _S_TRUNCATION_REL):
            break
    out.deferred_sum = s_sum
    out.pbar = _pbar(out, out.p_agree_1, out.p_ws, s_sum)
    return out


def _deferred_tails(out: EstimateBreakdown, code: CodeParams,
                    noise: NoiseParams, pp: ProtocolParams, rest_scale: float):
    """(j, p_j) for the deferred rounds j = 2.._S_MAX_TERMS, where p_j is
    the uncorrectable tail after j rounds of r_bar extractions.  The series
    are drawn _DEFERRED_BLOCK rounds to one ``_binom_rows`` pass per rate,
    but a round's tail is convolved only once the sum asks for it."""
    gamma_eff = 2.0 * noise.gamma / 3.0
    eps_eff = 2.0 * noise.eps / 3.0
    for first in range(2, _S_MAX_TERMS + 1, _DEFERRED_BLOCK):
        js = range(first, min(first + _DEFERRED_BLOCK, _S_MAX_TERMS + 1))
        rz = [j * out.r_bar for j in js]
        gs = [_g_count(code, pp.r + (j - 1) * pp.r_dprime, z) for j, z in zip(js, rz)]
        ss = [_s_count(code, noise, out.t_r, z, rest_scale) for z in rz]
        for j, bg, bs in zip(js, _binom_rows(gs, code.n, gamma_eff),
                             _binom_rows(ss, code.n, eps_eff)):
            yield j, _tail_of_series(bg, bs, code.t)


def _floor_holds(base: EstimateBreakdown, terms: dict) -> bool:
    """Whether ``_finish_estimate`` cannot lower the floor pbar of
    ``terms``.

    Every deferred term is a product of 1 - p_agree_1, powers of
    1 - p_agree_later and factors that are never negative, and ``_pbar``
    is non-decreasing in the deferred sum while 1 - beta >= 0, since float
    rounding is monotone.  Rounding can push a sum of agreement
    probabilities above 1; a term may then be negative and the floor is
    not a bound.
    """
    return (base.beta <= 1.0 and terms.get("p_agree_1", 0.0) <= 1.0
            and terms.get("p_agree_later", 0.0) <= 1.0)


def optimize_protocol(code: CodeParams, noise: NoiseParams,
                      r_values=range(1, 7), n_rep: float = 1.0,
                      parallel_corrections: Optional[float] = None,
                      rest_scale: float = 1.0,
                      constraint=None) -> tuple[ProtocolParams, float]:
    """Minimize pbar over the grid of r in ``r_values`` and 1 <= r', r'' <= r
    by an exact bounded search.

    Returns the triple of least (pbar, r, r', r''), so ties break toward
    smaller (r, r', r'').  ``constraint`` optionally filters triples, e.g.
    the catalog's r-1 = r' = r''+1 family.  The grid is kept as (r, r', r'')
    ints; a ``ProtocolParams`` is built only for one representative per r
    and for the triples that get finished.  What depends on r alone is
    computed once per r, and ``_per_r_terms`` evaluates the binomial series
    of every r together, one 2-D pass per rate; the agreement sums (per
    pool and r') and p_ws (per r') are computed once per grid.

    Every triple first gets a floor: the pbar its branch terms give with
    no deferred rounds (``_floor_terms``).  The deferred rounds add only
    non-negative terms, and ``_pbar``, the one expression that gives both
    the floor and the final pbar, is non-decreasing in their sum under
    float rounding, so the finished pbar is never below the floor
    (``_floor_holds`` names the rounding cases where that fails; those
    triples are always finished).
    Triples are finished in order of (floor, r, r', r''), and the search
    stops at the first floor key above the best key found: no later triple
    can beat it.  The answer is bit for bit that of finishing every triple.
    """
    triples = [(r, rp, rpp) for r in r_values for rp in range(1, r + 1)
               for rpp in range(1, r + 1)
               if constraint is None or constraint(r, rp, rpp)]
    if not triples:
        raise ProtocolError("empty protocol grid")

    def protocol(r: int, rp: int, rpp: int) -> ProtocolParams:
        return ProtocolParams(r=r, r_prime=rp, r_dprime=rpp, n_rep=n_rep,
                              parallel_corrections=parallel_corrections)

    reps = {}
    for triple in triples:
        reps.setdefault(triple[0], triple)
    per_r = dict(zip(reps, _per_r_terms(
        code, noise, [protocol(*triple) for triple in reps.values()], rest_scale)))
    agree, ws = _agreement(code, noise, per_r[triples[0][0]].p_za, triples)
    queue = []
    for r, rp, rpp in triples:
        base = per_r[r]
        terms = _floor_terms(base, r, rp, rpp, agree, ws)
        floor = terms.get("pbar", base.pbar) if _floor_holds(base, terms) else -math.inf
        queue.append(((floor, r, rp, rpp), terms))
    queue.sort(key=lambda item: item[0])

    best_key = best = None
    for floor_key, terms in queue:
        if best_key is not None and floor_key > best_key:
            break
        pp = protocol(*floor_key[1:])
        est = _finish_estimate(per_r[pp.r], terms, code, noise, pp, rest_scale)
        key = (est.pbar, *floor_key[1:])
        if best_key is None or key < best_key:
            best_key, best = key, pp
    return best, best_key[0]


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
                    noise = NoiseParams(float(gamma), float(gamma) * ratio, t_m)
                    est = crash_estimate(code, noise, pp)
                    rows.append({
                        "code": name, "gamma": float(gamma),
                        "eps_over_gamma": ratio, "t_m": t_m,
                        "r": pp.r, "r_prime": pp.r_prime,
                        "r_dprime": pp.r_dprime, "pbar": est.pbar,
                    })
    return rows
