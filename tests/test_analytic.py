import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftqec import analytic, codes, concat, sweep
from ftqec.analytic import (binom_pmf, bprime, crash_estimate, model_curves,
                            optimize_protocol, preparation_stats, solve_beta)
from ftqec.noise import NoiseParams
from ftqec.simulator import ProtocolParams, ProtocolError

WORKED_CODE = codes.params_from_catalog("bch127-43")
WORKED_NOISE = NoiseParams(1e-4, 1e-6, t_m=25)
WORKED_PP = ProtocolParams(5, 4, 3, n_rep=2.5)


# -- binomial building blocks -------------------------------------------------

def test_binom_trivial_cases():
    assert binom_pmf(5, 0, 0.0) == 1.0
    assert binom_pmf(2, 1, 0.5) == pytest.approx(0.5, rel=1e-12)
    assert binom_pmf(7, 0, 0.1) == pytest.approx(0.4782969, rel=1e-9)
    assert binom_pmf(3, 5, 0.2) == 0.0


def test_binom_real_count():
    # gamma-function generalization interpolates between integer counts
    lo, mid, hi = binom_pmf(10, 2, 0.1), binom_pmf(10.5, 2, 0.1), binom_pmf(11, 2, 0.1)
    assert lo < mid < hi or lo > mid > hi


def test_bprime_zero_order():
    g, s, gamma, eps = 12.0, 30.0, 0.01, 0.002
    expected = (1 - gamma) ** 12 * (1 - eps) ** 30
    assert bprime(g, s, 0, gamma, eps) == pytest.approx(expected, rel=1e-12)


def test_bprime_enumeration_example():
    # 2 gate + 1 memory location at rate 1/2: exactly one failure has
    # probability 3/8 (enumerate the 8 outcomes)
    assert bprime(2, 1, 1, 0.5, 0.5) == pytest.approx(0.375, rel=1e-12)


def test_bprime_matches_integer_enumeration():
    # oracle: exact binomials from integer combinatorics (math.comb)
    for g in range(0, 51, 10):
        for s in range(0, 51, 10):
            for m in range(0, 7):
                for gamma, eps in ((0.01, 0.003), (1e-4, 1e-5)):
                    want = 0.0
                    for j in range(m + 1):
                        if j <= g and m - j <= s:
                            want += (math.comb(g, j) * gamma ** j
                                     * (1 - gamma) ** (g - j)
                                     * math.comb(s, m - j) * eps ** (m - j)
                                     * (1 - eps) ** (s - m + j))
                    got = bprime(float(g), float(s), m, gamma, eps)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_bprime_zero_order_closed_form_is_exact():
    # the closed form returns the very float of the m = 0 series product
    vals = (0.0, 1.0, 12.5, 300.0, 4000.0, 50000.0)
    rates = (0.0, 1e-6, 1e-3, 0.2, 0.9)
    for g in vals:
        for s in vals:
            for gamma in rates:
                for eps in rates:
                    want = float(np.dot(analytic._binom_series(g, 0, gamma),
                                        analytic._binom_series(s, 0, eps)[::-1]))
                    assert bprime(g, s, 0, gamma, eps) == want


def _series_as_written(n, m_max, p):
    """The one-count binomial series as first written, before the rows of a
    grid were evaluated together: the reference for ``_binom_rows``."""
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
    log_c = (analytic.gammaln(n + 1.0) - analytic.gammaln(m + 1.0)
             - analytic.gammaln(n - m + 1.0))
    logs = log_c + m * math.log(p) + (n - m) * math.log1p(-p)
    if m_max <= n:
        return np.exp(logs)
    valid = m <= n
    return np.where(valid, np.exp(np.where(valid, logs, 0.0)), 0.0)


@st.composite
def _count_rows(draw):
    """(counts, m_max): free counts plus n = 0, a fractional n below m_max
    (a masked row), an n at or above m_max (an unmasked row) and a repeat."""
    m_max = draw(st.integers(0, 40))
    ns = draw(st.lists(st.one_of(st.floats(0.0, 3000.0), st.integers(0, 60).map(float)),
                       max_size=5))
    ns += [0.0, draw(st.floats(0.0, m_max)) if m_max else 0.0,
           m_max + draw(st.floats(0.0, 200.0))]
    ns.append(draw(st.sampled_from(ns)))
    return draw(st.permutations(ns)), m_max


_RATES = st.one_of(st.sampled_from([0.0, 1.0, 1.5]),
                   st.floats(1e-12, 1.0, exclude_max=True))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_count_rows(), _RATES)
def test_binom_rows_equal_one_row_series(rows, p):
    # one 2-D pass gives every row bit for bit as its own one-count series
    ns, m_max = rows
    got = analytic._binom_rows(ns, m_max, p)
    assert got.shape == (len(ns), m_max + 1)
    for n, row in zip(ns, got):
        assert row.tobytes() == _series_as_written(n, m_max, p).tobytes()
        assert row.tobytes() == analytic._binom_series(n, m_max, p).tobytes()


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_uncorrectable_tail_equals_each_pairs_own_tail(data):
    t = data.draw(st.integers(0, 7))
    n = 2 * t + 1 + data.draw(st.integers(0, 60))
    size = data.draw(st.integers(1, 6))
    counts = st.lists(st.floats(0.0, 5000.0), min_size=size, max_size=size)
    gs, ss = data.draw(counts), data.draw(counts)
    gamma, eps = data.draw(_RATES), data.draw(_RATES)
    series = analytic._binom_series
    assert analytic.uncorrectable_tail(gs, ss, t, n, gamma, eps) == [
        analytic._tail_of_series(series(g, n, gamma), series(s, n, eps), t)
        for g, s in zip(gs, ss)]


def test_uncorrectable_tail_needs_one_memory_count_per_gate_count():
    with pytest.raises(ValueError):
        analytic.uncorrectable_tail([10.0, 20.0], [5.0], 1, 7, 1e-3, 1e-4)


def _two_series_tail(g, s, t, n, gamma, eps):
    """uncorrectable_tail as first written: separate length-n and length-t
    series for the direct sum and the head."""
    series = analytic._binom_series
    direct = float(np.convolve(series(g, n, gamma),
                               series(s, n, eps))[: n + 1][t + 1:].sum())
    head = float(np.convolve(series(g, t, gamma), series(s, t, eps))[: t + 1].sum())
    complement = 1.0 - head
    if complement > 1e-12:
        return min(max(complement, direct), 1.0)
    return min(direct, 1.0)


@pytest.mark.parametrize("g_hi,rate_lo,rate_hi", [
    (3000.0, 1e-7, 1e-4),     # direct sum: little mass beyond t
    (50000.0, 1e-2, 0.3),     # complement: the block saturates
])
def test_uncorrectable_tail_matches_two_series_formula(g_hi, rate_lo, rate_hi):
    rng = np.random.default_rng(3)
    saturated = 0
    for _ in range(300):
        g, s = rng.uniform(0.0, g_hi, 2)
        gamma, eps = np.exp(rng.uniform(np.log(rate_lo), np.log(rate_hi), 2))
        t = int(rng.integers(0, 8))
        n = 2 * t + 1 + int(rng.integers(0, 120))
        got, = analytic.uncorrectable_tail([g], [s], t, n, gamma, eps)
        assert got == _two_series_tail(g, s, t, n, gamma, eps)
        saturated += got > 0.5
    assert (saturated > 150) == (g_hi > 10000.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="1 - head carries the ~1e-12 rounding of the "
                   "gammaln log-binomials at g ~ 1e3, and max() picks it")
def test_tail_is_not_rounding_noise():
    # the worked example's p1 tail at (g_r_1, s_1) = (1155.7, 22222.5);
    # the direct sum is 9.9817166810e-12, which a 50-digit evaluation of
    # the generalized binomials confirms, while 1 - head reads 1.0262e-11
    est = crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP)
    gamma, eps = 2.0 * WORKED_NOISE.gamma / 3.0, 2.0 * WORKED_NOISE.eps / 3.0
    n, t = WORKED_CODE.n, WORKED_CODE.t
    direct = float(np.convolve(analytic._binom_series(est.g_r_1, n, gamma),
                               analytic._binom_series(est.s_1, n, eps))[t + 1: n + 1].sum())
    assert abs(direct - 9.981716680997197e-12) <= 1e-9 * direct
    tail, = analytic.uncorrectable_tail([est.g_r_1], [est.s_1], t, n, gamma, eps)
    assert abs(tail - direct) <= 1e-6 * direct


# -- preparation stats --------------------------------------------------------

def test_preparation_stats_zero_noise():
    out = preparation_stats(WORKED_CODE, NoiseParams())
    assert out["p_za"] == 0.0
    assert out["alpha"] == 1.0


def test_preparation_stats_worked_example():
    out = preparation_stats(WORKED_CODE, WORKED_NOISE)
    assert 0.73 <= out["alpha"] <= 0.75
    assert 0.10 <= out["p_za"] <= 0.16


def test_alpha_clamp_flags_unusable():
    hot = NoiseParams(1e-2, 1e-2, 25)
    out = preparation_stats(WORKED_CODE, hot)
    assert out["alpha"] == 0.0
    assert not out["usable"]


# -- beta and exposure --------------------------------------------------------

def test_solve_beta_zero_noise():
    beta, p0 = solve_beta(WORKED_CODE, NoiseParams(), WORKED_PP)
    assert beta == pytest.approx(1.0)
    assert p0 == pytest.approx(1.0)


def test_solve_beta_worked_example():
    beta, _ = solve_beta(WORKED_CODE, WORKED_NOISE, WORKED_PP)
    assert 0.75 <= beta <= 0.85


def test_beta_monotone_in_eps():
    betas = []
    for eps in (1e-6, 1e-5, 1e-4):
        noise = NoiseParams(1e-4, eps, 25)
        betas.append(solve_beta(WORKED_CODE, noise, WORKED_PP)[0])
    assert betas[0] > betas[1] > betas[2]


def test_exposure_worked_example():
    # r = 5, so g_r_r and s_r are the counts of r_x = r_z = 5 extractions
    est = crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP)
    assert 138 <= est.t_r <= 148
    assert 35000 <= est.s_r <= 41000
    assert abs(est.g_r_r - 2540) <= 0.10 * 2540


# -- crash estimate -----------------------------------------------------------

def test_crash_estimate_zero_noise():
    est = crash_estimate(WORKED_CODE, NoiseParams(), WORKED_PP)
    assert est.pbar == 0.0


def test_crash_estimate_worked_example():
    est = crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP)
    assert 3e-10 / 3 <= est.pbar <= 3e-10 * 3
    assert 4e-10 / 3 <= est.p1_multi <= 4e-10 * 3
    assert 5e-15 / 2 <= est.p_ws <= 5e-15 * 2
    assert 0.75 <= est.p_agree_1 <= 0.85
    # structural sanity: the zero-first-syndrome branch is a lower bound
    assert est.pbar >= 2 * est.beta * est.p1_single * 0.999


def test_invalid_protocol_rejected():
    # r' <= r + r'' always holds under the type validation, so drive the
    # crash_estimate check directly with a synthetic object
    bad = ProtocolParams(3, 3, 3, n_rep=1.0)
    object.__setattr__(bad, "r_prime", 7)
    with pytest.raises(ProtocolError):
        crash_estimate(WORKED_CODE, WORKED_NOISE, bad)


def test_pbar_monotone_in_noise():
    base = dict(gamma=1e-4, eps=1e-6, t_m=25)
    pp = ProtocolParams(5, 4, 3, n_rep=2.5)

    def pbar(gamma, eps, t_m):
        return crash_estimate(WORKED_CODE,
                              NoiseParams(gamma, eps, t_m), pp).pbar

    p0 = pbar(**base)
    assert pbar(2e-4, 1e-6, 25) > p0
    assert pbar(1e-4, 1e-5, 25) > p0
    assert pbar(1e-4, 1e-6, 50) > p0


@pytest.mark.parametrize("name,t,pp", [
    ("hamming", 1, ProtocolParams(2, 2, 2, n_rep=2.5)),
    ("golay", 3, ProtocolParams(4, 3, 3, n_rep=2.5)),
])
def test_low_noise_power_law(name, t, pp):
    code = codes.params_from_catalog(name)
    pb = []
    for gamma in (1e-7, 1e-6):
        noise = NoiseParams(gamma, gamma * 0.01, 1)
        pb.append(crash_estimate(code, noise, pp).pbar)
    slope = math.log(pb[1] / pb[0]) / math.log(10.0)
    assert abs(slope - (t + 1)) <= 0.05 * (t + 1)


# -- optimizer ----------------------------------------------------------------

def test_optimize_single_point_grid():
    pp, pbar = optimize_protocol(WORKED_CODE, WORKED_NOISE, r_values=[5], n_rep=2.5,
                                 constraint=lambda r, rp, rpp: (rp, rpp) == (4, 3))
    assert (pp.r, pp.r_prime, pp.r_dprime) == (5, 4, 3)
    assert pbar == crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP).pbar


def test_optimize_golay_catalog_family():
    # under the constrained family r-1 = r' = r''+1 at gamma = 100 eps = 1e-4
    golay = codes.params_from_catalog("golay")
    noise = NoiseParams(1e-4, 1e-6, 25)
    pp, _ = optimize_protocol(golay, noise, r_values=range(3, 7), n_rep=1.0,
                              constraint=lambda r, rp, rpp: rp == r - 1 and rpp == r - 2)
    assert pp.r == codes.catalog_entry("golay")["r_opt"] == 4


def test_optimize_hamming_high_noise():
    hamming = codes.params_from_catalog("hamming")
    noise = NoiseParams(3e-3, 3e-5, 25)
    pp, best = optimize_protocol(hamming, noise, n_rep=1.0)
    assert pp.r_prime == 2
    assert pp.r in (2, 3)
    # near-tie between r = 2 and r = 3 at the optimal r'
    alt = crash_estimate(hamming, noise,
                         ProtocolParams(3 if pp.r == 2 else 2, 2,
                                        min(2, 3 if pp.r == 2 else 2),
                                        n_rep=1.0)).pbar
    assert alt / best < 1.6


def _grid_minimum(code, noise, r_values=range(1, 7), constraint=None, n_rep=1.0,
                  parallel_corrections=None, rest_scale=1.0):
    """optimize_protocol's answer from one crash_estimate per triple."""
    best = None
    for r in r_values:
        for rp in range(1, r + 1):
            for rpp in range(1, r + 1):
                if constraint and not constraint(r, rp, rpp):
                    continue
                pp = ProtocolParams(r, rp, rpp, n_rep=n_rep,
                                    parallel_corrections=parallel_corrections)
                est = crash_estimate(code, noise, pp, rest_scale=rest_scale)
                key = (est.pbar, r, rp, rpp)
                if best is None or key < best:
                    best = key
    return best


_ETA = concat.eta_factor(codes.params_from_catalog("bch127-43"))
_CATALOG = sweep.SweepConfig(gammas=(1e-4,), protocol_family="catalog")
# saturated: pinned triples all tie at pbar = 1.0, unpinned ones are unusable
_SATURATED_NOISE = NoiseParams(0.3, 3e-3, 25)
# golay: rounding lifts two agreement sums above 1, for (5, 1, 5) and (6, 1, 4)
_ROUNDING_NOISE = NoiseParams(1e-4, 1e-4, 1)


@pytest.mark.parametrize("name,kwargs", [
    ("golay", {}),
    ("hamming", {"n_rep": 2.5}),
    ("golay", {"parallel_corrections": 1.0}),
    ("golay", {"rest_scale": _ETA}),
    ("bch127-43", {"rest_scale": 1.0 / _ETA}),
    ("golay", {"r_values": (5, 2, 6, 3),
               "constraint": lambda r, rp, rpp: rp in (3, 1, 2) and rpp in (2, 6, 1, 4)}),
    ("golay", {"r_values": _CATALOG.family_r_values(),
               "constraint": _CATALOG.family_constraint()}),
# fixed ids, so that removing a case does not rename the cases after it
], ids=[f"{name}-kwargs{i}" for name, i in (
    ("golay", 0), ("hamming", 1), ("golay", 2), ("golay", 3), ("bch127-43", 4),
    ("golay", 6), ("golay", 7))])
@pytest.mark.parametrize("noise", [NoiseParams(1e-4, 1e-6, 25),
                                   NoiseParams(1e-3, 1e-3, 1),
                                   NoiseParams(3e-3, 3e-5, 25),
                                   _SATURATED_NOISE, _ROUNDING_NOISE])
def test_optimize_equals_per_triple_minimum(name, kwargs, noise):
    code = codes.params_from_catalog(name)
    pp, pbar = optimize_protocol(code, noise, **kwargs)
    assert (pbar, pp.r, pp.r_prime, pp.r_dprime) == _grid_minimum(code, noise, **kwargs)


# Model outputs pinned as exact literals: a change that only makes the model
# faster or smaller must keep them bit for bit.
_GOLAY = codes.params_from_catalog("golay")
_GOLAY_NOISE = NoiseParams(1e-3, 1e-5, 25)
PINNED_ESTIMATES = [
    ((WORKED_CODE, WORKED_NOISE, WORKED_PP),
     {'p_za': 0.14225859194618795, 'alpha': 0.7396713333333333,
      'beta': 0.790955645838082, 'p_0': 0.922137649425991, 't_r': 143.9805564528637,
      'g_1_1': 647.6999999999999, 'g_1_r': 2222.5, 'g_r_1': 1155.7, 'g_r_r': 2730.5,
      's_1': 22222.53066951369, 's_r': 37970.53066951369,
      'p1_single': 1.6776592462062654e-10, 'p1_multi': 5.751228255508475e-10,
      'p_agree_1': 0.8492938166300592, 'p_agree_later': 0.9977620303896119,
      'p_ws': 4.554321097444445e-15, 'r_bar': 1.7731688631061182,
      'deferred_sum': 1.1714328402232458e-10, 'pbar': 5.18583413886025e-10,
      'usable': True}),
    ((_GOLAY, _GOLAY_NOISE, ProtocolParams(4, 3, 3, parallel_corrections=1.0)),
     {'p_za': 0.10097743351669453, 'alpha': 0.8715066666666667,
      'beta': 0.8163592490155615, 'p_0': 0.9080520105395162, 't_r': 73.0,
      'g_1_1': 93.14999999999999, 'g_1_r': 234.6, 'g_r_1': 162.15,
      'g_r_r': 303.59999999999997, 's_1': 2323.0, 's_r': 4255.0,
      'p1_single': 8.681955224518019e-06, 'p1_multi': 2.481390962338558e-05,
      'p_agree_1': 0.9467463296466522, 'p_agree_later': 0.9998150320850984,
      'p_ws': 6.148161999999999e-09, 'r_bar': 1.5411427089369492,
      'deferred_sum': 3.196113354370614e-06, 'pbar': 2.3979552561524892e-05,
      'usable': True}),
    ((_GOLAY, _SATURATED_NOISE, ProtocolParams(4, 3, 3)),
     {'p_za': 0.9999999999999996, 'alpha': 0.0, 'beta': 0.0, 'p_0': 0.0,
      't_r': 0.0, 'g_1_1': 0.0, 'g_1_r': 0.0, 'g_r_1': 0.0, 'g_r_r': 0.0,
      's_1': 0.0, 's_r': 0.0, 'p1_single': 0.0, 'p1_multi': 0.0,
      'p_agree_1': 0.0, 'p_agree_later': 0.0, 'p_ws': 0.0, 'r_bar': 0.0,
      'deferred_sum': 0.0, 'pbar': 1.0, 'usable': False}),
]


@pytest.mark.parametrize("args,breakdown", PINNED_ESTIMATES,
                         ids=["worked", "golay-pinned", "unusable"])
def test_crash_estimate_pinned(args, breakdown):
    assert crash_estimate(*args).as_dict() == breakdown


def test_optimize_and_concat_pinned():
    assert optimize_protocol(_GOLAY, WORKED_NOISE, rest_scale=_ETA) == (
        ProtocolParams(3, 3, 1), 7.173292560197357e-10)
    assert optimize_protocol(_GOLAY, _GOLAY_NOISE, parallel_corrections=1.0) == (
        ProtocolParams(2, 2, 1, parallel_corrections=1.0), 1.1210965614730086e-05)
    est = concat.concat_estimate(concat.ConcatSpec(_GOLAY, WORKED_CODE), 1e-4, 1e-6)
    assert est == concat.ConcatEstimate(
        pbar=1.9249377897894157e-45, inner_pbar=2.6399596973623925e-10,
        eta=2.2053402005963676, below_breakeven=False,
        inner_protocol=ProtocolParams(3, 3, 1), outer_protocol=ProtocolParams(5, 5, 1))


def test_equivalence_grid_reaches_edge_cases():
    golay = codes.params_from_catalog("golay")
    triples = [(r, rp, rpp) for r in range(1, 7) for rp in range(1, r + 1)
               for rpp in range(1, r + 1)]
    assert not preparation_stats(golay, _SATURATED_NOISE)["usable"]
    assert all(crash_estimate(golay, _SATURATED_NOISE,
                              ProtocolParams(*t, parallel_corrections=1.0)).pbar == 1.0
               for t in triples)
    rounded = [crash_estimate(golay, _ROUNDING_NOISE, ProtocolParams(*t))
               for t in triples]
    assert any(est.p_agree_1 > 1.0 or est.p_agree_later > 1.0 for est in rounded)


def test_optimize_finishes_few_triples(monkeypatch):
    # the bounded search finishes the deferred sum for a handful of the 91
    # triples; the rest are pruned by their floors
    finish = analytic._finish_estimate
    calls = []

    def counted(*args):
        calls.append(args)
        return finish(*args)

    monkeypatch.setattr(analytic, "_finish_estimate", counted)
    golay = codes.params_from_catalog("golay")
    optimize_protocol(golay, NoiseParams(1e-3, 1e-3, 1))
    assert 1 <= len(calls) <= 10


def test_model_curaccuracy_grid_emitted(tmp_path):
    rows = model_curves(gammas=np.logspace(-4, -2, 5))
    assert len(rows) == 3 * 3 * 2 * 5
    assert all(0.0 <= row["pbar"] <= 1.0 for row in rows)
    assert {row["code"] for row in rows} == {"hamming", "golay"}


def test_constants_override(monkeypatch):
    base = crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP).pbar
    monkeypatch.setattr(analytic, "MU", 0.7)
    monkeypatch.setattr(analytic, "NU", 2.0)
    bumped = crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP).pbar
    assert bumped > base
