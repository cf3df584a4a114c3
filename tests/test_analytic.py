import math

import numpy as np
import pytest

from ftqec import analytic, codes, concat
from ftqec.analytic import (AnalyticConstants, binom_pmf, bprime,
                            bprime_approx_binomial, bprime_approx_powerlaw,
                            crash_estimate, exposure_counts, model_curves,
                            optimize_protocol, preparation_stats, solve_beta)
from ftqec.noise import NoiseParams
from ftqec.simulator import ProtocolParams, ProtocolError

WORKED_CODE = codes.params_from_catalog("bch127-43")
WORKED_NOISE = NoiseParams.uniform(1e-4, 1e-6, t_m=25)
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
        got = analytic.uncorrectable_tail(g, s, t, n, gamma, eps)
        assert got == _two_series_tail(g, s, t, n, gamma, eps)
        saturated += got > 0.5
    assert (saturated > 150) == (g_hi > 10000.0)


def test_bprime_first_approximation():
    exact = bprime(1000, 5000, 2, 1e-4, 1e-5)
    approx = bprime_approx_binomial(1000, 5000, 2, 1e-4, 1e-5)
    assert abs(approx - exact) / exact < 0.10


def test_bprime_powerlaw_order_of_magnitude():
    exact = bprime(1000, 5000, 2, 1e-4, 1e-5)
    rough = bprime_approx_powerlaw(1000, 5000, 2, 1e-4, 1e-5)
    assert 0.1 < rough / exact < 10


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
    hot = NoiseParams.uniform(1e-2, 1e-2, 25)
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
        noise = NoiseParams.uniform(1e-4, eps, 25)
        betas.append(solve_beta(WORKED_CODE, noise, WORKED_PP)[0])
    assert betas[0] > betas[1] > betas[2]


def test_exposure_worked_example():
    prep = preparation_stats(WORKED_CODE, WORKED_NOISE)
    beta, _ = solve_beta(WORKED_CODE, WORKED_NOISE, WORKED_PP)
    out = exposure_counts(WORKED_CODE, WORKED_NOISE, WORKED_PP,
                          prep["alpha"], beta, 5, 5)
    assert 138 <= out["t_r"] <= 148
    assert 35000 <= out["s"] <= 41000
    assert abs(out["g"] - 2540) <= 0.10 * 2540


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
                              NoiseParams.uniform(gamma, eps, t_m), pp).pbar

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
        noise = NoiseParams.uniform(gamma, gamma * 0.01, 1)
        pb.append(crash_estimate(code, noise, pp).pbar)
    slope = math.log(pb[1] / pb[0]) / math.log(10.0)
    assert abs(slope - (t + 1)) <= 0.05 * (t + 1)


# -- optimizer ----------------------------------------------------------------

def test_optimize_single_point_grid():
    pp, pbar = optimize_protocol(WORKED_CODE, WORKED_NOISE,
                                 r_values=[5], rp_values=[4], rpp_values=[3],
                                 n_rep=2.5)
    assert (pp.r, pp.r_prime, pp.r_dprime) == (5, 4, 3)
    assert pbar == crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP).pbar


def test_optimize_golay_catalog_family():
    # under the constrained family r-1 = r' = r''+1 at gamma = 100 eps = 1e-4
    golay = codes.params_from_catalog("golay")
    noise = NoiseParams.uniform(1e-4, 1e-6, 25)
    pp, _ = optimize_protocol(golay, noise, r_values=range(3, 7), n_rep=1.0,
                              constraint=lambda r, rp, rpp: rp == r - 1 and rpp == r - 2)
    assert pp.r == codes.catalog_entry("golay")["r_opt"] == 4


def test_optimize_hamming_high_noise():
    hamming = codes.params_from_catalog("hamming")
    noise = NoiseParams.uniform(3e-3, 3e-5, 25)
    pp, best = optimize_protocol(hamming, noise, n_rep=1.0)
    assert pp.r_prime == 2
    assert pp.r in (2, 3)
    # near-tie between r = 2 and r = 3 at the optimal r'
    alt = crash_estimate(hamming, noise,
                         ProtocolParams(3 if pp.r == 2 else 2, 2,
                                        min(2, 3 if pp.r == 2 else 2),
                                        n_rep=1.0)).pbar
    assert alt / best < 1.6


def _grid_minimum(code, noise, n_rep=1.0, parallel_corrections=None,
                  rest_scale=1.0, tail_model=None):
    """optimize_protocol's answer from one crash_estimate per triple."""
    best = None
    for r in range(1, 7):
        for rp in range(1, r + 1):
            for rpp in range(1, r + 1):
                pp = ProtocolParams(r, rp, rpp, n_rep=n_rep,
                                    parallel_corrections=parallel_corrections)
                est = crash_estimate(code, noise, pp, rest_scale=rest_scale,
                                     tail_model=tail_model)
                key = (est.pbar, r, rp, rpp)
                if best is None or key < best:
                    best = key
    return best


_ETA = concat.eta_factor(codes.params_from_catalog("bch127-43"))


@pytest.mark.parametrize("name,kwargs", [
    ("golay", {}),
    ("hamming", {"n_rep": 2.5}),
    ("golay", {"parallel_corrections": 1.0}),
    ("golay", {"rest_scale": _ETA}),
    ("bch127-43", {"rest_scale": 1.0 / _ETA}),
    ("hamming+golay", {"tail_model": concat.hierarchical_tail(
        codes.params_from_catalog("hamming"), codes.params_from_catalog("golay"))}),
])
@pytest.mark.parametrize("noise", [NoiseParams.uniform(1e-4, 1e-6, 25),
                                   NoiseParams.uniform(1e-3, 1e-3, 1),
                                   NoiseParams.uniform(3e-3, 3e-5, 25)])
def test_optimize_equals_per_triple_minimum(name, kwargs, noise):
    if name == "hamming+golay":
        code = concat.supercode_params(codes.params_from_catalog("hamming"),
                                       codes.params_from_catalog("golay"))
    else:
        code = codes.params_from_catalog(name)
    pp, pbar = optimize_protocol(code, noise, **kwargs)
    assert (pbar, pp.r, pp.r_prime, pp.r_dprime) == _grid_minimum(code, noise, **kwargs)


def test_model_curaccuracy_grid_emitted(tmp_path):
    rows = model_curves(gammas=np.logspace(-4, -2, 5))
    assert len(rows) == 3 * 3 * 2 * 5
    assert all(0.0 <= row["pbar"] <= 1.0 for row in rows)
    assert {row["code"] for row in rows} == {"hamming", "golay"}


def test_constants_override():
    hot = AnalyticConstants(mu=0.7, nu=2.0)
    base = crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP).pbar
    bumped = crash_estimate(WORKED_CODE, WORKED_NOISE, WORKED_PP, consts=hot).pbar
    assert bumped > base
