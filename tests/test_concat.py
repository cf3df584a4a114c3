import math

import pytest

from ftqec import codes, concat
from ftqec.codes import CodeParams
from ftqec.concat import (ConcatSpec, concat_estimate, eta_factor,
                          hierarchical_tail, level_trace, monolithic_estimate,
                          supercode_params, threshold)
from ftqec.noise import NoiseParams

GOLAY = codes.params_from_catalog("golay")
HAMMING = codes.params_from_catalog("hamming")
BCH29 = codes.params_from_catalog("bch127-29")
TRIVIAL = codes.params_from_catalog("none")


def test_supercode_hamming_golay():
    combo = supercode_params(HAMMING, GOLAY)
    assert (combo.n, combo.k, combo.d) == (161, 1, 15)


def test_supercode_hamming_squared():
    combo = supercode_params(HAMMING, HAMMING)
    assert (combo.n, combo.k, combo.d) == (49, 1, 7)


def test_supercode_trivial_inner():
    combo = supercode_params(TRIVIAL, GOLAY)
    assert (combo.n, combo.k, combo.d) == (GOLAY.n, GOLAY.k, GOLAY.d)


def test_hierarchical_tail_zero_noise():
    tail = hierarchical_tail(HAMMING, GOLAY)
    assert tail(100.0, 100.0, 0.0, 0.0) == 0.0


def test_hierarchical_tail_orders_per_level():
    tail = hierarchical_tail(HAMMING, GOLAY)
    # one failure rate: uncorrectable needs (t_i+1)(t_o+1) = 8 coincidences
    lo = tail(161.0, 0.0, 1e-4, 0.0)
    hi = tail(161.0, 0.0, 1e-3, 0.0)
    assert lo > 0
    assert 10 ** 7 < hi / lo < 10 ** 9


def test_monolithic_estimate_runs():
    pbar, combo = monolithic_estimate(HAMMING, GOLAY, 1e-4, 1e-6, t_m=25,
                                      n_rep=1.0, r_values=range(2, 5))
    assert 0.0 < pbar < 1.0
    assert combo.n == 161


def test_eta_factor_near_two():
    assert 1.5 < eta_factor(BCH29) < 2.5


def test_concat_estimate_zero_noise():
    spec = ConcatSpec(inner=GOLAY, outer=BCH29, t_m=25)
    est = concat_estimate(spec, 0.0, 0.0)
    assert est.pbar == 0.0
    assert est.inner_pbar == 0.0


def test_concat_inner_must_encode_one_qubit():
    with pytest.raises(ValueError):
        ConcatSpec(inner=BCH29, outer=GOLAY)


def test_concat_golay_bch_computation_size():
    from ftqec.simulator import ProtocolParams
    spec = ConcatSpec(inner=GOLAY, outer=BCH29, n_rep_inner=1.0,
                      n_rep_outer=1.0, t_m=25)
    # with the outer level running the catalog's optimum for this code at
    # the physical noise (r = 5 family), the computation size lands in the
    # expected decade band
    est = concat_estimate(spec, 1e-4, 1e-6,
                          outer_protocol=ProtocolParams(5, 4, 3, n_rep=1.0))
    assert not est.below_breakeven
    kq = 0.5 / est.pbar
    assert 1e35 <= kq <= 1e45
    # per-level re-optimization can only lower the estimate further
    est_free = concat_estimate(spec, 1e-4, 1e-6)
    assert est_free.pbar <= est.pbar
    assert 0.5 / est_free.pbar >= 1e35


def test_concat_below_breakeven_flag():
    spec = ConcatSpec(inner=GOLAY, outer=BCH29, t_m=25)
    est = concat_estimate(spec, 3e-2, 3e-2)
    assert est.below_breakeven
    assert est.pbar == 1.0


def test_concat_helps_below_breakeven():
    spec = ConcatSpec(inner=GOLAY, outer=GOLAY, t_m=1)
    for gamma in (1e-4, 3e-4):
        est = concat_estimate(spec, gamma, gamma)
        if est.inner_pbar <= 1e-3:
            assert est.pbar <= est.inner_pbar


# -- thresholds ---------------------------------------------------------------

def test_level_trace_decreasing_below_threshold():
    trace = level_trace(GOLAY, 5e-4, 1.0, 1, levels=8)
    assert trace[1] < trace[0]
    assert concat._converges(trace)


def test_threshold_needs_single_qubit_code():
    with pytest.raises(ValueError):
        threshold(BCH29, 1.0, 1)


def test_threshold_monotone_in_tm_and_ratio():
    g_fast = threshold(GOLAY, 1.0, 1, rel_width=0.05)
    g_slow = threshold(GOLAY, 1.0, 100, rel_width=0.05)
    assert g_slow < g_fast
    g_memless = threshold(GOLAY, 0.01, 1, rel_width=0.05)
    assert g_memless > g_fast


def test_deep_convergence_below_half_threshold():
    g0 = threshold(GOLAY, 1.0, 1, rel_width=0.05)
    trace = level_trace(GOLAY, g0 / 2, 1.0, 1, levels=12)
    assert concat._converges(trace)
    assert trace[-1] < 1e-30
