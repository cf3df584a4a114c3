import math
import signal

import pytest

from ftqec import analytic, codes, concat
from ftqec.concat import (ConcatSpec, concat_estimate, eta_factor,
                          level_trace, threshold)
from ftqec.noise import NoiseParams
from ftqec.protocol import ProtocolParams

GOLAY = codes.params_from_catalog("golay")
BCH29 = codes.params_from_catalog("bch127-29")


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
    spec = ConcatSpec(inner=GOLAY, outer=BCH29, n_rep=1.0, t_m=25)
    est = concat_estimate(spec, 1e-4, 1e-6)
    assert not est.below_breakeven
    # with the outer level running the catalog's optimum for this code at
    # the physical noise (r = 5 family), the computation size lands in the
    # expected decade band
    p_in = est.inner_pbar
    fixed = analytic.crash_estimate(concat._without_holes(BCH29),
                                    NoiseParams(p_in, p_in, 1), ProtocolParams(5, 4, 3),
                                    rest_scale=1 / est.eta).pbar
    assert 1e35 <= 0.5 / fixed <= 1e45
    # per-level re-optimization can only lower the estimate further
    assert est.pbar <= fixed
    assert 0.5 / est.pbar >= 1e35


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
    trace = level_trace(GOLAY, 5e-4, 1.0, 1)
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
    trace = level_trace(GOLAY, g0 / 2, 1.0, 1)
    assert concat._converges(trace)
    assert trace[-1] < 1e-30


@pytest.mark.parametrize("rel_width", [1e-20, 1e-300])
def test_threshold_stops_at_adjacent_doubles(rel_width, monkeypatch):
    # a width below double resolution narrows lo and hi onto adjacent
    # doubles, where sqrt(lo * hi) rounds onto one of them; the bisection
    # must end there rather than loop (the alarm fails a loop in 10 s)
    edge = 1e-3
    monkeypatch.setattr(concat, "level_trace", lambda code, gamma, eps_over_gamma, t_m:
                        [gamma, 0.0 if gamma < edge else 1.0])

    def expire(signum, frame):
        raise TimeoutError("threshold did not return")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        g0 = threshold(GOLAY, 1.0, 1, rel_width=rel_width)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert abs(g0 - edge) <= 2 * math.ulp(edge)


def test_threshold_probe_with_eps_above_one_is_divergent(monkeypatch):
    # at eps/gamma = 40 the bracket's top, 3e-2, puts eps at 1.2: such a
    # probe counts as divergent and never reaches the model.  The stub
    # converges at every rate it is given, so gamma_0 lands on 1/40
    probed = []

    def trace(code, gamma, eps_over_gamma, t_m):
        probed.append(gamma * eps_over_gamma)
        return [gamma, 0.0]

    monkeypatch.setattr(concat, "level_trace", trace)
    g0 = threshold(GOLAY, 40.0, 1, rel_width=1e-3)
    assert max(probed) <= 1.0
    assert abs(g0 * 40.0 - 1.0) <= 2e-3
    # the model itself at the same ratio
    monkeypatch.undo()
    g0 = threshold(codes.params_from_catalog("hamming"), 40.0, 1, rel_width=0.2)
    assert 1e-6 <= g0 and g0 * 40.0 <= 1.0


# gamma_0 of the abstract's four (eps/gamma, t_m) points, exact literals: a
# change that only makes the model faster must keep them bit for bit
PINNED_THRESHOLDS = {
    ("golay", 1.0, 1): 0.0012745211365067254,
    ("golay", 0.01, 1): 0.0037237896576289274,
    ("golay", 1.0, 100): 0.00012024548712801795,
    ("golay", 0.01, 100): 0.0028806754331429712,
    ("hamming", 1.0, 1): 0.0010686456922978458,
    ("hamming", 0.01, 1): 0.002015030523380347,
    ("hamming", 1.0, 100): 5.4283254411742475e-05,
    ("hamming", 0.01, 100): 0.0014748361653757055,
}


@pytest.mark.parametrize("name,eps_over_gamma,t_m", PINNED_THRESHOLDS)
def test_threshold_pinned(name, eps_over_gamma, t_m):
    code = codes.params_from_catalog(name)
    assert threshold(code, eps_over_gamma, t_m) == PINNED_THRESHOLDS[name, eps_over_gamma, t_m]
