import math

import pytest

from ftqec import analytic, codes, stats
from ftqec.noise import NoiseParams
from ftqec.stats import (SyndromeCensus, c_s_histogram, fit_power_law,
                         histogram_mode, repeated_error_collision,
                         syndrome_census, weight_class_fit)


def test_fit_power_law_exact_series():
    series = [(g, 2.0 * g) for g in (1e-4, 3e-4, 1e-3, 3e-3)]
    a, c = fit_power_law(series)
    assert a == pytest.approx(2.0, rel=1e-6)
    assert c == pytest.approx(1.0, abs=1e-6)


def test_fit_power_law_cutoff():
    # points at P >= 0.01 are excluded; too few survivors -> no fit
    series = [(1e-3, 0.02), (3e-3, 0.06), (1e-2, 0.2)]
    assert fit_power_law(series) is None


def test_fit_power_law_quadratic():
    series = [(g, 5.0 * g ** 2) for g in (1e-3, 2e-3, 4e-3)]
    a, c = fit_power_law(series)
    assert c == pytest.approx(2.0, abs=1e-6)
    assert a == pytest.approx(5.0, rel=1e-5)


def test_census_zero_noise():
    grid = [NoiseParams(0.0, 0.0, 1)]
    census = syndrome_census("hamming", grid, trials=256, seed=1)[0]
    assert census.counts == {0: 256}
    assert census.nonzero_fraction() == 0.0


def test_census_counts_unverified_ancillas():
    # at gamma = eps = 0.5 some lanes run out of their 64 preparation attempts
    grid = [NoiseParams(0.5, 0.5, 1)]
    census = syndrome_census("hamming", grid, trials=640, seed=0)[0]
    assert census.unverified > 0
    assert sum(census.counts.values()) == 640


def test_zero_census_linear_coefficients():
    grid = [NoiseParams(0.0, 0.0, 1)]
    censuses = syndrome_census("hamming", grid, trials=256, seed=2)
    # synthesize a gamma value so the origin fit is defined
    censuses[0].gamma = 1e-4
    code = codes.standardized_code(codes.construct_code("hamming"))
    fit = weight_class_fit(censuses, codes.decoder_for(code))
    assert fit.a == 0.0
    assert fit.a_prime == 0.0


@pytest.fixture(scope="module")
def golay_census():
    gammas = [2e-4, 3e-4, 5e-4, 1e-3]
    grid = [NoiseParams(g, g, 1) for g in gammas]
    return syndrome_census("golay", grid, trials=40000, seed=5)


@pytest.fixture(scope="module")
def golay_decoder():
    code = codes.standardized_code(codes.construct_code("golay"))
    return codes.decoder_for(code)


def test_counts_sum_to_trials(golay_census):
    for census in golay_census:
        assert sum(census.counts.values()) == census.trials


def test_weight_one_dominates_individual_weight_two(golay_census, golay_decoder):
    census = golay_census[-1]
    w1 = [census.probability(s) for s in census.counts
          if s and golay_decoder.leader_weight(s) == 1]
    w2 = [census.probability(s) for s in census.counts
          if golay_decoder.leader_weight(s) == 2]
    assert w1 and w2
    assert min(w1) > max(w2)


def test_census_tracks_verified_ancilla_error_rate(golay_census):
    # consistency against the model evaluated at the simulated network's
    # own scheduling parameters
    code = codes.construct_code("golay")
    sf = codes.standard_form(code)
    params = codes.derived_params(sf, code.n, code.k, code.d)
    for census in golay_census:
        noise = NoiseParams(census.gamma, census.eps, census.t_m)
        p_za = analytic.preparation_stats(params, noise)["p_za"]
        ratio = census.nonzero_fraction() / p_za
        assert 0.7 <= ratio <= 1.3


def test_weight_class_fit_scale(golay_census, golay_decoder):
    fit = weight_class_fit(golay_census, golay_decoder)
    assert 196 / 2 <= fit.a <= 196 * 2
    assert 36 / 2 <= fit.a_prime <= 36 * 2


def test_weight_one_exponents_near_linear(golay_census, golay_decoder):
    fit = weight_class_fit(golay_census, golay_decoder)
    hist = c_s_histogram(fit, golay_decoder, 1)
    mode = histogram_mode(hist)
    assert mode is not None
    assert abs(mode - 1.0) <= 0.15


def test_repeated_error_collision_bounded(golay_census, golay_decoder):
    # the matched wrong-syndrome floor: collisions of identical multi-bit
    # errors across independent preparations stay within a loose factor of
    # the location-count bound
    census = golay_census[-1]
    gamma = census.gamma
    collision = repeated_error_collision(census, golay_decoder, r_prime=2)
    params = codes.params_from_catalog("golay")
    bound = params.N_GV * (gamma / 3) ** 2 + params.N_h * (census.eps / 3) ** 2
    assert collision <= 4 * bound
    assert collision >= bound / 64


def _scalar_class_probability(census, decoder, weight):
    return sum(c for s, c in census.counts.items()
               if decoder.leader_weight(s) == weight) / census.trials


def test_batched_decoding_matches_scalar(golay_census, golay_decoder):
    # the fit, histogram and collision sum decode each census in one batch;
    # decoding one syndrome at a time gives the same numbers bit for bit
    dec = golay_decoder
    fit = weight_class_fit(golay_census, dec)
    den = sum(c.gamma ** 2 for c in golay_census)
    a = sum(_scalar_class_probability(c, dec, 1) * c.gamma
            for c in golay_census) / den
    a_prime = sum(sum(_scalar_class_probability(c, dec, w) for w in (2, 3, 4))
                  * c.gamma for c in golay_census) / den
    assert (fit.a, fit.a_prime) == (a, a_prime)
    for weight in (1, 2, 3):
        hist = {}
        for s, c_s in fit.c_s.items():
            if dec.leader_weight(s) == weight:
                center = round((math.floor(c_s / 0.1) + 0.5) * 0.1, 6)
                hist[center] = hist.get(center, 0) + 1
        assert c_s_histogram(fit, dec, weight) == hist
    census = golay_census[-1]
    collision = sum((c / census.trials) ** 2 for s, c in census.counts.items()
                    if s and dec.leader_weight(s) > 1)
    assert repeated_error_collision(census, dec, r_prime=2) == collision
