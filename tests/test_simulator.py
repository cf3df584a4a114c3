import math
from collections import OrderedDict

import numpy as np
import pytest

from ftqec import analytic, codes, simulator
from ftqec.network import GateEvent, CNOT, CPHASE, HADAMARD
from ftqec.noise import NoiseParams, stream
from ftqec.simulator import (ErrorFrame, ProtocolParams, ProtocolError,
                             RecoveryState, SimConfig, SimEngine,
                             estimate_pbar_mc, extract_syndrome,
                             judge_syndromes, recover_block, run_batch,
                             run_trial)


def engine(code_name="hamming", gamma=0.0, eps=0.0, t_m=1,
           pp=ProtocolParams(2, 2, 2, parallel_corrections=1.0)):
    code = codes.construct_code(code_name)
    return SimEngine(code, NoiseParams.uniform(gamma, eps, t_m), pp)


# -- propagation rules --------------------------------------------------------

def test_hadamard_swaps_planes():
    f = ErrorFrame(n=7, rows=4)
    f.set_lane("x", 2, 0, 1)
    simulator.propagate(GateEvent(HADAMARD, (2,), 0), f)
    assert f.x_bits[2] == 0 and f.z_bits[2] == 1


def test_cnot_propagation():
    f = ErrorFrame(n=7, rows=4)
    f.set_lane("x", 1, 0, 1)             # X on control
    simulator.propagate(GateEvent(CNOT, (1, 3), 0), f)
    assert f.x_bits[1] == 1 and f.x_bits[3] == 1
    f2 = ErrorFrame(n=7, rows=4)
    f2.set_lane("z", 3, 0, 1)            # Z on target
    simulator.propagate(GateEvent(CNOT, (1, 3), 0), f2)
    assert f2.z_bits[1] == 1 and f2.z_bits[3] == 1


def test_cphase_propagation():
    f = ErrorFrame(n=7, rows=4)
    f.set_lane("x", 0, 0, 1)
    simulator.propagate(GateEvent(CPHASE, (0, 5), 0), f)
    assert f.z_bits[5] == 1 and f.x_bits[0] == 1 and f.z_bits[0] == 0


def test_zero_frame_fixed_under_gates():
    f = ErrorFrame(n=7, rows=4)
    for ev in (GateEvent(HADAMARD, (0,), 0), GateEvent(CNOT, (0, 1), 1),
               GateEvent(CPHASE, (2, 3), 2)):
        simulator.propagate(ev, f)
    assert not f.x_bits.any() and not f.z_bits.any()


# -- syndrome extraction ------------------------------------------------------

def test_extract_zero_noise_zero_frame():
    eng = engine()
    f = ErrorFrame(n=7, rows=4)
    res = extract_syndrome(f, eng, eng.noise, "X", stream(0, 0))
    assert res["verified"]
    assert not res["syndrome"].any()


@pytest.mark.parametrize("j", range(7))
def test_extract_single_x_error_gives_column(j):
    eng = engine()
    f = ErrorFrame(n=7, rows=4)
    f.set_lane("x", j, 0, 1)
    res = extract_syndrome(f, eng, eng.noise, "X", stream(0, j))
    assert res["verified"]
    assert np.array_equal(res["syndrome"], eng.code.H[:, j])


def test_extract_single_z_error_z_type(golay):
    eng = engine("golay")
    f = ErrorFrame(n=23, rows=12)
    f.set_lane("z", 11, 0, 1)
    res = extract_syndrome(f, eng, eng.noise, "Z", stream(0, 1))
    assert res["verified"]
    assert np.array_equal(res["syndrome"], eng.code.H[:, 11])


def test_verified_fraction_tracks_alpha():
    # cross-module consistency at gamma2 = 1e-3, where the linearized
    # verified-fraction formula is inside its validity range
    gamma2 = 1e-3
    code = codes.construct_code("golay")
    noise = NoiseParams(gamma2=gamma2)
    eng = SimEngine(code, noise, ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    alpha = analytic.preparation_stats(eng.params, noise)["alpha"]
    trials = 100_000
    passed = 0
    done = 0
    batch = 0
    while done < trials:
        rng = stream(77, batch)
        batch += 1
        f = ErrorFrame(n=23, rows=12)
        verified = eng.attempt_preparation(f, rng, (1 << 64) - 1)
        passed += bin(verified).count("1")
        done += 64
    frac = passed / done
    assert abs(frac - alpha) <= 0.02


def test_unverified_lanes_counted():
    # one attempt at heavy noise leaves lanes unverified; the same stream
    # replayed through attempt_preparation says how many
    eng = engine(gamma=0.3, eps=0.3)
    mask = (1 << 64) - 1
    f = ErrorFrame(n=7, rows=eng.rows)
    eng.prepare_verified(f, stream(5, 0), mask, max_attempts=1)
    verified = eng.attempt_preparation(ErrorFrame(n=7, rows=eng.rows),
                                       stream(5, 0), mask)
    assert f.unverified == bin(mask & ~verified).count("1") > 0
    quiet = ErrorFrame(n=7, rows=eng.rows)
    engine().prepare_verified(quiet, stream(5, 0), mask, max_attempts=1)
    assert quiet.unverified == 0


@pytest.mark.xfail(strict=True, reason="holes of gate-free G/V steps are not "
                   "drawn; see ROADMAP, Known defects")
@pytest.mark.parametrize("name", ["hamming", "golay", "bch31"])
def test_preparation_draws_every_hole(name, monkeypatch):
    # one preparation attempt should charge memory noise on all N_h holes
    drawn = []
    holes = simulator._Injector.holes_redistributed

    def record(self, frame, resting_count, phase_qubits, eps):
        drawn.append(resting_count)
        holes(self, frame, resting_count, phase_qubits, eps)

    monkeypatch.setattr(simulator._Injector, "holes_redistributed", record)
    eng = engine(name, gamma=1e-3, eps=1e-3)
    eng.attempt_preparation(ErrorFrame(n=eng.n, rows=eng.rows), stream(3, 0),
                            (1 << 64) - 1)
    assert sum(drawn) == eng.params.N_h


def test_unverified_tally_independent_of_workers():
    cfg = SimConfig("hamming", NoiseParams.uniform(0.3, 0.3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    q_max=2, max_trials=128, chunk_batches=2)
    s1 = estimate_pbar_mc(cfg, seed=4, workers=1)
    s2 = estimate_pbar_mc(cfg, seed=4, workers=2)
    assert s1.unverified == s2.unverified > 0


def test_engine_cache_bounded(monkeypatch):
    monkeypatch.setattr(simulator, "_engine_cache", OrderedDict())
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    configs = [SimConfig("hamming", NoiseParams.uniform(1e-4 * (i + 1), 0.0, 1), pp)
               for i in range(simulator._ENGINE_CACHE_SIZE + 3)]
    first = simulator._engine_for(configs[0])
    built = [first]
    for cfg in configs[1:]:
        assert simulator._engine_for(configs[0]) is first   # reused while recent
        built.append(simulator._engine_for(cfg))
        assert len(simulator._engine_cache) <= simulator._ENGINE_CACHE_SIZE
    assert len(simulator._engine_cache) == simulator._ENGINE_CACHE_SIZE
    assert simulator._engine_for(configs[-1]) is built[-1]
    # the least recently used engine was dropped, so it is built again
    assert simulator._engine_for(configs[1]) is not built[1]


# -- recovery ------------------------------------------------------------------

def test_judge_acceptance_rule():
    assert judge_syndromes([5, 5], 2) == 5
    assert judge_syndromes([5, 6], 2) is None
    assert judge_syndromes([5, 5, 6, 6], 2) == 6      # most recent pair wins
    assert judge_syndromes([6, 5, 6, 5], 2) == 5
    assert judge_syndromes([7], 1) == 7


def test_judge_acceptance_frequency():
    # r=3, r'=2, wrong-syndrome probability 0.1 with distinct wrong values:
    # acceptance happens when at least 2 of 3 are right
    rng = np.random.default_rng(123)
    n = 100_000
    accepted = 0
    junk = iter(range(10, 10 + 3 * n))
    for _ in range(n):
        pool = [1 if rng.random() >= 0.1 else next(junk) for _ in range(3)]
        if judge_syndromes(pool, 2) is not None:
            accepted += 1
    expected = 3 * 0.81 * 0.1 + 0.729
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(accepted / n - expected) < 4 * sigma


def test_zero_noise_recovery_is_identity():
    eng = engine()
    f = ErrorFrame(n=7, rows=4)
    states = [RecoveryState() for _ in range(64)]
    for _ in range(3):
        corrected, crashed = recover_block(f, states, eng, stream(1, 0), "X", 1)
        assert corrected == 0 and crashed == 0
    assert not f.x_bits.any() and not f.z_bits.any()
    assert states[0].prev_accepted


@pytest.mark.parametrize("plane,qubit", [("x", 0), ("x", 4), ("z", 2), ("z", 6)])
def test_planted_single_error_corrected(plane, qubit):
    eng = engine(pp=ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    f = ErrorFrame(n=7, rows=4)
    f.set_lane(plane, qubit, 0, 1)
    states = [RecoveryState() for _ in range(64)]
    error_type = "X" if plane == "x" else "Z"
    corrected, crashed = recover_block(f, states, eng, stream(2, qubit),
                                       error_type, 1)
    assert corrected == 1 and crashed == 0
    assert not f.x_bits[:7].any() and not f.z_bits[:7].any()


def test_planted_y_error_corrected_in_one_round():
    eng = engine("golay", pp=ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    f = ErrorFrame(n=23, rows=12)
    f.set_lane("x", 9, 0, 1)
    f.set_lane("z", 9, 0, 1)
    states_z = [RecoveryState() for _ in range(64)]
    states_x = [RecoveryState() for _ in range(64)]
    recover_block(f, states_z, eng, stream(3, 0), "Z", 1, apply_rest=True)
    recover_block(f, states_x, eng, stream(3, 1), "X", 1, apply_rest=False)
    assert not f.x_bits[:23].any() and not f.z_bits[:23].any()


# -- trials ---------------------------------------------------------------------

def test_zero_noise_trial_survives():
    eng = engine()
    assert run_trial(eng, stream(4, 0)) == 10


def test_zero_noise_batch_all_survive():
    eng = engine("golay", pp=ProtocolParams(4, 3, 3, parallel_corrections=1.0))
    stats = run_batch(eng, stream(5, 0))
    assert stats.n_f.sum() == 0
    assert stats.n_s[10] == 64


def test_maximal_noise_crashes_fast():
    # a fully scrambled frame still lands in a correctable coset sometimes,
    # so demand near-certain crash within three steps rather than one
    eng = engine(gamma=1.0, eps=1.0)
    stats = simulator.TrialStats.empty()
    for b in range(8):
        stats.merge(run_batch(eng, stream(6, b)))
    assert stats.p(1) > 0.6
    assert stats.n_s[3] / stats.trials < 0.03
    assert stats.n_s[10] == 0


def test_pbar_within_factor_three_of_model():
    noise = NoiseParams.uniform(1e-2, 1e-4, 1)
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    cfg = SimConfig("hamming", noise, pp, target_failures=100)
    stats = estimate_pbar_mc(cfg, seed=42)
    est = analytic.crash_estimate(codes.params_from_catalog("hamming"), noise, pp)
    assert est.pbar / 3 <= stats.pbar <= est.pbar * 3


def test_degenerate_stats_flagged():
    eng = engine(gamma=1.0, eps=1.0)
    cfg = SimConfig("hamming", NoiseParams.uniform(1.0, 1.0, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=100, max_trials=8192)
    stats = estimate_pbar_mc(cfg, seed=7)
    assert stats.censored
    assert stats.p(1) > 0.5
    assert math.isnan(stats.pbar)


def test_stationarity_and_stderr():
    cfg = SimConfig("hamming", NoiseParams.uniform(3e-3, 3e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=150)
    stats = estimate_pbar_mc(cfg, seed=11)
    assert all(stats.n_f[q] >= 100 for q in range(7, 11))
    ratio = stats.p(10) / stats.p(7)
    assert 0.7 <= ratio <= 1.3
    # roughly 5% statistical error at O(100) failures per bin
    assert 0.01 <= stats.stderr / stats.pbar <= 0.10
    assert 0 < stats.fidelity(10) < 1


def test_transient_dies_away():
    # the hazard climbs from below toward its plateau and is flat by Q >= 6
    cfg = SimConfig("hamming", NoiseParams.uniform(3e-3, 3e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=400)
    stats = estimate_pbar_mc(cfg, seed=13)
    pbar = stats.pbar
    assert stats.p(1) < pbar
    for q in range(6, 11):
        p = stats.p(q)
        tot = stats.n_f[q] + stats.n_s[q]
        sigma = math.sqrt(p * (1 - p) / tot)
        assert abs(p - pbar) <= 4 * sigma + 0.1 * pbar


def test_mc_slope_coarse():
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    pbars = []
    for gamma in (3e-3, 1e-2):
        cfg = SimConfig("hamming", NoiseParams.uniform(gamma, gamma / 100, 1),
                        pp, target_failures=100)
        pbars.append(estimate_pbar_mc(cfg, seed=17).pbar)
    slope = math.log(pbars[1] / pbars[0]) / math.log(10 / 3)
    assert 1.0 <= slope <= 3.0


def test_worker_count_invariance():
    cfg = SimConfig("hamming", NoiseParams.uniform(5e-3, 5e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=30)
    s1 = estimate_pbar_mc(cfg, seed=23, workers=1)
    s2 = estimate_pbar_mc(cfg, seed=23, workers=3)
    assert np.array_equal(s1.n_f, s2.n_f)
    assert np.array_equal(s1.n_s, s2.n_s)
    assert s1.trials == s2.trials


def test_protocol_params_validation():
    with pytest.raises(ProtocolError):
        ProtocolParams(2, 3, 1)
    with pytest.raises(ProtocolError):
        ProtocolParams(2, 1, 3)
    with pytest.raises(ProtocolError):
        ProtocolParams(2, 1, 1, n_rep=0.0)


def test_r_max_enforced_for_provisioned_runs():
    # r = 6 at n_rep = 1 exceeds the sustainable repetition bound
    code = codes.construct_code("hamming")
    with pytest.raises(ProtocolError):
        SimEngine(code, NoiseParams.uniform(1e-3, 1e-5, 1),
                  ProtocolParams(6, 2, 2, n_rep=1.0))


@pytest.mark.parametrize("name,noise,pp", [
    ("golay", NoiseParams.uniform(1e-4, 1e-6, 25),
     ProtocolParams(4, 3, 3, parallel_corrections=1.0)),
    ("hamming", NoiseParams.uniform(3e-3, 3e-5, 1),
     ProtocolParams(2, 2, 2, n_rep=2.5)),
])
def test_engine_and_model_share_resting_time(name, noise, pp):
    eng = SimEngine(codes.construct_code(name), noise, pp)
    assert eng.t_r == analytic.crash_estimate(eng.params, noise, pp).t_r


def test_csv_rows_schema():
    cfg = SimConfig("hamming", NoiseParams.uniform(0.0, 0.0, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=1, max_trials=64)
    stats = estimate_pbar_mc(cfg, seed=1)
    rows = simulator.stats_csv_rows(cfg, stats)
    assert len(rows) == 10
    expected_keys = {"code", "gamma", "eps_over_gamma", "t_m", "n_rep", "r",
                     "r_prime", "r_dprime", "Q", "n_f", "n_s", "p_Q", "pbar",
                     "stderr", "seed", "trials"}
    assert set(rows[0]) == expected_keys
