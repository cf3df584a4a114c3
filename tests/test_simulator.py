import dataclasses
import math
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest

from ftqec import analytic, codes, network, simulator
from ftqec.network import GateEvent, CNOT, CPHASE, HADAMARD
from ftqec.noise import NoiseParams, stream
from ftqec.simulator import (ErrorFrame, ProtocolParams, ProtocolError,
                             SimConfig, SimEngine, estimate_pbar_mc,
                             judge_syndromes, recover_block, run_batch)

from frame_helpers import propagate, set_lane, x_bits, z_bits


def engine(code_name="hamming", gamma=0.0, eps=0.0, t_m=1,
           pp=ProtocolParams(2, 2, 2, parallel_corrections=1.0)):
    code = codes.construct_code(code_name)
    return SimEngine(code, NoiseParams(gamma, eps, t_m), pp)


# -- propagation rules --------------------------------------------------------

def test_hadamard_swaps_planes():
    f = ErrorFrame(n=7, rows=4)
    set_lane(f, "x", 2, 0, 1)
    propagate(GateEvent(HADAMARD, (2,), 0), f)
    assert x_bits(f)[2] == 0 and z_bits(f)[2] == 1


def test_cnot_propagation():
    f = ErrorFrame(n=7, rows=4)
    set_lane(f, "x", 1, 0, 1)             # X on control
    propagate(GateEvent(CNOT, (1, 3), 0), f)
    assert x_bits(f)[1] == 1 and x_bits(f)[3] == 1
    f2 = ErrorFrame(n=7, rows=4)
    set_lane(f2, "z", 3, 0, 1)            # Z on target
    propagate(GateEvent(CNOT, (1, 3), 0), f2)
    assert z_bits(f2)[1] == 1 and z_bits(f2)[3] == 1


def test_cphase_propagation():
    f = ErrorFrame(n=7, rows=4)
    set_lane(f, "x", 0, 0, 1)
    propagate(GateEvent(CPHASE, (0, 5), 0), f)
    assert z_bits(f)[5] == 1 and x_bits(f)[0] == 1 and z_bits(f)[0] == 0


def test_zero_frame_fixed_under_gates():
    f = ErrorFrame(n=7, rows=4)
    for ev in (GateEvent(HADAMARD, (0,), 0), GateEvent(CNOT, (0, 1), 1),
               GateEvent(CPHASE, (2, 3), 2)):
        propagate(ev, f)
    assert not x_bits(f).any() and not z_bits(f).any()


# -- syndrome extraction ------------------------------------------------------

def _extract(eng, f, error_type, rng):
    """Lane 0's syndrome bits from one preparation that must verify."""
    f.pools = [eng.pools(rng)]
    assert eng.attempt_preparation(f, rng, 1) == 1
    s = eng.couple_and_measure(f, 1, error_type)[0]
    return np.array([(s >> l) & 1 for l in range(eng.rows)], dtype=np.uint8)


def test_extract_zero_noise_zero_frame():
    eng = engine()
    f = ErrorFrame(n=7, rows=4)
    assert not _extract(eng, f, "X", stream(0, 0)).any()


@pytest.mark.parametrize("j", range(7))
def test_extract_single_x_error_gives_column(j):
    eng = engine()
    f = ErrorFrame(n=7, rows=4)
    set_lane(f, "x", j, 0, 1)
    assert np.array_equal(_extract(eng, f, "X", stream(0, j)), eng.code.H[:, j])


def test_extract_single_z_error_z_type(golay):
    eng = engine("golay")
    f = ErrorFrame(n=23, rows=12)
    set_lane(f, "z", 11, 0, 1)
    assert np.array_equal(_extract(eng, f, "Z", stream(0, 1)), eng.code.H[:, 11])


def test_verified_fraction_tracks_alpha():
    # cross-module consistency at gamma = 1e-3, where the linearized
    # verified-fraction formula is inside its validity range
    code = codes.construct_code("golay")
    noise = NoiseParams(1e-3, 0.0, 1)
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
    # reads frac - alpha = -0.0174: the model's alpha omits the H and M
    # failures of the rows verification bits (~2/3 * rows * 2 gamma, ROADMAP
    # item 3); once alpha counts them, tighten this bound back toward 0.004
    assert abs(frac - alpha) <= 0.02


def _sequential_unverified(verified: np.ndarray, lanes: int, max_attempts: int) -> int:
    """Lanes whose ``max_attempts`` attempts all fail when each lane in turn
    retries on the next samples of one sequence."""
    at = unverified = 0
    for _ in range(lanes):
        for _ in range(max_attempts):
            at += 1
            if verified[at - 1]:
                break
        else:
            unverified += 1
    return unverified


def test_unverified_lanes_counted():
    # heavy noise leaves lanes unverified; the batch's G+V pool, replayed
    # from its stream (the first of five spawned from the batch stream),
    # says how many
    eng = engine(gamma=0.3, eps=0.3)
    mask = (1 << 64) - 1
    images = simulator._draw(eng._prep, stream(5, 0).spawn(5)[0], simulator.POOL_ROWS)
    bits = np.unpackbits(images.view(np.uint8), axis=1, bitorder="little")
    # X bits of the verification qubits, which follow the ancilla
    verified = ~bits[:, eng.n:eng.n + eng.rows].any(axis=1)
    for max_attempts in (1, 3):
        f = ErrorFrame(n=7, rows=eng.rows, pools=[eng.pools(stream(5, 0))])
        eng.prepare_verified(f, mask, max_attempts=max_attempts)
        assert f.unverified == _sequential_unverified(verified, 64, max_attempts) > 0
        quiet_eng = engine()
        quiet = ErrorFrame(n=7, rows=eng.rows, pools=[quiet_eng.pools(stream(5, 0))])
        quiet_eng.prepare_verified(quiet, mask, max_attempts=max_attempts)
        assert quiet.unverified == 0


def test_prepare_verified_matches_sequential_retries(monkeypatch):
    # G+V samples from a fixed sequence: sample k carries k in its ancilla
    # bits and fails verification where ``fails`` says.  Runs of 7 and 12
    # failures inside the first refill exhaust a lane's attempts, and a
    # run of 20 crosses the refill, so some lane spends its attempts on
    # both sides of it.  Calls alternate between limits of 8 and 5
    # attempts.  Every lane must keep the sample that per-lane sequential
    # retries give it.
    eng = engine()
    n, rows = eng.n, eng.rows
    pool_rows = simulator.POOL_ROWS
    m = len(eng._prep.qubits)
    fails = np.random.default_rng(8).random(3 * pool_rows) < 0.3
    fails[120:127] = True
    fails[200:212] = True
    fails[pool_rows - 12:pool_rows + 8] = True
    values = [(k & 127) | (k >> 7) << m | int(fails[k]) << n for k in range(3 * pool_rows)]
    images = np.array([[v & (2**64 - 1), v >> 64] for v in values], dtype=np.uint64)
    chunks = iter(np.split(images, 3))

    def draw(table, rng, count):
        assert table is eng._prep and count == pool_rows
        return next(chunks)

    monkeypatch.setattr(simulator, "_draw", draw)
    gen = np.random.default_rng(9)
    masks = [(1 << 64) - 1] * 4 + [int(v) for v in gen.integers(1, 2**63, 8)]
    f = ErrorFrame(n=n, rows=rows, pools=[eng.pools(stream(0, 0))])
    at = unverified = 0
    crossed, inside = False, set()
    for call, mask in enumerate(masks):
        max_attempts = (8, 5)[call % 2]
        eng.prepare_verified(f, mask, max_attempts=max_attempts)
        for lane in range(64):
            if not (mask >> lane) & 1:
                continue
            start = at
            for _ in range(max_attempts):
                at += 1
                if not fails[at - 1]:
                    break
            else:
                unverified += 1
                crossed |= start < pool_rows <= at - 1
                if at <= pool_rows:
                    inside.add(max_attempts)
            kept = sum(((f.x[q] >> lane) & 1) << j for j, q in enumerate(range(n, 2 * n)))
            kept |= sum(((f.z[q] >> lane) & 1) << (7 + j) for j, q in enumerate(range(n, 2 * n)))
            assert kept == at - 1, (mask, lane)
            assert (f.x[2 * n] >> lane) & 1 == fails[at - 1]
    assert crossed and inside == {8, 5} and at > pool_rows
    assert f.unverified == unverified


def test_prepare_verified_needs_an_attempt():
    with pytest.raises(ValueError):
        engine().prepare_verified(ErrorFrame(n=7, rows=4), 1, max_attempts=0)


@pytest.mark.parametrize("name", ["hamming", "golay", "bch31"])
def test_preparation_draws_every_hole(name):
    # one preparation attempt charges memory noise on all N_h holes,
    # including those of gate-free G and V steps
    code = codes.construct_code(name)
    sf = codes.standard_form(codes.standardized_code(code))
    params = codes.derived_params(sf, code.n, code.k, code.d, name=name)
    prep, _ = simulator._phase_tables(network.synthesize_networks(sf, params),
                                      NoiseParams(1e-3, 1e-3, 1))
    assert prep.hole_slots == params.N_h


def _forward_images(table) -> np.ndarray:
    """Images of every fault of a phase by forward propagation.

    Each (location, Pauli) of the table gets its own lane of one wide frame,
    is injected at its own point of the phase and pushed forward through
    the rest of it with ``propagate``.  One extra lane starts with
    an X and a Z on every phase qubit, to follow an incoming error."""
    rows = table.images.shape[0]
    lanes = (1 << (rows + 1)) - 1
    top = max(table.qubits) + 1
    frame = ErrorFrame(n=top, rows=0)
    for q in table.qubits:
        frame.x[q] = frame.z[q] = 1 << rows
    at = {}
    for step, slot, qubits, paulis, row in table.sites:
        at.setdefault((step, slot), []).append((qubits, paulis, row))

    def inject(key):
        for qubits, paulis, row in at.pop(key, ()):
            for p, ps in enumerate(paulis):
                for q, pauli in zip(qubits, ps):
                    if pauli.flips_x:
                        frame.x[q] ^= 1 << (row + p)
                    if pauli.flips_z:
                        frame.z[q] ^= 1 << (row + p)

    inject((-1, 0))
    for s, (gates, _, _) in enumerate(table.program):
        for g, ev in enumerate(gates):
            if ev.kind in (network.PREP_ZERO, network.PREP_PLUS):
                q = ev.qubits[0]
                frame.x[q] = frame.z[q] = 0
                inject((s, g))
            else:
                inject((s, g))
                propagate(ev, frame, lanes)
        inject((s, len(gates)))
    assert not at, "a site outside the program"
    planes = [frame.x[q] for q in table.qubits] + [frame.z[q] for q in table.qubits]
    nbytes = (rows + 8) // 8
    bits = np.unpackbits(np.frombuffer(b"".join(v.to_bytes(nbytes, "little")
                                                for v in planes), dtype=np.uint8)
                         .reshape(len(planes), nbytes), axis=1, bitorder="little")
    return bits[:, :rows + 1].T


@pytest.mark.parametrize("name", codes.code_names())
def test_fault_table_matches_forward_propagation(name):
    code = codes.construct_code(name)
    sf = codes.standard_form(codes.standardized_code(code))
    params = codes.derived_params(sf, code.n, code.k, code.d, name=name)
    ns = network.synthesize_networks(sf, params)
    prep, readout = simulator._phase_tables(ns, NoiseParams(1e-3, 1e-4, 5))
    for label, table in (("G+V", prep), ("X", readout["X"]), ("Z", readout["Z"])):
        rows = table.images.shape[0]
        starts = sorted(row + p for _, _, _, paulis, row in table.sites
                        for p in range(len(paulis)))
        assert starts == list(range(rows)), label
        m = len(table.qubits)
        compiled = np.unpackbits(table.images.view(np.uint8), axis=1,
                                 bitorder="little")[:, :2 * m]
        forward = _forward_images(table)
        assert np.array_equal(compiled, forward[:rows]), label
        if label == "G+V":
            # every ancilla and verification qubit is prepared inside G+V
            assert not forward[rows].any()
        # every gate of the program is one location of its table
        assert sum(len(g) for g, _, _ in table.program) == sum(
            1 for step, slot, *_ in table.sites
            if step >= 0 and slot < len(table.program[step][0])), label


@pytest.mark.parametrize("name", codes.code_names())
def test_readout_map_matches_propagation(name):
    # the compiled readout map against gate-by-gate propagation on random
    # frames: the same data planes and syndromes on the masked lanes, and
    # nothing changed on the others
    code = codes.standardized_code(codes.construct_code(name))
    sf = codes.standard_form(code)
    params = codes.derived_params(sf, code.n, code.k, code.d, name=name)
    ns = network.synthesize_networks(sf, params)
    _, readout = simulator._phase_tables(ns, NoiseParams())
    n = code.n
    syndrome_bits = [[n + i for i in np.flatnonzero(row)] for row in code.H]
    gen = np.random.default_rng(n)
    for error_type, table in readout.items():
        rmap = simulator._readout_map(table, n, syndrome_bits)
        for mask in ((1 << 64) - 1, int(gen.integers(1, 2**63))):
            frame = ErrorFrame(n=n, rows=ns.rows)
            frame.x = [int(v) for v in gen.integers(0, 2**64, frame.width, dtype=np.uint64)]
            frame.z = [int(v) for v in gen.integers(0, 2**64, frame.width, dtype=np.uint64)]
            ref = ErrorFrame(n=n, rows=ns.rows, x=list(frame.x), z=list(frame.z))
            got = simulator._apply_readout(rmap, frame, mask)
            for gates, _, _ in table.program:
                for ev in gates:
                    propagate(ev, ref, mask)
            want = _lane_syndromes(ref.x[n:2 * n], code.H, mask)
            assert got == want, error_type
            assert frame.x[:n] == ref.x[:n] and frame.z[:n] == ref.z[:n], error_type
            assert frame.x[2 * n:] == ref.x[2 * n:] and frame.z[2 * n:] == ref.z[2 * n:]


def test_unverified_tally_independent_of_workers():
    cfg = SimConfig("hamming", NoiseParams(0.3, 0.3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    q_max=2, max_trials=128, chunk_batches=2)
    s1 = estimate_pbar_mc(cfg, seed=4, workers=1)
    s2 = estimate_pbar_mc(cfg, seed=4, workers=2)
    assert s1.unverified == s2.unverified > 0
    assert np.array_equal(s1.n_f, s2.n_f) and np.array_equal(s1.n_s, s2.n_s)


def test_engine_cache_bounded(monkeypatch):
    monkeypatch.setattr(simulator, "_engine_cache", OrderedDict())
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    configs = [SimConfig("hamming", NoiseParams(1e-4 * (i + 1), 0.0, 1), pp)
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


def _lane_syndromes(plane: list[int], checks: np.ndarray, mask: int) -> list[int]:
    """Per-lane loop: bit l of lane L's syndrome is the parity of lane L of
    ``plane`` over check row l; lanes outside the mask read 0."""
    out = [0] * 64
    for lane in range(64):
        if (mask >> lane) & 1:
            for l in range(len(checks)):
                parity = sum((plane[q] >> lane) & 1 for q in np.flatnonzero(checks[l]))
                out[lane] |= (parity & 1) << l
    return out


@pytest.mark.parametrize("rows,n", [(12, 23), (85, 127)])
def test_syndromes_match_per_lane_reference(rows, n):
    # the vectorised reduction against a per-lane loop, on both sides of
    # the 64-row packing boundary: data checks read as a readout of the
    # data's rest, which has no gates and writes nothing back
    gen = np.random.default_rng(rows)
    checks = gen.integers(0, 2, (rows, n), dtype=np.uint8)
    frame = ErrorFrame(n=n, rows=0)
    frame.x = [int(v) for v in gen.integers(0, 2**63, 2 * n)]
    frame.z = [int(v) for v in gen.integers(0, 2**63, 2 * n)]
    mask = int(gen.integers(0, 2**63)) | (1 << 63)
    rest = simulator._fault_table([], list(range(n)), NoiseParams(), (range(n), 0.0))
    for k, plane in enumerate((frame.x, frame.z)):
        rmap = simulator._readout_map(rest, 0, [[k * n + i for i in np.flatnonzero(row)]
                                                for row in checks])
        got = simulator._apply_readout(rmap, frame, mask)
        assert got == _lane_syndromes(plane[:n], checks, mask)


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
    f = ErrorFrame(n=7, rows=4, pools=[eng.pools(stream(1, 0))])
    pending = {}
    for _ in range(3):
        eng.add_noise(f, 1, "rest")
        corrected, crashed = recover_block(f, pending, eng, "X", 1)
        assert corrected == 0 and crashed == 0
    assert not x_bits(f).any() and not z_bits(f).any()
    assert 0 not in pending


@pytest.mark.parametrize("plane,qubit", [("x", 0), ("x", 4), ("z", 2), ("z", 6)])
def test_planted_single_error_corrected(plane, qubit):
    eng = engine(pp=ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    f = ErrorFrame(n=7, rows=4, pools=[eng.pools(stream(2, qubit))])
    set_lane(f, plane, qubit, 0, 1)
    error_type = "X" if plane == "x" else "Z"
    eng.add_noise(f, 1, "rest")
    corrected, crashed = recover_block(f, {}, eng, error_type, 1)
    assert corrected == 1 and crashed == 0
    assert not x_bits(f)[:7].any() and not z_bits(f)[:7].any()


def test_planted_y_error_corrected_in_one_round():
    eng = engine("golay", pp=ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    f = ErrorFrame(n=23, rows=12, pools=[eng.pools(stream(3, 0))])
    set_lane(f, "x", 9, 0, 1)
    set_lane(f, "z", 9, 0, 1)
    eng.add_noise(f, 1, "rest")
    recover_block(f, {}, eng, "Z", 1)
    recover_block(f, {}, eng, "X", 1)
    assert not x_bits(f)[:23].any() and not z_bits(f)[:23].any()


def test_deferred_rounds_follow_the_repetition_rule(monkeypatch):
    # (r, r', r'') = (4, 3, 2): a settled lane takes 4 syndromes, a pending
    # one 2, and the last 6 syndromes of two recoveries are judged
    eng = engine("golay", pp=ProtocolParams(4, 3, 2, parallel_corrections=1.0))
    col = {q: sum(int(b) << i for i, b in enumerate(eng.code.H[:, q])) for q in (5, 11, 17)}
    a, b, c, d = 1, 2, col[5], 4
    f = ErrorFrame(n=eng.n, rows=eng.rows, pools=[eng.pools(stream(5, 0))])
    for lane, q in ((0, 5), (1, 11), (2, 17)):
        set_lane(f, "x", q, lane, 1)
    script = {0: [a, b, a, b, c, d, a, c, c, 7],
              1: [0, 0, 0, col[11], 9, col[11], col[11]],
              2: [col[17], col[17], col[17], a, 0, 0, 0],
              3: [a, b, c, d, 0, a, b, a, b, 0]}
    calls = []

    def scripted(frame, mask, error_type):
        lanes = [lane for lane in range(64) if (mask >> lane) & 1]
        calls.append(lanes)
        out = [0] * 64
        for lane in lanes:
            out[lane] = script[lane].pop(0)
        return out

    monkeypatch.setattr(eng, "couple_and_measure", scripted)
    pending = {}
    rounds = [
        # (extractions, pending after, corrected)
        ([[0, 1, 2, 3], [0, 2, 3], [0, 2, 3], [0, 2, 3]],
         {0: [a, b, a, b], 3: [a, b, c, d]}, 1 << 2),
        # lane 3's zero first syndrome settles it
        ([[0, 1, 2, 3], [0]], {0: [a, b, a, b, c, d]}, 0),
        # a (three times in all) has left the last six: no agreement
        ([[0, 1, 2, 3], [0, 3], [3], [3]], {0: [a, b, c, d, a, c], 3: [a, b, a, b]}, 0),
        ([[0, 1, 2, 3], [0, 1], [1], [1]], {}, 0b11),
    ]
    for extractions, after, corrected in rounds:
        calls.clear()
        assert recover_block(f, pending, eng, "X", 0b1111) == (corrected, 0)
        assert calls == extractions
        assert pending == after
    assert not any(script.values())
    assert not any(f.x) and not any(f.z)


# -- trials ---------------------------------------------------------------------

def test_zero_noise_trial_survives():
    eng = engine()
    stats = run_batch(eng, [stream(4, 0)], mask=1)
    assert stats.n_f.sum() == 0 and stats.n_s[10] == 1


def test_zero_noise_batch_all_survive():
    eng = engine("golay", pp=ProtocolParams(4, 3, 3, parallel_corrections=1.0))
    stats = run_batch(eng, [stream(5, 0)])
    assert stats.n_f.sum() == 0
    assert stats.n_s[10] == 64


def test_maximal_noise_crashes_fast():
    # a fully scrambled frame still lands in a correctable coset sometimes,
    # so demand near-certain crash within three steps rather than one
    eng = engine(gamma=1.0, eps=1.0)
    stats = simulator.TrialStats.empty()
    for b in range(8):
        stats.merge(run_batch(eng, [stream(6, b)]))
    assert stats.p(1) > 0.6
    assert stats.n_s[3] / stats.trials < 0.03
    assert stats.n_s[10] == 0


def test_pbar_within_factor_three_of_model():
    noise = NoiseParams(1e-2, 1e-4, 1)
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    cfg = SimConfig("hamming", noise, pp, target_failures=100)
    stats = estimate_pbar_mc(cfg, seed=42)
    est = analytic.crash_estimate(codes.params_from_catalog("hamming"), noise, pp)
    assert est.pbar / 3 <= stats.pbar <= est.pbar * 3


def test_degenerate_stats_flagged():
    eng = engine(gamma=1.0, eps=1.0)
    cfg = SimConfig("hamming", NoiseParams(1.0, 1.0, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=100, max_trials=8192)
    stats = estimate_pbar_mc(cfg, seed=7)
    assert stats.censored
    assert stats.p(1) > 0.5
    assert math.isnan(stats.pbar)


def test_stationarity_and_stderr():
    cfg = SimConfig("hamming", NoiseParams(3e-3, 3e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=150)
    stats = estimate_pbar_mc(cfg, seed=11)
    assert all(stats.n_f[q] >= 100 for q in range(7, 11))
    ratio = stats.p(10) / stats.p(7)
    assert 0.7 <= ratio <= 1.3
    # roughly 5% statistical error at O(100) failures per bin
    assert 0.01 <= stats.stderr / stats.pbar <= 0.10


def test_transient_dies_away():
    # the hazard climbs from below toward its plateau and is flat by Q >= 6
    cfg = SimConfig("hamming", NoiseParams(3e-3, 3e-3, 1),
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
        cfg = SimConfig("hamming", NoiseParams(gamma, gamma / 100, 1),
                        pp, target_failures=100)
        pbars.append(estimate_pbar_mc(cfg, seed=17).pbar)
    slope = math.log(pbars[1] / pbars[0]) / math.log(10 / 3)
    assert 1.0 <= slope <= 3.0


def _counts(stats) -> tuple:
    return stats.n_f.tolist(), stats.n_s.tolist(), stats.trials, stats.unverified


def test_frame_split_invariance():
    # a batch draws from its own pools in lane order, so it gives the same
    # counts whichever batches share its frame
    eng = engine(gamma=1e-2, eps=1e-2, pp=ProtocolParams(3, 2, 2, parallel_corrections=1.0))
    whole = run_batch(eng, [stream(9, b) for b in range(3)])
    parts = simulator.TrialStats.empty()
    for b in range(3):
        parts.merge(run_batch(eng, [stream(9, b)]))
    assert _counts(whole) == _counts(parts)
    assert whole.trials == 192 and whole.n_f.sum() > 0
    # chunks of three batches: one frame per chunk at one worker, one frame
    # per batch at two or three; the last batch runs 38 of its lanes
    cfg = SimConfig("hamming", NoiseParams(1e-2, 1e-2, 1),
                    ProtocolParams(3, 2, 2, parallel_corrections=1.0),
                    target_failures=10**6, max_trials=550, chunk_batches=3)
    runs = [_counts(estimate_pbar_mc(cfg, seed=9, workers=w)) for w in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][2] == 550


def test_trial_cap_is_exact():
    # the batch that holds trial max_trials runs only the lanes up to it
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1), pp,
                    target_failures=10**6, max_trials=100)
    stats = estimate_pbar_mc(cfg, seed=3)
    assert stats.trials == 100 and stats.censored
    assert stats.n_f[1] + stats.n_s[1] == 100
    split = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1), pp,
                      target_failures=10**6, max_trials=100, chunk_batches=2)
    one, two = (_counts(estimate_pbar_mc(split, seed=3, workers=w)) for w in (1, 2))
    assert one == two and one[2] == 100


# Counts of short runs, pinned as literals: a change that only makes the MC
# faster must keep them byte for byte.  Each entry is (code, (gamma, eps,
# t_m), (r, r', r''), q_max, max_trials, chunk_batches, seed) and the
# resulting (n_f, n_s, trials, unverified).  The golay entries are the
# benchmark's mc-noisy and mc-quiet calls; the hamming 2112-trial entry runs
# 33 batches in two frames; the last one runs out of preparation attempts.
PINNED_COUNTS = [
    (("golay", (3e-3, 3e-5, 25), (4, 3, 3), 10, 128, 2, 101),
     ([0, 0, 0, 1, 1, 2, 3, 2, 0, 0, 1],
      [0, 128, 128, 127, 126, 124, 121, 119, 119, 119, 118], 128, 0)),
    (("golay", (1e-4, 1e-6, 25), (4, 3, 3), 10, 128, 2, 101),
     ([0] * 11, [0] + [128] * 10, 128, 0)),
    (("hamming", (1e-2, 1e-4, 1), (2, 2, 2), 10, 2112, 33, 101),
     ([0, 48, 85, 84, 80, 53, 82, 68, 64, 72, 67],
      [0, 2064, 1979, 1895, 1815, 1762, 1680, 1612, 1548, 1476, 1409], 2112, 0)),
    (("bch31", (2e-3, 2e-5, 1), (3, 2, 2), 10, 128, 2, 101),
     ([0, 0, 1, 1, 2, 2, 2, 2, 0, 1, 0],
      [0, 128, 127, 126, 124, 122, 120, 118, 118, 117, 117], 128, 0)),
    (("hamming", (0.3, 0.3, 1), (2, 2, 2), 2, 128, 2, 4),
     ([0, 95, 28], [0, 33, 5], 128, 12)),
]


@pytest.mark.parametrize("config,counts", PINNED_COUNTS,
                         ids=[f"{c[0]}-{c[1][0]:g}" for c, _ in PINNED_COUNTS])
def test_mc_counts_pinned(config, counts):
    code, noise, (r, rp, rpp), q_max, trials, chunk, seed = config
    cfg = SimConfig(code, NoiseParams(*noise),
                    ProtocolParams(r, rp, rpp, parallel_corrections=1.0), q_max=q_max,
                    target_failures=10**9, max_trials=trials, chunk_batches=chunk)
    assert _counts(estimate_pbar_mc(cfg, seed=seed)) == counts


def test_lanes_any_width():
    gen = np.random.default_rng(3)
    for width in (8, 64, 128, 2048):
        for mask in (0, (1 << width) - 1, int.from_bytes(gen.bytes(width // 8), "little")):
            assert list(simulator._lanes(mask)) == [l for l in range(width) if mask >> l & 1]


def test_worker_count_invariance():
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=30)
    s1 = estimate_pbar_mc(cfg, seed=23, workers=1)
    s2 = estimate_pbar_mc(cfg, seed=23, workers=3)
    assert np.array_equal(s1.n_f, s2.n_f)
    assert np.array_equal(s1.n_s, s2.n_s)
    assert s1.trials == s2.trials


@pytest.mark.parametrize("workers", [0, -2])
def test_nonpositive_workers_refused(workers):
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=30, max_trials=64)
    with pytest.raises(ValueError, match="workers"):
        estimate_pbar_mc(cfg, seed=23, workers=workers)


@pytest.mark.parametrize("field,value", [("target_failures", 0), ("target_failures", -1),
                                         ("chunk_batches", 0)])
def test_nonpositive_stop_rule_refused(field, value):
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=30, max_trials=64)
    with pytest.raises(ValueError, match=field):
        estimate_pbar_mc(dataclasses.replace(cfg, **{field: value}), seed=23)


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
        SimEngine(code, NoiseParams(1e-3, 1e-5, 1),
                  ProtocolParams(6, 2, 2, n_rep=1.0))


@pytest.mark.parametrize("name,noise,pp", [
    ("golay", NoiseParams(1e-4, 1e-6, 25),
     ProtocolParams(4, 3, 3, parallel_corrections=1.0)),
    ("hamming", NoiseParams(3e-3, 3e-5, 1),
     ProtocolParams(2, 2, 2, n_rep=2.5)),
])
def test_engine_and_model_share_resting_time(name, noise, pp):
    eng = SimEngine(codes.construct_code(name), noise, pp)
    assert eng.t_r == analytic.crash_estimate(eng.params, noise, pp).t_r


def test_csv_rows_schema():
    cfg = SimConfig("hamming", NoiseParams(0.0, 0.0, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=1, max_trials=64)
    stats = estimate_pbar_mc(cfg, seed=1)
    rows = simulator.stats_csv_rows(cfg, stats)
    assert len(rows) == 10
    expected_keys = {"code", "gamma", "eps_over_gamma", "t_m", "n_rep", "r",
                     "r_prime", "r_dprime", "Q", "n_f", "n_s", "p_Q", "pbar",
                     "stderr", "seed", "trials"}
    assert set(rows[0]) == expected_keys


def test_bch127_43_batch_pinned():
    # one 64-trial batch on a code whose ball holds only weights <= 3 of its
    # t = 6, so decoding leans on the layer scan
    eng = SimEngine(codes.construct_code("bch127-43"),
                    NoiseParams(1e-3, 1e-5, 25),
                    ProtocolParams(4, 3, 3, parallel_corrections=1.0))
    stats = run_batch(eng, [stream(1, 0)])
    assert stats.n_f.tolist() == [0, 14, 16, 5, 10, 6, 8, 3, 0, 1, 1]
    assert stats.n_s.tolist() == [0, 50, 34, 29, 19, 13, 5, 2, 2, 1, 0]


def test_qr47_engine_fits_in_4gb():
    # the address-space limit applies to the child process only
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from ftqec import codes, simulator\n"
        "from ftqec.noise import NoiseParams\n"
        "from ftqec.protocol import ProtocolParams\n"
        "simulator.SimEngine(codes.construct_code('qr47'),\n"
        "                    NoiseParams(1e-3, 1e-5, 25),\n"
        "                    ProtocolParams(4, 3, 3, parallel_corrections=1.0))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(simulator.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 1 << 20     # peak RSS under 1 GiB, in KiB
