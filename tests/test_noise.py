"""The failure model as the simulator samples it: a phase's single-fault
table (``simulator._fault_table``), swept from identity ends so that its
rows are images, drawn by ``frame_helpers.draw`` and XORed into a
lane-packed bit-plane frame, 64 trial lanes per call."""
import numpy as np
import pytest
from scipy.stats import chisquare

from ftqec import codes
from ftqec.network import CNOT, GateEvent, MEASURE, PREP_ZERO
from ftqec.noise import (NoiseParams, Pauli, TWO_QUBIT_FAILURES,
                         idle_flip_probability, stream)
from ftqec.protocol import ProtocolParams
from ftqec.simulator import SimEngine, _fault_table, _program

from frame_helpers import MASK_ALL, PlaneFrame, draw, identity_ends, image_tables, scatter


def inject(table, frame: PlaneFrame, rng) -> None:
    """One draw of a phase on all 64 lanes of the frame."""
    scatter(frame, table, draw(table, rng, 64), range(64))


def lane_bits(word: int) -> np.ndarray:
    """The 64 lane bits of one packed frame entry, lane 0 first."""
    return np.unpackbits(np.array([word], dtype=np.uint64).view(np.uint8),
                         bitorder="little")


def lane_paulis(frame: PlaneFrame, q: int) -> np.ndarray:
    """Per-lane Pauli of qubit q, coded as in ``Pauli`` (x + 2 z)."""
    return lane_bits(frame.x[q]) + 2 * lane_bits(frame.z[q])


def flip_count(frame: PlaneFrame) -> int:
    return sum(bin(x | z).count("1") for x, z in zip(frame.x, frame.z))


def cnot_table(gamma: float, idle_rate: float = 0.0):
    """One CNOT(0, 1), optionally after an idle on qubit 0."""
    return _fault_table(_program([GateEvent(CNOT, (0, 1), 0)]), [0, 1],
                        NoiseParams(gamma), identity_ends(2), ([0], idle_rate))


def idle_table(qubits, rate: float):
    """Three-Pauli idles and nothing after them: identity images."""
    return _fault_table([], list(qubits), NoiseParams(), identity_ends(len(qubits)),
                        (list(qubits), rate))


def hole_table(slots: int, register, eps: float):
    """One gate-free step with ``slots`` holes spread over ``register``."""
    return _fault_table([([], slots, register)], list(register), NoiseParams(eps=eps),
                        identity_ends(len(register)))


def test_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(1.5)
    with pytest.raises(ValueError):
        NoiseParams(t_m=0)


def test_two_qubit_zero_rate_is_identity():
    table = cnot_table(0.0)
    rng = stream(1, 0)
    frame = PlaneFrame(n=2)
    for _ in range(1000):
        inject(table, frame, rng)
    assert flip_count(frame) == 0


def test_two_qubit_forced_failure_uniform():
    # gamma = 1: each of the 15 failures at 1/15 within 3.5 sigma over 1e6
    # draws; the CNOT after the failure permutes the 15, so its images are
    # uniform exactly when the failures are
    table = cnot_table(1.0)
    rng = stream(2, 0)
    n = 1_000_000
    tally = np.zeros(16, dtype=np.int64)
    for _ in range(n // 64):
        frame = PlaneFrame(n=2)
        inject(table, frame, rng)
        pair = 4 * lane_paulis(frame, 0) + lane_paulis(frame, 1)
        tally += np.bincount(pair, minlength=16)
    counts = {(Pauli(i // 4), Pauli(i % 4)): int(c)
              for i, c in enumerate(tally) if c}
    assert sum(counts.values()) == n
    assert set(counts) == set(TWO_QUBIT_FAILURES)
    exp = n / 15
    sigma = (n * (1 / 15) * (14 / 15)) ** 0.5
    for f, c in counts.items():
        assert abs(c - exp) < 3.5 * sigma
    stat, p = chisquare(list(counts.values()))
    assert p > 0.001


def test_single_qubit_marginals():
    table = idle_table([0], 0.3)
    rng = stream(3, 0)
    n = 1_000_000
    tally = np.zeros(4, dtype=np.int64)
    for _ in range(n // 64):
        frame = PlaneFrame(n=2)
        inject(table, frame, rng)
        tally += np.bincount(lane_paulis(frame, 0), minlength=4)
    for pauli in (Pauli.X, Pauli.Y, Pauli.Z):
        frac = tally[pauli] / n
        sigma = (0.1 * 0.9 / n) ** 0.5
        assert abs(frac - 0.1) < 4 * sigma


@pytest.mark.parametrize("kind", [PREP_ZERO, MEASURE])
def test_prep_measure_marginals(kind):
    # a |0> preparation keeps only its X flips (rate 2 gamma / 3), a
    # measurement fails at gamma
    table = _fault_table([([GateEvent(kind, (0,), 0)], 0, ())], [0],
                         NoiseParams(0.09), identity_ends(1))
    rate = 2 * 0.09 / 3 if kind == PREP_ZERO else 0.09
    rng = stream(4, 0)
    n = 200_000
    hits = 0
    for _ in range(n // 64):
        frame = PlaneFrame(n=2)
        inject(table, frame, rng)
        if kind == PREP_ZERO:
            assert frame.z[0] == 0
        hits += flip_count(frame)
    n = n // 64 * 64
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(hits - rate * n) < 4 * sigma


def test_memory_noise_zero_eps():
    rng = stream(5, 0)
    frame = PlaneFrame(n=8)
    inject(hole_table(8, range(8), 0.0), frame, rng)
    inject(idle_table(range(8), idle_flip_probability(0.0, 100)), frame, rng)
    assert flip_count(frame) == 0


def test_memory_noise_mean_count():
    # 16 calls of 1000 resting slots x 64 lanes at eps = 1e-3: mean 1024
    # failures within 3.5 sigma; spread over 64000 (qubit, lane) cells per
    # call, coinciding failures are too rare to matter
    table = hole_table(1000, range(1000), 1e-3)
    rng = stream(6, 0)
    count = 0
    for _ in range(16):
        frame = PlaneFrame(n=1000)
        inject(table, frame, rng)
        count += flip_count(frame)
    mean = 16 * 1000 * 64 * 1e-3
    assert abs(count - mean) < 3.5 * mean ** 0.5


def test_memory_noise_forced_single_location():
    # a one-step rest at eps = 1 flips every lane
    frame = PlaneFrame(n=2)
    inject(idle_table([0], idle_flip_probability(1.0, 1)), frame, stream(7, 0))
    assert frame.x[0] | frame.z[0] == MASK_ALL


def test_memory_noise_exact_marginal():
    # idle noise draws each qubit independently; X or Y components: 2/3 of
    # failures flip the X plane
    frame = PlaneFrame(n=4688)
    table = idle_table(range(frame.n), idle_flip_probability(0.01, 1))
    inject(table, frame, stream(8, 0))
    n = frame.n * 64
    flips_x = sum(bin(v).count("1") for v in frame.x)
    expected = n * 0.01 * 2 / 3
    sigma = (n * 0.01 * 2 / 3) ** 0.5
    assert abs(flips_x - expected) < 4 * sigma


def test_determinism_same_seed():
    table = cnot_table(0.4, idle_rate=0.4)
    frames = []
    for _ in range(2):
        rng = stream(9, 5)
        frame = PlaneFrame(n=2)
        for _ in range(50):
            inject(table, frame, rng)
        frames.append((frame.x, frame.z))
    assert frames[0] == frames[1]
    assert any(frames[0][0]) or any(frames[0][1])


def test_preparation_matches_per_gate_sampler():
    # golay G+V at gamma = 3e-3, eps = 3e-4 against the per-gate sampler
    # this table replaced (one binomial draw per gate, then lanes, then
    # Paulis), which over 192,000 attempts (seed 2026) verified 118,625
    # ancillas, 18,451 of them still carrying an error.  That sampler
    # skipped the holes of gate-free steps; the table charges all of them,
    # which here moves both fractions by about 0.001.
    ref_alpha, ref_corrupt = 118_625 / 192_000, 18_451 / 118_625
    eng = SimEngine(codes.construct_code("golay"), NoiseParams(3e-3, 3e-4, 1),
                    ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    prep = image_tables(eng)["prep"]
    n, m = eng.n, len(prep.qubits)
    attempts = verified = corrupt = 0
    for b in range(300):
        # the draw of one attempt on 64 lanes, as attempt_preparation makes it
        bits = np.unpackbits(draw(prep, stream(7, b), 64).view(np.uint8), axis=1,
                             bitorder="little")
        # verification X bits follow the ancilla's; the ancilla's Z bits
        # start at bit m
        ok = ~bits[:, n:m].any(axis=1)
        bad = bits[:, :n].any(axis=1) | bits[:, m:m + n].any(axis=1)
        attempts += 64
        verified += int(ok.sum())
        corrupt += int((ok & bad).sum())
    alpha, frac = verified / attempts, corrupt / verified
    sigma_alpha = (ref_alpha * (1 - ref_alpha) * (1 / attempts + 1 / 192_000)) ** 0.5
    sigma_frac = (ref_corrupt * (1 - ref_corrupt) * (1 / verified + 1 / 118_625)) ** 0.5
    assert abs(alpha - ref_alpha) < 3 * sigma_alpha
    assert abs(frac - ref_corrupt) < 3 * sigma_frac


def test_streams_independent():
    r0, r1 = stream(10, 0), stream(10, 1)
    assert [r0.integers(100) for _ in range(10)] != \
           [r1.integers(100) for _ in range(10)]


def test_idle_flip_probability_limits():
    assert idle_flip_probability(0.0, 100) == 0.0
    assert idle_flip_probability(0.01, 0) == 0.0
    one_step = idle_flip_probability(0.01, 1)
    assert abs(one_step - 0.01) < 1e-12
    assert idle_flip_probability(0.01, 1e9) == pytest.approx(0.75)
