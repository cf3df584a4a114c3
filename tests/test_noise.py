"""The failure model as the simulator samples it: ``simulator._Injector``
acting on a lane-packed ``ErrorFrame``, 64 trial lanes per call."""
import numpy as np
import pytest
from scipy.stats import chisquare

from ftqec import codes
from ftqec.network import GateEvent, MEASURE, PREP_ZERO
from ftqec.noise import (NoiseParams, Pauli, TWO_QUBIT_FAILURES,
                         idle_flip_probability, stream)
from ftqec.protocol import ProtocolParams
from ftqec.simulator import MASK_ALL, ErrorFrame, SimEngine, _Injector


def lane_bits(word: int) -> np.ndarray:
    """The 64 lane bits of one packed frame entry, lane 0 first."""
    return np.unpackbits(np.array([word], dtype=np.uint64).view(np.uint8),
                         bitorder="little")


def lane_paulis(frame: ErrorFrame, q: int) -> np.ndarray:
    """Per-lane Pauli of qubit q, coded as in ``Pauli`` (x + 2 z)."""
    return lane_bits(frame.x[q]) + 2 * lane_bits(frame.z[q])


def flip_count(frame: ErrorFrame) -> int:
    return sum(bin(x | z).count("1") for x, z in zip(frame.x, frame.z))


def test_params_validation():
    with pytest.raises(ValueError):
        NoiseParams(gamma2=1.5)
    with pytest.raises(ValueError):
        NoiseParams(t_m=0)


def test_two_qubit_zero_rate_is_identity():
    inj = _Injector(stream(1, 0), MASK_ALL)
    frame = ErrorFrame(n=1, rows=0)
    for _ in range(1000):
        inj.two_qubit(frame, 0, 1, 0.0)
    assert flip_count(frame) == 0


def test_two_qubit_forced_failure_uniform():
    # gamma2 = 1: each of the 15 failures at 1/15 within 3.5 sigma over 1e6 draws
    inj = _Injector(stream(2, 0), MASK_ALL)
    n = 1_000_000
    tally = np.zeros(16, dtype=np.int64)
    for _ in range(n // 64):
        frame = ErrorFrame(n=1, rows=0)
        inj.two_qubit(frame, 0, 1, 1.0)
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
    inj = _Injector(stream(3, 0), MASK_ALL)
    n = 1_000_000
    tally = np.zeros(4, dtype=np.int64)
    for _ in range(n // 64):
        frame = ErrorFrame(n=1, rows=0)
        inj.single(frame, 0, 0.3)
        tally += np.bincount(lane_paulis(frame, 0), minlength=4)
    for pauli in (Pauli.X, Pauli.Y, Pauli.Z):
        frac = tally[pauli] / n
        sigma = (0.1 * 0.9 / n) ** 0.5
        assert abs(frac - 0.1) < 4 * sigma


@pytest.mark.parametrize("kind,param", [(PREP_ZERO, "gamma_p"), (MEASURE, "gamma_m")])
def test_prep_measure_marginals(kind, param):
    # through the engine's own phase runner: a |0> preparation keeps only
    # its X flips (rate 2 gamma_p / 3), a measurement fails at gamma_m
    noise = NoiseParams(**{param: 0.09})
    eng = SimEngine(codes.construct_code("hamming"), noise,
                    ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    rate = 2 * 0.09 / 3 if kind == PREP_ZERO else 0.09
    steps = [(0, [GateEvent(kind, (0,), 0)])]
    inj = _Injector(stream(4, 0), MASK_ALL)
    n = 200_000
    hits = 0
    for _ in range(n // 64):
        frame = ErrorFrame(n=eng.n, rows=eng.rows)
        eng._run_phase(frame, inj, steps, [], [], MASK_ALL)
        if kind == PREP_ZERO:
            assert frame.z[0] == 0
        hits += flip_count(frame)
    n = n // 64 * 64
    sigma = (n * rate * (1 - rate)) ** 0.5
    assert abs(hits - rate * n) < 4 * sigma


def test_memory_noise_zero_eps():
    inj = _Injector(stream(5, 0), MASK_ALL)
    frame = ErrorFrame(n=4, rows=0)
    inj.holes_redistributed(frame, 8, range(8), 0.0)
    inj.idle(frame, range(8), 0.0, 100)
    assert flip_count(frame) == 0


def test_memory_noise_mean_count():
    # 16 calls of 1000 resting slots x 64 lanes at eps = 1e-3: mean 1024
    # failures within 3.5 sigma; spread over 64000 (qubit, lane) cells per
    # call, coinciding failures are too rare to matter
    inj = _Injector(stream(6, 0), MASK_ALL)
    count = 0
    for _ in range(16):
        frame = ErrorFrame(n=500, rows=0)
        inj.holes_redistributed(frame, 1000, range(1000), 1e-3)
        count += flip_count(frame)
    mean = 16 * 1000 * 64 * 1e-3
    assert abs(count - mean) < 3.5 * mean ** 0.5


def test_memory_noise_forced_single_location():
    # a one-step rest at eps = 1 flips every lane
    inj = _Injector(stream(7, 0), MASK_ALL)
    frame = ErrorFrame(n=1, rows=0)
    inj.idle(frame, [0], 1.0, 1)
    assert frame.x[0] | frame.z[0] == MASK_ALL


def test_memory_noise_exact_marginal():
    # idle noise draws each qubit independently; X or Y components: 2/3 of
    # failures flip the X plane
    inj = _Injector(stream(8, 0), MASK_ALL)
    frame = ErrorFrame(n=2344, rows=0)
    inj.idle(frame, range(frame.width), 0.01, 1)
    n = frame.width * 64
    flips_x = sum(bin(v).count("1") for v in frame.x)
    expected = n * 0.01 * 2 / 3
    sigma = (n * 0.01 * 2 / 3) ** 0.5
    assert abs(flips_x - expected) < 4 * sigma


def test_determinism_same_seed():
    frames = []
    for _ in range(2):
        inj = _Injector(stream(9, 5), MASK_ALL)
        frame = ErrorFrame(n=1, rows=0)
        for _ in range(50):
            inj.two_qubit(frame, 0, 1, 0.4)
            inj.single(frame, 0, 0.4)
        frames.append((frame.x, frame.z))
    assert frames[0] == frames[1]
    assert any(frames[0][0]) or any(frames[0][1])


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
