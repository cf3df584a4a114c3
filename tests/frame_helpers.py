"""Reference frame operations for the tests.

The simulator's ``ErrorFrame`` keeps only each lane's data syndromes.  The
tests keep the errors themselves in a ``PlaneFrame``: one X and one Z bit
plane per qubit, each a Python int whose bit L belongs to lane L.  On it
they run gate-by-gate propagation, scatter drawn fault images into lanes
and read single lanes; ``plane_syndromes`` reduces a plane to the per-lane
syndromes the simulator keeps, and ``plant`` puts one qubit's error into
an ``ErrorFrame`` as its check-matrix column.  ``extract_by_rounds`` runs
a recovery's later extractions one round at a time, the reference for the
simulator's one-pass ``extract_rounds``.  ``draw`` gives a phase's fault
images and ``products`` their GF(2) products, the image path that the
simulator's pools replace with per-row tags.
"""
from dataclasses import dataclass, field

import numpy as np

from ftqec import network
from ftqec.network import GateEvent
from ftqec.simulator import ErrorFrame, _faults, _values, _xor_rows

MASK_ALL = (1 << 64) - 1


@dataclass
class PlaneFrame:
    """Lane-packed X/Z error record of n qubits."""
    n: int
    x: list[int] = field(default_factory=list)
    z: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.x:
            self.x = [0] * self.n
        if not self.z:
            self.z = [0] * self.n


def propagate(gate: GateEvent, frame: PlaneFrame, mask: int = MASK_ALL) -> PlaneFrame:
    """Propagate frame errors through one perfect gate.

    Hadamard swaps a qubit's X and Z values; controlled-not adds the
    control's X to the target and the target's Z to the control;
    controlled-phase adds each side's X to the other side's Z.
    Preparations and measurements do not propagate.
    """
    k = gate.kind
    x, z = frame.x, frame.z
    if k == network.HADAMARD:
        q = gate.qubits[0]
        diff = (x[q] ^ z[q]) & mask
        x[q] ^= diff
        z[q] ^= diff
    elif k == network.CNOT:
        c, t = gate.qubits
        x[t] ^= x[c] & mask
        z[c] ^= z[t] & mask
    elif k == network.CPHASE:
        c, t = gate.qubits
        z[t] ^= x[c] & mask
        z[c] ^= x[t] & mask
    return frame


def _targets(table) -> list[tuple[int, int]]:
    """(plane, qubit) of each image bit of a fault table, plane 0 for X and
    1 for Z."""
    return [(0, q) for q in table.qubits] + [(1, q) for q in table.qubits]


def _flip(planes: tuple, targets: list, value: int, lane: int) -> None:
    """XOR one image (an int over ``targets``) into one lane."""
    bit = 1 << lane
    while value:
        low = value & -value
        p, q = targets[low.bit_length() - 1]
        planes[p][q] ^= bit
        value ^= low


def scatter(frame: PlaneFrame, table, images: np.ndarray, lanes) -> None:
    """XOR sample k of ``images`` (drawn from ``table``) into lane ``lanes[k]``."""
    planes, targets = (frame.x, frame.z), _targets(table)
    for lane, value in zip(lanes, _values(images)):
        _flip(planes, targets, value, lane)


def draw(table, rng, rows: int) -> np.ndarray:
    """Sample every fault of one phase in ``rows`` independent lane-samples
    (``simulator._faults``, so the pools' draws on the same stream).

    Returns one row of little-endian uint64 words per sample: the XOR of
    the images of the faults that struck it.
    """
    sample, row = _faults(table, rng, rows)
    return np.ascontiguousarray(_xor_rows(rows, sample, table.images[row]))


def products(gf2_map, images: np.ndarray) -> list[int]:
    """One product per image row under a ``simulator._GF2Map``, as an int."""
    return _values(gf2_map.words(images))


def plane_syndromes(plane: list[int], checks: np.ndarray, mask: int = MASK_ALL,
                    lanes: int = 64) -> list[int]:
    """Per-lane syndromes of a plane by a dense matmul: bit l of lane L's
    syndrome is the parity of lane L of ``plane`` over check row l; lanes
    outside the mask read 0."""
    bits = np.array([[(v >> lane) & 1 for lane in range(lanes)] for v in plane], np.int64)
    parities = (checks.astype(np.int64) @ bits) & 1
    return [sum(int(b) << l for l, b in enumerate(parities[:, lane])) if mask >> lane & 1 else 0
            for lane in range(lanes)]


def dense_products(images: np.ndarray, matrix: np.ndarray) -> list[int]:
    """Each image row's product under a 0/1 matrix (one row per image bit,
    one column per output bit) by a dense int64 matmul mod 2, column j
    packed as bit j."""
    bits = np.unpackbits(images.view(np.uint8), axis=1, bitorder="little")[:, :len(matrix)]
    products = (bits.astype(np.int64) @ matrix.astype(np.int64)) & 1
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in products]


def extract_by_rounds(engine, frame: ErrorFrame, rounds: list[list[int]], error_type: str,
                      syndromes: dict[int, list[int]]) -> None:
    """``SimEngine.extract_rounds`` one round at a time: one
    ``couple_and_measure`` on each round's lanes in turn, each lane's
    syndrome appended to ``syndromes[lane]``."""
    for lanes in rounds:
        mask = sum(1 << lane for lane in lanes)
        extra = engine.couple_and_measure(frame, mask, error_type)
        for lane in lanes:
            syndromes[lane].append(extra[lane])


def column(checks: np.ndarray, qubit: int) -> int:
    """The packed syndrome of one error on ``qubit``."""
    return sum(int(b) << l for l, b in enumerate(checks[:, qubit]))


def plant(frame: ErrorFrame, checks: np.ndarray, plane: str, qubit: int, lane: int = 0) -> None:
    """Add an X (``plane`` "x") or Z ("z") error on ``qubit`` to one lane of
    a syndrome frame."""
    (frame.sx if plane == "x" else frame.sz)[lane] ^= column(checks, qubit)


def lane_bits(frame: PlaneFrame, plane: str, lane: int = 0) -> np.ndarray:
    """One lane of one plane, one 0/1 entry per qubit."""
    src = frame.x if plane == "x" else frame.z
    return np.array([(v >> lane) & 1 for v in src], dtype=np.uint8)


def x_bits(frame: PlaneFrame) -> np.ndarray:
    return lane_bits(frame, "x", 0)


def z_bits(frame: PlaneFrame) -> np.ndarray:
    return lane_bits(frame, "z", 0)


def set_lane(frame: PlaneFrame, plane: str, qubit: int, lane: int = 0, value: int = 1) -> None:
    src = frame.x if plane == "x" else frame.z
    if value:
        src[qubit] |= 1 << lane
    else:
        src[qubit] &= ~(1 << lane)
