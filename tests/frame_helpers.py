"""Reference frame operations for the tests.

The simulator's ``ErrorFrame`` keeps only each lane's data syndromes.  The
tests keep the errors themselves in a ``PlaneFrame``: one X and one Z bit
plane per qubit, each a Python int whose bit L belongs to lane L.  On it
they run gate-by-gate propagation, scatter drawn fault images into lanes
and read single lanes; ``plane_syndromes`` reduces a plane to the per-lane
syndromes the simulator keeps, and ``plant`` puts one qubit's error into
an ``ErrorFrame`` as its check-matrix column.  ``extract_by_rounds`` runs
a recovery's later extractions one round at a time, the reference for the
simulator's one-pass ``extract_rounds``.

The simulator's fault tables hold tags, each fault's end-of-phase image
under the engine's map.  ``image_tables`` sweeps an engine's phases again
from identity ends, so each row is the fault's image itself, and
``tag_matrices`` holds that map as dense 0/1 matrices, the tests' reference
for the tags.  ``draw`` gives a phase's drawn samples, ``joined_faults``
each phase's share of a batch's first draw, and ``dense_products`` their
products under a matrix.
"""
from dataclasses import dataclass, field

import numpy as np

from ftqec import network
from ftqec.network import GateEvent
from ftqec.noise import idle_flip_probability
from ftqec.simulator import (POOL_ROWS, ErrorFrame, _fault_table, _faults, _join, _values,
                             _xor_rows)

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
    (``simulator._faults``, so a pool's later refills on the same stream).

    Returns one row of little-endian uint64 words per sample: the XOR of
    the rows (images or tags) of the faults that struck it.
    """
    sample, row = _faults(table, rng, rows)
    return np.ascontiguousarray(_xor_rows(rows, sample, table.tags[row]))


def joined_faults(tables: dict, rng) -> dict:
    """Each phase's faults in its first ``POOL_ROWS`` samples, as
    ``SimEngine.pools`` draws them on the batch stream ``rng``: one draw of
    the tables joined in order, split by the tag rows each phase owns
    there.  Returns (sample, tag row of the phase's own table) per phase."""
    sample, row = _faults(_join(list(tables.values())), rng, POOL_ROWS)
    out, start = {}, 0
    for k, (phase, table) in enumerate(tables.items()):
        mine = (start <= row) & (row < start + len(table.tags))
        assert (sample[mine] // POOL_ROWS == k).all(), phase
        out[phase] = sample[mine] % POOL_ROWS, row[mine] - start
        start += len(table.tags)
    return out


def identity_ends(m: int) -> list[tuple[int, int]]:
    """Ends that make a fault table's rows images: bit j is an X and bit
    m + j a Z on the table's j-th qubit."""
    return [(1 << j, 1 << (m + j)) for j in range(m)]


def engine_tables(engine) -> dict:
    """The engine's fault tables by phase, in the order of its pools."""
    return {"prep": engine._prep, "Z": engine._readout["Z"], "X": engine._readout["X"],
            "rest": engine._data_rest, "gate": engine._logical_gate}


def image_tables(engine) -> dict:
    """The engine's five phases swept again from identity ends, with the
    engine's programs, noise and idles: rows in the engine's order, each
    the fault's end-of-phase image."""
    noise, data = engine.noise, list(range(engine.n))
    wait = (list(engine.networks.ancilla_qubits), idle_flip_probability(noise.eps, noise.t_m))
    idles = {"prep": ((), 0.0), "Z": wait, "X": wait,
             "rest": (data, idle_flip_probability(noise.eps, engine.t_r)),
             "gate": (data, noise.gamma)}
    return {phase: _fault_table(table.program, table.qubits, noise,
                                identity_ends(len(table.qubits)), idles[phase])
            for phase, table in engine_tables(engine).items()}


def pack(values, words: int) -> np.ndarray:
    """Ints as rows of ``words`` little-endian uint64 words."""
    return np.frombuffer(b"".join(v.to_bytes(8 * words, "little") for v in values),
                         "<u8").reshape(len(values), words)


def unpack(values, width: int) -> np.ndarray:
    """Ints as rows of 0/1 entries, column b bit b, ``width`` columns."""
    nbytes = (width + 7) // 8
    raw = np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in values), np.uint8)
    return np.unpackbits(raw.reshape(-1, nbytes), axis=1, bitorder="little")[:, :width]


def tag_matrices(engine, images: dict) -> dict:
    """Each phase's tag map as a dense 0/1 matrix, one row per image bit
    and one column per tag bit.

    A readout image's tag is the syndrome bits its ancilla X flips (image
    bits n..2n-1), then the syndromes of its data X (0..n-1) and Z
    (2n..3n-1); a data image's tag the latter two.  A G+V image's tag is
    its fold, its ancilla share pushed through the noiseless map of the Z
    and then of the X readout (``images[...].transfer``) and tagged there,
    followed by its X bits on the verification qubits."""
    n, checks, w = engine.n, engine.code.H, engine.syndrome_bits
    readout = np.zeros((4 * n, 3 * w), np.uint8)
    readout[n:2 * n, :w] = readout[:n, w:2 * w] = readout[2 * n:3 * n, 2 * w:] = checks.T
    m = len(images["prep"].qubits)       # ancilla then verification qubits
    ancilla = [*range(n), *range(m, m + n)]
    prep = np.zeros((2 * m, 6 * w + engine.rows), np.uint8)
    for i, phase in enumerate(("Z", "X")):
        # end-of-readout images of an X, then a Z, on each ancilla qubit
        transfer = images[phase].transfer
        end = unpack([transfer[b] for b in [*range(n, 2 * n), *range(3 * n, 4 * n)]], 4 * n)
        prep[ancilla, 3 * w * i:3 * w * (i + 1)] = (end.astype(np.int64) @ readout) & 1
    prep[n + np.arange(engine.rows), 6 * w + np.arange(engine.rows)] = 1
    data = readout[[*range(n), *range(2 * n, 3 * n)]]
    return {"prep": prep, "Z": readout, "X": readout, "rest": data, "gate": data}


def plane_syndromes(plane: list[int], checks: np.ndarray, mask: int = MASK_ALL,
                    lanes: int = 64) -> list[int]:
    """Per-lane syndromes of a plane by a dense matmul: bit l of lane L's
    syndrome is the parity of lane L of ``plane`` over check row l; lanes
    outside the mask read 0."""
    bits = np.array([[(v >> lane) & 1 for lane in range(lanes)] for v in plane], np.int64)
    parities = (checks.astype(np.int64) @ bits) & 1
    return [sum(int(b) << l for l, b in enumerate(parities[:, lane])) if mask >> lane & 1 else 0
            for lane in range(lanes)]


def dense_products(images: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Each image row's product under a 0/1 matrix (one row per image bit,
    one column per output bit) by a dense float32 matmul mod 2, 1,024 rows
    at a time so that the scratch stays small.  Returns the products as
    rows of little-endian uint64 words, column j as bit j."""
    bits, width = matrix.shape
    out = np.zeros((len(images), (width + 63) // 64 * 8), np.uint8)
    weights = matrix.astype(np.float32)
    for lo in range(0, len(images), 1024):
        part = np.unpackbits(images[lo:lo + 1024].view(np.uint8), axis=1,
                             bitorder="little")[:, :bits]
        product = (part.astype(np.float32) @ weights).astype(np.int64) & 1
        out[lo:lo + 1024, :(width + 7) // 8] = np.packbits(product, axis=1, bitorder="little")
    return out.view("<u8")


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
