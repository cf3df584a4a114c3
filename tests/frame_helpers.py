"""Reference frame operations for the tests: gate-by-gate propagation,
scattering drawn fault images into lanes, and single-lane access to a
lane-packed ``ErrorFrame``."""
import numpy as np

from ftqec import network
from ftqec.network import GateEvent
from ftqec.simulator import ErrorFrame, _flip, _targets, _values

MASK_ALL = (1 << 64) - 1


def propagate(gate: GateEvent, frame: ErrorFrame, mask: int = MASK_ALL) -> ErrorFrame:
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


def scatter(frame: ErrorFrame, table, images: np.ndarray, lanes) -> None:
    """XOR sample k of ``images`` (drawn from ``table``) into lane ``lanes[k]``."""
    planes, targets = (frame.x, frame.z), _targets(table)
    for lane, value in zip(lanes, _values(images)):
        _flip(planes, targets, value, lane)


def lane_bits(frame: ErrorFrame, plane: str, lane: int = 0) -> np.ndarray:
    """One lane of one plane, one 0/1 entry per qubit."""
    src = frame.x if plane == "x" else frame.z
    return np.array([(v >> lane) & 1 for v in src], dtype=np.uint8)


def x_bits(frame: ErrorFrame) -> np.ndarray:
    return lane_bits(frame, "x", 0)


def z_bits(frame: ErrorFrame) -> np.ndarray:
    return lane_bits(frame, "z", 0)


def set_lane(frame: ErrorFrame, plane: str, qubit: int, lane: int = 0, value: int = 1) -> None:
    src = frame.x if plane == "x" else frame.z
    if value:
        src[qubit] |= 1 << lane
    else:
        src[qubit] &= ~(1 << lane)
