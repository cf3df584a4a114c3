"""Stochastic failure model for gates, preparations, measurements and memory.

Every operation is modeled as a random Pauli failure followed by the perfect
operation, with the paper's two rates: the gate rate gamma and the memory
rate eps.  Every gate, preparation and measurement fails with probability
gamma.  A single-qubit gate or measurement then suffers X, Y or Z equally
likely; a two-qubit gate draws uniformly from the 15 non-identity two-qubit
Paulis; a preparation keeps only the 2 of 3 failures that flip its state
(rate 2 gamma / 3).  Resting qubits pick up X, Y or Z with probability
eps/3 each per time step.  This module holds the rates, the
compounding of long rests and the random streams.  The simulator samples
this model from compiled single-fault tables (``simulator._fault_table``):
at each gate, preparation, measurement or idle location an independent
failure in each trial lane at the location's rate, and per time step's resting
("hole") slots a Binomial(slots x lanes, eps) count of memory failures,
each on a uniform qubit of the step's register, lane and Pauli.

Random streams are PCG64 generators derived from a 64-bit base seed and a
stream index through SeedSequence spawning, so any worker layout that
assigns whole stream indices reproduces identical draws.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class Pauli(IntEnum):
    """Single-qubit frame action; Y acts on both bit planes."""
    I = 0
    X = 1
    Z = 2
    Y = 3

    @property
    def flips_x(self) -> bool:
        return self in (Pauli.X, Pauli.Y)

    @property
    def flips_z(self) -> bool:
        return self in (Pauli.Z, Pauli.Y)


#: the 15 equally likely failures of a two-qubit gate
TWO_QUBIT_FAILURES: tuple[tuple[Pauli, Pauli], ...] = tuple(
    (Pauli(a), Pauli(b)) for a in range(4) for b in range(4) if (a, b) != (0, 0)
)


@dataclass(frozen=True)
class NoiseParams:
    gamma: float = 0.0       # failure probability of every operation
    eps: float = 0.0         # memory failure probability per qubit per step
    t_m: int = 1             # measurement + classical processing duration

    def __post_init__(self):
        for name in ("gamma", "eps"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.t_m < 1:
            raise ValueError("t_m must be >= 1")


# kept because perfbench/workloads.py builds its noise as NoiseParams.uniform
NoiseParams.uniform = NoiseParams


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent PCG64 stream ``index`` under a 64-bit base seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# aggregated idle noise
#
# T iid steps of the eps/3 model compound, per qubit, to a net frame flip
# drawn from {none, X, Z, Y} with P(none) = (1 + 3*chi)/4 and the other
# three at (1 - chi)/4 each, where chi = (1 - 4*eps/3)^T.  This lets a long
# (possibly fractional) rest be applied as a single pass.
# ---------------------------------------------------------------------------

def idle_flip_probability(eps: float, steps: float) -> float:
    """Probability that a qubit resting ``steps`` steps ends up flipped
    (by an effective X, Y or Z, equally likely)."""
    if eps <= 0.0 or steps <= 0.0:
        return 0.0
    base = 1.0 - 4.0 * eps / 3.0
    if base < 0.0:
        # beyond the depolarizing point fractional steps have no real
        # compounding; round to whole steps (extreme-noise corner)
        chi = base ** round(steps)
    else:
        chi = base ** steps
    return 0.75 * (1.0 - chi)
