"""The recovery protocol both routes evaluate: repetition schedule, ancilla
provisioning and the data resting time they imply.

The Monte Carlo (``simulator``) and the closed-form model (``analytic``)
import the protocol parameters and the resting-time formula from here, so
the two routes share one definition of the protocol.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class ProtocolError(ValueError):
    """Invalid protocol parameter combination."""


@dataclass(frozen=True)
class ProtocolParams:
    """Syndrome repetition schedule and ancilla provisioning.

    ``n_rep`` is the number of ancilla-block pairs provisioned per data
    block.  ``parallel_corrections`` optionally pins the provisioning so
    that alpha * n_rep = parallel_corrections * (beta + r (1 - beta)),
    which fixes the data resting time independent of alpha and beta.
    """
    r: int
    r_prime: int
    r_dprime: int
    n_rep: float = 1.0
    parallel_corrections: Optional[float] = None

    def __post_init__(self):
        if not (1 <= self.r_prime <= self.r):
            raise ProtocolError(f"need 1 <= r' <= r, got r'={self.r_prime} r={self.r}")
        if not (1 <= self.r_dprime <= self.r):
            raise ProtocolError(f"need 1 <= r'' <= r, got r''={self.r_dprime}")
        # written as "not > 0" so that NaN fails too
        if not self.n_rep > 0:
            raise ProtocolError(f"n_rep must be > 0, got {self.n_rep}")
        if self.parallel_corrections is not None and not self.parallel_corrections > 0:
            raise ProtocolError(
                f"parallel_corrections must be > 0, got {self.parallel_corrections}")


def resting_time(w: int, t_m: int, pp: ProtocolParams,
                 alpha: float, beta: float) -> float:
    """Data resting time t_R between recoveries.

    One extraction cycle lasts 2w + 1 + 2 t_m steps.  The n_rep provisioned
    ancilla pairs, of which a fraction alpha pass verification, serve a mean
    demand of beta + r (1 - beta) extractions per recovery.  Pinned
    provisioning ignores alpha and beta.
    """
    cycle = 2 * w + 1 + 2 * t_m
    if pp.parallel_corrections is not None:
        return cycle / pp.parallel_corrections
    return cycle * (beta + pp.r * (1.0 - beta)) / (alpha * pp.n_rep)
