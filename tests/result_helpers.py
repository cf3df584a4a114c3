"""Readers of the package's results that only the tests need.

Each takes one of the package's objects and reads one number or text off
it, as the package itself never has to.
"""
import dataclasses
import json
from typing import Optional


def code_dim(code) -> int:
    """Dimension of the classical code C of a ``codes.ClassicalCode``."""
    return (code.n - code.k) // 2


def config_json(config) -> str:
    """A ``cli.RunConfig`` as the JSON text that ``RunConfig.from_json`` reads."""
    return json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True)


def best_kq(surface, gamma: float, max_scale_up: Optional[float] = None) -> float:
    """The best KQ among a ``sweep.Surface``'s cells at ``gamma`` whose
    scale-up is at most ``max_scale_up`` (any, when None); 0 without one."""
    best = 0.0
    for (_, g), pt in surface.cells.items():
        if g != gamma:
            continue
        if max_scale_up is not None and pt.scale_up > max_scale_up:
            continue
        best = max(best, pt.kq)
    return best


def nonzero_fraction(census) -> float:
    """The share of a ``stats.SyndromeCensus``'s trials read nonzero."""
    return 1.0 - census.counts.get(0, 0) / census.trials


def histogram_mode(hist: dict[float, int]) -> Optional[float]:
    """The most populated bin of a histogram, the lowest among ties; None
    for an empty one."""
    if not hist:
        return None
    return max(sorted(hist.items()), key=lambda kv: kv[1])[0]
