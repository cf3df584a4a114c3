"""Ancilla preparation census and error-statistics fits.

Single syndromes are extracted from an error-free data block through the
noisy preparation, verification, coupling and readout networks; the decoded
syndromes are tallied per gate-noise level.  Power-law fits of each
syndrome's frequency, grouped by the weight of its coset leader, expose
which failure mechanisms dominate and calibrate the single-failure linear
coefficients of the whole-weight-class rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import codes as codes_mod
from .noise import NoiseParams, stream
from .protocol import ProtocolParams
from .simulator import ErrorFrame, SimEngine


@dataclass
class SyndromeCensus:
    """Syndrome tallies of verified extractions at one noise level."""
    gamma: float
    eps: float
    t_m: int
    trials: int
    counts: dict[int, int] = field(default_factory=dict)
    # lanes that ran out of preparation attempts and were read unverified
    unverified: int = 0

    def probability(self, syndrome: int) -> float:
        return self.counts.get(syndrome, 0) / self.trials

    def nonzero_fraction(self) -> float:
        good = self.counts.get(0, 0)
        return 1.0 - good / self.trials

    def weight_class_probability(self, decoder, weight: int) -> float:
        """Total probability of syndromes whose coset leader has ``weight``."""
        tot = 0
        for s, c in self.counts.items():
            if decoder.leader_weight(s) == weight:
                tot += c
        return tot / self.trials


@dataclass
class PowerLawFit:
    """Per-syndrome P_s = a_s * gamma^c_s fits and weight-class linear fits."""
    a_s: dict[int, float] = field(default_factory=dict)
    c_s: dict[int, float] = field(default_factory=dict)
    a: float = 0.0        # weight-1 linear coefficient
    a_prime: float = 0.0  # weights 2..4 linear coefficient


FIT_PROBABILITY_CUTOFF = 0.01


def syndrome_census(code_name: str, noise_grid: list[NoiseParams],
                    trials: int, seed: int = 0,
                    error_type: str = "X") -> list[SyndromeCensus]:
    """Tally decoded syndromes of verified single extractions.

    Each trial starts from an error-free data block; unverified ancillas are
    re-prepared until one passes, matching the protocol's use of good
    ancillas only; lanes that run out of attempts are counted in
    ``unverified``.
    """
    out = []
    for idx, noise in enumerate(noise_grid):
        code = codes_mod.construct_code(code_name)
        engine = SimEngine(code, noise,
                           ProtocolParams(1, 1, 1, parallel_corrections=1.0))
        counts: dict[int, int] = {}
        unverified = 0
        done = 0
        batch_idx = 0
        while done < trials:
            rng = stream(seed, idx * 1_000_000 + batch_idx)
            batch_idx += 1
            lanes = min(64, trials - done)
            mask = (1 << lanes) - 1
            frame = ErrorFrame(n=engine.n, rows=engine.rows)
            engine.prepare_verified(frame, rng, mask)
            unverified += frame.unverified
            syndromes = engine.couple_and_measure(frame, rng, mask, error_type)
            for lane in range(lanes):
                s = syndromes[lane]
                counts[s] = counts.get(s, 0) + 1
            done += lanes
        out.append(SyndromeCensus(gamma=noise.gamma2, eps=noise.eps,
                                  t_m=noise.t_m, trials=trials, counts=counts,
                                  unverified=unverified))
    return out


def fit_power_law(series: list[tuple[float, float]]) -> Optional[tuple[float, float]]:
    """Least-squares a, c of P = a * gamma^c over (gamma, P) points.

    Only points with 0 < P < 0.01 participate; returns None with fewer than
    three of them.
    """
    pts = [(g, p) for g, p in series if 0.0 < p < FIT_PROBABILITY_CUTOFF]
    if len(pts) < 3:
        return None
    lx = np.log([g for g, _ in pts])
    ly = np.log([p for _, p in pts])
    c, log_a = np.polyfit(lx, ly, 1)
    return float(math.exp(log_a)), float(c)


def weight_class_fit(censuses: list[SyndromeCensus], decoder) -> PowerLawFit:
    """Per-syndrome power laws plus the weight-class linear coefficients.

    a fits P(weight-1 leader) = a * gamma; a_prime fits the summed
    probability of leader weights 2 through 4.
    """
    fit = PowerLawFit()
    syndromes = set()
    for census in censuses:
        syndromes.update(census.counts.keys())
    syndromes.discard(0)
    for s in sorted(syndromes):
        series = [(c.gamma, c.probability(s)) for c in censuses]
        res = fit_power_law(series)
        if res is not None:
            fit.a_s[s], fit.c_s[s] = res

    def linear_coeff(prob_of):
        num = sum(prob_of(c) * c.gamma for c in censuses)
        den = sum(c.gamma ** 2 for c in censuses)
        return num / den if den else 0.0

    fit.a = linear_coeff(lambda c: c.weight_class_probability(decoder, 1))
    fit.a_prime = linear_coeff(
        lambda c: sum(c.weight_class_probability(decoder, w) for w in (2, 3, 4)))
    return fit


def c_s_histogram(fit: PowerLawFit, decoder, weight: int,
                  bin_width: float = 0.1) -> dict[float, int]:
    """Histogram of fitted exponents for syndromes of one leader weight."""
    hist: dict[float, int] = {}
    for s, c in fit.c_s.items():
        if decoder.leader_weight(s) != weight:
            continue
        center = (math.floor(c / bin_width) + 0.5) * bin_width
        hist[round(center, 6)] = hist.get(round(center, 6), 0) + 1
    return hist


def histogram_mode(hist: dict[float, int]) -> Optional[float]:
    if not hist:
        return None
    return max(sorted(hist.items()), key=lambda kv: kv[1])[0]


def repeated_error_collision(census: SyndromeCensus, decoder,
                             r_prime: int = 2) -> float:
    """Estimated probability that r' independent preparations share the same
    multi-bit error, the mechanism bounded by the wrong-syndrome floor."""
    total = 0.0
    for s, c in census.counts.items():
        if s == 0 or decoder.leader_weight(s) <= 1:
            continue
        total += (c / census.trials) ** r_prime
    return total
