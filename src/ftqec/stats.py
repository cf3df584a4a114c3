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

    def weight_class_probabilities(self, decoder) -> dict[int, float]:
        """Total probability of the syndromes of each coset-leader weight."""
        totals: dict[int, int] = {}
        for s, w in leader_weights(decoder, self.counts).items():
            totals[w] = totals.get(w, 0) + self.counts[s]
        return {w: tot / self.trials for w, tot in totals.items()}


def leader_weights(decoder, syndromes) -> dict[int, int]:
    """Coset-leader weight of each syndrome, from one batched decode."""
    syndromes = list(syndromes)
    if not syndromes:
        return {}
    return dict(zip(syndromes, decoder.decode(syndromes)[0].tolist()))


@dataclass
class PowerLawFit:
    """Per-syndrome P_s = a_s * gamma^c_s fits and weight-class linear fits."""
    a_s: dict[int, float] = field(default_factory=dict)
    c_s: dict[int, float] = field(default_factory=dict)
    a: float = 0.0        # weight-1 linear coefficient
    a_prime: float = 0.0  # weights 2..4 linear coefficient


FIT_PROBABILITY_CUTOFF = 0.01
#: width of the fitted-exponent histogram's bins
C_S_BIN_WIDTH = 0.1


def syndrome_census(code_name: str, noise_grid: list[NoiseParams],
                    trials: int, seed: int = 0) -> list[SyndromeCensus]:
    """Tally decoded X syndromes of verified single extractions.

    Each trial starts from an error-free data block; unverified ancillas are
    re-prepared until one passes, matching the protocol's use of good
    ancillas only; lanes that run out of attempts are counted in
    ``unverified``.  Noise point ``i`` draws every batch from the one
    stream ``stream(seed, i)``.
    """
    out = []
    code = codes_mod.construct_code(code_name)
    for idx, noise in enumerate(noise_grid):
        engine = SimEngine(code, noise,
                           ProtocolParams(1, 1, 1, parallel_corrections=1.0))
        counts: dict[int, int] = {}
        unverified = 0
        done = 0
        pools = engine.pools(stream(seed, idx))
        while done < trials:
            lanes = min(64, trials - done)
            mask = (1 << lanes) - 1
            # an error-free block per batch; the noise point's fault pools
            # carry over from batch to batch
            frame = ErrorFrame(n=engine.n, rows=engine.rows, pools=[pools])
            engine.prepare_verified(frame, mask)
            unverified += frame.unverified
            syndromes = engine.couple_and_measure(frame, mask, "X")
            for lane in range(lanes):
                s = syndromes[lane]
                counts[s] = counts.get(s, 0) + 1
            done += lanes
        out.append(SyndromeCensus(gamma=noise.gamma, eps=noise.eps,
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

    by_weight = [c.weight_class_probabilities(decoder) for c in censuses]

    def linear_coeff(probs):
        num = sum(p * c.gamma for p, c in zip(probs, censuses))
        den = sum(c.gamma ** 2 for c in censuses)
        return num / den if den else 0.0

    fit.a = linear_coeff([p.get(1, 0.0) for p in by_weight])
    fit.a_prime = linear_coeff(
        [sum(p.get(w, 0.0) for w in (2, 3, 4)) for p in by_weight])
    return fit


def c_s_histogram(fit: PowerLawFit, decoder, weight: int) -> dict[float, int]:
    """Histogram of fitted exponents for syndromes of one leader weight."""
    hist: dict[float, int] = {}
    weights = leader_weights(decoder, fit.c_s)
    for s, c in fit.c_s.items():
        if weights[s] != weight:
            continue
        center = (math.floor(c / C_S_BIN_WIDTH) + 0.5) * C_S_BIN_WIDTH
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
    weights = leader_weights(decoder, census.counts)
    for s, c in census.counts.items():
        if s == 0 or weights[s] <= 1:
            continue
        total += (c / census.trials) ** r_prime
    return total
