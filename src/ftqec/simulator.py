"""Pauli-frame Monte Carlo of the full recovery protocol.

The error state of one data block, one (serially reused) ancilla block and
its verification bits is a pair of bit planes over 2n + (n+k)/2 qubits.  To
make millions of trials affordable, many independent trials run in
parallel: each qubit's X and Z planes are Python ints whose bit L belongs
to trial lane L, 64 lanes per batch and up to ``FRAME_BATCHES`` batches
per frame.  All mutating operations take a lane mask and leave the other
lanes untouched.

Faults are not applied gate by gate.  Frame propagation is linear over
GF(2), so a phase leaves the frame at its noiseless image XOR the
end-of-phase images of the faults that struck it.  Each extraction phase
(preparation G plus verification V, and coupling plus readout), the data's
rest and the logical step's noise are compiled once, by one backward sweep
over its schedule, into a single-fault table: every fault location (gate,
preparation, measurement, hole step, idle qubit) with its rate and the
image of each of its Paulis.  The same sweep gives the phase's noiseless
map, which the readout applies as one GF(2) map over lane words that also
yields the syndromes.

Phase faults never depend on the frame, so they are drawn ahead of use.
Each batch of a frame has its own fault pool per phase table, made from
the batch's stream (``SimEngine.pools``) and drawn from its own child
stream ``POOL_ROWS`` lane-samples at a time (``_draw``, a few vectorised
draws per refill); a call hands the next sample of a batch's pool to each
of the batch's masked lanes in lane order and XORs only the samples that
carry a fault into the lane words.  A preparation hands a lane samples in
pool order until one verifies.  So a batch draws the same samples
whichever batches share its frame.

A trial alternates logical steps (one transversal gate failure pass plus
the data's resting noise) with a complete recovery round: Z-error recovery
followed by X-error recovery, each consisting of one or more verified
syndrome extractions, majority agreement over repeated syndromes, and a
coset-leader correction when agreement is reached.  After every step the
accumulated data error is decoded; a coset leader heavier than t, or the
acceptance of a syndrome whose leader is heavier than t, crashes the run.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from operator import or_
from typing import Optional

import numpy as np

from . import analytic
from . import codes as codes_mod
from . import network as network_mod
from .codes import ClassicalCode
from .network import GateEvent
from .noise import NoiseParams, Pauli, TWO_QUBIT_FAILURES, idle_flip_probability, stream
from .protocol import ProtocolError, ProtocolParams, resting_time

Q_MAX_DEFAULT = 10
# lane-samples drawn per fault-pool refill
POOL_ROWS = 512
# 64-lane batches run side by side in one frame
FRAME_BATCHES = 32
# nonzero syndromes up to which a readout transposes lane by lane
_SPARSE_LANES = 4


@dataclass
class ErrorFrame:
    """Lane-packed X/Z error record for data + ancilla + verification bits."""
    n: int
    rows: int
    x: list[int] = field(default_factory=list)
    z: list[int] = field(default_factory=list)
    # lanes coupled with an unverified ancilla, summed over preparations
    unverified: int = 0
    # each batch's fault pools by phase (``SimEngine.pools``), batch b on
    # lanes 64b..64b+63; the engine's pooled phases draw from them
    pools: list[dict] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        width = 2 * self.n + self.rows
        if not self.x:
            self.x = [0] * width
        if not self.z:
            self.z = [0] * width

    @property
    def width(self) -> int:
        return 2 * self.n + self.rows

    @property
    def lanes(self) -> int:
        """Lanes of the frame: 64 per batch, and 64 for a frame without pools."""
        return 64 * max(1, len(self.pools))


# ---------------------------------------------------------------------------
# single-fault tables: compiled once per phase, sampled once per call
# ---------------------------------------------------------------------------

_SINGLE = ((Pauli.X,), (Pauli.Y,), (Pauli.Z,))
# a |0> (|+>) preparation keeps only its X (Z) flips
_PREP_FLIP = {network_mod.PREP_ZERO: ((Pauli.X,),),
              network_mod.PREP_PLUS: ((Pauli.Z,),)}


def _program(events, rest_profile=(), hole_qubits=()) -> list[tuple]:
    """Compile a schedule into time-ordered ``(gates, hole_count,
    hole_register)`` steps, one per gate step or rest-profile step, keeping
    the schedule's gate order in a step."""
    by_step: dict[int, list[GateEvent]] = {t: [] for t, _ in rest_profile}
    for ev in events:
        by_step.setdefault(ev.time_step, []).append(ev)
    rest = dict(rest_profile)
    return [(gates, rest.get(t, 0), hole_qubits) for t, gates in sorted(by_step.items())]


@dataclass
class _FaultTable:
    """Every single fault of one phase with its end-of-phase image.

    Image bit j is an X and bit m + j a Z on ``qubits[j]`` (m qubits); each
    row of ``images`` holds one image as little-endian uint64 words.  A
    phase runs as the noiseless pass of ``program`` followed by the XOR of
    the sampled faults' images.  The noiseless pass is linear:
    ``transfer[b]`` is the end-of-phase image of start-of-phase bit b.

    ``sites`` lists the fault locations in row order as ``(step, slot,
    qubits, paulis, row)``: the fault strikes before gate ``slot`` of
    program step ``step`` (after it, for a preparation), after the step's
    gates when ``slot`` is their count (a hole), or before the phase when
    ``step`` is -1 (an idle); Pauli ``paulis[p]`` acting on ``qubits`` has
    image row ``row + p``.

    Sampling goes by groups.  Group g draws Binomial(``slots[g]`` x
    samples, ``rates[g]``) failures, each on a uniform (slot, sample,
    offset < span[g]) triple whose image row is ``slot_row[offsets[g] +
    slot] + offset``.  In a Bernoulli group a slot is one location, its span
    the location's Pauli count, and failures take distinct (slot, sample)
    cells: every location fails independently in every sample.  In a hole
    group a slot is one resting qubit-step of a step sharing the group's
    register, its row run that step's (register qubit, Pauli) images.
    """
    qubits: list[int]
    program: list[tuple]
    transfer: list[int]
    images: np.ndarray
    sites: list[tuple]
    rates: list[float]
    slots: np.ndarray
    span: np.ndarray
    offsets: np.ndarray
    distinct: np.ndarray
    slot_row: np.ndarray

    @property
    def hole_slots(self) -> int:
        """Resting qubit-steps charged per lane by one run of the phase."""
        return int(self.slots[~self.distinct].sum())


def _fault_table(program, qubits, noise: NoiseParams, idle=((), 0.0)) -> _FaultTable:
    """Compile a phase program by one backward (Heisenberg) sweep.

    During the sweep ``col_x[j]`` / ``col_z[j]`` hold the end-of-phase image
    of an X / Z on ``qubits[j]`` at the current point of the phase, so a
    gate updates at most two columns and every location reads its images
    off them, and at the end they hold the phase's noiseless map.
    ``idle`` = (qubits, rate) adds one three-Pauli location per qubit before
    the first step.
    """
    m = len(qubits)
    local = {q: j for j, q in enumerate(qubits)}
    col_x = [1 << j for j in range(m)]
    col_z = [1 << (m + j) for j in range(m)]

    def images_of(site_qubits, paulis) -> list[int]:
        # Pauli values index each qubit's (I, X, Z, Y) images
        imgs = [(0, col_x[j], col_z[j], col_x[j] ^ col_z[j])
                for j in map(local.get, site_qubits)]
        if len(imgs) == 2:
            a, b = imgs
            return [a[p] ^ b[r] for p, r in paulis]
        return [imgs[0][p] for p, in paulis]

    locations: dict[tuple, list] = {}   # (rate, Pauli count) -> [(site, images)]
    holes: dict[tuple, list] = {}       # register -> [(slots, [(site, images)])]

    def record(rate, site, paulis):
        locations.setdefault((rate, len(paulis)), []).append(
            (site + (paulis,), images_of(site[2], paulis)))

    for s in range(len(program) - 1, -1, -1):
        gates, slots, register = program[s]
        if slots:
            holes.setdefault(tuple(register), []).append(
                (slots, [((s, len(gates), (q,), _SINGLE), images_of((q,), _SINGLE))
                         for q in register]))
        for g in range(len(gates) - 1, -1, -1):
            ev = gates[g]
            k, qs = ev.kind, ev.qubits
            if k in _PREP_FLIP:
                record(2.0 * noise.gamma / 3.0, (s, g, qs), _PREP_FLIP[k])
                col_x[local[qs[0]]] = col_z[local[qs[0]]] = 0
                continue
            # the failure precedes the gate: move the columns back past it
            if k == network_mod.HADAMARD:
                j = local[qs[0]]
                col_x[j], col_z[j] = col_z[j], col_x[j]
            elif k == network_mod.CNOT:
                c, t = local[qs[0]], local[qs[1]]
                col_x[c] ^= col_x[t]
                col_z[t] ^= col_z[c]
            elif k == network_mod.CPHASE:
                c, t = local[qs[0]], local[qs[1]]
                col_x[c] ^= col_z[t]
                col_x[t] ^= col_z[c]
            record(noise.gamma, (s, g, qs),
                   TWO_QUBIT_FAILURES if len(qs) == 2 else _SINGLE)
    idle_qubits, idle_rate = idle
    for q in idle_qubits:
        record(idle_rate, (-1, 0, (q,)), _SINGLE)

    sites, rows, slot_row, groups = [], [], [], []
    for (rate, paulis), members in locations.items():
        groups.append((rate, len(members), paulis, len(slot_row), True))
        for site, imgs in members:
            sites.append(site + (len(rows),))
            slot_row.append(len(rows))
            rows += imgs
    for register, steps in holes.items():
        groups.append((noise.eps, sum(n for n, _ in steps), 3 * len(register),
                       len(slot_row), False))
        for slots, members in steps:
            slot_row += [len(rows)] * slots
            for site, imgs in members:
                sites.append(site + (len(rows),))
                rows += imgs
    words = (2 * m + 63) // 64
    images = np.frombuffer(b"".join(v.to_bytes(8 * words, "little") for v in rows),
                           dtype="<u8").reshape(len(rows), words)
    rates, slots, span, offsets, distinct = zip(*groups)
    return _FaultTable(list(qubits), program, col_x + col_z, images, sites,
                       list(rates), np.array(slots), np.array(span),
                       np.array(offsets), np.array(distinct), np.array(slot_row))


def _phase_tables(ns: network_mod.NetworkSet, noise: NoiseParams):
    """Fault tables of the preparation G+V (over ancilla and verification
    bits) and of the coupling-plus-readout of each error type (over data
    and ancilla, with the t_m readout wait as an idle on the ancilla)."""
    data, anc = list(range(ns.n)), list(ns.ancilla_qubits)
    ver = list(ns.verification_qubits)
    prep = (_program(ns.g_schedule, ns.g_step_rest, anc)
            + _program(ns.v_schedule, ns.v_step_rest, anc + ver))
    wait = (anc, idle_flip_probability(noise.eps, noise.t_m))
    readout = {
        "Z": _fault_table(_program(ns.coupling_cnot + ns.measure_schedule),
                          data + anc, noise, wait),
        "X": _fault_table(_program(ns.coupling_cphase + ns.measure_schedule),
                          data + anc, noise, wait),
    }
    return _fault_table(prep, anc + ver, noise), readout


@lru_cache(maxsize=16)
def _lanes(mask: int) -> tuple[int, ...]:
    """The lanes set in ``mask``, in increasing order; the last few listings
    are kept, as every call of a step lists the same alive lanes."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def _batch_lanes(frame: ErrorFrame, mask: int) -> list[tuple[dict, tuple[int, ...]]]:
    """(pools, lanes) of each batch of the frame with lanes in ``mask``."""
    lanes = _lanes(mask)
    out, lo = [], 0
    for b, pools in enumerate(frame.pools):
        hi = bisect_left(lanes, 64 * b + 64, lo)
        if hi > lo:
            out.append((pools, lanes[lo:hi]))
            lo = hi
    return out


def _draw(table: _FaultTable, rng, rows: int) -> np.ndarray:
    """Sample every fault of one phase in ``rows`` independent lane-samples.

    Returns one row of little-endian uint64 words per sample: the XOR of
    the images of the faults that struck it.
    """
    counts = [rng.binomial(s * rows, r)
              for s, r in zip(table.slots.tolist(), table.rates)]
    acc = np.zeros((rows, table.images.shape[1]), dtype="<u8")
    if not any(counts):
        return acc
    g = np.repeat(np.arange(len(counts)), counts)
    span = table.span[g]
    rest, row = np.divmod(rng.integers(table.slots[g] * span * rows), rows)
    slot = table.offsets[g] + rest // span
    cell = np.sort((slot * rows + row)[table.distinct[g]])
    if (cell[1:] == cell[:-1]).any():
        # a location fails at most once per sample: a group whose draw
        # repeats a (location, sample) cell draws its cells again without
        # replacement
        for h in np.unique(g[table.distinct[g]]):
            at = np.flatnonzero(g == h)
            if np.unique(slot[at] * rows + row[at]).size < at.size:
                pick = rng.choice(table.slots[h] * rows, size=at.size, replace=False)
                slot[at], row[at] = np.divmod(pick, rows)
                slot[at] += table.offsets[h]
    np.bitwise_xor.at(acc, row, table.images[table.slot_row[slot] + rest % span])
    return acc


def _values(images: np.ndarray) -> list[int]:
    """Each row of little-endian uint64 words as one int."""
    values = images[:, 0].tolist()
    for w in range(1, images.shape[1]):
        values = [v | u << 64 * w for v, u in zip(values, images[:, w].tolist())]
    return values


def _row_ints(bits: np.ndarray) -> list[int]:
    """One int per row of a 0/1 matrix, column j as bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((len(packed), (packed.shape[1] + 7) // 8 * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    return _values(words.view("<u8"))


def _targets(table: _FaultTable) -> list[tuple[int, int]]:
    """(plane, qubit) of each image bit, plane 0 for X and 1 for Z."""
    return [(0, q) for q in table.qubits] + [(1, q) for q in table.qubits]


def _flip(planes: tuple, targets: list, value: int, lane: int) -> None:
    """XOR one image (an int over ``targets``) into one lane."""
    bit = 1 << lane
    while value:
        low = value & -value
        p, q = targets[low.bit_length() - 1]
        planes[p][q] ^= bit
        value ^= low


def _scatter(frame: ErrorFrame, table: _FaultTable, images: np.ndarray,
             lanes) -> None:
    """XOR sample k of ``images`` (drawn from ``table``) into lane ``lanes[k]``."""
    planes, targets = (frame.x, frame.z), _targets(table)
    for lane, value in zip(lanes, _values(images)):
        _flip(planes, targets, value, lane)


class _Pool:
    """Lane-samples of one phase, drawn ``POOL_ROWS`` at a time from the
    pool's own stream and handed out in draw order.

    After a refill ``hit`` lists the samples that carry a fault, in
    increasing order, with the part of their images that lies in the word
    mask ``apply`` (all of them by default) in ``values``.  Given
    ``checks`` (a 0/1 matrix, one row per image bit and one column per
    check), ``tags[i]`` packs the parities of hit i's whole image under the
    checks.
    """

    def __init__(self, table: _FaultTable, rng, checks=None, apply=None):
        self.table, self.rng, self.checks, self.apply = table, rng, checks, apply
        self.targets = _targets(table)
        self.at = POOL_ROWS        # next sample; the pool starts empty

    def refill(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next samples; return the hits and their whole images."""
        images = _draw(self.table, self.rng, POOL_ROWS)
        hit = np.flatnonzero(np.bitwise_or.reduce(images, axis=1))
        images = images[hit]
        self.hit = hit.tolist()
        self.values = _values(images if self.apply is None else images & self.apply)
        if self.checks is None:
            self.tags = [0] * hit.size
        else:
            bits = np.unpackbits(images.view(np.uint8), axis=1, bitorder="little")
            self.tags = _row_ints((bits @ self.checks).astype(np.int64) & 1)
        self.at = 0
        return hit, images

    def hand_out(self, frame: ErrorFrame, lanes: list[int]) -> list[tuple[int, int]]:
        """XOR the next ``len(lanes)`` samples into ``lanes``, one each, and
        return ``(lane, tag)`` for every sample that carried a fault."""
        planes, out, done = (frame.x, frame.z), [], 0
        while done < len(lanes):
            if self.at == POOL_ROWS:
                self.refill()
            hit = self.hit
            stop = min(POOL_ROWS, self.at + len(lanes) - done)
            lo = bisect_left(hit, self.at)
            for i in range(lo, bisect_left(hit, stop, lo)):
                lane = lanes[done + hit[i] - self.at]
                _flip(planes, self.targets, self.values[i], lane)
                out.append((lane, self.tags[i]))
            done += stop - self.at
            self.at = stop
        return out


class _PrepPool(_Pool):
    """The G+V pool: a sample verifies when its image has none of the bits
    of the word mask ``verify`` (the X bits of the verification qubits).

    A lane retries on the next samples until one verifies, and after
    ``max_attempts`` failures in a row keeps the last of them, so the
    samples lanes keep do not depend on where one call ends and the next
    begins: they are the verified samples and every ``max_attempts``-th
    failure of a run, counted from the last kept sample.  ``kept`` caches
    them for the current refill and attempt limit.
    """

    def __init__(self, table: _FaultTable, rng, verify: np.ndarray):
        super().__init__(table, rng)
        self.verify = verify

    def refill(self) -> tuple[np.ndarray, np.ndarray]:
        hit, images = super().refill()
        self.ok = np.ones(POOL_ROWS, dtype=bool)
        self.ok[hit[(images & self.verify).any(axis=1)]] = False
        self.image = dict(zip(self.hit, self.values))
        self.kept = None
        return hit, images

    def _keep(self, max_attempts: int, failed: int) -> None:
        """Cache ``(max_attempts, kept, forced, left)`` for this refill from
        sample ``at`` on, after ``failed`` failures since the last kept
        sample: the kept samples, the unverified ones among them, and the
        failures left after the last one."""
        at = np.arange(self.at, POOL_ROWS)
        ok = self.ok[self.at:]
        last_ok = np.maximum.accumulate(np.where(ok, at, self.at - 1 - failed))
        keep = ok | ((at - last_ok) % max_attempts == 0)
        self.kept = (max_attempts, at[keep].tolist(), set(at[keep & ~ok].tolist()),
                     int(POOL_ROWS - 1 - last_ok[-1]) % max_attempts)

    def hand_out_verified(self, frame: ErrorFrame, lanes: list[int],
                          max_attempts: int) -> int:
        """XOR the next kept sample into each lane in turn and return how
        many lanes kept an unverified one."""
        planes, unverified, failed, done = (frame.x, frame.z), 0, 0, 0
        while done < len(lanes):
            if self.at == POOL_ROWS:
                self.refill()
            if self.kept is None or self.kept[0] != max_attempts:
                self._keep(max_attempts, failed)
            _, kept, forced, left = self.kept
            lo = bisect_left(kept, self.at)
            picks = kept[lo:lo + len(lanes) - done]
            for lane, k in zip(lanes[done:], picks):
                if k in self.image:
                    _flip(planes, self.targets, self.image[k], lane)
            if forced:
                unverified += len(forced.intersection(picks))
            done += len(picks)
            if done < len(lanes):
                # the lane's run of failures goes on into the next refill
                failed, self.at = left, POOL_ROWS
            else:
                self.at = picks[-1] + 1
        return unverified


def _word_mask(positions, width: int) -> np.ndarray:
    """Little-endian uint64 words over ``width`` bits with ``positions`` set."""
    bits = np.zeros((width + 63) // 64 * 64, dtype=np.uint8)
    bits[list(positions)] = 1
    return np.packbits(bits, bitorder="little").view("<u8")


def _bit_positions(v: int) -> list[int]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


@dataclass
class _ReadoutMap:
    """A readout's noiseless pass plus its syndromes as one GF(2) map over
    lane words.

    Input b is the start-of-phase lane word of bit b: the X words of the
    table's qubits ``lo..hi-1``, then their Z words.  End-of-phase word o
    is input word o XOR input word b for every pair ``(o, b)`` of
    ``moves``.  ``write`` lists the data bits the readout changes as (bit,
    plane, qubit), and syndrome bit l is the XOR of end-of-phase bits
    ``checks[l]``; ``weights`` packs syndrome bits into 64-bit words.
    """
    lo: int
    hi: int
    moves: list[tuple[int, int]]
    write: list[tuple[int, int, int]]
    checks: list[tuple[int, ...]]
    weights: np.ndarray


def _readout_map(table: _FaultTable, data: int,
                 syndrome_bits: list[list[int]]) -> _ReadoutMap:
    """Compile the noiseless pass of a readout over data plus ancilla by
    transposing ``table.transfer`` into per-output input sets.

    The first ``data`` table qubits are the data block, whose end-of-phase
    words the map writes back; the measured ancilla's are discarded.
    Syndrome bit l reads the XOR of end-of-phase bits ``syndrome_bits[l]``.
    """
    m = len(table.qubits)
    lo = table.qubits[0]
    if table.qubits != list(range(lo, lo + m)):
        raise ValueError("a readout map needs consecutive qubits")
    inputs = [0] * 2 * m               # end-of-phase bit -> start-of-phase bits
    for b, image in enumerate(table.transfer):
        for o in _bit_positions(image):
            inputs[o] |= 1 << b
    changed = [o for o in range(2 * m) if o % m < data and inputs[o] != 1 << o]
    checks = [tuple(map(int, bits)) for bits in syndrome_bits]
    read = sorted({o for bits in checks for o in bits}.union(changed))
    c = np.arange(len(syndrome_bits))
    weights = np.zeros(((c.size + 63) // 64, c.size), dtype=np.uint64)
    weights[c // 64, c] = np.uint64(1) << (c % 64).astype(np.uint64)
    return _ReadoutMap(lo, lo + m,
                       [(o, b) for o in read for b in _bit_positions(inputs[o] ^ 1 << o)],
                       [(o, o // m, lo + o % m) for o in changed],
                       checks, weights)


def _apply_readout(rmap: _ReadoutMap, frame: ErrorFrame, mask: int) -> list[int]:
    """Run the map's noiseless pass on the masked lanes of the frame and
    return one packed syndrome per lane (0 outside the mask): transposed
    lane by lane when few read nonzero, else by numpy's bit unpacking."""
    x, z = frame.x, frame.z
    words = x[rmap.lo:rmap.hi] + z[rmap.lo:rmap.hi]
    end = list(words)
    for o, b in rmap.moves:
        end[o] ^= words[b]
    planes, keep = (x, z), ~mask
    for o, p, q in rmap.write:
        planes[p][q] = (planes[p][q] & keep) ^ (end[o] & mask)
    bits, hot = [], 0
    for cols in rmap.checks:
        acc = 0
        for c in cols:
            acc ^= end[c]
        acc &= mask
        bits.append(acc)
        hot |= acc
    if hot.bit_count() > _SPARSE_LANES:
        size = frame.lanes // 8
        raw = np.frombuffer(b"".join(w.to_bytes(size, "little") for w in bits), np.uint8)
        by_bit = np.unpackbits(raw.reshape(len(bits), size), axis=1, bitorder="little")
        return _values((rmap.weights @ by_bit).T)
    syndromes, bits = [0] * frame.lanes, bits[::-1]
    for lane in _bit_positions(hot):
        acc = 0
        for w in bits:
            acc = acc << 1 | w >> lane & 1
        syndromes[lane] = acc
    return syndromes


# ---------------------------------------------------------------------------
# syndrome agreement
# ---------------------------------------------------------------------------

def judge_syndromes(pool: list[int], r_prime: int) -> Optional[int]:
    """Accept a syndrome value occurring at least r' times in the pool.

    Pool is ordered oldest to newest.  Between competing values the one
    whose r'-th most recent occurrence is latest wins.
    """
    positions: dict[int, list[int]] = {}
    for idx, s in enumerate(pool):
        positions.setdefault(s, []).append(idx)
    best = None
    best_key = -1
    for value, occ in positions.items():
        if len(occ) >= r_prime:
            key = occ[-r_prime]
            if key > best_key:
                best_key = key
                best = value
    return best


@dataclass
class TrialStats:
    """Crash/survival counts per logical step and the derived rates."""
    q_max: int
    n_f: np.ndarray
    n_s: np.ndarray
    trials: int = 0
    censored: bool = False
    seed: int = 0
    # lane-preparations that ran out of attempts and coupled unverified
    unverified: int = 0

    @staticmethod
    def empty(q_max: int = Q_MAX_DEFAULT, seed: int = 0) -> "TrialStats":
        return TrialStats(q_max=q_max, n_f=np.zeros(q_max + 1, dtype=np.int64),
                          n_s=np.zeros(q_max + 1, dtype=np.int64), seed=seed)

    def merge(self, other: "TrialStats") -> None:
        self.n_f += other.n_f
        self.n_s += other.n_s
        self.trials += other.trials
        self.unverified += other.unverified

    def p(self, q: int) -> float:
        tot = self.n_f[q] + self.n_s[q]
        return float(self.n_f[q]) / tot if tot else float("nan")

    @property
    def pbar(self) -> float:
        vals = [self.p(q) for q in range(self.q_max - 3, self.q_max + 1)]
        if any(np.isnan(v) for v in vals):
            return float("nan")
        return float(np.mean(vals))

    @property
    def stderr(self) -> float:
        var = 0.0
        for q in range(self.q_max - 3, self.q_max + 1):
            tot = self.n_f[q] + self.n_s[q]
            if tot == 0:
                return float("nan")
            pq = self.n_f[q] / tot
            var += pq * (1.0 - pq) / tot
        return float(np.sqrt(var) / 4.0)


# ---------------------------------------------------------------------------
# simulation engine
# ---------------------------------------------------------------------------

class SimEngine:
    """Precomputed schedules, decoder and timing for one configuration."""

    def __init__(self, code: ClassicalCode, noise: NoiseParams,
                 protocol: ProtocolParams):
        self.code = codes_mod.standardized_code(code)
        # first, so a code without a decoder is refused before the synthesis
        self.decoder = codes_mod.decoder_for(self.code)
        sf = codes_mod.standard_form(self.code)
        self.params = codes_mod.derived_params(sf, code.n, code.k, code.d,
                                               name=code.name)
        self.networks = network_mod.synthesize_networks(sf, self.params)
        self.noise = noise
        self.protocol = protocol
        self.n = code.n
        self.rows = self.networks.rows
        self.t = code.t
        self.t_r = self._resting_time()
        self._prep, self._readout = _phase_tables(self.networks, noise)
        # data noise has no circuit after it: identity images on the data
        data = list(range(self.n))
        self._data_rest = _fault_table([], data, noise,
                                       (data, idle_flip_probability(noise.eps, self.t_r)))
        self._logical_gate = _fault_table([], data, noise, (data, noise.gamma))
        # a syndrome bit reads the ancilla X bits (readout bits n..2n-1) of
        # its check row, and a readout leaves only its data bits (X: 0..n-1,
        # Z: 2n..3n-1) in the frame; a G+V sample verifies with no X on a
        # verification qubit (G+V bits n..n+rows-1)
        n, checks = self.n, self.code.H
        self._readout_maps = {
            e: _readout_map(t, n, [[n + i for i in np.flatnonzero(row)] for row in checks])
            for e, t in self._readout.items()}
        # the data checks read the X (Z) plane as a readout that runs no
        # gates (the data rest's identity map) and writes nothing back
        self._data_checks = {
            plane: _readout_map(self._data_rest, 0,
                                [[k * n + i for i in np.flatnonzero(row)] for row in checks])
            for k, plane in enumerate("xz")}
        self._syndrome_checks = np.zeros(((4 * n + 63) // 64 * 64, len(checks)),
                                         dtype=np.float32)
        self._syndrome_checks[n:2 * n] = checks.T
        self._data_words = _word_mask([*range(n), *range(2 * n, 3 * n)], 4 * n)
        self._verify_word = _word_mask(range(n, n + self.rows), 2 * len(self._prep.qubits))

    def _resting_time(self) -> float:
        pp = self.protocol
        alpha = beta = 0.0            # unused by pinned provisioning
        if pp.parallel_corrections is None:
            alpha = analytic.preparation_stats(self.params, self.noise)["alpha"]
            beta, _ = analytic.solve_beta(self.params, self.noise, pp)
            if alpha <= 0.0:
                raise ProtocolError("code unusable at this noise (alpha <= 0)")
            r_max = 1 + (alpha * pp.n_rep - 1) / (1 - beta) if beta < 1 else float("inf")
            if pp.r > r_max + 1e-9:
                raise ProtocolError(
                    f"r={pp.r} exceeds r_max={r_max:.3f} at n_rep={pp.n_rep}: "
                    "raise n_rep or pin parallel_corrections")
        return resting_time(self.params.w, self.noise.t_m, pp, alpha, beta)

    def pools(self, rng) -> dict:
        """Fresh fault pools for one batch of a frame: G+V, the two readouts,
        the data's rest and the logical gate, each on its own child stream
        of ``rng`` in that order."""
        prep, z, x, rest, gate = rng.spawn(5)
        return {"prep": _PrepPool(self._prep, prep, self._verify_word),
                "Z": _Pool(self._readout["Z"], z, self._syndrome_checks, self._data_words),
                "X": _Pool(self._readout["X"], x, self._syndrome_checks, self._data_words),
                "rest": _Pool(self._data_rest, rest),
                "gate": _Pool(self._logical_gate, gate)}

    def _reset_ancilla(self, frame: ErrorFrame, mask: int) -> None:
        """Clear the ancilla and verification qubits on the masked lanes.

        G+V prepares each of them before any fault that survives it, so
        those lanes then hold exactly the fault image XORed in next."""
        keep, lo, hi = ~mask, self.n, 2 * self.n + self.rows
        frame.x[lo:hi] = [v & keep for v in frame.x[lo:hi]]
        frame.z[lo:hi] = [v & keep for v in frame.z[lo:hi]]

    # -- one syndrome extraction ---------------------------------------------
    def attempt_preparation(self, frame: ErrorFrame, rng, mask: int) -> int:
        """Run G and V once for the masked lanes, drawing straight from
        ``rng``; return the verified sub-mask."""
        lanes = _lanes(mask)
        self._reset_ancilla(frame, mask)
        _scatter(frame, self._prep, _draw(self._prep, rng, len(lanes)), lanes)
        bad = 0
        for q in self.networks.verification_qubits:
            bad |= frame.x[q]
        return mask & ~bad

    def prepare_verified(self, frame: ErrorFrame, mask: int,
                         max_attempts: int = 64) -> None:
        """Re-prepare until every masked lane holds a verified ancilla.

        Attempts come from the G+V pool of the lane's batch: each masked
        lane of a batch in turn takes the next samples until one verifies.
        A lane whose ``max_attempts`` attempts all fail goes on with the
        last one and is counted in ``frame.unverified``.
        """
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not mask:
            return
        self._reset_ancilla(frame, mask)
        for pools, lanes in _batch_lanes(frame, mask):
            frame.unverified += pools["prep"].hand_out_verified(frame, lanes, max_attempts)

    def couple_and_measure(self, frame: ErrorFrame, mask: int,
                           error_type: str) -> list[int]:
        """Readout wait, transversal coupling, ancilla readout, syndromes.

        Returns one packed syndrome int per lane (0 for lanes outside the
        mask).  The measured ancilla is discarded: its words keep their
        values until the next preparation resets them.
        """
        syndromes = _apply_readout(self._readout_maps[error_type], frame, mask)
        for pools, lanes in _batch_lanes(frame, mask):
            for lane, tag in pools[error_type].hand_out(frame, lanes):
                syndromes[lane] ^= tag
        return syndromes

    def add_noise(self, frame: ErrorFrame, mask: int, phase: str) -> None:
        """The data's rest (``phase`` "rest") or the logical gate's failures
        ("gate") on the masked lanes, from their batches' pools."""
        for pools, lanes in _batch_lanes(frame, mask):
            pools[phase].hand_out(frame, lanes)

    def data_syndromes(self, frame: ErrorFrame, plane: str, mask: int) -> list[int]:
        return _apply_readout(self._data_checks[plane], frame, mask)


# ---------------------------------------------------------------------------
# recovery and trials
# ---------------------------------------------------------------------------

def recover_block(frame: ErrorFrame, pending: dict[int, list[int]],
                  engine: SimEngine, error_type: str,
                  mask: int) -> tuple[int, int]:
    """One recovery of the masked lanes for one error type.

    ``pending`` maps each lane whose last recovery of this type reached no
    agreement to the syndromes it carries forward (at most r + r'', oldest
    first); every other lane's last recovery was settled.  A zero first
    syndrome is accepted at once and settles the lane.  Otherwise a settled
    lane takes r syndromes and a pending one r'', and the last r + r''
    syndromes of the two recoveries are judged; a lane that reaches no
    agreement stays (or becomes) pending with them.

    Returns (corrected_mask, crash_mask): lanes whose data was corrected,
    and lanes that accepted a syndrome with coset leader heavier than t.
    """
    pp = engine.protocol
    engine.prepare_verified(frame, mask)
    first = engine.couple_and_measure(frame, mask, error_type)

    # lanes outside the mask read 0
    need: dict[int, int] = {}
    pools: dict[int, list[int]] = {}
    for lane in compress(range(len(first)), first):
        need[lane] = pp.r_dprime if lane in pending else pp.r
        pools[lane] = [first[lane]]
    for lane in [lane for lane in pending if mask >> lane & 1 and lane not in need]:
        del pending[lane]
    if not pools:
        return 0, 0

    for k in range(2, max(need.values()) + 1):
        sub = sum(1 << lane for lane, total in need.items() if total >= k)
        engine.prepare_verified(frame, sub)
        extra = engine.couple_and_measure(frame, sub, error_type)
        for lane, total in need.items():
            if total >= k:
                pools[lane].append(extra[lane])

    plane = frame.x if error_type == "X" else frame.z
    keep = pp.r + pp.r_dprime
    lanes: list[int] = []
    accepted_syndromes: list[int] = []
    for lane, pool in pools.items():
        judged = (pending.pop(lane, []) + pool)[-keep:]
        accepted = judge_syndromes(judged, pp.r_prime)
        if accepted is None:
            pending[lane] = judged
            continue
        lanes.append(lane)
        accepted_syndromes.append(accepted)
    corrected = 0
    crashed = 0
    weights, leaders = engine.decoder.decode(accepted_syndromes)
    for lane, weight, leader in zip(lanes, weights.tolist(), leaders.tolist()):
        bit = 1 << lane
        if weight > engine.t:
            crashed |= bit
            continue
        for q in leader[:weight]:
            plane[q] ^= bit
        corrected |= bit
    return corrected, crashed


def run_batch(engine: SimEngine, rngs: list, q_max: int = Q_MAX_DEFAULT,
              mask: Optional[int] = None) -> TrialStats:
    """Run lane-parallel trials to crash or q_max steps in one frame, 64
    lanes per stream of ``rngs``, each batch on the fault pools of its own
    stream.  ``mask`` picks the trials' lanes (all of them by default)."""
    frame = ErrorFrame(n=engine.n, rows=engine.rows,
                       pools=[engine.pools(rng) for rng in rngs])
    if mask is None:
        mask = (1 << frame.lanes) - 1
    pending_z: dict[int, list[int]] = {}
    pending_x: dict[int, list[int]] = {}
    alive = mask
    stats = TrialStats.empty(q_max)
    stats.trials = bin(mask).count("1")
    for q in range(1, q_max + 1):
        if not alive:
            break
        engine.add_noise(frame, alive, "gate")
        # the data's rest covers the whole round, Z and X recovery alike
        engine.add_noise(frame, alive, "rest")
        _, crash_z = recover_block(frame, pending_z, engine, "Z", alive)
        _, crash_x = recover_block(frame, pending_x, engine, "X", alive & ~crash_z)
        crashed = crash_z | crash_x
        survivors = alive & ~crashed
        if survivors:
            syn_x = engine.data_syndromes(frame, "x", survivors)
            syn_z = engine.data_syndromes(frame, "z", survivors)
            # lanes outside survivors, and lanes with no data error, read 0
            lanes = list(compress(range(frame.lanes), map(or_, syn_x, syn_z)))
            weights, _ = engine.decoder.decode([syn_x[lane] for lane in lanes]
                                               + [syn_z[lane] for lane in lanes])
            for lane, weight in zip(lanes + lanes, weights):
                if weight > engine.t:
                    crashed |= 1 << lane
        newly = alive & crashed
        alive &= ~crashed
        stats.n_f[q] += bin(newly).count("1")
        stats.n_s[q] += bin(alive).count("1")
    stats.unverified = frame.unverified
    return stats


# ---------------------------------------------------------------------------
# Monte-Carlo driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    code_name: str
    noise: NoiseParams
    protocol: ProtocolParams
    q_max: int = Q_MAX_DEFAULT
    target_failures: int = 100
    max_trials: int = 4_000_000
    chunk_batches: int = 32   # stop-rule granularity: 32 * 64 trials


# engines kept for reuse, least recently used dropped first
_ENGINE_CACHE_SIZE = 8
_engine_cache: OrderedDict = OrderedDict()


def _engine_for(config: SimConfig) -> SimEngine:
    key = (config.code_name, config.noise, config.protocol)
    engine = _engine_cache.get(key)
    if engine is None:
        code = codes_mod.construct_code(config.code_name)
        engine = _engine_cache[key] = SimEngine(code, config.noise, config.protocol)
        if len(_engine_cache) > _ENGINE_CACHE_SIZE:
            _engine_cache.popitem(last=False)
    else:
        _engine_cache.move_to_end(key)
    return engine


def _run_batch_range(config: SimConfig, seed: int, lo: int, hi: int) -> TrialStats:
    """Batches lo..hi-1, ``FRAME_BATCHES`` to a frame; the batch that holds
    trial ``max_trials`` runs only the lanes up to it."""
    engine = _engine_for(config)
    acc = TrialStats.empty(config.q_max)
    for at in range(lo, hi, FRAME_BATCHES):
        top = min(at + FRAME_BATCHES, hi)
        lanes = min(64 * top, config.max_trials) - 64 * at
        acc.merge(run_batch(engine, [stream(seed, b) for b in range(at, top)],
                            q_max=config.q_max, mask=(1 << lanes) - 1))
    return acc


def estimate_pbar_mc(config: SimConfig, seed: int = 0,
                     workers: int = 1) -> TrialStats:
    """Repeat trials until the crash count at step q_max reaches the target.

    Work is sharded into 64-trial batches, one RNG stream per batch, and the
    stopping rule is evaluated at fixed chunk boundaries, so the aggregate
    counts are identical for any worker count.  The last chunk ends with
    the batch that holds trial ``max_trials``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # a target below 1 is met by the first chunk; a chunk of 0 batches
    # never reaches the trial cap
    if config.target_failures < 1:
        raise ValueError(f"target_failures must be >= 1, got {config.target_failures}")
    if config.chunk_batches < 1:
        raise ValueError(f"chunk_batches must be >= 1, got {config.chunk_batches}")
    total = TrialStats.empty(config.q_max, seed=seed)
    chunk = config.chunk_batches
    last = -(-config.max_trials // 64)
    next_batch = 0
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while True:
            lo, hi = next_batch, min(next_batch + chunk, last)
            next_batch = hi
            if pool is not None:
                per = max(1, chunk // workers)
                futs = []
                at = lo
                while at < hi:
                    futs.append(pool.submit(_run_batch_range, config, seed,
                                            at, min(at + per, hi)))
                    at += per
                for f in futs:
                    total.merge(f.result())
            else:
                total.merge(_run_batch_range(config, seed, lo, hi))
            if total.n_f[config.q_max] >= config.target_failures:
                break
            if total.trials >= config.max_trials:
                total.censored = True
                break
            # saturation: nothing ever survives to the last step
            deep = total.n_f[config.q_max] + total.n_s[config.q_max]
            if total.trials >= 8192 and deep == 0:
                total.censored = True
                break
    finally:
        if pool is not None:
            pool.shutdown()
    return total


def stats_csv_rows(config: SimConfig, stats: TrialStats) -> list[dict]:
    """Flatten a run into the tabular output schema."""
    noise, pp = config.noise, config.protocol
    rows = []
    for q in range(1, config.q_max + 1):
        rows.append({
            "code": config.code_name,
            "gamma": noise.gamma,
            "eps_over_gamma": noise.eps / noise.gamma if noise.gamma else 0.0,
            "t_m": noise.t_m,
            "n_rep": pp.n_rep if pp.parallel_corrections is None
                     else f"matched{pp.parallel_corrections:g}",
            "r": pp.r, "r_prime": pp.r_prime, "r_dprime": pp.r_dprime,
            "Q": q, "n_f": int(stats.n_f[q]), "n_s": int(stats.n_s[q]),
            "p_Q": stats.p(q), "pbar": stats.pbar, "stderr": stats.stderr,
            "seed": stats.seed, "trials": stats.trials,
        })
    return rows
