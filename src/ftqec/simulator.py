"""Pauli-frame Monte Carlo of the full recovery protocol.

A recovery crashes in only two ways: it accepts a syndrome whose coset
leader is heavier than t, or it leaves an error on the data whose syndrome
has a leader heavier than t.  Either way the block is read only through its
check matrix H, so the frame keeps, for each trial lane, the packed
syndromes under H of the data's X and Z errors (``ErrorFrame.sx``/``sz``),
not the errors themselves.  Many independent trials run side by side: 64
lanes per batch and up to ``FRAME_BATCHES`` batches per frame.  All
mutating operations take a lane mask and leave the other lanes untouched.

Faults are not applied gate by gate.  Frame propagation is linear over
GF(2), so a phase leaves the frame at its noiseless image XOR the
end-of-phase images of the faults that struck it.  Each extraction phase
(preparation G plus verification V, and coupling plus readout), the data's
rest and the logical step's noise are compiled once, by one backward sweep
over its schedule, into a single-fault table: every fault location (gate,
preparation, measurement, hole step, idle qubit) with its rate and the
image of each of its Paulis.  The same sweep gives the phase's noiseless
map.

Each pool tags every sample that carries a fault with the GF(2) product of
its image (``_GF2Map``, byte-indexed tables built once per engine): a
readout sample's tag is the syndrome bits its faults flip and the data
syndromes they leave, and a rest or logical-gate sample's tag the data
syndromes alone.  The ancilla block and its verification bits are not part
of the frame: a G+V sample's tag, its fold, is that of its image pushed
through each readout's noiseless map.  The coupling is transversal, so an
extraction is the plane's data syndromes XOR the kept sample's fold XOR the
readout faults' tags, and a coset-leader correction XORs the accepted
syndrome into the plane's.

Phase faults never depend on the frame, so they are drawn ahead of use.
Each batch of a frame has its own fault pool per phase table, made from
the batch's stream (``SimEngine.pools``) and drawn from its own child
stream ``POOL_ROWS`` lane-samples at a time (``_draw``, a few vectorised
draws per refill); a call hands the next sample of a batch's pool to each
of the batch's masked lanes in lane order and applies only the samples that
carry a fault.  A preparation hands a lane samples in pool order until one
verifies.  So a batch draws the same samples whichever batches share its
frame.

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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from typing import Optional

import numpy as np

from . import analytic
from . import codes as codes_mod
from . import network as network_mod
from .codes import ClassicalCode
from .network import GateEvent
from .noise import NoiseParams, Pauli, TWO_QUBIT_FAILURES, idle_flip_probability, stream
from .protocol import ProtocolError, ProtocolParams, resting_time

# logical steps per trial; p-bar reads steps Q_MAX-3..Q_MAX
Q_MAX = 10
# lane-samples drawn per fault-pool refill
POOL_ROWS = 512
# G+V attempts per lane before it couples an unverified ancilla
MAX_ATTEMPTS = 64
# 64-lane batches run side by side in one frame
FRAME_BATCHES = 32


@dataclass
class ErrorFrame:
    """The data block's error, lane by lane, as the packed syndromes under
    H of its X part (``sx[lane]``) and of its Z part (``sz[lane]``), bit l
    the parity of check row l.  The ancilla lives in the G+V pools as
    folded samples: ``folds`` maps each lane prepared and not yet coupled
    to its kept sample's nonzero fold."""
    # each batch's fault pools by phase (``SimEngine.pools``), batch b on
    # lanes 64b..64b+63; the engine's pooled phases draw from them
    pools: list[dict] = field(default_factory=list, repr=False, compare=False)
    sx: list[int] = field(default_factory=list)
    sz: list[int] = field(default_factory=list)
    # lanes coupled with an unverified ancilla, summed over preparations
    unverified: int = 0
    folds: dict[int, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.sx:
            self.sx = [0] * self.lanes
        if not self.sz:
            self.sz = [0] * self.lanes

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


@lru_cache(maxsize=16)
def _split(mask: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(batch, lanes) of each 64-lane batch with lanes in ``mask``."""
    lanes, out, lo = _lanes(mask), [], 0
    while lo < len(lanes):
        b = lanes[lo] // 64
        hi = bisect_left(lanes, 64 * b + 64, lo)
        out.append((b, lanes[lo:hi]))
        lo = hi
    return tuple(out)


def _batch_lanes(frame: ErrorFrame, mask: int) -> list[tuple[dict, tuple[int, ...]]]:
    """(pools, lanes) of each batch of the frame with lanes in ``mask``."""
    pools = frame.pools
    return [(pools[b], lanes) for b, lanes in _split(mask)]


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
    twice = cell[1:][cell[1:] == cell[:-1]]
    if twice.size:
        # a location fails at most once per sample: a group whose draw
        # repeats a (location, sample) cell draws its cells again without
        # replacement; groups own disjoint slot ranges, so a repeated
        # cell's slot names its group
        start = np.cumsum(counts) - counts
        groups = np.searchsorted(table.offsets, twice // rows, side="right") - 1
        for h in np.unique(groups).tolist():
            at = slice(start[h], start[h] + counts[h])
            pick = rng.choice(table.slots[h] * rows, size=counts[h], replace=False)
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


class _GF2Map:
    """A GF(2) linear map from images (rows of little-endian uint64 words)
    to packed ints: ``matrix`` is 0/1 with one row per image bit and one
    column per output bit.  It runs by the method of Four Russians: entry
    v of table b is the XOR of the rows of image byte b's bits set in v, and
    an image's product is the XOR of one entry per byte."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        bits, width = matrix.shape
        nbytes, words = (bits + 7) // 8, (width + 63) // 64
        rows = np.zeros((8 * nbytes, 64 * words), np.uint8)
        rows[:bits, :width] = matrix
        packed = np.packbits(rows, axis=1, bitorder="little").view("<u8")
        self.tables = np.zeros((nbytes, 256, words), "<u8")
        for i in range(8):
            self.tables[:, 1 << i:2 << i] = self.tables[:, :1 << i] ^ packed[i::8, None]
        self.at = np.arange(nbytes)

    def __call__(self, images: np.ndarray) -> list[int]:
        """One product per image row."""
        data = images.view(np.uint8)[:, :len(self.at)]
        return _values(np.bitwise_xor.reduce(self.tables[self.at, data], axis=1))


class _Pool:
    """Lane-samples of one phase, drawn ``POOL_ROWS`` at a time from the
    pool's own stream and handed out in draw order.

    After a refill ``hit`` lists the samples that carry a fault, in
    increasing order, and ``tags[i]`` splits hit i's product under
    ``tag_map`` (three fields of ``width`` bits) into its fields: the
    syndrome bits the faults flip (0 outside a readout), then the syndromes
    of the X and of the Z errors they leave on the data.
    """

    def __init__(self, table: _FaultTable, rng, tag_map: _GF2Map, width: int):
        self.table, self.rng, self.tag_map, self.width = table, rng, tag_map, width
        self.at = POOL_ROWS        # next sample; the pool starts empty

    def _sample(self) -> tuple[np.ndarray, np.ndarray]:
        """Draw the next samples; return the hits and their images."""
        images = _draw(self.table, self.rng, POOL_ROWS)
        hit = np.flatnonzero(np.bitwise_or.reduce(images, axis=1))
        return hit, images[hit]

    def refill(self) -> None:
        hit, images = self._sample()
        self.at = 0
        self.hit = hit.tolist()
        w, low = self.width, (1 << self.width) - 1
        self.tags = [(t & low, t >> w & low, t >> 2 * w) for t in self.tag_map(images)]

    def hand_out(self, frame: ErrorFrame, lanes: list[int]) -> list[tuple[int, int]]:
        """XOR the data syndromes of the next ``len(lanes)`` samples into
        ``lanes``, one each, and return ``(lane, syndrome bits)`` for every
        sample that carried a fault."""
        sx, sz, out, done = frame.sx, frame.sz, [], 0
        while done < len(lanes):
            if self.at == POOL_ROWS:
                self.refill()
            hit, tags = self.hit, self.tags
            stop = min(POOL_ROWS, self.at + len(lanes) - done)
            lo = bisect_left(hit, self.at)
            for i in range(lo, bisect_left(hit, stop, lo)):
                lane = lanes[done + hit[i] - self.at]
                syndrome, x, z = tags[i]
                sx[lane] ^= x
                sz[lane] ^= z
                out.append((lane, syndrome))
            done += stop - self.at
            self.at = stop
        return out


class _PrepPool(_Pool):
    """The G+V pool: a sample verifies when its image has none of the bits
    of the word mask ``verify`` (the X bits of the verification qubits).
    A sample's tag, under ``fold``, is its fold (``SimEngine._fold``).

    A lane retries on the next samples until one verifies, and after
    ``MAX_ATTEMPTS`` failures in a row keeps the last of them.  So the
    samples lanes keep do not depend on where one call ends and the next
    begins: they are the verified samples and every ``MAX_ATTEMPTS``-th
    failure of a run, counted from the last kept sample.  A refill
    schedules its kept samples once, carrying in the run of failures the
    last refill ended with (``failed``).  Kept samples go by their rank in
    draw order, 0 to ``kept`` - 1: ``next`` is the next one to hand out,
    ``forced`` lists the unverified ones, and ``fold`` maps each whose fold
    is not 0 to it.
    """

    def __init__(self, table: _FaultTable, rng, verify: np.ndarray, fold: _GF2Map):
        super().__init__(table, rng, fold, 0)
        self.verify = verify
        self.kept = self.next = self.failed = 0

    def refill(self) -> None:
        hit, images = self._sample()
        ok = np.ones(POOL_ROWS, dtype=bool)
        ok[hit[(images & self.verify).any(axis=1)]] = False
        at = np.arange(POOL_ROWS)
        last_ok = np.maximum.accumulate(np.where(ok, at, -1 - self.failed))
        keep = ok | ((at - last_ok) % MAX_ATTEMPTS == 0)
        self.failed = int(POOL_ROWS - 1 - last_ok[-1]) % MAX_ATTEMPTS
        rank = np.cumsum(keep) - 1
        self.kept, self.next = int(rank[-1]) + 1, 0
        self.forced = rank[keep & ~ok].tolist()
        kept_hit = keep[hit]
        self.fold = {k: v for k, v in zip(rank[hit[kept_hit]].tolist(),
                                          self.tag_map(images[kept_hit])) if v}
        self.fold_keys = list(self.fold)

    def hand_out_verified(self, frame: ErrorFrame, lanes: list[int]) -> int:
        """Record the next kept sample's fold for each lane in turn and
        return how many lanes kept an unverified one."""
        folds, unverified, done = frame.folds, 0, 0
        while done < len(lanes):
            if self.next == self.kept:
                self.refill()
            lo = self.next
            hi = min(self.kept, lo + len(lanes) - done)
            # the folded samples among them: few when faults are rare
            keys = self.fold_keys
            for k in keys[bisect_left(keys, lo):bisect_left(keys, hi)]:
                folds[lanes[done + k - lo]] = self.fold[k]
            unverified += bisect_left(self.forced, hi) - bisect_left(self.forced, lo)
            done += hi - lo
            self.next = hi
        return unverified


def _take_folds(frame: ErrorFrame, mask: int) -> list[tuple[int, int]]:
    """Remove the masked lanes' recorded folds; return them as (lane, fold)."""
    folds = frame.folds
    return [(lane, folds.pop(lane)) for lane in [lane for lane in folds if mask >> lane & 1]]


def _masked(values: list[int], mask: int) -> list[int]:
    """``values`` on the lanes of ``mask``, 0 on the others."""
    out = [0] * len(values)
    for lane in _lanes(mask):
        out[lane] = values[lane]
    return out


def _word_mask(positions, width: int) -> np.ndarray:
    """Little-endian uint64 words over ``width`` bits with ``positions`` set."""
    bits = np.zeros((width + 63) // 64 * 64, dtype=np.uint8)
    bits[list(positions)] = 1
    return np.packbits(bits, bitorder="little").view("<u8")


def _fold_checks(prep: _FaultTable, readouts: list[_FaultTable],
                 checks: np.ndarray) -> np.ndarray:
    """The 0/1 matrix that folds a G+V image (row b: image bit b) through
    each readout's noiseless map (``transfer``, over data then ancilla).
    Each readout adds three fields of len(checks) columns: the syndrome
    bits the image's ancilla share leaves, bit l reading the measured
    ancilla's X bits of check row l, then the syndromes of the X and of
    the Z errors it copies into the data."""
    n = checks.shape[1]
    m, nbytes = 2 * n, (4 * n + 7) // 8
    h = checks.T.astype(np.int64)
    fields = []
    for table in readouts:
        # end-of-readout images of an X, then a Z, on each ancilla qubit
        words = [table.transfer[b] for b in [*range(n, m), *range(m + n, 2 * m)]]
        end = np.unpackbits(np.frombuffer(b"".join(v.to_bytes(nbytes, "little") for v in words),
                                          np.uint8).reshape(m, nbytes), axis=1, bitorder="little")
        fields += [end[:, n:m] @ h, end[:, :n] @ h, end[:, m:m + n] @ h]
    m_prep = len(prep.qubits)         # ancilla then verification qubits
    out = np.zeros((2 * m_prep, len(fields) * len(checks)), np.uint8)
    out[[*range(n), *range(m_prep, m_prep + n)]] = np.hstack(fields) & 1
    return out


# ---------------------------------------------------------------------------
# syndrome agreement
# ---------------------------------------------------------------------------

def judge_syndromes(pool: list[int], r_prime: int) -> Optional[int]:
    """Accept a syndrome value occurring at least r' times in the pool.

    Pool is ordered oldest to newest.  Between competing values the one
    whose r'-th most recent occurrence is latest wins: scanning from the
    newest, the first value to reach r' occurrences.
    """
    seen: dict[int, int] = {}
    for s in reversed(pool):
        count = seen.get(s, 0) + 1
        if count >= r_prime:
            return s
        seen[s] = count
    return None


@dataclass
class TrialStats:
    """Crash/survival counts per logical step 0..``Q_MAX`` and the derived
    rates."""
    n_f: np.ndarray
    n_s: np.ndarray
    trials: int = 0
    censored: bool = False
    seed: int = 0
    # lane-preparations that ran out of attempts and coupled unverified
    unverified: int = 0
    q_max = Q_MAX

    @staticmethod
    def empty(seed: int = 0) -> "TrialStats":
        return TrialStats(n_f=np.zeros(Q_MAX + 1, dtype=np.int64),
                          n_s=np.zeros(Q_MAX + 1, dtype=np.int64), seed=seed)

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
        # a readout sample's tag is the syndrome bits its faults flip, which
        # read the ancilla X bits (readout bits n..2n-1) of the check rows,
        # then the syndromes of its data X (bits 0..n-1) and Z (2n..3n-1)
        # bits; a data sample's tag has no syndrome bits.  A G+V sample
        # verifies with no X on a verification qubit (G+V bits
        # n..n+rows-1), and its tag folds it through the Z and then the X
        # readout
        n, checks = self.n, self.code.H
        self.syndrome_bits = r = len(checks)
        readout = np.zeros((4 * n, 3 * r), np.uint8)
        readout[n:2 * n, :r] = readout[:n, r:2 * r] = readout[2 * n:3 * n, 2 * r:] = checks.T
        self._readout_tags = _GF2Map(readout)
        # the data's X and Z bits (data image bits 0..n-1, n..2n-1)
        self._data_tags = _GF2Map(readout[[*range(n), *range(2 * n, 3 * n)]])
        self._verify_word = _word_mask(range(n, n + self.rows), 2 * len(self._prep.qubits))
        self._fold = _GF2Map(_fold_checks(self._prep, [self._readout["Z"], self._readout["X"]],
                                          checks))

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
        w = self.syndrome_bits
        return {"prep": _PrepPool(self._prep, prep, self._verify_word, self._fold),
                "Z": _Pool(self._readout["Z"], z, self._readout_tags, w),
                "X": _Pool(self._readout["X"], x, self._readout_tags, w),
                "rest": _Pool(self._data_rest, rest, self._data_tags, w),
                "gate": _Pool(self._logical_gate, gate, self._data_tags, w)}

    # -- one syndrome extraction ---------------------------------------------
    def attempt_preparation(self, frame: ErrorFrame, rng, mask: int) -> int:
        """Run G and V once for the masked lanes, drawing straight from
        ``rng``; return the verified sub-mask."""
        lanes = _lanes(mask)
        images = _draw(self._prep, rng, len(lanes))
        _take_folds(frame, mask)
        frame.folds.update((lane, v) for lane, v in zip(lanes, self._fold(images)) if v)
        bad = (images & self._verify_word).any(axis=1).tolist()
        return mask & ~sum(1 << lane for lane in compress(lanes, bad))

    def prepare_verified(self, frame: ErrorFrame, mask: int) -> None:
        """Re-prepare until every masked lane holds a verified ancilla.

        Attempts come from the G+V pool of the lane's batch: each masked
        lane of a batch in turn takes the next samples until one verifies,
        and records its fold.  A lane whose ``MAX_ATTEMPTS`` attempts all
        fail goes on with the last one and is counted in
        ``frame.unverified``; its run of failures may span two refills.
        """
        if not mask:
            return
        _take_folds(frame, mask)
        for pools, lanes in _batch_lanes(frame, mask):
            frame.unverified += pools["prep"].hand_out_verified(frame, lanes)

    def couple_and_measure(self, frame: ErrorFrame, mask: int,
                           error_type: str) -> list[int]:
        """Readout wait, transversal coupling, ancilla readout, syndromes:
        the error type's data syndromes XOR each masked lane's recorded
        fold, spent here along with the data syndromes it leaves, XOR the
        readout faults' syndrome bits.  Returns one packed syndrome int per
        lane (0 for lanes outside the mask)."""
        syndromes = _masked(frame.sx if error_type == "X" else frame.sz, mask)
        if frame.folds:
            # a fold is the Z readout's three fields, then the X readout's
            w = self.syndrome_bits
            at, low = (0 if error_type == "Z" else 3 * w), (1 << w) - 1
            sx, sz = frame.sx, frame.sz
            for lane, fold in _take_folds(frame, mask):
                fold >>= at
                syndromes[lane] ^= fold & low
                sx[lane] ^= fold >> w & low
                sz[lane] ^= fold >> 2 * w & low
        for pools, lanes in _batch_lanes(frame, mask):
            for lane, syndrome in pools[error_type].hand_out(frame, lanes):
                syndromes[lane] ^= syndrome
        return syndromes

    def add_noise(self, frame: ErrorFrame, mask: int, phase: str) -> None:
        """The data's rest (``phase`` "rest") or the logical gate's failures
        ("gate") on the masked lanes, from their batches' pools."""
        for pools, lanes in _batch_lanes(frame, mask):
            pools[phase].hand_out(frame, lanes)

    def data_syndromes(self, frame: ErrorFrame, plane: str, mask: int) -> list[int]:
        """The masked lanes' syndromes of the data's X (``plane`` "x") or Z
        ("z") error, 0 on the other lanes."""
        return _masked(frame.sx if plane == "x" else frame.sz, mask)


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

    # lanes outside the mask read 0; the lanes read nonzero take more
    # syndromes, r in all if settled and r'' if pending
    pools: dict[int, list[int]] = {}
    settled = carried = 0
    for lane in compress(range(len(first)), first):
        pools[lane] = [first[lane]]
        if lane in pending:
            carried |= 1 << lane
        else:
            settled |= 1 << lane
    for lane in [lane for lane in pending if mask >> lane & 1 and lane not in pools]:
        del pending[lane]
    if not pools:
        return 0, 0

    for k in range(2, max(pp.r, pp.r_dprime) + 1):
        sub = (settled if k <= pp.r else 0) | (carried if k <= pp.r_dprime else 0)
        if not sub:
            break
        engine.prepare_verified(frame, sub)
        extra = engine.couple_and_measure(frame, sub, error_type)
        for lane in _lanes(sub):
            pools[lane].append(extra[lane])

    syn = frame.sx if error_type == "X" else frame.sz
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
    if not lanes:
        return corrected, crashed
    weights = engine.decoder.decode(accepted_syndromes)
    for lane, weight, accepted in zip(lanes, weights.tolist(), accepted_syndromes):
        if weight > engine.t:
            crashed |= 1 << lane
            continue
        # a coset leader's syndrome is the accepted syndrome
        syn[lane] ^= accepted
        corrected |= 1 << lane
    return corrected, crashed


def run_batch(engine: SimEngine, rngs: list, mask: Optional[int] = None) -> TrialStats:
    """Run lane-parallel trials to crash or ``Q_MAX`` logical steps in one
    frame, 64 lanes per stream of ``rngs``, each batch on the fault pools of
    its own stream.  ``mask`` picks the trials' lanes (all of them by
    default)."""
    frame = ErrorFrame(pools=[engine.pools(rng) for rng in rngs])
    if mask is None:
        mask = (1 << frame.lanes) - 1
    pending_z: dict[int, list[int]] = {}
    pending_x: dict[int, list[int]] = {}
    alive = mask
    stats = TrialStats.empty()
    stats.trials = bin(mask).count("1")
    for q in range(1, Q_MAX + 1):
        if not alive:
            break
        engine.add_noise(frame, alive, "gate")
        # the data's rest covers the whole round, Z and X recovery alike
        engine.add_noise(frame, alive, "rest")
        _, crash_z = recover_block(frame, pending_z, engine, "Z", alive)
        _, crash_x = recover_block(frame, pending_x, engine, "X", alive & ~crash_z)
        crashed = crash_z | crash_x
        survivors = alive & ~crashed
        sx, sz = frame.sx, frame.sz
        # the survivors with a data error
        lanes = [lane for lane in _lanes(survivors) if sx[lane] | sz[lane]]
        if lanes:
            weights = engine.decoder.decode([sx[lane] for lane in lanes]
                                            + [sz[lane] for lane in lanes])
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
    acc = TrialStats.empty()
    for at in range(lo, hi, FRAME_BATCHES):
        top = min(at + FRAME_BATCHES, hi)
        lanes = min(64 * top, config.max_trials) - 64 * at
        acc.merge(run_batch(engine, [stream(seed, b) for b in range(at, top)],
                            mask=(1 << lanes) - 1))
    return acc


def estimate_pbar_mc(config: SimConfig, seed: int = 0,
                     workers: int = 1) -> TrialStats:
    """Repeat ``Q_MAX``-step trials until the crash count at step
    ``Q_MAX`` reaches the target.

    Work is sharded into 64-trial batches, one RNG stream per batch, and the
    stopping rule is evaluated at fixed chunk boundaries, so the aggregate
    counts are identical for any worker count.  The last chunk ends with
    the batch that holds trial ``max_trials``.  A chunk of b batches runs
    as min(workers, b) contiguous ranges whose sizes differ by at most one,
    so the process pool has no more than ``chunk_batches`` workers.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # a target below 1 is met by the first chunk; a chunk of 0 batches
    # never reaches the trial cap; a cap below 1 leaves no batch to split
    if config.target_failures < 1:
        raise ValueError(f"target_failures must be >= 1, got {config.target_failures}")
    if config.chunk_batches < 1:
        raise ValueError(f"chunk_batches must be >= 1, got {config.chunk_batches}")
    if config.max_trials < 1:
        raise ValueError(f"max_trials must be >= 1, got {config.max_trials}")
    total = TrialStats.empty(seed=seed)
    chunk = config.chunk_batches
    last = -(-config.max_trials // 64)
    next_batch = 0
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=min(workers, chunk))
    try:
        while True:
            lo, hi = next_batch, min(next_batch + chunk, last)
            next_batch = hi
            if pool is not None:
                parts = min(workers, hi - lo)
                per, longer = divmod(hi - lo, parts)
                bounds = [lo + i * per + min(i, longer) for i in range(parts + 1)]
                futs = [pool.submit(_run_batch_range, config, seed, a, b)
                        for a, b in zip(bounds, bounds[1:])]
                for f in futs:
                    total.merge(f.result())
            else:
                total.merge(_run_batch_range(config, seed, lo, hi))
            if total.n_f[Q_MAX] >= config.target_failures:
                break
            if total.trials >= config.max_trials:
                total.censored = True
                break
            # saturation: nothing ever survives to the last step
            deep = total.n_f[Q_MAX] + total.n_s[Q_MAX]
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
    for q in range(1, Q_MAX + 1):
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
