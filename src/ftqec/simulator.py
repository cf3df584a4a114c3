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
tag of each of its Paulis.

A tag is what the frame keeps of a fault: the syndrome bits it flips
(readouts only), then the syndromes of the X and of the Z errors it leaves
on the data.  The sweep is linear, so it starts from the tags of single
end-of-phase Paulis (``ends``) and every row it emits is a fault's tag; its
noiseless map (``transfer``) then takes a start-of-phase Pauli to its tag.
The data's phases and both readouts start from H's columns.  The ancilla
block and its verification bits are not part of the frame: a G+V fault's
tag is its fold, its image pushed through each readout's noiseless map,
followed by its X bits on the verification qubits, so the G+V sweep starts
from the readouts' maps.  A sample's tag is the XOR of its faults' tags,
and a G+V sample verifies when its tag's verification bits are 0.  The
coupling is transversal, so an extraction is the plane's data syndromes XOR
the kept sample's fold XOR the readout faults' tags, and a coset-leader
correction XORs the accepted syndrome into the plane's.  One call prepares,
couples and reads out (``SimEngine.couple_and_measure``): it takes each
lane's kept G+V sample and its readout sample and applies both, so no fold
waits in the frame between a preparation and its coupling.

Phase faults never depend on the frame, so they are drawn ahead of use.
Each batch of a frame has its own fault pool per phase table
(``SimEngine.pools``), which holds ``POOL_ROWS`` lane-samples at a time
(``_faults``, a few vectorised draws, whose faults' tags one
``np.bitwise_xor.at`` combines).  A draw's cost is mostly fixed at low
noise, so the batch's five pools take their first samples from one draw
on the batch's stream over the five tables joined (``_join``), split by
pool.  ``POOL_ROWS`` covers what one 64-lane batch takes from a pool
there, so that draw is the batch's only one.  A pool that runs out refills
alone from its own stream, a child of the batch's made at that refill, so
no pool's draws depend on when another runs out.  A call hands the next
sample of a batch's pool to each of the batch's masked lanes in lane
order and applies only the samples whose tag is not 0.  A pool keeps a
cursor into its struck samples, so a hand-out whose window holds none
costs O(1), and one that holds some costs one bisect from the cursor.
A preparation hands a lane samples in pool order until one verifies;
both kinds of pool share one hand-out.  So a batch draws the same
samples whichever batches share its frame.  A recovery's extractions
after the first go out in one pass per batch
(``SimEngine.extract_rounds``): each pool hands out once over the rounds'
lane lists joined in round order, which gives every lane the samples that
round-by-round calls would.

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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import compress
from typing import Optional

import numpy as np

from . import analytic
from . import codes as codes_mod
from . import gf2
from . import network as network_mod
from .codes import ClassicalCode
from .network import GateEvent
from .noise import NoiseParams, Pauli, TWO_QUBIT_FAILURES, idle_flip_probability, stream
from .protocol import ProtocolError, ProtocolParams, resting_time

# logical steps per trial; p-bar reads steps Q_MAX-3..Q_MAX
Q_MAX = 10
# lane-samples drawn per fault-pool refill
POOL_ROWS = 2048
# G+V attempts per lane before it couples an unverified ancilla
MAX_ATTEMPTS = 64
# 64-lane batches run side by side in one frame
FRAME_BATCHES = 32


@dataclass
class ErrorFrame:
    """The data block's error, lane by lane, as the packed syndromes under
    H of its X part (``sx[lane]``) and of its Z part (``sz[lane]``), bit l
    the parity of check row l.  The ancilla is not part of the frame: an
    extraction takes each lane's kept G+V sample from the lane's pool and
    spends it at once."""
    # each batch's fault pools by phase (``SimEngine.pools``), batch b on
    # lanes 64b..64b+63; the engine's pooled phases draw from them
    pools: list[dict] = field(default_factory=list, repr=False, compare=False)
    sx: list[int] = field(default_factory=list)
    sz: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.sx:
            self.sx = [0] * self.lanes
        if not self.sz:
            self.sz = [0] * self.lanes

    @property
    def lanes(self) -> int:
        """Lanes of the frame: 64 per batch, and 64 for a frame without pools."""
        return 64 * max(1, len(self.pools))

    @property
    def unverified(self) -> int:
        """Lanes coupled with an unverified ancilla: the G+V pools' tallies."""
        return sum(pools["prep"].unverified for pools in self.pools)


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
    """Every single fault of one phase with its tag.

    A fault's tag is the XOR of the ``ends`` (``_fault_table``) of the
    Paulis its end-of-phase image holds; each row of ``tags`` holds one tag
    as little-endian uint64 words.  A phase runs as the noiseless pass of
    ``program`` followed by the XOR of the sampled faults' tags.  The
    noiseless pass is linear: ``transfer[j]`` (``transfer[m + j]``) is the
    tag of an X (a Z) on ``qubits[j]`` at the start of the phase, m qubits.

    ``sites`` lists the fault locations in row order as ``(step, slot,
    qubits, paulis, row)``: the fault strikes before gate ``slot`` of
    program step ``step`` (after it, for a preparation), after the step's
    gates when ``slot`` is their count (a hole), or before the phase when
    ``step`` is -1 (an idle); Pauli ``paulis[p]`` acting on ``qubits`` has
    tag row ``row + p``.

    Sampling goes by groups.  Group g draws Binomial(``slots[g]`` x
    samples, ``rates[g]``) failures, each on a uniform (slot, sample,
    offset < span[g]) triple whose tag row is ``slot_row[offsets[g] +
    slot] + offset``.  In a Bernoulli group a slot is one location, its span
    the location's Pauli count, and failures take distinct (slot, sample)
    cells: every location fails independently in every sample.  In a hole
    group a slot is one resting qubit-step of a step sharing the group's
    register, its row run that step's (register qubit, Pauli) tags.
    """
    qubits: list[int]
    program: list[tuple]
    transfer: list[int]
    tags: np.ndarray
    sites: list[tuple]
    rates: list[float]
    slots: np.ndarray
    span: np.ndarray
    offsets: np.ndarray
    distinct: np.ndarray
    slot_row: np.ndarray
    # the phase tables a joined table joins, in order (``_join``); empty
    # for one phase's table
    parts: tuple = ()


def _fault_table(program, qubits, noise: NoiseParams, ends,
                 idle=((), 0.0)) -> _FaultTable:
    """Compile a phase program by one backward (Heisenberg) sweep.

    ``ends[j]`` = (x, z) are the tags of an X and of a Z on ``qubits[j]``
    at the end of the phase.  During the sweep ``col_x[j]`` / ``col_z[j]``
    hold the tag of an X / Z on ``qubits[j]`` at the current point of the
    phase, so a gate updates at most two columns and every location reads
    its tags off them, and at the end they hold the phase's noiseless map.
    ``idle`` = (qubits, rate) adds one three-Pauli location per qubit before
    the first step.
    """
    local = {q: j for j, q in enumerate(qubits)}
    col_x, col_z = map(list, zip(*ends))
    words = (max(x | z for x, z in ends).bit_length() + 63) // 64

    def tags_of(site_qubits, paulis) -> list[int]:
        # Pauli values index each qubit's (I, X, Z, Y) tags
        tags = [(0, col_x[j], col_z[j], col_x[j] ^ col_z[j])
                for j in map(local.get, site_qubits)]
        if len(tags) == 2:
            a, b = tags
            return [a[p] ^ b[r] for p, r in paulis]
        return [tags[0][p] for p, in paulis]

    locations: dict[tuple, list] = {}   # (rate, Pauli count) -> [(site, tags)]
    holes: dict[tuple, list] = {}       # register -> [(slots, [(site, tags)])]

    def record(rate, site, paulis):
        locations.setdefault((rate, len(paulis)), []).append(
            (site + (paulis,), tags_of(site[2], paulis)))

    for s in range(len(program) - 1, -1, -1):
        gates, slots, register = program[s]
        if slots:
            holes.setdefault(tuple(register), []).append(
                (slots, [((s, len(gates), (q,), _SINGLE), tags_of((q,), _SINGLE))
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
        for site, tags in members:
            sites.append(site + (len(rows),))
            slot_row.append(len(rows))
            rows += tags
    for register, steps in holes.items():
        groups.append((noise.eps, sum(n for n, _ in steps), 3 * len(register),
                       len(slot_row), False))
        for slots, members in steps:
            slot_row += [len(rows)] * slots
            for site, tags in members:
                sites.append(site + (len(rows),))
                rows += tags
    tags = np.frombuffer(b"".join(v.to_bytes(8 * words, "little") for v in rows),
                         dtype="<u8").reshape(len(rows), words)
    rates, slots, span, offsets, distinct = zip(*groups)
    return _FaultTable(list(qubits), program, col_x + col_z, tags, sites,
                       list(rates), np.array(slots), np.array(span),
                       np.array(offsets), np.array(distinct), np.array(slot_row))


def _data_ends(checks: np.ndarray) -> list[tuple[int, int]]:
    """The tags of an X and of a Z on each data qubit: its check-matrix
    column in the data's X, then Z, syndrome field (three fields of
    ``len(checks)`` bits, the first the syndrome bits a readout flips)."""
    w = len(checks)
    return [(c << w, c << 2 * w) for c in gf2.rows_to_ints(checks.T)]


def _phase_tables(ns: network_mod.NetworkSet, checks: np.ndarray, noise: NoiseParams):
    """Fault tables of the coupling-plus-readout of each error type (over
    data and ancilla, with the t_m readout wait as an idle on the ancilla)
    and of the preparation G+V (over ancilla and verification qubits).

    A readout ends on the data as ``_data_ends`` says; there an ancilla X
    flips its column's syndrome bits and an ancilla Z reads nothing.  G+V
    ends on each ancilla qubit at its fold, the tags that the readouts'
    noiseless maps (``transfer``) give its X and its Z, the Z readout's 3w
    bits then the X readout's for w check rows; verification qubit l's X
    ends at bit 6w + l and its Z at nothing."""
    n, w = ns.n, len(checks)
    data, anc = list(range(n)), list(ns.ancilla_qubits)
    ver = list(ns.verification_qubits)
    ends = _data_ends(checks) + [(c, 0) for c in gf2.rows_to_ints(checks.T)]
    wait = (anc, idle_flip_probability(noise.eps, noise.t_m))
    readout = {e: _fault_table(_program(coupling + ns.measure_schedule), data + anc,
                               noise, ends, wait)
               for e, coupling in (("Z", ns.coupling_cnot), ("X", ns.coupling_cphase))}
    z, x = readout["Z"].transfer, readout["X"].transfer
    fold = [(z[b] | x[b] << 3 * w, z[b + 2 * n] | x[b + 2 * n] << 3 * w)
            for b in range(n, 2 * n)]
    prep = (_program(ns.g_schedule, ns.g_step_rest, anc)
            + _program(ns.v_schedule, ns.v_step_rest, anc + ver))
    verify = [(1 << 6 * w + l, 0) for l in range(len(ver))]
    return _fault_table(prep, anc + ver, noise, fold + verify), readout


@lru_cache(maxsize=16)
def _lanes(mask: int) -> tuple[int, ...]:
    """The lanes set in ``mask``, in increasing order; the last few listings
    are kept, as every call of a step lists the same alive lanes."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


def _by_batch(lanes):
    """(batch, lanes) of each 64-lane batch among increasing ``lanes``."""
    out, lo = [], 0
    while lo < len(lanes):
        b = lanes[lo] // 64
        hi = bisect_left(lanes, 64 * b + 64, lo)
        out.append((b, lanes[lo:hi]))
        lo = hi
    return out


@lru_cache(maxsize=16)
def _split(mask: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(batch, lanes) of each 64-lane batch with lanes in ``mask``."""
    return tuple(_by_batch(_lanes(mask)))


def _batch_lanes(frame: ErrorFrame, mask: int) -> list[tuple[dict, tuple[int, ...]]]:
    """(pools, lanes) of each batch of the frame with lanes in ``mask``."""
    pools = frame.pools
    return [(pools[b], lanes) for b, lanes in _split(mask)]


def _faults(table: _FaultTable, rng, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample every fault of one phase in ``rows`` independent lane-samples.

    Returns the sample and the tag row of each fault that struck.  The
    phases of a joined table (``_join``) draw ``rows`` samples each, phase
    k's numbered k * ``rows`` on.
    """
    counts = rng.binomial(table.slots * rows, table.rates)
    if not counts.any():
        return _NO_FAULTS
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
    if table.parts:
        # faults come in group order, and each phase's groups in a run
        first = np.cumsum([0] + [len(t.slots) for t in table.parts[:-1]])
        row += np.repeat(rows * np.arange(len(first)), np.add.reduceat(counts, first))
    return row, table.slot_row[slot] + rest % span


_NO_FAULTS = (np.zeros(0, np.intp), np.zeros(0, np.intp))


def _join(tables) -> _FaultTable:
    """One table over the phases of ``tables``, for one draw of them all:
    their groups in order, each phase's slots and tag rows numbered on
    from the phase before, and its tags padded with 0 words to the widest.
    A group's law reads only its own entries, so the draw samples each
    phase as its own table would.  Its ``parts`` are the phases' tables
    with their tags read from the joined ones, so the tags are held once."""
    words = max(t.tags.shape[1] for t in tables)
    tags = np.zeros((sum(len(t.tags) for t in tables), words), "<u8")
    parts, offsets, slot_row, slot, row = [], [], [], 0, 0
    for t in tables:
        mine = tags[row:row + len(t.tags), :t.tags.shape[1]]
        mine[:] = t.tags
        parts.append(replace(t, tags=mine))
        offsets.append(t.offsets + slot)
        slot_row.append(t.slot_row + row)
        slot, row = slot + len(t.slot_row), row + len(t.tags)
    return _FaultTable([], [], [], tags, [], [r for t in tables for r in t.rates],
                       np.concatenate([t.slots for t in tables]),
                       np.concatenate([t.span for t in tables]), np.concatenate(offsets),
                       np.concatenate([t.distinct for t in tables]),
                       np.concatenate(slot_row), tuple(parts))


def _draw_tags(table: _FaultTable, rng) -> list[np.ndarray]:
    """The tags of ``POOL_ROWS`` fresh samples of each phase that ``table``
    joins (one phase's own table joins only itself), one row of words each,
    from one draw of ``table``'s faults on ``rng``."""
    parts = table.parts or (table,)
    sample, row = _faults(table, rng, POOL_ROWS)
    tags = _xor_rows(len(parts) * POOL_ROWS, sample, table.tags[row])
    return [tags[k * POOL_ROWS:(k + 1) * POOL_ROWS, :t.tags.shape[1]]
            for k, t in enumerate(parts)]


def _child(seq: np.random.SeedSequence, index: int) -> np.random.Generator:
    """Stream ``index`` under the stream seeded by ``seq``: the generator
    that ``spawn`` gives as child ``index`` of a stream that spawned none,
    made alone."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        seq.entropy, spawn_key=seq.spawn_key + (index,), pool_size=seq.pool_size)))


def _xor_rows(rows: int, sample: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``rows`` rows of little-endian uint64 words, row k the XOR of the
    rows of ``values`` whose ``sample`` is k.  The array is column-major:
    a test across each row's words (``any(axis=1)``) then runs one word at
    a time over every row, several times faster than row by row."""
    acc = np.zeros((values.shape[1], rows), dtype="<u8").T
    if sample.size:
        np.bitwise_xor.at(acc, sample, values)
    return acc


def _values(rows: np.ndarray) -> list[int]:
    """Each row of little-endian uint64 words as one int."""
    values = rows[:, 0].tolist()
    for w in range(1, rows.shape[1]):
        values = [v | u << 64 * w for v, u in zip(values, rows[:, w].tolist())]
    return values


class _Pool:
    """Lane-samples of one phase, handed out in draw order.

    ``SimEngine.pools`` fills a batch's pools with their first
    ``POOL_ROWS`` samples from one draw on the batch stream; a pool that
    runs out refills alone, ``POOL_ROWS`` samples at a time, from its own
    stream, child ``index`` of the batch stream (``_child`` of ``seq``),
    made at that refill.  So no pool's draws depend on when another runs
    out.

    A sample's tag is the XOR of the tags (``table.tags``) of the faults
    that struck it.  A tag has three fields of one syndrome's width: the
    syndrome bits the faults flip (0 outside a readout), then the
    syndromes of the X and of the Z errors they leave on the data.  A
    refill leaves ``size`` samples to hand out; ``keys`` lists, in
    increasing order, those whose tag is not 0, and ``values[i]`` is key
    i's tag as an int.  ``at`` is the next sample to hand out, and the
    cursor ``lo`` the index in ``keys`` of the first key at or after it:
    a refill sets both to 0, and every hand-out leaves ``lo`` equal to
    ``bisect_left(keys, at)``.  So a window that ends inside the refill
    and holds no key costs O(1), and one that holds keys costs one bisect
    from ``lo``.
    """

    def __init__(self, table: _FaultTable, seq: np.random.SeedSequence, index: int):
        self.table, self.seq, self.index = table, seq, index
        self.rng = None            # the pool's own stream, made at first use
        self.at = self.size = self.lo = 0    # the pool starts empty
        self.keys: list[int] = []
        self.values: list[int] = []

    def draw(self) -> np.ndarray:
        """The tags of ``POOL_ROWS`` fresh samples from the pool's own stream."""
        if self.rng is None:
            self.rng = _child(self.seq, self.index)
        return _draw_tags(self.table, self.rng)[0]

    def refill(self, tags: np.ndarray) -> None:
        """Hand out next the samples whose tags are the rows of ``tags``."""
        hit = np.flatnonzero(tags.any(axis=1))
        self.at, self.size, self.lo = 0, len(tags), 0
        self.keys = hit.tolist()
        self.values = _values(tags[hit])

    def hand_out(self, lanes) -> list[tuple[int, int]]:
        """Hand the next samples to ``lanes``, one each in turn; return
        ``(i, value)`` for each sample among the keys, ``lanes[i]`` the lane
        that took it."""
        at, count = self.at, len(lanes)
        stop = at + count
        if stop <= self.size:
            # the window ends inside this refill
            keys, lo = self.keys, self.lo
            self.at = stop
            if lo == len(keys) or keys[lo] >= stop:
                return []
            self.lo = hi = bisect_left(keys, stop, lo)
            return [(k - at, v) for k, v in zip(keys[lo:hi], self.values[lo:hi])]
        out, done = [], 0
        while done < count:
            if self.at == self.size:
                self.refill(self.draw())
            at, keys, lo = self.at, self.keys, self.lo
            stop = min(self.size, at + count - done)
            hi = bisect_left(keys, stop, lo)
            shift = done - at
            out += [(k + shift, v) for k, v in zip(keys[lo:hi], self.values[lo:hi])]
            done += stop - at
            self.at, self.lo = stop, hi
        return out


class _PrepPool(_Pool):
    """The G+V pool.  A sample's tag is its fold (two readouts' three
    fields, ``fold_bits`` bits in all; ``_phase_tables``) followed by the X
    bits of the verification qubits; it verifies when the latter, the tag
    bits of the word mask ``verify``, are all 0.

    A lane retries on the next samples until one verifies, and after
    ``MAX_ATTEMPTS`` failures in a row keeps the last of them.  So the
    samples lanes keep do not depend on where one call ends and the next
    begins: they are the verified samples and every ``MAX_ATTEMPTS``-th
    failure of a run, counted from the last kept sample.  A refill
    schedules its kept samples once, carrying in the run of failures the
    last refill ended with (``failed``).  Kept samples go by their rank in
    draw order, 0 to ``size`` - 1: ``forced`` lists the unverified ones,
    ``keys`` those whose fold is not 0, and ``values`` their folds;
    ``spent`` counts the unverified samples that earlier refills handed out.
    """

    def __init__(self, table: _FaultTable, seq: np.random.SeedSequence, index: int,
                 verify: np.ndarray, fold_bits: int):
        super().__init__(table, seq, index)
        self.verify, self.fold_bits = verify, fold_bits
        self.failed = self.spent = 0
        self.forced: list[int] = []

    @property
    def unverified(self) -> int:
        """The unverified samples handed out so far."""
        return self.spent + bisect_left(self.forced, self.at)

    def refill(self, tags: np.ndarray) -> None:
        self.spent = self.unverified
        ok = ~(tags & self.verify).any(axis=1)
        at = np.arange(len(tags))
        last_ok = np.maximum.accumulate(np.where(ok, at, -1 - self.failed))
        keep = ok | ((at - last_ok) % MAX_ATTEMPTS == 0)
        self.failed = int(len(tags) - 1 - last_ok[-1]) % MAX_ATTEMPTS
        rank = np.cumsum(keep) - 1
        self.at, self.size, self.lo = 0, int(rank[-1]) + 1, 0
        self.forced = rank[keep & ~ok].tolist()
        kept_hit = np.flatnonzero(keep & tags.any(axis=1))
        low = (1 << self.fold_bits) - 1
        folds = [v & low for v in _values(tags[kept_hit])]
        self.keys = list(compress(rank[kept_hit].tolist(), folds))
        self.values = list(compress(folds, folds))


def _masked(values: list[int], mask: int) -> list[int]:
    """``values`` on the lanes of ``mask``, 0 on the others."""
    if mask == (1 << len(values)) - 1:
        return list(values)
    out = [0] * len(values)
    for lane in _lanes(mask):
        out[lane] = values[lane]
    return out


def _word_mask(positions, width: int) -> np.ndarray:
    """Little-endian uint64 words over ``width`` bits with ``positions`` set."""
    bits = np.zeros((width + 63) // 64 * 64, dtype=np.uint8)
    bits[list(positions)] = 1
    return np.packbits(bits, bitorder="little").view("<u8")


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
    # read by perfbench/record_reference.py
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
        vals = [self.p(q) for q in range(Q_MAX - 3, Q_MAX + 1)]
        if any(np.isnan(v) for v in vals):
            return float("nan")
        return float(np.mean(vals))

    @property
    def stderr(self) -> float:
        var = 0.0
        for q in range(Q_MAX - 3, Q_MAX + 1):
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
        # a tag's three fields are w bits each, w the check rows
        checks = self.code.H
        self.syndrome_bits = w = len(checks)
        prep, readout = _phase_tables(self.networks, checks, noise)
        # data noise has no circuit after it: its tags are the data's ends
        data, ends = list(range(self.n)), _data_ends(checks)
        rest = _fault_table([], data, noise, ends,
                            (data, idle_flip_probability(noise.eps, self.t_r)))
        gate = _fault_table([], data, noise, ends, (data, noise.gamma))
        # the pools' phases in their order, joined for a batch's first draw
        self._joined = _join([prep, readout["Z"], readout["X"], rest, gate])
        self._prep, z, x, self._data_rest, self._logical_gate = self._joined.parts
        self._readout = {"Z": z, "X": x}
        self._verify_word = _word_mask(range(6 * w, 6 * w + self.rows), 6 * w + self.rows)

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
        the data's rest and the logical gate, pool k of them refilling from
        child k of the batch stream ``rng``.  One draw on ``rng`` over the
        phases joined (``_join``) fills each with its first ``POOL_ROWS``
        samples."""
        seq = rng.bit_generator.seed_seq
        prep, z, x, rest, gate = self._joined.parts
        pools = {"prep": _PrepPool(prep, seq, 0, self._verify_word, 6 * self.syndrome_bits),
                 "Z": _Pool(z, seq, 1), "X": _Pool(x, seq, 2),
                 "rest": _Pool(rest, seq, 3), "gate": _Pool(gate, seq, 4)}
        for pool, tags in zip(pools.values(), _draw_tags(self._joined, rng)):
            pool.refill(tags)
        return pools

    # -- one syndrome extraction ---------------------------------------------
    def attempt_preparation(self, frame: ErrorFrame, rng, mask: int) -> int:
        """Run G and V once for the masked lanes, drawing straight from
        ``rng``; return the verified sub-mask.  The frame is left as it is:
        an extraction prepares its own ancilla."""
        lanes = _lanes(mask)
        sample, row = _faults(self._prep, rng, len(lanes))
        tags = _xor_rows(len(lanes), sample, self._prep.tags[row])
        failed = (tags & self._verify_word).any(axis=1).tolist()
        return mask & ~sum(1 << lane for lane, bad in zip(lanes, failed) if bad)

    def prepare_verified(self, pools: dict, lanes, error_type: str) -> list[tuple[int, int]]:
        """Prepare a verified ancilla for each of one batch's increasing
        ``lanes`` from the batch's G+V pool: each lane in turn takes the
        next samples until one verifies, and one whose ``MAX_ATTEMPTS``
        attempts all fail goes on with the last, which the pool counts as
        unverified (its run of failures may span two refills).  Returns
        ``(i, tag)`` for each lane ``lanes[i]`` whose kept sample has a
        fold, ``tag`` the fold's three fields through the ``error_type``
        readout."""
        w = self.syndrome_bits
        fields = (1 << 3 * w) - 1
        # a fold is the Z readout's three fields, then the X readout's
        shift = 0 if error_type == "Z" else 3 * w
        return [(at, fold >> shift & fields) for at, fold in pools["prep"].hand_out(lanes)]

    def couple_and_measure(self, frame: ErrorFrame, mask: int,
                           error_type: str) -> list[int]:
        """One syndrome extraction of the masked lanes: each prepares a
        verified ancilla (``prepare_verified``), which waits, couples
        transversally to the data and is read out.  A lane's syndrome is
        its data syndromes of the error type XOR its ancilla's fold XOR the
        readout faults' syndrome bits; the fold and the readout faults also
        leave their data syndromes.  Returns one packed syndrome int per
        lane (0 for lanes outside the mask)."""
        syndromes = _masked(frame.sx if error_type == "X" else frame.sz, mask)
        sx, sz = frame.sx, frame.sz
        w = self.syndrome_bits
        low = (1 << w) - 1
        for pools, lanes in _batch_lanes(frame, mask):
            # XOR commutes: the fold and the readout tags apply in any order
            for at, tag in (self.prepare_verified(pools, lanes, error_type)
                            + pools[error_type].hand_out(lanes)):
                lane = lanes[at]
                syndromes[lane] ^= tag & low
                sx[lane] ^= tag >> w & low
                sz[lane] ^= tag >> 2 * w
        return syndromes

    def extract_rounds(self, frame: ErrorFrame, rounds: list[list[int]], error_type: str,
                       syndromes: dict[int, list[int]]) -> None:
        """Further extractions of one recovery, round i measuring the
        increasing lanes ``rounds[i]`` as ``couple_and_measure`` would; each
        lane's syndromes are appended to ``syndromes[lane]`` in round order.

        Each batch's G+V and readout pools hand out once, over the rounds'
        lane lists joined in round order, so every lane takes the samples
        that round-by-round calls would give it.  The lanes' syndromes and
        data updates then apply position by position, so each lane's in
        round order.
        """
        joined: dict[int, list[int]] = {}
        for lanes in rounds:
            for b, part in _by_batch(lanes):
                joined.setdefault(b, []).extend(part)
        sx, sz = frame.sx, frame.sz
        read = sx if error_type == "X" else sz
        w = self.syndrome_bits
        low = (1 << w) - 1
        for b, lanes in joined.items():
            pools = frame.pools[b]
            tags = [0] * len(lanes)
            for at, tag in (self.prepare_verified(pools, lanes, error_type)
                            + pools[error_type].hand_out(lanes)):
                tags[at] ^= tag
            for lane, tag in zip(lanes, tags):
                if tag:
                    syndromes[lane].append(read[lane] ^ tag & low)
                    sx[lane] ^= tag >> w & low
                    sz[lane] ^= tag >> 2 * w
                else:
                    syndromes[lane].append(read[lane])

    def add_noise(self, frame: ErrorFrame, mask: int, phase: str) -> None:
        """The data's rest (``phase`` "rest") or the logical gate's failures
        ("gate") on the masked lanes, from their batches' pools."""
        sx, sz = frame.sx, frame.sz
        w = self.syndrome_bits
        low = (1 << w) - 1
        for pools, lanes in _batch_lanes(frame, mask):
            for at, tag in pools[phase].hand_out(lanes):
                lane = lanes[at]
                sx[lane] ^= tag >> w & low
                sz[lane] ^= tag >> 2 * w

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
    first = engine.couple_and_measure(frame, mask, error_type)

    # lanes outside the mask read 0; the lanes read nonzero take more
    # syndromes, r in all if settled and r'' if pending: every one of them
    # in rounds 2..min(r, r''), then only the settled or only the pending
    pools: dict[int, list[int]] = {}
    settled, carried = [], []
    for lane in compress(range(len(first)), first):
        pools[lane] = [first[lane]]
        (carried if lane in pending else settled).append(lane)
    for lane in [lane for lane in pending if mask >> lane & 1 and lane not in pools]:
        del pending[lane]
    if not pools:
        return 0, 0
    both = min(pp.r, pp.r_dprime) - 1
    longer = settled if pp.r > pp.r_dprime else carried
    engine.extract_rounds(frame, [list(pools)] * both + [longer] * abs(pp.r - pp.r_dprime),
                          error_type, pools)

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
    ``Q_MAX`` reaches the target.  The run stops, censored, at the trial
    cap, or once 8,192 trials show a crash rate per step at which too few
    of the cap's lanes would reach step ``Q_MAX`` to give the target.

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
            # saturation: at the pooled hazard per step h, a lane reaches
            # step Q_MAX with probability (1 - h)^(Q_MAX - 1), too seldom
            # for the trial cap to give the target there.  A target above
            # the cap is out of reach at any noise: that run asks for
            # ``max_trials`` trials
            if total.trials >= 8192 and config.target_failures <= config.max_trials:
                hazard = total.n_f.sum() / (total.n_f.sum() + total.n_s.sum())
                reach = (1.0 - hazard) ** (Q_MAX - 1)
                if config.target_failures > config.max_trials * reach:
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
