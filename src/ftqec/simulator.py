"""Pauli-frame Monte Carlo of the full recovery protocol.

The error state of one data block, one (serially reused) ancilla block and
its verification bits is a pair of bit planes over 2n + (n+k)/2 qubits.  To
make millions of trials affordable, up to 64 independent trials run in
parallel: each qubit's X and Z planes are Python ints whose bit L belongs
to trial lane L, so gate propagation is a handful of integer XOR/AND ops
regardless of how many lanes are alive.  All mutating operations take a
lane mask and leave the other lanes untouched.

Faults are not applied gate by gate.  Frame propagation is linear over
GF(2), so a phase leaves the frame at its noiseless image XOR the
end-of-phase images of the faults that struck it.  Each extraction phase
(preparation G plus verification V, and coupling plus readout), the data's
rest and the logical step's noise are compiled once, by one backward sweep
over its schedule, into a single-fault table: every fault location (gate,
preparation, measurement, hole step, idle qubit) with its rate and the
image of each of its Paulis.  One call then draws all of a phase's faults
for the masked lanes in a few vectorised draws and scatters their images
into the frame.

A trial alternates logical steps (one transversal gate failure pass plus
the data's resting noise) with a complete recovery round: Z-error recovery
followed by X-error recovery, each consisting of one or more verified
syndrome extractions, majority agreement over repeated syndromes, and a
coset-leader correction when agreement is reached.  After every step the
accumulated data error is decoded; a coset leader heavier than t, or the
acceptance of a syndrome whose leader is heavier than t, crashes the run.
"""
from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import analytic
from . import codes as codes_mod
from . import network as network_mod
from .codes import ClassicalCode
from .network import GateEvent
from .noise import NoiseParams, Pauli, TWO_QUBIT_FAILURES, idle_flip_probability, stream
from .protocol import ProtocolError, ProtocolParams, resting_time

MASK_ALL = (1 << 64) - 1
Q_MAX_DEFAULT = 10


@dataclass
class ErrorFrame:
    """Lane-packed X/Z error record for data + ancilla + verification bits."""
    n: int
    rows: int
    x: list[int] = field(default_factory=list)
    z: list[int] = field(default_factory=list)
    # lanes coupled with an unverified ancilla, summed over preparations
    unverified: int = 0

    def __post_init__(self):
        width = 2 * self.n + self.rows
        if not self.x:
            self.x = [0] * width
        if not self.z:
            self.z = [0] * width

    @property
    def width(self) -> int:
        return 2 * self.n + self.rows

    def lane_bits(self, plane: str, lane: int = 0) -> np.ndarray:
        src = self.x if plane == "x" else self.z
        return np.array([(v >> lane) & 1 for v in src], dtype=np.uint8)

    @property
    def x_bits(self) -> np.ndarray:
        return self.lane_bits("x", 0)

    @property
    def z_bits(self) -> np.ndarray:
        return self.lane_bits("z", 0)

    def set_lane(self, plane: str, qubit: int, lane: int = 0, value: int = 1) -> None:
        src = self.x if plane == "x" else self.z
        if value:
            src[qubit] |= 1 << lane
        else:
            src[qubit] &= ~(1 << lane)


# ---------------------------------------------------------------------------
# gate propagation (noise-free part)
# ---------------------------------------------------------------------------

def propagate(gate: GateEvent, frame: ErrorFrame, mask: int = MASK_ALL) -> ErrorFrame:
    """Propagate frame errors through one perfect gate.

    Hadamard swaps a qubit's X and Z values; controlled-not adds the
    control's X to the target and the target's Z to the control;
    controlled-phase adds each side's X to the other side's Z.
    Preparations and measurements do not propagate.
    """
    k = gate.kind
    x, z = frame.x, frame.z
    if k == network_mod.HADAMARD:
        q = gate.qubits[0]
        diff = (x[q] ^ z[q]) & mask
        x[q] ^= diff
        z[q] ^= diff
    elif k == network_mod.CNOT:
        c, t = gate.qubits
        x[t] ^= x[c] & mask
        z[c] ^= z[t] & mask
    elif k == network_mod.CPHASE:
        c, t = gate.qubits
        z[t] ^= x[c] & mask
        z[c] ^= x[t] & mask
    return frame


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
    the sampled faults' images.

    ``sites`` lists the fault locations in row order as ``(step, slot,
    qubits, paulis, row)``: the fault strikes before gate ``slot`` of
    program step ``step`` (after it, for a preparation), after the step's
    gates when ``slot`` is their count (a hole), or before the phase when
    ``step`` is -1 (an idle); Pauli ``paulis[p]`` acting on ``qubits`` has
    image row ``row + p``.

    Sampling goes by groups.  Group g draws Binomial(``slots[g]`` x lanes,
    ``rates[g]``) failures, each on a uniform (slot, lane, offset < span[g])
    triple whose image row is ``slot_row[offsets[g] + slot] + offset``.  In
    a Bernoulli group a slot is one location, its span the location's Pauli
    count, and failures take distinct (slot, lane) cells: every location
    fails independently in every lane.  In a hole group a slot is one
    resting qubit-step of a step sharing the group's register, its row run
    that step's (register qubit, Pauli) images.
    """
    qubits: list[int]
    program: list[tuple]
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
    off them.  ``idle`` = (qubits, rate) adds one three-Pauli location per
    qubit before the first step.
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

    gate_rate = {network_mod.CNOT: noise.gamma2, network_mod.CPHASE: noise.gamma2,
                 network_mod.HADAMARD: noise.gamma1, network_mod.MEASURE: noise.gamma_m}
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
                record(2.0 * noise.gamma_p / 3.0, (s, g, qs), _PREP_FLIP[k])
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
            record(gate_rate[k], (s, g, qs),
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
    return _FaultTable(list(qubits), program, images, sites, list(rates),
                       np.array(slots), np.array(span), np.array(offsets),
                       np.array(distinct), np.array(slot_row))


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


def _lane_array(mask: int) -> np.ndarray:
    return np.flatnonzero(np.unpackbits(np.array([mask], dtype="<u8").view(np.uint8),
                                        bitorder="little"))


def _inject(table: _FaultTable, frame: ErrorFrame, rng, mask: int) -> None:
    """Sample every fault of one phase on the masked lanes and XOR their
    images into the frame."""
    n_lanes = bin(mask).count("1")
    counts = [rng.binomial(s * n_lanes, r)
              for s, r in zip(table.slots.tolist(), table.rates)]
    if not any(counts):
        return
    g = np.repeat(np.arange(len(counts)), counts)
    span = table.span[g]
    rest, lane = np.divmod(rng.integers(table.slots[g] * span * n_lanes), n_lanes)
    slot = table.offsets[g] + rest // span
    cell = (slot * 64 + lane)[table.distinct[g]]
    if np.unique(cell).size < cell.size:
        # a location fails at most once per lane: a group whose draw repeats
        # a (location, lane) cell draws its cells again without replacement
        for h in np.unique(g[table.distinct[g]]):
            at = np.flatnonzero(g == h)
            if np.unique(slot[at] * 64 + lane[at]).size < at.size:
                pick = rng.choice(table.slots[h] * n_lanes, size=at.size, replace=False)
                slot[at], lane[at] = np.divmod(pick, n_lanes)
                slot[at] += table.offsets[h]
    rows = table.slot_row[slot] + rest % span
    acc = np.zeros((64, table.images.shape[1]), dtype="<u8")
    np.bitwise_xor.at(acc, _lane_array(mask)[lane], table.images[rows])
    # bit-transpose the lane-major images into one lane word per image bit
    bits = np.unpackbits(acc.view(np.uint8), axis=1, bitorder="little")
    bits = np.ascontiguousarray(bits[:, :2 * len(table.qubits)].T)
    words = np.packbits(bits, axis=1, bitorder="little").view("<u8").ravel().tolist()
    m = len(table.qubits)
    x, z = frame.x, frame.z
    for q, wx, wz in zip(table.qubits, words[:m], words[m:]):
        x[q] ^= wx
        z[q] ^= wz


def _syndromes(plane: list[int], checks_t: np.ndarray, mask: int) -> list[int]:
    """One packed syndrome per lane: bit l is the parity of ``plane`` (one
    lane word per check column) over check row l, with ``checks_t`` the
    transposed check matrix; lanes outside the mask read 0."""
    words = np.array(plane, dtype="<u8") & np.uint64(mask)
    bits = np.unpackbits(words.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
    syn = np.packbits((bits.T @ checks_t).astype(np.uint8) & 1, axis=1, bitorder="little")
    if syn.shape[1] > 8:
        return [int.from_bytes(row.tobytes(), "little") for row in syn]
    buf = np.zeros((64, 8), dtype=np.uint8)
    buf[:, :syn.shape[1]] = syn
    return buf.view("<u8").ravel().tolist()


# ---------------------------------------------------------------------------
# protocol state
# ---------------------------------------------------------------------------

@dataclass
class RecoveryState:
    """Per-lane, per-error-type memory of the repetition protocol."""
    prev_accepted: bool = True
    history: list[int] = field(default_factory=list)

    def note_accept(self) -> None:
        self.prev_accepted = True
        self.history.clear()

    def note_fail(self, pool: list[int], keep: int) -> None:
        self.prev_accepted = False
        self.history = pool[-keep:]


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

    def fidelity(self, q: int) -> float:
        return (1.0 - self.pbar) ** q


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
        # transposed check matrix; float32 so parity counts go through BLAS
        self._checks_t = self.code.H.T.astype(np.float32)
        self.t_r = self._resting_time()
        self._prep, self._readout = _phase_tables(self.networks, noise)
        # data noise has no circuit after it: identity images on the data
        data = list(range(self.n))
        self._data_rest = _fault_table([], data, noise,
                                       (data, idle_flip_probability(noise.eps, self.t_r)))
        self._logical_gate = _fault_table([], data, noise, (data, noise.gamma2))

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
                    f"r={pp.r} exceeds r_max={r_max:.3f} at n_rep={pp.n_rep}")
        return resting_time(self.params.w, self.noise.t_m, pp, alpha, beta)

    # -- one syndrome extraction attempt ------------------------------------
    def attempt_preparation(self, frame: ErrorFrame, rng, mask: int) -> int:
        """Run G and V once for the masked lanes; return the verified sub-mask.

        G+V prepares every ancilla and verification qubit before any fault
        that survives it, so on the masked lanes those qubits end up holding
        exactly the sampled fault images.
        """
        keep = ~mask
        x, z = frame.x, frame.z
        for q in self._prep.qubits:
            x[q] &= keep
            z[q] &= keep
        _inject(self._prep, frame, rng, mask)
        bad = 0
        for q in self.networks.verification_qubits:
            bad |= x[q]
        return mask & ~bad

    def prepare_verified(self, frame: ErrorFrame, rng, mask: int,
                         max_attempts: int = 64) -> None:
        """Re-prepare until every masked lane holds a verified ancilla.

        Lanes still unverified after ``max_attempts`` go on with the last
        attempt's ancilla and are counted in ``frame.unverified``.
        """
        pending = mask
        for _ in range(max_attempts):
            if not pending:
                return
            verified = self.attempt_preparation(frame, rng, pending)
            pending &= ~verified
        frame.unverified += bin(pending).count("1")

    def couple_and_measure(self, frame: ErrorFrame, rng, mask: int,
                           error_type: str) -> list[int]:
        """Readout wait, transversal coupling, ancilla readout, syndromes.

        Returns one packed syndrome int per lane (0 for lanes outside the
        mask).
        """
        table = self._readout[error_type]
        for gates, _, _ in table.program:
            for ev in gates:
                propagate(ev, frame, mask)
        _inject(table, frame, rng, mask)
        return _syndromes(frame.x[self.n:2 * self.n], self._checks_t, mask)

    def data_syndromes(self, frame: ErrorFrame, plane: str, mask: int) -> list[int]:
        return _syndromes((frame.x if plane == "x" else frame.z)[:self.n],
                          self._checks_t, mask)


# ---------------------------------------------------------------------------
# recovery and trials
# ---------------------------------------------------------------------------

def recover_block(frame: ErrorFrame, states: list[RecoveryState],
                  engine: SimEngine, rng, error_type: str,
                  mask: int = 1, apply_rest: bool = True) -> tuple[int, int]:
    """One recovery of the masked lanes for one error type.

    Returns (corrected_mask, crash_mask): lanes whose data was corrected,
    and lanes that accepted a syndrome with coset leader heavier than t.
    The data's resting noise covers the whole round; when the X and Z
    recoveries run back to back the second call must pass
    ``apply_rest=False`` so the shared window is not double counted.
    """
    pp = engine.protocol
    if apply_rest:
        _inject(engine._data_rest, frame, rng, mask)

    engine.prepare_verified(frame, rng, mask)
    first = engine.couple_and_measure(frame, rng, mask, error_type)

    need: dict[int, int] = {}
    pools: dict[int, list[int]] = {}
    for lane in range(64):
        if not (mask >> lane) & 1:
            continue
        st = states[lane]
        if first[lane] == 0:
            st.note_accept()
            continue
        total = pp.r if st.prev_accepted else pp.r_dprime
        need[lane] = total
        pools[lane] = [first[lane]]

    max_total = max(need.values(), default=1)
    for k in range(2, max_total + 1):
        sub = 0
        for lane, total in need.items():
            if total >= k:
                sub |= 1 << lane
        if not sub:
            break
        engine.prepare_verified(frame, rng, sub)
        extra = engine.couple_and_measure(frame, rng, sub, error_type)
        for lane in need:
            if need[lane] >= k:
                pools[lane].append(extra[lane])

    if not pools:
        return 0, 0
    plane = frame.x if error_type == "X" else frame.z
    keep = pp.r + pp.r_dprime
    lanes: list[int] = []
    accepted_syndromes: list[int] = []
    for lane, pool in pools.items():
        st = states[lane]
        judged = pool if st.prev_accepted else (st.history + pool)[-keep:]
        accepted = judge_syndromes(judged, pp.r_prime)
        if accepted is None:
            st.note_fail(judged, keep)
            continue
        st.note_accept()
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


def run_batch(engine: SimEngine, rng, q_max: int = Q_MAX_DEFAULT,
              mask: int = MASK_ALL) -> TrialStats:
    """Run up to 64 lane-parallel trials to crash or q_max steps."""
    frame = ErrorFrame(n=engine.n, rows=engine.rows)
    states_z = [RecoveryState() for _ in range(64)]
    states_x = [RecoveryState() for _ in range(64)]
    alive = mask
    stats = TrialStats.empty(q_max)
    stats.trials = bin(mask).count("1")
    for q in range(1, q_max + 1):
        if not alive:
            break
        _inject(engine._logical_gate, frame, rng, alive)
        _, crash_z = recover_block(frame, states_z, engine, rng, "Z", alive,
                                   apply_rest=True)
        alive_after_z = alive & ~crash_z
        _, crash_x = recover_block(frame, states_x, engine, rng, "X",
                                   alive_after_z, apply_rest=False)
        crashed = crash_z | crash_x
        survivors = alive & ~crashed
        if survivors:
            syn_x = engine.data_syndromes(frame, "x", survivors)
            syn_z = engine.data_syndromes(frame, "z", survivors)
            # lanes outside survivors, and lanes with no data error, read 0
            lanes = [lane for lane in range(64) if syn_x[lane] or syn_z[lane]]
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
    engine = _engine_for(config)
    acc = TrialStats.empty(config.q_max)
    for b in range(lo, hi):
        rng = stream(seed, b)
        acc.merge(run_batch(engine, rng, q_max=config.q_max))
    return acc


def estimate_pbar_mc(config: SimConfig, seed: int = 0,
                     workers: int = 1) -> TrialStats:
    """Repeat trials until the crash count at step q_max reaches the target.

    Work is sharded into 64-trial batches, one RNG stream per batch, and the
    stopping rule is evaluated at fixed chunk boundaries, so the aggregate
    counts are identical for any worker count.
    """
    total = TrialStats.empty(config.q_max, seed=seed)
    chunk = config.chunk_batches
    next_batch = 0
    pool = None
    if workers > 1:
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        while True:
            lo, hi = next_batch, next_batch + chunk
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
            "gamma": noise.gamma2,
            "eps_over_gamma": noise.eps / noise.gamma2 if noise.gamma2 else 0.0,
            "t_m": noise.t_m,
            "n_rep": pp.n_rep if pp.parallel_corrections is None
                     else f"matched{pp.parallel_corrections:g}",
            "r": pp.r, "r_prime": pp.r_prime, "r_dprime": pp.r_dprime,
            "Q": q, "n_f": int(stats.n_f[q]), "n_s": int(stats.n_s[q]),
            "p_Q": stats.p(q), "pbar": stats.pbar, "stderr": stats.stderr,
            "seed": stats.seed, "trials": stats.trials,
        })
    return rows
