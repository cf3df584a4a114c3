"""Pauli-frame Monte Carlo of the full recovery protocol.

The error state of one data block, one (serially reused) ancilla block and
its verification bits is a pair of bit planes over 2n + (n+k)/2 qubits.  To
make millions of trials affordable, up to 64 independent trials run in
parallel: each qubit's X and Z planes are Python ints whose bit L belongs
to trial lane L, so gate propagation is a handful of integer XOR/AND ops
regardless of how many lanes are alive.  All mutating operations take a
lane mask and leave the other lanes untouched.

A trial alternates logical steps (one transversal gate failure pass plus
the data's resting noise) with a complete recovery round: Z-error recovery
followed by X-error recovery, each consisting of one or more verified
syndrome extractions, majority agreement over repeated syndromes, and a
coset-leader correction when agreement is reached.  After every step the
accumulated data error is decoded; a coset leader heavier than t, or the
acceptance of a syndrome whose leader is heavier than t, crashes the run.
"""
from __future__ import annotations

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

    def data_slice(self) -> range:
        return range(self.n)

    def ancilla_slice(self) -> range:
        return range(self.n, 2 * self.n)

    def verification_slice(self) -> range:
        return range(2 * self.n, 2 * self.n + self.rows)


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
# packed noise injection
# ---------------------------------------------------------------------------

def _lane_array(mask: int) -> np.ndarray:
    return np.array([l for l in range(64) if (mask >> l) & 1], dtype=np.int64)


def _pick_lanes(lanes: np.ndarray, k: int, rng) -> np.ndarray:
    if k >= lanes.size:
        return lanes
    return rng.choice(lanes, size=k, replace=False)


class _Injector:
    """Batched failure sampling for one lane mask."""

    def __init__(self, rng: np.random.Generator, mask: int):
        self.rng = rng
        self.mask = mask
        self.lanes = _lane_array(mask)

    def two_qubit(self, frame: ErrorFrame, c: int, t: int, gamma2: float) -> None:
        if gamma2 <= 0.0 or self.lanes.size == 0:
            return
        k = self.rng.binomial(self.lanes.size, gamma2)
        if not k:
            return
        for lane in _pick_lanes(self.lanes, int(k), self.rng):
            pc, pt = TWO_QUBIT_FAILURES[self.rng.integers(15)]
            bit = 1 << int(lane)
            if pc.flips_x:
                frame.x[c] ^= bit
            if pc.flips_z:
                frame.z[c] ^= bit
            if pt.flips_x:
                frame.x[t] ^= bit
            if pt.flips_z:
                frame.z[t] ^= bit

    def single(self, frame: ErrorFrame, q: int, p: float) -> None:
        if p <= 0.0 or self.lanes.size == 0:
            return
        k = self.rng.binomial(self.lanes.size, p)
        if not k:
            return
        for lane in _pick_lanes(self.lanes, int(k), self.rng):
            pauli = (Pauli.X, Pauli.Y, Pauli.Z)[self.rng.integers(3)]
            bit = 1 << int(lane)
            if pauli.flips_x:
                frame.x[q] ^= bit
            if pauli.flips_z:
                frame.z[q] ^= bit

    def flip_plane(self, frame: ErrorFrame, q: int, p: float, plane: str) -> None:
        """One-sided failure, e.g. the X flips surviving a |0> preparation."""
        if p <= 0.0 or self.lanes.size == 0:
            return
        k = self.rng.binomial(self.lanes.size, p)
        if not k:
            return
        target = frame.x if plane == "x" else frame.z
        for lane in _pick_lanes(self.lanes, int(k), self.rng):
            target[q] ^= 1 << int(lane)

    def idle(self, frame: ErrorFrame, qubits, eps: float, steps: float) -> None:
        """Aggregated resting noise: ``steps`` iid memory steps per qubit."""
        p = idle_flip_probability(eps, steps)
        if p <= 0.0:
            return
        for q in qubits:
            self.single(frame, q, p)

    def holes_redistributed(self, frame: ErrorFrame, resting_count: int,
                            phase_qubits, eps: float) -> None:
        """Hole noise with the failure count drawn for the true number of
        resting slots but placed uniformly over the whole phase register."""
        if eps <= 0.0 or resting_count == 0 or self.lanes.size == 0:
            return
        k = self.rng.binomial(resting_count * self.lanes.size, eps)
        if not k:
            return
        qs = self.rng.integers(0, len(phase_qubits), size=int(k))
        ls = self.rng.integers(0, self.lanes.size, size=int(k))
        ps = self.rng.integers(0, 3, size=int(k))
        for qi, li, pi in zip(qs, ls, ps):
            q = phase_qubits[int(qi)]
            bit = 1 << int(self.lanes[int(li)])
            pauli = (Pauli.X, Pauli.Y, Pauli.Z)[int(pi)]
            if pauli.flips_x:
                frame.x[q] ^= bit
            if pauli.flips_z:
                frame.z[q] ^= bit


# ---------------------------------------------------------------------------
# protocol state
# ---------------------------------------------------------------------------

@dataclass
class RecoveryState:
    """Per-lane, per-error-type memory of the repetition protocol."""
    prev_accepted: bool = True
    history: list[int] = field(default_factory=list)

    def fresh(self) -> bool:
        return self.prev_accepted

    def note_rest(self) -> None:
        self.prev_accepted = True
        self.history.clear()

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

    @staticmethod
    def empty(q_max: int = Q_MAX_DEFAULT, seed: int = 0) -> "TrialStats":
        return TrialStats(q_max=q_max, n_f=np.zeros(q_max + 1, dtype=np.int64),
                          n_s=np.zeros(q_max + 1, dtype=np.int64), seed=seed)

    def merge(self, other: "TrialStats") -> None:
        self.n_f += other.n_f
        self.n_s += other.n_s
        self.trials += other.trials

    def p(self, q: int) -> float:
        tot = self.n_f[q] + self.n_s[q]
        return float(self.n_f[q]) / tot if tot else float("nan")

    @property
    def p_q(self) -> np.ndarray:
        return np.array([self.p(q) for q in range(1, self.q_max + 1)])

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
        self.base_code = code
        self.code = codes_mod.standardized_code(code)
        sf = codes_mod.standard_form(self.code)
        self.params = codes_mod.derived_params(sf, code.n, code.k, code.d,
                                               name=code.name)
        self.networks = network_mod.synthesize_networks(sf, self.params)
        self.decoder = codes_mod.decoder_for(self.code)
        self.noise = noise
        self.protocol = protocol
        self.n = code.n
        self.rows = self.networks.rows
        self.t = code.t
        # row supports of the standardized check matrix, as frame indices
        self.row_support_data = [np.nonzero(self.code.H[l])[0].tolist()
                                 for l in range(self.rows)]
        self.row_support_anc = [[q + self.n for q in sup]
                                for sup in self.row_support_data]
        self.t_r = self._resting_time()
        self._g_steps = self._collect(self.networks.g_schedule)
        self._v_steps = self._collect(self.networks.v_schedule)
        self._phase_anc = list(self.networks.ancilla_qubits)
        self._phase_anc_ver = (list(self.networks.ancilla_qubits)
                               + list(self.networks.verification_qubits))

    @staticmethod
    def _collect(schedule: list[GateEvent]) -> list[tuple[int, list[GateEvent]]]:
        by_step: dict[int, list[GateEvent]] = {}
        for ev in schedule:
            by_step.setdefault(ev.time_step, []).append(ev)
        return sorted(by_step.items())

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
    def _run_phase(self, frame: ErrorFrame, inj: _Injector, steps,
                   rest_profile, phase_qubits, mask: int) -> None:
        noise = self.noise
        rest = dict(rest_profile)
        for t_step, events in steps:
            for ev in events:
                if ev.kind == network_mod.PREP_ZERO:
                    q = ev.qubits[0]
                    frame.x[q] &= ~mask
                    frame.z[q] &= ~mask
                    inj.flip_plane(frame, q, 2.0 * noise.gamma_p / 3.0, "x")
                elif ev.kind == network_mod.PREP_PLUS:
                    q = ev.qubits[0]
                    frame.x[q] &= ~mask
                    frame.z[q] &= ~mask
                    inj.flip_plane(frame, q, 2.0 * noise.gamma_p / 3.0, "z")
                elif ev.kind == network_mod.HADAMARD:
                    inj.single(frame, ev.qubits[0], noise.gamma1)
                    propagate(ev, frame, mask)
                elif ev.kind == network_mod.MEASURE:
                    inj.single(frame, ev.qubits[0], noise.gamma_m)
                else:
                    inj.two_qubit(frame, ev.qubits[0], ev.qubits[1], noise.gamma2)
                    propagate(ev, frame, mask)
            holes = rest.get(t_step, 0)
            if holes:
                inj.holes_redistributed(frame, holes, phase_qubits, noise.eps)

    def attempt_preparation(self, frame: ErrorFrame, rng, mask: int) -> int:
        """Run G and V once for the masked lanes; return the verified sub-mask."""
        inj = _Injector(rng, mask)
        ns = self.networks
        self._run_phase(frame, inj, self._g_steps, ns.g_step_rest,
                        self._phase_anc, mask)
        self._run_phase(frame, inj, self._v_steps, ns.v_step_rest,
                        self._phase_anc_ver, mask)
        bad = 0
        for l in range(self.rows):
            bad |= frame.x[2 * self.n + l]
        return mask & ~bad

    def prepare_verified(self, frame: ErrorFrame, rng, mask: int,
                         max_attempts: int = 64) -> None:
        """Re-prepare until every masked lane holds a verified ancilla."""
        pending = mask
        for _ in range(max_attempts):
            if not pending:
                return
            verified = self.attempt_preparation(frame, rng, pending)
            pending &= ~verified
        # extreme-noise fallback: proceed with whatever the last attempt left

    def couple_and_measure(self, frame: ErrorFrame, rng, mask: int,
                           error_type: str) -> list[int]:
        """Readout wait, transversal coupling, ancilla readout, syndromes.

        Returns one packed syndrome int per lane (entries only meaningful
        for lanes in the mask).
        """
        noise = self.noise
        inj = _Injector(rng, mask)
        inj.idle(frame, self.networks.ancilla_qubits, noise.eps, noise.t_m)
        gates = (self.networks.coupling_cnot if error_type == "Z"
                 else self.networks.coupling_cphase)
        for ev in gates:
            inj.two_qubit(frame, ev.qubits[0], ev.qubits[1], noise.gamma2)
            propagate(ev, frame, mask)
        for ev in self.networks.measure_schedule:
            if ev.kind == network_mod.HADAMARD:
                inj.single(frame, ev.qubits[0], noise.gamma1)
                propagate(ev, frame, mask)
            else:
                inj.single(frame, ev.qubits[0], noise.gamma_m)
        words = [0] * self.rows
        for l, sup in enumerate(self.row_support_anc):
            acc = 0
            for q in sup:
                acc ^= frame.x[q]
            words[l] = acc & mask
        return self._unpack_syndromes(words, mask)

    def _unpack_syndromes(self, words: list[int], mask: int) -> list[int]:
        out = [0] * 64
        for lane in range(64):
            if (mask >> lane) & 1:
                s = 0
                for l, wrd in enumerate(words):
                    s |= ((wrd >> lane) & 1) << l
                out[lane] = s
        return out

    def data_syndromes(self, frame: ErrorFrame, plane: str, mask: int) -> list[int]:
        src = frame.x if plane == "x" else frame.z
        words = [0] * self.rows
        for l, sup in enumerate(self.row_support_data):
            acc = 0
            for q in sup:
                acc ^= src[q]
            words[l] = acc & mask
        return self._unpack_syndromes(words, mask)


# ---------------------------------------------------------------------------
# public single-lane operations
# ---------------------------------------------------------------------------

def extract_syndrome(frame: ErrorFrame, engine: SimEngine, noise: NoiseParams,
                     error_type: str, rng) -> dict:
    """One ancilla preparation, verification and (if verified) syndrome readout.

    Returns {"verified": bool, "syndrome": ndarray or None} for lane 0.
    """
    mask = 1
    verified = engine.attempt_preparation(frame, rng, mask)
    if not verified:
        return {"verified": False, "syndrome": None}
    syndromes = engine.couple_and_measure(frame, rng, mask, error_type)
    s = syndromes[0]
    vec = np.array([(s >> l) & 1 for l in range(engine.rows)], dtype=np.uint8)
    return {"verified": True, "syndrome": vec}


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
        inj = _Injector(rng, mask)
        inj.idle(frame, frame.data_slice(), engine.noise.eps, engine.t_r)

    engine.prepare_verified(frame, rng, mask)
    first = engine.couple_and_measure(frame, rng, mask, error_type)

    need: dict[int, int] = {}
    pools: dict[int, list[int]] = {}
    for lane in range(64):
        if not (mask >> lane) & 1:
            continue
        st = states[lane]
        if first[lane] == 0:
            st.note_rest()
            continue
        total = pp.r if st.fresh() else pp.r_dprime
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

    corrected = 0
    crashed = 0
    plane = frame.x if error_type == "X" else frame.z
    keep = pp.r + pp.r_dprime
    for lane, pool in pools.items():
        st = states[lane]
        judged = pool if st.fresh() else (st.history + pool)[-keep:]
        accepted = judge_syndromes(judged, pp.r_prime)
        if accepted is None:
            st.note_fail(judged, keep)
            continue
        weight = engine.decoder.leader_weight(accepted, max_weight=engine.t)
        if weight > engine.t:
            crashed |= 1 << lane
            st.note_accept()
            continue
        vec = engine.decoder.leader_vector(accepted)
        bit = 1 << lane
        v = vec
        while v:
            q = (v & -v).bit_length() - 1
            plane[q] ^= bit
            v &= v - 1
        corrected |= 1 << lane
        st.note_accept()
    return corrected, crashed


def run_trial(engine: SimEngine, rng, q_max: int = Q_MAX_DEFAULT) -> int:
    """Single-lane trial; returns the number of steps survived (0..q_max)."""
    stats = run_batch(engine, rng, q_max=q_max, mask=1)
    for q in range(1, q_max + 1):
        if stats.n_f[q]:
            return q - 1
    return q_max


def run_batch(engine: SimEngine, rng, q_max: int = Q_MAX_DEFAULT,
              mask: int = MASK_ALL) -> TrialStats:
    """Run up to 64 lane-parallel trials to crash or q_max steps."""
    frame = ErrorFrame(n=engine.n, rows=engine.rows)
    states_z = [RecoveryState() for _ in range(64)]
    states_x = [RecoveryState() for _ in range(64)]
    alive = mask
    stats = TrialStats.empty(q_max)
    stats.trials = bin(mask).count("1")
    noise = engine.noise
    for q in range(1, q_max + 1):
        if not alive:
            break
        inj = _Injector(rng, alive)
        for dq in frame.data_slice():
            inj.single(frame, dq, noise.gamma2)
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
            dec = engine.decoder
            for lane in range(64):
                if (survivors >> lane) & 1:
                    if (dec.leader_weight(syn_x[lane], max_weight=engine.t) > engine.t
                            or dec.leader_weight(syn_z[lane], max_weight=engine.t) > engine.t):
                        crashed |= 1 << lane
        newly = alive & crashed
        alive &= ~crashed
        stats.n_f[q] += bin(newly).count("1")
        stats.n_s[q] += bin(alive).count("1")
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


_engine_cache: dict = {}


def _engine_for(config: SimConfig) -> SimEngine:
    key = (config.code_name, config.noise, config.protocol)
    if key not in _engine_cache:
        code = codes_mod.construct_code(config.code_name)
        _engine_cache[key] = SimEngine(code, config.noise, config.protocol)
    return _engine_cache[key]


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
