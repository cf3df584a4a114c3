"""Gate schedules for ancilla preparation, verification, coupling and readout.

Index space matches the simulator's error frame: data block 0..n-1, ancilla
block n..2n-1, verification bits 2n..2n+(n+k)/2-1.  All schedules are built
from the (I A) standard form of the check matrix, so the ancilla's identity
part is qubits n..n+rows-1 and the seed qubits (the Hadamard-prepared
controls of the preparation fan-out) are n+rows..2n-1.

Timing layout of the preparation network G (local steps):

    step 0        PrepPlus on the seed qubits
    step 3        PrepZero on the identity-part qubits
    steps 4..w+3  CNOT fan-out, edge-colored into at most w steps

and of the verification network V:

    step 0        PrepPlus on the verification bits
    steps 1..w+1  controlled-phase checks, edge-colored into at most w+1 steps
    step w+2      Hadamard on the verification bits
    step w+3      measurement of the verification bits

Resting qubit-steps ("holes") are counted inside the G window (each ancilla
qubit from its preparation step to the end of the CNOT phase) and inside the
V coupling window (all ancilla and verification qubits over the w+1 check
steps).  With this layout the direct count reproduces the closed-form hole
count for every code, which is what the memory-noise accounting assumes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .codes import CodeParams, StandardForm, hole_count_formula


class NetworkSchedulingError(RuntimeError):
    """Raised when an edge coloring exceeds its guaranteed step budget."""


HADAMARD = "H"
CNOT = "CX"
CPHASE = "CZ"
PREP_ZERO = "P0"
PREP_PLUS = "P+"
MEASURE = "M"

_TWO_QUBIT = {CNOT, CPHASE}


@dataclass(frozen=True)
class GateEvent:
    kind: str
    qubits: tuple[int, ...]       # (control, target) for two-qubit kinds
    time_step: int

    def __post_init__(self):
        if self.time_step < 0:
            raise ValueError("time_step must be >= 0")
        if self.kind in _TWO_QUBIT and len(self.qubits) != 2:
            raise ValueError(f"{self.kind} needs two qubits")


@dataclass
class NetworkSet:
    """Scheduled networks for one code block."""
    n: int
    k: int
    rows: int                     # (n+k)/2
    w: int
    g_schedule: list[GateEvent]
    v_schedule: list[GateEvent]
    coupling_cnot: list[GateEvent]    # ancilla-controlled CNOT onto data
    coupling_cphase: list[GateEvent]  # ancilla-controlled CZ onto data
    measure_schedule: list[GateEvent]
    durations: dict = field(default_factory=dict)
    # per-step resting counts inside the counted windows, for memory noise
    g_step_rest: list[tuple[int, int]] = field(default_factory=list)
    v_step_rest: list[tuple[int, int]] = field(default_factory=list)

    @property
    def ancilla_qubits(self) -> range:
        return range(self.n, 2 * self.n)

    @property
    def verification_qubits(self) -> range:
        return range(2 * self.n, 2 * self.n + self.rows)

    def hole_count(self) -> int:
        return sum(r for _, r in self.g_step_rest) + sum(r for _, r in self.v_step_rest)

    def export_text(self) -> str:
        """Line-oriented dump: ``t=<step> <kind> <q1> [<q2>]`` per event."""
        lines = []
        for label, sched in (("G", self.g_schedule), ("V", self.v_schedule),
                             ("COUPLE_CX", self.coupling_cnot),
                             ("COUPLE_CZ", self.coupling_cphase),
                             ("MEASURE", self.measure_schedule)):
            lines.append(f"# {label}")
            for ev in sorted(sched, key=lambda e: (e.time_step, e.qubits)):
                qs = " ".join(str(q) for q in ev.qubits)
                lines.append(f"t={ev.time_step} {ev.kind} {qs}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bipartite edge coloring
# ---------------------------------------------------------------------------

def edge_color(a) -> dict[tuple[int, int], int]:
    """Color the 1-entries of a binary matrix so that entries sharing a row
    or a column get distinct colors.

    Uses the alternating-path argument behind Koenig's theorem, so the number
    of colors equals the maximum row-or-column weight.  Deterministic for a
    given matrix.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    edges = [(int(i), int(j)) for i, j in zip(*np.nonzero(a))]
    if not edges:
        return {}
    deg_r = a.sum(axis=1).max()
    deg_c = a.sum(axis=0).max()
    max_deg = int(max(deg_r, deg_c))
    # slot[vertex][color] -> partner vertex; rows and columns are separate
    # vertex classes, keyed ('r', i) and ('c', j)
    slot: dict[tuple[str, int], dict[int, tuple[str, int]]] = {}
    color_of: dict[tuple[int, int], int] = {}

    def free_color(v) -> int:
        used = slot.setdefault(v, {})
        for c in range(max_deg):
            if c not in used:
                return c
        raise NetworkSchedulingError("no free color below the degree bound")

    for (i, j) in edges:
        u = ("r", i)
        v = ("c", j)
        cu = free_color(u)
        cv = free_color(v)
        if cu != cv:
            # flip the alternating cu/cv path starting at v so cu frees up there
            cur, col = v, cu
            chain = []
            while col in slot.setdefault(cur, {}):
                nxt = slot[cur][col]
                chain.append((cur, nxt, col))
                cur = nxt
                col = cu if col == cv else cv
            for (x, y, c) in chain:
                d = cu if c == cv else cv
                del slot[x][c]
                del slot[y][c]
            for (x, y, c) in chain:
                d = cu if c == cv else cv
                slot[x][d] = y
                slot[y][d] = x
                ex = (x[1], y[1]) if x[0] == "r" else (y[1], x[1])
                color_of[ex] = d
        slot.setdefault(u, {})[cu] = v
        slot.setdefault(v, {})[cu] = u
        color_of[(i, j)] = cu

    # sanity: adjacency constraint
    n_colors = max(color_of.values()) + 1
    if n_colors > max_deg:
        raise NetworkSchedulingError(
            f"coloring used {n_colors} colors, degree bound is {max_deg}")
    return color_of


# ---------------------------------------------------------------------------
# network synthesis
# ---------------------------------------------------------------------------

def synthesize_networks(sf: StandardForm, params: CodeParams) -> NetworkSet:
    """Build the G, V, coupling and measurement schedules from (I A)."""
    n, k, w = params.n, params.k, params.w
    rows = sf.rows
    seeds = n - rows                       # (n-k)/2 seed qubits
    anc = lambda i: n + i                  # ancilla-local -> frame index
    ver = lambda l: 2 * n + l

    a = sf.A
    g_events: list[GateEvent] = []
    for j in range(seeds):
        g_events.append(GateEvent(PREP_PLUS, (anc(rows + j),), 0))
    for i in range(rows):
        g_events.append(GateEvent(PREP_ZERO, (anc(i),), 3))
    g_colors = edge_color(a)
    if g_colors and max(g_colors.values()) + 1 > w:
        raise NetworkSchedulingError("preparation fan-out exceeds w steps")
    for (i, j), c in sorted(g_colors.items()):
        g_events.append(GateEvent(CNOT, (anc(rows + j), anc(i)), 4 + c))
    g_end = w + 3

    # verification graph: row l couples to ancilla qubit l (identity part)
    # and to ancilla qubit rows + j for each A[l, j] = 1
    v_adj = np.zeros((rows, n), dtype=np.uint8)
    for l in range(rows):
        v_adj[l, l] = 1
    for (l, j) in zip(*np.nonzero(a)):
        v_adj[int(l), rows + int(j)] = 1
    v_colors = edge_color(v_adj)
    if v_colors and max(v_colors.values()) + 1 > w + 1:
        raise NetworkSchedulingError("verification checks exceed w+1 steps")
    v_events: list[GateEvent] = []
    for l in range(rows):
        v_events.append(GateEvent(PREP_PLUS, (ver(l),), 0))
    for (l, q), c in sorted(v_colors.items()):
        v_events.append(GateEvent(CPHASE, (ver(l), anc(q)), 1 + c))
    for l in range(rows):
        v_events.append(GateEvent(HADAMARD, (ver(l),), w + 2))
        v_events.append(GateEvent(MEASURE, (ver(l),), w + 3))

    coupling_cnot = [GateEvent(CNOT, (anc(i), i), 0) for i in range(n)]
    coupling_cphase = [GateEvent(CPHASE, (anc(i), i), 0) for i in range(n)]
    measure = [GateEvent(HADAMARD, (anc(i),), 0) for i in range(n)]
    measure += [GateEvent(MEASURE, (anc(i),), 1) for i in range(n)]

    ns = NetworkSet(
        n=n, k=k, rows=rows, w=w,
        g_schedule=g_events, v_schedule=v_events,
        coupling_cnot=coupling_cnot, coupling_cphase=coupling_cphase,
        measure_schedule=measure,
        durations={"g": g_end + 1, "v": w + 4, "couple": 1, "measure": 2},
    )
    ns.g_step_rest = _g_rest_profile(ns)
    ns.v_step_rest = _v_rest_profile(ns)
    _assert_disjoint(ns.g_schedule)
    _assert_disjoint(ns.v_schedule)
    expected = hole_count_formula(n, k, w, params.N_A)
    if ns.hole_count() != expected:
        raise NetworkSchedulingError(
            f"hole count {ns.hole_count()} != formula value {expected}")
    return ns


def _g_resting_sets(ns: NetworkSet) -> dict[int, tuple[int, ...]]:
    """Resting ancilla qubits per step of the preparation window.

    A qubit is counted from its preparation step through the end of the
    CNOT phase (step w+3).
    """
    start: dict[int, int] = {}
    busy: dict[int, set[int]] = {}
    for ev in ns.g_schedule:
        for q in ev.qubits:
            busy.setdefault(q, set()).add(ev.time_step)
            if ev.kind in (PREP_ZERO, PREP_PLUS):
                start[q] = ev.time_step
    end = ns.w + 3
    sets = {}
    for t in range(0, end + 1):
        sets[t] = tuple(q for q in ns.ancilla_qubits
                        if start[q] <= t and t not in busy[q])
    return sets


def _v_resting_sets(ns: NetworkSet) -> dict[int, tuple[int, ...]]:
    """Resting qubits per step of the verification coupling window
    (steps 1..w+1, ancilla and verification bits all present)."""
    busy: dict[int, set[int]] = {}
    for ev in ns.v_schedule:
        for q in ev.qubits:
            busy.setdefault(q, set()).add(ev.time_step)
    qubits = list(ns.ancilla_qubits) + list(ns.verification_qubits)
    sets = {}
    for t in range(1, ns.w + 2):
        sets[t] = tuple(q for q in qubits if t not in busy.get(q, ()))
    return sets


def _g_rest_profile(ns: NetworkSet) -> list[tuple[int, int]]:
    return [(t, len(qs)) for t, qs in _g_resting_sets(ns).items()]


def _v_rest_profile(ns: NetworkSet) -> list[tuple[int, int]]:
    return [(t, len(qs)) for t, qs in _v_resting_sets(ns).items()]


def _assert_disjoint(schedule: Iterable[GateEvent]) -> None:
    seen: set[tuple[int, int]] = set()
    for ev in schedule:
        for q in ev.qubits:
            key = (ev.time_step, q)
            if key in seen:
                raise NetworkSchedulingError(
                    f"qubit {q} used twice in step {ev.time_step}")
            seen.add(key)


def count_holes(ns: NetworkSet, params: Optional[CodeParams] = None) -> int:
    """Resting qubit-steps inside the G and V windows.

    When ``params`` is given the count is checked against the closed-form
    value (they agree whenever the schedules meet their w / w+1 budgets).
    """
    total = ns.hole_count()
    if params is not None:
        expected = hole_count_formula(params.n, params.k, params.w, params.N_A)
        if total != expected:
            raise NetworkSchedulingError(
                f"counted {total} holes, formula gives {expected}")
    return total
