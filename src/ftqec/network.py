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
from typing import Iterable, Sequence

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

    # sanity: no more colors than the degree bound
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
    )
    ns.g_step_rest = _rest_profile(g_events, ns.ancilla_qubits, range(w + 4))
    ns.v_step_rest = _rest_profile(
        v_events, [*ns.ancilla_qubits, *ns.verification_qubits], range(1, w + 2))
    _assert_disjoint(ns.g_schedule)
    _assert_disjoint(ns.v_schedule)
    expected = hole_count_formula(n, k, w, params.N_A)
    if ns.hole_count() != expected:
        raise NetworkSchedulingError(
            f"hole count {ns.hole_count()} != formula value {expected}")
    return ns


def _rest_profile(schedule: list[GateEvent], qubits: Sequence[int],
                  steps: range) -> list[tuple[int, int]]:
    """(step, resting count) over ``steps``: a qubit rests at step t when it
    is present (from its preparation in ``schedule``, if it has one) and no
    gate acts on it at t."""
    start: dict[int, int] = {}
    busy: set[tuple[int, int]] = set()
    for ev in schedule:
        for q in ev.qubits:
            busy.add((ev.time_step, q))
            if ev.kind in (PREP_ZERO, PREP_PLUS):
                start[q] = ev.time_step
    return [(t, sum(1 for q in qubits
                    if start.get(q, 0) <= t and (t, q) not in busy))
            for t in steps]


def _assert_disjoint(schedule: Iterable[GateEvent]) -> None:
    seen: set[tuple[int, int]] = set()
    for ev in schedule:
        for q in ev.qubits:
            key = (ev.time_step, q)
            if key in seen:
                raise NetworkSchedulingError(
                    f"qubit {q} used twice in step {ev.time_step}")
            seen.add(key)
