import numpy as np
import pytest

from ftqec import codes, network


def build(name):
    code = codes.construct_code(name)
    sf = codes.standard_form(code)
    params = codes.derived_params(sf, code.n, code.k, code.d, name=name)
    return params, network.synthesize_networks(sf, params)


# -- edge coloring ------------------------------------------------------------

def test_edge_color_single_entry():
    col = network.edge_color(np.array([[1]]))
    assert col == {(0, 0): 0}


def test_edge_color_all_ones_2x2():
    col = network.edge_color(np.ones((2, 2), dtype=np.uint8))
    assert max(col.values()) + 1 == 2
    assert col[(0, 0)] != col[(0, 1)]
    assert col[(0, 0)] != col[(1, 0)]


def test_edge_color_heavy_row():
    a = np.zeros((4, 5), dtype=np.uint8)
    a[0, :] = 1            # weight-5 row
    a[1, 0] = a[2, 1] = a[3, 2] = 1
    col = network.edge_color(a)
    assert max(col.values()) + 1 == 5
    for (i, j), c in col.items():
        for (i2, j2), c2 in col.items():
            if (i, j) != (i2, j2) and (i == i2 or j == j2):
                assert c != c2


def test_edge_color_exact_on_randoms(rng):
    for _ in range(100):
        r, c = rng.integers(2, 14, 2)
        a = (rng.random((r, c)) < 0.35).astype(np.uint8)
        if not a.sum():
            a[0, 0] = 1
        col = network.edge_color(a)
        deg = int(max(a.sum(axis=1).max(), a.sum(axis=0).max()))
        assert max(col.values()) + 1 == deg


# -- synthesis ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["hamming", "golay"])
def test_gate_count_identity(name):
    params, ns = build(name)
    two_qubit = sum(1 for ev in ns.g_schedule if ev.kind == network.CNOT)
    two_qubit += sum(1 for ev in ns.v_schedule if ev.kind == network.CPHASE)
    assert two_qubit == params.N_GV == 2 * params.N_A + (params.n + params.k) // 2


def test_measure_schedule_counts(golay):
    params, ns = build("golay")
    measures = [ev for ev in ns.measure_schedule if ev.kind == network.MEASURE]
    assert len(measures) == 23


def test_schedules_fit_budgets():
    for name in ("hamming", "golay", "bch63-27"):
        params, ns = build(name)
        g_two = [ev.time_step for ev in ns.g_schedule if ev.kind == network.CNOT]
        v_two = [ev.time_step for ev in ns.v_schedule if ev.kind == network.CPHASE]
        assert max(g_two) - min(g_two) + 1 <= params.w
        assert max(v_two) - min(v_two) + 1 <= params.w + 1


@pytest.mark.parametrize("name", ["hamming", "golay", "bch127-43"])
def test_hole_count_matches_formula(name):
    params, ns = build(name)
    assert ns.hole_count() == params.N_h


def test_fully_busy_step_has_no_holes():
    params, ns = build("hamming")
    # the preparation step of the identity part leaves no counted rest for
    # those qubits, and every (step, resting) pair is non-negative
    assert all(r >= 0 for _, r in ns.g_step_rest)
    assert all(r >= 0 for _, r in ns.v_step_rest)
    # at G step 3 only the n - rows seed qubits, prepared at step 0, rest
    assert dict(ns.g_step_rest)[3] == params.n - ns.rows


def test_per_step_disjointness():
    for name in ("hamming", "golay"):
        _, ns = build(name)
        for sched in (ns.g_schedule, ns.v_schedule):
            seen = set()
            for ev in sched:
                for q in ev.qubits:
                    assert (ev.time_step, q) not in seen
                    seen.add((ev.time_step, q))


def test_export_deterministic():
    _, ns1 = build("golay")
    _, ns2 = build("golay")
    assert ns1 == ns2
