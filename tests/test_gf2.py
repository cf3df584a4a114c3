import numpy as np

from ftqec import gf2


def test_rref_identity():
    m = np.eye(4, dtype=np.uint8)
    r, pivots, rank = gf2.rref(m)
    assert rank == 4
    assert pivots == [0, 1, 2, 3]
    assert np.array_equal(r, m)


def test_null_space_orthogonal():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = (rng.random((5, 9)) < 0.4).astype(np.uint8)
        ns = gf2.null_space(m)
        assert ns.shape[0] == 9 - gf2.rank(m)
        if ns.size:
            assert not np.any(gf2.matmul(m, ns.T))


def test_row_basis_preserves_span():
    rng = np.random.default_rng(4)
    m = (rng.random((6, 8)) < 0.5).astype(np.uint8)
    stacked = np.vstack([m, m[0] ^ m[1]])
    assert gf2.same_row_space(m, stacked)
    assert gf2.rank(gf2.row_basis(stacked)) == gf2.rank(m)


def test_int_packing_roundtrip():
    rng = np.random.default_rng(5)
    m = (rng.random((3, 12)) < 0.5).astype(np.uint8)
    ints = gf2.rows_to_ints(m)
    back = np.array([[(v >> i) & 1 for i in range(12)] for v in ints], dtype=np.uint8)
    assert np.array_equal(back, m)
