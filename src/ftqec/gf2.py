"""Dense GF(2) linear algebra on small binary matrices.

Everything here operates on numpy uint8 arrays whose entries are 0 or 1.
Matrices are at most a few hundred rows/columns (code block lengths up to
127), so simple Gaussian elimination is fast enough everywhere it is used.
"""
from __future__ import annotations

import numpy as np


def as_gf2(matrix) -> np.ndarray:
    """Coerce input to a 2-D uint8 array reduced mod 2."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.uint8)) & 1
    return m.astype(np.uint8)


def rref(matrix) -> tuple[np.ndarray, list[int], int]:
    """Row-reduce over GF(2).

    Returns (reduced matrix, pivot column indices in order, rank).  Pivot
    selection scans columns left to right and takes the first row with a 1,
    so the result is deterministic for a given input.
    """
    m = as_gf2(matrix).copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(m[r:, c])[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        # clear every other 1 in this column
        others = np.nonzero(m[:, c])[0]
        for o in others:
            if o != r:
                m[o, :] ^= m[r, :]
        pivots.append(c)
        r += 1
    return m, pivots, r


def rank(matrix) -> int:
    """Rank over GF(2)."""
    return rref(matrix)[2]


def row_basis(matrix) -> np.ndarray:
    """Return a full-rank matrix with the same row space."""
    m, _, rk = rref(matrix)
    return m[:rk].copy()


def null_space(matrix) -> np.ndarray:
    """Basis of the right null space {x : M x = 0} over GF(2).

    Returned as a (nullity x cols) matrix whose rows are the basis vectors.
    """
    m, pivots, rk = rref(matrix)
    cols = m.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        # pivot row j fixes coordinate pivots[j]
        for j, pc in enumerate(pivots):
            if m[j, fc]:
                basis[i, pc] = 1
    return basis


def matmul(a, b) -> np.ndarray:
    """Matrix product mod 2."""
    return (as_gf2(a).astype(np.int64) @ as_gf2(b).astype(np.int64) % 2).astype(np.uint8)


def same_row_space(a, b) -> bool:
    """True when two matrices span the same GF(2) row space."""
    ra = row_basis(a)
    rb = row_basis(b)
    if ra.shape[0] != rb.shape[0]:
        return False
    stacked = np.vstack([ra, rb])
    return rank(stacked) == ra.shape[0]


def rows_to_ints(matrix) -> list[int]:
    """Pack each row into a Python int, bit i = column i."""
    m = as_gf2(matrix)
    out = []
    for row in m:
        v = 0
        for i in np.nonzero(row)[0]:
            v |= 1 << int(i)
        out.append(v)
    return out
