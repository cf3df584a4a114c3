"""Classical code constructions behind the CSS recovery protocol.

A quantum [[n, k, d]] CSS block is described here by the classical code C
of dimension (n-k)/2 whose superposition of codewords forms the logical
zero state.  The check matrix H of C has (n+k)/2 independent rows; those
rows span the dual-containing code used to build the quantum code, and the
error syndromes processed by the decoder are H * e over GF(2).

The module provides:

* constructions for the Hamming, Golay, BCH and quadratic-residue families,
  plus column-deletion shortening,
* reduction of H to (I A) standard form and the scheduling parameters
  (w, N_A, N_GV, N_h) derived from A,
* coset-leader decoding (full syndrome table for small codes, bounded-weight
  meet-in-the-middle search for large ones) and the crash criterion.

The catalog in data/catalog.json carries the (w, N_A) values consumed by the
analytic model; constructed matrices feed the simulator.  The two need not
agree entry by entry (the standard-form reduction is not unique), so
``compare_with_catalog`` reports both side by side.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Union

import numpy as np

from . import gf2


class CodeConstructionError(ValueError):
    """Raised when a construction violates a structural invariant."""


# ---------------------------------------------------------------------------
# polynomial helpers over GF(2), coefficients packed into ints (bit i = x^i)
# ---------------------------------------------------------------------------

def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, m: int) -> int:
    dm = poly_degree(m)
    while poly_degree(a) >= dm and a:
        a ^= m << (poly_degree(a) - dm)
    return a


def poly_divides(p: int, q: int) -> bool:
    """True when p divides q over GF(2)."""
    return poly_mod(q, p) == 0


def gf2m_pow_table(poly: int, n: int) -> list[int]:
    """Powers of the field generator x modulo ``poly``: alpha^0 .. alpha^(n-1)."""
    m = poly_degree(poly)
    alpha = 1
    out = []
    for _ in range(n):
        out.append(alpha)
        alpha <<= 1
        if alpha >> m:
            alpha ^= poly
    return out


# ---------------------------------------------------------------------------
# construction descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeSpec:
    """Descriptor of one classical-code construction."""
    kind: str                       # hamming | golay | bch | qr | shortened
    m: int = 0                      # field degree for bch
    poly: int = 0                   # generator polynomial of GF(2^m) for bch
    odd_checks: int = 0             # number of odd power rows for bch
    prime: int = 0                  # block length for qr
    base: Optional["CodeSpec"] = None   # parent for shortened
    d: int = 0                      # quantum distance of the resulting code

    @staticmethod
    def hamming() -> "CodeSpec":
        return CodeSpec(kind="hamming", m=3, poly=0b1011, odd_checks=1, d=3)

    @staticmethod
    def golay() -> "CodeSpec":
        return CodeSpec(kind="golay", prime=23, d=7)

    @staticmethod
    def bch(m: int, poly: int, odd_checks: int) -> "CodeSpec":
        return CodeSpec(kind="bch", m=m, poly=poly, odd_checks=odd_checks,
                        d=2 * odd_checks + 1)

    @staticmethod
    def quadratic_residue(prime: int, d: int) -> "CodeSpec":
        return CodeSpec(kind="qr", prime=prime, d=d)

    @staticmethod
    def shortened(base: "CodeSpec") -> "CodeSpec":
        return CodeSpec(kind="shortened", base=base, d=base.d - 2)


_QR_DISTANCE = {23: 7, 47: 11, 79: 15, 103: 19}

_NAMED_SPECS: dict[str, CodeSpec] = {
    "hamming": CodeSpec.hamming(),
    "golay": CodeSpec.golay(),
    "golay21": CodeSpec.shortened(CodeSpec.golay()),
    "bch31": CodeSpec.bch(5, 0b100101, 2),
    "qr47": CodeSpec.quadratic_residue(47, 11),
    "qr45": CodeSpec.shortened(CodeSpec.quadratic_residue(47, 11)),
    "qr43": CodeSpec.shortened(CodeSpec.shortened(CodeSpec.quadratic_residue(47, 11))),
    "bch63-27": CodeSpec.bch(6, 0b1000011, 3),
    "bch63-39": CodeSpec.bch(6, 0b1000011, 2),
    "qr79": CodeSpec.quadratic_residue(79, 15),
    "qr77": CodeSpec.shortened(CodeSpec.quadratic_residue(79, 15)),
    "qr75": CodeSpec.shortened(CodeSpec.shortened(CodeSpec.quadratic_residue(79, 15))),
    "qr103": CodeSpec.quadratic_residue(103, 19),
    "qr101": CodeSpec.shortened(CodeSpec.quadratic_residue(103, 19)),
    "qr99": CodeSpec.shortened(CodeSpec.shortened(CodeSpec.quadratic_residue(103, 19))),
    "qr97": CodeSpec.shortened(CodeSpec.shortened(CodeSpec.shortened(CodeSpec.quadratic_residue(103, 19)))),
    "bch127-29": CodeSpec.bch(7, 0b10001001, 7),
    "bch127-43": CodeSpec.bch(7, 0b10001001, 6),
}


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass
class ClassicalCode:
    """Classical code C underlying one CSS block.

    H is the (n+k)/2 x n check matrix of C (its rows span the dual-containing
    code the quantum code is built from); ``generator`` is a (n-k)/2 x n
    basis of C itself.
    """
    name: str
    n: int
    k: int          # logical qubits of the quantum block
    d: int          # quantum distance
    H: np.ndarray
    generator: np.ndarray
    spec: Optional[CodeSpec] = None

    @property
    def dim(self) -> int:
        """Dimension of C."""
        return (self.n - self.k) // 2

    @property
    def t(self) -> int:
        return (self.d - 1) // 2

    def check_matrix_text(self) -> str:
        """Rows of H as lines of 0/1 characters."""
        return "\n".join("".join(str(int(b)) for b in row) for row in self.H)


@dataclass
class StandardForm:
    """(I A) presentation of a check matrix.

    ``column_permutation`` maps new position -> original column index, so
    H[:, column_permutation] row-reduces to (I | A).
    """
    A: np.ndarray
    column_permutation: np.ndarray
    H_std: np.ndarray   # the full (I A) matrix

    @property
    def rows(self) -> int:
        return self.H_std.shape[0]


@dataclass(frozen=True)
class CodeParams:
    """Scheduling and decoding parameters of one code."""
    n: int
    k: int
    d: int
    t: int
    w: int
    N_A: int
    N_GV: int
    N_h: int
    source: str = "constructed"   # constructed | catalog
    name: str = ""

    @staticmethod
    def from_counts(n: int, k: int, d: int, w: int, n_a: int,
                    source: str = "constructed", name: str = "") -> "CodeParams":
        if d % 2 == 0:
            raise CodeConstructionError(f"distance must be odd, got {d}")
        n_gv = 2 * n_a + (n + k) // 2
        n_h = hole_count_formula(n, k, w, n_a)
        return CodeParams(n=n, k=k, d=d, t=(d - 1) // 2, w=w, N_A=n_a,
                          N_GV=n_gv, N_h=n_h, source=source, name=name)


def hole_count_formula(n: int, k: int, w: int, n_a: int) -> int:
    """Resting qubit-steps in the preparation and verification networks.

    First brace: preparation network; second: verification network.
    """
    g_part = w * n - 2 * n_a + 3 * (n - k) // 2
    v_part = w * (n + (n + k) // 2) - 2 * n_a + (n - k) // 2
    return g_part + v_part


# ---------------------------------------------------------------------------
# catalog access
# ---------------------------------------------------------------------------

def catalog() -> list[dict]:
    """Rows of the shipped code catalog."""
    text = resources.files("ftqec.data").joinpath("catalog.json").read_text()
    return json.loads(text)["codes"]


def catalog_entry(name: str) -> dict:
    for row in catalog():
        if row["name"] == name:
            return row
    raise KeyError(f"unknown code name {name!r}")


def params_from_catalog(name: str) -> CodeParams:
    """CodeParams built from the catalog's (w, N_A) values."""
    row = catalog_entry(name)
    if row["w"] is None:
        # trivial unencoded qubit
        return CodeParams(n=1, k=1, d=1, t=0, w=0, N_A=0, N_GV=1, N_h=0,
                          source="catalog", name=name)
    return CodeParams.from_counts(row["n"], row["k"], row["d"], row["w"],
                                  row["N_A"], source="catalog", name=name)


def code_names() -> list[str]:
    return [row["name"] for row in catalog() if row["name"] != "none"]


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, int(p ** 0.5) + 1):
        if p % q == 0:
            return False
    return True


def _finish(name: str, spec: CodeSpec, n: int, gen_c: np.ndarray, d: int) -> ClassicalCode:
    """Reduce a spanning set of C, derive H, and check the invariants."""
    g = gf2.row_basis(gen_c)
    dim_c = g.shape[0]
    k = n - 2 * dim_c
    if k < 1:
        raise CodeConstructionError(
            f"{name}: dimension {dim_c} leaves no logical qubit (n={n})")
    h = gf2.row_basis(gf2.null_space(g))
    if h.shape[0] != (n + k) // 2:
        raise CodeConstructionError(
            f"{name}: check matrix rank {h.shape[0]} != {(n + k) // 2}")
    if np.any(gf2.matmul(g, g.T)):
        raise CodeConstructionError(f"{name}: code is not self-orthogonal")
    if np.any(gf2.matmul(h, g.T)):
        raise CodeConstructionError(f"{name}: H does not annihilate the generator")
    return ClassicalCode(name=name, n=n, k=k, d=d, H=h, generator=g, spec=spec)


def _construct_bch(spec: CodeSpec, name: str) -> ClassicalCode:
    m, poly = spec.m, spec.poly
    n = (1 << m) - 1
    if poly_degree(poly) != m:
        raise CodeConstructionError(f"{name}: polynomial degree != {m}")
    if not poly_divides(poly, (1 << n) | 1):
        raise CodeConstructionError(
            f"{name}: polynomial does not divide 1 + x^{n} over GF(2)")
    powers = gf2m_pow_table(poly, n)
    rows = []
    for idx in range(spec.odd_checks):
        j = 2 * idx + 1
        for bit in range(m):
            rows.append([(powers[(j * i) % n] >> bit) & 1 for i in range(n)])
    gen_c = np.array(rows, dtype=np.uint8)
    return _finish(name, spec, n, gen_c, spec.d)


def _construct_qr(spec: CodeSpec, name: str) -> ClassicalCode:
    p = spec.prime
    if not _is_prime(p):
        raise CodeConstructionError(f"{name}: {p} is not prime")
    if p % 4 != 3:
        raise CodeConstructionError(f"{name}: {p} is not 3 mod 4")
    residues = {(i * i) % p for i in range(1, p)}
    f = np.zeros(p, dtype=np.uint8)
    f[0] = 1
    for i in range(1, p):
        f[i] = 0 if i in residues else 1
    circulant = np.array([np.roll(f, i) for i in range(p)], dtype=np.uint8)
    return _finish(name, spec, p, circulant, spec.d)


def _construct_shortened(spec: CodeSpec, name: str) -> ClassicalCode:
    base = construct_code(spec.base, name=name + "-base")
    h_cut = gf2.row_basis(base.H[:, :-2])
    if h_cut.shape[0] != base.H.shape[0]:
        raise CodeConstructionError(
            f"{name}: shortening dropped check rank "
            f"({h_cut.shape[0]} < {base.H.shape[0]})")
    n = base.n - 2
    gen_c = gf2.row_basis(gf2.null_space(h_cut))
    return _finish(name, spec, n, gen_c, spec.d)


def construct_code(spec: Union[CodeSpec, str], name: str = "") -> ClassicalCode:
    """Build a ClassicalCode from a descriptor or a catalog name."""
    if isinstance(spec, str):
        name = name or spec
        spec = _NAMED_SPECS[spec]
    if not name:
        name = spec.kind
    if spec.kind in ("hamming", "bch"):
        return _construct_bch(spec, name)
    if spec.kind in ("golay", "qr"):
        return _construct_qr(spec, name)
    if spec.kind == "shortened":
        return _construct_shortened(spec, name)
    raise CodeConstructionError(f"unknown construction kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# standard form and derived parameters
# ---------------------------------------------------------------------------

def standard_form(code_or_matrix) -> StandardForm:
    """Bring a check matrix to (I A) form by column permutation + row reduction.

    Pivot columns (first independent column scanning left to right) move to
    the front in pivot order; the remaining columns keep their relative
    order and form A.
    """
    h = code_or_matrix.H if isinstance(code_or_matrix, ClassicalCode) else code_or_matrix
    h = gf2.as_gf2(h)
    rows, cols = h.shape
    reduced, pivots, rk = gf2.rref(h)
    if rk != rows:
        raise CodeConstructionError(f"check matrix is rank deficient ({rk} < {rows})")
    non_pivots = [c for c in range(cols) if c not in pivots]
    perm = np.array(list(pivots) + non_pivots, dtype=np.int64)
    h_std = reduced[:, perm]
    a = h_std[:, rows:].copy()
    ident = h_std[:, :rows]
    if np.any(ident != np.eye(rows, dtype=np.uint8)):
        raise CodeConstructionError("reduction failed to produce an identity block")
    return StandardForm(A=a, column_permutation=perm, H_std=h_std)


def standardized_code(code: ClassicalCode) -> ClassicalCode:
    """Relabel the physical qubits of ``code`` so its check matrix is (I A)."""
    sf = standard_form(code)
    gen = gf2.row_basis(gf2.null_space(sf.H_std))
    return ClassicalCode(name=code.name, n=code.n, k=code.k, d=code.d,
                         H=sf.H_std, generator=gen, spec=code.spec)


def derived_params(sf: StandardForm, n: int, k: int, d: int,
                   name: str = "") -> CodeParams:
    """Scheduling parameters read off the A block of (I A)."""
    a = sf.A
    n_a = int(a.sum())
    if n_a == 0:
        w = 0
    else:
        w = int(max(a.sum(axis=1).max(), a.sum(axis=0).max()))
    return CodeParams.from_counts(n, k, d, w, n_a, source="constructed", name=name)


def compare_with_catalog(name: str) -> dict:
    """Constructed (w, N_A) next to the catalog values, mismatches flagged."""
    row = catalog_entry(name)
    code = construct_code(name)
    params = derived_params(standard_form(code), code.n, code.k, code.d, name=name)
    return {
        "name": name,
        "n": code.n, "k": code.k, "d": code.d,
        "w_catalog": row["w"], "w_constructed": params.w,
        "N_A_catalog": row["N_A"], "N_A_constructed": params.N_A,
        "mismatch": (params.w != row["w"]) or (params.N_A != row["N_A"]),
    }


# ---------------------------------------------------------------------------
# coset-leader decoding
# ---------------------------------------------------------------------------

TABLE_BITS_LIMIT = 26   # build a full syndrome table up to 2^26 entries


def _syndrome_to_int(h: np.ndarray, e: np.ndarray) -> int:
    s = (h.astype(np.int64) @ e.astype(np.int64)) % 2
    out = 0
    for i in np.nonzero(s)[0]:
        out |= 1 << int(i)
    return out


class CosetDecoder:
    """Minimum-weight decoding of H-syndromes.

    For codes whose H has at most TABLE_BITS_LIMIT rows, a full syndrome
    table is built by breadth-first layering over error weights, giving the
    leader weight and one leader vector for every syndrome.  Larger codes
    fall back to an ascending-weight meet-in-the-middle search; weights
    beyond the search bound are reported as bound + 1.
    """

    def __init__(self, code: ClassicalCode):
        self.code = code
        self.rows = code.H.shape[0]
        self.n = code.n
        self.col_syndromes = gf2.rows_to_ints(code.H.T)
        self.weight_table: Optional[np.ndarray] = None
        self.vector_table: Optional[np.ndarray] = None
        if self.rows <= TABLE_BITS_LIMIT:
            self._build_table()

    def _build_table(self) -> None:
        size = 1 << self.rows
        wt = np.full(size, 255, dtype=np.uint8)
        vec = np.zeros(size, dtype=np.uint64)
        wt[0] = 0
        cols = np.array(self.col_syndromes, dtype=np.uint64)
        col_bits = (np.uint64(1) << np.arange(self.n, dtype=np.uint64))
        frontier_s = np.array([0], dtype=np.uint64)
        frontier_v = np.array([0], dtype=np.uint64)
        weight = 0
        while frontier_s.size and weight < self.n:
            weight += 1
            cand_s = (frontier_s[:, None] ^ cols[None, :]).ravel()
            cand_v = (frontier_v[:, None] | col_bits[None, :]).ravel()
            fresh = wt[cand_s] == 255
            cand_s = cand_s[fresh]
            cand_v = cand_v[fresh]
            uniq, first = np.unique(cand_s, return_index=True)
            wt[uniq] = weight
            vec[uniq] = cand_v[first]
            frontier_s = uniq
            frontier_v = cand_v[first]
        self.weight_table = wt
        self.vector_table = vec

    # -- bounded search ----------------------------------------------------
    def _search(self, syndrome: int, max_weight: int) -> tuple[int, Optional[int]]:
        """Ascending-weight meet-in-the-middle search.

        Returns (weight, vector-bitmask) or (max_weight + 1, None) when no
        pattern of weight <= max_weight matches.
        """
        if syndrome == 0:
            return 0, 0
        cols = self.col_syndromes
        half_maps: dict[int, dict[int, int]] = {0: {0: 0}}

        def half(kk: int) -> dict[int, int]:
            if kk not in half_maps:
                table: dict[int, int] = {}
                for combo in itertools.combinations(range(self.n), kk):
                    s = 0
                    v = 0
                    for i in combo:
                        s ^= cols[i]
                        v |= 1 << i
                    if s not in table:
                        table[s] = v
                half_maps[kk] = table
            return half_maps[kk]

        for w in range(1, max_weight + 1):
            w1 = w // 2
            w2 = w - w1
            right = half(w2)
            for combo in itertools.combinations(range(self.n), w1):
                s = syndrome
                v = 0
                for i in combo:
                    s ^= cols[i]
                    v |= 1 << i
                hit = right.get(s)
                if hit is not None and (hit & v) == 0:
                    return w, v | hit
        return max_weight + 1, None

    # -- public API ---------------------------------------------------------
    def leader_weight(self, syndrome: int, max_weight: Optional[int] = None) -> int:
        if self.weight_table is not None:
            return int(self.weight_table[syndrome])
        bound = max_weight if max_weight is not None else 2 * self.code.t + 1
        return self._search(syndrome, bound)[0]

    def leader_vector(self, syndrome: int, max_weight: Optional[int] = None) -> Optional[int]:
        """Bitmask of one minimum-weight error for this syndrome."""
        if self.weight_table is not None:
            return int(self.vector_table[syndrome])
        bound = max_weight if max_weight is not None else 2 * self.code.t + 1
        w, v = self._search(syndrome, bound)
        return v


_decoder_cache: dict[tuple, CosetDecoder] = {}


def decoder_for(code: ClassicalCode) -> CosetDecoder:
    """Shared decoder per check matrix, so equal codes reuse one table."""
    key = (code.H.shape, code.H.tobytes())
    if key not in _decoder_cache:
        _decoder_cache[key] = CosetDecoder(code)
    return _decoder_cache[key]


def coset_leader_weight(code: ClassicalCode, syndrome,
                        max_weight: Optional[int] = None) -> int:
    """Minimum weight of an error with H e = syndrome.

    ``syndrome`` may be a bit vector over the rows of H or a packed int.
    A result of (bound + 1) means the leader exceeds the search bound,
    which only occurs for codes too large for a full table.
    """
    if not isinstance(syndrome, (int, np.integer)):
        s = np.asarray(syndrome, dtype=np.uint8) & 1
        if s.shape[0] != code.H.shape[0]:
            raise ValueError("syndrome length must equal the number of check rows")
        syndrome = int(sum(1 << i for i in np.nonzero(s)[0]))
    return decoder_for(code).leader_weight(int(syndrome), max_weight)


def syndrome_of(code: ClassicalCode, error_bits) -> int:
    """Packed-int syndrome H e for an n-bit error pattern."""
    e = np.asarray(error_bits, dtype=np.uint8) & 1
    if e.shape[0] != code.n:
        raise ValueError("error vector length must equal n")
    return _syndrome_to_int(code.H, e)


def is_crash(code: ClassicalCode, e_x, e_z, t: Optional[int] = None) -> bool:
    """True when either error component has coset-leader weight above t."""
    tt = code.t if t is None else t
    dec = decoder_for(code)
    for e in (e_x, e_z):
        s = syndrome_of(code, e)
        if dec.leader_weight(s, max_weight=tt) > tt:
            return True
    return False
