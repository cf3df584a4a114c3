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
* bounded-distance coset-leader decoding from one sorted ball of low-weight
  syndromes (every syndrome for the small codes): the decoder answers a
  leader's weight, exact up to 2R with R the ball's radius and 2R + 1
  beyond, and rebuilds one leader from weights only on request.

The catalog in data/catalog.json carries the (w, N_A) values consumed by the
analytic model; constructed matrices feed the simulator.  The two need not
agree entry by entry (the standard-form reduction is not unique), so
``compare_with_catalog`` reports both side by side.
"""
from __future__ import annotations

import json
import math
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


def _finish(name: str, n: int, gen_c: np.ndarray, d: int) -> ClassicalCode:
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
    return ClassicalCode(name=name, n=n, k=k, d=d, H=h, generator=g)


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
    return _finish(name, n, gen_c, spec.d)


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
    return _finish(name, p, circulant, spec.d)


def _construct_shortened(spec: CodeSpec, name: str) -> ClassicalCode:
    base = construct_code(spec.base, name=name + "-base")
    h_cut = gf2.row_basis(base.H[:, :-2])
    if h_cut.shape[0] != base.H.shape[0]:
        raise CodeConstructionError(
            f"{name}: shortening dropped check rank "
            f"({h_cut.shape[0]} < {base.H.shape[0]})")
    n = base.n - 2
    gen_c = gf2.row_basis(gf2.null_space(h_cut))
    return _finish(name, n, gen_c, spec.d)


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
                         H=sf.H_std, generator=gen)


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

BALL_LIMIT = 1 << 21   # most syndromes one decoder's ball may hold
_MIX = np.uint64(0x9E3779B97F4A7C15)   # folds wide syndromes into one sort key


class CosetDecoder:
    """Bounded-distance minimum-weight decoding of H-syndromes.

    The decoder holds a ball: every syndrome whose coset leader has weight
    at most R, with that weight, found by breadth-first layering over error
    weights and sorted for binary search.  R is the floor max(ceil(t/2), 2),
    except that a code whose 2^rows syndromes fit in BALL_LIMIT (hamming,
    golay, golay21, bch31) adds layer r + 1 while the ball plus the
    C(n, r + 1) bound on it stays within the limit.  A
    syndrome s outside the ball is looked up as s xor (a syndrome of layer
    j) for j = 1..R; the first j with a hit has a leader of weight exactly
    R + j.  Weights are therefore exact up to 2R >= max(t, 4), and a
    heavier leader reads 2R + 1.  A code whose floor ball could exceed
    BALL_LIMIT (qr99, qr101, qr103, bch127-29) raises CodeConstructionError.
    Syndromes are packed ints (bit i = row i) held as ``words`` uint64
    words, sorted by one distinct key each: the word itself, or a fold of
    them, beside which the ball then keeps the words.  A complete ball
    (hamming, golay, golay21) holds key s at position s, so ``decode``
    reads its weights by index.
    """

    def __init__(self, code: ClassicalCode):
        self.code = code
        self.rows, self.n = code.H.shape
        self.words = -(-self.rows // 64)
        self._cols = self._pack(gf2.rows_to_ints(code.H.T))
        floor = max(-(-code.t // 2), 2)
        grow = 1 << self.rows <= BALL_LIMIT
        ball = np.zeros((1, self.words), dtype=np.uint64)
        layers = [ball]
        while len(ball) < 1 << self.rows and (grow or len(layers) <= floor):
            r = len(layers) - 1
            if len(ball) + math.comb(self.n, r + 1) > BALL_LIMIT:
                if r < floor:
                    raise CodeConstructionError(
                        f"{code.name}: a syndrome ball of radius {floor} could "
                        f"hold more than BALL_LIMIT = {BALL_LIMIT} entries")
                break
            layers.append(self._next_layer(ball, layers[-1]))
            ball = np.concatenate([ball, layers[-1]])
        self.radius = len(layers) - 1
        self._layers = layers
        weight = np.concatenate([np.full(len(s), w, dtype=np.uint8)
                                 for w, s in enumerate(layers)])
        key = self._key(ball)
        order = np.argsort(key)
        self._keys, self._weight = key[order], weight[order]
        # a one-word syndrome is its own key, so only folded keys keep the
        # syndromes they stand for
        self._ball = ball[order] if self.words > 1 else None
        if (self._keys[1:] == self._keys[:-1]).any():
            raise CodeConstructionError(f"{code.name}: two syndromes share a sort key")

    def _next_layer(self, ball, layer) -> np.ndarray:
        """Syndromes of weight r + 1, from the ball and layer r.

        A first occurrence past the ball, among the ball followed by every
        layer-r syndrome xor every column, is a syndrome of weight r + 1.
        """
        grown = np.concatenate([ball, (layer[:, None] ^ self._cols).reshape(-1, self.words)])
        first = self._first(grown)
        return grown[first[first >= len(ball)]]

    def _first(self, syn: np.ndarray) -> np.ndarray:
        """Index of the first occurrence of each distinct syndrome, in key order."""
        # the fold is invertible, so the key and words 1.. fix a syndrome
        order = np.lexsort((*syn.T[1:], self._key(syn)))
        s = syn[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (s[1:] != s[:-1]).any(axis=1)
        return order[new]

    def _pack(self, syndromes) -> np.ndarray:
        """Packed-int syndromes as an (m, words) uint64 array."""
        raw = b"".join(int(s).to_bytes(8 * self.words, "little") for s in syndromes)
        return np.frombuffer(raw, dtype="<u8").reshape(-1, self.words)

    def _key(self, syn: np.ndarray) -> np.ndarray:
        """Sort key of each syndrome: itself when it fits one word."""
        key = syn[:, 0]
        for i in range(1, self.words):
            key = key * _MIX ^ syn[:, i]
        return key

    def _find(self, syn: np.ndarray) -> np.ndarray:
        """Ball position of each syndrome, -1 for one outside the ball."""
        key = self._key(syn)
        last = len(self._keys) - 1
        # binary search runs far faster over sorted queries, and the sorted
        # copy names the few keys the ball holds
        s = np.sort(key)
        held = s[self._keys[np.minimum(np.searchsorted(self._keys, s), last)] == s]
        idx = np.nonzero(np.isin(key, held))[0]
        at = np.searchsorted(self._keys, key[idx])
        if self._ball is not None:   # a folded key may stand for another syndrome
            hit = (self._ball[at] == syn[idx]).all(axis=1)
            idx, at = idx[hit], at[hit]
        found = np.full(len(key), -1, dtype=np.int64)
        found[idx] = at
        return found

    def decode(self, syndromes) -> np.ndarray:
        """Coset-leader weight of each packed syndrome; 2R + 1 means heavier
        than 2R."""
        if len(self._weight) == 1 << self.rows:
            # a complete ball sorts syndrome s to position s
            return self._weight[np.asarray(syndromes, dtype=np.int64)]
        radius = self.radius
        q = self._pack(syndromes)
        pos = self._find(q)
        weight = np.where(pos >= 0, self._weight[pos], 2 * radius + 1)
        for i in np.nonzero(pos < 0)[0]:
            for j, layer in enumerate(self._layers[1:], 1):
                if (self._find(q[i] ^ layer) >= 0).any():
                    weight[i] = radius + j
                    break
        return weight

    # -- scalar entry points ------------------------------------------------
    def leader_weight(self, syndrome: int) -> int:
        return int(self.decode([syndrome])[0])

    def leader_vector(self, syndrome: int) -> Optional[int]:
        """Bitmask of one minimum-weight error, None beyond weight 2R.

        A leader of weight R + j splits into a ball syndrome and one of
        layer j, as in ``decode``; each part then sheds one column at a
        time, each flip leaving a ball syndrome one lighter.
        """
        weight = self.leader_weight(syndrome)
        if weight > 2 * self.radius:
            return None
        parts = self._pack([syndrome])
        if weight > self.radius:
            layer = self._layers[weight - self.radius]
            half = layer[np.argmax(self._find(parts[0] ^ layer) >= 0)]
            parts = [parts[0] ^ half, half]
        vector = 0
        for syn in parts:
            w = int(self._weight[self._find(syn[None])[0]])
            while w:
                pos = self._find(syn ^ self._cols)
                c = int(np.argmax((pos >= 0) & (self._weight[pos] == w - 1)))
                vector ^= 1 << c
                syn, w = syn ^ self._cols[c], w - 1
        return vector


_decoder_cache: dict[tuple, CosetDecoder] = {}


def decoder_for(code: ClassicalCode) -> CosetDecoder:
    """Shared decoder per check matrix, so equal codes reuse one ball."""
    key = (code.H.shape, code.H.tobytes())
    if key not in _decoder_cache:
        _decoder_cache[key] = CosetDecoder(code)
    return _decoder_cache[key]
