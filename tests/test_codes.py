import itertools
import tracemalloc

import numpy as np
import pytest

from ftqec import codes, gf2
from ftqec.codes import CodeConstructionError, CodeSpec

from result_helpers import code_dim


def span_min_weight(h):
    """Minimum weight over the nonzero row span of h (exhaustive)."""
    vals = gf2.rows_to_ints(h)
    best = None
    for r in range(1, 1 << h.shape[0]):
        v = 0
        x, i = r, 0
        while x:
            if x & 1:
                v ^= vals[i]
            x >>= 1
            i += 1
        w = bin(v).count("1")
        best = w if best is None else min(best, w)
    return best


def test_decoder_shared_between_equal_codes():
    a = codes.standardized_code(codes.construct_code("golay"))
    b = codes.standardized_code(codes.construct_code("golay"))
    assert a is not b
    assert codes.decoder_for(a) is codes.decoder_for(b)


def test_hamming_shape(hamming):
    assert (hamming.n, hamming.k, hamming.d) == (7, 1, 3)
    assert code_dim(hamming) == 3
    assert hamming.H.shape == (4, 7)


def test_golay_shape(golay):
    assert (golay.n, golay.k, golay.d) == (23, 1, 7)
    assert code_dim(golay) == 11
    assert golay.H.shape == (12, 23)


def test_hamming_span_min_weight(hamming):
    assert span_min_weight(hamming.H) == 3


def test_shortened_golay():
    c = codes.construct_code("golay21")
    assert (c.n, c.k, c.d) == (21, 3, 5)


@pytest.mark.parametrize("name", codes.code_names())
def test_all_constructions_match_catalog(name):
    c = codes.construct_code(name)
    row = codes.catalog_entry(name)
    assert (c.n, c.k, c.d) == (row["n"], row["k"], row["d"])
    # generator annihilated by H, and self-orthogonality of the code
    assert not np.any(gf2.matmul(c.H, c.generator.T))
    assert not np.any(gf2.matmul(c.generator, c.generator.T))
    assert gf2.rank(c.H) == (c.n + c.k) // 2


def test_qr_preconditions():
    with pytest.raises(CodeConstructionError):
        codes.construct_code(CodeSpec.quadratic_residue(21, 5))   # not prime
    with pytest.raises(CodeConstructionError):
        codes.construct_code(CodeSpec.quadratic_residue(13, 5))   # 1 mod 4


def test_bch_bad_polynomial():
    with pytest.raises(CodeConstructionError):
        codes.construct_code(CodeSpec.bch(3, 0b1111, 1))  # x^3+x^2+x+1 | 1+x^7 fails


# -- standard form ----------------------------------------------------------

def test_standard_form_identity_case():
    h = np.hstack([np.eye(3, dtype=np.uint8),
                   np.array([[1, 0], [1, 1], [0, 1]], dtype=np.uint8)])
    sf = codes.standard_form(h)
    assert np.array_equal(sf.column_permutation, np.arange(5))
    assert np.array_equal(sf.A, h[:, 3:])


def test_standard_form_golay(golay):
    sf = codes.standard_form(golay)
    assert sf.A.shape == (12, 11)
    # permutation soundness: un-permuting reproduces the row space
    inv = np.empty_like(sf.column_permutation)
    inv[sf.column_permutation] = np.arange(golay.n)
    assert gf2.same_row_space(sf.H_std[:, inv], golay.H)


def test_standard_form_moves_dependent_columns():
    # duplicated leading column forces the permutation forward
    h = np.array([[1, 1, 0, 1],
                  [1, 1, 1, 0]], dtype=np.uint8)
    sf = codes.standard_form(h)
    assert list(sf.column_permutation[:2]) == [0, 2]
    assert gf2.same_row_space(sf.H_std[:, np.argsort(sf.column_permutation)], h)


def test_standard_form_rank_deficient_rejected():
    h = np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8)
    with pytest.raises(CodeConstructionError):
        codes.standard_form(h)


# -- derived parameters ------------------------------------------------------

def test_derived_params_worked_values():
    p = codes.params_from_catalog("bch127-43")
    assert p.N_GV == 3689
    assert p.N_h == 8893


def test_derived_params_golay_catalog():
    p = codes.params_from_catalog("golay")
    assert p.N_GV == 166
    assert p.N_h == 132 + 242


def test_even_distance_rejected():
    with pytest.raises(CodeConstructionError):
        codes.CodeParams.from_counts(8, 2, 4, 3, 9)


def test_derived_params_zero_matrix():
    sf = codes.StandardForm(A=np.zeros((4, 3), dtype=np.uint8),
                            column_permutation=np.arange(7),
                            H_std=np.hstack([np.eye(4, dtype=np.uint8),
                                             np.zeros((4, 3), dtype=np.uint8)]))
    p = codes.derived_params(sf, 7, 1, 3)
    assert p.N_A == 0 and p.w == 0 and p.N_GV == 4


def test_catalog_mismatches_surfaced():
    cmp_row = codes.compare_with_catalog("hamming")
    assert cmp_row["N_A_constructed"] == 9
    assert cmp_row["N_A_catalog"] == 12
    assert cmp_row["mismatch"] is True
    # golay N_A agrees even though w differs
    cg = codes.compare_with_catalog("golay")
    assert cg["N_A_constructed"] == cg["N_A_catalog"] == 77


def test_check_matrix_export(hamming):
    text = hamming.check_matrix_text()
    lines = text.splitlines()
    assert len(lines) == 4
    assert all(set(line) <= {"0", "1"} and len(line) == 7 for line in lines)


# -- coset leaders -----------------------------------------------------------

def _syndrome(code, e):
    """Packed-int syndrome H e of an n-bit error vector."""
    return gf2.rows_to_ints(gf2.matmul(code.H, e[:, None]).T)[0]


def test_zero_syndrome_weight(hamming):
    assert codes.decoder_for(hamming).leader_weight(0) == 0


def test_hamming_exhaustive_leaders(hamming):
    # oracle: enumerate all 2^7 error patterns
    best = {}
    for weight in range(8):
        for combo in itertools.combinations(range(7), weight):
            e = np.zeros(7, dtype=np.uint8)
            e[list(combo)] = 1
            s = _syndrome(hamming, e)
            best.setdefault(s, weight)
    assert len(best) == 16
    assert sorted(set(best.values())) == [0, 1, 2, 3]
    for s, w in best.items():
        assert codes.decoder_for(hamming).leader_weight(s) == w


def test_two_bit_error_leader(hamming):
    e = np.zeros(7, dtype=np.uint8)
    e[0] = e[1] = 1
    assert codes.decoder_for(hamming).leader_weight(_syndrome(hamming, e)) == 2


def test_leader_weight_bounded_by_error_weight(golay, rng):
    for _ in range(200):
        e = (rng.random(23) < 0.3).astype(np.uint8)
        assert codes.decoder_for(golay).leader_weight(_syndrome(golay, e)) <= e.sum()


def test_leader_vector_reproduces_syndrome(hamming, golay):
    # every syndrome of both codes: the leader rebuilt from weights
    # reproduces the syndrome at exactly the decoded weight
    for code in (hamming, golay):
        dec = codes.decoder_for(code)
        cols = gf2.rows_to_ints(code.H.T)
        for s in range(1 << dec.rows):
            v = dec.leader_vector(s)
            acc = 0
            for i in range(code.n):
                if (v >> i) & 1:
                    acc ^= cols[i]
            assert acc == s
            assert bin(v).count("1") == dec.leader_weight(s)


# -- the syndrome ball ---------------------------------------------------------

def ball_decoder(name):
    """Shared decoder of a named code, checked first to be the bounded ball:
    a dense 2^rows table over qr47's 24 check rows takes gigabytes."""
    assert codes.BALL_LIMIT <= 1 << 21
    return codes.decoder_for(codes.construct_code(name))


@pytest.mark.parametrize("name,radius,size", [
    ("hamming", 3, 16), ("golay", 7, 4096), ("golay21", 7, 4096),
    ("bch31", 6, 805_939), ("qr47", 3, 17_344), ("bch63-39", 2, 2_017),
    ("qr79", 4, 1_584_741), ("bch127-43", 3, 341_504),
])
def test_ball_radius(name, radius, size):
    # codes of at most 21 rows grow while the C(n, r) bound keeps the ball
    # within BALL_LIMIT (every syndrome for the small codes); the rest stay
    # at the floor radius max(ceil(t / 2), 2)
    dec = ball_decoder(name)
    assert (dec.radius, len(dec._keys)) == (radius, size)


@pytest.mark.parametrize("name", ["golay", "qr47"])
def test_one_word_ball_keeps_one_copy_of_each_syndrome(name):
    # a syndrome of at most 64 rows is its own sort key, so the decoder
    # holds per ball entry its key (8 bytes), its weight (1) and its place
    # in one layer (8), plus a few kB of columns and Python objects
    code = codes.construct_code(name)
    tracemalloc.start()
    try:
        dec = codes.CosetDecoder(code)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dec.words == 1
    assert held <= 17 * len(dec._keys) + 8192


@pytest.mark.parametrize("name", ["qr99", "qr101", "qr103", "bch127-29"])
def test_oversized_ball_is_refused(name):
    with pytest.raises(CodeConstructionError):
        codes.CosetDecoder(codes.construct_code(name))


@pytest.mark.parametrize("name", ["hamming", "golay", "golay21"])
def test_complete_ball_decodes_by_index(name, monkeypatch):
    # a ball that holds all 2^rows syndromes decodes every syndrome by one
    # array index, never packing or searching; each weight must equal a
    # binary search over the sorted keys and the layer the ball's
    # breadth-first growth put the syndrome in
    dec = ball_decoder(name)
    every = list(range(1 << dec.rows))
    searched = np.searchsorted(dec._keys, every)
    assert dec._keys[searched].tolist() == every
    layer_of = np.zeros(len(every), dtype=np.int64)
    for w, layer in enumerate(dec._layers):
        layer_of[layer[:, 0].astype(np.int64)] = w
    for attr in ("_pack", "_find"):
        monkeypatch.setattr(dec, attr, lambda *args: pytest.fail(f"decode called {attr}"))
    weights = dec.decode(every)
    assert weights.tolist() == dec._weight[searched].tolist() == layer_of.tolist()
    assert weights.dtype == np.uint8 and dec.decode([5, 5, 0]).tolist() == [weights[5]] * 2 + [0]


@pytest.mark.parametrize("name", ["hamming", "golay", "golay21", "bch31",
                                  "qr47", "bch63-39", "bch127-43"])
def test_decoder_matches_enumeration(name):
    dec = ball_decoder(name)
    code = dec.code
    cols = gf2.rows_to_ints(code.H.T)
    # every error of weight <= 3: the lightest error seen per syndrome
    best = {}
    for w in range(4):
        for combo in itertools.combinations(cols, w):
            s = 0
            for c in combo:
                s ^= c
            best.setdefault(s, w)
    syndromes = list(best)
    weights = dec.decode(syndromes)
    assert weights.tolist() == [best[s] for s in syndromes]
    assert all(dec.leader_weight(s) == best[s] for s in syndromes[::997])
    # random errors up to weight 2R + 2: never heavier than the error, and
    # the leader reproduces the syndrome at exactly the reported weight
    rng = np.random.default_rng(11)
    top = 2 * dec.radius + 1
    for w in range(1, top + 2):
        for _ in range(3):
            support = rng.choice(code.n, size=min(w, code.n), replace=False)
            s = 0
            for i in support:
                s ^= cols[i]
            got = dec.leader_weight(s)
            assert got <= min(w, top)
            v = dec.leader_vector(s)
            if got == top:
                assert v is None
                continue
            assert bin(v).count("1") == got
            acc = 0
            for i in range(code.n):
                if (v >> i) & 1:
                    acc ^= cols[i]
            assert acc == s
