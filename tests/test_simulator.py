import concurrent.futures
import dataclasses
import functools
import math
import os
import subprocess
import sys
import tempfile
import types
from bisect import bisect_left
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ftqec import analytic, codes, gf2, network, simulator
from ftqec.network import GateEvent, CNOT, CPHASE, HADAMARD
from ftqec.noise import NoiseParams, Pauli, stream
from ftqec.simulator import (ErrorFrame, ProtocolParams, ProtocolError,
                             SimConfig, SimEngine, _values, _xor_rows, estimate_pbar_mc,
                             judge_syndromes, recover_block, run_batch)

from frame_helpers import (PlaneFrame, column, dense_products, draw, engine_tables,
                           extract_by_rounds, image_tables, joined_faults, pack,
                           plane_syndromes, plant, propagate, set_lane, tag_matrices, x_bits,
                           z_bits)


def engine(code_name="hamming", gamma=0.0, eps=0.0, t_m=1,
           pp=ProtocolParams(2, 2, 2, parallel_corrections=1.0)):
    code = codes.construct_code(code_name)
    return SimEngine(code, NoiseParams(gamma, eps, t_m), pp)


# -- propagation rules --------------------------------------------------------

def test_hadamard_swaps_planes():
    f = PlaneFrame(n=7)
    set_lane(f, "x", 2, 0, 1)
    propagate(GateEvent(HADAMARD, (2,), 0), f)
    assert x_bits(f)[2] == 0 and z_bits(f)[2] == 1


def test_cnot_propagation():
    f = PlaneFrame(n=7)
    set_lane(f, "x", 1, 0, 1)             # X on control
    propagate(GateEvent(CNOT, (1, 3), 0), f)
    assert x_bits(f)[1] == 1 and x_bits(f)[3] == 1
    f2 = PlaneFrame(n=7)
    set_lane(f2, "z", 3, 0, 1)            # Z on target
    propagate(GateEvent(CNOT, (1, 3), 0), f2)
    assert z_bits(f2)[1] == 1 and z_bits(f2)[3] == 1


def test_cphase_propagation():
    f = PlaneFrame(n=7)
    set_lane(f, "x", 0, 0, 1)
    propagate(GateEvent(CPHASE, (0, 5), 0), f)
    assert z_bits(f)[5] == 1 and x_bits(f)[0] == 1 and z_bits(f)[0] == 0


def test_zero_frame_fixed_under_gates():
    f = PlaneFrame(n=7)
    for ev in (GateEvent(HADAMARD, (0,), 0), GateEvent(CNOT, (0, 1), 1),
               GateEvent(CPHASE, (2, 3), 2)):
        propagate(ev, f)
    assert not x_bits(f).any() and not z_bits(f).any()


# -- syndrome extraction ------------------------------------------------------

def _extract(eng, f, error_type, rng):
    """Lane 0's syndrome bits from one preparation that must verify."""
    f.pools = [eng.pools(rng)]
    assert eng.attempt_preparation(f, rng, 1) == 1
    s = eng.couple_and_measure(f, 1, error_type)[0]
    return np.array([(s >> l) & 1 for l in range(eng.rows)], dtype=np.uint8)


def test_extract_zero_noise_zero_frame():
    eng = engine()
    f = ErrorFrame()
    assert not _extract(eng, f, "X", stream(0, 0)).any()


@pytest.mark.parametrize("j", range(7))
def test_extract_single_x_error_gives_column(j):
    eng = engine()
    f = ErrorFrame()
    plant(f, eng.code.H, "x", j)
    assert np.array_equal(_extract(eng, f, "X", stream(0, j)), eng.code.H[:, j])


def test_extract_single_z_error_z_type(golay):
    eng = engine("golay")
    f = ErrorFrame()
    plant(f, eng.code.H, "z", 11)
    assert np.array_equal(_extract(eng, f, "Z", stream(0, 1)), eng.code.H[:, 11])


def test_verified_fraction_tracks_alpha():
    # cross-module consistency at gamma = 1e-3, where the linearized
    # verified-fraction formula is inside its validity range
    code = codes.construct_code("golay")
    noise = NoiseParams(1e-3, 0.0, 1)
    eng = SimEngine(code, noise, ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    alpha = analytic.preparation_stats(eng.params, noise)["alpha"]
    trials = 100_000
    passed = 0
    done = 0
    batch = 0
    while done < trials:
        rng = stream(77, batch)
        batch += 1
        f = ErrorFrame()
        verified = eng.attempt_preparation(f, rng, (1 << 64) - 1)
        passed += bin(verified).count("1")
        done += 64
    frac = passed / done
    # reads frac - alpha = -0.0174: the model's alpha omits the H and M
    # failures of the rows verification bits (~2/3 * rows * 2 gamma, ROADMAP
    # item 3); once alpha counts them, tighten this bound back toward 0.004
    assert abs(frac - alpha) <= 0.02


def _sequential_unverified(verified: np.ndarray, lanes: int, max_attempts: int) -> int:
    """Lanes whose ``max_attempts`` attempts all fail when each lane in turn
    retries on the next samples of one sequence."""
    at = unverified = 0
    for _ in range(lanes):
        for _ in range(max_attempts):
            at += 1
            if verified[at - 1]:
                break
        else:
            unverified += 1
    return unverified


def test_unverified_lanes_counted(monkeypatch):
    # heavy noise leaves lanes unverified; the batch's G+V pool, replayed
    # from the batch stream's first draw (its own stream, the first child
    # of the batch stream, starts at its second refill, which these 64
    # lanes never reach), says how many
    eng = engine(gamma=0.3, eps=0.3)
    mask = (1 << 64) - 1
    tables = image_tables(eng)
    sample, row = joined_faults(tables, stream(5, 0))["prep"]
    images = np.ascontiguousarray(_xor_rows(simulator.POOL_ROWS, sample, tables["prep"].tags[row]))
    bits = np.unpackbits(images.view(np.uint8), axis=1, bitorder="little")
    # X bits of the verification qubits, which follow the ancilla
    verified = ~bits[:, eng.n:eng.n + eng.rows].any(axis=1)
    for max_attempts in (1, 3):
        monkeypatch.setattr(simulator, "MAX_ATTEMPTS", max_attempts)
        f = ErrorFrame(pools=[eng.pools(stream(5, 0))])
        eng.couple_and_measure(f, mask, "X")
        assert f.unverified == _sequential_unverified(verified, 64, max_attempts) > 0
        quiet_eng = engine()
        quiet = ErrorFrame(pools=[quiet_eng.pools(stream(5, 0))])
        quiet_eng.couple_and_measure(quiet, mask, "X")
        assert quiet.unverified == 0


@pytest.mark.parametrize("limit", [8, 5])
def test_prepare_verified_matches_sequential_retries(limit, monkeypatch):
    # G+V samples from a fixed sequence: sample k carries an ancilla error
    # whose fold spells k (ancilla bits whose folds are independent), and
    # fails verification where ``fails`` says.  A run of 12 failures (7,
    # at a limit of 5) inside the first refill exhausts a lane's attempts,
    # and a run of 20 crosses the refill, so some lane spends its attempts
    # on both sides of it.  The pool's hand-out must give every lane the
    # fold of the sample that per-lane sequential retries give it, and
    # count the lanes left unverified.  On golay: hamming's folds,
    # syndromes of 3 bits, span only 2^8 values.  The samples enter the
    # pool as their tags, the fold then the verification bits.  The spell
    # and the number of masks grow with ``POOL_ROWS``, so the lanes cross
    # the first refill whatever its size.  The tags are the samples'
    # images under the dense tag map.
    monkeypatch.setattr(simulator, "MAX_ATTEMPTS", limit)
    eng = engine("golay")
    n = eng.n
    pool_rows = simulator.POOL_ROWS
    images = image_tables(eng)
    matrix = tag_matrices(eng, images)["prep"]
    m = len(eng._prep.qubits)
    fold_bits = 6 * eng.syndrome_bits
    _, pivots, _ = gf2.rref(matrix[:, :fold_bits].T)
    bits = (3 * pool_rows - 1).bit_length()     # 2^bits >= 3 * POOL_ROWS
    spell = pivots[:bits]
    assert len(spell) == bits and all(b < n or m <= b < m + n for b in spell)
    fails = np.random.default_rng(8).random(3 * pool_rows) < 0.3
    fails[120:127] = True
    fails[200:212] = True
    fails[pool_rows - 12:pool_rows + 8] = True
    values = [sum(1 << b for i, b in enumerate(spell) if k >> i & 1) | int(fails[k]) << n
              for k in range(3 * pool_rows)]
    tag_rows = dense_products(pack(values, images["prep"].tags.shape[1]), matrix)
    assert tag_rows.shape[1] == eng._prep.tags.shape[1]
    tags = _values(tag_rows)
    want = [t & (1 << fold_bits) - 1 for t in tags]
    assert len(set(want)) == len(want)
    assert [t >> fold_bits != 0 for t in tags] == fails.tolist()
    chunks = iter(np.split(tag_rows, 3))
    refill = simulator._PrepPool.refill

    def fixed(pool, tags):
        assert pool.table is eng._prep and tags.shape == (pool_rows, tag_rows.shape[1])
        refill(pool, next(chunks))

    monkeypatch.setattr(simulator._PrepPool, "refill", fixed)
    gen = np.random.default_rng(9)
    scale = pool_rows // 512
    masks = [(1 << 64) - 1] * 4 * scale + [int(v) for v in gen.integers(1, 2**63, 8 * scale)]
    f = ErrorFrame(pools=[eng.pools(stream(0, 0))])
    at = unverified = 0
    crossed = inside = False
    for mask in masks:
        lanes = simulator._lanes(mask)
        folds = dict(f.pools[0]["prep"].hand_out(lanes))
        for i, lane in enumerate(lanes):
            start = at
            for _ in range(limit):
                at += 1
                if not fails[at - 1]:
                    break
            else:
                unverified += 1
                crossed |= start < pool_rows <= at - 1
                inside |= at <= pool_rows
            assert folds.get(i, 0) == want[at - 1], (mask, lane)
    assert crossed and inside and at > pool_rows
    assert f.unverified == unverified


@pytest.mark.parametrize("name", ["hamming", "golay", "bch31"])
def test_preparation_draws_every_hole(name, monkeypatch):
    # one preparation attempt charges memory noise on all N_h holes,
    # including those of gate-free G and V steps; the engine's tables never
    # decode, so it builds no decoder
    monkeypatch.setattr(codes, "decoder_for", lambda code: None)
    eng = engine(name, gamma=1e-3, eps=1e-3)
    assert eng._prep.slots[~eng._prep.distinct].sum() == eng.params.N_h


def _forward_images(table) -> np.ndarray:
    """Images of every fault of a phase by forward propagation.

    Each (location, Pauli) of the table gets its own lane of one wide frame,
    is injected at its own point of the phase and pushed forward through
    the rest of it with ``propagate``.  One extra lane starts with
    an X and a Z on every phase qubit, to follow an incoming error."""
    rows = table.tags.shape[0]
    lanes = (1 << (rows + 1)) - 1
    top = max(table.qubits) + 1
    frame = PlaneFrame(n=top)
    for q in table.qubits:
        frame.x[q] = frame.z[q] = 1 << rows
    at = {}
    for step, slot, qubits, paulis, row in table.sites:
        at.setdefault((step, slot), []).append((qubits, paulis, row))

    def inject(key):
        for qubits, paulis, row in at.pop(key, ()):
            for p, ps in enumerate(paulis):
                for q, pauli in zip(qubits, ps):
                    if pauli in (Pauli.X, Pauli.Y):
                        frame.x[q] ^= 1 << (row + p)
                    if pauli in (Pauli.Z, Pauli.Y):
                        frame.z[q] ^= 1 << (row + p)

    inject((-1, 0))
    for s, (gates, _, _) in enumerate(table.program):
        for g, ev in enumerate(gates):
            if ev.kind in (network.PREP_ZERO, network.PREP_PLUS):
                q = ev.qubits[0]
                frame.x[q] = frame.z[q] = 0
                inject((s, g))
            else:
                inject((s, g))
                propagate(ev, frame, lanes)
        inject((s, len(gates)))
    assert not at, "a site outside the program"
    planes = [frame.x[q] for q in table.qubits] + [frame.z[q] for q in table.qubits]
    nbytes = (rows + 8) // 8
    bits = np.unpackbits(np.frombuffer(b"".join(v.to_bytes(nbytes, "little")
                                                for v in planes), dtype=np.uint8)
                         .reshape(len(planes), nbytes), axis=1, bitorder="little")
    return bits[:, :rows + 1].T


@pytest.mark.parametrize("name", codes.code_names())
def test_fault_table_matches_forward_propagation(name, monkeypatch):
    # the engine's phases swept from identity ends, whose rows are images;
    # an engine's tables never decode, so codes without a decoder run too
    monkeypatch.setattr(codes, "decoder_for", lambda code: None)
    images = image_tables(engine(name, gamma=1e-3, eps=1e-4, t_m=5))
    for label, table in (("G+V", images["prep"]), ("X", images["X"]), ("Z", images["Z"])):
        rows = table.tags.shape[0]
        starts = sorted(row + p for _, _, _, paulis, row in table.sites
                        for p in range(len(paulis)))
        assert starts == list(range(rows)), label
        m = len(table.qubits)
        compiled = np.unpackbits(table.tags.view(np.uint8), axis=1,
                                 bitorder="little")[:, :2 * m]
        forward = _forward_images(table)
        assert np.array_equal(compiled, forward[:rows]), label
        if label == "G+V":
            # every ancilla and verification qubit is prepared inside G+V
            assert not forward[rows].any()
        # every gate of the program is one location of its table
        assert sum(len(g) for g, _, _ in table.program) == sum(
            1 for step, slot, *_ in table.sites
            if step >= 0 and slot < len(table.program[step][0])), label


@pytest.mark.parametrize("name", codes.code_names())
def test_readout_map_matches_propagation(name, monkeypatch):
    # a folded extraction against gate-by-gate propagation of bit planes:
    # random data errors plus each lane's G+V sample, pushed through the
    # readout's noiseless schedule.  On the masked lanes the extraction
    # must read the reference's syndromes, and afterwards the frame must
    # hold H times the reference's data planes on every lane.  The G+V
    # samples are noisy draws with their verification X bits cleared: the
    # reference takes their images, and the pool their tags, drawn on the
    # same stream from a noisy engine's table, so each lane keeps the next
    # one; the readout is fault-free.  An extraction never decodes, so
    # codes without a decoder run too.
    monkeypatch.setattr(codes, "decoder_for", lambda code: None)
    eng = engine(name)
    noisy_eng = engine(name, gamma=0.02, eps=0.02)
    noisy, image = noisy_eng._prep, image_tables(noisy_eng)["prep"]
    n, m, checks = eng.n, len(noisy.qubits), eng.code.H
    ancilla_only = ~simulator._word_mask(range(n, m), 2 * m)
    gen = np.random.default_rng(n)
    for error_type in ("Z", "X"):
        for mask in ((1 << 64) - 1, int(gen.integers(1, 2**63))):
            ref = PlaneFrame(n=2 * n)
            ref.x[:n] = [int(v) for v in gen.integers(0, 2**64, n, dtype=np.uint64)]
            ref.z[:n] = [int(v) for v in gen.integers(0, 2**64, n, dtype=np.uint64)]
            frame = ErrorFrame(pools=[eng.pools(stream(n, 0))],
                               sx=plane_syndromes(ref.x[:n], checks),
                               sz=plane_syndromes(ref.z[:n], checks))
            lanes = simulator._lanes(mask)
            images = draw(image, stream(n, 1), len(lanes)) & ancilla_only
            tags = np.zeros((simulator.POOL_ROWS, noisy.tags.shape[1]), "<u8")
            tags[:len(lanes)] = draw(noisy, stream(n, 1), len(lanes)) & ~eng._verify_word
            frame.pools[0]["prep"].refill(tags)
            bits = np.unpackbits(images.view(np.uint8), axis=1, bitorder="little")
            assert bits[:, :n].any() and bits[:, m:m + n].any()
            for lane, row in zip(lanes, bits):
                for j in np.flatnonzero(row[:n]):
                    ref.x[n + j] |= 1 << lane
                for j in np.flatnonzero(row[m:m + n]):
                    ref.z[n + j] |= 1 << lane
            got = eng.couple_and_measure(frame, mask, error_type)
            for gates, _, _ in eng._readout[error_type].program:
                for ev in gates:
                    propagate(ev, ref, mask)
            assert got == plane_syndromes(ref.x[n:2 * n], checks, mask), error_type
            assert frame.sx == plane_syndromes(ref.x[:n], checks), error_type
            assert frame.sz == plane_syndromes(ref.z[:n], checks), error_type


def test_unverified_tally_independent_of_workers():
    cfg = SimConfig("hamming", NoiseParams(0.3, 0.3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    max_trials=128, chunk_batches=2)
    s1 = estimate_pbar_mc(cfg, seed=4, workers=1)
    s2 = estimate_pbar_mc(cfg, seed=4, workers=2)
    assert s1.unverified == s2.unverified > 0
    assert np.array_equal(s1.n_f, s2.n_f) and np.array_equal(s1.n_s, s2.n_s)


def test_engine_cache_bounded(monkeypatch):
    monkeypatch.setattr(simulator, "_engine_cache", OrderedDict())
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    configs = [SimConfig("hamming", NoiseParams(1e-4 * (i + 1), 0.0, 1), pp)
               for i in range(simulator._ENGINE_CACHE_SIZE + 3)]
    first = simulator._engine_for(configs[0])
    built = [first]
    for cfg in configs[1:]:
        assert simulator._engine_for(configs[0]) is first   # reused while recent
        built.append(simulator._engine_for(cfg))
        assert len(simulator._engine_cache) <= simulator._ENGINE_CACHE_SIZE
    assert len(simulator._engine_cache) == simulator._ENGINE_CACHE_SIZE
    assert simulator._engine_for(configs[-1]) is built[-1]
    # the least recently used engine was dropped, so it is built again
    assert simulator._engine_for(configs[1]) is not built[1]


# rows each table checks on the large codes, a fixed sample
DENSE_SAMPLE = 2048


@pytest.mark.parametrize("name", codes.code_names())
def test_tables_hold_dense_tags(name, monkeypatch):
    # every row of each engine table is the tag of its fault's image: the
    # phase swept from identity ends has the same sites and rates, and the
    # dense tag map takes each of its rows, and each of its noiseless
    # map's images, to the engine's.  A table longer than DENSE_SAMPLE
    # rows checks a fixed sample of them, its last row among them, so
    # the dense products stay quick
    monkeypatch.setattr(codes, "decoder_for", lambda code: None)
    eng = engine(name, gamma=1e-3, eps=1e-4, t_m=5)
    images = image_tables(eng)
    matrices = tag_matrices(eng, images)
    gen = np.random.default_rng(eng.n)
    for phase, table in engine_tables(eng).items():
        image, matrix = images[phase], matrices[phase]
        assert table.sites == image.sites and table.rates == image.rates, phase
        rows = np.arange(len(table.tags))
        if len(rows) > DENSE_SAMPLE:
            rows = np.append(np.sort(gen.choice(len(rows) - 1, DENSE_SAMPLE - 1,
                                                replace=False)), len(rows) - 1)
        assert np.array_equal(dense_products(image.tags[rows], matrix), table.tags[rows]), phase
        assert np.array_equal(dense_products(pack(image.transfer, image.tags.shape[1]), matrix),
                              pack(table.transfer, table.tags.shape[1])), phase


def _sequential_schedule(ok: list[bool], failed: int, limit: int) -> tuple[list[int], int]:
    """Kept samples of one refill by a per-sample loop: a sample is kept when
    it verifies or ends a run of ``limit`` failures, the run starting with
    the ``failed`` failures carried in.  Returns the kept indices and the
    run carried out."""
    kept = []
    for i, good in enumerate(ok):
        failed = 0 if good else failed + 1
        if good or failed == limit:
            kept.append(i)
            failed = 0
    return kept, failed


@pytest.mark.parametrize("name", codes.code_names())
def test_pool_tags_match_drawn_images(name, monkeypatch):
    # each pool's refills against one draw of its faults, which gives each
    # sample both its image (the XOR of the faults' rows of the phase
    # swept from identity ends) and its tag (the XOR of their rows of the
    # engine's table): the first refill against the pool's share of the
    # joined draw on the batch stream, the later ones against draws on
    # the pool's child of the batch stream, as ``spawn`` numbers them.  The
    # hits are the samples whose image is not 0 less those whose tag is 0.
    # The G+V pool keeps the samples a per-sample retry loop keeps, with
    # their folds, whether or not each image's verification X bits are 0
    monkeypatch.setattr(codes, "decoder_for", lambda code: None)
    eng = engine(name, gamma=1e-3, eps=1e-3)
    n, rows, w = eng.n, eng.rows, eng.syndrome_bits
    seen = dict.fromkeys(["hit", "dropped", "forced", "fold"], 0)
    images_of = {phase: table.tags for phase, table in image_tables(eng).items()}
    low = (1 << 6 * w) - 1

    @settings(derandomize=True, database=None, max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), faults=st.sampled_from([0.02, 0.5, 3.0]),
           refills=st.integers(1, 3))
    def check(seed, faults, refills):
        for limit in (1, 3, simulator.MAX_ATTEMPTS):
            monkeypatch.setattr(simulator, "MAX_ATTEMPTS", limit)
            check_pools(seed, faults, refills, limit)

    def check_pools(seed, faults, refills, limit):
        tables = {}
        for phase, table in engine_tables(eng).items():
            # rates scaled to a mean of ``faults`` faults per sample
            scale = faults / float(np.dot(table.slots, table.rates) or 1.0)
            tables[phase] = dataclasses.replace(
                table, rates=[min(1.0, r * scale) for r in table.rates])
        monkeypatch.setattr(eng, "_joined", simulator._join(list(tables.values())))
        pools = eng.pools(stream(seed, 0))
        first = joined_faults(tables, stream(seed, 0))
        for (phase, pool), rng in zip(pools.items(), stream(seed, 0).spawn(5)):
            table = tables[phase]
            failed = 0
            for refill in range(refills):
                if refill:
                    pool.refill(pool.draw())
                    sample, row = simulator._faults(table, rng, simulator.POOL_ROWS)
                else:
                    sample, row = first[phase]
                images = np.ascontiguousarray(
                    _xor_rows(simulator.POOL_ROWS, sample, images_of[phase][row]))
                tags = _values(_xor_rows(simulator.POOL_ROWS, sample, table.tags[row]))
                if phase != "prep":
                    drawn = np.flatnonzero(images.any(axis=1)).tolist()
                    assert pool.keys == [i for i in drawn if tags[i]]
                    assert pool.values == [tags[i] for i in drawn if tags[i]]
                    seen["hit"] += len(pool.keys)
                    seen["dropped"] += len(drawn) - len(pool.keys)
                    continue
                bits = np.unpackbits(images.view(np.uint8), axis=1, bitorder="little")
                ok = (~bits[:, n:n + rows].any(axis=1)).tolist()
                kept, failed = _sequential_schedule(ok, failed, limit)
                assert pool.size == len(kept) and pool.failed == failed
                assert pool.forced == [k for k, i in enumerate(kept) if not ok[i]]
                folds = {k: tags[i] & low for k, i in enumerate(kept) if tags[i] & low}
                assert dict(zip(pool.keys, pool.values)) == folds
                assert pool.keys == sorted(folds)
                seen["forced"] += len(pool.forced)
                seen["fold"] += len(folds)

    check()
    # the draws reached every case: tagged and dropped samples, unverified
    # samples kept, and folds
    assert all(seen.values()), seen


@pytest.mark.parametrize("name", codes.code_names())
def test_joined_draw_splits_by_pool(name, monkeypatch):
    # a batch's pools fill from one draw over the five tables joined.
    # Split by the tag rows each phase owns, that draw's faults give each
    # pool what a fresh pool of its own table makes of exactly its own
    # faults: keys, values and size, and for G+V forced and failed too,
    # at the default attempt limit and at 2, where runs of failures keep
    # unverified samples
    monkeypatch.setattr(codes, "decoder_for", lambda code: None)
    eng = engine(name, gamma=3e-3, eps=3e-3)
    tables = engine_tables(eng)
    seen = {"hit": 0, "forced": 0}
    for limit in (simulator.MAX_ATTEMPTS, 2):
        monkeypatch.setattr(simulator, "MAX_ATTEMPTS", limit)
        pools = eng.pools(stream(eng.n, 3))
        faults = joined_faults(tables, stream(eng.n, 3))
        for phase, pool in pools.items():
            sample, row = faults[phase]
            tags = _xor_rows(simulator.POOL_ROWS, sample, tables[phase].tags[row])
            if phase == "prep":
                alone = simulator._PrepPool(pool.table, None, 0, eng._verify_word,
                                            6 * eng.syndrome_bits)
            else:
                alone = simulator._Pool(pool.table, None, 0)
            alone.refill(tags)
            assert (pool.keys, pool.values, pool.size) == (alone.keys, alone.values,
                                                           alone.size), phase
            seen["hit"] += len(pool.keys)
            if phase == "prep":
                assert (pool.forced, pool.failed) == (alone.forced, alone.failed)
                seen["forced"] += len(pool.forced)
    assert all(seen.values()), seen


def test_quiet_batch_builds_no_child_stream(monkeypatch):
    # at gamma = 1e-4 the batch stream's one draw covers what a golay batch
    # takes from each pool, so the batch makes no other generator; at
    # 3e-3 the G+V pool refills, from the generator that ``spawn`` gives
    # as child 0 of the batch stream, made only then
    built = []

    class Counted(np.random.PCG64):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    pp = ProtocolParams(4, 3, 3, parallel_corrections=1.0)
    quiet = engine("golay", gamma=1e-4, eps=1e-6, t_m=25, pp=pp)
    noisy = engine("golay", gamma=3e-3, eps=3e-5, t_m=25, pp=pp)
    rngs = [stream(101, 0), stream(101, 1)]
    monkeypatch.setattr(np.random, "PCG64", Counted)
    assert run_batch(quiet, rngs[:1]).trials == 64
    assert built == [] and rngs[0].bit_generator.seed_seq.n_children_spawned == 0
    frame = ErrorFrame(pools=[noisy.pools(rngs[1])])
    assert built == []
    noisy.couple_and_measure(frame, (1 << 64) - 1, "X")
    prep = frame.pools[0]["prep"]
    assert built == [] and prep.rng is None
    prep.hand_out(range(prep.size - prep.at + 1))
    assert len(built) == 1 and rngs[1].bit_generator.seed_seq.n_children_spawned == 0
    monkeypatch.undo()
    for k in range(5):
        assert (simulator._child(stream(101, 1).bit_generator.seed_seq, k).bit_generator.state
                == stream(101, 1).spawn(5)[k].bit_generator.state)
    # the pool's generator has made one draw on child 0's stream
    child = stream(101, 1).spawn(5)[0]
    simulator._draw_tags(prep.table, child)
    assert prep.rng.bit_generator.state["state"] == child.bit_generator.state["state"]


@pytest.mark.parametrize("name", ["hamming", "golay"])
def test_one_pass_rounds_match_round_by_round(name, monkeypatch):
    # a recovery's later rounds in one hand-out per batch against the
    # round-by-round reference, over frames of 1-3 batches with random
    # masks, data syndromes and pending lanes.  ProtocolParams refuses
    # r'' > r, but the schedule handles it, so a bare namespace drives it.
    # Every recovery must leave the same syndromes, pending lists,
    # unverified tally, pool cursors and streams, and return the same masks
    eng = engine(name, gamma=0.02, eps=0.02)
    w = eng.syndrome_bits

    def state(frame):
        cursors = [(p.at, p.lo, p.size, p.failed) if k == "prep" else (p.at, p.lo)
                   for pools in frame.pools for k, p in pools.items()]
        # a pool makes its own stream at its second refill
        streams = [p.rng and p.rng.bit_generator.state
                   for pools in frame.pools for p in pools.values()]
        return frame.sx, frame.sz, frame.unverified, cursors, streams

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(data=st.data(), batches=st.integers(1, 3),
           schedule=st.sampled_from([(1, 1, 1), (3, 2, 2), (4, 3, 2), (2, 1, 3), (2, 2, 4)]))
    def check(data, batches, schedule):
        r, rp, rpp = schedule
        eng.protocol = types.SimpleNamespace(r=r, r_prime=rp, r_dprime=rpp)
        lanes = 64 * batches
        seed = data.draw(st.integers(0, 2**32 - 1), "seed")
        syndrome = st.integers(0, (1 << w) - 1) | st.just(0)
        sx = data.draw(st.lists(syndrome, min_size=lanes, max_size=lanes), "sx")
        sz = data.draw(st.lists(syndrome, min_size=lanes, max_size=lanes), "sz")
        pending = data.draw(st.dictionaries(
            st.integers(0, lanes - 1),
            st.lists(st.integers(0, (1 << w) - 1), min_size=1, max_size=r + rpp)), "pending")
        masks = data.draw(st.lists(st.integers(0, (1 << lanes) - 1), min_size=1, max_size=3),
                          "masks")
        frames, pendings = [], []
        for _ in range(2):
            frames.append(ErrorFrame(pools=[eng.pools(stream(seed, b)) for b in range(batches)],
                                     sx=list(sx), sz=list(sz)))
            pendings.append({lane: list(s) for lane, s in pending.items()})
        for i, mask in enumerate(masks):
            error_type = "ZX"[i % 2]
            got = recover_block(frames[0], pendings[0], eng, error_type, mask)
            with monkeypatch.context() as patch:
                patch.setattr(eng, "extract_rounds", functools.partial(extract_by_rounds, eng))
                want = recover_block(frames[1], pendings[1], eng, error_type, mask)
            assert got == want
            assert pendings[0] == pendings[1]
            assert state(frames[0]) == state(frames[1])

    try:
        check()
    finally:
        eng.protocol = ProtocolParams(2, 2, 2, parallel_corrections=1.0)


def _hand_out_as_written(pool, lanes) -> list[tuple[int, int]]:
    """``_Pool.hand_out`` as first written: one loop over the refills the
    window reaches, each bisecting ``keys`` from scratch, with no cursor."""
    out, done, count = [], 0, len(lanes)
    while done < count:
        if pool.at == pool.size:
            pool.refill(pool.draw())
        keys = pool.keys
        stop = min(pool.size, pool.at + count - done)
        lo = bisect_left(keys, pool.at)
        hi = bisect_left(keys, stop, lo)
        shift = done - pool.at
        out += [(k + shift, v) for k, v in zip(keys[lo:hi], pool.values[lo:hi])]
        done += stop - pool.at
        pool.at = stop
    return out


def test_hand_out_cursor_matches_bisecting_loop():
    # two copies of a batch's pools, one handing out with the cursor and
    # one with the loop as first written, driven through one random
    # sequence of lane counts (None: to the end of the current refill):
    # windows inside a refill, with and without keys, ending exactly at
    # its end, and crossing one or more refills.  Every pool kind must
    # return the same and keep the same samples and G+V tallies, and after
    # every call the cursor is the first key at or after ``at``
    engines = [engine("golay", gamma=g, eps=g) for g in (1e-4, 3e-3, 3e-2)]
    engines.append(engine("hamming", gamma=1e-2, eps=1e-2))
    seen = dict.fromkeys(["empty", "inside", "to the end", "across one", "across more"], 0)

    def state(pool):
        out = (pool.at, pool.size, pool.keys, pool.values)
        if isinstance(pool, simulator._PrepPool):
            out += (pool.failed, pool.forced, pool.unverified)
        return out

    def counted(pool, draws):
        draw = pool.draw

        def counting():
            draws.append(pool)
            return draw()
        pool.draw = counting

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(eng=st.sampled_from(engines), seed=st.integers(0, 2**32 - 1),
           counts=st.lists(st.integers(0, 300) | st.none(), min_size=1, max_size=40))
    def check(eng, seed, counts):
        new, old = eng.pools(stream(seed, 0)), eng.pools(stream(seed, 0))
        draws = []
        for pool in new.values():
            counted(pool, draws)
        for count in counts:
            for kind, pool in new.items():
                left = pool.size - pool.at
                lanes = range(left if count is None else count)
                del draws[:]
                got = pool.hand_out(lanes)
                assert got == _hand_out_as_written(old[kind], lanes), kind
                assert state(pool) == state(old[kind]), kind
                assert pool.lo == bisect_left(pool.keys, pool.at), kind
                if draws:
                    seen["across one" if len(draws) == 1 else "across more"] += 1
                elif len(lanes) == left and left:
                    seen["to the end"] += 1
                else:
                    seen["inside" if got else "empty"] += 1

    check()
    assert all(seen.values()), seen
    # a zero-lane hand-out on a fresh pool changes nothing
    eng = engines[1]
    for pools in (eng.pools(stream(3, 0)),
                  {"bare": simulator._Pool(eng._logical_gate, None, 4)}):
        for kind, pool in pools.items():
            before = state(pool)
            assert pool.hand_out([]) == [] and state(pool) == before and pool.lo == 0, kind


# -- recovery ------------------------------------------------------------------

def test_judge_acceptance_rule():
    assert judge_syndromes([5, 5], 2) == 5
    assert judge_syndromes([5, 6], 2) is None
    assert judge_syndromes([5, 5, 6, 6], 2) == 6      # most recent pair wins
    assert judge_syndromes([6, 5, 6, 5], 2) == 5
    assert judge_syndromes([7], 1) == 7


def _judge_as_stated(pool: list[int], r_prime: int):
    """Among the values seen at least r' times, the one whose r'-th most
    recent occurrence is latest."""
    best, best_at = None, -1
    for value in set(pool):
        at = [i for i, s in enumerate(pool) if s == value]
        if len(at) >= r_prime and at[-r_prime] > best_at:
            best, best_at = value, at[-r_prime]
    return best


def test_judge_matches_stated_rule():
    gen = np.random.default_rng(31)
    for _ in range(20_000):
        r_prime = int(gen.integers(1, 7))
        pool = gen.integers(0, gen.integers(1, 5), gen.integers(0, 13)).tolist()
        assert judge_syndromes(pool, r_prime) == _judge_as_stated(pool, r_prime), (pool, r_prime)


def test_judge_acceptance_frequency():
    # r=3, r'=2, wrong-syndrome probability 0.1 with distinct wrong values:
    # acceptance happens when at least 2 of 3 are right
    rng = np.random.default_rng(123)
    n = 100_000
    accepted = 0
    junk = iter(range(10, 10 + 3 * n))
    for _ in range(n):
        pool = [1 if rng.random() >= 0.1 else next(junk) for _ in range(3)]
        if judge_syndromes(pool, 2) is not None:
            accepted += 1
    expected = 3 * 0.81 * 0.1 + 0.729
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(accepted / n - expected) < 4 * sigma


def test_zero_noise_recovery_is_identity():
    eng = engine()
    f = ErrorFrame(pools=[eng.pools(stream(1, 0))])
    pending = {}
    for _ in range(3):
        eng.add_noise(f, 1, "rest")
        corrected, crashed = recover_block(f, pending, eng, "X", 1)
        assert corrected == 0 and crashed == 0
    assert not any(f.sx) and not any(f.sz)
    assert 0 not in pending


@pytest.mark.parametrize("plane,qubit", [("x", 0), ("x", 4), ("z", 2), ("z", 6)])
def test_planted_single_error_corrected(plane, qubit):
    eng = engine(pp=ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    f = ErrorFrame(pools=[eng.pools(stream(2, qubit))])
    plant(f, eng.code.H, plane, qubit)
    error_type = "X" if plane == "x" else "Z"
    eng.add_noise(f, 1, "rest")
    corrected, crashed = recover_block(f, {}, eng, error_type, 1)
    assert corrected == 1 and crashed == 0
    assert not any(f.sx) and not any(f.sz)


def test_planted_y_error_corrected_in_one_round():
    eng = engine("golay", pp=ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    f = ErrorFrame(pools=[eng.pools(stream(3, 0))])
    plant(f, eng.code.H, "x", 9)
    plant(f, eng.code.H, "z", 9)
    eng.add_noise(f, 1, "rest")
    recover_block(f, {}, eng, "Z", 1)
    recover_block(f, {}, eng, "X", 1)
    assert not any(f.sx) and not any(f.sz)


def test_deferred_rounds_follow_the_repetition_rule(monkeypatch):
    # (r, r', r'') = (4, 3, 2): a settled lane takes 4 syndromes, a pending
    # one 2, and the last 6 syndromes of two recoveries are judged
    eng = engine("golay", pp=ProtocolParams(4, 3, 2, parallel_corrections=1.0))
    col = {q: column(eng.code.H, q) for q in (5, 11, 17)}
    a, b, c, d = 1, 2, col[5], 4
    f = ErrorFrame(pools=[eng.pools(stream(5, 0))])
    for lane, q in ((0, 5), (1, 11), (2, 17)):
        plant(f, eng.code.H, "x", q, lane)
    script = {0: [a, b, a, b, c, d, a, c, c, 7],
              1: [0, 0, 0, col[11], 9, col[11], col[11]],
              2: [col[17], col[17], col[17], a, 0, 0, 0],
              3: [a, b, c, d, 0, a, b, a, b, 0]}
    calls = []

    def scripted(lanes):
        # the readout pool's hand-out: each sample's tag flips the lane's
        # syndrome from its data syndrome to the script's next value
        calls.append(list(lanes))
        return [(i, script[lane].pop(0) ^ f.sx[lane]) for i, lane in enumerate(lanes)]

    def rounds_of(lanes):
        # a recovery's later rounds share one hand-out, their lane lists
        # joined in round order: each list increases and holds only lanes
        # of the one before, so a round starts where the lanes stop rising
        out = [[lanes[0]]]
        for lane in lanes[1:]:
            if lane > out[-1][-1]:
                out[-1].append(lane)
            else:
                out.append([lane])
        return out

    monkeypatch.setattr(f.pools[0]["X"], "hand_out", scripted)
    pending = {}
    rounds = [
        # (extractions, pending after, corrected)
        ([[0, 1, 2, 3], [0, 2, 3], [0, 2, 3], [0, 2, 3]],
         {0: [a, b, a, b], 3: [a, b, c, d]}, 1 << 2),
        # lane 3's zero first syndrome settles it
        ([[0, 1, 2, 3], [0]], {0: [a, b, a, b, c, d]}, 0),
        # a (three times in all) has left the last six: no agreement
        ([[0, 1, 2, 3], [0, 3], [3], [3]], {0: [a, b, c, d, a, c], 3: [a, b, a, b]}, 0),
        ([[0, 1, 2, 3], [0, 1], [1], [1]], {}, 0b11),
    ]
    for extractions, after, corrected in rounds:
        calls.clear()
        assert recover_block(f, pending, eng, "X", 0b1111) == (corrected, 0)
        assert len(calls) == 2 and [calls[0]] + rounds_of(calls[1]) == extractions
        assert pending == after
    assert not any(script.values())
    assert not any(f.sx) and not any(f.sz)


# -- trials ---------------------------------------------------------------------

def test_zero_noise_trial_survives():
    eng = engine()
    stats = run_batch(eng, [stream(4, 0)], mask=1)
    assert stats.n_f.sum() == 0 and stats.n_s[10] == 1


def test_zero_noise_batch_all_survive():
    eng = engine("golay", pp=ProtocolParams(4, 3, 3, parallel_corrections=1.0))
    stats = run_batch(eng, [stream(5, 0)])
    assert stats.n_f.sum() == 0
    assert stats.n_s[10] == 64


def test_maximal_noise_crashes_fast():
    # a fully scrambled frame still lands in a correctable coset sometimes,
    # so demand near-certain crash within three steps rather than one
    eng = engine(gamma=1.0, eps=1.0)
    stats = simulator.TrialStats.empty()
    for b in range(8):
        stats.merge(run_batch(eng, [stream(6, b)]))
    assert stats.p(1) > 0.6
    assert stats.n_s[3] / stats.trials < 0.03
    assert stats.n_s[10] == 0


def test_pbar_within_factor_three_of_model():
    noise = NoiseParams(1e-2, 1e-4, 1)
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    cfg = SimConfig("hamming", noise, pp, target_failures=100)
    stats = estimate_pbar_mc(cfg, seed=42)
    est = analytic.crash_estimate(codes.params_from_catalog("hamming"), noise, pp)
    assert est.pbar / 3 <= stats.pbar <= est.pbar * 3


def test_degenerate_stats_flagged():
    eng = engine(gamma=1.0, eps=1.0)
    cfg = SimConfig("hamming", NoiseParams(1.0, 1.0, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=100, max_trials=8192)
    stats = estimate_pbar_mc(cfg, seed=7)
    assert stats.censored
    assert stats.p(1) > 0.5
    assert math.isnan(stats.pbar)


def test_run_stops_when_step_q_max_is_out_of_reach():
    # hamming at gamma = eps = 3e-3, t_m = 25 crashes about half its lanes
    # per step: its first 8,192 trials leave a few lanes at step Q_MAX, but
    # 100 crashes there take about 5e4 trials, beyond a cap of 16,384, so
    # the run stops at 8,192 trials, censored
    cfg = SimConfig("hamming", NoiseParams(3e-3, 3e-3, 25),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=100, max_trials=16384)
    stats = estimate_pbar_mc(cfg, seed=20260808)
    assert stats.censored and stats.trials == 8192
    assert stats.n_f[simulator.Q_MAX] + stats.n_s[simulator.Q_MAX] > 0


def test_stationarity_and_stderr():
    cfg = SimConfig("hamming", NoiseParams(3e-3, 3e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=150)
    stats = estimate_pbar_mc(cfg, seed=11)
    assert all(stats.n_f[q] >= 100 for q in range(7, 11))
    ratio = stats.p(10) / stats.p(7)
    assert 0.7 <= ratio <= 1.3
    # roughly 5% statistical error at O(100) failures per bin
    assert 0.01 <= stats.stderr / stats.pbar <= 0.10


def test_transient_dies_away():
    # the hazard climbs from below toward its plateau and is flat by Q >= 6
    cfg = SimConfig("hamming", NoiseParams(3e-3, 3e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=400)
    stats = estimate_pbar_mc(cfg, seed=13)
    pbar = stats.pbar
    assert stats.p(1) < pbar
    for q in range(6, 11):
        p = stats.p(q)
        tot = stats.n_f[q] + stats.n_s[q]
        sigma = math.sqrt(p * (1 - p) / tot)
        assert abs(p - pbar) <= 4 * sigma + 0.1 * pbar


def test_mc_slope_coarse():
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    pbars = []
    for gamma in (3e-3, 1e-2):
        cfg = SimConfig("hamming", NoiseParams(gamma, gamma / 100, 1),
                        pp, target_failures=100)
        pbars.append(estimate_pbar_mc(cfg, seed=17).pbar)
    slope = math.log(pbars[1] / pbars[0]) / math.log(10 / 3)
    assert 1.0 <= slope <= 3.0


def _counts(stats) -> tuple:
    return stats.n_f.tolist(), stats.n_s.tolist(), stats.trials, stats.unverified


def test_frame_split_invariance():
    # a batch draws from its own pools in lane order, so it gives the same
    # counts whichever batches share its frame
    eng = engine(gamma=1e-2, eps=1e-2, pp=ProtocolParams(3, 2, 2, parallel_corrections=1.0))
    whole = run_batch(eng, [stream(9, b) for b in range(3)])
    parts = simulator.TrialStats.empty()
    for b in range(3):
        parts.merge(run_batch(eng, [stream(9, b)]))
    assert _counts(whole) == _counts(parts)
    assert whole.trials == 192 and whole.n_f.sum() > 0
    # chunks of three batches: one frame per chunk at one worker, one frame
    # per batch at two or three; the last batch runs 38 of its lanes
    cfg = SimConfig("hamming", NoiseParams(1e-2, 1e-2, 1),
                    ProtocolParams(3, 2, 2, parallel_corrections=1.0),
                    target_failures=10**6, max_trials=550, chunk_batches=3)
    runs = [_counts(estimate_pbar_mc(cfg, seed=9, workers=w)) for w in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][2] == 550


def test_trial_cap_is_exact():
    # the batch that holds trial max_trials runs only the lanes up to it
    pp = ProtocolParams(2, 2, 2, parallel_corrections=1.0)
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1), pp,
                    target_failures=10**6, max_trials=100)
    stats = estimate_pbar_mc(cfg, seed=3)
    assert stats.trials == 100 and stats.censored
    assert stats.n_f[1] + stats.n_s[1] == 100
    split = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1), pp,
                      target_failures=10**6, max_trials=100, chunk_batches=2)
    one, two = (_counts(estimate_pbar_mc(split, seed=3, workers=w)) for w in (1, 2))
    assert one == two and one[2] == 100


# Counts of short runs, pinned as literals.  They also record the fault
# pools' size (``POOL_ROWS``) and the stream layout: a change that only
# makes the MC faster keeps them byte for byte, and a layout change
# re-records them once, with the evidence that the law is unchanged in
# CHANGES.md.  Each entry is (code, (gamma, eps, t_m), (r, r', r''),
# max_trials, chunk_batches, seed) and the resulting (n_f, n_s, trials,
# unverified).  The golay entries are the
# benchmark's mc-noisy and mc-quiet calls; the hamming 2112-trial entry runs
# 33 batches in two frames; the last one runs out of preparation attempts.
PINNED_COUNTS = [
    (("golay", (3e-3, 3e-5, 25), (4, 3, 3), 128, 2, 101),
     ([0, 1, 1, 0, 0, 5, 2, 1, 2, 2, 1],
      [0, 127, 126, 126, 126, 121, 119, 118, 116, 114, 113], 128, 0)),
    (("golay", (1e-4, 1e-6, 25), (4, 3, 3), 128, 2, 101),
     ([0] * 11, [0] + [128] * 10, 128, 0)),
    (("hamming", (1e-2, 1e-4, 1), (2, 2, 2), 2112, 33, 101),
     ([0, 50, 88, 75, 85, 73, 69, 72, 62, 74, 48],
      [0, 2062, 1974, 1899, 1814, 1741, 1672, 1600, 1538, 1464, 1416], 2112, 0)),
    (("bch31", (2e-3, 2e-5, 1), (3, 2, 2), 128, 2, 101),
     ([0, 0, 2, 0, 1, 0, 1, 1, 1, 0, 1],
      [0, 128, 126, 126, 125, 125, 124, 123, 122, 122, 121], 128, 0)),
    (("hamming", (0.3, 0.3, 1), (2, 2, 2), 128, 2, 4),
     ([0, 95, 29, 4, 0, 0, 0, 0, 0, 0, 0], [0, 33, 4, 0, 0, 0, 0, 0, 0, 0, 0], 128, 11)),
]


@pytest.mark.parametrize("config,counts", PINNED_COUNTS,
                         ids=[f"{c[0]}-{c[1][0]:g}" for c, _ in PINNED_COUNTS])
def test_mc_counts_pinned(config, counts):
    code, noise, (r, rp, rpp), trials, chunk, seed = config
    cfg = SimConfig(code, NoiseParams(*noise),
                    ProtocolParams(r, rp, rpp, parallel_corrections=1.0),
                    target_failures=10**9, max_trials=trials, chunk_batches=chunk)
    assert _counts(estimate_pbar_mc(cfg, seed=seed)) == counts


@pytest.mark.parametrize("config,counts", PINNED_COUNTS[:2],
                         ids=[f"{c[0]}-{c[1][0]:g}" for c, _ in PINNED_COUNTS[:2]])
def test_decode_never_gets_an_empty_list(config, counts, monkeypatch):
    # a recovery that accepts no syndrome, and a step whose survivors carry
    # no data error, skip the decoder; the counts stay pinned
    calls = []
    decode = codes.CosetDecoder.decode

    def counting(self, syndromes):
        assert len(syndromes) > 0
        calls.append(len(syndromes))
        return decode(self, syndromes)

    monkeypatch.setattr(codes.CosetDecoder, "decode", counting)
    test_mc_counts_pinned(config, counts)
    assert calls


@pytest.mark.parametrize("noise,trials", [((1e-2, 1e-4, 1), 16384), ((0.3, 0.3, 1), 4096)],
                         ids=["hamming-0.01", "hamming-0.3"])
def test_pool_size_is_only_a_layout(noise, trials, monkeypatch):
    # the pools' size moves which samples a lane gets, not their law: runs
    # at 512 rows and at the default agree on the crashes over steps 7-10,
    # the crashes in total and the unverified ancillas (heavy noise runs
    # out of preparation attempts), each under a two-sample binomial test
    cfg = SimConfig("hamming", NoiseParams(*noise),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=10**9, max_trials=trials)
    assert simulator.POOL_ROWS != 512
    runs = [estimate_pbar_mc(cfg, seed=21)]
    monkeypatch.setattr(simulator, "POOL_ROWS", 512)
    runs.append(estimate_pbar_mc(cfg, seed=21))
    assert _counts(runs[0]) != _counts(runs[1])
    tallies = [(int(s.n_f[7:].sum()), int(s.n_f.sum()), s.unverified) for s in runs]
    for a, b in zip(*tallies):
        # given a + b, a is binomial(a + b, 1/2) when the laws agree
        assert a == b or abs(a - b) / math.sqrt(a + b) < 5, tallies


def test_lanes_any_width():
    gen = np.random.default_rng(3)
    for width in (8, 64, 128, 2048):
        for mask in (0, (1 << width) - 1, int.from_bytes(gen.bytes(width // 8), "little")):
            assert list(simulator._lanes(mask)) == [l for l in range(width) if mask >> l & 1]


def test_worker_count_invariance():
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=30)
    s1 = estimate_pbar_mc(cfg, seed=23, workers=1)
    s2 = estimate_pbar_mc(cfg, seed=23, workers=3)
    assert np.array_equal(s1.n_f, s2.n_f)
    assert np.array_equal(s1.n_s, s2.n_s)
    assert s1.trials == s2.trials


@pytest.mark.parametrize("workers", [0, -2])
def test_nonpositive_workers_refused(workers):
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=30, max_trials=64)
    with pytest.raises(ValueError, match="workers"):
        estimate_pbar_mc(cfg, seed=23, workers=workers)


def _inline_pool(monkeypatch) -> tuple[list, list]:
    """Replace the process pool by one that runs each range in-process, so
    no process starts; return the lists it records: the ``max_workers`` of
    each pool built and the (lo, hi) batch range of each submission."""
    sizes, ranges = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            ranges.append(args[-2:])
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

        def shutdown(self):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes, ranges


def test_process_pool_capped_at_chunk(monkeypatch):
    # a chunk submits at most chunk_batches ranges, so a larger worker count
    # must not start more processes; the pool here runs in-process
    sizes, _ = _inline_pool(monkeypatch)
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=10**6, max_trials=256, chunk_batches=2)
    many = _counts(estimate_pbar_mc(cfg, seed=5, workers=10_000))
    assert sizes == [2]
    assert many == _counts(estimate_pbar_mc(cfg, seed=5, workers=1))


_SPLIT_CONFIG = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1),
                          ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                          target_failures=10**6, max_trials=64 * 35)


@pytest.mark.parametrize("workers,sizes", [(3, [11, 11, 10]), (5, [7, 7, 6, 6, 6]),
                                           (20, [2] * 12 + [1] * 8)])
def test_chunk_split_into_near_equal_ranges(workers, sizes, monkeypatch):
    # a 32-batch chunk runs as min(workers, 32) contiguous ranges whose
    # sizes differ by at most one, and the last chunk's 3 batches as three
    # ranges of one; the counts are those of one worker
    _, ranges = _inline_pool(monkeypatch)
    counts = _counts(estimate_pbar_mc(_SPLIT_CONFIG, seed=5, workers=workers))
    bounds = np.cumsum([0] + sizes).tolist()
    assert ranges == list(zip(bounds, bounds[1:])) + [(32, 33), (33, 34), (34, 35)]
    assert counts == _counts(estimate_pbar_mc(_SPLIT_CONFIG, seed=5, workers=1))


@pytest.mark.parametrize("field,value", [("target_failures", 0), ("target_failures", -1),
                                         ("chunk_batches", 0), ("max_trials", 0)])
def test_nonpositive_stop_rule_refused(field, value, monkeypatch):
    # refused alike by one worker and by a pool, here one run in-process
    _inline_pool(monkeypatch)
    cfg = SimConfig("hamming", NoiseParams(5e-3, 5e-3, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=30, max_trials=64)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=field):
            estimate_pbar_mc(dataclasses.replace(cfg, **{field: value}), seed=23,
                             workers=workers)


def test_protocol_params_validation():
    with pytest.raises(ProtocolError):
        ProtocolParams(2, 3, 1)
    with pytest.raises(ProtocolError):
        ProtocolParams(2, 1, 3)
    with pytest.raises(ProtocolError):
        ProtocolParams(2, 1, 1, n_rep=0.0)


def test_r_max_enforced_for_provisioned_runs():
    # r = 6 at n_rep = 1 exceeds the sustainable repetition bound
    code = codes.construct_code("hamming")
    with pytest.raises(ProtocolError):
        SimEngine(code, NoiseParams(1e-3, 1e-5, 1),
                  ProtocolParams(6, 2, 2, n_rep=1.0))


@pytest.mark.parametrize("name,noise,pp", [
    ("golay", NoiseParams(1e-4, 1e-6, 25),
     ProtocolParams(4, 3, 3, parallel_corrections=1.0)),
    ("hamming", NoiseParams(3e-3, 3e-5, 1),
     ProtocolParams(2, 2, 2, n_rep=2.5)),
])
def test_engine_and_model_share_resting_time(name, noise, pp):
    eng = SimEngine(codes.construct_code(name), noise, pp)
    assert eng.t_r == analytic.crash_estimate(eng.params, noise, pp).t_r


def test_csv_rows_schema():
    cfg = SimConfig("hamming", NoiseParams(0.0, 0.0, 1),
                    ProtocolParams(2, 2, 2, parallel_corrections=1.0),
                    target_failures=1, max_trials=64)
    stats = estimate_pbar_mc(cfg, seed=1)
    rows = simulator.stats_csv_rows(cfg, stats)
    assert len(rows) == 10
    expected_keys = {"code", "gamma", "eps_over_gamma", "t_m", "n_rep", "r",
                     "r_prime", "r_dprime", "Q", "n_f", "n_s", "p_Q", "pbar",
                     "stderr", "seed", "trials"}
    assert set(rows[0]) == expected_keys


def test_bch127_43_batch_pinned():
    # one 64-trial batch on a code whose ball holds only weights <= 3 of its
    # t = 6, so decoding leans on the layer scan
    eng = SimEngine(codes.construct_code("bch127-43"),
                    NoiseParams(1e-3, 1e-5, 25),
                    ProtocolParams(4, 3, 3, parallel_corrections=1.0))
    stats = run_batch(eng, [stream(1, 0)])
    assert stats.n_f.tolist() == [0, 23, 11, 9, 10, 3, 6, 2, 0, 0, 0]
    assert stats.n_s.tolist() == [0, 41, 30, 21, 11, 8, 2, 0, 0, 0, 0]


def test_single_worker_never_imports_process_pool():
    # the process pool's import is paid only by a run with workers > 1
    script = (
        "import sys\n"
        "from ftqec import cli\n"
        "rc = cli.run(['simulate', '--code', 'hamming', '--parallel-corrections', '1',\n"
        "              '--trials', '64', '--workers', '1', '--out-dir', sys.argv[1]])\n"
        "assert rc == cli.EXIT_FLAGGED, rc\n"
        "assert 'concurrent.futures.process' not in sys.modules\n")
    src = str(Path(simulator.__file__).resolve().parents[1])
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run([sys.executable, "-c", script, out], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


def test_qr47_engine_fits_in_4gb():
    # the address-space limit applies to the child process only
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from ftqec import codes, simulator\n"
        "from ftqec.noise import NoiseParams\n"
        "from ftqec.protocol import ProtocolParams\n"
        "simulator.SimEngine(codes.construct_code('qr47'),\n"
        "                    NoiseParams(1e-3, 1e-5, 25),\n"
        "                    ProtocolParams(4, 3, 3, parallel_corrections=1.0))\n"
        # the child's own peak: a forked child's ru_maxrss also counts the
        # resident size of the process that forked it
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n")
    src = str(Path(simulator.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert int(done.stdout.split()[-1]) < 1 << 20     # peak RSS under 1 GiB, in kB
