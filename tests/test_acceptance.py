"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
slow criteria reuse module-scoped fixtures so the whole gate stays at desk
scale.
"""
import itertools
import math

import numpy as np
import pytest

from ftqec import analytic, codes, concat, gf2, network, simulator, stats, sweep
from ftqec.noise import NoiseParams
from ftqec.simulator import ProtocolParams, SimConfig, estimate_pbar_mc

from frame_helpers import plant
from result_helpers import best_kq, histogram_mode, nonzero_fraction

SEED = 20260808


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- criterion 1: worked-example intermediates --------------------------------

def test_criterion_1_worked_example():
    code = codes.params_from_catalog("bch127-43")
    noise = NoiseParams(1e-4, 1e-6, t_m=25)
    pp = ProtocolParams(5, 4, 3, n_rep=2.5)
    # r = 5, so s(5) and g(5,5) are the breakdown's s_r and g_r_r
    est = analytic.crash_estimate(code, noise, pp)
    checks = {
        "N_GV": code.N_GV == 3689,
        "N_h": code.N_h == 8893,
        "t_R": 138 <= est.t_r <= 148,
        "alpha": 0.73 <= est.alpha <= 0.75,
        "beta": 0.75 <= est.beta <= 0.85,
        "s(5)": 35000 <= est.s_r <= 41000,
        "g(5,5)": abs(est.g_r_r - 2540) <= 254,
        "P_agree(1)": 0.75 <= est.p_agree_1 <= 0.85,
        "P_ws": 2.5e-15 <= est.p_ws <= 1e-14,
        "pbar": 1e-10 <= est.pbar <= 9e-10,
    }
    bad = [k for k, ok in checks.items() if not ok]
    report("criterion 1", not bad,
           f"worked example: pbar={est.pbar:.3g}, alpha={est.alpha:.4f}, "
           f"beta={est.beta:.4f}, t_R={est.t_r:.1f}"
           + (f"; out of window: {bad}" if bad else ""))


# -- criterion 2: thresholds ---------------------------------------------------

def test_criterion_2_thresholds():
    golay = codes.params_from_catalog("golay")
    hamming = codes.params_from_catalog("hamming")
    targets = [
        (golay, 1.0, 1, 1e-3),
        (golay, 0.01, 1, 3e-3),
        (golay, 1.0, 100, 1e-4),
        (golay, 0.01, 100, 2e-3),
        (hamming, 0.01, 1, 3e-3),
    ]
    details = []
    ok = True
    for code, ratio, t_m, target in targets:
        g0 = concat.threshold(code, ratio, t_m)
        hit = target / 1.5 <= g0 <= target * 1.5
        ok &= hit
        details.append(f"{code.name}({ratio:g},{t_m})={g0:.3g} vs {target:g}"
                       + ("" if hit else " MISS"))
    for t_m in (25, 100):
        gg = concat.threshold(golay, 1.0, t_m, rel_width=0.05)
        gh = concat.threshold(hamming, 1.0, t_m, rel_width=0.05)
        hit = gg > gh
        ok &= hit
        details.append(f"order(tm={t_m}): {gg:.3g} > {gh:.3g}"
                       + ("" if hit else " MISS"))
    report("criterion 2", ok, "; ".join(details))


# -- criterion 3: Monte Carlo against the model --------------------------------

def test_criterion_3_monte_carlo_vs_model():
    grid = []
    for gamma in (3e-3, 1e-2):
        for ratio in (1.0, 0.01):
            for t_m in (1, 25):
                grid.append(("hamming", ProtocolParams(2, 2, 2,
                                                       parallel_corrections=1.0),
                             gamma, ratio, t_m))
    for ratio in (1.0, 0.01):
        for t_m in (1, 25):
            grid.append(("golay", ProtocolParams(4, 3, 3,
                                                 parallel_corrections=1.0),
                         3e-3, ratio, t_m))
    ok = True
    details = []
    for name, pp, gamma, ratio, t_m in grid:
        noise = NoiseParams(gamma, gamma * ratio, t_m)
        table = codes.params_from_catalog(name)
        model = analytic.crash_estimate(table, noise, pp).pbar
        stats_ = estimate_pbar_mc(SimConfig(name, noise, pp,
                                            target_failures=100), seed=SEED)
        tag = f"{name}({gamma:g},{ratio:g},{t_m})"
        if stats_.censored:
            # the 100-failures-at-Q=10 methodology is unmeasurable only when
            # the machine is far above break-even; the model must agree
            hit = model >= 10 * gamma
            details.append(f"{tag}: saturated, model={model:.3g}"
                           + ("" if hit else " MISS"))
        else:
            r = stats_.pbar / model
            hit = 1 / 3 <= r <= 3
            details.append(f"{tag}: mc/model={r:.2f}" + ("" if hit else " MISS"))
        ok &= hit
    report("criterion 3", ok, "; ".join(details))


# -- criterion 4: power law -----------------------------------------------------

def test_criterion_4_power_law():
    details = []
    ok = True
    for name, pp, t in [("hamming", ProtocolParams(2, 2, 2, n_rep=2.5), 1),
                        ("golay", ProtocolParams(4, 3, 3, n_rep=2.5), 3)]:
        code = codes.params_from_catalog(name)
        pb = [analytic.crash_estimate(
                code, NoiseParams(g, g * 0.01, 1), pp).pbar
              for g in (1e-7, 1e-6)]
        slope = math.log(pb[1] / pb[0]) / math.log(10.0)
        hit = abs(slope - (t + 1)) <= 0.05 * (t + 1)
        ok &= hit
        details.append(f"{name}: slope={slope:.3f} vs {t + 1}"
                       + ("" if hit else " MISS"))
    report("criterion 4", ok, "; ".join(details))


# -- criterion 5: oracle suites --------------------------------------------------

def test_criterion_5_oracles():
    ok = True
    details = []

    # (a) mixed failure pmf equals integer-combinatorics enumeration
    worst = 0.0
    for g in range(0, 51, 5):
        for s in range(0, 51, 5):
            for m in range(0, 7):
                want = 0.0
                for j in range(m + 1):
                    if j <= g and m - j <= s:
                        want += (math.comb(g, j) * 0.01 ** j * 0.99 ** (g - j)
                                 * math.comb(s, m - j) * 0.003 ** (m - j)
                                 * 0.997 ** (s - m + j))
                got = analytic.bprime(float(g), float(s), m, 0.01, 0.003)
                if want > 0:
                    worst = max(worst, abs(got - want) / want)
    hit = worst < 1e-12
    ok &= hit
    details.append(f"pmf oracle rel err {worst:.1e}" + ("" if hit else " MISS"))

    # (b) n = 7 coset leaders against the 2^7 enumeration
    hamming = codes.construct_code("hamming")
    best = {}
    for weight in range(8):
        for combo in itertools.combinations(range(7), weight):
            e = np.zeros(7, dtype=np.uint8)
            e[list(combo)] = 1
            best.setdefault(gf2.rows_to_ints(gf2.matmul(hamming.H, e[:, None]).T)[0], weight)
    hit = all(codes.decoder_for(hamming).leader_weight(s) == w
              for s, w in best.items())
    ok &= hit
    details.append("hamming cosets exact" + ("" if hit else " MISS"))

    # (c) classical minimum weight 7 by 2^12 enumeration
    golay = codes.construct_code("golay")
    vals = gf2.rows_to_ints(golay.H)
    minw = min(bin(_xor_subset(vals, r)).count("1")
               for r in range(1, 1 << 12))
    hit = minw == 7
    ok &= hit
    details.append(f"golay min weight {minw}" + ("" if hit else " MISS"))

    # (d) edge coloring exactly at the degree bound on 100 random matrices
    rng = np.random.default_rng(SEED)
    color_ok = True
    for _ in range(100):
        r, c = rng.integers(2, 13, 2)
        a = (rng.random((r, c)) < 0.4).astype(np.uint8)
        if not a.sum():
            a[0, 0] = 1
        colors = network.edge_color(a)
        deg = int(max(a.sum(axis=1).max(), a.sum(axis=0).max()))
        color_ok &= (max(colors.values()) + 1 == deg)
    ok &= color_ok
    details.append("edge coloring exact" + ("" if color_ok else " MISS"))

    # (e) scheduled hole counts equal the closed form
    hole_ok = True
    for name in ("hamming", "golay", "bch127-43"):
        code = codes.construct_code(name)
        sf = codes.standard_form(code)
        params = codes.derived_params(sf, code.n, code.k, code.d, name=name)
        ns = network.synthesize_networks(sf, params)
        hole_ok &= (ns.hole_count() == params.N_h)
    ok &= hole_ok
    details.append("hole counts exact" + ("" if hole_ok else " MISS"))

    report("criterion 5", ok, "; ".join(details))


def _xor_subset(vals, mask):
    acc = 0
    i = 0
    while mask:
        if mask & 1:
            acc ^= vals[i]
        mask >>= 1
        i += 1
    return acc


# -- criterion 6: zero-noise invariants ------------------------------------------

def test_criterion_6_zero_noise():
    from ftqec.noise import stream
    from ftqec.simulator import ErrorFrame, SimEngine, recover_block

    ok = True
    details = []
    code = codes.construct_code("hamming")
    eng = SimEngine(code, NoiseParams(), ProtocolParams(2, 2, 2,
                                                        parallel_corrections=1.0))
    frame = ErrorFrame(pools=[eng.pools(stream(SEED, 0))])
    pending = {}
    for _ in range(5):
        eng.add_noise(frame, 1, "rest")
        recover_block(frame, pending, eng, "Z", 1)
        recover_block(frame, pending, eng, "X", 1)
    fixed = not any(frame.sx) and not any(frame.sz)
    ok &= fixed
    details.append("all-zero frame fixed" + ("" if fixed else " MISS"))

    eng1 = SimEngine(code, NoiseParams(),
                     ProtocolParams(1, 1, 1, parallel_corrections=1.0))
    planted_ok = True
    for qubit in range(7):
        for plane, etype in (("x", "X"), ("z", "Z")):
            f = ErrorFrame(pools=[eng1.pools(stream(SEED, 2))])
            plant(f, eng1.code.H, plane, qubit)
            eng1.add_noise(f, 1, "rest")
            recover_block(f, {}, eng1, etype, 1)
            planted_ok &= not any(f.sx) and not any(f.sz)
    ok &= planted_ok
    details.append("planted singles corrected" + ("" if planted_ok else " MISS"))
    report("criterion 6", ok, "; ".join(details))


# -- criterion 7: surface features -------------------------------------------------

def test_criterion_7_surface():
    # coarse-grid run over the nested repetition family the catalog's r_opt
    # column documents for exactly this noise point (r-1 = r' = r''+1)
    cfg = sweep.SweepConfig(gammas=(1e-4, 5e-3), eps_over_gamma=0.01, t_m=25,
                            protocol_family="catalog")
    surface = sweep.build_surface(cfg)
    small = best_kq(surface, 1e-4, max_scale_up=25)
    big = best_kq(surface, 1e-4, max_scale_up=3000)
    cliff = best_kq(surface, 5e-3)
    concat_cells = [pt for (b, g), pt in surface.cells.items()
                    if g == 1e-4 and pt.code.startswith("golay+bch")
                    and pt.scale_up <= 3000]
    big_via_golay_bch = max((pt.kq for pt in concat_cells), default=0.0)
    checks = {
        f"KQ@scale<=25 {small:.3g} >= 1e9": small >= 1e9,
        f"KQ@scale<=3000 via golay+bch {big_via_golay_bch:.3g} >= 1e35":
            big_via_golay_bch >= 1e35,
        f"cliff max KQ {cliff:.3g} < 1e2": cliff < 1e2,
    }
    bad = [k for k, hit in checks.items() if not hit]
    report("criterion 7", not bad, "; ".join(checks.keys())
           + (f"; failing: {bad}" if bad else ""))


# -- criterion 8: preparation census -------------------------------------------------

def test_criterion_8_census():
    gammas = [2e-4, 3e-4, 5e-4, 1e-3]
    grid = [NoiseParams(g, g, 1) for g in gammas]
    censuses = stats.syndrome_census("golay", grid, trials=60000, seed=SEED)
    code = codes.standardized_code(codes.construct_code("golay"))
    decoder = codes.decoder_for(code)
    fit = stats.weight_class_fit(censuses, decoder)
    mode = histogram_mode(stats.c_s_histogram(fit, decoder, 1))

    sim_code = codes.construct_code("golay")
    sf = codes.standard_form(sim_code)
    sim_params = codes.derived_params(sf, sim_code.n, sim_code.k, sim_code.d)
    track_ok = True
    for census in censuses:
        noise = NoiseParams(census.gamma, census.eps, census.t_m)
        p_za = analytic.preparation_stats(sim_params, noise)["p_za"]
        track_ok &= (0.7 <= nonzero_fraction(census) / p_za <= 1.3)

    checks = {
        # compared on the histogram's 6-decimal bin grid: abs(0.85 - 1.0)
        # is 0.15000000000000002 in floating point
        f"c_s mode {mode} in 1.0+-0.15": round(abs(mode - 1.0), 6) <= 0.15,
        f"a={fit.a:.0f} within 2x of 196": 98 <= fit.a <= 392,
        f"a'={fit.a_prime:.0f} within 2x of 36": 18 <= fit.a_prime <= 72,
        "sum P_w tracks verified-ancilla error rate within 30%": track_ok,
    }
    bad = [k for k, hit in checks.items() if not hit]
    report("criterion 8", not bad, "; ".join(checks.keys())
           + (f"; failing: {bad}" if bad else ""))
