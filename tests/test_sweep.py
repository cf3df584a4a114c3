import hashlib
import math

import pytest

from ftqec import codes, sweep
from ftqec.sweep import (Surface, SweepConfig, SweepPoint, build_surface,
                         concat_scale_up, kq_value, scale_up, scale_up_bin)

HAMMING = codes.params_from_catalog("hamming")
GOLAY = codes.params_from_catalog("golay")
BCH29 = codes.params_from_catalog("bch127-29")


def test_scale_up_hamming():
    assert scale_up(HAMMING, 1.0) == pytest.approx(29.0)


def test_scale_up_limit():
    assert scale_up(HAMMING, 1e-9) == pytest.approx(7.0, abs=1e-6)


def test_scale_up_requires_positive_nrep():
    with pytest.raises(ValueError):
        scale_up(HAMMING, 0.0)


def test_concat_scale_up_golay_bch():
    total = concat_scale_up(GOLAY, BCH29, 1.0)
    assert total == pytest.approx((23 + 70) * (127 + 410) / 29, rel=1e-12)
    assert 1585 <= total <= 2512      # the "scale-up around 1000" decade band


def test_kq_rules():
    assert kq_value(1, 1e-10) == pytest.approx(1e10)
    assert kq_value(43, 1e-10) == pytest.approx(5e9)
    assert kq_value(1, 0.0) == sweep.KQ_CAP
    assert kq_value(1, 1e-60) == sweep.KQ_CAP


def test_bin_indexing():
    assert scale_up_bin(10.0) == 5
    assert scale_up_bin(9.999) == 4
    assert scale_up_bin(1722) == 16


def test_surface_keeps_cell_maximum():
    surf = Surface()
    a = SweepPoint("a", 1e-4, 1e-6, 25, 1.0, 2, 2, 2, 29.0, 1e-9, 1e9)
    b = SweepPoint("b", 1e-4, 1e-6, 25, 1.0, 2, 2, 2, 30.0, 1e-10, 1e10)
    surf.offer(a)
    surf.offer(b)
    key = (scale_up_bin(29.0), 1e-4)
    assert surf.cells[key].code == "b"


def test_surface_grows_with_code_list():
    small = build_surface(SweepConfig(gammas=(1e-4,), codes=("hamming",),
                                      include_concatenations=False,
                                      n_rep_grid=(1.0,)))
    big = build_surface(SweepConfig(gammas=(1e-4,),
                                    codes=("hamming", "golay", "bch127-29"),
                                    include_concatenations=False,
                                    n_rep_grid=(1.0,)))
    for key, pt in small.cells.items():
        assert big.cells[key].kq >= pt.kq
    assert len(big.cells) >= len(small.cells)


def test_code_ordering_high_vs_low_noise():
    cfg_lo = SweepConfig(gammas=(1e-5,), codes=tuple(codes.code_names()),
                         include_concatenations=False, n_rep_grid=(1.0,))
    lo = build_surface(cfg_lo)
    # the efficient large-block codes own their scale-up bins at low noise
    for name in ("bch127-29", "bch127-43"):
        code = codes.params_from_catalog(name)
        cell = lo.cells[(scale_up_bin(scale_up(code, 1.0)), 1e-5)]
        assert cell.code == name
    cfg_hi = SweepConfig(gammas=(1e-3,), codes=tuple(codes.code_names()),
                         include_concatenations=False, n_rep_grid=(1.0,))
    hi = build_surface(cfg_hi)
    best_hi = max(hi.cells.values(), key=lambda p: p.kq)
    low_n_codes = {"hamming", "golay", "golay21", "bch31", "qr47", "qr45",
                   "qr43", "bch63-27", "bch63-39"}
    assert best_hi.code in low_n_codes


def test_rows_schema():
    surf = build_surface(SweepConfig(gammas=(1e-4,), codes=("golay",),
                                     include_concatenations=False,
                                     n_rep_grid=(1.0, 2.5)))
    rows = surf.rows()
    assert rows
    assert set(rows[0]) == {"bin_lo", "bin_hi", "gamma", "best_code", "n_rep",
                            "r", "r_prime", "r_dprime", "scale_up", "KQ"}
    for row in rows:
        assert row["bin_lo"] <= row["scale_up"] < row["bin_hi"] * 1.0000001


def test_plot_script_mentions_csv():
    script = sweep.surface_plot_script("surface.csv")
    assert "surface.csv" in script


def test_unknown_protocol_family_refused():
    # a misspelt family would otherwise sweep the full grid
    with pytest.raises(ValueError, match="catlog"):
        SweepConfig(gammas=(1e-4,), protocol_family="catlog")


@pytest.mark.parametrize("family,digest", [
    ("full", "72ddd417f3ca352d224ae94d22b60a4e08507265adff4837e154c55829b50d5e"),
    ("catalog", "c68a25f5671a13015cda668a9ccc44ca833bb71a26daf78a9f7c8e85c58d77d0"),
], ids=["full", "catalog"])
def test_surface_pinned(family, digest):
    # every code of the catalog and every concatenation at two noise levels,
    # as the sha256 of the rows' repr: a change that only makes the model
    # faster must keep them bit for bit
    rows = build_surface(SweepConfig(gammas=(1e-4, 1e-3), protocol_family=family)).rows()
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest
