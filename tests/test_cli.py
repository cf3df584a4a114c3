import csv
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from ftqec import cli
from ftqec.cli import RunConfig, run


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_runconfig_roundtrip():
    cfg = RunConfig(subcommand="estimate", code="golay", gamma=2e-4, seed=9)
    clone = RunConfig.from_json(cfg.to_json())
    assert clone == cfg


def test_unknown_subcommand_is_config_error():
    assert run(["frobnicate"]) == cli.EXIT_CONFIG


def test_invalid_protocol_is_config_error(tmp_path):
    rc = run(["estimate", "--code", "golay", "--gamma", "1e-4", "--eps",
              "1e-6", "--tm", "25", "--r", "2", "--rp", "3", "--rpp", "2",
              "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("subcommand", ["estimate", "simulate"])
def test_unknown_code_is_config_error(subcommand, tmp_path, capsys):
    rc = run([subcommand, "--code", "bogus", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'bogus'" in err


def test_simulate_refuses_code_without_decoder(tmp_path):
    # qr103's weight-5 syndrome ball would exceed codes.BALL_LIMIT; the
    # child's address space is capped so a decoder that tries anyway fails
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ftqec.cli", "simulate", "--code", "qr103",
         "--gamma", "1e-3", "--parallel-corrections", "1", "--trials", "64",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)))
    assert done.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1


def test_monte_carlo_never_imports_scipy(tmp_path):
    # scipy is imported by the model's first binomial and then is the
    # module's gammaln itself, with no wrapper left on the model's path
    script = """
import sys
from ftqec import analytic, cli, codes
from ftqec.noise import NoiseParams
from ftqec.protocol import ProtocolParams
out = sys.argv[1]
for protocol in (["--parallel-corrections", "1"], ["--nrep", "3"]):
    rc = cli.run(["simulate", "--code", "hamming", *protocol, "--trials", "64",
                  "--out-dir", out])
    assert rc == cli.EXIT_FLAGGED, rc
assert "scipy" not in sys.modules, "the Monte Carlo imported scipy"
analytic.crash_estimate(codes.params_from_catalog("golay"),
                        NoiseParams(1e-4, 1e-6, 1), ProtocolParams(2, 2, 2))
import scipy.special
assert analytic.gammaln is scipy.special.gammaln, analytic.gammaln
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("subcommand,flag,value", [
    ("estimate", "--parallel-corrections", "0"),
    ("estimate", "--parallel-corrections", "-2"),
    ("estimate", "--parallel-corrections", "nan"),
    ("estimate", "--nrep", "nan"),
    ("simulate", "--parallel-corrections", "0"),
    ("simulate", "--parallel-corrections", "-2"),
    ("simulate", "--target-failures", "0"),
    ("simulate", "--target-failures", "-1"),
])
def test_nonpositive_provisioning_is_config_error(subcommand, flag, value, tmp_path, capsys):
    # a pinned protocol and a trial cap keep a simulate that is not refused
    # short; the row's own flag comes after them, so it wins
    cap = ["--parallel-corrections", "1", "--trials", "64"] if subcommand == "simulate" else []
    rc = run([subcommand, "--code", "hamming", *cap, flag, value, "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("args", [["simulate", "--parallel-corrections", "1"],
                                  ["ancilla-stats"]], ids=["simulate", "ancilla-stats"])
def test_negative_trials_is_config_error(args, tmp_path, capsys):
    rc = run(args + ["--code", "hamming", "--trials", "-5", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert capsys.readouterr().err.count("\n") == 1


def test_simulate_default_protocol_refusal_names_fixes(tmp_path, capsys):
    # n_rep = 1 without pinned provisioning puts r_max below 1 whenever alpha < 1
    rc = run(["simulate", "--code", "hamming", "--trials", "64", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "raise n_rep" in err and "pin parallel_corrections" in err


@pytest.mark.parametrize("rel_width", ["0", "-1"])
def test_threshold_refuses_nonpositive_rel_width(rel_width, tmp_path):
    # the bisection could never narrow to a ratio of 1 + rel_width <= 1
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "ftqec.cli", "threshold", "--code", "hamming",
         "--eps-over-gamma", "1", "--tm", "1", "--rel-width", rel_width,
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == cli.EXIT_CONFIG
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1


def test_threshold_no_convergence_is_flagged(tmp_path, capsys):
    rc = run(["threshold", "--code", "hamming", "--eps-over-gamma", "1",
              "--tm", "1000000", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_FLAGGED
    assert "no convergence" in capsys.readouterr().err


def test_estimate_worked_example(tmp_path):
    rc = run(["estimate", "--code", "bch127-43", "--gamma", "1e-4",
              "--eps", "1e-6", "--tm", "25", "--nrep", "2.5",
              "--r", "5", "--rp", "4", "--rpp", "3",
              "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    payload = json.loads((tmp_path / "estimate.json").read_text())
    assert payload["N_GV"] == 3689
    assert payload["N_h"] == 8893
    assert 0.73 <= payload["alpha"] <= 0.75
    assert 0.75 <= payload["beta"] <= 0.85
    assert 1e-10 <= payload["pbar"] <= 9e-10
    assert (tmp_path / "estimate.csv").exists()


def test_simulate_zero_noise(tmp_path):
    rc = run(["simulate", "--code", "hamming", "--gamma", "0", "--eps", "0",
              "--parallel-corrections", "1", "--trials", "1024",
              "--target-failures", "5",
              "--seed", "7", "--out-dir", str(tmp_path)])
    # zero noise never reaches the failure target: run is censored (exit 3)
    assert rc == cli.EXIT_FLAGGED
    rows = read_csv(tmp_path / "simulate.csv")
    assert len(rows) == 10
    assert all(float(r["p_Q"]) == 0.0 for r in rows)


def test_simulate_reproducible_bytes(tmp_path):
    args = ["simulate", "--code", "hamming", "--gamma", "5e-3", "--eps",
            "5e-3", "--tm", "1", "--parallel-corrections", "1",
            "--target-failures", "20", "--seed", "3"]
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert run(args + ["--out-dir", str(a_dir)]) == cli.EXIT_OK
    assert run(args + ["--out-dir", str(b_dir), "--workers", "2"]) == cli.EXIT_OK
    assert (a_dir / "simulate.csv").read_bytes() == (b_dir / "simulate.csv").read_bytes()


def test_codes_subcommand(tmp_path, capsys):
    rc = run(["codes", "--code", "hamming", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = read_csv(tmp_path / "codes.csv")
    assert len(rows) == 18
    matrix = (tmp_path / "hamming_check_matrix.txt").read_text().splitlines()
    assert len(matrix) == 4
    out = capsys.readouterr().out
    assert "differ from the catalog" in out


def test_codes_without_code_exports_no_matrix(tmp_path):
    assert run(["codes", "--out-dir", str(tmp_path)]) == cli.EXIT_OK
    assert [p.name for p in tmp_path.iterdir()] == ["codes.csv"]


def test_threshold_subcommand_coarse(tmp_path):
    rc = run(["threshold", "--code", "golay", "--eps-over-gamma", "1",
              "--tm", "1", "--rel-width", "0.2", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = read_csv(tmp_path / "threshold_trace.csv")
    assert len(rows) >= 2
    assert float(rows[1]["pbar"]) < float(rows[0]["pbar"])


def test_surface_subcommand(tmp_path):
    rc = run(["surface", "--gammas", "1e-4", "--eps-over-gamma", "0.01",
              "--tm", "25", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = read_csv(tmp_path / "surface.csv")
    assert rows
    assert (tmp_path / "surface.plt").exists()


def test_ancilla_stats_subcommand(tmp_path):
    rc = run(["ancilla-stats", "--code", "hamming",
              "--gammas", "5e-4", "1e-3", "2e-3", "4e-3",
              "--eps-over-gamma", "1", "--tm", "1", "--trials", "4000",
              "--seed", "4", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    rows = read_csv(tmp_path / "census.csv")
    assert rows
    assert {"gamma", "syndrome", "leader_weight", "count", "trials"} == set(rows[0])
    # exponent histogram and coefficient scatter companions
    assert (tmp_path / "c_s_histogram.csv").exists()
    scatter = read_csv(tmp_path / "a_c_scatter.csv")
    if scatter:
        assert {"syndrome", "a_s", "c_s", "leader_weight"} == set(scatter[0])


def test_ancilla_stats_reports_unverified(tmp_path, capsys):
    # one noise level fits no syndrome, so the run is also flagged
    rc = run(["ancilla-stats", "--code", "hamming", "--gammas", "0.5",
              "--eps-over-gamma", "1", "--tm", "1", "--trials", "640",
              "--seed", "0", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_FLAGGED
    assert "read unverified" in capsys.readouterr().err


def test_ancilla_stats_flags_empty_fit(tmp_path, capsys):
    # a power-law fit needs three usable noise levels; two fit nothing
    rc = run(["ancilla-stats", "--code", "hamming", "--gammas", "1e-3", "3e-3",
              "--trials", "2000", "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_FLAGGED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "no syndrome fitted" in err
    assert (tmp_path / "a_c_scatter.csv").read_text() == ""


def test_config_file_with_flag_override(tmp_path):
    cfg = RunConfig(subcommand="estimate", code="hamming", gamma=1e-3,
                    eps=1e-5, t_m=1, r=2, r_prime=2, r_dprime=2, n_rep=2.5)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(cfg.to_json())
    rc = run(["--config", str(cfg_path), "estimate", "--code", "golay",
              "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_OK
    payload = json.loads((tmp_path / "estimate.json").read_text())
    assert payload["code"] == "golay"       # flag overrides config
    assert payload["gamma"] == 1e-3          # config value retained


@pytest.mark.parametrize("fields,name", [
    ({"subcommand": "estimate", "gamma": "x"}, "gamma"),
    ({"subcommand": "simulate", "workers": "2"}, "workers"),
    ({"subcommand": "estimate", "t_m": 1.5}, "t_m"),
    ({"subcommand": "estimate", "optimize": 1}, "optimize"),
    ({"subcommand": "surface", "gammas": ["1e-4"]}, "gammas"),
    ({"subcommand": "surface", "gammas": []}, "gammas"),
    ({"subcommand": "ancilla-stats", "gammas": []}, "gammas"),
])
def test_config_file_field_of_wrong_type_is_config_error(fields, name, tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(fields))
    rc = run(["--config", str(cfg_path), fields["subcommand"], "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and repr(name) in err


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_nonpositive_workers_is_config_error(workers, tmp_path, capsys):
    rc = run(["simulate", "--code", "hamming", "--parallel-corrections", "1",
              "--trials", "64", "--workers", workers, "--out-dir", str(tmp_path)])
    assert rc == cli.EXIT_CONFIG
    assert "workers" in capsys.readouterr().err
