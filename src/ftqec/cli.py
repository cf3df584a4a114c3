"""Command-line entry point.

Subcommands map one-to-one onto the library workflows:

    codes          catalog listing, constructed-parameter comparison, matrix export
    simulate       Monte-Carlo crash-rate estimate for one configuration
    estimate       closed-form model breakdown (JSON + one-line CSV)
    threshold      multi-level concatenation threshold for a k=1 code
    surface        computation-size surface over codes and provisioning
    ancilla-stats  preparation census and power-law fits

All tabular output is CSV without timestamps so reruns with the same seed
and configuration are byte-identical.  Exit codes: 0 success, 2 bad
configuration (including an unknown --code), 3 a numerical flag was raised
(a censored Monte Carlo run, a code unusable at the requested noise, a
threshold recursion that diverges even at the lowest probed rate, or an
ancilla census that fits no syndrome).
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import typing
from pathlib import Path
from typing import Optional

from . import analytic, codes as codes_mod, concat as concat_mod
from . import simulator, stats as stats_mod, sweep as sweep_mod
from .noise import NoiseParams
from .protocol import ProtocolError, ProtocolParams
from .simulator import SimConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FLAGGED = 3


@dataclasses.dataclass
class RunConfig:
    """Fully serializable run description; reruns reproduce identical bytes."""
    subcommand: str
    # None: hamming for the subcommands that need a code; ``codes`` exports
    # a check matrix only for a code that was named
    code: Optional[str] = None
    gamma: float = 1e-4
    eps: float = 1e-6
    t_m: int = 1
    n_rep: float = 1.0
    parallel_corrections: Optional[float] = None
    r: int = 2
    r_prime: int = 2
    r_dprime: int = 2
    eps_over_gamma: float = 0.01
    trials: int = 0
    target_failures: int = 100
    seed: int = 0
    workers: int = 1
    out_dir: str = "."
    rel_width: float = 1e-2
    gammas: Optional[list[float]] = None
    optimize: bool = False
    curves: bool = False

    def noise(self) -> NoiseParams:
        return NoiseParams(self.gamma, self.eps, self.t_m)

    def protocol(self) -> ProtocolParams:
        return ProtocolParams(self.r, self.r_prime, self.r_dprime,
                              n_rep=self.n_rep,
                              parallel_corrections=self.parallel_corrections)

    @staticmethod
    def from_json(text: str) -> "RunConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("a config file holds one JSON object")
        types = typing.get_type_hints(RunConfig)
        declared = {f.name: f.type for f in dataclasses.fields(RunConfig)}
        for name, value in data.items():
            if name in types and not _fits(value, types[name]):
                raise ValueError(f"config field {name!r} must be {declared[name]}, "
                                 f"got {value!r}")
        return RunConfig(**data)


def _fits(value, tp) -> bool:
    """Whether a JSON value has a RunConfig field's declared type; an int
    fits a float field, a bool only a bool field."""
    if typing.get_origin(tp) is typing.Union:
        return any(_fits(value, arg) for arg in typing.get_args(tp))
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    return type(value) in ((int, float) if tp is float else (tp,))


def _write_csv(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ftqec",
                                description="fault-tolerant QEC laboratory")
    p.add_argument("--config", help="JSON RunConfig; flags override its fields")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=None)
        sp.add_argument("--out-dir", default=None)

    def point(sp):
        # one noise point and one protocol: simulate and estimate
        sp.add_argument("--code", default=None)
        sp.add_argument("--gamma", type=float, default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--tm", dest="t_m", type=int, default=None)
        sp.add_argument("--nrep", dest="n_rep", type=float, default=None)
        sp.add_argument("--parallel-corrections", type=float, default=None)
        sp.add_argument("--r", type=int, default=None)
        sp.add_argument("--rp", dest="r_prime", type=int, default=None)
        sp.add_argument("--rpp", dest="r_dprime", type=int, default=None)

    def ratio(sp):
        sp.add_argument("--eps-over-gamma", type=float, default=None)
        sp.add_argument("--tm", dest="t_m", type=int, default=None)

    sp = sub.add_parser("codes", help="catalog and constructed parameters")
    common(sp)
    sp.add_argument("--code", default=None, help="export this code's check matrix")

    sp = sub.add_parser(
        "simulate", help="Monte-Carlo crash rate",
        description="Without --parallel-corrections the protocol needs "
                    "r <= r_max = 1 + (alpha n_rep - 1)/(1 - beta), so the "
                    "default --nrep 1 is refused (exit 2) whenever the "
                    "verified fraction alpha is below 1: raise --nrep or pin "
                    "--parallel-corrections.")
    common(sp)
    point(sp)
    sp.add_argument("--trials", type=int, default=None,
                    help="trial cap (0 = run to the failure target)")
    sp.add_argument("--target-failures", type=int, default=None)

    sp = sub.add_parser("estimate", help="closed-form model breakdown")
    common(sp)
    point(sp)
    sp.add_argument("--optimize", action="store_true",
                    help="grid-minimize pbar over (r, r', r'')")
    sp.add_argument("--curves", action="store_true",
                    help="also emit the model-vs-simulation comparison grid")

    sp = sub.add_parser("threshold", help="multi-level noise threshold")
    common(sp)
    sp.add_argument("--code", default=None)
    ratio(sp)
    sp.add_argument("--rel-width", type=float, default=None)

    sp = sub.add_parser("surface", help="KQ surface")
    common(sp)
    sp.add_argument("--gammas", type=float, nargs="+", default=None)
    ratio(sp)

    sp = sub.add_parser("ancilla-stats", help="preparation census")
    common(sp)
    sp.add_argument("--code", default=None)
    sp.add_argument("--gammas", type=float, nargs="+", default=None)
    ratio(sp)
    sp.add_argument("--trials", type=int, default=None)
    return p


def _merge_config(ns: argparse.Namespace) -> RunConfig:
    if ns.config:
        cfg = RunConfig.from_json(Path(ns.config).read_text())
        cfg.subcommand = ns.subcommand
    else:
        cfg = RunConfig(subcommand=ns.subcommand)
    # every flag's dest is the name of the RunConfig field it sets
    for f in dataclasses.fields(RunConfig):
        val = getattr(ns, f.name, None)
        if val is not None and val is not False:
            setattr(cfg, f.name, val)
    if cfg.code is None and cfg.subcommand != "codes":
        cfg.code = "hamming"
    if cfg.trials < 0:
        raise ValueError(f"trials must be >= 0, got {cfg.trials}")
    if cfg.workers < 1:
        raise ValueError(f"workers must be >= 1, got {cfg.workers}")
    if cfg.seed < 0:
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.gammas == []:
        raise ValueError("config field 'gammas' must list at least one noise level")
    return cfg


def _cmd_codes(cfg: RunConfig) -> int:
    out = Path(cfg.out_dir)
    rows = []
    for row in codes_mod.catalog():
        if row["name"] == "none":
            continue
        cmp_row = codes_mod.compare_with_catalog(row["name"])
        rows.append(cmp_row)
    _write_csv(out / "codes.csv", rows)
    mismatches = sum(1 for r in rows if r["mismatch"])
    if cfg.code:
        code = codes_mod.construct_code(cfg.code)
        (out / f"{cfg.code}_check_matrix.txt").write_text(
            code.check_matrix_text() + "\n")
    print(f"codes: {len(rows)} constructions checked, "
          f"{mismatches} differ from the catalog (reported side by side)")
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig) -> int:
    sim_cfg = SimConfig(cfg.code, cfg.noise(), cfg.protocol(),
                        target_failures=cfg.target_failures,
                        max_trials=cfg.trials or SimConfig.max_trials)
    stats = simulator.estimate_pbar_mc(sim_cfg, seed=cfg.seed,
                                       workers=cfg.workers)
    rows = simulator.stats_csv_rows(sim_cfg, stats)
    _write_csv(Path(cfg.out_dir) / "simulate.csv", rows)
    print(f"simulate: code={cfg.code} gamma={cfg.gamma:g} pbar={stats.pbar:.4g} "
          f"stderr={stats.stderr:.2g} trials={stats.trials}"
          f"{' CENSORED' if stats.censored else ''}")
    if stats.unverified:
        print(f"simulate: {stats.unverified} ancilla preparations ran out of "
              "attempts and were coupled unverified", file=sys.stderr)
    return EXIT_FLAGGED if stats.censored else EXIT_OK


def _cmd_estimate(cfg: RunConfig) -> int:
    code = codes_mod.params_from_catalog(cfg.code)
    noise = cfg.noise()
    if cfg.optimize:
        pp, _ = analytic.optimize_protocol(
            code, noise, n_rep=cfg.n_rep,
            parallel_corrections=cfg.parallel_corrections)
    else:
        pp = cfg.protocol()
    est = analytic.crash_estimate(code, noise, pp)
    payload = est.as_dict()
    payload.update({"code": cfg.code, "gamma": cfg.gamma, "eps": cfg.eps,
                    "t_m": cfg.t_m, "n_rep": cfg.n_rep,
                    "r": pp.r, "r_prime": pp.r_prime, "r_dprime": pp.r_dprime,
                    "N_GV": code.N_GV, "N_h": code.N_h})
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "estimate.json").write_text(json.dumps(payload, indent=2,
                                                  sort_keys=True) + "\n")
    _write_csv(out / "estimate.csv", [payload])
    if cfg.curves:
        _write_csv(out / "model_curves.csv", analytic.model_curves())
    print(f"estimate: code={cfg.code} gamma={cfg.gamma:g} pbar={est.pbar:.4g} "
          f"alpha={est.alpha:.4f} beta={est.beta:.4f}")
    if not est.usable:
        print("estimate: code unusable at this noise (alpha <= 0)")
        return EXIT_FLAGGED
    return EXIT_OK


def _cmd_threshold(cfg: RunConfig) -> int:
    code = codes_mod.params_from_catalog(cfg.code)
    try:
        gamma0 = concat_mod.threshold(code, cfg.eps_over_gamma, cfg.t_m,
                                      rel_width=cfg.rel_width)
    except concat_mod.NoConvergenceError as exc:
        print(f"threshold: code={cfg.code} {exc}", file=sys.stderr)
        return EXIT_FLAGGED
    trace = concat_mod.level_trace(code, gamma0 * 0.5, cfg.eps_over_gamma,
                                   cfg.t_m)
    rows = [{"level": i + 1, "gamma": gamma0 * 0.5, "pbar": p}
            for i, p in enumerate(trace)]
    _write_csv(Path(cfg.out_dir) / "threshold_trace.csv", rows)
    print(f"threshold: code={cfg.code} eps/gamma={cfg.eps_over_gamma:g} "
          f"tm={cfg.t_m} gamma0={gamma0:.4g}")
    return EXIT_OK


def _cmd_surface(cfg: RunConfig) -> int:
    gammas = tuple(cfg.gammas or (1e-4, 1e-3))
    sweep_cfg = sweep_mod.SweepConfig(gammas=gammas,
                                      eps_over_gamma=cfg.eps_over_gamma,
                                      t_m=cfg.t_m)
    surface = sweep_mod.build_surface(sweep_cfg)
    out = Path(cfg.out_dir)
    _write_csv(out / "surface.csv", surface.rows())
    (out / "surface.plt").write_text(
        sweep_mod.surface_plot_script("surface.csv"))
    print(f"surface: {len(surface.cells)} populated cells over "
          f"{len(gammas)} noise levels")
    return EXIT_OK


def _cmd_ancilla_stats(cfg: RunConfig) -> int:
    gammas = cfg.gammas or [1e-4, 2e-4, 5e-4, 1e-3]
    trials = cfg.trials or 20000
    grid = [NoiseParams(g, g * cfg.eps_over_gamma, cfg.t_m) for g in gammas]
    censuses = stats_mod.syndrome_census(cfg.code, grid, trials, seed=cfg.seed)
    code = codes_mod.standardized_code(codes_mod.construct_code(cfg.code))
    decoder = codes_mod.decoder_for(code)
    fit = stats_mod.weight_class_fit(censuses, decoder)
    out = Path(cfg.out_dir)
    rows = []
    for census in censuses:
        weights = stats_mod.leader_weights(decoder, census.counts)
        for s, c in sorted(census.counts.items()):
            rows.append({"gamma": census.gamma, "syndrome": s,
                         "leader_weight": weights[s],
                         "count": c, "trials": census.trials})
    _write_csv(out / "census.csv", rows)
    hist_rows = []
    for weight in (1, 2, 3):
        hist = stats_mod.c_s_histogram(fit, decoder, weight)
        for center, count in sorted(hist.items()):
            hist_rows.append({"leader_weight": weight, "c_s_bin": center,
                              "count": count})
    _write_csv(out / "c_s_histogram.csv", hist_rows)
    weights = stats_mod.leader_weights(decoder, fit.a_s)
    scatter = [{"syndrome": s, "a_s": fit.a_s[s], "c_s": fit.c_s[s],
                "leader_weight": weights[s]}
               for s in sorted(fit.a_s)]
    _write_csv(out / "a_c_scatter.csv", scatter)
    print(f"ancilla-stats: code={cfg.code} a={fit.a:.1f} a'={fit.a_prime:.1f} "
          f"({len(fit.a_s)} syndromes fitted)")
    unverified = sum(c.unverified for c in censuses)
    if unverified:
        print(f"ancilla-stats: {unverified} ancilla preparations ran out of "
              "attempts and were read unverified", file=sys.stderr)
    if not fit.a_s:
        print("ancilla-stats: no syndrome fitted: a power-law fit needs three "
              f"noise levels where its probability is in (0, "
              f"{stats_mod.FIT_PROBABILITY_CUTOFF:g})", file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK


#: subcommands that read --code from the catalog; the others construct it,
#: and the unencoded "none" entry has catalog parameters but no construction
_CATALOG_COMMANDS = ("estimate", "threshold")


def _known_codes(subcommand: str) -> list[str]:
    if subcommand in _CATALOG_COMMANDS:
        return [row["name"] for row in codes_mod.catalog()]
    return codes_mod.code_names()


_COMMANDS = {
    "codes": _cmd_codes,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "threshold": _cmd_threshold,
    "surface": _cmd_surface,
    "ancilla-stats": _cmd_ancilla_stats,
}


def run(argv: list[str]) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _merge_config(ns)
        handler = _COMMANDS[cfg.subcommand]
    except (KeyError, ValueError, OSError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.code is not None and cfg.code not in _known_codes(cfg.subcommand):
        print(f"configuration error: unknown code {cfg.code!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return handler(cfg)
    except (ProtocolError, codes_mod.CodeConstructionError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
