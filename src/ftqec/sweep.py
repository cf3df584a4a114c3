"""Maximum-computation-size surface over codes, provisioning and noise.

For every candidate encoding (bare catalog codes and single concatenations)
and every provisioning level, the repetition parameters are optimized, the
crash probability per recovery evaluated, and the achievable computation
size KQ = 1/pbar (0.5/pbar for multi-qubit blocks) recorded against the
physical scale-up N/K = (n + n_rep (3n + k))/k.  Scale-ups are binned at
5 bins per decade and each cell keeps its best KQ.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import analytic, concat as concat_mod
from .codes import CodeParams, params_from_catalog
from .concat import ConcatSpec
from .noise import NoiseParams

KQ_CAP = 1e50
BINS_PER_DECADE = 5


@dataclass(frozen=True)
class SweepPoint:
    code: str
    gamma: float
    eps: float
    t_m: int
    n_rep: float
    r: int
    r_prime: int
    r_dprime: int
    scale_up: float
    pbar: float
    kq: float


@dataclass
class Surface:
    """Best KQ per (scale-up bin, gamma) cell."""
    cells: dict[tuple[int, float], SweepPoint] = field(default_factory=dict)

    def offer(self, point: SweepPoint) -> None:
        key = (scale_up_bin(point.scale_up), point.gamma)
        cur = self.cells.get(key)
        if cur is None or point.kq > cur.kq:
            self.cells[key] = point

    def rows(self) -> list[dict]:
        out = []
        for (b, g), pt in sorted(self.cells.items()):
            lo = 10 ** (b / BINS_PER_DECADE)
            hi = 10 ** ((b + 1) / BINS_PER_DECADE)
            out.append({
                "bin_lo": lo, "bin_hi": hi, "gamma": g,
                "best_code": pt.code, "n_rep": pt.n_rep,
                "r": pt.r, "r_prime": pt.r_prime, "r_dprime": pt.r_dprime,
                "scale_up": pt.scale_up, "KQ": pt.kq,
            })
        return out


def scale_up_bin(ratio: float) -> int:
    return math.floor(BINS_PER_DECADE * math.log10(ratio))


def scale_up(code: CodeParams, n_rep: float) -> float:
    """Physical qubits per logical qubit including ancilla provisioning."""
    if n_rep <= 0:
        raise ValueError("n_rep must be positive")
    return (code.n + n_rep * (3 * code.n + code.k)) / code.k


def concat_scale_up(inner: CodeParams, outer: CodeParams, n_rep: float) -> float:
    """Product of the per-level scale-ups at one provisioning."""
    return scale_up(inner, n_rep) * scale_up(outer, n_rep)


def kq_value(k: int, pbar: float) -> float:
    """Computation size before the expected first crash, capped at 1e50.

    Blocks with k > 1 need roughly twice the recoveries per logical gate,
    hence the factor 0.5.
    """
    if pbar <= 0.0:
        return KQ_CAP
    kq = (1.0 / pbar) if k == 1 else (0.5 / pbar)
    return min(kq, KQ_CAP)


DEFAULT_N_REP_GRID = (0.5, 1.0, 2.5, 5.0, 10.0)
# the inner codes of the concatenations, and the r values every sweep tries
INNER_CODES = ("hamming", "golay")
R_VALUES = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class SweepConfig:
    gammas: tuple[float, ...]
    eps_over_gamma: float = 0.01
    t_m: int = 25
    n_rep_grid: tuple[float, ...] = DEFAULT_N_REP_GRID
    codes: Optional[tuple[str, ...]] = None        # default: whole catalog
    include_concatenations: bool = True
    # "full": free (r, r', r'') grid; "catalog": the nested family
    # r-1 = r' = r''+1 that the code catalog's r_opt column reports
    protocol_family: str = "full"

    def __post_init__(self):
        if self.protocol_family not in ("full", "catalog"):
            raise ValueError("protocol_family must be 'full' or 'catalog', "
                             f"got {self.protocol_family!r}")

    def family_constraint(self):
        if self.protocol_family == "catalog":
            return lambda r, rp, rpp: rp == r - 1 and rpp == r - 2
        return None

    def family_r_values(self) -> tuple[int, ...]:
        if self.protocol_family == "catalog":
            return tuple(r for r in R_VALUES if r >= 3)
        return R_VALUES


def build_surface(config: SweepConfig) -> Surface:
    """Exhaustive sweep; cell maxima are merge-order independent."""
    from .codes import code_names
    surface = Surface()
    names = config.codes if config.codes is not None else tuple(code_names())
    code_params = {nm: params_from_catalog(nm) for nm in names}
    constraint = config.family_constraint()
    r_values = config.family_r_values()

    for gamma in config.gammas:
        eps = gamma * config.eps_over_gamma
        noise = NoiseParams(gamma, eps, config.t_m)
        for nm, code in code_params.items():
            for n_rep in config.n_rep_grid:
                pp, pbar = analytic.optimize_protocol(
                    code, noise, r_values=r_values, n_rep=n_rep,
                    constraint=constraint)
                if pbar >= 1.0:
                    continue
                surface.offer(SweepPoint(
                    code=nm, gamma=gamma, eps=eps, t_m=config.t_m,
                    n_rep=n_rep, r=pp.r, r_prime=pp.r_prime,
                    r_dprime=pp.r_dprime,
                    scale_up=scale_up(code, n_rep), pbar=pbar,
                    kq=kq_value(code.k, pbar)))
        if config.include_concatenations:
            for inner_nm in INNER_CODES:
                inner = code_params.get(inner_nm) or params_from_catalog(inner_nm)
                for nm, outer in code_params.items():
                    for n_rep in config.n_rep_grid:
                        spec = ConcatSpec(inner=inner, outer=outer,
                                          n_rep=n_rep, t_m=config.t_m)
                        est = concat_mod.concat_estimate(
                            spec, gamma, eps, r_values=r_values,
                            constraint=constraint)
                        if est.below_breakeven or est.pbar >= 1.0:
                            continue
                        pp = est.outer_protocol
                        surface.offer(SweepPoint(
                            code=f"{inner_nm}+{nm}", gamma=gamma, eps=eps,
                            t_m=config.t_m, n_rep=n_rep,
                            r=pp.r, r_prime=pp.r_prime, r_dprime=pp.r_dprime,
                            scale_up=concat_scale_up(inner, outer, n_rep),
                            pbar=est.pbar, kq=kq_value(outer.k, est.pbar)))
    return surface


def surface_plot_script(csv_path: str) -> str:
    """Companion commands for a generic plotting tool (gnuplot syntax)."""
    return "\n".join([
        "set datafile separator ','",
        "set logscale xyz",
        "set xlabel 'scale-up N/K'",
        "set ylabel 'gate failure rate'",
        "set zlabel 'KQ'",
        f"splot '{csv_path}' every ::1 using 1:3:10 with points",
        "",
    ])
