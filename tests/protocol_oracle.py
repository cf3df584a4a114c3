"""The model's protocol choice by brute force, for the tests.

``grid_minimum`` runs one ``crash_estimate`` per (r, r', r'') triple: the
oracle of ``analytic.optimize_protocol``'s bounded search, over its grid
or any subset of it.  The catalog's r_opt column reports the nested family
r-1 = r' = r''+1 (``CATALOG_R_VALUES``, ``catalog_family``), which the
package does not sweep; ``catalog_surface`` is ``sweep.build_surface``
over that family.
"""
from ftqec import codes, concat, sweep
from ftqec.analytic import crash_estimate
from ftqec.noise import NoiseParams
from ftqec.protocol import ProtocolParams

CATALOG_R_VALUES = range(3, 7)


def catalog_family(r: int, rp: int, rpp: int) -> bool:
    return rp == r - 1 and rpp == r - 2


def grid_minimum(code, noise, r_values=range(1, 7), constraint=None, n_rep=1.0,
                 parallel_corrections=None, rest_scale=1.0):
    """The least (pbar, r, r', r'') over r in ``r_values``, 1 <= r', r'' <= r
    and, when given, ``constraint(r, r', r'')``."""
    best = None
    for r in r_values:
        for rp in range(1, r + 1):
            for rpp in range(1, r + 1):
                if constraint and not constraint(r, rp, rpp):
                    continue
                pp = ProtocolParams(r, rp, rpp, n_rep=n_rep,
                                    parallel_corrections=parallel_corrections)
                est = crash_estimate(code, noise, pp, rest_scale=rest_scale)
                key = (est.pbar, r, rp, rpp)
                if best is None or key < best:
                    best = key
    return best


def _catalog_minimum(code, noise, n_rep, rest_scale=1.0):
    return grid_minimum(code, noise, CATALOG_R_VALUES, catalog_family,
                        n_rep=n_rep, rest_scale=rest_scale)


def catalog_surface(gammas, eps_over_gamma: float, t_m: int) -> sweep.Surface:
    """The whole catalog and its concatenations, as ``build_surface`` sweeps
    them, with each level's protocol taken from the catalog family."""
    surface = sweep.Surface()
    params = {nm: codes.params_from_catalog(nm) for nm in codes.code_names()}

    def offer(name, gamma, n_rep, key, scale, k):
        pbar, r, rp, rpp = key
        if pbar < 1.0:
            surface.offer(sweep.SweepPoint(
                name, gamma, gamma * eps_over_gamma, t_m, n_rep, r, rp, rpp,
                scale, pbar, sweep.kq_value(k, pbar)))

    for gamma in gammas:
        noise = NoiseParams(gamma, gamma * eps_over_gamma, t_m)
        for nm, code in params.items():
            for n_rep in sweep.N_REP_GRID:
                offer(nm, gamma, n_rep, _catalog_minimum(code, noise, n_rep),
                      sweep.scale_up(code, n_rep), code.k)
        # concat.concat_estimate, level by level
        for inner_nm in sweep.INNER_CODES:
            inner = params[inner_nm]
            for nm, outer in params.items():
                eta = concat.eta_factor(outer)
                for n_rep in sweep.N_REP_GRID:
                    inner_pbar = _catalog_minimum(inner, noise, n_rep, eta)[0]
                    if inner_pbar >= 0.5:
                        continue
                    key = _catalog_minimum(
                        concat._without_holes(outer),
                        NoiseParams(inner_pbar, inner_pbar, t_m=1), n_rep, 1.0 / eta)
                    offer(f"{inner_nm}+{nm}", gamma, n_rep, key,
                          sweep.concat_scale_up(inner, outer, n_rep), outer.k)
    return surface
