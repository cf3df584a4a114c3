"""Evidence that an MC stream-layout change keeps the fault law.

A layout change (how a batch's faults are drawn from its stream) moves the
MC's counts but must not move their law.  This script runs long MC points
on one source tree and writes their counts, then compares two such files
with the two-sample binomial test of
``test_simulator.test_pool_size_is_only_a_layout``: given a + b crashes
over equal trial counts, a is Binomial(a + b, 1/2) when the laws agree.

    python3 tests/layout_evidence.py run --src OLD/src --seed 1 --out old.json
    python3 tests/layout_evidence.py run --src NEW/src --seed 2 --out new.json
    python3 tests/layout_evidence.py compare old.json new.json

The points are golay (4,3,3) and hamming (2,2,2), pinned, at gamma = 3e-3
and 1e-3 with eps = gamma/100 and t_m = 25, 2^20 trials each on one
worker.  Give the two runs different seeds, so their samples are
independent whatever the layouts share.  pytest does not collect this
file.
"""
import argparse
import json
import math
import sys
import time
from pathlib import Path

POINTS = [("golay", (4, 3, 3), 3e-3), ("golay", (4, 3, 3), 1e-3),
          ("hamming", (2, 2, 2), 3e-3), ("hamming", (2, 2, 2), 1e-3)]
TRIALS = 1 << 20


def run(src: str, seed: int, trials: int) -> dict:
    sys.path.insert(0, src)
    from ftqec import simulator
    from ftqec.noise import NoiseParams
    from ftqec.protocol import ProtocolParams

    out = {"src": src, "seed": seed, "points": []}
    for name, (r, rp, rpp), gamma in POINTS:
        cfg = simulator.SimConfig(name, NoiseParams(gamma, gamma / 100, 25),
                                  ProtocolParams(r, rp, rpp, parallel_corrections=1.0),
                                  target_failures=10**12, max_trials=trials)
        start = time.perf_counter()
        stats = simulator.estimate_pbar_mc(cfg, seed=seed)
        out["points"].append({"code": name, "gamma": gamma, "trials": stats.trials,
                              "n_f": stats.n_f.tolist(), "n_s": stats.n_s.tolist(),
                              "unverified": stats.unverified,
                              "seconds": round(time.perf_counter() - start, 1)})
        print(f"{name} gamma={gamma:g}: {stats.trials} trials, "
              f"{int(stats.n_f.sum())} crashes", file=sys.stderr)
    return out


def two_sample(a: int, b: int) -> tuple[float, float]:
    """z of a - b given a + b, and its two-sided p-value."""
    if a + b == 0:
        return 0.0, 1.0
    z = (a - b) / math.sqrt(a + b)
    return z, math.erfc(abs(z) / math.sqrt(2))


def compare(first: dict, second: dict) -> list[str]:
    lines = []
    for p, q in zip(first["points"], second["points"], strict=True):
        assert (p["code"], p["gamma"], p["trials"]) == (q["code"], q["gamma"], q["trials"])
        for label, a, b in (("crashes at step Q_MAX", p["n_f"][-1], q["n_f"][-1]),
                            ("crashes in all", sum(p["n_f"]), sum(q["n_f"])),
                            ("unverified ancillas", p["unverified"], q["unverified"])):
            z, pval = two_sample(a, b)
            lines.append(f"{p['code']} gamma={p['gamma']:g} ({p['trials']} trials) {label}: "
                         f"{a} vs {b} (z {z:+.2f}, p {pval:.2f})")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the points on one source tree")
    r.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--trials", type=int, default=TRIALS)
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare", help="two-sample tests between two count files")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    if args.cmd == "run":
        Path(args.out).write_text(json.dumps(run(args.src, args.seed, args.trials), indent=1))
    else:
        counts = [json.loads(Path(f).read_text()) for f in (args.first, args.second)]
        print("\n".join(compare(*counts)))


if __name__ == "__main__":
    main()
