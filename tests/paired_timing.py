"""Paired in-process timing of one benchmark workload on two source trees.

Two live worker processes, one per ``--src`` tree, each set up one
``perfbench/workloads.py`` workload once and then, round by round, time
``--calls`` repeats of its timed call.  The rounds alternate which worker
goes first, so the host's drift falls on both sides alike, and each
worker pays its imports and set-up once, outside the timing.

    python3 tests/paired_timing.py --src OLD/src --src NEW/src \\
        --workload mc-quiet --calls 200 --rounds 40 --seed 7

Each worker checks its first output with the workload's own check and
every later output against its first.  The script prints, per tree, the
median time per call over the rounds, its IQR and the rounds it won,
then the ratio of the medians and whether the two trees' outputs agree.
It writes nothing under ``perfbench/``; ``--out FILE`` keeps the
per-round times as JSON.  pytest does not collect this file.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def worker(src: str, name: str, seed: int) -> None:
    """Serve timing rounds on stdin: each line is a call count, each reply
    one JSON line with the mean seconds per call and any problems."""
    sys.path[:0] = [src, str(BENCH_DIR)]
    import ftqec
    import ftqec.analytic, ftqec.concat, ftqec.simulator, ftqec.sweep  # noqa: E401,F401
    import workloads
    if Path(ftqec.__file__).resolve().parent != (Path(src) / "ftqec").resolve():
        raise SystemExit(f"ftqec imported from {ftqec.__file__}, not {src}")
    wl = workloads.Workload(name, seed, ftqec)
    wl.setup()
    first = wl.summary(wl.run())
    problems = wl.check(first)
    print(json.dumps({"summary": first, "problems": problems}), flush=True)
    for line in iter(sys.stdin.readline, ""):
        calls, problems = int(line), []
        start = time.perf_counter()
        outs = [wl.run() for _ in range(calls)]
        seconds = (time.perf_counter() - start) / calls
        if any(wl.summary(out) != first for out in outs):
            problems.append("output differs from the first call")
        print(json.dumps({"seconds": seconds, "problems": problems}), flush=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", action="append", required=True,
                    help="a tree's src directory; give it twice, the reference first")
    ap.add_argument("--workload", required=True, choices=("mc-noisy", "mc-quiet", "model"))
    ap.add_argument("--calls", type=int, default=200, help="timed calls per round")
    ap.add_argument("--rounds", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="write the per-round times here as JSON")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.src[0], args.workload, args.seed)
        return
    if len(args.src) != 2:
        ap.error("give --src twice")
    if args.calls < 1 or args.rounds < 2:
        ap.error("give at least 1 call per round and 2 rounds")
    procs = [subprocess.Popen([sys.executable, __file__, "--worker", "--src", src,
                               "--workload", args.workload, "--seed", str(args.seed)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for src in args.src]
    try:
        firsts = [json.loads(p.stdout.readline()) for p in procs]
        problems = [list(f["problems"]) for f in firsts]
        times: list[list[float]] = [[], []]
        for r in range(args.rounds):
            for side in (0, 1) if r % 2 == 0 else (1, 0):
                procs[side].stdin.write(f"{args.calls}\n")
                procs[side].stdin.flush()
                reply = json.loads(procs[side].stdout.readline())
                times[side].append(reply["seconds"])
                problems[side] += reply["problems"]
    finally:
        for p in procs:
            p.stdin.close()
            p.wait()
    won = [sum(a < b for a, b in zip(times[side], times[1 - side])) for side in (0, 1)]
    print(f"{args.workload}, seed {args.seed}: {args.rounds} rounds of {args.calls} calls, "
          "seconds per call")
    for side, src in enumerate(args.src):
        q1, median, q3 = quartiles(times[side])
        print(f"  {src}: median {median:.6g}, IQR {q3 - q1:.3g}, "
              f"won {won[side]} of {args.rounds}, "
              f"{'outputs correct' if not problems[side] else problems[side]}")
    medians = [quartiles(t)[1] for t in times]
    print(f"  ratio {medians[0] / medians[1]:.3f}x (reference over second tree); "
          f"outputs {'agree' if firsts[0]['summary'] == firsts[1]['summary'] else 'differ'} "
          "across the trees")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "calls": args.calls,
             "src": args.src, "seconds": times, "won": won, "problems": problems}, indent=1))
    if any(problems):
        sys.exit(1)


if __name__ == "__main__":
    main()
