"""Steadiness check: do repeated runs of the same code agree?

Runs the benchmark command from ``BENCHMARK.json`` for each workload,
once per seed, in one or two sets, and reports for every end-to-end
metric:

* its median over each set;
* its spread, the interquartile range of a set as a share of the
  set's median (``statistics.quantiles(values, n=4)``);
* whether the spread stays within the metric's bound (``setup_s``
  exempt), and, with two sets, whether the second set's median is worse
  than the first's by no more than the bound;
* the share of failed operations of every run, which must be the same
  in both sets, run for run.

This is the tool the bounds in ``BENCHMARK.json`` are set with::

    python3 perfbench/steady.py --workloads svc-small --seeds 1-5 --sets 1
    python3 perfbench/steady.py --seeds 1-10 --sets 2 --out steady.json

Runs go one after another, never in parallel.  Exit status 0 when every
check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10",
                        help="seed list, e.g. 1-10 or 3,5,8 (default 1-10)")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", default=None,
                        help="also write every run's result here (JSON)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    record: dict = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in seeds:
                res = run_once(bench, workload, seed, args.seconds)
                runs.append(res)
                print(f"{workload} set {k + 1} seed {seed}: "
                      f"wall {res['wall_s']:.1f}s correct {res['correct']} "
                      f"failed {res['failed']}/{res['attempted']}",
                      file=sys.stderr, flush=True)
            sets.append(runs)
        record[workload] = sets
        print(f"\n{workload}: {len(seeds)} seeds x {args.sets} set(s), "
              f"{args.seconds}s runs")
        shares = [[r["failed"] / r["attempted"] for r in runs] for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        same_share = len({s for runs in shares for s in runs}) == 1
        print(f"  correct in every run: {correct}; failed share "
              f"{sorted({round(s, 6) for runs in shares for s in runs})}"
              f"{'' if same_share else '  <-- differs between runs'}")
        ok &= correct and same_share
        print(f"  {'metric':<16} {'bound':>6} " + " ".join(
            f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}"
            for i in range(args.sets)) + "   verdict")
        for name, spec in metrics.items():
            cols, verdict = [], []
            medians = []
            for i, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med = statistics.median(values)
                sp = spread(values)
                medians.append(med)
                cols.append(f"{med:>12.5g} {sp:>8.3f}")
                if name != "setup_s" and sp > spec["bound"]:
                    verdict.append(f"spread{i + 1} > bound")
                elif name != "setup_s" and sp > spec["bound"] / 3:
                    verdict.append(f"spread{i + 1} > bound/3")
            if len(medians) == 2:
                worse = worse_by(medians[0], medians[1], spec["better"])
                cols.append(f"worse {worse:+.3f}")
                if worse > spec["bound"]:
                    verdict.append("median drifted past bound")
            fatal = [v for v in verdict if "bound/3" not in v]
            ok &= not fatal
            print(f"  {name:<16} {spec['bound']:>6} " + " ".join(cols)
                  + "   " + (", ".join(verdict) or "ok"))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
