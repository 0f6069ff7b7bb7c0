#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same commit agree?

    python3 perfbench/steady.py --runs 10

Runs the benchmark command of ``BENCHMARK.json`` on every workload, once
per seed 1 .. ``--runs``, and then does the same again as a second set.
For each end-to-end metric it reports, per set, the median and the spread
(distance between the first and third quartile as a share of the median),
and the shift of the second median against the first.  A metric agrees
when both spreads and the shift, in either direction, stay within the
metric's bound, and the share of failed operations is the same in both
sets.  Exit status 0 means every metric on every workload agrees.  The
table goes to standard output and the runs to
``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def spread(values) -> float:
    """Interquartile distance over the median, as the acceptance rule
    takes it (``statistics.quantiles`` with n=4, exclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def shift(first: float, second: float) -> float:
    """Change of the second median against the first, as a share."""
    return (second - first) / first


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady.py: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def compare(bench: dict, sets: list) -> tuple:
    """Rows of (workload, metric, per-set medians and spreads, shift, ok)."""
    rows, all_ok = [], True
    for wl in bench["workloads"]:
        name = wl["name"]
        runs = [s[name] for s in sets]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in runs]
        correct = all(r["correct"] for rs in runs for r in rs)
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][key]["value"] for r in rs] for rs in runs]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            moved = shift(medians[0], medians[1])
            ok = (correct and len(set(shares)) == 1 and abs(moved) <= bound
                  and max(spreads) <= bound)
            all_ok &= ok
            rows.append((name, key, bound, medians, spreads, moved, ok))
    return rows, all_ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload and set (at least 4)")
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least four runs")
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = range(1, args.runs + 1)
    sets = [{wl["name"]: [run_once(bench, wl["name"], seed) for seed in seeds]
             for wl in bench["workloads"]}
            for _ in range(2)]
    rows, all_ok = compare(bench, sets)
    print(f"{'workload':<11} {'metric':<12} {'bound':>5} "
          + " ".join(f"{'median' + str(i + 1):>10} {'spread' + str(i + 1):>8}"
                     for i in range(2))
          + f" {'shift':>7} {'spread/bound':>12}  agree")
    for name, key, bound, medians, spreads, moved, ok in rows:
        cells = " ".join(f"{m:>10.4f} {s:>8.4f}"
                         for m, s in zip(medians, spreads))
        print(f"{name:<11} {key:<12} {bound:>5.2f} {cells} {moved:>7.4f} "
              f"{max(spreads) / bound:>12.2f}  {'yes' if ok else 'NO'}")
    (HERE / "results").mkdir(exist_ok=True)
    (HERE / "results" / "steady.json").write_text(
        json.dumps({"seeds": list(seeds),
                    "sets": sets}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
