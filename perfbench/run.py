#!/usr/bin/env python3
"""Benchmark of the four claim pipelines of ``openstring``.

    python3 perfbench/run.py --workload observable --seed 1 --seconds 10 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout, never from an installed copy.  One run builds the
workload's inputs from ``--seed`` and runs whole operations, one after
another in this process, until ``--seconds`` have passed; every output is
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median time
of one operation after import; ``setup_s``, the median over fresh
interpreters of the time to import the package and build the inputs; and
``peak_rss_mb`` of this process.  Both times are scaled to the
machine's reference speed by :mod:`refclock`.  ``--trace 1`` alternates
an untraced and a traced operation and reports the per-layer metrics of
:mod:`layers`, read from spans kept in memory and written to
``perfbench/results/`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock, scaled

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
RESULTS = HERE / "results"
SETUP_INTERPRETERS = 5
# Seconds between reference bursts: about 4% of an operation's time, and
# about 16% of a set-up, which is too short for a sparser sample.
OP_INTERVAL = 0.1
SETUP_INTERVAL = 0.025
# The machine this was written for has two cores; one BLAS thread keeps
# the numeric workload single-threaded like the exact ones.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _import_package() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    pkg = SRC / "openstring"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"run.py: no package source at {pkg}; run from a "
                         "checkout of the repository")
    sys.path[:0] = [str(SRC), str(HERE)]
    import openstring
    if Path(openstring.__file__).resolve().parent != pkg:
        raise SystemExit(f"run.py: imported openstring from "
                         f"{openstring.__file__}, not from {pkg}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Fresh interpreter -> package imported and inputs built -> exit,
    scaled by the reference bursts the interpreter timed meanwhile."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--setup-only", "--workload", workload,
                           "--seed", str(seed)],
                          check=True, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    burst_total, burst_mean = json.loads(proc.stdout.strip().split("\n")[-1])
    return scaled(wall, burst_total, burst_mean)


class Outcome:
    """Tallies of one run: attempted, failed and whether checks held."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.correct = True

    def attempt(self, wl, inputs, clock=None):
        """Run one operation: (seconds, result), or (seconds, None) when
        it raised.  With a ``clock`` the seconds are scaled to the
        reference speed."""
        self.attempted += 1
        start = time.perf_counter()
        with clock or contextlib.nullcontext():
            try:
                result = wl.run(inputs)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                self.failed += 1
                result = None
        wall = time.perf_counter() - start
        return (scaled(wall, *clock.summary()) if clock else wall), result

    def check(self, wl, inputs, result) -> None:
        from workloads import CheckFailed

        try:
            wl.check(inputs, result)
        except CheckFailed as exc:
            print(f"check failed on {wl.name}: {exc}", file=sys.stderr)
            self.correct = False

    def report(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def timed_run(wl, seed: int, seconds: float) -> dict:
    setups = [_setup_seconds(wl.name, seed) for _ in range(SETUP_INTERPRETERS)]
    inputs = wl.build(seed)
    out = Outcome()
    walls = []
    start = time.perf_counter()
    clock = RefClock(OP_INTERVAL)
    while not walls or time.perf_counter() - start < seconds:
        wall, result = out.attempt(wl, inputs, clock)
        if result is None:
            if out.failed == out.attempted:
                raise SystemExit("run.py: every operation failed")
            continue
        walls.append(wall)
        out.check(wl, inputs, result)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out.report({
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    })


def traced_run(wl, seed: int, seconds: float) -> dict:
    from layers import EXPECTED, PER_LAYER, TARGETS
    from spans import Tracer, root_seconds, self_times, totals_by_name

    inputs = wl.build(seed)
    tracer = Tracer()
    out = Outcome()
    untraced = traced = 0.0
    rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        wall, plain = out.attempt(wl, inputs)
        # The traced wall covers the whole traced round, wrapper
        # installation included, so what falls outside the root span
        # shows up in trace.unattributed_s.
        t0 = time.perf_counter()
        tracer.install(TARGETS)
        try:
            root = tracer.open("bench.op")
            try:
                _, result = out.attempt(wl, inputs)
            finally:
                tracer.close(root)
        finally:
            tracer.uninstall()
            traced_wall = time.perf_counter() - t0
        if plain is None or result is None:
            if out.failed == out.attempted:
                raise SystemExit("run.py: every operation failed")
            continue
        rounds += 1
        untraced += wall
        traced += traced_wall
        out.check(wl, inputs, plain)
        out.check(wl, inputs, result)

    spans = tracer.spans()
    selfs = self_times(spans)
    totals = totals_by_name(spans, selfs)
    rooted = root_seconds(spans)
    # Sanity assert on the span arithmetic: for properly nested spans the
    # self times add up to the root spans by construction, so this catches
    # a broken span tree, not a gap in coverage (that is
    # trace.unattributed_s).
    if abs(sum(selfs) - rooted) > 1e-6 * max(1.0, rooted):
        raise SystemExit("run.py: span self times do not add up to the "
                         "root spans")

    def calls(name):
        return totals[name][0] if name in totals else tracer.count(name)

    dead = [name for name in EXPECTED[wl.name] if not calls(name)]
    if dead:
        raise SystemExit(f"run.py: wrappers with no call on {wl.name}: "
                         + ", ".join(dead))

    def value(how, source):
        names = source if isinstance(source, tuple) else (source,)
        if how == "total":
            return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)
        if how == "self":
            return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)
        if how == "calls":
            return sum(calls(n) for n in names)
        if how == "count":
            return tracer.count(source)
        if how == "max":
            return tracer.maxima.get(source, 0)
        if how == "rate":
            busy = value("total", ("fiber.scan_fast", "fiber.scan_reference"))
            return tracer.count("fiber.scan_states") / busy if busy else 0.0
        if how == "overhead":
            return traced - untraced
        if how == "unattributed":
            return traced - rooted
        raise ValueError(how)

    # sums over the traced rounds become values per operation
    metrics = {}
    for name, unit, how, source in PER_LAYER:
        v = value(how, source)
        if how not in ("max", "rate"):
            v /= rounds
        metrics[name] = {"value": v, "unit": unit}

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"trace-{wl.name}-seed{seed}"
    tracer.write(stem.with_suffix(".csv.gz"))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"rounds": rounds, "traced_s": traced,
                   "untraced_s": untraced,
                   "by_name": {n: {"calls": c, "total_s": t, "self_s": s}
                               for n, (c, t, s) in sorted(totals.items())},
                   "counts": tracer.counters(),
                   "maxima": tracer.maxima}, fh, indent=1, sort_keys=True)
    return out.report(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    with RefClock(SETUP_INTERVAL) if args.setup_only else \
            contextlib.nullcontext() as clock:
        _import_package()
        from workloads import WORKLOADS

        wl = WORKLOADS.get(args.workload)
        if wl is None:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        if args.setup_only:
            wl.build(args.seed)
    if args.setup_only:
        print(json.dumps(clock.summary()))
        return 0
    if args.trace:
        result = traced_run(wl, args.seed, args.seconds)
    else:
        result = timed_run(wl, args.seed, args.seconds)
    line = json.dumps(result, sort_keys=True)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
