"""Time the support slices, ``project_pi`` and ``openstring observable``.

Every in-process measurement uses the headline test function of
``openstring observable --radius 1/10 --word 1:1``: the realified word
1:1 at d = 26, b = 1, on a mollifier of radius 1/10.  Each of the
following is repeated ``--repeat`` times:

* ``verify_support`` as the CLI calls it: a 1024-point grid on the axes
  0..3, the radial transform of the 1024 momenta included;
* ``project_pi`` on the CLI's quadrature (``--grid`` 256, ``--dq`` 2,
  ``--extent`` 24/R);
* the whole operation in process, ``cli.main`` on the argv above with
  its report captured: warm, after one untimed operation, and cold, with
  the cache of Gauss-Legendre rules emptied before each operation (on a
  checkout without that cache, cold and warm are the same work);
* ``openstring observable --radius 1/10`` (word 1:1, the default) and
  ``openstring observable`` (radius 1) in a fresh interpreter, so the
  time includes interpreter start and numpy's import; the exit code, the
  child's peak RSS and the SHA-256 of stdout are recorded, so two
  checkouts can be compared for byte-identical reports.

One in-process call takes a few hundredths of a second, too short to
time on a shared machine, so each repeat times ``PASSES`` calls and
reports the time of one call as their mean.  Each repeat is recorded raw
and scaled to the reference speed by ``perfbench/refclock.py``, as
``bench_bracket_grid.py`` scales its grid: a fixed loop is timed every
``BURST_INTERVAL`` seconds while the calls run, the time less the bursts
is divided by the mean burst, and the raw times keep the bursts.  The CLI
times are raw.  The in-process peak RSS is that of this process.

The package is imported from ``src/`` of the checkout holding this script,
and the machine metadata and ``time_cli`` come from
``bench_bracket_grid.py`` next to it, so a copy of both scripts placed in
another checkout times that checkout.  The result is written as JSON:

    python3 scripts/bench_observable.py --out BENCH_28.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_bracket_grid import BURST_INTERVAL, _git_head, _machine, \
    _spread, time_cli  # noqa: E402
from refclock import RefClock, scaled  # noqa: E402
from openstring import cli  # noqa: E402
from openstring.field import QuadratureSpec, project_pi  # noqa: E402
from openstring.fock import ModelParams  # noqa: E402
from openstring.testfn import BumpProfile, _leggauss_on, make_testfunction, \
    realify, verify_support  # noqa: E402

D = 26
RADIUS = Fraction(1, 10)
WORD = [(1, 1)]
ARGV = ("observable", "--radius", "1/10", "--word", "1:1")
PASSES = 10
# name -> (argv, expected exit code)
CLI_RUNS = {"radius_1_10": (("observable", "--radius", "1/10"), 0),
            "radius_1": (("observable",), 0)}


def _operation() -> dict:
    """The report of one in-process ``openstring observable`` operation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(ARGV))
    if code != 0:
        raise RuntimeError(f"observable exited {code}")
    return json.loads(out.getvalue())


def time_calls(call, before=None) -> dict:
    """Seconds per call of ``call()``, the mean over ``PASSES`` calls, raw
    and at the reference speed.  ``before()``, if given, runs untimed
    ahead of every call."""
    raw = bursts = 0.0
    with RefClock(BURST_INTERVAL) as clock:
        for _ in range(PASSES):
            if before is not None:
                before()
            mark = len(clock.bursts)
            t0 = time.perf_counter()
            result = call()
            raw += time.perf_counter() - t0
            bursts += sum(clock.bursts[mark:])
    mean_burst = clock.summary()[1]
    return {"wall_s": raw / PASSES,
            "scaled_s": scaled(raw, bursts, mean_burst) / PASSES,
            "result": result}


def _summary(runs: list) -> dict:
    """Raw and scaled times of the repeats with their medians and
    quartiles."""
    out = {"passes": PASSES}
    for name in ("wall_s", "scaled_s"):
        values = [r[name] for r in runs]
        spread = _spread(values)
        out[name] = values
        out[f"{name[:-2]}_median_s"] = spread["median"]
        out[f"{name[:-2]}_quartiles_s"] = spread["quartiles"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="runs of each measurement (default 5)")
    ap.add_argument("--out", required=True,
                    help="where to write the JSON result")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    machine = _machine()
    params = ModelParams(d=D)
    tf = realify(make_testfunction(WORD, BumpProfile(RADIUS, D), params))
    spec = QuadratureSpec(d_q=2, extent=24.0 / float(RADIUS), n=256)
    clear = getattr(_leggauss_on, "cache_clear", None)
    layers = {
        "verify_support": (lambda: verify_support(
            tf, grid=1024, axes=(0, 1, 2, 3)).worst_fraction, None),
        "project_pi": (lambda: len(project_pi(tf, spec).levels), None),
        "operation_warm": (_operation, None),
        "operation_cold": (_operation, clear),
    }
    _operation()
    runs = {name: [] for name in layers}
    clis = {name: [] for name in CLI_RUNS}
    for _ in range(args.repeat):
        for name, (call, before) in layers.items():
            runs[name].append(time_calls(call, before))
        for name, (cli_argv, _) in CLI_RUNS.items():
            clis[name].append(time_cli(*cli_argv))
    reports = {json.dumps(r["result"], sort_keys=True)
               for name in ("operation_warm", "operation_cold")
               for r in runs[name]}
    result = {
        "commit": _git_head(),
        "machine": machine,
        "loadavg_after": list(os.getloadavg()),
        "repeat": args.repeat,
        "argv": list(ARGV),
        **{name: _summary(layer_runs) for name, layer_runs in runs.items()},
        "support_worst_fraction": sorted(
            {r["result"] for r in runs["verify_support"]}),
        "operation_reports_identical": len(reports) == 1,
        "operation_pass": sorted({json.loads(r)["pass"] for r in reports}),
        "cli_observable": {
            name: {
                "argv": list(CLI_RUNS[name][0]),
                "wall_s": [c["wall_s"] for c in cli_runs],
                "wall_median_s": statistics.median(
                    c["wall_s"] for c in cli_runs),
                "peak_rss_mb": [c["peak_rss_mb"] for c in cli_runs],
                "exit_codes": sorted({c["exit"] for c in cli_runs}),
                "report_sha256": sorted({c["report_sha256"] for c in cli_runs}),
            }
            for name, cli_runs in clis.items()
        },
        "in_process_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        **{f"{name}_{key}_median_s": result[name][f"{key}_median_s"]
           for name in layers for key in ("wall", "scaled")},
        **{f"cli_{name}_median_s": c["wall_median_s"]
           for name, c in result["cli_observable"].items()}}))
    bad = result["operation_pass"] != [True] \
        or not result["operation_reports_identical"] \
        or any(c["exit_codes"] != [CLI_RUNS[name][1]]
               or len(c["report_sha256"]) != 1
               for name, c in result["cli_observable"].items())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
