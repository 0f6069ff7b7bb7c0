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
reports the time of one call as their mean, raw and scaled to the
reference speed by ``benchkit.py``, and so are the CLI times, each
scaled by the bursts its own interpreter timed.  The in-process peak
RSS is that of this process.

The package is imported through ``benchkit.py`` next to this script, so
a copy of all of ``scripts/`` placed in another checkout times that
checkout.  The result is written as JSON:

    python3 scripts/bench_observable.py --out observable.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction

import benchkit
from openstring import cli
from openstring.field import QuadratureSpec, project_pi
from openstring.fock import ModelParams
from openstring.testfn import BumpProfile, _leggauss_on, make_testfunction, \
    realify, verify_support

D = 26
RADIUS = Fraction(1, 10)
WORD = [(1, 1)]
ARGV = ("observable", "--radius", "1/10", "--word", "1:1")
PASSES = 10
CLI_RUNS = {"radius_1_10": ("observable", "--radius", "1/10"),
            "radius_1": ("observable",)}


def _operation() -> dict:
    """The report of one in-process ``openstring observable`` operation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(ARGV))
    if code != 0:
        raise RuntimeError(f"observable exited {code}")
    return json.loads(out.getvalue())


def main(argv=None) -> int:
    args = benchkit.parse_args(__doc__, 5, argv)
    machine = benchkit.machine()
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
            runs[name].append(benchkit.time_calls(call, PASSES, before))
        for name, cli_argv in CLI_RUNS.items():
            clis[name].append(benchkit.run_cli(*cli_argv))
    reports = {json.dumps(report, sort_keys=True)
               for name in ("operation_warm", "operation_cold")
               for r in runs[name] for report in r["results"]}
    body = {
        "argv": list(ARGV),
        **{name: {"passes": PASSES,
                  **benchkit.summary(layer_runs, "wall", "scaled")}
           for name, layer_runs in runs.items()},
        "support_worst_fraction": sorted(
            {x for r in runs["verify_support"] for x in r["results"]}),
        "operation_reports_identical": len(reports) == 1,
        "operation_pass": sorted({json.loads(r)["pass"] for r in reports}),
        "cli_observable": {name: benchkit.cli_summary(cli_argv, clis[name])
                           for name, cli_argv in CLI_RUNS.items()},
    }
    headline = {
        **{f"{name}_{key}_median_s": body[name][f"{key}_median_s"]
           for name in layers for key in ("wall", "scaled")},
        **{f"cli_{name}_median_s": c["wall_median_s"]
           for name, c in body["cli_observable"].items()}}
    ok = body["operation_pass"] == [True] \
        and body["operation_reports_identical"] \
        and all(c["exit_codes"] == [0] and len(c["report_sha256"]) == 1
                for c in body["cli_observable"].values())
    return benchkit.finish(args.out, machine, args.repeat, body,
                           "in_process_peak_rss_mb", headline, ok)


if __name__ == "__main__":
    sys.exit(main())
