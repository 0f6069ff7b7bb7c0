"""Time the [L_m, L_n] bracket grid and ``openstring virasoro`` at its defaults.

Three measurements, each repeated ``--repeat`` times and reported as the
median with the lower and upper quartiles:

* the level-2 grid at d = 26: ``virasoro_bracket_scan`` on every one of
  the 28 pairs m <= n, |m|, |n| <= 3, over all 377 level-2 states, timed
  pair by pair, at the CLI's two probes: the fixed integral one
  (2, 1, 0, ..., 0, 1) and the seeded rational one at the default seed,
  whose 20 nonzero components make the cross terms, and so the creator
  parts of L_m, largest.  One pass of a grid takes about 0.1 s, too
  short to time on a shared machine, so each repeat times ``PASSES``
  passes and reports the time of one pass as their mean.  The machine's
  speed also switches by up to 1.5x within a run, which more passes do
  not average away, so each repeat also reports its total scaled to the
  reference speed by ``perfbench/refclock.py``: a fixed loop timed every
  ``BURST_INTERVAL`` seconds while the passes run.  The per-pair times
  are raw and include those bursts (a few per cent);
* ``openstring virasoro`` with no arguments, in a fresh interpreter, so the
  time includes interpreter start; the SHA-256 of its report is recorded,
  so two checkouts can be compared for byte-identical output.

The package is imported from ``src/`` of the checkout holding this script,
so a copy of the script placed in another checkout times that checkout.
The result, with machine metadata (Python, numpy, core count, load
average), is written as JSON:

    python3 scripts/bench_bracket_grid.py --out BENCH_21.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

from openstring.cli import _probe_momenta  # noqa: E402
from openstring.fiber import virasoro_bracket_scan  # noqa: E402
from openstring.fock import ModelParams  # noqa: E402
from refclock import RefClock, scaled  # noqa: E402

D = 26
LEVEL = 2
BOUND = 3
#: passes of the grid timed in one repeat
PASSES = 10
#: seconds between the reference bursts that scale a repeat's total
BURST_INTERVAL = 0.2


def _pairs():
    return [(m, n) for m in range(-BOUND, BOUND + 1)
            for n in range(m, BOUND + 1)]


def time_grid(p) -> dict:
    """Seconds per mode pair, the mean over ``PASSES`` passes of the grid;
    one pass's total at the reference speed; the states of one pass and
    the nonzero residuals of all."""
    params = ModelParams(d=D)
    per_pair = {f"{m},{n}": 0.0 for m, n in _pairs()}
    states, nonzero = 0, 0
    with RefClock(BURST_INTERVAL) as clock:
        start = time.perf_counter()
        for _ in range(PASSES):
            states = 0
            for m, n in _pairs():
                t0 = time.perf_counter()
                out = virasoro_bracket_scan(m, n, LEVEL, p, params)
                per_pair[f"{m},{n}"] += (time.perf_counter() - t0) / PASSES
                states += len(out)
                nonzero += sum(1 for _, res in out if res)
        wall = time.perf_counter() - start
    return {"per_pair_s": per_pair, "states": states, "nonzero": nonzero,
            "scaled_s": scaled(wall, *clock.summary()) / PASSES}


def _spread(values: list) -> dict:
    """Median and the lower and upper quartiles (inclusive method)."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "quartiles": [q1, q3]}


def _summary(p, grids: list) -> dict:
    """Totals and per-pair medians of repeated runs of one probe's grid."""
    totals = [sum(g["per_pair_s"].values()) for g in grids]
    scaled_totals = [g["scaled_s"] for g in grids]
    per_pair = {key: statistics.median(g["per_pair_s"][key] for g in grids)
                for key in grids[0]["per_pair_s"]}
    spread, scaled_spread = _spread(totals), _spread(scaled_totals)
    return {
        "d": D, "level": LEVEL, "pairs": len(per_pair), "passes": PASSES,
        "momentum": [str(c) for c in p],
        "nonzero_components": sum(1 for c in p if c),
        "states": grids[0]["states"],
        "nonzero_residuals": sum(g["nonzero"] for g in grids),
        "total_s": totals,
        "total_median_s": spread["median"],
        "total_quartiles_s": spread["quartiles"],
        "scaled_total_s": scaled_totals,
        "scaled_total_median_s": scaled_spread["median"],
        "scaled_total_quartiles_s": scaled_spread["quartiles"],
        "per_pair_median_s": per_pair,
    }


#: ``openstring *argv`` that also writes its peak resident set to the file
#: descriptor given as the first argument: VmHWM, which exec resets, while
#: the ru_maxrss of a forked child starts from this process's size
CLI_CHILD = """
import os, sys
fd = int(sys.argv.pop(1))
from openstring.cli import main
try:
    code = main()
finally:
    with open("/proc/self/status") as status:
        os.write(fd, "".join(line for line in status
                             if line.startswith("VmHWM")).encode())
sys.exit(code)
"""


def time_cli(*argv) -> dict:
    """Wall time, peak RSS (Linux), exit code and the digests of stdout
    (the report) and of stderr (a refusal's evidence) of
    ``openstring *argv`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    read, write = os.pipe()
    cmd = [sys.executable, "-c", CLI_CHILD, str(write), *argv]
    with os.fdopen(read) as pipe:
        try:
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, capture_output=True,
                                  check=False, pass_fds=(write,))
            wall = time.perf_counter() - t0
        finally:
            os.close(write)
        peak_kb = pipe.read().split()[1:2]
    return {"wall_s": wall, "exit": proc.returncode,
            "peak_rss_mb": int(peak_kb[0]) / 1024 if peak_kb else None,
            "report_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest()}


def _git_head() -> str | None:
    """The measured commit, suffixed ``-dirty`` for uncommitted edits."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _machine() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=5,
                    help="runs of the grid and of the CLI (default 5)")
    ap.add_argument("--out", default="BENCH_21.json",
                    help="where to write the JSON result")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    machine = _machine()
    probes = dict(zip(("grid", "grid_seeded"), _probe_momenta(D, 0)))
    grids = {name: [] for name in probes}
    clis = []
    for _ in range(args.repeat):
        for name, p in probes.items():
            grids[name].append(time_grid(p))
        clis.append(time_cli("virasoro"))
    cli_walls = [c["wall_s"] for c in clis]
    cli_spread = _spread(cli_walls)
    result = {
        "commit": _git_head(),
        "machine": machine,
        "loadavg_after": list(os.getloadavg()),
        "repeat": args.repeat,
        **{name: _summary(p, grids[name]) for name, p in probes.items()},
        "cli_virasoro": {
            "wall_s": cli_walls,
            "wall_median_s": cli_spread["median"],
            "wall_quartiles_s": cli_spread["quartiles"],
            "exit_codes": sorted({c["exit"] for c in clis}),
            "report_sha256": sorted({c["report_sha256"] for c in clis}),
        },
        "grid_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        **{f"{name}_{total}_{key}_s": result[name][f"{total}_{key}_s"]
           for name in probes for total in ("total", "scaled_total")
           for key in ("median", "quartiles")},
        "cli_wall_median_s": result["cli_virasoro"]["wall_median_s"],
        "cli_wall_quartiles_s": result["cli_virasoro"]["wall_quartiles_s"]}))
    bad = any(result[name]["nonzero_residuals"] for name in probes) or \
        result["cli_virasoro"]["exit_codes"] != [0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
