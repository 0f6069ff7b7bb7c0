"""Time the [L_m, L_n] bracket grid and ``openstring virasoro`` at its defaults.

Two measurements, each repeated ``--repeat`` times:

* the level-2 grid at d = 26: ``virasoro_bracket_scan`` on every one of
  the 28 pairs m <= n, |m|, |n| <= 3, over all 377 level-2 states at the
  CLI's fixed integral probe (2, 1, 0, ..., 0, 1), timed pair by pair;
* ``openstring virasoro`` with no arguments, in a fresh interpreter, so the
  time includes interpreter start; the SHA-256 of its report is recorded,
  so two checkouts can be compared for byte-identical output.

The package is imported from ``src/`` of the checkout holding this script,
so a copy of the script placed in another checkout times that checkout.
The result, with machine metadata (Python, numpy, core count, load
average), is written as JSON:

    python3 scripts/bench_bracket_grid.py --out BENCH_10.json
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
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from openstring.fiber import Momentum, virasoro_bracket_scan  # noqa: E402
from openstring.fock import ModelParams  # noqa: E402

D = 26
LEVEL = 2
BOUND = 3


def _pairs():
    return [(m, n) for m in range(-BOUND, BOUND + 1)
            for n in range(m, BOUND + 1)]


def time_grid() -> dict:
    """Seconds per mode pair, plus the number of states and of residuals."""
    params = ModelParams(d=D)
    comps = [Fraction(0)] * D
    comps[0], comps[1], comps[-1] = Fraction(2), Fraction(1), Fraction(1)
    p = Momentum(comps)
    per_pair, states, nonzero = {}, 0, 0
    for m, n in _pairs():
        t0 = time.perf_counter()
        out = virasoro_bracket_scan(m, n, LEVEL, p, params)
        per_pair[f"{m},{n}"] = time.perf_counter() - t0
        states += len(out)
        nonzero += sum(1 for _, res in out if res)
    return {"per_pair_s": per_pair, "states": states, "nonzero": nonzero}


def time_cli() -> dict:
    """Wall time and report digest of ``openstring virasoro`` at defaults."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c",
           "import sys; from openstring.cli import main; sys.exit(main())",
           "virasoro"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, check=False)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit": proc.returncode,
            "report_sha256": hashlib.sha256(proc.stdout).hexdigest()}


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
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs of the grid and of the CLI (default 3)")
    ap.add_argument("--out", default="BENCH_10.json",
                    help="where to write the JSON result")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    machine = _machine()
    grids, clis = [], []
    for _ in range(args.repeat):
        grids.append(time_grid())
        clis.append(time_cli())
    totals = [sum(g["per_pair_s"].values()) for g in grids]
    per_pair = {key: statistics.median(g["per_pair_s"][key] for g in grids)
                for key in grids[0]["per_pair_s"]}
    cli_walls = [c["wall_s"] for c in clis]
    result = {
        "commit": _git_head(),
        "machine": machine,
        "loadavg_after": list(os.getloadavg()),
        "repeat": args.repeat,
        "grid": {
            "d": D, "level": LEVEL, "pairs": len(per_pair),
            "states": grids[0]["states"],
            "nonzero_residuals": sum(g["nonzero"] for g in grids),
            "total_s": totals,
            "total_median_s": statistics.median(totals),
            "per_pair_median_s": per_pair,
        },
        "cli_virasoro": {
            "wall_s": cli_walls,
            "wall_median_s": statistics.median(cli_walls),
            "exit_codes": sorted({c["exit"] for c in clis}),
            "report_sha256": sorted({c["report_sha256"] for c in clis}),
        },
        "grid_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({"grid_total_median_s": result["grid"]["total_median_s"],
                      "cli_wall_median_s":
                          result["cli_virasoro"]["wall_median_s"]}))
    bad = result["grid"]["nonzero_residuals"] or \
        result["cli_virasoro"]["exit_codes"] != [0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
