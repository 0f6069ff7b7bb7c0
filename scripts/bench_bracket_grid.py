"""Time the [L_m, L_n] bracket grid and ``openstring virasoro`` at its defaults.

Three measurements, each repeated ``--repeat`` times:

* the level-2 grid at d = 26: ``virasoro_bracket_scan`` on every one of
  the 28 pairs m <= n, |m|, |n| <= 3, over all 377 level-2 states, timed
  pair by pair, at the CLI's two probes: the fixed integral one
  (2, 1, 0, ..., 0, 1) and the seeded rational one at the default seed,
  whose 20 nonzero components make the cross terms, and so the creator
  parts of L_m, largest;
* ``openstring virasoro`` with no arguments, in a fresh interpreter, so the
  time includes interpreter start; the SHA-256 of its report is recorded,
  so two checkouts can be compared for byte-identical output.

The package is imported from ``src/`` of the checkout holding this script,
so a copy of the script placed in another checkout times that checkout.
The result, with machine metadata (Python, numpy, core count, load
average), is written as JSON:

    python3 scripts/bench_bracket_grid.py --out BENCH_20.json
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
sys.path.insert(0, str(SRC))

from openstring.cli import _probe_momenta  # noqa: E402
from openstring.fiber import virasoro_bracket_scan  # noqa: E402
from openstring.fock import ModelParams  # noqa: E402

D = 26
LEVEL = 2
BOUND = 3


def _pairs():
    return [(m, n) for m in range(-BOUND, BOUND + 1)
            for n in range(m, BOUND + 1)]


def time_grid(p) -> dict:
    """Seconds per mode pair, plus the number of states and of residuals."""
    params = ModelParams(d=D)
    per_pair, states, nonzero = {}, 0, 0
    for m, n in _pairs():
        t0 = time.perf_counter()
        out = virasoro_bracket_scan(m, n, LEVEL, p, params)
        per_pair[f"{m},{n}"] = time.perf_counter() - t0
        states += len(out)
        nonzero += sum(1 for _, res in out if res)
    return {"per_pair_s": per_pair, "states": states, "nonzero": nonzero}


def _summary(p, grids: list) -> dict:
    """Totals and per-pair medians of repeated runs of one probe's grid."""
    totals = [sum(g["per_pair_s"].values()) for g in grids]
    per_pair = {key: statistics.median(g["per_pair_s"][key] for g in grids)
                for key in grids[0]["per_pair_s"]}
    return {
        "d": D, "level": LEVEL, "pairs": len(per_pair),
        "momentum": [str(c) for c in p],
        "nonzero_components": sum(1 for c in p if c),
        "states": grids[0]["states"],
        "nonzero_residuals": sum(g["nonzero"] for g in grids),
        "total_s": totals,
        "total_median_s": statistics.median(totals),
        "per_pair_median_s": per_pair,
    }


def time_cli(*argv) -> dict:
    """Wall time, exit code and the digests of stdout (the report) and of
    stderr (a refusal's evidence) of ``openstring *argv`` run in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c",
           "import sys; from openstring.cli import main; sys.exit(main())",
           *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, check=False)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "exit": proc.returncode,
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
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs of the grid and of the CLI (default 3)")
    ap.add_argument("--out", default="BENCH_20.json",
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
    result = {
        "commit": _git_head(),
        "machine": machine,
        "loadavg_after": list(os.getloadavg()),
        "repeat": args.repeat,
        **{name: _summary(p, grids[name]) for name, p in probes.items()},
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
    print(json.dumps({
        **{f"{name}_total_median_s": result[name]["total_median_s"]
           for name in probes},
        "cli_wall_median_s": result["cli_virasoro"]["wall_median_s"]}))
    bad = any(result[name]["nonzero_residuals"] for name in probes) or \
        result["cli_virasoro"]["exit_codes"] != [0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
