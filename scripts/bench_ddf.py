"""Time the kappa calibration and ``openstring ddf``.

Two measurements, each repeated ``--repeat`` times:

* ``calibrate_normalization`` in process at d = 26 on the CLI's two probe
  momenta ``_probe_momenta(26, seed)`` for seeds 0 and 2, with the CLI's
  candidates 1, 1/2 and 2: 24 transverse directions, |m|, |n| <= 2 and the
  404 probes of level <= 2;
* ``openstring ddf`` in a fresh interpreter, at its defaults, with
  ``--seed 2``, and on the reject path ``--kappa-set 1/2 2`` (exit 3, the
  witnesses on stderr), so the time includes interpreter start; the exit
  code and the SHA-256 of stdout and stderr are recorded, so two checkouts
  can be compared for byte-identical output.

The package is imported from ``src/`` of the checkout holding this script,
and the machine metadata comes from ``bench_bracket_grid.py`` next to it,
so a copy of both scripts placed in another checkout times that checkout.
The result is written as JSON:

    python3 scripts/bench_ddf.py --out BENCH_ddf.json
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_bracket_grid import _git_head, _machine, time_cli  # noqa: E402
from openstring.cli import _probe_momenta  # noqa: E402
from openstring.ddf import calibrate_normalization  # noqa: E402
from openstring.fock import ModelParams  # noqa: E402

D = 26
SEEDS = (0, 2)
# name -> (argv, expected exit code)
CLI_RUNS = {"default": (("ddf",), 0),
            "seed_2": (("ddf", "--seed", "2"), 0),
            "reject": (("ddf", "--kappa-set", "1/2", "2"), 3)}


def time_calibration(seed: int) -> dict:
    """Seconds for one calibration on the CLI's momenta at ``seed``."""
    momenta = _probe_momenta(D, seed)
    t0 = time.perf_counter()
    kappa = calibrate_normalization(ModelParams(d=D), momenta)
    return {"wall_s": time.perf_counter() - t0, "kappa": str(kappa)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs of each calibration and CLI call (default 3)")
    ap.add_argument("--out", required=True,
                    help="where to write the JSON result")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    machine = _machine()
    calibrations = {seed: [] for seed in SEEDS}
    clis = {name: [] for name in CLI_RUNS}
    for _ in range(args.repeat):
        for seed in SEEDS:
            calibrations[seed].append(time_calibration(seed))
        for name, (cli_argv, _) in CLI_RUNS.items():
            clis[name].append(time_cli(*cli_argv))
    result = {
        "commit": _git_head(),
        "machine": machine,
        "loadavg_after": list(os.getloadavg()),
        "repeat": args.repeat,
        "calibration": {
            f"seed_{seed}": {
                "d": D,
                "momenta": [[str(c) for c in p]
                            for p in _probe_momenta(D, seed)],
                "wall_s": [r["wall_s"] for r in runs],
                "wall_median_s": statistics.median(r["wall_s"] for r in runs),
                "kappa": sorted({r["kappa"] for r in runs}),
            }
            for seed, runs in calibrations.items()
        },
        "cli_ddf": {
            name: {
                "argv": list(CLI_RUNS[name][0]),
                "wall_s": [c["wall_s"] for c in runs],
                "wall_median_s": statistics.median(c["wall_s"] for c in runs),
                "exit_codes": sorted({c["exit"] for c in runs}),
                "report_sha256": sorted({c["report_sha256"] for c in runs}),
                "stderr_sha256": sorted({c["stderr_sha256"] for c in runs}),
            }
            for name, runs in clis.items()
        },
        "calibration_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        **{f"calibration_{name}_median_s": cal["wall_median_s"]
           for name, cal in result["calibration"].items()},
        **{f"cli_{name}_median_s": cli["wall_median_s"]
           for name, cli in result["cli_ddf"].items()}}))
    bad = any(cal["kappa"] != ["1"] for cal in result["calibration"].values()) \
        or any(cli["exit_codes"] != [CLI_RUNS[name][1]]
               for name, cli in result["cli_ddf"].items())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
