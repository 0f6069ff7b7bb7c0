"""Time the kappa calibration, the DDF commutator check and ``openstring ddf``.

Four measurements, each repeated ``--repeat`` times:

* ``calibrate_normalization`` in process at d = 26 on the CLI's two probe
  momenta ``_probe_momenta(26, seed)`` for seeds 0 and 2, with the CLI's
  candidates 1, 1/2 and 2: 24 transverse directions, |m|, |n| <= 2 and the
  404 probes of level <= 2;
* ``ddf_commutator_residual`` and ``ddf_commutator_defect`` in process on
  480 seeded cases at d = 26: a momentum with all 26 components nonzero,
  half of them non-integral, and for each (m, n) in {-2, -1, 1, 2}^2 and
  probe level 0, 1, 2 ten draws of a direction in 1..24 and a basis
  monomial, each residual compared with its defect, on one fresh context
  per repeat.  The residual is called first, so the literal composition
  the two builders share is timed in ``residual_s``; ``pair_s`` times each
  case's residual and defect as one span, which does not depend on that
  order;
* the same 480 cases at the symbolic momentum ``sym_momentum(26)``, where
  every coefficient is an ``LcRational`` and a zero residual minus defect
  is a polynomial identity in p;
* ``openstring ddf`` in a fresh interpreter, at its defaults, with
  ``--seed 2``, and on the reject path ``--kappa-set 1/2 2`` (exit 3, the
  witnesses on stderr), so the time includes interpreter start; the exit
  code and the SHA-256 of stdout and stderr are recorded, so two checkouts
  can be compared for byte-identical output.

The in-process spans are recorded raw and scaled to the reference speed
by ``perfbench/refclock.py``, as ``bench_bracket_grid.py`` scales its
grid: a fixed loop is timed every ``BURST_INTERVAL`` seconds while they
run, each span's time less the bursts inside it is divided by the mean
burst, and the raw times keep the bursts.  The machine is shared and its
speed switches by up to 1.5x, which the raw medians follow.  The CLI
times are raw.  The peak RSS recorded is that of this process, which
runs the calibrations and the cases.

The package is imported from ``src/`` of the checkout holding this script,
and the machine metadata comes from ``bench_bracket_grid.py`` next to it,
so a copy of both scripts placed in another checkout times that checkout.
The result is written as JSON:

    python3 scripts/bench_ddf.py --out BENCH_27.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
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
from openstring.cli import _probe_momenta  # noqa: E402
from openstring.ddf import DdfContext, calibrate_normalization, \
    ddf_commutator_defect, ddf_commutator_residual  # noqa: E402
from openstring.fiber import Momentum  # noqa: E402
from openstring.fock import FockVector, ModelParams, iter_level_basis  # noqa: E402
from openstring.poly import sym_momentum  # noqa: E402

D = 26
SEEDS = (0, 2)
CASE_SEED = 1
MODES = (-2, -1, 1, 2)
PER_CELL = 10
#: span -> (start, end) among the three marks around a case's residual
#: and defect
SPANS = {"residual": (0, 1), "defect": (1, 2), "pair": (0, 2)}
# name -> (argv, expected exit code)
CLI_RUNS = {"default": (("ddf",), 0),
            "seed_2": (("ddf", "--seed", "2"), 0),
            "reject": (("ddf", "--kappa-set", "1/2", "2"), 3)}


def time_calibration(seed: int) -> dict:
    """Seconds for one calibration on the CLI's momenta at ``seed``, raw
    and at the reference speed."""
    momenta = _probe_momenta(D, seed)
    # the wall time is taken around the whole block, so it holds the
    # burst RefClock adds on exit when none fired inside
    t0 = time.perf_counter()
    with RefClock(BURST_INTERVAL) as clock:
        kappa = calibrate_normalization(ModelParams(d=D), momenta)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "scaled_s": scaled(wall, *clock.summary()),
            "kappa": str(kappa)}


def defect_cases(seed: int) -> tuple:
    """(momentum, [(m, i, n, basis probe)]): 480 seeded cases."""
    rng = random.Random(seed)
    while True:
        dens = [1] * (D // 2) + [rng.choice((2, 3)) for _ in range(D - D // 2)]
        rng.shuffle(dens)
        comps = [Fraction(rng.choice((-2, -1, 1, 2, 3)), q) for q in dens]
        if comps[0] + comps[-1]:
            break
    params = ModelParams(d=D)
    basis = {lvl: list(iter_level_basis(params, lvl)) for lvl in range(3)}
    cases = [(m, rng.randint(1, D - 2), n,
              FockVector.basis_state(rng.choice(basis[lvl])))
             for m in MODES for n in MODES for lvl in range(3)
             for _ in range(PER_CELL)]
    return Momentum(tuple(comps)), cases


def time_defect_cases(p: Momentum, cases) -> dict:
    """Seconds for the residuals, for the defects and for each case's
    residual and defect together (``pair_s``) of ``cases`` on one fresh
    context at ``p``, raw and at the reference speed, and how many
    residuals differ from their defect."""
    ctx = DdfContext(ModelParams(d=D), p)
    raw = dict.fromkeys(SPANS, 0.0)
    bursts = dict.fromkeys(SPANS, 0.0)
    mismatched = nonzero = 0
    with RefClock(BURST_INTERVAL) as clock:
        for m, i, n, v in cases:
            marks = [(time.perf_counter(), len(clock.bursts))]
            res = ddf_commutator_residual(m, i, n, v, ctx)
            marks.append((time.perf_counter(), len(clock.bursts)))
            dft = ddf_commutator_defect(m, i, n, v, ctx)
            marks.append((time.perf_counter(), len(clock.bursts)))
            for key, (a, b) in SPANS.items():
                raw[key] += marks[b][0] - marks[a][0]
                bursts[key] += sum(clock.bursts[marks[a][1]:marks[b][1]])
            mismatched += res != dft
            nonzero += bool(res)
    mean_burst = clock.summary()[1]
    return {**{f"{key}_s": raw[key] for key in SPANS},
            **{f"scaled_{key}_s": scaled(raw[key], bursts[key], mean_burst)
               for key in SPANS},
            "mismatched": mismatched, "nonzero": nonzero}


def _cases_summary(p, cases, runs: list) -> dict:
    """Raw and scaled times of repeated runs of the cases at ``p``, with
    the median and quartiles of each, and the mismatch counts."""
    out = {"d": D, "seed": CASE_SEED, "cases": len(cases),
           "momentum": [str(c) for c in p]}
    for key in SPANS:
        for name in (f"{key}_s", f"scaled_{key}_s"):
            values = [r[name] for r in runs]
            spread = _spread(values)
            stem = name[:-2]
            out[name] = values
            out[f"{stem}_median_s"] = spread["median"]
            out[f"{stem}_quartiles_s"] = spread["quartiles"]
    out["mismatched"] = sorted({r["mismatched"] for r in runs})
    out["nonzero"] = sorted({r["nonzero"] for r in runs})
    return out


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
    case_p, cases = defect_cases(CASE_SEED)
    momenta = {"defect_cases": case_p, "symbolic_cases": sym_momentum(D)}
    case_runs = {name: [] for name in momenta}
    for _ in range(args.repeat):
        for seed in SEEDS:
            calibrations[seed].append(time_calibration(seed))
        for name, p in momenta.items():
            case_runs[name].append(time_defect_cases(p, cases))
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
                **{name: [r[name] for r in runs]
                   for name in ("wall_s", "scaled_s")},
                "wall_median_s": statistics.median(r["wall_s"] for r in runs),
                "scaled_median_s": statistics.median(
                    r["scaled_s"] for r in runs),
                "kappa": sorted({r["kappa"] for r in runs}),
            }
            for seed, runs in calibrations.items()
        },
        **{name: _cases_summary(p, cases, case_runs[name])
           for name, p in momenta.items()},
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
        "in_process_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        **{f"calibration_{name}_{key}_median_s": cal[f"{key}_median_s"]
           for name, cal in result["calibration"].items()
           for key in ("wall", "scaled")},
        **{f"{name}_{stem}_median_s": result[name][f"{stem}_median_s"]
           for name in momenta for key in SPANS
           for stem in (key, f"scaled_{key}")},
        **{f"cli_{name}_median_s": cli["wall_median_s"]
           for name, cli in result["cli_ddf"].items()}}))
    bad = any(cal["kappa"] != ["1"] for cal in result["calibration"].values()) \
        or any(result[name]["mismatched"] != [0]
               or 0 in result[name]["nonzero"] for name in momenta) \
        or any(cli["exit_codes"] != [CLI_RUNS[name][1]]
               for name, cli in result["cli_ddf"].items())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
