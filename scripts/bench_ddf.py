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
  can be compared for byte-identical output, and so is whether the command
  had loaded numpy, which an exact command must not.

The in-process spans are recorded raw and scaled to the reference speed
by ``benchkit.py``, and so are the CLI times, each scaled by the bursts
its own interpreter timed.  The peak RSS recorded is that of this
process, which runs the calibrations and the cases.

The package is imported through ``benchkit.py`` next to this script, so
a copy of all of ``scripts/`` placed in another checkout times that
checkout.  The result is written as JSON:

    python3 scripts/bench_ddf.py --out ddf.json
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import benchkit
from openstring.cli import _probe_momenta
from openstring.ddf import DdfContext, calibrate_normalization, \
    ddf_commutator_defect, ddf_commutator_residual
from openstring.fiber import Momentum
from openstring.fock import FockVector, ModelParams, iter_level_basis
from openstring.poly import sym_momentum

D = 26
SEEDS = (0, 2)
CASE_SEED = 1
MODES = (-2, -1, 1, 2)
PER_CELL = 10
SPANS = ("residual", "defect", "pair")
STEMS = [stem for key in SPANS for stem in (key, f"scaled_{key}")]
# name -> (argv, expected exit code)
CLI_RUNS = {"default": (("ddf",), 0),
            "seed_2": (("ddf", "--seed", "2"), 0),
            "reject": (("ddf", "--kappa-set", "1/2", "2"), 3)}


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
    mismatched = nonzero = 0
    with benchkit.Stopwatch() as watch:
        for m, i, n, v in cases:
            start = watch.mark()
            res = ddf_commutator_residual(m, i, n, v, ctx)
            mid = watch.add("residual", start)
            dft = ddf_commutator_defect(m, i, n, v, ctx)
            watch.add("pair", start, watch.add("defect", mid))
            mismatched += res != dft
            nonzero += bool(res)
    return {**{f"{key}_s": watch.raw[key] for key in SPANS},
            **{f"scaled_{key}_s": watch.scaled(key) for key in SPANS},
            "mismatched": mismatched, "nonzero": nonzero}


def main(argv=None) -> int:
    args = benchkit.parse_args(__doc__, 3, argv)
    machine = benchkit.machine()
    probes = {seed: _probe_momenta(D, seed) for seed in SEEDS}
    calibrations = {seed: [] for seed in SEEDS}
    clis = {name: [] for name in CLI_RUNS}
    case_p, cases = defect_cases(CASE_SEED)
    momenta = {"defect_cases": case_p, "symbolic_cases": sym_momentum(D)}
    case_runs = {name: [] for name in momenta}
    for _ in range(args.repeat):
        for seed in SEEDS:
            calibrations[seed].append(benchkit.time_calls(
                lambda: calibrate_normalization(ModelParams(d=D),
                                                probes[seed])))
        for name, p in momenta.items():
            case_runs[name].append(time_defect_cases(p, cases))
        for name, (cli_argv, _) in CLI_RUNS.items():
            clis[name].append(benchkit.run_cli(*cli_argv))
    body = {
        "calibration": {
            f"seed_{seed}": {
                "d": D,
                "momenta": [[str(c) for c in p] for p in probes[seed]],
                **benchkit.summary(runs, "wall", "scaled"),
                "kappa": sorted({str(r["results"][0]) for r in runs}),
            }
            for seed, runs in calibrations.items()
        },
        **{name: {"d": D, "seed": CASE_SEED, "cases": len(cases),
                  "momentum": [str(c) for c in p],
                  **benchkit.summary(case_runs[name], *STEMS),
                  **{key: sorted({r[key] for r in case_runs[name]})
                     for key in ("mismatched", "nonzero")}}
           for name, p in momenta.items()},
        "cli_ddf": {name: benchkit.cli_summary(cli_argv, clis[name])
                    for name, (cli_argv, _) in CLI_RUNS.items()},
    }
    headline = {
        **{f"calibration_{name}_{key}_median_s": cal[f"{key}_median_s"]
           for name, cal in body["calibration"].items()
           for key in ("wall", "scaled")},
        **{f"{name}_{stem}_median_s": body[name][f"{stem}_median_s"]
           for name in momenta for stem in STEMS},
        **{f"cli_{name}{tag}_median_s": cli[f"{stem}_median_s"]
           for name, cli in body["cli_ddf"].items()
           for stem, tag in (("wall", ""), ("scaled", "_scaled"))}}
    ok = all(cal["kappa"] == ["1"] for cal in body["calibration"].values()) \
        and all(body[name]["mismatched"] == [0]
                and 0 not in body[name]["nonzero"] for name in momenta) \
        and all(cli["exit_codes"] == [CLI_RUNS[name][1]]
                and all(loaded is False for loaded in cli["numpy_loaded"])
                for name, cli in body["cli_ddf"].items())
    return benchkit.finish(args.out, machine, args.repeat, body,
                           "in_process_peak_rss_mb", headline, ok)


if __name__ == "__main__":
    sys.exit(main())
