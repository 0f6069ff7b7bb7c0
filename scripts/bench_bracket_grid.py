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
  reference speed by ``benchkit.py``.  The per-pair times are raw and
  include its reference bursts (a few per cent);
* ``openstring virasoro`` with no arguments, in a fresh interpreter, so the
  time includes interpreter start, raw (``cli_wall``) and scaled to the
  reference speed by the bursts the interpreter timed (``cli_scaled``);
  the SHA-256 of its report is recorded, so two checkouts can be compared
  for byte-identical output.

The package is imported through ``benchkit.py`` next to this script, so
a copy of all of ``scripts/`` placed in another checkout times that
checkout.  The result, with machine metadata (Python, numpy, core count,
load average), is written as JSON:

    python3 scripts/bench_bracket_grid.py --out grid.json
"""

from __future__ import annotations

import statistics
import sys
import time

import benchkit
from openstring.cli import _probe_momenta
from openstring.fiber import virasoro_bracket_scan
from openstring.fock import ModelParams

D = 26
LEVEL = 2
BOUND = 3
#: passes of the grid timed in one repeat
PASSES = 10


def _pairs():
    return [(m, n) for m in range(-BOUND, BOUND + 1)
            for n in range(m, BOUND + 1)]


def time_grid(p) -> dict:
    """Seconds per mode pair, the mean over ``PASSES`` passes of the grid;
    one pass's total, raw and at the reference speed; the states of one
    pass and the nonzero residuals of all."""
    params = ModelParams(d=D)

    def one_pass():
        per_pair, states, nonzero = {}, 0, 0
        for m, n in _pairs():
            t0 = time.perf_counter()
            out = virasoro_bracket_scan(m, n, LEVEL, p, params)
            per_pair[f"{m},{n}"] = time.perf_counter() - t0
            states += len(out)
            nonzero += sum(1 for _, res in out if res)
        return per_pair, states, nonzero

    timed = benchkit.time_calls(one_pass, PASSES)
    passes = timed["results"]
    return {"per_pair_s": {key: sum(r[0][key] for r in passes) / PASSES
                           for key in passes[0][0]},
            "states": passes[0][1], "nonzero": sum(r[2] for r in passes),
            "total_s": timed["wall_s"], "scaled_total_s": timed["scaled_s"]}


def _summary(p, grids: list) -> dict:
    """Totals and per-pair medians of repeated runs of one probe's grid."""
    per_pair = {key: statistics.median(g["per_pair_s"][key] for g in grids)
                for key in grids[0]["per_pair_s"]}
    return {
        "d": D, "level": LEVEL, "pairs": len(per_pair), "passes": PASSES,
        "momentum": [str(c) for c in p],
        "nonzero_components": sum(1 for c in p if c),
        "states": grids[0]["states"],
        "nonzero_residuals": sum(g["nonzero"] for g in grids),
        **benchkit.summary(grids, "total", "scaled_total"),
        "per_pair_median_s": per_pair,
    }


def main(argv=None) -> int:
    args = benchkit.parse_args(__doc__, 5, argv)
    machine = benchkit.machine()
    probes = dict(zip(("grid", "grid_seeded"), _probe_momenta(D, 0)))
    grids = {name: [] for name in probes}
    clis = []
    for _ in range(args.repeat):
        for name, p in probes.items():
            grids[name].append(time_grid(p))
        clis.append(benchkit.run_cli("virasoro"))
    body = {name: _summary(p, grids[name]) for name, p in probes.items()}
    body["cli_virasoro"] = benchkit.cli_summary(("virasoro",), clis)
    headline = {
        **{f"{name}_{total}_{key}_s": body[name][f"{total}_{key}_s"]
           for name in probes for total in ("total", "scaled_total")
           for key in ("median", "quartiles")},
        **{f"cli_{stem}_{key}_s": body["cli_virasoro"][f"{stem}_{key}_s"]
           for stem in ("wall", "scaled") for key in ("median", "quartiles")}}
    ok = not any(body[name]["nonzero_residuals"] for name in probes) and \
        body["cli_virasoro"]["exit_codes"] == [0]
    return benchkit.finish(args.out, machine, args.repeat, body,
                           "grid_peak_rss_mb", headline, ok)


if __name__ == "__main__":
    sys.exit(main())
