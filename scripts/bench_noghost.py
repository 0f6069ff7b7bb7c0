"""Time the no-ghost scan at d = 26 to level 3 and its exact eliminations.

Six measurements, all in process, each repeated ``--repeat`` times:

* every row of ``noghost_scan([26], max_level=3)``, from its own
  ``elapsed_ms``; the SHA-256 of the scan's CSV is recorded, so two
  checkouts can be compared for byte-identical output;
* the whole of ``noghost_scan([4, 10], b=1/3, max_level=3)``, on the
  fractional shells r = 2(N - 1/3), with the SHA-256 of its CSV;
* ``hermitian_signature`` on the level-3 Schur complement S (403 x 403);
* ``hermitian_signature`` on the Gram of the level-3 spurious vectors,
  the matrix ``gram_signature`` eliminates after its independence check;
* ``rref`` on the stacked L_1..L_3 constraint rows, the one elimination
  the physical and spurious bases and the signature are read off;
* ``rank_fraction_free`` on the same rows, the audit of the constraint
  rank.

The level-3 matrices are built once, outside the timed calls, as the
{column: entry} dict rows the scan eliminates; a shape is rows x
columns, and ``nonzeros`` counts the nonzero dict entries.  The
package is imported from ``src/`` of the checkout holding this script,
and the machine metadata comes from ``bench_bracket_grid.py`` next to it,
so a copy of both scripts placed in another checkout times that
checkout.  The result is written as JSON:

    python3 scripts/bench_noghost.py --out BENCH_17.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_bracket_grid import _git_head, _machine  # noqa: E402
from openstring.fock import ModelParams  # noqa: E402
from openstring.linalg import hermitian_signature, rank_fraction_free, \
    rref  # noqa: E402
from openstring import spectrum  # noqa: E402

D = 26
LEVEL = 3
FRACTIONAL = ([4, 10], Fraction(1, 3), 3)  # d_list, b, max_level


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def level_three_inputs() -> dict:
    """The level-3 S, spurious Gram and stacked constraint rows, with the
    dimension of the level-3 space, the number of columns of the rows."""
    b = Fraction(1)
    shell = spectrum.find_onshell_momentum(2 * (LEVEL - b), D)
    space = spectrum.LevelSpace(ModelParams(d=D, b=b), shell.p, LEVEL)
    spurious = spectrum.spurious_subspace(spectrum.physical_subspace(space),
                                          space)
    return {
        "schur": space.schur,
        "spurious_gram": spectrum._gram(spurious),
        "constraints": spectrum._stacked_constraint_matrix(space)[0],
        "dim": space.dim,
    }


def _nonzeros(rows) -> int:
    return sum(1 for row in rows for x in row.values() if x)


def _series(runs: list, key: str) -> dict:
    values = [run[key] for run in runs]
    return {"wall_s": values, "wall_median_s": statistics.median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3,
                    help="runs of the scan and of each elimination "
                         "(default 3)")
    ap.add_argument("--out", default="BENCH_17.json",
                    help="where to write the JSON result")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    machine = _machine()
    scans, csvs, runs, answers = [], set(), [], set()
    fractional_csvs = set()
    inputs = level_three_inputs()
    for _ in range(args.repeat):
        reports = spectrum.noghost_scan([D], max_level=LEVEL)
        scans.append([rep.elapsed_ms / 1000.0 for rep in reports])
        csvs.add(hashlib.sha256(
            spectrum.noghost_csv(reports).encode()).hexdigest())
        run = {}
        run["fractional_s"], reports = _timed(spectrum.noghost_scan,
                                              *FRACTIONAL)
        fractional_csvs.add(hashlib.sha256(
            spectrum.noghost_csv(reports).encode()).hexdigest())
        run["schur_s"], sig_s = _timed(hermitian_signature, inputs["schur"])
        run["spurious_s"], sig_g = _timed(hermitian_signature,
                                          inputs["spurious_gram"])
        run["rref_s"], (_, pivots) = _timed(rref, inputs["constraints"])
        run["rank_s"], rank = _timed(rank_fraction_free,
                                     inputs["constraints"])
        runs.append(run)
        answers.add((sig_s, sig_g, len(pivots), rank))
    signature_s, signature_g, rref_rank, constraint_rank = sorted(answers)[0]
    constraint_shape = [len(inputs["constraints"]), inputs["dim"]]
    result = {
        "commit": _git_head(),
        "machine": machine,
        "loadavg_after": list(os.getloadavg()),
        "repeat": args.repeat,
        "scan": {
            "d": D, "max_level": LEVEL,
            "row_s": {str(level): [scan[level] for scan in scans]
                      for level in range(LEVEL + 1)},
            "row_median_s": {str(level): statistics.median(
                scan[level] for scan in scans) for level in range(LEVEL + 1)},
            "csv_sha256": sorted(csvs),
        },
        "fractional_scan": {
            "d_list": FRACTIONAL[0], "b": str(FRACTIONAL[1]),
            "max_level": FRACTIONAL[2],
            "csv_sha256": sorted(fractional_csvs),
            **_series(runs, "fractional_s")},
        "schur_signature": {
            "shape": [len(inputs["schur"])] * 2,
            "nonzeros": _nonzeros(inputs["schur"]),
            "signature": list(signature_s), **_series(runs, "schur_s")},
        "spurious_gram_signature": {
            "shape": [len(inputs["spurious_gram"])] * 2,
            "signature": list(signature_g), **_series(runs, "spurious_s")},
        "constraint_rref": {
            "shape": constraint_shape,
            "nonzeros": _nonzeros(inputs["constraints"]),
            "rank": rref_rank, **_series(runs, "rref_s")},
        "constraint_rank": {
            "shape": constraint_shape,
            "rank": constraint_rank, **_series(runs, "rank_s")},
        "distinct_answers": len(answers),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        "level_3_row_median_s": result["scan"]["row_median_s"][str(LEVEL)],
        "fractional_scan_median_s": result["fractional_scan"]["wall_median_s"],
        **{f"{name}_median_s": result[name]["wall_median_s"]
           for name in ("schur_signature", "spurious_gram_signature",
                        "constraint_rref", "constraint_rank")}}))
    distinct = (len(answers), len(csvs), len(fractional_csvs))
    return 0 if distinct == (1, 1, 1) else 1


if __name__ == "__main__":
    sys.exit(main())
