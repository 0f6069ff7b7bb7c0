"""Time the no-ghost scan at d = 26 to level 3 and its exact eliminations.

Seven measurements, all in process, each repeated ``--repeat`` times:

* every row of ``noghost_scan([26], max_level=3)``, from its own
  ``elapsed_ms``; the SHA-256 of the scan's CSV is recorded, so two
  checkouts can be compared for byte-identical output;
* the whole of ``noghost_scan([4, 10], b=1/3, max_level=3)``, on the
  fractional shells r = 2(N - 1/3), with the SHA-256 of its CSV;
* ``hermitian_signature`` on the level-3 Schur complement S (403 x 403);
* ``hermitian_signature`` on the Gram of the level-3 spurious vectors,
  the matrix ``gram_signature`` eliminates after its independence check;
* the whole spurious certificate the level-3 scan row pays:
  ``gram_signature`` on the level-3 spurious vectors, that is the
  independence check, the Gram of ``inner_indefinite`` on every pair, and
  its signature;
* ``rref`` on the stacked L_1..L_3 constraint rows, the one elimination
  the physical and spurious bases and the signature are read off;
* ``rank_fraction_free`` on the same rows, the audit of the constraint
  rank.

The in-process calls other than the scan are timed raw and scaled to
the reference speed by ``benchkit.py``; the scan rows are timed by the
scan itself, raw.  The level-3 matrices are built once, outside the
timed calls, as the {column: entry} dict rows the scan eliminates; a
shape is rows x columns, and ``nonzeros`` counts the nonzero dict
entries.  The package is imported through ``benchkit.py`` next to this
script, so a copy of all of ``scripts/`` placed in another checkout
times that checkout.  The result is written as JSON:

    python3 scripts/bench_noghost.py --out noghost.json
"""

from __future__ import annotations

import hashlib
import statistics
import sys
from fractions import Fraction

import benchkit
from openstring.fock import ModelParams
from openstring.linalg import hermitian_signature, rank_fraction_free, rref
from openstring import spectrum

D = 26
LEVEL = 3
FRACTIONAL = ([4, 10], Fraction(1, 3), 3)  # d_list, b, max_level


def _csv_sha256(reports) -> str:
    return hashlib.sha256(spectrum.noghost_csv(reports).encode()).hexdigest()


def level_three_inputs() -> dict:
    """The level-3 S, spurious vectors and their Gram, and stacked
    constraint rows, with the dimension of the level-3 space, the number
    of columns of the rows."""
    b = Fraction(1)
    shell = spectrum.find_onshell_momentum(2 * (LEVEL - b), D)
    space = spectrum.LevelSpace(ModelParams(d=D, b=b), shell.p, LEVEL)
    spurious = spectrum.spurious_subspace(spectrum.physical_subspace(space),
                                          space)
    return {
        "schur": space.schur,
        "spurious": spurious,
        "spurious_gram": spectrum._gram(spurious),
        "constraints": spectrum._stacked_constraint_matrix(space)[0],
        "dim": space.dim,
    }


def _nonzeros(rows) -> int:
    return sum(1 for row in rows for x in row.values() if x)


def main(argv=None) -> int:
    args = benchkit.parse_args(__doc__, 3, argv)
    machine = benchkit.machine()
    inputs = level_three_inputs()
    calls = {
        "fractional": lambda: spectrum.noghost_scan(*FRACTIONAL),
        "schur": lambda: hermitian_signature(inputs["schur"]),
        "spurious": lambda: hermitian_signature(inputs["spurious_gram"]),
        "certificate": lambda: spectrum.gram_signature(inputs["spurious"]),
        "rref": lambda: len(rref(inputs["constraints"])[1]),
        "rank": lambda: rank_fraction_free(inputs["constraints"]),
    }
    scans, csvs, fractional_csvs, runs, answers = [], set(), set(), [], set()
    for _ in range(args.repeat):
        reports = spectrum.noghost_scan([D], max_level=LEVEL)
        scans.append([rep.elapsed_ms / 1000.0 for rep in reports])
        csvs.add(_csv_sha256(reports))
        run = {name: benchkit.time_calls(call) for name, call in calls.items()}
        out = {name: timed.pop("results")[0] for name, timed in run.items()}
        fractional_csvs.add(_csv_sha256(out.pop("fractional")))
        answers.add(tuple(out.values()))
        runs.append(run)
    signature_s, signature_g, signature_c, rref_rank, constraint_rank = \
        sorted(answers)[0]

    def series(name):
        return benchkit.summary([run[name] for run in runs], "wall", "scaled")

    constraint_shape = [len(inputs["constraints"]), inputs["dim"]]
    body = {
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
            "csv_sha256": sorted(fractional_csvs), **series("fractional")},
        "schur_signature": {
            "shape": [len(inputs["schur"])] * 2,
            "nonzeros": _nonzeros(inputs["schur"]),
            "signature": list(signature_s), **series("schur")},
        "spurious_gram_signature": {
            "shape": [len(inputs["spurious_gram"])] * 2,
            "signature": list(signature_g), **series("spurious")},
        "spurious_certificate": {
            "vectors": len(inputs["spurious"]),
            "signature": list(signature_c), **series("certificate")},
        "constraint_rref": {
            "shape": constraint_shape,
            "nonzeros": _nonzeros(inputs["constraints"]),
            "rank": rref_rank, **series("rref")},
        "constraint_rank": {
            "shape": constraint_shape,
            "rank": constraint_rank, **series("rank")},
        "distinct_answers": len(answers),
    }
    headline = {
        "level_3_row_median_s": body["scan"]["row_median_s"][str(LEVEL)],
        "fractional_scan_median_s": body["fractional_scan"]["wall_median_s"],
        **{f"{name}_median_s": body[name]["wall_median_s"]
           for name in ("schur_signature", "spurious_gram_signature",
                        "spurious_certificate", "constraint_rref",
                        "constraint_rank")}}
    ok = (len(answers), len(csvs), len(fractional_csvs)) == (1, 1, 1) \
        and signature_c == signature_g
    return benchkit.finish(args.out, machine, args.repeat, body,
                           "peak_rss_mb", headline, ok)


if __name__ == "__main__":
    sys.exit(main())
