"""The fixed matrix of ``openstring`` invocations that ``scripts/cli_reports.py``
digests, and the exact commands among them whose digests tier-1 pins.

``tests/test_cli.py`` runs the exact cases in one process and compares
them with ``tests/cli_exact_pins.jsonl``; after a deliberate change to an
exact command's report, rewrite that file with

    python3 scripts/cli_reports.py --exact > tests/cli_exact_pins.jsonl

This module imports nothing, so a test can load it by path.
"""

#: the commands that work in exact arithmetic and never load numpy
EXACT_COMMANDS = ("virasoro", "ddf", "ddf-state", "noghost", "basis")

#: (argv, config file text or None)
CASES = [
    (["virasoro"], None),
    (["virasoro", "--seed", "2"], None),
    (["virasoro", "--seed", "81"], None),
    (["virasoro", "--d", "4", "--max-level", "2"], None),
    (["ddf"], None),
    (["ddf", "--seed", "2"], None),
    # the reject path: exit 3 with one witness per candidate on stderr
    (["ddf", "--kappa-set", "1/2", "2"], None),
    (["ddf", "--d", "4", "--kappa-set", "3", "5"], None),
    (["ddf-state"], None),
    (["noghost", "--d-list", "10,26", "--max-level", "2"], None),
    (["noghost", "--d-list", "10,26", "--max-level", "2",
      "--format", "json"], None),
    # a fractional intercept: the shell r = 2(N - 1/3) is fractional, and
    # the rational witness keeps the rank audit and the inertia on ints
    (["noghost", "--d-list", "4,26", "--b", "1/3", "--max-level", "2"], None),
    # the largest exact inertia, S at level 3 (403 x 403)
    (["noghost", "--d-list", "26", "--max-level", "3"], None),
    (["basis", "--d", "10", "--max-level", "4"], None),
    (["basis", "--d", "10", "--max-level", "4", "--format", "json"], None),
    (["testfn", "--d", "4"], None),
    (["locality", "--d", "4", "--grid", "64"], None),
    (["locality", "--d", "4", "--grid", "64", "--sweep", "0,4,0;0,1,0"],
     None),
    (["observable", "--radius", "1/10", "--word", "1:1"], None),
    # the requests tests/test_cli.py expects to be refused with exit 2
    ([], None),
    (["frobnicate"], None),
    (["ddf-state", "--d", "4", "--b", "one"], None),
    (["ddf-state", "--d", "4", "--word", "11"], None),
    (["ddf-state", "--d", "4", "--word", "5:1"], None),
    (["virasoro", "--config", "run.json"], "{broken"),
    (["virasoro", "--config", "run.json"], '{"levels": 3}'),
    (["virasoro", "--config", "run.json"], '{"d": "four"}'),
    (["virasoro", "--config", "run.json"], '{"d": true}'),
    (["virasoro", "--config", "absent.json"], None),
    (["virasoro", "--d", "4", "--max-level", "-1"], None),
    (["noghost", "--d-list", "4", "--max-level", "-1"], None),
    (["noghost", "--d-list", "1,4"], None),
    (["basis", "--max-level", "-1"], None),
    (["testfn", "--grid", "0", "--d", "4"], None),
    (["testfn", "--tol", "-1", "--d", "4"], None),
    (["locality", "--tol", "0", "--d", "4"], None),
    (["observable", "--tol", "inf", "--d", "4"], None),
    (["basis", "--d", "4", "--config", "run.json"], '{"format": "xml"}'),
    # not refused since the grid lost its cost cap: a passing report
    (["virasoro", "--d", "26", "--max-level", "3"], None),
    (["ddf", "--d", "4", "--kappa-set", "0"], None),
    (["ddf-state", "--d", "4", "--word", "1:1", "--momentum", "1,0,0,-1"],
     None),
    (["testfn", "--d", "4", "--radius", "1/100", "--grid", "64"], None),
    (["locality", "--d", "4", "--separation", "0,2,0"], None),
    (["locality", "--d", "4", "--grid", "8", "--extent", "nan"], None),
    (["locality", "--d", "4", "--grid", "8", "--extent", "inf"], None),
    (["locality", "--d", "4", "--grid", "6"], None),
    (["observable", "--d", "6", "--word", "3:1", "--grid", "64"], None),
    (["locality", "--d", "6", "--word", "3:1", "--grid", "64"], None),
    (["observable", "--d", "4", "--radius", "1", "--dq", "4", "--grid", "8"],
     None),
    # ddf-state prints its momentum: at level 2 and at b = 1/3 that is
    # the shell witness
    (["ddf-state", "--word", "1:2"], None),
    (["ddf-state", "--d", "4", "--b", "1/3", "--word", "1:1"], None),
    (["noghost", "--d-list", "4,10", "--b", "1/3", "--max-level", "3"], None),
    # a body whose shell r = 2(level - b) = 1 is not in the tower 0, 2, 4
    (["observable", "--d", "4", "--b", "1/2", "--word", "1:1"], None),
    # the rational shell samples t - x = 1/2 and 3 on the shells r = 2
    # (a level-2 word) and r = -1 (a fractional intercept)
    (["testfn", "--d", "4", "--word", "1:2"], None),
    (["testfn", "--d", "4", "--b", "3/2", "--word", "1:1"], None),
    # sweep rows that --separation refuses: too short, and outside the
    # reduced spacetime of --dq 2
    (["locality", "--d", "4", "--grid", "8", "--sweep", "0"], None),
    (["locality", "--d", "4", "--grid", "8", "--dq", "2",
      "--sweep", "0,4,0;0,1,0,1"], None),
    # observable and testfn at their defaults: d = 26, radius 1
    (["observable"], None),
    (["testfn"], None),
]


def is_exact(argv, config) -> bool:
    """An exact command that needs no config file written first."""
    return config is None and bool(argv) and argv[0] in EXACT_COMMANDS
