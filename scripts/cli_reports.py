"""Digest the output of a fixed matrix of ``openstring`` invocations.

Each invocation runs through ``benchkit.run_cli``: in a fresh
interpreter, in its own empty working directory, with the package
imported from ``src/`` of the checkout holding this script, so a copy
of all of ``scripts/`` placed in another checkout digests that checkout.
Cases that need a config file write it there as ``run.json`` first, so
no temporary path reaches the output.  One JSON line per case gives the
argv, the config text (if any), the exit code and the SHA-256 of stdout
and of stderr:

    python3 scripts/cli_reports.py > change.jsonl
    python3 ../parent/scripts/cli_reports.py > parent.jsonl
    diff parent.jsonl change.jsonl

Two trees whose lines agree print the same bytes and exit the same way
on every case.  The cases are ``cli_cases.CASES``; ``--exact`` digests
only the exact commands among them, the lines that
``tests/cli_exact_pins.jsonl`` pins in tier-1.  The matrix took 9.5-14 s
on a shared 2-core machine; the three ``virasoro`` runs at d = 26 and the
level-3 ``noghost`` run are most of it.
"""

from __future__ import annotations

import argparse
import json

import benchkit
from cli_cases import CASES, is_exact


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exact", action="store_true",
                    help="digest only the exact commands that tier-1 pins")
    args = ap.parse_args(argv)
    if not (benchkit.SRC / "openstring" / "__init__.py").is_file():
        raise SystemExit(
            f"cli_reports.py: no openstring package under {benchkit.SRC}")
    for argv, config in CASES:
        if args.exact and not is_exact(argv, config):
            continue
        run = benchkit.run_cli(*argv, config=config)
        print(json.dumps({"argv": argv, "config": config, **{
            key: run[key] for key in ("exit", "stdout_sha256",
                                      "stderr_sha256")}}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
