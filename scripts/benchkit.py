"""The one timing, summary and fresh-interpreter path of the scripts here.

Every bench and digest script in this directory imports this module
first.  Importing it puts ``src/`` and ``perfbench/`` of the checkout
holding it at the front of ``sys.path``, so a copy of all of
``scripts/`` placed in another checkout times and digests that checkout.
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
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

from refclock import RefClock, scaled  # noqa: E402

#: seconds between the reference bursts that scale a timed span
BURST_INTERVAL = 0.2


def parse_args(doc: str, repeat: int, argv=None) -> argparse.Namespace:
    """``--repeat`` (default ``repeat``, at least 1) and the required
    ``--out`` of the bench whose docstring is ``doc``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=repeat,
                    help=f"runs of each measurement (default {repeat})")
    ap.add_argument("--out", required=True,
                    help="where to write the JSON result")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    return args


def git_head() -> str | None:
    """The measured commit, suffixed ``-dirty`` for uncommitted edits."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def machine() -> dict:
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


class Stopwatch(RefClock):
    """Named spans, raw and scaled to the reference speed of
    ``perfbench/refclock.py``.

    Inside the ``with`` block a fixed loop is timed every
    ``BURST_INTERVAL`` seconds; a span's time less the bursts inside it,
    divided by the mean burst, is its time at the reference speed.  The
    raw times keep the bursts, and follow the speed of the shared
    machine, which switches by up to 1.5x.  ``mark()`` stamps a point;
    ``add(name, start, end)`` adds the span from ``start`` to ``end``
    (default now) to ``name`` and returns its end.  Read ``scaled`` after
    the block, when the clock holds at least one burst.
    """

    def __init__(self):
        super().__init__(BURST_INTERVAL)
        self.raw = defaultdict(float)
        self.burst_s = defaultdict(float)

    def mark(self) -> tuple:
        return time.perf_counter(), len(self.bursts)

    def add(self, name: str, start: tuple, end: tuple | None = None) -> tuple:
        end = end or self.mark()
        self.raw[name] += end[0] - start[0]
        self.burst_s[name] += sum(self.bursts[start[1]:end[1]])
        return end

    def scaled(self, name: str) -> float:
        return scaled(self.raw[name], self.burst_s[name], self.summary()[1])


def time_calls(call, passes: int = 1, before=None) -> dict:
    """Seconds per call of ``call()``, the mean over ``passes`` calls, raw
    (``wall_s``) and at the reference speed (``scaled_s``), with the
    calls' ``results``.  ``before()``, if given, runs untimed ahead of
    every call."""
    results = []
    with Stopwatch() as watch:
        for _ in range(passes):
            if before is not None:
                before()
            start = watch.mark()
            results.append(call())
            watch.add("call", start)
    return {"wall_s": watch.raw["call"] / passes,
            "scaled_s": watch.scaled("call") / passes, "results": results}


def summary(runs: list, *stems: str) -> dict:
    """For each stem, the values ``run[stem + "_s"]`` of the runs under
    ``<stem>_s``, their median under ``<stem>_median_s`` and their lower
    and upper quartiles (inclusive method) under ``<stem>_quartiles_s``."""
    out = {}
    for stem in stems:
        values = [run[f"{stem}_s"] for run in runs]
        q1, median, q3 = (
            statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3)
        out.update({f"{stem}_s": values, f"{stem}_median_s": median,
                    f"{stem}_quartiles_s": [q1, q3]})
    return out


#: ``openstring *argv`` under a ``RefClock`` with the interval given as the
#: second argument, from before the package is imported to exit, that also
#: writes, to the file descriptor given as the first argument, its peak
#: resident set (VmHWM, which exec resets, while the ru_maxrss of a forked
#: child starts from this process's size), whether the command had loaded
#: numpy when it ended, and the total and mean of its reference bursts
CLI_CHILD = """
import os, sys
fd, interval = int(sys.argv.pop(1)), float(sys.argv.pop(1))
from refclock import RefClock
clock = RefClock(interval)
try:
    with clock:
        from openstring.cli import main
        code = main()
finally:
    with open("/proc/self/status") as status:
        lines = [line for line in status if line.startswith("VmHWM")]
    lines.append(f"numpy: {int('numpy' in sys.modules)}\\n")
    if clock.bursts:
        lines.append("bursts: {} {}\\n".format(*clock.summary()))
    os.write(fd, "".join(lines).encode())
sys.exit(code)
"""


def run_cli(*argv: str, config: str | None = None) -> dict:
    """Wall time, raw (``wall_s``) and scaled to the reference speed by
    the bursts the child timed (``scaled_s``), exit code, peak RSS
    (Linux), whether numpy was loaded at the end, and the SHA-256 of
    stdout (the report) and of stderr (a refusal's evidence) of
    ``openstring *argv`` in a fresh interpreter.  The raw time includes
    interpreter start and the bursts.  It runs in its own empty working
    directory, where ``config``, if given, is written as ``run.json``
    first, so no temporary path reaches the output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(SRC), str(ROOT / "perfbench"))))
    with tempfile.TemporaryDirectory() as cwd:
        if config is not None:
            Path(cwd, "run.json").write_text(config, encoding="utf-8")
        read, write = os.pipe()
        cmd = [sys.executable, "-c", CLI_CHILD, str(write),
               str(BURST_INTERVAL), *argv]
        with os.fdopen(read) as pipe:
            try:
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, env=env, cwd=cwd,
                                      capture_output=True, check=False,
                                      pass_fds=(write,))
                wall = time.perf_counter() - t0
            finally:
                os.close(write)
            fields = dict(line.split(":", 1) for line in pipe)
    peak_kb = fields.get("VmHWM", "").split()[:1]
    loaded = fields.get("numpy", "").strip()
    bursts = [float(x) for x in fields.get("bursts", "").split()]
    return {"wall_s": wall,
            "scaled_s": scaled(wall, *bursts) if bursts else None,
            "exit": proc.returncode,
            "peak_rss_mb": int(peak_kb[0]) / 1024 if peak_kb else None,
            "numpy_loaded": bool(int(loaded)) if loaded else None,
            "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest()}


def cli_summary(argv, runs: list) -> dict:
    """The argv, the wall times, raw and scaled, with their medians and
    quartiles, the peak RSS and whether numpy was loaded, per run, and the
    distinct exit codes and digests of repeated ``run_cli(*argv)`` calls."""
    return {"argv": list(argv), **summary(runs, "wall", "scaled"),
            "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
            "numpy_loaded": [run["numpy_loaded"] for run in runs],
            "exit_codes": sorted({run["exit"] for run in runs}),
            "report_sha256": sorted({run["stdout_sha256"] for run in runs}),
            "stderr_sha256": sorted({run["stderr_sha256"] for run in runs})}


def finish(out: str, start: dict, repeat: int, body: dict, rss_key: str,
           headline: dict, ok: bool) -> int:
    """Write the commit, the ``machine()`` taken at the start, the load
    after, the repeat count, ``body`` and this process's peak RSS under
    ``rss_key`` as JSON to ``out``; print ``headline`` as one JSON line;
    return the exit code, 0 if ``ok``."""
    result = {"commit": git_head(), "machine": start,
              "loadavg_after": list(os.getloadavg()), "repeat": repeat,
              **body,
              rss_key: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              / 1024}
    Path(out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(headline))
    return 0 if ok else 1
