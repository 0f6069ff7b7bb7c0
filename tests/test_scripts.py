"""The bench toolkit that every script under ``scripts/`` imports."""

import contextlib
import hashlib
import importlib
import io
import statistics
import sys
from pathlib import Path

import pytest

from openstring import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _import_scripts() -> dict:
    """Every ``scripts/*.py`` imported by name, with ``sys.path`` left as
    it was found."""
    before = list(sys.path)
    sys.path.insert(0, str(SCRIPTS))
    try:
        return {path.stem: importlib.import_module(path.stem)
                for path in sorted(SCRIPTS.glob("*.py"))}
    finally:
        sys.path[:] = before


@pytest.fixture(scope="module")
def benchkit():
    return _import_scripts()["benchkit"]


def test_every_script_imports_from_scripts():
    before = list(sys.path)
    modules = _import_scripts()
    assert sys.path == before
    assert {"benchkit", "bench_bracket_grid", "bench_ddf", "bench_noghost",
            "bench_observable", "cli_reports", "mutants"} <= set(modules)
    for module in modules.values():
        assert Path(module.__file__).parent == SCRIPTS
    assert modules["benchkit"].SRC == SCRIPTS.parent / "src"


@pytest.mark.parametrize("values", [
    [0.5], [3.0, 1.0], [0.25, 0.5, 0.125], [4.0, 1.0, 3.0, 2.0],
    [0.3, 0.1, 0.7, 0.2, 0.9],
])
def test_summary_matches_inclusive_quartiles(benchkit, values):
    runs = [{"wall_s": v, "scaled_s": 2 * v} for v in values]
    out = benchkit.summary(runs, "wall", "scaled")
    for stem, scale in (("wall", 1), ("scaled", 2)):
        series = [scale * v for v in values]
        if len(series) > 1:
            q1, median, q3 = statistics.quantiles(series, n=4,
                                                  method="inclusive")
        else:
            q1 = median = q3 = series[0]
        assert out[f"{stem}_s"] == series
        assert out[f"{stem}_median_s"] == median
        assert out[f"{stem}_quartiles_s"] == [q1, q3]


def test_fresh_interpreter_run_matches_in_process_report(benchkit):
    argv = ["basis", "--max-level", "2"]
    run = benchkit.run_cli(*argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert (run["exit"], code) == (0, 0)
    assert run["numpy_loaded"] is False
    assert run["scaled_s"] > 0
    assert run["stdout_sha256"] == hashlib.sha256(
        out.getvalue().encode()).hexdigest()
