"""Self-time arithmetic, wrapper installation and the metric tables."""

import json
import sys
import types
from pathlib import Path

import pytest

from layers import EXPECTED, PER_LAYER
from spans import ROOT, Target, Tracer, root_seconds, self_times, \
    totals_by_name
from steady import shift, spread

BENCH = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_children():
    spans = [
        ("op", 0.0, 10.0, ROOT),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == root_seconds(spans) == 10.0


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        ("p", 0.0, 10.0, ROOT),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 7.0, 0),     # overlaps x: union 1..7
        ("z", 9.0, 12.0, 0),    # runs past the parent: clipped to 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recursive_span_counted_once_inclusive():
    spans = [
        ("f", 0.0, 8.0, ROOT),
        ("f", 1.0, 5.0, 0),
        ("g", 5.0, 7.0, 0),
    ]
    totals = totals_by_name(spans)
    assert totals["f"] == (2, 8.0, pytest.approx(6.0))
    assert totals["g"] == (1, 2.0, 2.0)


def test_root_seconds_sums_top_level_only():
    spans = [("a", 0.0, 2.0, ROOT), ("b", 0.5, 1.0, 0), ("c", 3.0, 4.5, ROOT)]
    assert root_seconds(spans) == 3.5


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.a defines work(); fakepkg.b imports it by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def work(x):
        return x + 1

    def gen(n):
        yield from range(n)

    class Box:
        def size(self):
            return 3

    a.work, a.gen, a.Box = work, gen, Box
    b.work = work
    b.twice = lambda x: b.work(b.work(x))
    for mod in (pkg, a, b):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return a, b


def test_install_wraps_every_namespace_and_uninstall_restores(fake_package):
    a, b = fake_package
    original = a.work
    tracer = Tracer()
    tracer.install([Target("fakepkg.a", "work", "a.work"),
                    Target("fakepkg.a", "gen", "a.gen", materialize=True),
                    Target("fakepkg.a:Box", "size", "a.Box.size",
                           kind="count")], package="fakepkg")
    assert a.work is not original and b.work is a.work
    root = tracer.open("op")
    assert b.twice(1) == 3
    assert list(a.gen(3)) == [0, 1, 2]
    assert a.Box().size() == 3
    tracer.close(root)
    tracer.uninstall()
    assert a.work is original and b.work is original
    assert "size" in a.Box.__dict__ and a.Box().size() == 3

    spans = tracer.spans()
    assert [name for name, *_ in spans] == ["op", "a.work", "a.work", "a.gen"]
    assert all(parent == 0 for *_, parent in spans[1:])
    assert tracer.count("a.Box.size") == 1
    assert totals_by_name(spans)["a.work"][0] == 2


def test_spans_close_on_exceptions(fake_package):
    a, _ = fake_package
    tracer = Tracer()
    tracer.install([Target("fakepkg.a", "work", "a.work")], package="fakepkg")
    try:
        with pytest.raises(TypeError):
            a.work("not a number")
    finally:
        tracer.uninstall()
    (_, start, end, parent), = tracer.spans()
    assert end >= start and parent == ROOT


def test_benchmark_json_matches_the_code():
    from workloads import WORKLOADS

    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, unit) for name, unit, _, _ in PER_LAYER]
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(WORKLOADS) == list(EXPECTED)
    assert {m["name"] for m in bench["end_to_end"]} == \
        {"wall_s", "setup_s", "peak_rss_mb"}


def test_spread_and_shift():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert spread([2.0] * 6) == 0.0
    assert shift(10.0, 11.0) == pytest.approx(0.1)
    assert shift(10.0, 9.0) == pytest.approx(-0.1)
