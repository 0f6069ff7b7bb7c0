"""In-memory span tracing around the package's public functions.

A :class:`Tracer` records one span per wrapped call: its name, start, end
and the span that was open when it started.  Nothing is written while a run
is traced; :meth:`Tracer.write` dumps the spans once the run is over.

Wrappers are installed from the benchmark's side, so the package under
test is not edited.  Modules import each other's names with
``from .x import y``, so a wrapper has to replace the function in every
namespace that holds it, not only in the module that defines it;
:func:`install` does that by object identity.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

ROOT = -1


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is a dotted module path, optionally followed by ``:Class``
    for a method.  ``kind`` is ``"span"`` (timed) or ``"count"`` (calls
    counted only, for helpers called so often that timing each call would
    cost more than the call).  ``observe(tracer, args, kwargs, result)``
    may record sizes; ``name_of(args, kwargs)`` may pick the span name per
    call.  ``materialize`` turns a generator's output into a list inside
    the span, so the span covers the work rather than the generator's
    creation.
    """

    owner: str
    attr: str
    name: str
    kind: str = "span"
    observe: Callable | None = None
    name_of: Callable | None = None
    materialize: bool = False


class Tracer:
    """Span and counter store for one traced run; single-threaded."""

    def __init__(self):
        self.names: list = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._cells: dict = {}
        self.maxima: dict = {}
        self._stack = [ROOT]
        self._patched: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def record_max(self, key: str, value) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def count(self, name: str) -> int:
        """Calls of a counted function plus what observers added."""
        return self._cells.get(name, [0])[0] + self.counts[name]

    def counters(self) -> dict:
        return {n: self.count(n)
                for n in sorted(set(self.counts) | set(self._cells))}

    def spans(self) -> list:
        """(name, start, end, parent) for every closed span, in open order."""
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, target: Target):
        if target.kind == "count":
            cell = self._cells.setdefault(target.name, [0])

            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
            return counted
        if target.kind != "span":
            raise ValueError(f"unknown wrapper kind {target.kind!r}")

        def spanned(*args, **kwargs):
            idx = self.open(target.name_of(args, kwargs) if target.name_of
                            else target.name)
            try:
                result = fn(*args, **kwargs)
                if target.materialize:
                    result = list(result)
            finally:
                self.close(idx)
            if target.observe is not None:
                target.observe(self, args, kwargs, result)
            return iter(result) if target.materialize else result
        return spanned

    def install(self, targets, package: str = "openstring") -> None:
        """Wrap every target in every namespace of ``package`` holding it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for target in targets:
            mod_path, _, cls_name = target.owner.partition(":")
            owner = sys.modules[mod_path]
            if cls_name:
                owner = getattr(owner, cls_name)
                original = owner.__dict__[target.attr]
                self._patch(owner, target.attr, original,
                            self._wrap(original, target))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(original, target)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patched.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzip CSV: id, parent, name, start and end in seconds
        from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for idx, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(f"{idx},{parent},{name},{start - t0:.9f},"
                         f"{end - t0:.9f}\n")


# -- span arithmetic -------------------------------------------------------


def self_times(spans) -> list:
    """Per-span self time: duration minus the union of its children.

    ``spans`` holds (name, start, end, parent) with parents listed before
    their children.  Children are clipped to the parent's interval and
    their overlaps merged, so the result is the time in which the span
    itself, and none of its children, was running.
    """
    children: dict = {}
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent != ROOT:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def totals_by_name(spans, selfs=None) -> dict:
    """name -> (calls, inclusive seconds, self seconds).

    Inclusive time counts a span only when no enclosing span has the same
    name, so a function reached recursively is not counted twice.
    ``selfs`` may pass in :func:`self_times` of the same spans.
    """
    if selfs is None:
        selfs = self_times(spans)
    out: dict = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        calls, incl, own = out.get(name, (0, 0.0, 0.0))
        outer = True
        up = parent
        while up != ROOT:
            if spans[up][0] == name:
                outer = False
                break
            up = spans[up][3]
        out[name] = (calls + 1, incl + (end - start if outer else 0.0),
                     own + selfs[idx])
    return out


def root_seconds(spans) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _, start, end, parent in spans
               if parent == ROOT)
