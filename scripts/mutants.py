"""Run a fixed table of mutants against the tests that should catch them.

Each row of ``MUTANTS`` names one exact text replacement in one file of
``src/`` or ``tests/``, the pytest selection that should fail on it, and
the expected verdict.  For each row the script copies ``src/``,
``tests/``, ``perfbench/``, ``scripts/`` (the case list that tier-1 pins
lives there) and ``pyproject.toml`` of the checkout holding it into a
temporary directory, applies the replacement there, and runs ``pytest -x
-q`` on the selection in a fresh interpreter.  The verdict is

* ``killed``: pytest reported a failing test;
* ``survived``: every selected test passed;
* ``stale``: the text to replace does not occur exactly once, so the row
  must be re-targeted at the code that moved;
* ``error``: pytest ended in any other way (a collection error, no test
  selected), which says nothing about the mutant.

Before the mutants, every selection runs once on an unmutated copy and
must pass, or a kill would mean nothing.  The checkout itself is never
written to.  The result, with each row's verdict and time and the
machine metadata of ``benchkit.py`` next to this script, is written as
JSON:

    python3 scripts/mutants.py --out mutants.json

The exit code is 0 when every row meets its expected verdict.  The whole
table took about ten minutes on a shared 2-core machine; the ``ddf``
rows, whose selection is the slowest test module, are most of it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import benchkit

FIBER = "src/openstring/fiber.py"
LINALG = "src/openstring/linalg.py"
DDF = "src/openstring/ddf.py"
FOCK = "src/openstring/fock.py"
SPECTRUM = "src/openstring/spectrum.py"
EXACTNUM = "src/openstring/exactnum.py"
CLI = "src/openstring/cli.py"
POLY = "src/openstring/poly.py"
TESTFN = "src/openstring/testfn.py"
FIELD = "src/openstring/field.py"
FIBER_TESTS = ("tests/test_fiber.py",)
LINALG_TESTS = ("tests/test_linalg.py",)
DDF_TESTS = ("tests/test_ddf.py",)
FOCK_TESTS = ("tests/test_fock.py",)
LANE_TESTS = ("tests/test_fock.py::TestIntegerLane",)
PIN_TESTS = ("tests/test_cli.py::test_exact_reports_match_pins",)
WORD_TESTS = ("tests/test_spectrum.py::TestDdfSpan",)
EXACTNUM_TESTS = ("tests/test_exactnum.py",)
SAMPLE_TESTS = ("tests/test_cli.py::TestTestfn",)
POLY_TESTS = ("tests/test_poly.py", "tests/test_testfn.py")
TESTFN_TESTS = ("tests/test_testfn.py",)
NO_NUMPY = "tests/test_cli.py::TestExactCommandsLoadNoNumpy"
NO_NUMPY_TESTS = (f"{NO_NUMPY}::test_exact_command",)
TRACER_TESTS = (f"{NO_NUMPY}::test_layer_tracer_installs_without_numpy",)

#: (id, file, old text, new text, pytest selection, expected verdict)
MUTANTS = [
    # the L_m kernels and the scanner rows
    ("fiber.creator-half-pair", FIBER,
     "scale if 2 * n == k else 2 * scale", "2 * scale",
     FIBER_TESTS, "killed"),
    ("fiber.annihilator-half-pair", FIBER,
     "(1 if 2 * n == k else 2)", "2",
     FIBER_TESTS, "killed"),
    ("fiber.cross-sign-creator", FIBER,
     "-c * pc if mu == 0 else c * pc", "c * pc",
     FIBER_TESTS, "killed"),
    ("fiber.cross-sign-annihilator", FIBER,
     "c * self.p[mu] * mult * j", "-c * self.p[mu] * mult * j",
     FIBER_TESTS, "killed"),
    ("fiber.closure-coefficient", FIBER,
     "out, w = {}, self.scale * (m - n)", "out, w = {}, self.scale * (n - m)",
     FIBER_TESTS, "killed"),
    ("fiber.drop-closure-certificate", FIBER,
     "{m} if m == n else {m, n, m + n}", "{m} if m == n else {m, n}",
     FIBER_TESTS, "killed"),
    ("fiber.contractions-into-creators", FIBER,
     "            self._add_p_alpha(out, k, mono, 2 * self.den * c)\n"
     "        return out\n\n"
     "    def add_contractions",
     "            self._add_p_alpha(out, k, mono, 2 * self.den * c)\n"
     "            _contractions_into(out, k, mono, c * self.den * self.den)\n"
     "        return out\n\n"
     "    def add_contractions",
     FIBER_TESTS, "killed"),
    # [T_m, T_n] composed from the rows, and the contracting terms of the
    # creator brackets [T_n, C_m] that each residual applies
    ("fiber.commutator-skips-x-c", FIBER,
     "for tm, tc in self.add_creators({}, b, mono, sign).items():",
     "for tm, tc in (self.add_creators({}, b, mono, sign).items()\n"
     "                           if sign < 0 else ()):",
     FIBER_TESTS, "killed"),
    ("fiber.commutator-t-x-sign", FIBER,
     "self.add_two_l(out, a, tm, tc)", "self.add_two_l(out, a, tm, -tc)",
     FIBER_TESTS, "killed"),
    ("fiber.commutator-x-c-sign", FIBER,
     "for tm, tc in self.add_creators({}, b, mono, sign).items():\n"
     "                self.add_contractions(out, a, tm, tc)",
     "for tm, tc in self.add_creators({}, b, mono, sign).items():\n"
     "                self.add_contractions(out, a, tm, -tc)",
     FIBER_TESTS, "killed"),
    ("fiber.bracket-annihilator-weight", FIBER,
     "wk * j * mult)", "wk * mult)",
     FIBER_TESTS, "killed"),
    ("fiber.bracket-cross-term-mode", FIBER,
     "self._add_p_alpha(out, n + m, mono, -4 * self.den ** 3 * m * c)",
     "self._add_p_alpha(out, n + m, mono, -4 * self.den ** 3 * n * c)",
     FIBER_TESTS, "killed"),
    ("fiber.drop-insertion-certificate", FIBER,
     "if level_of(tm) != level - k or factors - Counter(tm):",
     "if False:",
     FIBER_TESTS, "killed"),
    # the cell, the residual composed once on the vacuum, multiplied in
    ("fiber.drop-polynomial-product", FIBER,
     "slots = [((), mono, 1)]", "slots = []",
     FIBER_TESTS, "killed"),
    ("fiber.polynomial-without-closure-row", FIBER,
     "out = self.composed(m, n, ())", "out = self.commutator(m, n, ())",
     FIBER_TESTS, "killed"),
    ("fiber.polynomial-on-the-monomial", FIBER,
     "slots = [((), mono, 1)]", "slots = [(mono, (), 1)]",
     FIBER_TESTS, "killed"),
    # the residual's cached one- and two-factor responses, and the terms
    # that compose them
    ("fiber.response-single-weight", FIBER,
     "slots.append(((key,), rest, c))", "slots.append(((key,), rest, 1))",
     FIBER_TESTS, "killed"),
    ("fiber.response-repeated-pair-weight", FIBER,
     "c * (c - 1) // 2", "c * c",
     FIBER_TESTS, "killed"),
    ("fiber.response-skip-pairs", FIBER,
     "elif other >= key and other in rest:", "elif False:",
     FIBER_TESTS, "killed"),
    ("fiber.response-distinct-pair-weight", FIBER,
     "else c * rest.count(other)", "else rest.count(other)",
     FIBER_TESTS, "killed"),
    ("fiber.response-keeps-vacuum-constant", FIBER,
     "                _accumulate(out, factors, w * self.add_contractions(\n"
     "                    {}, m + n, (), 1).get((), 0))\n",
     "",
     FIBER_TESTS, "killed"),
    ("fiber.response-without-bracket-contractions", FIBER,
     "                    self._add_bracket_contractions(out, a, b, factors, sign)\n",
     "",
     FIBER_TESTS, "killed"),
    ("fiber.drop-split-certificate", FIBER,
     "if m != n and scanner.residual(m, n, first) != FockVector(",
     "if False and scanner.residual(m, n, first) != FockVector(",
     FIBER_TESTS, "killed"),
    # the one assembly sum_s image_s(lam) (x) alpha^i_s tau, and A^i_n's
    # V_{n-s} images in it; A^i_n shares _moved with the builders, so the
    # _moved rows below are killed by the tests against the two-loop form
    ("ddf.vector-mode-filter-inverted", DDF,
     "top = max((a for a, mu in tau if mu == i), default=0)",
     "top = max((a for a, mu in tau if mu != i), default=0)",
     DDF_TESTS, "killed"),
    ("ddf.vector-drop-momentum-term", DDF,
     "for s in range(n - level_of(lam), top + 1)])",
     "for s in range(n - level_of(lam), top + 1) if s])",
     DDF_TESTS, "killed"),
    ("ddf.vector-mode-shift", DDF,
     "if hit := _moved(s, i, tau, p):", "if hit := _moved(s - 1, i, tau, p):",
     DDF_TESTS, "killed"),
    ("ddf.vector-raise-s-lower-bound", DDF,
     "range(n - level_of(lam), top + 1)",
     "range(n - level_of(lam) + 1, top + 1)",
     DDF_TESTS, "killed"),
    ("ddf.vector-image-t-shift", DDF,
     "(s, _image(n - s, k, lam, params.d - 1, params.b))",
     "(s, _image(n - s + 1, k, lam, params.d - 1, params.b))",
     DDF_TESTS, "killed"),
    # [L_m, A^i_n] v from the lightcone images R_s and its certificates
    ("ddf.lm-images-from-v", DDF,
     "    out -= v_scalar_apply(t, ctx.null_at(n), lowered, params)\n",
     "    out -= vertex(t)\n",
     DDF_TESTS, "killed"),
    ("ddf.images-per-direction", DDF,
     "if i in failing or certify and not pos]:",
     "if True]:",
     DDF_TESTS, "killed"),
    ("ddf.drop-lc-bracket-term", DDF,
     "    out = virasoro_apply(m, ctx._lc, vertex(t), params)\n"
     "    out -= v_scalar_apply(t, ctx.null_at(n), lowered, params)\n",
     "    out = FockVector.zero()\n",
     DDF_TESTS, "killed"),
    ("ddf.drop-shift-term", DDF,
     ".scaled((m or n) - s)", ".scaled(0 if m else n)",
     DDF_TESTS, "killed"),
    ("ddf.drop-mode-shift-term", DDF,
     "(m or n) - s", "m - s",
     DDF_TESTS, "killed"),
    ("ddf.drop-annihilator-w-term", DDF,
     "    if (s, i) not in tau:\n", "    if True:\n",
     DDF_TESTS, "killed"),
    ("ddf.drop-creator-e-terms", DDF,
     "return tuple(sorted(tau + ((-s, i),))), 1", "return None",
     DDF_TESTS, "killed"),
    ("ddf.drop-momentum-e-term", DDF,
     "return (tau, p[i]) if p[i] else None", "return None",
     DDF_TESTS, "killed"),
    ("ddf.drop-lowered-w-term", DDF,
     "range(n - level_of(lam) - max(0, -m), top + 1)",
     "range(n - level_of(lam), top + 1)",
     DDF_TESTS, "killed"),
    ("ddf.raise-s-lower-bound", DDF,
     "range(n - level_of(lam) - max(0, -m), top + 1)",
     "range(n - level_of(lam) - max(0, -m) + 1, top + 1)",
     DDF_TESTS, "killed"),
    ("ddf.drop-literal-comparison", DDF,
     "if res != literal:", "if False:",
     DDF_TESTS, "killed"),
    ("ddf.drop-residual-certificate", DDF,
     "    return _certified(_residual_image, m, i, n, v, ctx)\n",
     "    return _factored(_residual_image, m, i, n, v, ctx)\n",
     DDF_TESTS, "killed"),
    ("ddf.drop-expansion-certificate", DDF,
     "res = (_certified if certify and not pos else _factored)(",
     "res = _factored(",
     DDF_TESTS, "killed"),
    ("ddf.drop-defect-certificate", DDF,
     "    return _certified(_defect_image, m, i, n, v, ctx)\n",
     "    return _factored(_defect_image, m, i, n, v, ctx)\n",
     DDF_TESTS, "killed"),
    ("ddf.certify-first-probe-only", DDF,
     "certify = not j or any(mu == active[0] for _, mu in tau)",
     "certify = not j",
     DDF_TESTS, "killed"),
    # one literal per (m, i, n, v) for both builders
    ("ddf.literal-memo-without-v", DDF,
     "if (j, u) != (i, v):", "if j != i:",
     DDF_TESTS, "killed"),
    # the V_t images kept once in the d = 2 model and lifted to full d
    ("ddf.split-relabel-to-zero", DDF,
     "tuple((a, 1 if mu else 0) for a, mu in mono if mu in (0, last))",
     "tuple((a, 0) for a, mu in mono if mu in (0, last))",
     DDF_TESTS, "killed"),
    ("ddf.image-cache-without-last", DDF,
     "    image = k.images.get((t, lam, last))\n"
     "    if image is None:\n"
     "        image = k.images[t, lam, last] = _lifted(\n",
     "    image = k.images.get((t, lam))\n"
     "    if image is None:\n"
     "        image = k.images[t, lam] = _lifted(\n",
     DDF_TESTS, "killed"),
    ("ddf.contract-last-from-k", DDF,
     "w += apply_oscillator((mode, params.d - 1), v, params)",
     "w += apply_oscillator((mode, len(k.components) - 1), v, params)",
     DDF_TESTS, "killed"),
    # the calibration's failing directions, read off the live s
    ("ddf.failing-without-momentum-directions", DDF,
     "i for i in active if 0 in live and p[i]}",
     "i for i in active if False}",
     DDF_TESTS, "killed"),
    ("ddf.failing-without-all-at-negative-s", DDF,
     "failing = set(active) if min(live, default=0) < 0 else {",
     "failing = {",
     DDF_TESTS, "killed"),
    # the fraction-free elimination step behind rank and inertia
    ("linalg.drop-hyperbolic-column-half", LINALG,
     "            for row in live.values():\n"
     "                if j in row:\n"
     "                    row[i] = row.get(i, 0) + row[j]\n",
     "",
     LINALG_TESTS, "killed"),
    ("linalg.drop-column-scaling", LINALG,
     "{j: x * scales[j] for j, x in row.items()}",
     "{j: x for j, x in row.items()}",
     LINALG_TESTS, "killed"),
    ("linalg.pivot-sign-alone", LINALG,
     "if (top[p] > 0) == (prev > 0):",
     "if top[p] > 0:",
     LINALG_TESTS, "killed"),
    ("linalg.skip-rows-without-pivot", LINALG,
     "new = {j: a * piv for j, a in row.items()}",
     "new = {j: a * (piv if c in row else prev) for j, a in row.items()}",
     LINALG_TESTS, "killed"),
    # the lazy ordered enumerator of level monomials and the DDF words
    ("fock.enumerate-without-repeats", FOCK,
     "yield from extend(prefix + (key,), remaining - key[0], i)",
     "yield from extend(prefix + (key,), remaining - key[0], i + 1)",
     FOCK_TESTS, "killed"),
    # the integer lane: numerators over one denominator per vector, checked
    # against {monomial: value} dicts
    ("fock.add-skips-rescaling-other", FOCK,
     "f = sign * self._over(other.den)",
     "f = sign + 0 * self._over(other.den)",
     LANE_TESTS, "killed"),
    ("fock.scaled-drops-scalar-denominator", FOCK,
     "self.den * b)._reduce()", "self.den)._reduce()",
     LANE_TESTS, "killed"),
    ("fock.reduce-keeps-denominator", FOCK,
     "                self.den //= g\n", "",
     LANE_TESTS, "killed"),
    # the one diagonal-operator path, and the L_0 weight both engines share
    ("fock.diagonal-ignores-den", FOCK,
     "return FockVector._of(out, den * self.den)._reduce()",
     "return FockVector._of(out, self.den)._reduce()",
     LANE_TESTS, "killed"),
    ("fock.diagonal-keeps-zero-weights", FOCK,
     "            w = weight(mono)\n"
     "            if w:\n"
     "                out[mono] = c * w\n",
     "            out[mono] = c * weight(mono)\n",
     LANE_TESTS, "killed"),
    ("fiber.l0-weight-plus-b", FIBER,
     "(den * level_of(mono) - B)", "(den * level_of(mono) + B)",
     FIBER_TESTS, "killed"),
    ("fock.j-counts-spatial-factors", FOCK,
     "(-1) ** sum(1 for _, mu in mono if mu == 0)",
     "(-1) ** sum(1 for _, mu in mono if mu != 0)",
     FOCK_TESTS, "killed"),
    ("fiber.two-l-row-over-undoubled-denominator", FIBER,
     "out = FockVector._of({}, 2 * den * v.den)",
     "out = FockVector._of({}, den * v.den)",
     LANE_TESTS, "killed"),
    ("fock.product-drops-tau", FOCK,
     "tuple(sorted(mono + tau)) if tau else mono", "mono",
     DDF_TESTS, "killed"),
    # each U-ladder rung kept once per null vector and lightcone state
    ("ddf.ladder-cache-without-state", DDF,
     "        w = k.ladders.get((idx, lc))\n"
     "        if w is None:\n"
     "            w = k.ladders[idx, lc] = u_op_apply(",
     "        w = k.ladders.get(idx)\n"
     "        if w is None:\n"
     "            w = k.ladders[idx] = u_op_apply(",
     DDF_TESTS, "killed"),
    # the exact commands' report bytes, pinned in tier-1
    ("cli.report-indent", CLI,
     "json.dumps(report, sort_keys=True, indent=2)",
     "json.dumps(report, sort_keys=True, indent=1)",
     PIN_TESTS, "killed"),
    ("spectrum.words-admit-direction-zero", SPECTRUM,
     "if all(0 < mu <= n_transverse for _, mu in mono)",
     "if all(0 <= mu <= n_transverse for _, mu in mono)",
     WORD_TESTS, "killed"),
    # the rational root and the rational shell samples built on it
    ("exactnum.accept-non-square", EXACTNUM,
     "    if n * n != q.numerator or d * d != q.denominator:\n"
     "        raise ValueError(f\"{q} is not the square of a rational\")\n",
     "",
     EXACTNUM_TESTS, "killed"),
    ("cli.sample-off-shell", CLI,
     "x = (tf.shell / s - s) / 2", "x = (tf.shell / s + s) / 2",
     SAMPLE_TESTS, "killed"),
    # the symbolic ring: one Laurent polynomial in (w, p^1, ..., p^{d-1})
    ("poly.shear-sign-flipped", POLY,
     "c * comb(a, k) * sign ** k", "c * comb(a, k) * (-sign) ** k",
     POLY_TESTS, "killed"),
    ("poly.gamma-from-highest-w", POLY,
     "max(0, -min((e[0] for e in self._lc.terms), default=0))",
     "max(0, -max((e[0] for e in self._lc.terms), default=0))",
     POLY_TESTS, "killed"),
    ("poly.divide-non-pure-w-power", POLY,
     "if len(self._lc.terms) != 1 or any(exps[1:]):",
     "if len(self._lc.terms) != 1:",
     POLY_TESTS, "killed"),
    ("poly.cleared-off-by-one", POLY,
     "return _shear(self._lc * _w_power(self.d, gamma), 1)",
     "return _shear(self._lc * _w_power(self.d, gamma + 1), 1)",
     POLY_TESTS, "killed"),
    # ring values hash like the values they equal
    ("poly.constant-hashed-by-terms", POLY,
     "if not any(map(any, self.terms)):", "if False:",
     POLY_TESTS, "killed"),
    ("poly.section-hashed-by-laurent-form", POLY,
     "return hash(self._lc if self.gamma else self.num)",
     "return hash(self._lc)",
     POLY_TESTS, "killed"),
    # the support slices by FFT and the Gauss-Legendre rules built once
    ("testfn.output-fftshift-dropped", TESTFN,
     "len(h) * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(h)))",
     "len(h) * np.fft.ifft(np.fft.ifftshift(h))",
     TESTFN_TESTS, "killed"),
    ("testfn.output-shift-off-by-one-on-odd-grids", TESTFN,
     "np.fft.fftshift(np.fft.ifft(", "np.fft.ifftshift(np.fft.ifft(",
     TESTFN_TESTS, "killed"),
    ("testfn.input-shift-off-by-one-on-odd-grids", TESTFN,
     "np.fft.ifft(np.fft.ifftshift(h))", "np.fft.ifft(np.fft.fftshift(h))",
     TESTFN_TESTS, "killed"),
    ("testfn.mask-recentred-on-profile-center", TESTFN,
     "mass[np.abs(x) > R_dec]",
     "mass[np.abs(x - float(tf.profile.center[mu])) > R_dec]",
     TESTFN_TESTS, "killed"),
    ("testfn.rule-cache-dropped", TESTFN,
     "@lru_cache(maxsize=64)\n", "",
     TESTFN_TESTS, "killed"),
    ("testfn.cached-rule-writeable", TESTFN,
     "    nodes.flags.writeable = weights.flags.writeable = False\n", "",
     TESTFN_TESTS, "killed"),
    # numpy is imported inside the numeric functions only, so the exact
    # commands never load it
    ("testfn.numpy-imported-at-module-level", TESTFN,
     "from math import pi\n", "from math import pi\n\nimport numpy as np\n",
     NO_NUMPY_TESTS, "killed"),
    ("field.numpy-imported-at-module-level", FIELD,
     "from math import isfinite, pi, sqrt\n",
     "from math import isfinite, pi, sqrt\n\nimport numpy as np\n",
     NO_NUMPY_TESTS, "killed"),
    # the benchmark's layer tracer wraps field's functions on every
    # workload, so cli, which every workload imports, must load field
    ("cli.field-not-imported-at-module-level", CLI,
     "from .field import QuadratureSpec, locality_check, locality_sweep\n",
     "", TRACER_TESTS, "killed"),
    # a sound variant: every R_s below the bound is zero, so starting one
    # step lower only builds an empty image
    ("ddf.widen-s-lower-bound", DDF,
     "range(n - level_of(lam) - max(0, -m), top + 1)",
     "range(n - level_of(lam) - max(0, -m) - 1, top + 1)",
     DDF_TESTS, "survived"),
    # a sound variant: V_{n-s} lam = 0 for s < n - level(lam), so A^i_n
    # starting one step lower only builds an empty image
    ("ddf.vector-widen-s-lower-bound", DDF,
     "range(n - level_of(lam), top + 1)",
     "range(n - level_of(lam) - 1, top + 1)",
     DDF_TESTS, "survived"),
    # a sound variant: skipping the later keys instead of stopping is slower
    ("fock.skip-instead-of-stop", FOCK,
     "            if key[0] > remaining:\n"
     "                return\n",
     "            if key[0] > remaining:\n"
     "                continue\n",
     FOCK_TESTS, "survived"),
    # a sound variant: any nonzero diagonal pivot gives the same inertia
    ("linalg.last-diagonal-pivot", LINALG,
     "p = min(diagonal, key=lambda i: abs(live[i][i]))",
     "p = diagonal[-1]",
     LINALG_TESTS, "survived"),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "results")
    for name in ("src", "tests", "perfbench", "scripts"):
        shutil.copytree(benchkit.ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(benchkit.ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where: Path, selection) -> tuple[int, float]:
    """Exit code and wall time of ``pytest -x -q`` on a copy."""
    env = dict(os.environ, PYTHONPATH=str(where / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", *selection]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=where, env=env, capture_output=True,
                          check=False)
    return proc.returncode, time.perf_counter() - t0


def run_row(row) -> dict:
    ident, path, old, new, selection, expected = row
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        _copy_tree(where)
        target = where / path
        text = target.read_text()
        if text.count(old) != 1:
            verdict, code, wall = "stale", None, 0.0
        else:
            target.write_text(text.replace(old, new))
            code, wall = _pytest(where, selection)
            verdict = {0: "survived", 1: "killed"}.get(code, "error")
    return {"id": ident, "file": path, "selection": list(selection),
            "expected": expected, "verdict": verdict,
            "ok": verdict == expected, "pytest_exit": code,
            "wall_s": round(wall, 2)}


def baseline(selections) -> dict:
    """Exit code and time of every selection on an unmutated copy."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="mutant-base-") as tmp:
        where = Path(tmp)
        _copy_tree(where)
        for selection in selections:
            code, wall = _pytest(where, selection)
            out[" ".join(selection)] = {"pytest_exit": code,
                                        "wall_s": round(wall, 2)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True,
                    help="where to write the JSON result")
    args = ap.parse_args(argv)

    machine = benchkit.machine()
    base = baseline(sorted({row[4] for row in MUTANTS}))
    results = []
    if all(b["pytest_exit"] == 0 for b in base.values()):
        for row in MUTANTS:
            results.append(run_row(row))
            print(json.dumps(results[-1]), flush=True)
    result = {
        "commit": benchkit.git_head(),
        "machine": machine,
        "loadavg_after": list(os.getloadavg()),
        "baseline": base,
        "mutants": results,
        "all_as_expected": bool(results) and all(r["ok"] for r in results),
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0 if result["all_as_expected"] else 1


if __name__ == "__main__":
    sys.exit(main())
