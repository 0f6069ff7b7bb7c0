"""The four workloads: inputs drawn from a seed, one operation, its checks.

Every operation goes through module attributes (``cli.main``,
``fiber.virasoro_bracket_scan``, ...) looked up at call time, so that a
traced run reaches the wrappers that :mod:`spans` puts in place.  The
checks compare against :mod:`series` or against properties the method
must have, never against a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

from openstring import cli, ddf, fiber, fock, testfn

from series import boson_levels, central_term, mode_pairs, transverse_count

D = 26
PARAMS = fock.ModelParams(d=D, b=Fraction(1))


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok, message) -> None:
    if not ok:
        raise CheckFailed(message)


def run_cli(argv) -> tuple:
    """(exit code, stdout) of one in-process ``openstring`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


# Values of the CLI's --seed whose seeded probe momentum has 22 nonzero
# components, 11 of them non-integral, screened against the CLI's sampler
# at the commit that added this benchmark.  The exact engines' cost grows
# with the number of nonzero components (about as its square), so mapping
# every workload seed onto this table keeps the work of the `virasoro`
# and `ddf` commands the same from seed to seed.
CLI_SEEDS = (2, 81, 107, 156, 168, 231, 237, 260, 263, 290, 296, 338)


def _cli_seed(seed: int) -> int:
    return CLI_SEEDS[seed % len(CLI_SEEDS)]


def _rational_momentum(rng) -> fiber.Momentum:
    """All components nonzero, half of them non-integral, with
    p^0 + p^{d-1} != 0: the same amount of exact work for every seed."""
    while True:
        dens = [1] * (D // 2) + [rng.choice((2, 3)) for _ in range(D - D // 2)]
        rng.shuffle(dens)
        comps = [Fraction(rng.choice((-2, -1, 1, 2, 3)), q) for q in dens]
        if comps[0] + comps[-1]:
            return fiber.Momentum(tuple(comps))


# -- observable ------------------------------------------------------------


class Observable:
    name = "observable"
    radius = Fraction(1, 10)
    tol = 1e-6          # the CLI's default locality tolerance
    dq = 2              # the CLI's default quadrature slice

    def build(self, seed: int) -> dict:
        rng = random.Random(seed)
        dirs = range(1, self.dq + 1)
        if rng.randrange(2):
            word = [(rng.choice(dirs), 1)]
        elif rng.randrange(2):
            word = [(rng.choice(dirs), 2)]
        else:
            word = [(rng.choice(dirs), 1), (rng.choice(dirs), 1)]
        text = ",".join(f"{i}:{n}" for i, n in word)
        return {"word": word, "argv": ["observable", "--radius",
                                       str(self.radius), "--word", text]}

    def run(self, inputs: dict) -> dict:
        code, out = run_cli(inputs["argv"])
        return {"code": code, "out": out}

    def check(self, inputs: dict, result: dict) -> None:
        _require(result["code"] == 0, f"exit code {result['code']}")
        rep = json.loads(result["out"])
        _require(rep["word"] == [list(t) for t in inputs["word"]],
                 "report names another word")
        _require(rep["radius"] == str(self.radius), "report names another radius")
        _require(rep["c1_real"] is True, "body is not C1-real")
        _require(rep["constraints_pass"] is True, "constraints failed")
        _require(float(rep["support_worst_fraction"]) < 1e-3,
                 "support mass outside the radius")
        loc = rep["locality"]
        _require(loc["tol"] == self.tol, "unexpected locality tolerance")
        _require(math.hypot(loc["kernel_re"], loc["kernel_im"]) < self.tol,
                 "spacelike commutator above tol")
        _require(loc["control_abs"] > 10.0 * self.tol,
                 "timelike control not above 10 tol")
        # constraints again, at shell momenta the CLI does not sample
        tf = testfn.realify(testfn.make_testfunction(
            inputs["word"], testfn.BumpProfile(self.radius, D), PARAMS))
        report = testfn.verify_constraints_pointwise(tf, self._samples(tf.shell))
        _require(report.residual_terms == 0,
                 f"{report.residual_terms} constraint residual terms")

    @staticmethod
    def _samples(r) -> list:
        """Exact momenta (t, x, 0, ...) with t^2 - x^2 = r: t - x = s and
        t + x = r / s, or t = x = s on the massless shell."""
        out = []
        for s in (Fraction(1, 2), Fraction(1), Fraction(3)):
            t, x = ((s + r / s) / 2, (r / s - s) / 2) if r else (s, s)
            out.append(fiber.Momentum((t, x) + (Fraction(0),) * (D - 2)))
        return out


# -- noghost -----------------------------------------------------------------


class Noghost:
    name = "noghost"
    max_level = 2

    def build(self, seed: int) -> dict:
        # The scan has no random input; the seed sets the d-list order.
        d_list = [10, 26] if random.Random(seed).randrange(2) else [26, 10]
        return {"d_list": d_list,
                "argv": ["noghost", "--d-list", ",".join(map(str, d_list)),
                         "--max-level", str(self.max_level)]}

    def run(self, inputs: dict) -> dict:
        code, out = run_cli(inputs["argv"])
        return {"code": code, "out": out}

    def check(self, inputs: dict, result: dict) -> None:
        _require(result["code"] == 0, f"exit code {result['code']}")
        lines = result["out"].strip().split("\n")
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        want = [(d, lvl) for d in inputs["d_list"]
                for lvl in range(self.max_level + 1)]
        _require([(int(r["d"]), int(r["level"])) for r in rows] == want,
                 "rows do not cover the requested grid in order")
        for row in rows:
            d, lvl = int(row["d"]), int(row["level"])
            n = {k: int(row[k]) for k in ("dim_total", "dim_physical",
                                          "dim_spurious", "n_plus",
                                          "n_minus", "n_zero")}
            where = f"d={d} level={lvl}"
            _require(n["dim_total"] == boson_levels(d, lvl)[lvl],
                     f"{where}: dim_total is not the Euler coefficient")
            _require(n["n_minus"] == 0, f"{where}: negative-norm states")
            _require(n["n_zero"] == n["dim_spurious"],
                     f"{where}: null count differs from spurious count")
            _require(n["n_plus"] + n["n_minus"] + n["n_zero"]
                     == n["dim_physical"], f"{where}: signature sum")
            if d == 26:
                _require(n["n_plus"] == transverse_count(d, lvl),
                         f"{where}: n_plus is not the transverse count")


# -- virasoro ----------------------------------------------------------------


class Virasoro:
    name = "virasoro"
    cli_level = 1
    grid_level = 2
    bound = 3           # |m|, |n| <= 3, as the CLI walks the grid

    def build(self, seed: int) -> dict:
        rng = random.Random(seed)
        # integral probe with three nonzero components, like the CLI's
        # fixed one, so the integer engine does the same work for any seed
        comps = [0] * D
        comps[0] = rng.randint(1, 3)
        comps[rng.randint(1, D - 2)] = rng.choice((-2, -1, 1, 2))
        comps[-1] = rng.randint(1, 2)
        return {
            "momentum": fiber.Momentum(tuple(Fraction(c) for c in comps)),
            "argv": ["virasoro", "--d", str(D), "--max-level",
                     str(self.cli_level), "--seed", str(_cli_seed(seed))],
        }

    def run(self, inputs: dict) -> dict:
        code, out = run_cli(inputs["argv"])
        states = nonzero = 0
        for m, n in mode_pairs(self.bound):
            for _, res in fiber.virasoro_bracket_scan(
                    m, n, self.grid_level, inputs["momentum"], PARAMS):
                states += 1
                nonzero += bool(res)
        return {"code": code, "out": out, "states": states,
                "nonzero": nonzero}

    def check(self, inputs: dict, result: dict) -> None:
        _require(result["code"] == 0, f"exit code {result['code']}")
        rep = json.loads(result["out"])
        pairs = len(mode_pairs(self.bound))
        _require(rep["mode_pairs"] == pairs, "mode pair count")
        _require(rep["nonzero_residuals"] == 0, "CLI bracket residuals")
        cli_states = pairs * len(rep["momenta"]) * sum(
            boson_levels(D, self.cli_level))
        _require(rep["states_checked"] == cli_states,
                 f"CLI checked {rep['states_checked']} states, "
                 f"expected {cli_states}")
        _require(result["nonzero"] == 0, "integer-grid bracket residuals")
        grid_states = pairs * boson_levels(D, self.grid_level)[-1]
        _require(result["states"] == grid_states,
                 f"grid scanned {result['states']} states, "
                 f"expected {grid_states}")
        momenta = [inputs["momentum"]] + [
            fiber.Momentum(tuple(Fraction(c) for c in comps))
            for comps in rep["momenta"]]
        vac = fock.FockVector.vacuum()
        for p in momenta:
            l0 = fock.inner_indefinite(
                vac, fiber.virasoro_apply(0, p, vac, PARAMS))
            for m in (1, 2, 3):
                w = fiber.virasoro_apply(
                    m, p, fiber.virasoro_apply(-m, p, vac, PARAMS), PARAMS)
                c = fock.inner_indefinite(vac, w) - 2 * m * l0
                _require(c == central_term(D, PARAMS.b, m),
                         f"central term {c} at m={m}")


# -- ddf ---------------------------------------------------------------------


class Ddf:
    name = "ddf"
    modes = (-2, -1, 1, 2)
    probe_levels = (0, 1, 2)
    per_cell = 10       # draws per (m, n, probe level): 480 cases in all

    def build(self, seed: int) -> dict:
        rng = random.Random(seed)
        momentum = _rational_momentum(rng)
        basis = {lvl: list(fock.iter_level_basis(PARAMS, lvl))
                 for lvl in self.probe_levels}
        cases = [
            (m, rng.randint(1, D - 2), n,
             fock.FockVector.basis_state(rng.choice(basis[lvl])))
            for m in self.modes for n in self.modes
            for lvl in self.probe_levels for _ in range(self.per_cell)
        ]
        probes = [fock.FockVector.basis_state(rng.choice(basis[lvl]))
                  for lvl in self.probe_levels]
        return {"momentum": momentum, "cases": cases, "probes": probes,
                "argv": ["ddf", "--seed", str(_cli_seed(seed))]}

    def run(self, inputs: dict) -> dict:
        code, out = run_cli(inputs["argv"])
        ctx = ddf.DdfContext(PARAMS, inputs["momentum"])
        mismatched = nonzero = 0
        for m, i, n, v in inputs["cases"]:
            res = ddf.ddf_commutator_residual(m, i, n, v, ctx)
            mismatched += res != ddf.ddf_commutator_defect(m, i, n, v, ctx)
            nonzero += bool(res)
        return {"code": code, "out": out, "mismatched": mismatched,
                "nonzero": nonzero}

    def check(self, inputs: dict, result: dict) -> None:
        _require(result["code"] == 0, f"exit code {result['code']}")
        rep = json.loads(result["out"])
        _require(rep["kappa"] == "1", f"calibrated kappa {rep['kappa']}")
        _require(rep["max_nonzero_residual"] == "0", "constraint residuals")
        _require(all(p["constraint_residual_terms"] == 0
                     for p in rep["probes"]), "probe constraint residuals")
        _require(result["mismatched"] == 0,
                 f"{result['mismatched']} residuals differ from the "
                 "closed-form defect")
        _require(result["nonzero"] > 0,
                 "every sampled residual vanished: the defect check is empty")
        # [A^i_m, A^j_n] = m delta_ij delta_{m+n}
        ctx = ddf.DdfContext(PARAMS, inputs["momentum"])
        for v in inputs["probes"]:
            for i, j in ((1, 1), (1, 2), (D - 2, D - 2)):
                for m, n in ((-1, 1), (1, -1), (2, -2), (-1, 2)):
                    res = (ddf.ddf_apply(i, m, ddf.ddf_apply(j, n, v, ctx), ctx)
                           - ddf.ddf_apply(j, n, ddf.ddf_apply(i, m, v, ctx), ctx))
                    if i == j and m + n == 0:
                        res = res - v.scaled(Fraction(m))
                    _require(not res, f"ladder bracket i={i} j={j} m={m} n={n}")


WORKLOADS = {w.name: w for w in (Observable(), Noghost(), Virasoro(), Ddf())}
