"""Command-line front end: algebra checks, scans, and the locality demo.

Every subcommand is a thin shell over the library: it runs one
verification pipeline, writes a deterministic report, and encodes the
verdict in the exit status —

    0   every check the command ran passed,
    1   a check ran to completion and failed,
    2   the request itself was unusable (bad flags, bad config, bad
        geometry, a grid too coarse for the radius),
    3   operator calibration failed (no normalization candidate works;
        the residual evidence is dumped),
    4   internal error: two exact routes disagreed, a result failed
        its certificate, or any other exception escaped a handler (a
        fault of the program, not of the request).

Each flag is declared once in ``FLAGS`` and each subcommand once in
``COMMANDS``, with the flags it reads and their defaults.  A value comes
from the command line, else the --config JSON file, else the default,
and is parsed and range-checked the same way on every route.

Reports are byte-stable for a fixed command line and seed: dictionaries
are emitted with sorted keys, floats are formatted explicitly, and the
only randomness is drawn from the --seed flag.

The exact commands never load numpy; the numeric ones (``testfn``,
``locality``, ``observable``) load it on demand, inside the functions of
``testfn`` and ``field`` that compute numerically.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .ddf import CalibrationError, DdfContext, calibrate_normalization, \
    constraint_report, ddf_state
from .exactnum import sqrt_fraction
from .fiber import Momentum, virasoro_bracket_scan
from .fock import InvariantError, ModelParams, basis_dimension, \
    iter_level_basis
from .field import QuadratureSpec, locality_check, locality_sweep
from .spectrum import find_onshell_momentum, noghost_csv, noghost_scan
from .testfn import BumpProfile, ResolutionError, SeparationError, \
    is_c1_real, make_testfunction, realify, verify_constraints_pointwise, \
    verify_support

__all__ = ["main"]


class ConfigError(ValueError):
    """The command line or config file cannot be turned into a run."""


# -- flags ----------------------------------------------------------------------


def _parse_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


def _parse_word(text) -> list:
    """Lowering word syntax: 'i:n,i:n,...' with transverse i and n > 0."""
    if not text:
        return []
    out = []
    for piece in str(text).split(","):
        try:
            i, n = piece.split(":")
            out.append((int(i), int(n)))
        except ValueError as exc:
            raise ConfigError(
                f"bad word entry {piece!r} (want direction:mode)") from exc
    return out


def _parse_vector(text) -> tuple:
    return tuple(_parse_fraction(c) for c in str(text).split(","))


class Flag(NamedTuple):
    """``kind`` is the type on the command line and in a config file (bool
    is a switch, list takes words); ``parse`` makes what the command reads
    of it, and ``check`` = (predicate, requirement) must then hold."""

    kind: type
    help: str
    parse: Callable | None = None
    check: tuple | None = None
    choices: tuple | None = None
    config: bool = True


FLAGS = {
    "d": Flag(int, "spacetime dimension",
              check=(lambda v: v >= 2, "must be at least 2")),
    "b": Flag(str, "normal-ordering constant, rational", _parse_fraction),
    "seed": Flag(int, "seed for the randomized probe momentum"),
    "max_level": Flag(int, "highest oscillator level",
                      check=(lambda v: v >= 0, "must be nonnegative")),
    "kappa_set": Flag(list, "normalization candidates to try, rationals",
                      lambda texts: tuple(map(_parse_fraction, texts)),
                      (lambda ks: ks and all(ks), "must be nonempty, without "
                       "candidate 0, which makes k(p) and every A^i_n vanish")),
    "d_list": Flag(str, "comma-separated dimensions",
                   lambda text: [int(x) for x in str(text).split(",")],
                   (lambda ds: all(d >= 2 for d in ds),
                    "must have every entry at least 2")),
    "format": Flag(str, "report format", choices=("csv", "json")),
    "timings": Flag(bool, "add each row's wall time to the CSV", config=False),
    "word": Flag(str, "lowering word i:n,i:n,...", _parse_word),
    "momentum": Flag(
        str, "comma-separated rational components (default: on the shell)",
        lambda text: Momentum(_parse_vector(text)), (lambda p: p.lightcone(),
        "must be off p^0 + p^{d-1} = 0, where every A^i_n vanishes")),
    "radius": Flag(str, "support radius, rational", _parse_fraction),
    "separation": Flag(str, "a0,a1,... (default: R/2, 4R, 0, ...)", _parse_vector),
    "sweep": Flag(str, "semicolon-separated separation vectors -> CSV",
                  lambda text: [_parse_vector(s) for s in str(text).split(";")],
                  config=False),
    "grid": Flag(int, "grid points per axis",
                 check=(lambda v: v > 0, "must be positive")),
    "dq": Flag(int, "spatial dimensions of the quadrature slice"),
    "extent": Flag(float, "quadrature half-width (default: 24/R)"),
    "tol": Flag(float, "pass tolerance", check=(
        lambda v: math.isfinite(v) and v > 0, "must be a finite positive number")),
    "out": Flag(str, "write the report here", config=False),
    "config": Flag(str, "JSON file of values for these flags", config=False),
}


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key, value in raw.items():
        flag = FLAGS.get(key)
        if flag is None or not flag.config:
            raise ConfigError(f"unknown config key {key!r}")
        want = flag.kind
        accept = (int, float) if want is float else want
        if not isinstance(value, accept) or isinstance(value, bool) != (want is bool):
            raise ConfigError(f"config key {key!r} should be {want.__name__}")
        if flag.choices and value not in flag.choices:
            raise ConfigError(f"unsupported {key} {value!r} in config "
                              f"(choose from {', '.join(flag.choices)})")
    return raw


def _merge(args: argparse.Namespace, reads: dict) -> None:
    """Set each flag the command reads from the command line, else the
    config file, else the command's default; then parse and check it."""
    cfg = _load_config(args.config) if args.config else {}
    for key, default in reads.items():
        flag, opt = FLAGS[key], "--" + key.replace("_", "-")
        raw = getattr(args, key)
        value = raw = cfg.get(key, default) if raw is None else raw
        if raw is not None and flag.parse:
            try:
                value = flag.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"{opt}: {exc}") from exc
        if raw is not None and flag.check and not flag.check[0](value):
            raise ConfigError(f"{opt} {flag.check[1]}, got {raw}")
        setattr(args, key, value)


def _emit(report, out_path) -> None:
    """Write CSV text as it is, a dict as sorted, indented JSON."""
    if isinstance(report, dict):
        report = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


def _report(payload: dict, out_path) -> int:
    """Write a JSON report; its "pass" field is the verdict."""
    _emit(payload, out_path)
    return 0 if payload["pass"] else 1


def _probe_momenta(d: int, seed: int) -> list:
    """Two rational fibers: a fixed transversal one and a seeded one.

    Both keep p^0 + p^{d-1} nonzero, which every operator construction
    here needs; the seeded momentum varies with --seed so repeated runs
    can widen coverage without losing reproducibility.
    """
    fixed = [Fraction(0)] * d
    fixed[0], fixed[-1] = Fraction(2), Fraction(1)
    if d > 2:
        fixed[1] = Fraction(1)
    rng = random.Random(seed)
    while True:
        comps = [Fraction(rng.randint(-2, 3), rng.randint(1, 3))
                 for _ in range(d)]
        if comps[0] + comps[-1]:
            break
    return [Momentum(tuple(fixed)), Momentum(tuple(comps))]


# -- subcommands ---------------------------------------------------------------


def cmd_virasoro(args) -> int:
    params = ModelParams(args.d, args.b)
    momenta = _probe_momenta(params.d, args.seed)
    pairs = checked = bad = 0
    for m in range(-3, 4):
        for n in range(m, 4):
            pairs += 1
            for level in range(0, args.max_level + 1):
                for p in momenta:
                    for _, res in virasoro_bracket_scan(m, n, level, p, params):
                        checked += 1
                        bad += bool(res)   # states, not terms
    return _report({
        "d": params.d,
        "b": str(params.b),
        "max_level": args.max_level,
        "momenta": [[str(c) for c in p.components] for p in momenta],
        "mode_pairs": pairs,
        "states_checked": checked,
        "nonzero_residuals": bad,
        "pass": bad == 0,
    }, args.out)


def _residual_terms(state, ctx) -> int:
    """Terms left in L_m state for the lowering constraints m >= 1."""
    return sum(len(v) for m, v in constraint_report(state, ctx).items()
               if m >= 1)


def cmd_ddf(args) -> int:
    params = ModelParams(args.d, args.b)
    momenta = _probe_momenta(params.d, args.seed)
    kappa = calibrate_normalization(params, momenta, candidates=args.kappa_set)
    probes = []
    for p in momenta:
        ctx = DdfContext(params, p, kappa=kappa)
        probes.append({
            "momentum": [str(c) for c in p.components],
            "word": "1:1",
            "constraint_residual_terms": _residual_terms(
                ddf_state([(1, 1)], ctx), ctx),
        })
    worst = max(probe["constraint_residual_terms"] for probe in probes)
    return _report({
        "kappa": str(kappa),
        "candidates": [str(c) for c in args.kappa_set],
        "probes": probes,
        "max_nonzero_residual": str(worst),
        "pass": worst == 0,
    }, args.out)


def cmd_noghost(args) -> int:
    reports = noghost_scan(args.d_list, b=args.b, max_level=args.max_level)
    if args.format == "csv":
        _emit(noghost_csv(reports, timings=args.timings), args.out)
    else:
        _emit({
            "rows": [
                {
                    "d": rep.d, "b": str(rep.b), "level": rep.level,
                    "r": str(rep.r), "dim_total": rep.dim_total,
                    "dim_physical": rep.dim_physical,
                    "dim_spurious": rep.dim_spurious,
                    "signature": list(rep.signature),
                }
                for rep in reports
            ],
        }, args.out)
    critical = [rep for rep in reports if rep.d == 26 and rep.b == 1]
    return 0 if all(rep.signature[1] == 0 for rep in critical) else 1


def cmd_ddf_state(args) -> int:
    params = ModelParams(args.d, args.b)
    level = sum(n for _, n in args.word)
    p = args.momentum or find_onshell_momentum(
        2 * (level - params.b), params.d).p
    ctx = DdfContext(params, p)
    state = ddf_state(args.word, ctx)
    bad = _residual_terms(state, ctx)
    return _report({
        "d": params.d,
        "b": str(params.b),
        "word": [list(t) for t in args.word],
        "momentum": [str(c) for c in p.components],
        "level": level,
        "terms": {
            " ".join(f"{n}:{mu}" for n, mu in mono): str(c)
            for mono, c in sorted(state.items())
        },
        "constraint_residual_terms": bad,
        "pass": bad == 0,
    }, args.out)


def _testfunction(args):
    params = ModelParams(args.d, args.b)
    profile = BumpProfile(args.radius, params.d)
    return realify(make_testfunction(args.word, profile, params))


def _verify_body(tf, grid: int = 1024, tol: float = 1e-3):
    """Exact constraints at shell momenta, then the numeric support
    certificate along the first (at most four) axes.  The momenta are the
    rational witness of :func:`find_onshell_momentum` and two rational
    points (t, x^1) of the same quadric, -t^2 + x^2 = -r: t - x = s and
    t + x = r/s for s = 1/2 and 3, so that x = (r/s - s)/2 and
    t = sqrt(x^2 + r) is the root of a rational square."""
    samples = [find_onshell_momentum(tf.shell, tf.params.d).p]
    for s in (Fraction(1, 2), Fraction(3)):
        x = (tf.shell / s - s) / 2
        t = sqrt_fraction(x * x + tf.shell)
        samples.append(Momentum((t, x) + (Fraction(0),) * (tf.params.d - 2)))
    constraints = verify_constraints_pointwise(tf, samples)
    axes = tuple(range(min(tf.params.d, 4)))
    return constraints, verify_support(tf, grid=grid, tol=tol, axes=axes)


def cmd_testfn(args) -> int:
    tf = _testfunction(args)
    constraints, support = _verify_body(tf, args.grid, args.tol)
    return _report({
        "testfunction": tf.to_json_dict(),
        "constraints": {
            "samples": len(constraints.samples),
            "max_mode": constraints.max_mode,
            "residual_terms": constraints.residual_terms,
            "pass": constraints.passed,
        },
        "support": {
            "declared_radius": f"{support.declared_radius:.6e}",
            "worst_fraction": f"{support.worst_fraction:.6e}",
            "grid": support.grid,
            "tol": args.tol,
            "pass": support.passed,
        },
        "pass": constraints.passed and support.passed,
    }, args.out)


def _vanishes_on_slice(tf, dq: int) -> bool:
    """True when the body is zero on the quadrature slice p^j = 0, j > dq.

    Each coefficient is reduced modulo the mass shell to A + p^0 B; p^0
    is not a polynomial in the slice momenta, so the coefficient vanishes
    on the slice's shell exactly when no term lives in p^0..p^dq alone.
    """
    for _, q in tf.body.items():
        if any(not any(exps[dq + 1:])
               for exps in q.reduce_shell(tf.shell).terms):
            return False
    return True


def _quadrature(args):
    """The test function, the momentum grid for its locality check, and
    the default separation (R/2, 4R, 0, ...), spacelike to the support.
    A word lowering along directions the slice cannot see, or a body whose
    shell r = 2(level - b) is not in the tower, projects to the zero
    state; both are refused here, before any quadrature, and so is a grid
    the midpoint rule cannot use (``testfn`` takes any n > 0)."""
    if args.grid < 8 or args.grid % 2:
        raise ConfigError(f"--grid must be even and at least 8 for the "
                          f"quadrature, got {args.grid}")
    tf = _testfunction(args)
    hidden = sorted({i for i, _ in tf.word if i > args.dq})
    if hidden and _vanishes_on_slice(tf, args.dq):
        raise ConfigError(
            f"word direction {', '.join(map(str, hidden))} lies outside the "
            f"--dq {args.dq} quadrature slice, which projects the test "
            f"function to zero; raise --dq to {hidden[-1]}")
    radius = tf.profile.R
    extent = 24.0 / float(radius) if args.extent is None else args.extent
    spec = QuadratureSpec(d_q=args.dq, extent=extent, n=args.grid)
    if tf.shell not in spec.levels:
        raise ConfigError(
            f"the body's shell r = 2(level - b) = {tf.shell} is not in the "
            f"quadrature tower {', '.join(map(str, spec.levels))}, which "
            f"projects the test function to zero")
    return tf, spec, (radius / 2, 4 * radius) + (Fraction(0),) * (args.dq - 1)


def cmd_locality(args) -> int:
    tf, spec, sep = _quadrature(args)
    if args.sweep:
        text = locality_sweep(tf, tf, args.sweep, spec, tol=args.tol)
        _emit(text, args.out)
        # columns a0, a_space, spacelike, kernel_abs, pass
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return 0 if all(r[4] == "True" for r in rows if r[2] == "True") else 1
    loc = locality_check(tf, tf, args.separation or sep, spec, tol=args.tol)
    return _report(loc.to_json_dict(), args.out)


def cmd_observable(args) -> int:
    """The headline pipeline: one real constrained compactly supported
    test function, verified end to end — exact constraints at shell
    samples, numeric support certification, then the smeared-commutator
    locality check against a translated copy with its timelike control."""
    tf, spec, sep = _quadrature(args)
    constraints, support = _verify_body(tf)
    loc = locality_check(tf, tf, sep, spec, tol=args.tol)
    return _report({
        "radius": str(tf.profile.R),
        "word": [list(t) for t in tf.word],
        "c1_real": bool(is_c1_real(tf.body)),
        "constraint_samples": len(constraints.samples),
        "constraints_pass": constraints.passed,
        "support_pass": support.passed,
        "support_worst_fraction": f"{support.worst_fraction:.6e}",
        "locality": loc.to_json_dict(),
        "pass": bool(constraints.passed and support.passed
                     and loc.passed and loc.control_passed),
    }, args.out)


def cmd_basis(args) -> int:
    """Level dimensions of the oscillator space, two independent ways.

    The generating function prod_n (1 - q^n)^(-d) is expanded by series
    arithmetic; levels small enough to enumerate are cross-checked
    against the actual monomial basis so the table is self-auditing.
    """
    params = ModelParams(args.d)
    rows = []
    for level in range(args.max_level + 1):
        dim = basis_dimension(params.d, level)
        counted = (sum(1 for _ in iter_level_basis(params, level))
                   if level <= (3 if params.d > 8 else 4) else None)
        if counted is not None and counted != dim:
            raise InvariantError(
                f"series/enumeration mismatch at level {level}: "
                f"{dim} vs {counted}")
        rows.append((level, dim, counted))
    if args.format == "csv":
        lines = ["level,dimension,enumerated"]
        for level, dim, counted in rows:
            lines.append(f"{level},{dim},{'' if counted is None else counted}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit({
            "d": params.d,
            "dimensions": {str(level): dim for level, dim, _ in rows},
        }, args.out)
    return 0


# -- parser --------------------------------------------------------------------

_MODEL = {"d": 26, "b": "1"}
_BODY = {**_MODEL, "word": "1:1", "radius": "1"}
_QUADRATURE = {"grid": 256, "dq": 2, "extent": None, "tol": 1e-6}

_ARGPARSE = {int: {"type": int}, float: {"type": float}, str: {},
             list: {"nargs": "+"}, bool: {"action": "store_true"}}

# name -> (handler, help, {flag the handler reads: its default}); every
# subcommand also takes --out and --config
COMMANDS = {
    "virasoro": (cmd_virasoro, "bracket identity grid, exact", {
        **_MODEL, "seed": 0, "max_level": 2}),
    "ddf": (cmd_ddf, "calibrate and verify the transverse operators", {
        **_MODEL, "seed": 0, "kappa_set": ["1", "1/2", "2"]}),
    "noghost": (cmd_noghost, "signature scan of physical subspaces", {
        "b": "1", "d_list": "10,26", "max_level": 2, "format": "csv",
        "timings": False}),
    "ddf-state": (cmd_ddf_state, "build one lowering-word state", {
        **_MODEL, "word": "1:1", "momentum": None}),
    "testfn": (cmd_testfn, "build and verify a real constrained test function",
               {**_BODY, "grid": 1024, "tol": 1e-3}),
    "locality": (cmd_locality, "smeared commutator at spacelike separation",
                 {**_BODY, "separation": None, "sweep": None, **_QUADRATURE}),
    "observable": (cmd_observable, "full demonstration pipeline for one "
                   "test function", {**_BODY, **_QUADRATURE}),
    "basis": (cmd_basis, "level dimension table with audit", {
        "d": 26, "max_level": 6, "format": "csv"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openstring",
        description="exact operator checks and locality demonstrations "
                    "for the open bosonic string",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, reads) in COMMANDS.items():
        # exact names only: an unread flag must not pass as a prefix of another
        sub = subs.add_parser(name, help=text, allow_abbrev=False)
        for key, default in {**reads, "out": None, "config": None}.items():
            flag = FLAGS[key]
            shown = " ".join(default) if isinstance(default, list) else default
            shown = "" if default is None else f" (default {shown})"
            # default None marks "not given", so the config file can fill it
            options = dict(_ARGPARSE[flag.kind], default=None,
                           help=flag.help + shown)
            if flag.choices:
                options["choices"] = flag.choices
            sub.add_argument("--" + key.replace("_", "-"), **options)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, reads = COMMANDS[args.command]
    try:
        _merge(args, reads)
        return handler(args)
    except SeparationError as exc:
        sys.stderr.write(f"geometry error: {exc}\n")
        return 2
    except ResolutionError as exc:
        sys.stderr.write(f"resolution error: {exc}; raise --grid\n")
        return 2
    except CalibrationError as exc:
        sys.stderr.write("calibration failed; residual evidence:\n")
        for kappa, witness in exc.residuals.items():
            sys.stderr.write(f"  kappa = {kappa}: {witness}\n")
        return 3
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    except (ValueError, OSError) as exc:  # ConfigError lands here too
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except Exception as exc:    # a fault of the program: not a failed check
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
