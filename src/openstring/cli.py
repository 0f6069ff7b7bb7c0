"""Command-line front end: algebra checks, scans, and the locality demo.

Every subcommand is a thin shell over the library: it parses flags (with
an optional JSON config file supplying defaults), runs one verification
pipeline, writes a deterministic report, and encodes the verdict in the
exit status —

    0   every check the command ran passed,
    1   a check ran to completion and failed,
    2   the request itself was unusable (bad flags, bad config, bad
        geometry, a grid too coarse for the radius, unsupported format,
        refused cost caps),
    3   operator calibration failed (no normalization candidate works;
        the residual evidence is dumped),
    4   internal error: two exact routes disagreed, or a result failed
        its certificate (a fault of the program, not of the request).

Reports are byte-stable for a fixed command line and seed: dictionaries
are emitted with sorted keys, floats are formatted explicitly, and the
only randomness is drawn from the --seed flag.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .ddf import CalibrationError, DdfContext, calibrate_normalization, \
    constraint_report, ddf_state
from .exactnum import sqrt_fraction
from .fiber import Momentum, virasoro_bracket_scan
from .fock import ModelParams, basis_dimension, iter_level_basis
from .field import QuadratureSpec, SeparationError, locality_check, \
    locality_sweep
from .spectrum import InvariantError, find_onshell_momentum, noghost_csv, \
    noghost_scan
from .testfn import BumpProfile, ResolutionError, is_c1_real, \
    make_testfunction, realify, verify_constraints_pointwise, verify_support

__all__ = ["main"]


class ConfigError(ValueError):
    """The command line or config file cannot be turned into a run."""


# -- plumbing -----------------------------------------------------------------


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


_CONFIG_KEYS = {
    "d": int, "b": str, "max_level": int, "seed": int, "tol": float,
    "grid": int, "dq": int, "extent": float, "kappa_set": list,
    "word": str, "radius": str, "momentum": str, "separation": str,
    "d_list": str, "format": str, "allow_expensive": bool,
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
        want = _CONFIG_KEYS.get(key)
        if want is None:
            raise ConfigError(f"unknown config key {key!r}")
        accept = (int, float) if want is float else want
        if not isinstance(value, accept) or isinstance(value, bool) != (want is bool):
            raise ConfigError(
                f"config key {key!r} should be {want.__name__}")
    return raw


def _merge(args: argparse.Namespace) -> argparse.Namespace:
    """Fill argparse gaps from the config file; explicit flags win."""
    cfg = _load_config(args.config) if args.config else {}
    for key, value in cfg.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return args


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict, out_path) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def _model(args) -> ModelParams:
    d = args.d if args.d is not None else 26
    b = _parse_fraction(args.b if args.b is not None else "1")
    if d < 2:
        raise ConfigError("need at least two spacetime dimensions")
    return ModelParams(d=d, b=b)


def _max_level(args, default: int) -> int:
    level = args.max_level if args.max_level is not None else default
    if level < 0:
        raise ConfigError(f"--max-level must be nonnegative, got {level}")
    return level


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
    params = _model(args)
    max_level = _max_level(args, 2)
    if params.d >= 26 and max_level >= 3 and not args.allow_expensive:
        sys.stderr.write(
            "refused: the bracket grid at d >= 26, level >= 3 is a "
            "long run; pass --allow-expensive to lift the cap\n")
        return 2
    momenta = _probe_momenta(params.d, args.seed or 0)
    pairs = checked = bad = 0
    for m in range(-3, 4):
        for n in range(m, 4):
            pairs += 1
            for level in range(0, max_level + 1):
                for p in momenta:
                    for _, res in virasoro_bracket_scan(m, n, level, p, params):
                        checked += 1
                        bad += len(res)
    payload = {
        "d": params.d,
        "b": str(params.b),
        "max_level": max_level,
        "momenta": [[str(c) for c in p.components] for p in momenta],
        "mode_pairs": pairs,
        "states_checked": checked,
        "nonzero_residuals": bad,
        "pass": bad == 0,
    }
    _dump_json(payload, args.out)
    return 0 if bad == 0 else 1


def cmd_ddf(args) -> int:
    params = _model(args)
    momenta = _probe_momenta(params.d, args.seed or 0)
    candidates = tuple(
        _parse_fraction(k)
        for k in (args.kappa_set or ["1", "1/2", "2"])
    )
    if not all(candidates):
        raise ConfigError(
            "normalization candidate 0 is not usable: kappa = 0 makes the "
            "null vector k(p), and with it every A^i_n, vanish")
    kappa = calibrate_normalization(params, momenta, candidates=candidates)
    probes = []
    worst = 0
    for p in momenta:
        ctx = DdfContext(params, p, kappa=kappa)
        state = ddf_state([(1, 1)], ctx)
        residuals = constraint_report(state, ctx)
        nonzero = sum(len(v) for m, v in residuals.items() if m >= 1)
        worst = max(worst, nonzero)
        probes.append({
            "momentum": [str(c) for c in p.components],
            "word": "1:1",
            "constraint_residual_terms": nonzero,
        })
    payload = {
        "kappa": str(kappa),
        "candidates": [str(c) for c in candidates],
        "probes": probes,
        "max_nonzero_residual": str(worst),
        "pass": worst == 0,
    }
    _dump_json(payload, args.out)
    return 0 if worst == 0 else 1


def cmd_noghost(args) -> int:
    d_list = [int(x) for x in str(args.d_list or "10,26").split(",")]
    params_b = _parse_fraction(args.b if args.b is not None else "1")
    max_level = _max_level(args, 2)
    reports = noghost_scan(d_list, b=params_b, max_level=max_level,
                           timings=bool(args.timings))
    fmt = args.format or "csv"
    if fmt == "csv":
        _emit(noghost_csv(reports, timings=bool(args.timings)), args.out)
    elif fmt == "json":
        _dump_json({
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
    else:
        sys.stderr.write(f"unsupported format {fmt!r} for noghost\n")
        return 2
    critical = [rep for rep in reports if rep.d == 26 and rep.b == 1]
    return 0 if all(rep.signature[1] == 0 for rep in critical) else 1


def cmd_ddf_state(args) -> int:
    params = _model(args)
    word = _parse_word(args.word if args.word is not None else "1:1")
    level = sum(n for _, n in word)
    if args.momentum is not None:
        p = Momentum(_parse_vector(args.momentum))
        if p.lightcone() == 0:
            raise ConfigError(
                "momentum has p^0 + p^{d-1} = 0: every transverse operator "
                "vanishes on that fiber, so the state would be zero")
    else:
        p = find_onshell_momentum(2 * (level - params.b), params.d).p
    ctx = DdfContext(params, p)
    state = ddf_state(word, ctx)
    residuals = constraint_report(state, ctx)
    bad = sum(len(v) for m, v in residuals.items() if m >= 1)
    payload = {
        "d": params.d,
        "b": str(params.b),
        "word": [list(t) for t in word],
        "momentum": [str(c) for c in p.components],
        "level": level,
        "terms": {
            " ".join(f"{n}:{mu}" for n, mu in mono): str(c)
            for mono, c in sorted(state.items())
        },
        "constraint_residual_terms": bad,
        "pass": bad == 0,
    }
    _dump_json(payload, args.out)
    return 0 if bad == 0 else 1


def _build_real_testfunction(args, params):
    word = _parse_word(args.word if args.word is not None else "1:1")
    radius = _parse_fraction(args.radius if args.radius is not None else "1")
    profile = BumpProfile(radius, params.d)
    return realify(make_testfunction(word, profile, params))


def _onshell_samples(tf, count=3):
    """Exact momenta on the body's shell: one searched, the rest scaled
    lightcone-plane solutions of the same quadric."""
    base = find_onshell_momentum(tf.shell, tf.params.d)
    samples = [base.p]
    r = tf.shell
    d = tf.params.d
    # (t, x1) plane solutions: -t^2 + x^2 = -r with x = |scale|
    for scale in (Fraction(3, 2), Fraction(5, 2)):
        t_sq = scale * scale + r
        if t_sq <= 0:
            continue
        t = sqrt_fraction(t_sq)
        comps = [t, scale] + [Fraction(0)] * (d - 2)
        samples.append(Momentum(tuple(comps)))
        if len(samples) == count:
            break
    return samples


def cmd_testfn(args) -> int:
    params = _model(args)
    tf = _build_real_testfunction(args, params)
    samples = _onshell_samples(tf)
    constraints = verify_constraints_pointwise(tf, samples)
    grid = args.grid if args.grid is not None else 1024
    tol = args.tol if args.tol is not None else 1e-3
    axes = tuple(range(min(params.d, 4)))
    support = verify_support(tf, grid=grid, tol=tol, axes=axes)
    payload = {
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
            "tol": tol,
            "pass": support.passed,
        },
        "pass": constraints.passed and support.passed,
    }
    _dump_json(payload, args.out)
    return 0 if payload["pass"] else 1


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


def _quadrature(args, tf) -> QuadratureSpec:
    """The momentum grid for the locality check.  A word lowering along
    directions the slice cannot see may project to the zero state; that
    is refused here, before any quadrature."""
    dq = args.dq if args.dq is not None else 2
    hidden = sorted({i for i, _ in tf.word if i > dq})
    if hidden and _vanishes_on_slice(tf, dq):
        raise ConfigError(
            f"word direction {', '.join(map(str, hidden))} lies outside the "
            f"--dq {dq} quadrature slice, which projects the test function "
            f"to zero; raise --dq to {hidden[-1]}")
    n = args.grid if args.grid is not None else 256
    extent = args.extent if args.extent is not None \
        else 24.0 / float(tf.profile.R)
    return QuadratureSpec(d_q=dq, extent=extent, n=n, levels=(0, 2, 4))


def cmd_locality(args) -> int:
    params = _model(args)
    tf = _build_real_testfunction(args, params)
    radius = tf.profile.R
    spec = _quadrature(args, tf)
    tol = args.tol if args.tol is not None else 1e-6
    if args.sweep:
        seps = [_parse_vector(s) for s in str(args.sweep).split(";")]
        _emit(locality_sweep(tf, tf, seps, spec, tol=tol), args.out)
        return 0
    sep = _parse_vector(args.separation) if args.separation is not None \
        else (radius / 2, 4 * radius) + (Fraction(0),) * (spec.d_q - 1)
    report = locality_check(tf, tf, sep, spec, tol=tol)
    _dump_json(report.to_json_dict(), args.out)
    return 0 if (report.passed and report.control_passed) else 1


def cmd_observable(args) -> int:
    """The headline pipeline: one real constrained compactly supported
    test function, verified end to end — exact constraints at shell
    samples, numeric support certification, then the smeared-commutator
    locality check against a translated copy with its timelike control."""
    params = _model(args)
    tf = _build_real_testfunction(args, params)
    radius = tf.profile.R
    spec = _quadrature(args, tf)
    constraints = verify_constraints_pointwise(tf, _onshell_samples(tf))
    support = verify_support(tf, grid=1024, axes=tuple(range(min(params.d, 4))))
    tol = args.tol if args.tol is not None else 1e-6
    sep = (radius / 2, 4 * radius) + (Fraction(0),) * (spec.d_q - 1)
    loc = locality_check(tf, tf, sep, spec, tol=tol)
    payload = {
        "radius": str(radius),
        "word": [list(t) for t in tf.word],
        "c1_real": bool(is_c1_real(tf.body)),
        "constraint_samples": len(constraints.samples),
        "constraints_pass": constraints.passed,
        "support_pass": support.passed,
        "support_worst_fraction": f"{support.worst_fraction:.6e}",
        "locality": loc.to_json_dict(),
        "pass": bool(constraints.passed and support.passed
                     and loc.passed and loc.control_passed),
    }
    _dump_json(payload, args.out)
    return 0 if payload["pass"] else 1


def cmd_basis(args) -> int:
    """Level dimensions of the oscillator space, two independent ways.

    The generating function prod_n (1 - q^n)^(-d) is expanded by series
    arithmetic; levels small enough to enumerate are cross-checked
    against the actual monomial basis so the table is self-auditing.
    """
    params = _model(args)
    max_level = _max_level(args, 6)
    dims = [basis_dimension(params.d, n) for n in range(max_level + 1)]
    audit_cap = min(max_level, 3 if params.d > 8 else 4)
    rows = []
    for level in range(max_level + 1):
        counted = (sum(1 for _ in iter_level_basis(params, level))
                   if level <= audit_cap else None)
        if counted is not None and counted != dims[level]:
            sys.stderr.write(
                f"series/enumeration mismatch at level {level}\n")
            return 1
        rows.append((level, dims[level], counted))
    fmt = args.format or "csv"
    if fmt == "csv":
        lines = ["level,dimension,enumerated"]
        for level, dim, counted in rows:
            lines.append(f"{level},{dim},{'' if counted is None else counted}")
        _emit("\n".join(lines) + "\n", args.out)
    elif fmt == "json":
        _dump_json({
            "d": params.d,
            "dimensions": {str(level): dim for level, dim, _ in rows},
        }, args.out)
    else:
        sys.stderr.write(f"unsupported format {fmt!r} for basis\n")
        return 2
    return 0


# -- parser --------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--d", type=int, default=None,
                     help="spacetime dimension (default 26)")
    sub.add_argument("--b", default=None,
                     help="normal-ordering constant, rational (default 1)")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for the randomized probe momentum")
    sub.add_argument("--out", default=None, help="write the report here")
    sub.add_argument("--config", default=None,
                     help="JSON file with default values for the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openstring",
        description="exact operator checks and locality demonstrations "
                    "for the open bosonic string",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("virasoro", help="bracket identity grid, exact")
    _add_common(p)
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--allow-expensive", action="store_true", default=None)
    p.set_defaults(func=cmd_virasoro)

    p = subs.add_parser("ddf", help="calibrate and verify the transverse operators")
    _add_common(p)
    p.add_argument("--kappa-set", default=None, nargs="+",
                   help="normalization candidates to try, rationals")
    p.set_defaults(func=cmd_ddf)

    p = subs.add_parser("noghost", help="signature scan of physical subspaces")
    _add_common(p)
    p.add_argument("--d-list", default=None,
                   help="comma-separated dimensions (default 10,26)")
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--format", default=None, choices=("csv", "json"))
    p.add_argument("--timings", action="store_true", default=False)
    p.set_defaults(func=cmd_noghost)

    p = subs.add_parser("ddf-state", help="build one lowering-word state")
    _add_common(p)
    p.add_argument("--word", default=None, help="i:n,i:n,... (default 1:1)")
    p.add_argument("--momentum", default=None,
                   help="comma-separated rational components")
    p.set_defaults(func=cmd_ddf_state)

    p = subs.add_parser("testfn", help="build and verify a real constrained "
                                       "test function")
    _add_common(p)
    p.add_argument("--word", default=None)
    p.add_argument("--radius", default=None, help="support radius, rational")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_testfn)

    p = subs.add_parser("locality", help="smeared commutator at spacelike "
                                         "separation")
    _add_common(p)
    p.add_argument("--word", default=None)
    p.add_argument("--radius", default=None)
    p.add_argument("--separation", default=None,
                   help="a0,a1,... rational components")
    p.add_argument("--sweep", default=None,
                   help="semicolon-separated separation vectors -> CSV")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--dq", type=int, default=None)
    p.add_argument("--extent", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_locality)

    p = subs.add_parser("observable", help="full demonstration pipeline "
                                           "for one test function")
    _add_common(p)
    p.add_argument("--word", default=None)
    p.add_argument("--radius", default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--dq", type=int, default=None)
    p.add_argument("--extent", type=float, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_observable)

    p = subs.add_parser("basis", help="level dimension table with audit")
    _add_common(p)
    p.add_argument("--max-level", type=int, default=None)
    p.add_argument("--format", default=None, choices=("csv", "json"))
    p.set_defaults(func=cmd_basis)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge(args)
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
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
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
