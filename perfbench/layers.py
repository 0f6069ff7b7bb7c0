"""What the traced run wraps, and how its spans become per-layer metrics.

The layers are the package's modules.  Every public function of each
module is wrapped as a span, apart from the scalar-ring helpers of
``exactnum`` (``conjugate``, ``real_sign``, ``is_rational_real``,
``as_complex``), which run once per matrix entry or vector term and whose
time is therefore left in their callers' self time, and of the per-term
helpers ``fock.level_of``, ``ddf.v_scalar_apply`` and
``ddf.defect_threshold``.  Three helpers that run up to millions of times
per operation are counted, not timed: ``fock.apply_oscillator``,
``fock.inner_indefinite`` and ``ddf.u_op_apply``.
"""

from __future__ import annotations

from spans import Target


def _points(tracer, args, kwargs, result) -> None:
    tracer.counts["testfn.radial_fourier_points"] += len(result)


def _quadrature(tracer, args, kwargs, result) -> None:
    spec = args[1]
    tracer.record_max("field.quadrature_points", spec.n ** spec.d_q)


def _entries(tracer, args, kwargs, result) -> None:
    matrix = args[0]
    if matrix:
        tracer.record_max("linalg.max_matrix_entries",
                          len(matrix) * len(matrix[0]))


def _scan_states(tracer, args, kwargs, result) -> None:
    tracer.counts["fiber.scan_states"] += len(result)


def _scan_name(args, kwargs) -> str:
    """Name a bracket scan after the engine that serves it, asking the
    package which engine ``"auto"`` picks."""
    from openstring import fiber

    engine = kwargs.get("engine", args[5] if len(args) > 5 else "auto")
    if engine == "auto":
        p, params = args[3], args[4]
        engine = ("fast" if fiber._integer_scan_applicable(p, params)
                  else "reference")
    return "fiber.scan_fast" if engine == "fast" else "fiber.scan_reference"


def _spans(module: str, *names, **extra) -> list:
    return [Target(f"openstring.{module}", n,
                   f"{module}.{n}", **extra) for n in names]


def _method(module: str, cls: str, name: str, **extra) -> Target:
    return Target(f"openstring.{module}:{cls}", name,
                  f"{module}.{cls}.{name}", **extra)


def _counted(module: str, *names) -> list:
    return [Target(f"openstring.{module}", n, f"{module}.{n}", kind="count")
            for n in names]


TARGETS = [
    *_spans("exactnum", "sqrt_fraction"),
    *_spans("poly", "sym_momentum"),
    *_spans("linalg", "rref", "rank_fraction_free", "kernel_basis",
            "independence_check", "hermitian_signature", "matrix_inverse",
            observe=_entries),
    *_spans("linalg", "rank"),
    *_counted("fock", "apply_oscillator", "inner_indefinite"),
    *_spans("fock", "iter_level_basis", materialize=True),
    *_spans("fock", "level_basis", "basis_dimension", "inner_positive",
            "j_involution", "vector_to_json", "vector_from_json"),
    *_spans("fiber", "virasoro_apply", "virasoro_bracket_residual",
            "number_apply", "mass_square_apply", "cayley_lorentz",
            "lorentz_apply", "lorentz_momentum"),
    Target("openstring.fiber", "virasoro_bracket_scan", "fiber.scan",
           name_of=_scan_name, observe=_scan_states),
    *_counted("ddf", "u_op_apply"),
    *_spans("ddf", "calibrate_normalization", "constraint_report",
            "ddf_apply", "ddf_commutator_defect", "ddf_commutator_residual",
            "ddf_state", "mass_project", "v_vector_apply"),
    *_spans("spectrum", "ddf_span_check", "find_onshell_momentum",
            "gram_signature", "noghost_csv", "noghost_scan",
            "physical_subspace", "spurious_subspace"),
    *_spans("testfn", "c1_flip_body", "is_c1_real", "make_testfunction",
            "realify", "verify_constraints_pointwise", "verify_support"),
    _method("testfn", "BumpProfile", "radial_fourier", observe=_points),
    _method("testfn", "BumpProfile", "radial_fourier_interp"),
    *_spans("field", "commutator_kernel", "field_equation_check",
            "field_matrix_element", "gupta_bleuler_check", "locality_check",
            "locality_sweep", "pauli_jordan_time_kernel",
            "pauli_jordan_contour"),
    *_spans("field", "project_pi", observe=_quadrature),
    *[_method("field", "SmearedState", n)
      for n in ("inner", "translate", "norm", "unit")],
    *_spans("cli", "main"),
]

# (metric, unit, how, source): "total" is inclusive seconds, "self" is
# self seconds, "calls" counts spans or counted calls, "count" reads a
# counter an observer keeps, "max" the largest size an observer saw.
PER_LAYER = [
    ("testfn.radial_fourier_s", "s", "total", "testfn.BumpProfile.radial_fourier"),
    ("testfn.radial_fourier_points", "count", "count", "testfn.radial_fourier_points"),
    ("testfn.verify_support_self_s", "s", "self", "testfn.verify_support"),
    ("testfn.make_testfunction_s", "s", "total", "testfn.make_testfunction"),
    ("testfn.verify_constraints_s", "s", "total", "testfn.verify_constraints_pointwise"),
    ("field.project_pi_self_s", "s", "self", "field.project_pi"),
    ("field.inner_s", "s", "total", "field.SmearedState.inner"),
    ("field.translate_s", "s", "total", "field.SmearedState.translate"),
    ("field.quadrature_points", "count", "max", "field.quadrature_points"),
    ("linalg.rref_s", "s", "total", "linalg.rref"),
    ("linalg.rref_calls", "count", "calls", "linalg.rref"),
    ("linalg.rank_fraction_free_s", "s", "total", "linalg.rank_fraction_free"),
    ("linalg.independence_check_s", "s", "total", "linalg.independence_check"),
    ("linalg.hermitian_signature_s", "s", "total", "linalg.hermitian_signature"),
    ("linalg.kernel_basis_s", "s", "total", "linalg.kernel_basis"),
    ("linalg.eliminations", "count", "calls",
     ("linalg.rref", "linalg.rank_fraction_free", "linalg.hermitian_signature")),
    ("linalg.max_matrix_entries", "count", "max", "linalg.max_matrix_entries"),
    ("spectrum.physical_subspace_self_s", "s", "self", "spectrum.physical_subspace"),
    ("spectrum.spurious_subspace_self_s", "s", "self", "spectrum.spurious_subspace"),
    ("spectrum.gram_signature_self_s", "s", "self", "spectrum.gram_signature"),
    ("fock.inner_indefinite_calls", "count", "calls", "fock.inner_indefinite"),
    ("fiber.scan_fast_s", "s", "total", "fiber.scan_fast"),
    ("fiber.scan_reference_s", "s", "total", "fiber.scan_reference"),
    ("fiber.scan_states_per_s", "states/s", "rate", None),
    ("fiber.virasoro_apply_s", "s", "total", "fiber.virasoro_apply"),
    ("fiber.virasoro_apply_calls", "count", "calls", "fiber.virasoro_apply"),
    ("ddf.calibrate_s", "s", "total", "ddf.calibrate_normalization"),
    ("ddf.commutator_residual_s", "s", "total", "ddf.ddf_commutator_residual"),
    ("ddf.commutator_defect_s", "s", "total", "ddf.ddf_commutator_defect"),
    ("ddf.ddf_apply_s", "s", "total", "ddf.ddf_apply"),
    ("ddf.ddf_apply_calls", "count", "calls", "ddf.ddf_apply"),
    ("ddf.u_op_apply_calls", "count", "calls", "ddf.u_op_apply"),
    ("ddf.ddf_state_s", "s", "total", "ddf.ddf_state"),
    ("fock.apply_oscillator_calls", "count", "calls", "fock.apply_oscillator"),
    ("fock.iter_level_basis_s", "s", "total", "fock.iter_level_basis"),
    ("cli.self_s", "s", "self", "cli.main"),
    ("trace.overhead_s", "s", "overhead", None),
    ("trace.unattributed_s", "s", "unattributed", None),
]

# Spans or counters each workload must reach; a wrapper that records no
# call on its workload means the trace no longer sees that layer.
EXPECTED = {
    "observable": (
        "cli.main", "testfn.make_testfunction", "testfn.verify_support",
        "testfn.verify_constraints_pointwise",
        "testfn.BumpProfile.radial_fourier", "field.project_pi",
        "field.SmearedState.inner", "field.SmearedState.translate",
        "ddf.ddf_state", "exactnum.sqrt_fraction", "poly.sym_momentum",
    ),
    "noghost": (
        "cli.main", "spectrum.noghost_scan", "spectrum.physical_subspace",
        "spectrum.spurious_subspace", "spectrum.gram_signature",
        "linalg.rref", "linalg.rank_fraction_free", "linalg.kernel_basis",
        "linalg.independence_check", "linalg.hermitian_signature",
        "fock.inner_indefinite", "fock.iter_level_basis",
        "fiber.virasoro_apply",
    ),
    "virasoro": (
        "cli.main", "fiber.scan_fast", "fiber.scan_reference",
        "fiber.virasoro_apply", "fock.apply_oscillator",
        "fock.iter_level_basis",
    ),
    "ddf": (
        "cli.main", "ddf.calibrate_normalization",
        "ddf.ddf_commutator_residual", "ddf.ddf_commutator_defect",
        "ddf.ddf_apply", "ddf.u_op_apply", "ddf.ddf_state",
        "fiber.virasoro_apply", "fock.apply_oscillator",
        "fock.iter_level_basis",
    ),
}
