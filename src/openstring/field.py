"""Smeared field operators, commutator kernels, and the locality demo.

The one-particle space is a tower of mass shells: level r carries fiber
vectors over the shell omega = sqrt(|p|^2 + r), paired by the fiber form
and the measure d^dq(p) / (2 omega).  The monomial basis is orthogonal, so
the fiber form weights each common monomial by its integer norm.
Projecting a test function multiplies its polynomial body by sqrt(2 pi)
and the radial profile transform, restricted to the shell matching the
body's word level — negative-mass-squared levels are excluded from the
tower, so a tachyon-shell body projects to the empty state.

The field acts on the symmetric Fock space over that one-particle space
as Phi(F) = (a_dag(Pi F) + a(Pi F)) / sqrt(2), so the commutator of two
smeared fields is the c-number i Im <Pi F, Pi G>.  Everything the
locality theorem needs is visible here: translating G by a multiplies
the momentum data by the Minkowski phase exp(-i p.a), the pairing
conj(F_hat) * G_hat is the on-shell restriction of a function whose
position transform lives in a ball of radius R_F + R_G, and the
odd-in-omega part of the phase integrates to zero once the separation is
spacelike by more than that radius.  The kernel computed by quadrature
then converges to an exact zero, which is what the reports measure —
there is no tolerance hiding a small true value.

Spatial directions beyond the quadrature dimension are suppressed: the
grid lives on the slice p^j = 0 for j > d_q, which in position space
means the checks run in the reduced spacetime where the projected
profiles keep the same support radius (projections cannot enlarge
support).

numpy is imported inside the functions that compute on the grid, so the
command-line front end can import this module for every command and the
exact commands still never load numpy.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import isfinite, pi, sqrt

from .fock import monomial_norm
from .poly import Poly
from .testfn import SeparationError, TestFunction, _poly_on_grid, \
    verify_constraints_pointwise

__all__ = [
    "LocalityReport",
    "MultiParticleVector",
    "QuadratureSpec",
    "SeparationError",
    "SmearedState",
    "commutator_kernel",
    "field_equation_check",
    "field_matrix_element",
    "gupta_bleuler_check",
    "locality_check",
    "locality_sweep",
    "pauli_jordan_time_kernel",
    "pauli_jordan_contour",
    "project_pi",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Midpoint quadrature on [-extent, extent)^d_q with a level tower.

    The midpoint offset keeps the massless shell's 1/(2 omega) weight away
    from the origin sample (n must be even for that), and the polynomial
    bodies produced by the factory vanish at p = 0 anyway, so every level
    in the tower integrates cleanly.
    """

    d_q: int = 2
    extent: float = 24.0
    n: int = 256
    levels: tuple = (0, 2, 4)

    def __post_init__(self):
        if self.d_q < 1:
            raise ValueError("need at least one quadrature dimension")
        if self.n < 8 or self.n % 2:
            raise ValueError("grid size must be even and at least 8")
        if not (isfinite(self.extent) and self.extent > 0):
            raise ValueError("extent must be finite and positive")
        if any(r < 0 for r in self.levels):
            raise ValueError("tower levels are mass-squared values >= 0")
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("tower levels must be strictly increasing")

    @property
    def step(self) -> float:
        return 2.0 * self.extent / self.n

    @property
    def weight(self) -> float:
        return self.step ** self.d_q

    def axes(self):
        import numpy as np
        return (np.arange(self.n) + 0.5) * self.step - self.extent

    def grids(self):
        import numpy as np
        ax = self.axes()
        return np.meshgrid(*([ax] * self.d_q), indexing="ij")

    def shell(self, r):
        """The momentum grids and omega = sqrt(|p|^2 + r) on them."""
        import numpy as np
        grids = self.grids()
        return grids, np.sqrt(sum(g * g for g in grids) + float(r))


class SmearedState:
    """Tower of shell-supported fiber-vector-valued momentum functions."""

    def __init__(self, spec: QuadratureSpec, levels: dict):
        self.spec = spec
        # r -> (sorted monos tuple, values (n_monos, *grid) complex)
        self.levels = levels

    @classmethod
    def empty(cls, spec: QuadratureSpec) -> "SmearedState":
        return cls(spec, {})

    def is_empty(self) -> bool:
        return not self.levels

    def translate(self, a) -> "SmearedState":
        """Shift by the spacetime vector a: phase exp(-i p.a) per shell."""
        import numpy as np
        a = [float(x) for x in a]
        if len(a) < 1 + self.spec.d_q:
            raise ValueError("translation vector too short")
        if any(a[1 + self.spec.d_q:]):
            raise ValueError(
                "translations must lie in the reduced spacetime "
                f"(first {1 + self.spec.d_q} components)"
            )
        out = {}
        for r, (monos, vals) in self.levels.items():
            grids, omega = self.spec.shell(r)
            # p.a with lowered metric: -omega a0 + p.a_spatial
            pa = -omega * a[0]
            for j, g in enumerate(grids):
                pa = pa + g * a[1 + j]
            out[r] = (monos, vals * np.exp(-1j * pa))
        return SmearedState(self.spec, out)

    def scaled(self, c) -> "SmearedState":
        return SmearedState(self.spec, {
            r: (m, v * c) for r, (m, v) in self.levels.items()
        })

    def __add__(self, other: "SmearedState") -> "SmearedState":
        import numpy as np
        if self.spec != other.spec:
            raise ValueError("incompatible quadrature specifications")
        out = dict(self.levels)
        for r, (monos, vals) in other.levels.items():
            merged = dict(zip(*out[r])) if r in out else {}
            for m, v in zip(monos, vals):
                merged[m] = merged[m] + v if m in merged else v
            union = tuple(sorted(merged))
            out[r] = (union, np.stack([merged[m] for m in union]))
        return SmearedState(self.spec, out)

    def inner(self, other: "SmearedState") -> complex:
        """<self, other> = sum_r integral conj(f) . D . g / (2 omega), where
        the diagonal fiber form D weights each common monomial by its norm."""
        import numpy as np
        if self.spec != other.spec:
            raise ValueError("incompatible quadrature specifications")
        total = 0.0 + 0.0j
        for r, (monos, vals) in self.levels.items():
            if r not in other.levels:
                continue
            theirs = dict(zip(*other.levels[r]))
            common = [(m, v) for m, v in zip(monos, vals) if m in theirs]
            if not common:
                continue
            dens = sum(np.conj(v) * float(monomial_norm(m)) * theirs[m]
                       for m, v in common)
            _, omega = self.spec.shell(r)
            total += complex(np.sum(dens / (2.0 * omega)))
        return total * self.spec.weight

    def norm(self) -> float:
        return sqrt(max(self.inner(self).real, 0.0))

    def unit(self) -> "SmearedState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize an empty or null state")
        return self.scaled(1.0 / n)


def project_pi(tf: TestFunction, spec: QuadratureSpec) -> SmearedState:
    """(Pi F)_r = sqrt(2 pi) P_r F_hat, sampled on the quadrature shell.

    A factory body is homogeneous of one word level, so it populates
    exactly one r = 2(level - b); if that value is negative (the tachyon
    for b = 1) or outside the tower, the result is the empty state.  The
    quadrature slice must fit in the d - 1 spatial directions.
    """
    import numpy as np
    if spec.d_q > tf.params.d - 1:
        raise ValueError(
            f"quadrature dimension {spec.d_q} exceeds the "
            f"{tf.params.d - 1} spatial directions at d = {tf.params.d}")
    r = tf.shell
    if r < 0 or r not in spec.levels:
        return SmearedState.empty(spec)
    grids, omega = spec.shell(r)
    rho = np.sqrt(omega * omega + sum(g * g for g in grids))
    prof = tf.profile.radial_fourier(rho)
    comps = [omega] + list(grids) + [None] * (tf.params.d - 1 - spec.d_q)
    body = dict(tf.body.items())
    monos = tuple(sorted(body))
    vals = np.zeros((len(monos),) + omega.shape, dtype=complex)
    root = sqrt(2.0 * pi)
    for i, m in enumerate(monos):
        qvals = _poly_on_grid(body[m], comps)
        vals[i] = root * qvals * prof
    keep = [i for i in range(len(monos)) if np.any(vals[i])]
    if not keep:
        return SmearedState.empty(spec)
    monos = tuple(monos[i] for i in keep)
    return SmearedState(spec, {
        int(r): (monos, vals[keep]),
    })


# -- multiparticle layer -----------------------------------------------------


class MultiParticleVector:
    """Finite combination of symmetrized product states over one spec.

    The convention is the unnormalized symmetric one: a_dag(phi) appends,
    a(phi) contracts with <phi, .> against each slot, and inner products
    of n-particle states are permanents of the slotwise Gram — which makes
    [a(phi), a_dag(chi)] = <phi, chi> an identity rather than a choice.
    """

    def __init__(self, spec: QuadratureSpec, terms=None):
        self.spec = spec
        self.terms = list(terms or [])  # (coeff complex, tuple[SmearedState])

    @classmethod
    def vacuum(cls, spec: QuadratureSpec) -> "MultiParticleVector":
        return cls(spec, [(1.0 + 0.0j, ())])

    @classmethod
    def particles(cls, *states) -> "MultiParticleVector":
        spec = states[0].spec
        return cls(spec, [(1.0 + 0.0j, tuple(states))])

    def scaled(self, c) -> "MultiParticleVector":
        return MultiParticleVector(
            self.spec, [(coeff * c, states) for coeff, states in self.terms]
        )

    def __add__(self, other: "MultiParticleVector") -> "MultiParticleVector":
        if self.spec != other.spec:
            raise ValueError("incompatible quadrature specifications")
        return MultiParticleVector(self.spec, self.terms + other.terms)

    def __sub__(self, other: "MultiParticleVector") -> "MultiParticleVector":
        return self + other.scaled(-1.0)

    def apply_create(self, phi: SmearedState) -> "MultiParticleVector":
        return MultiParticleVector(self.spec, [
            (c, (phi,) + states) for c, states in self.terms
        ])

    def apply_annihilate(self, phi: SmearedState) -> "MultiParticleVector":
        out = []
        for c, states in self.terms:
            for j, chi in enumerate(states):
                out.append((c * phi.inner(chi), states[:j] + states[j + 1:]))
        return MultiParticleVector(self.spec, out)

    def apply_field(self, f_state: SmearedState) -> "MultiParticleVector":
        created = self.apply_create(f_state)
        killed = self.apply_annihilate(f_state)
        return (created + killed).scaled(1.0 / sqrt(2.0))

    def inner(self, other: "MultiParticleVector") -> complex:
        import numpy as np
        if self.spec != other.spec:
            raise ValueError("incompatible quadrature specifications")
        total = 0.0 + 0.0j
        for c1, s1 in self.terms:
            for c2, s2 in other.terms:
                if len(s1) != len(s2):
                    continue
                total += np.conj(c1) * c2 * _permanent_overlap(s1, s2)
        return total

    def norm(self) -> float:
        return sqrt(max(self.inner(self).real, 0.0))


def _permanent_overlap(bras, kets) -> complex:
    n = len(bras)
    if n == 0:
        return 1.0 + 0.0j
    overlaps = [[b.inner(k) for k in kets] for b in bras]
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        prod = 1.0 + 0.0j
        for i, j in enumerate(perm):
            prod *= overlaps[i][j]
        total += prod
    return total


def field_matrix_element(f_state: SmearedState, bra: MultiParticleVector,
                         ket: MultiParticleVector) -> complex:
    """<bra | Phi(F) | ket> with Phi(F) = (a_dag + a)(Pi F) / sqrt(2)."""
    return bra.inner(ket.apply_field(f_state))


def commutator_kernel(f_state: SmearedState, g_state: SmearedState) -> complex:
    """[Phi(F), Phi(G)] = i Im <Pi F, Pi G> as a multiple of the identity.

    Computed as (<F,G> - <G,F>) / 2, which agrees with i Im <F,G> up to
    rounding dust in the real part but is antisymmetric *exactly*: both
    orders evaluate the same two floating-point numbers and IEEE negation
    is exact, so kernel(G, F) == -kernel(F, G) bitwise and
    kernel(F, F) == 0 identically.
    """
    z = f_state.inner(g_state)
    w = g_state.inner(f_state)
    return (z - w) / 2.0


# -- structural checks --------------------------------------------------------


def field_equation_check(tf: TestFunction, mass_sq=None) -> bool:
    """Pi((-box + M^2) F) = 0, verified as a polynomial identity.

    In momentum space the operator multiplies the body by p^2 + M^2,
    and the projection restricts to the shell p^2 = -r of the body's
    level; the claim is that the level's own mass M^2 = r makes the
    product vanish identically after reduction modulo the shell
    relation.  The content is the matching: pass a different mass_sq to
    see the residual survive (the counterexample route in the tests).
    No quadrature is involved anywhere here.
    """
    d = tf.params.d
    r = tf.shell
    if mass_sq is None:
        mass_sq = r
    p2 = Poly(d, {})
    for mu in range(d):
        e = [0] * d
        e[mu] = 2
        sign = Fraction(-1) if mu == 0 else Fraction(1)
        p2 = p2 + Poly(d, {tuple(e): sign})
    kg = p2 + Poly.const(d, mass_sq)
    for _, q in tf.body.items():
        if (kg * q).reduce_shell(r):
            return False
    return True


def gupta_bleuler_check(tf: TestFunction, samples) -> bool:
    """L_m (Pi F) = 0 at exact on-shell samples, m = 0 .. word level.

    Operates on the projected data: the profile factor is a nonzero
    scalar on the shell, so the constraint reduces to the body, which is
    evaluated and tested with exact arithmetic.  Samples on the wrong
    shell are rejected by the same rule as the pointwise verifier.
    """
    return verify_constraints_pointwise(tf, samples).passed


# -- locality ------------------------------------------------------------------


@dataclass
class LocalityReport:
    separation: tuple
    spacelike: bool
    kernel_re: float
    kernel_im: float
    control_abs: float
    tol: float
    grid: int
    extent: float
    levels: tuple
    passed: bool
    control_passed: bool

    def to_json_dict(self) -> dict:
        return {
            "separation": [str(c) for c in self.separation],
            "spacelike": self.spacelike,
            "kernel_re": self.kernel_re,
            "kernel_im": self.kernel_im,
            "control_abs": self.control_abs,
            "tol": self.tol,
            "grid": self.grid,
            "extent": self.extent,
            "levels": list(self.levels),
            "pass": bool(self.passed and self.control_passed),
        }


def _exact_abs_sq(values) -> Fraction:
    return sum((Fraction(v) * Fraction(v) for v in values), Fraction(0))


def _unit_states(f_tf: TestFunction, g_tf: TestFunction,
                 spec: QuadratureSpec):
    """Unit-normalized projections of both test functions; the same test
    function is projected once."""
    f_state = project_pi(f_tf, spec).unit()
    if g_tf is f_tf:
        return f_state, f_state
    return f_state, project_pi(g_tf, spec).unit()


def _separation(f_tf: TestFunction, g_tf: TestFunction, a,
                spec: QuadratureSpec):
    """The separation a as Fractions, refused unless it has the 1 + d_q
    components of the reduced spacetime and zeros beyond them, with
    |a_vec|^2 and (R_F + R_G + |a^0|)^2: a is spacelike to both supports
    when the first exceeds the second."""
    a = tuple(Fraction(x) for x in a)
    if len(a) < 1 + spec.d_q:
        raise ValueError("separation vector too short")
    if any(a[1 + spec.d_q:]):
        raise ValueError("separation must lie in the reduced spacetime")
    reach = f_tf.profile.R + g_tf.profile.R + abs(a[0])
    return a, _exact_abs_sq(a[1:]), reach * reach


def locality_check(f_tf: TestFunction, g_tf: TestFunction, a,
                   spec: QuadratureSpec, tol: float = 1e-6) -> LocalityReport:
    """Commutator kernel at spacelike separation, with a timelike control.

    The precondition |a_vec| > R_F + R_G + |a^0| is checked exactly on
    rational inputs (squared comparison), and violations raise rather
    than report a meaningless pass.  Both states are unit-normalized so
    the tolerance is an absolute one.  The control translates G purely in
    time by R_F + R_G, where the commutator must be visibly nonzero —
    a guard against passing the main check by having built a zero state.
    """
    a, space_sq, reach_sq = _separation(f_tf, g_tf, a, spec)
    if space_sq <= reach_sq:
        raise SeparationError(
            f"|a_vec|^2 = {space_sq} does not clear (R_F + R_G + |a0|)^2 "
            f"= {reach_sq}"
        )
    f_state, g_state = _unit_states(f_tf, g_tf, spec)
    kernel = commutator_kernel(f_state, g_state.translate(a))
    control_shift = [f_tf.profile.R + g_tf.profile.R] + [0] * spec.d_q
    control = commutator_kernel(f_state, g_state.translate(control_shift))
    return LocalityReport(
        separation=a,
        spacelike=True,
        kernel_re=kernel.real,
        kernel_im=kernel.imag,
        control_abs=abs(control),
        tol=tol,
        grid=spec.n,
        extent=spec.extent,
        levels=spec.levels,
        passed=bool(abs(kernel) < tol),
        control_passed=bool(abs(control) > 10.0 * tol),
    )


def locality_sweep(f_tf: TestFunction, g_tf: TestFunction, separations,
                   spec: QuadratureSpec, tol: float = 1e-6) -> str:
    """CSV over a list of separations; non-spacelike rows are marked, not
    run.  Every row is checked as :func:`locality_check` checks its
    separation, before anything is projected, and a row outside the
    reduced spacetime is refused by its 1-based number."""
    checked = []
    for row, a in enumerate(separations, 1):
        try:
            checked.append(_separation(f_tf, g_tf, a, spec))
        except ValueError as exc:
            raise ValueError(f"sweep row {row} "
                             f"({','.join(map(str, a))}): {exc}") from None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a0", "a_space", "spacelike", "kernel_abs", "pass"])
    f_state, g_state = _unit_states(f_tf, g_tf, spec)
    for a, space_sq, reach_sq in checked:
        space = ";".join(str(c) for c in a[1:])
        if space_sq <= reach_sq:
            writer.writerow([str(a[0]), space, False, "", ""])
            continue
        k = abs(commutator_kernel(f_state, g_state.translate(a)))
        writer.writerow([str(a[0]), space, True, f"{k:.3e}", k < tol])
    return buf.getvalue()


# -- elementary solution kernels ------------------------------------------------


def pauli_jordan_time_kernel(omega: float, t: float) -> float:
    """Residue form of the commutator's time kernel: sin(omega t) / omega."""
    import numpy as np
    if omega <= 0:
        raise ValueError("omega must be positive")
    return float(np.sin(omega * t) / omega)


def pauli_jordan_contour(omega: float, t: float, nodes: int = 2048,
                         radius: float = 0.1) -> float:
    """The same kernel via contour quadrature around both poles of
    1/(p0^2 - omega^2), as a cross-check that the residue bookkeeping
    (pole positions, orientations, the relative sign of the two shells)
    is right: the counterclockwise circle integrals around +omega and
    -omega of e^{-i p0 t}/(p0^2 - omega^2) sum to 2 pi sin(omega t)/omega,
    so dividing by 2 pi must land on the residue form.
    """
    import numpy as np
    if radius >= omega:
        raise ValueError("contour radius must not enclose both poles")
    theta = (np.arange(nodes) + 0.5) * (2.0 * pi / nodes)
    ring = radius * np.exp(1j * theta)
    total = 0.0 + 0.0j
    for pole in (omega, -omega):
        z = pole + ring
        integrand = np.exp(-1j * z * t) / (z * z - omega * omega)
        # dz = i r e^{i theta} d theta
        total += np.sum(integrand * 1j * ring) * (2.0 * pi / nodes)
    return float(total.real) / (2.0 * pi)
