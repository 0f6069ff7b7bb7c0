"""Constructive factory for constrained test functions with compact support.

The construction packages three facts into one object:

1. a smooth radial bump in position space, supported in a spacetime ball
   of radius R, whose Fourier transform is radial and entire of
   exponential type R (computed numerically as the 1-D cosine transform
   of the bump's projection onto a line, by the projection-slice theorem
   below);
2. a Fock-valued polynomial body, produced by running the transverse
   lowering operators at a *symbolic* momentum and clearing every
   lightcone denominator with a single (p^0 + p^{d-1})^gamma prefactor —
   the analytic "there is a positive integer gamma" argument becomes a
   literal divisibility computation here; and
3. the constraint property: the cleared body satisfies L_m body = 0
   for m >= 1 identically in p (a polynomial identity, checked term by
   term in the tests), and L_0 body = 0 on the mass shell matching the
   word level, so pointwise verification at exact on-shell samples is a
   finite rational computation with zero tolerance.

Reality is the twisted condition: flip the spatial momenta and conjugate
by C1 (alpha^0 fixed, every spatial oscillator negated).  ``realify``
symmetrizes a body under that involution; since all coefficients live in
exact rational polynomials, conjugation is the identity and the condition
is checkable exactly.

Support verification is numeric by necessity and uses the projection-slice
theorem: the restriction of the momentum function to a coordinate axis is
the Fourier transform of the *projection* of the position function onto
that axis, which inherits the support ball.  Polynomial prefactors are
derivatives in position space and cannot enlarge the support; the slice
transform certifies exactly that.  Terms whose polynomials vanish on every
axis (mixed products) correspond to mixed derivatives, covered by the same
argument but invisible to slices — the slice report is a certification of
the axis profiles, not an independent proof.

numpy is imported inside the numeric functions only, so importing this
module, as every command does, does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gamma as gamma_fn
from math import pi

from .ddf import DdfContext, ddf_state
from .fiber import Momentum, virasoro_apply
from .fock import FockVector, ModelParams
from .poly import LcRational, Poly, sym_momentum
from .spectrum import OnShellMomentum

__all__ = [
    "BumpProfile",
    "ConstraintSampleReport",
    "OffShellSampleError",
    "ResolutionError",
    "SeparationError",
    "SupportReport",
    "TestFunction",
    "c1_flip_body",
    "is_c1_real",
    "make_testfunction",
    "realify",
    "verify_constraints_pointwise",
    "verify_support",
]


class OffShellSampleError(ValueError):
    """A pointwise-verification sample sits on the wrong mass shell."""


class ResolutionError(RuntimeError):
    """The numeric grid cannot resolve the claim being checked."""


class SeparationError(ValueError):
    """The requested translation is not spacelike enough for the claim."""


@lru_cache(maxsize=64)
def _leggauss_on(a: float, b: float, n: int):
    """The n-point Gauss-Legendre rule on [a, b], built once per (a, b, n)
    (``leggauss`` is an O(n^3) eigensolve) and shared read-only."""
    import numpy as np
    x, w = np.polynomial.legendre.leggauss(n)
    half = (b - a) / 2.0
    nodes, weights = a + half * (x + 1.0), half * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


class BumpProfile:
    """Radial bump supported in the closed spacetime ball of radius R.

    ``kind`` selects the radial shape: ``"mollifier"`` is the standard
    exp(-1/(1-u^2)) profile (smooth, the default); ``"halfpower"`` is
    (1-u^2)^(1/2) (merely continuous, but its transform has a closed form
    in low dimensions, which the tests use as an independent oracle for
    the quadrature machinery).

    The momentum-side transform follows f_hat(p) = (2pi)^(-d/2) times the
    integral of f(x) exp(-i p.x) with the Euclidean pairing; for a radial
    even profile the result is real, even, and radial, so a single scalar
    function of rho = |p| describes it completely.
    """

    def __init__(self, R, d: int, center=None, kind: str = "mollifier"):
        self.R = Fraction(R)
        if self.R <= 0:
            raise ValueError("support radius must be positive")
        self.d = d
        if center is None:
            center = (Fraction(0),) * d
        self.center = tuple(Fraction(c) for c in center)
        if len(self.center) != d:
            raise ValueError("center must have d components")
        if kind not in ("mollifier", "halfpower"):
            raise ValueError(f"unknown profile kind {kind!r}")
        self.kind = kind

    # -- position side ---------------------------------------------------

    def radial_position(self, r):
        """Profile value as a function of the radial distance |x - center|."""
        import numpy as np
        r = np.asarray(r, dtype=float)
        u = r / float(self.R)
        inside = u < 1.0
        out = np.zeros_like(u)
        if self.kind == "mollifier":
            safe = np.where(inside, u, 0.0)
            out[inside] = np.exp(-1.0 / (1.0 - safe[inside] ** 2))
        else:
            out[inside] = np.sqrt(1.0 - u[inside] ** 2)
        return out

    # -- momentum side -----------------------------------------------------

    def radial_fourier(self, rho, n_s: int | None = None):
        """Transform profile at Euclidean momentum radius rho.

        A radial transform depends on rho only through one direction, so
        it is the 1-D cosine transform of the profile's projection onto a
        line: f_hat(rho) = (2pi)^(-d/2) * 2 int_0^R P(t) cos(rho t) dt.
        P is computed once per call on ``n_s`` Gauss-Legendre nodes
        (default int(R max|rho| / 1.5) + 192, which resolves the fastest
        cosine), and each distinct |rho| then costs one row of cosines.
        The result has the shape of ``rho`` (at least one dimension).
        """
        import numpy as np
        rho = np.atleast_1d(np.asarray(rho, dtype=float))
        absrho, inverse = np.unique(np.abs(rho).ravel(), return_inverse=True)
        Rf = float(self.R)
        if n_s is None:
            n_s = int(Rf * float(np.max(absrho, initial=0.0)) / 1.5) + 192
        t, wt = _leggauss_on(0.0, Rf, n_s)
        weights = self._projection(t) * wt
        vals = np.empty_like(absrho)
        chunk = max(1, (1 << 20) // n_s)
        for lo in range(0, len(absrho), chunk):
            vals[lo:lo + chunk] = (
                np.cos(np.outer(absrho[lo:lo + chunk], t)) @ weights)
        norm = (2.0 * pi) ** (-self.d / 2.0)
        return (2.0 * norm * vals)[inverse].reshape(rho.shape)

    def _projection(self, t):
        """P(t): the profile integrated over the hyperplane at distance t.

        P(t) = |S^(d-2)| int_0^sqrt(R^2 - t^2) f(sqrt(t^2 + q^2)) q^(d-2) dq
        for d >= 2, on 192 Gauss-Legendre nodes scaled to each t; P(t) =
        f(|t|) for d = 1.
        """
        import numpy as np
        d = self.d
        if d == 1:
            return self.radial_position(np.abs(t))
        x, wx = _leggauss_on(0.0, 1.0, 192)
        reach = np.sqrt(np.maximum(float(self.R) ** 2 - t * t, 0.0))
        q = np.outer(reach, x)
        inner = self.radial_position(np.sqrt(t[:, None] ** 2 + q * q))
        area = 2.0 * pi ** ((d - 1) / 2.0) / gamma_fn((d - 1) / 2.0)
        return area * reach * ((inner * q ** (d - 2)) @ wx)

    def radial_fourier_interp(self, rho):
        """Alias of ``radial_fourier``."""
        return self.radial_fourier(rho)

    def __repr__(self):
        return f"BumpProfile(R={self.R}, d={self.d}, kind={self.kind!r})"


# -- the factory ------------------------------------------------------------


@dataclass
class TestFunction:
    """profile(x) times a Fock-valued polynomial in the momentum."""

    __test__ = False  # the name collides with pytest's collection pattern

    profile: BumpProfile
    params: ModelParams
    word: tuple
    gamma: int
    body: FockVector = field(repr=False)  # coefficients are Poly
    level: int

    @property
    def R(self) -> Fraction:
        return self.profile.R

    @property
    def shell(self) -> Fraction:
        """The mass-squared value 2(level - b) the body is built for."""
        return 2 * (self.level - self.params.b)

    def evaluate_body(self, p) -> FockVector:
        comps = p.components if isinstance(p, Momentum) else tuple(p)
        out = FockVector()
        for mono, q in self.body.items():
            c = q.evaluate(comps)
            if c:
                out.add_term(mono, c)
        return out

    def to_json_dict(self) -> dict:
        body = []
        for mono, q in sorted(self.body.items()):
            body.append({
                "fock": [[n, mu] for n, mu in mono],
                "poly": sorted(
                    [list(e), str(c)] for e, c in q.terms.items()
                ),
            })
        return {
            "profile": {
                "R": str(self.profile.R),
                "center": [str(c) for c in self.profile.center],
                "kind": self.profile.kind,
            },
            "d": self.params.d,
            "b": str(self.params.b),
            "word": [list(t) for t in self.word],
            "gamma": self.gamma,
            "level": self.level,
            "body": body,
        }


def make_testfunction(word, profile: BumpProfile, params: ModelParams,
                      kappa=Fraction(1)) -> TestFunction:
    """Apply a lowering word at a symbolic momentum and clear denominators.

    The word is a sequence of (direction, mode) pairs with positive modes.
    gamma is the largest lightcone-denominator power occurring across the
    coefficients; multiplying through by w^gamma turns every coefficient
    into an honest polynomial.  Each coefficient's Laurent form in w is
    unique, so its power, and with it gamma, is minimal (and ``cleared``
    would raise if the prefactor were somehow insufficient).
    """
    if profile.d != params.d:
        raise ValueError("profile dimension does not match the model")
    word = tuple((int(i), int(n)) for i, n in word)
    ps = sym_momentum(params.d)
    ctx = DdfContext(params, ps, kappa=kappa)
    zero = LcRational(Poly(params.d))
    coeffs = {m: zero + c for m, c in ddf_state(list(word), ctx).items()}
    g = max((c.gamma for c in coeffs.values()), default=0)
    body = FockVector()
    for mono, c in coeffs.items():
        body.add_term(mono, c.cleared(g))
    return TestFunction(
        profile=profile, params=params, word=word, gamma=g,
        body=body, level=sum(n for _, n in word),
    )


def _spatial_count(mono) -> int:
    return sum(1 for _, mu in mono if mu != 0)


def c1_flip_body(body: FockVector) -> FockVector:
    """The reality involution: spatial momentum flip together with C1.

    C1 fixes alpha^0 and negates every spatial oscillator, so a monomial
    picks up (-1)^(number of spatial labels); the polynomial coefficient
    has its spatial variables negated.  Over rational coefficients the
    complex conjugation in the reality condition is the identity.
    """
    out = FockVector()
    for mono, q in body.items():
        sign = -1 if _spatial_count(mono) % 2 else 1
        out.add_term(mono, sign * q.flip_spatial())
    return out


def is_c1_real(body: FockVector) -> bool:
    return c1_flip_body(body) == body


def realify(tf: TestFunction) -> TestFunction:
    """Symmetrize under the reality involution: body + C1 body(flip p).

    Needs an even profile, i.e. centered at the origin — the radial factor
    is then invariant and reality is decided by the body alone.  Applying
    realify twice doubles instead of fixing (the involution average would
    halve; the paper's construction adds), which the tests pin down.
    """
    if any(tf.profile.center):
        raise ValueError("reality needs an origin-centered profile")
    body = tf.body + c1_flip_body(tf.body)
    return TestFunction(
        profile=tf.profile, params=tf.params, word=tf.word,
        gamma=tf.gamma, body=body, level=tf.level,
    )


# -- verification: exact side -------------------------------------------------


@dataclass
class ConstraintSampleReport:
    shell: Fraction
    samples: list
    residual_terms: int
    max_mode: int
    passed: bool


def verify_constraints_pointwise(tf: TestFunction, samples) -> ConstraintSampleReport:
    """Evaluate the body at exact on-shell momenta and apply L_0..L_level.

    Every sample must sit on the shell r = 2(level - b) that matches the
    word level; anything else is rejected (the L_0 condition would be
    violated structurally, not numerically).  All arithmetic is exact, so
    ``passed`` means residuals are literally zero.
    """
    required = tf.shell
    checked = []
    bad = 0
    max_mode = max(tf.level, 1)
    for sample in samples:
        if isinstance(sample, OnShellMomentum):
            if sample.r != required:
                raise OffShellSampleError(
                    f"sample shell r={sample.r} but the body needs r={required}"
                )
            p = sample.p
        else:
            p = sample
            if p.minkowski_sq() + required != 0:
                raise OffShellSampleError(
                    f"sample momentum {p!r} is off the r={required} shell"
                )
        v = tf.evaluate_body(p)
        for m in range(0, max_mode + 1):
            res = virasoro_apply(m, p, v, tf.params)
            bad += len(res)
        checked.append(p)
    return ConstraintSampleReport(
        shell=required, samples=checked, residual_terms=bad,
        max_mode=max_mode, passed=(bad == 0),
    )


# -- verification: numeric support side ----------------------------------------


@dataclass
class SupportReport:
    declared_radius: float
    tol: float
    grid: int
    axes: tuple
    worst_fraction: float
    worst_axis: int
    passed: bool
    fractions: dict = field(repr=False)


def _poly_on_grid(q: Poly, comps):
    """Evaluate a momentum polynomial on broadcast grid components; a
    component given as None kills every term with a power of it."""
    out = 0.0
    for exps, c in q.terms.items():
        term = float(c)
        dead = False
        for mu, e in enumerate(exps):
            if not e:
                continue
            comp = comps[mu]
            if comp is None:
                dead = True
                break
            term = term * comp ** e
        if not dead:
            out = out + term
    return out


def _slice_values(h):
    """sum_k exp(i x_j rho_k) h_k on the centred grids, by one FFT."""
    import numpy as np
    return len(h) * np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(h)))


def verify_support(tf: TestFunction, grid: int = 1024, tol: float = 1e-3,
                   declared_radius=None, axes=None) -> SupportReport:
    """Slice-transform certification of the support radius.

    For each requested axis, multiply the radial transform by the body
    polynomial restricted to that axis, inverse-transform it by one FFT,
    and measure the fraction of squared mass outside the declared radius
    around the origin, where the origin-centred profile's transform puts
    it.  A coarse grid is refused rather than silently averaged over: the
    window edge must have decayed and the position step resolve the radius.
    """
    import numpy as np
    R_true = float(tf.profile.R)
    R_dec = R_true if declared_radius is None else float(declared_radius)
    if R_dec <= 0:
        raise ValueError("declared radius must be positive")
    d = tf.params.d
    if axes is None:
        axes = tuple(range(d))
    window = 8.0 * max(R_true, R_dec)
    n = grid
    drho = 2.0 * pi / window
    rho = (np.arange(n) - n // 2) * drho
    dx = window / n
    if dx > R_dec / 8.0:
        raise ResolutionError(
            f"position step {dx:.3g} too coarse for radius {R_dec:.3g}"
        )
    g = tf.profile.radial_fourier(np.abs(rho))
    x = (np.arange(n) - n // 2) * dx
    fractions = {}
    terms = list(tf.body.items())
    for mu in axes:
        worst = 0.0
        comps = [None] * d
        comps[mu] = rho
        for mono, q in terms:
            h = _poly_on_grid(q, comps) * g
            peak = float(np.max(np.abs(h)))
            if peak == 0.0:
                continue
            edge = float(max(abs(h[0]), abs(h[-1])))
            if edge > 1e-9 * peak:
                raise ResolutionError(
                    "momentum window too small: slice data not decayed at "
                    f"the edge (edge/peak = {edge / peak:.2e})"
                )
            mass = np.abs(_slice_values(h)) ** 2
            total = float(mass.sum())
            outside = float(mass[np.abs(x) > R_dec].sum())
            worst = max(worst, outside / total if total else 0.0)
        fractions[mu] = worst
    worst_axis = max(fractions, key=fractions.get)
    worst = fractions[worst_axis]
    return SupportReport(
        declared_radius=R_dec, tol=tol, grid=n, axes=tuple(axes),
        worst_fraction=worst, worst_axis=worst_axis,
        passed=(worst < tol), fractions=fractions,
    )
