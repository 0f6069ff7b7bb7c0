"""Fiberwise transverse DDF operators with exact combinatorics.

The construction lives entirely inside one momentum fiber: fix p with
p^0 + p^{d-1} != 0 and let k(p) be the null vector with

    k^0(p) = -k^{d-1}(p) = kappa / (p^0 + p^{d-1}),    k^i = 0,

so k.k = 0 and k.p = -kappa exactly.  Building blocks:

    U_n(k)      = sum over ordered tuples (n_1,..,n_q) of positive integers
                  with n_1+..+n_q = n of  (1/(q! n_1 .. n_q))
                  (k.alpha_{n_1}) .. (k.alpha_{n_q}),          U_0 = I,
    V_n(k)      = sum_p U_{p-n}(-k)^dagger U_p(k),
    Vbar^mu_n   = sum_{q>0} [alpha^mu_{-q} V_{n+q}(k) + V_{n-q}(k) alpha^mu_q],
    V^mu_n      = Vbar^mu_n + p^mu V_n(k),
    A^i_n       = V^i_n at null vector n * k(p),   1 <= i <= d-2,

with every sum finite on a fixed state (annihilators beyond the top level
kill everything), so all operators here are exact.  When p^0 + p^{d-1} = 0
the null vector degenerates and every A^i_n is defined to be zero.

Only the lightcone directions enter the vertex modes: k.alpha_m =
c l_m with c = k^0 and l_m = -alpha^0_m - alpha^{d-1}_m.  So V_t(k) acts
on the lightcone part lam of a monomial lam (x) tau and commutes with
every transverse alpha^i_s, and L_m is the L_m of the d = 2 model of
directions 0 and d-1 plus a part that commutes with V_t.  With
A^i_n = sum_s alpha^i_s V_{n-s} and alpha^i_0 = p^i,

    [L_m, A^i_n] (lam (x) tau) = sum_s R_s(lam) (x) alpha^i_s tau,

R_s = [L_m, V_{n-s}] lam - (s - m) V_{n-s+m} lam independent of i; the
closed-form defect below has the same shape, and distinct s give distinct
monomials, so nothing cancels across s.  One loop assembles A^i_n, the
residual and the defect from their lightcone images, which a
:class:`DdfContext` builds in the d = 2 model and keeps as long as it
lives (they carry its ring scalars).  Only k^0 enters V_t, so each of its
null vectors keeps a V_t image once, in d = 2 labels, and lifts it to full d.

The normalization kappa is *calibrated*, not assumed: candidate values are
searched until the commutators [L_m, A^i_n] (m != 0) vanish on a probe
family; see :func:`calibrate_normalization`.  Discrimination does not
require transversely moving probe momenta: the zero-mode pairing
k.alpha_0 = k.p = -kappa gives [L_1, A^i_{-2}] Omega = 2 (1 - kappa)
alpha^i_{-1} Omega on lightcone-plane momenta, and transverse momentum
components add [L_1, A^i_{-1}] Omega = p^i (1 - kappa) Omega.  Every
factored residual and defect is certified against the literal L_m A^i_n
v - A^i_n L_m v, composed once per (m, i, n, v), once per (n, m, level,
whether i occurs in v) and context.  The literal composes the factored
A^i_n, itself checked against the two-loop V^mu_n and the ladder algebra.

A word on what these operators do and do not satisfy.  Because the
construction stays inside a single fiber (no momentum shift, no center-of-
mass mode), the commutator [L_m, A^i_n] for m != 0 does *not* vanish as an
operator identity.  It vanishes exactly in two regimes that carry all the
physics:

* on every probe of level < max(0, m) + max(0, n) (the "kinematically
  protected" sector, see :func:`defect_threshold`), which is where the
  normalization search gets its discriminating power, and
* for every m > 0, on every state built by lowering operators A^i_{-n}
  out of the vacuum: A^i_n maps such states into their own span (the
  oscillator ladder algebra is exact), and L_{m>0} kills the whole span.
  This is why DDF states satisfy the physical-state constraints exactly.
  For m < 0 the commutator does not annihilate word states — it moves
  them out of the DDF span, with the vacuum already a counterexample.

Above the threshold the commutator equals a closed-form "closing defect"
— three explicit mode sums, implemented in :func:`ddf_commutator_defect`
and verified exactly in the test suite.  No choice of kappa removes it:
the minimal counterexample is [L_{-1}, A^1_{-1}] Omega =
-alpha^1_{-1} (k.alpha_{-1}) Omega != 0 at every nonzero kappa.  The
calibration therefore enforces vanishing only on the protected sector and
reports the defect separately instead of pretending it away.

Everything is generic over the coefficient ring, so the same code runs on
rational momenta, in int numerators over one denominator per vector, and
on the symbolic momentum sections used by the test-function factory.
"""

from __future__ import annotations

from fractions import Fraction

from .fiber import Momentum, virasoro_apply
from .fock import FockVector, InvalidDirectionError, InvariantError, \
    ModelParams, _split_scalar, _times, apply_oscillator, iter_level_basis, \
    level_of

__all__ = [
    "CalibrationError",
    "DdfContext",
    "NullVector",
    "calibrate_normalization",
    "constraint_report",
    "ddf_apply",
    "ddf_commutator_defect",
    "ddf_commutator_residual",
    "ddf_state",
    "defect_threshold",
    "mass_project",
    "u_op_apply",
    "v_scalar_apply",
    "v_vector_apply",
]


class CalibrationError(RuntimeError):
    """No normalization candidate passed; carries the residual evidence."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


class NullVector(Momentum):
    """The lightlike contraction vector k(p), scaled by the normalization.

    Only the 0 and d-1 components are nonzero; they are opposite, so k.k = 0
    identically and k.p = -kappa.  ``times(c)`` rescales (the DDF definition
    feeds n * k(p) into V^i_n).  A vanishing lightcone combination
    p^0 + p^{d-1} makes the vector identically zero.

    ``images`` caches V_t(k) on lightcone basis states, which needs only
    k^0: keyed by (t, lightcone monomial in the labels of the d = 2 model,
    the direction ``last`` that label 1 stands for); see :func:`_image`.
    ``ladders`` keeps the U_p(k) lam those images sum, keyed by (p, lam).
    A copy from ``times`` starts with both empty.
    """

    __slots__ = ("p", "kappa", "images", "ladders")

    def __init__(self, p: Momentum, kappa):
        self.p = p
        self.kappa = Fraction(kappa) if isinstance(kappa, int) else kappa
        self.images, self.ladders = {}, {}
        w = p.lightcone()
        k0 = self.kappa / w if w and self.kappa else Fraction(0)
        super().__init__((k0,) + (Fraction(0),) * (p.d - 2) + (-k0,))

    @property
    def is_zero(self) -> bool:
        return not any(self.components)

    def times(self, c) -> "NullVector":
        return NullVector(self.p, self.kappa * c)

    def __repr__(self):
        return f"NullVector(p={self.p!r}, kappa={self.kappa!r})"


def _contract_apply(k: NullVector, mode: int, v: FockVector, sign: int,
                    params: ModelParams) -> FockVector:
    """Apply (sign * k) . alpha_mode = -sign k^0 (alpha^0 + alpha^{d-1})_mode
    to v, d that of ``params`` (so k may live in more directions):
    eta^{00} k^0 and eta^{d-1,d-1} k^{d-1} are both -k^0."""
    k0 = k[0]
    if not k0:
        return FockVector.zero()
    w = apply_oscillator((mode, 0), v, params)
    w += apply_oscillator((mode, params.d - 1), v, params)
    return w.scaled(-k0 if sign == 1 else k0)


def u_op_apply(n: int, k: NullVector, v: FockVector, params: ModelParams,
               sign: int = 1, dagger: bool = False) -> FockVector:
    """Apply U_n(sign * k) — or its adjoint with ``dagger`` — to ``v``.

    U_n is the z^n coefficient of exp(sum_m (k.alpha_m) z^m / m).  The
    k.alpha_m commute, so n U_n = sum_{m=1}^{n} (k.alpha_m) U_{n-m}; that
    recurrence runs here (the adjoint uses alpha_{-m}), and the composition
    and partition forms are oracles in the test suite.  Each part of a
    composition carries one factor of k^0, so U_n(c k) is not c^n U_n(k).
    """
    if n < 0:
        raise ValueError("U_n is defined for n >= 0")
    if sign not in (1, -1):
        raise ValueError("sign selects U_n(+k) or U_n(-k)")
    if n == 0:
        return v + FockVector.zero()
    if not v or (not dagger and n > v.level()):
        return FockVector.zero()
    steps = [v]
    for j in range(1, n + 1):
        w = FockVector.zero()
        for m in range(1, j + 1):
            if steps[j - m]:
                w += _contract_apply(k, -m if dagger else m, steps[j - m],
                                     sign, params)
        steps.append(w.scaled(Fraction(1, j)) if j > 1 else w)
    return steps[n]


def v_scalar_apply(n: int, k: NullVector, v: FockVector,
                   params: ModelParams) -> FockVector:
    """Apply V_n(k) = sum_p U_{p-n}(-k)^dagger U_p(k); lowers level by n.

    V_n(k) acts on each monomial's lightcone factors; the transverse ones
    ride along.  The image of a lightcone part, the p-sum up to its level
    (every omitted term annihilates it), is kept by :func:`_image`.
    """
    last = params.d - 1
    out = FockVector.zero()
    for mono, c in v.num.items():
        lam, tau = _split(mono, last)
        out.add_product(_image(n, k, lam, last, params.b), tau, c, v.den)
    return out._reduce()


def _split(mono, last: int) -> tuple:
    """(lightcone part in the labels of the d = 2 model, transverse part)."""
    return (tuple((a, 1 if mu else 0) for a, mu in mono if mu in (0, last)),
            tuple(f for f in mono if 0 < f[1] < last))


def _image(t: int, k: NullVector, lam, last: int, b) -> FockVector:
    """V_t(k) on the lightcone basis state ``lam`` of the d = 2 model, with
    direction 1 relabelled ``last``, kept in ``k.images``: the d = 2 image
    of :func:`_lightcone_image` is built once and lifted once per ``last``.
    Readers must not mutate it."""
    image = k.images.get((t, lam, last))
    if image is None:
        image = k.images[t, lam, last] = _lifted(
            _image(t, k, lam, 1, b), last) if last != 1 else \
            _lightcone_image(t, k, lam, ModelParams(2, b))
    return image


def _lifted(image: FockVector, last: int) -> FockVector:
    """A d = 2 image with direction 1 relabelled ``last`` (same order)."""
    return FockVector._of({tuple((a, last if mu else 0) for a, mu in mono): c
                           for mono, c in image.num.items()}, image.den)


def _lightcone_image(n: int, k: NullVector, lc, params: ModelParams) -> FockVector:
    """V_n(k) on the lightcone basis state ``lc``: the literal p-sum, each
    U_p(k) lc built once per null vector and kept in ``k.ladders``."""
    out = FockVector.zero()
    for idx in range(max(0, n), level_of(lc) + 1):
        w = k.ladders.get((idx, lc))
        if w is None:
            w = k.ladders[idx, lc] = u_op_apply(
                idx, k, FockVector.basis_state(lc), params, sign=1)
        if w:
            out += u_op_apply(idx - n, k, w, params, sign=-1, dagger=True)
    return out


def v_vector_apply(mu: int, n: int, k: NullVector, p: Momentum, v: FockVector,
                   params: ModelParams) -> FockVector:
    """Apply V^mu_n = sum_{q>0}[alpha^mu_{-q} V_{n+q} + V_{n-q} alpha^mu_q]
    + p^mu V_n, mu transverse only (else InvalidDirectionError), as
    sum_s V_{n-s}(k) lam (x) alpha^mu_s tau by :func:`_assembled`, s from
    n - level(lam) on (below it V_{n-s} lam = 0), images from :func:`_image`."""
    _check_transverse(mu, params)
    return _assembled(v, mu, p, params.d - 1, lambda lam, top: [
        (s, _image(n - s, k, lam, params.d - 1, params.b))
        for s in range(n - level_of(lam), top + 1)])


def _assembled(v: FockVector, i: int, p: Momentum, last: int,
               images) -> FockVector:
    """sum_s image_s(lam) (x) alpha^i_s tau over the monomials lam (x) tau
    of v (:func:`_moved`), ``images(lam, top)`` listing the (s, full-d
    image) with s up to ``top``, the top mode of i in tau or 0."""
    out = FockVector.zero()
    for mono, c in v.num.items():
        lam, tau = _split(mono, last)
        top = max((a for a, mu in tau if mu == i), default=0)
        for s, image in images(lam, top):
            if hit := _moved(s, i, tau, p):
                a, b = _split_scalar(hit[1])
                out.add_product(image, hit[0], _times(c, a), v.den * b)
    return out._reduce()


class DdfContext:
    """Bundle of model, fiber momentum, and calibrated normalization.

    The scaled null vectors n*k(p) (:meth:`null_at`) and their V_t images,
    the lightcone images of [L_m, A^i_n] and of its defect (``images``,
    built in the d = 2 model of directions 0 and d-1, relabelled 0 and 1,
    with momentum ``_lc`` = (p^0, p^{d-1})) and the certified cells and
    their ``literals`` (:func:`_certified`) live as long as the context.
    """

    __slots__ = ("params", "p", "kappa", "null", "images", "certified",
                 "literals", "_scaled", "_lc")

    def __init__(self, params: ModelParams, p: Momentum, kappa=Fraction(1)):
        if params.d != p.d:
            raise ValueError("momentum dimension does not match the model")
        self.params, self.p = params, p
        self.kappa = Fraction(kappa) if isinstance(kappa, int) else kappa
        self.null = NullVector(p, self.kappa)
        self.images, self.certified, self.literals = {}, set(), {}
        self._scaled, self._lc = {}, Momentum((p[0], p[-1]))

    def null_at(self, n: int) -> NullVector:
        """n*k(p) for A^i_n, one per n."""
        k = self._scaled.get(n)
        if k is None:
            k = self._scaled[n] = self.null.times(n)
        return k

    @property
    def degenerate(self) -> bool:
        """True when p^0 + p^{d-1} = 0, where every A^i_n is zero."""
        return self.null.is_zero

    def __repr__(self):
        return (f"DdfContext(d={self.params.d}, p={self.p.components!r}, "
                f"kappa={self.kappa!r})")


def _check_transverse(i: int, params: ModelParams) -> None:
    if not 1 <= i <= params.d - 2:
        raise InvalidDirectionError(
            f"direction {i} is not transverse (need 1..{params.d - 2})")


def ddf_apply(i: int, n: int, v: FockVector, ctx: DdfContext) -> FockVector:
    """Apply the transverse operator A^i_n = V^i_n at null vector n*k(p)."""
    _check_transverse(i, ctx.params)
    if ctx.degenerate:
        return FockVector.zero()
    return v_vector_apply(i, n, ctx.null_at(n), ctx.p, v, ctx.params)


def ddf_state(word, ctx: DdfContext) -> FockVector:
    """Build A^{i_1}_{-n_1} ... A^{i_k}_{-n_k} Omega for word [(i_l, n_l)].

    All n_l must be positive (they are applied as lowering indices -n_l);
    the resulting state is homogeneous of level sum(n_l).
    """
    out = FockVector.vacuum()
    for i, n in reversed(list(word)):
        if n <= 0:
            raise ValueError("word entries must have n > 0")
        out = ddf_apply(i, -n, out, ctx)
    return out


def mass_project(r, v: FockVector, params: ModelParams) -> FockVector:
    """Keep exactly the terms whose level n satisfies 2(n - b) = r."""
    return v.diagonal(lambda mono: int(2 * (level_of(mono) - params.b) == r))


def constraint_report(v: FockVector, ctx: DdfContext) -> dict:
    """L_m v for 0 <= m <= 3, keyed by m (exact FockVectors)."""
    return {m: virasoro_apply(m, ctx.p, v, ctx.params) for m in range(4)}


def ddf_commutator_residual(m: int, i: int, n: int, v: FockVector,
                            ctx: DdfContext) -> FockVector:
    """[L_m, A^i_n] v minus its expected value (-n A^i_n v for m = 0, else
    0), from the images of :func:`_residual_image`, see :func:`_certified`."""
    _check_transverse(i, ctx.params)
    return _certified(_residual_image, m, i, n, v, ctx)


def _certified(build, m, i, n, v, ctx) -> FockVector:
    """The factored form of ``build``, checked against the literal
    commutator (which the defect equals) on the first call per (build, n,
    m, level(v), i occurs in v); a mismatch is an InvariantError.  The
    literal waits in ``ctx.literals`` for the other builder of its cell,
    which reuses it on the same (i, v); zero on a degenerate context."""
    if ctx.degenerate:
        return FockVector.zero()
    res = _factored(build, m, i, n, v, ctx)
    cell = (n, m, v.level(), any(f[1] == i for t in v.num for f in t))
    if (build, *cell) not in ctx.certified:
        j, u, literal = ctx.literals.pop(cell, (None, None, None))
        if (j, u) != (i, v):
            literal = _literal_residual(m, i, n, v, ctx)
        if res != literal:
            raise InvariantError(f"[L_{m}, A^{i}_{n}] factored form "
                                 f"disagrees with the literal one on {v!r}")
        ctx.certified.add((build, *cell))
        other = _defect_image if build is _residual_image else _residual_image
        if m and ctx.kappa == 1 and (other, *cell) not in ctx.certified:
            ctx.literals[cell] = i, v + FockVector(), literal
    return res


def _literal_residual(m, i, n, v, ctx) -> FockVector:
    """L_m A^i_n v - A^i_n L_m v (+ n A^i_n v for m = 0): the certificate."""
    w = ddf_apply(i, n, v, ctx)
    res = virasoro_apply(m, ctx.p, w, ctx.params)
    res -= ddf_apply(i, n, virasoro_apply(m, ctx.p, v, ctx.params), ctx)
    if m == 0:
        res += w.scaled(n)
    return res


def _lc_images(build, m: int, n: int, lam, top: int, ctx) -> list:
    """[(s, image)] of ``build`` on the lightcone part ``lam``, s from
    n - level(lam) - max(0, -m) (below it every term of R_s and of the
    defect lowers lam past its level) to ``top``.  Images are in d
    directions, cached on the context; ``build`` reads each V_t(n k) lam
    off :func:`_image`, so the context builds it once."""
    k, b, last, out = ctx.null_at(n), ctx.params.b, ctx.params.d - 1, []
    for s in range(n - level_of(lam) - max(0, -m), top + 1):
        image = ctx.images.get((build, m, n, s, lam))
        if image is None:
            image = ctx.images[build, m, n, s, lam] = _lifted(build(
                m, n, s, lam, ctx, lambda t: _image(t, k, lam, 1, b)), last)
        out.append((s, image))
    return out


def _residual_image(m, n, s, lam, ctx, vertex) -> FockVector:
    """R_s(lam) = [L_m, V_{n-s}] lam - (s - m) V_{n-s+m} lam, plus
    n V_{n-s} lam for m = 0, in the d = 2 model with V at n k."""
    params, t = ModelParams(2, ctx.params.b), n - s
    lowered = virasoro_apply(m, ctx._lc, FockVector.basis_state(lam), params)
    out = virasoro_apply(m, ctx._lc, vertex(t), params)
    out -= v_scalar_apply(t, ctx.null_at(n), lowered, params)
    out += vertex(t + m).scaled((m or n) - s)
    return out


def _moved(s: int, i: int, tau, p: Momentum):
    """alpha^i_s tau as (monomial, factor), alpha^i_0 = p^i; None if zero."""
    if s < 0:
        return tuple(sorted(tau + ((-s, i),))), 1
    if not s:
        return (tau, p[i]) if p[i] else None
    if (s, i) not in tau:
        return None
    j = tau.index((s, i))
    return tau[:j] + tau[j + 1:], tau.count((s, i)) * s


def _factored(build, m, i, n, v, ctx) -> FockVector:
    """``build``'s :func:`_lc_images`, assembled on v by :func:`_assembled`."""
    return _assembled(v, i, ctx.p, ctx.params.d - 1, lambda lam, top:
                      _lc_images(build, m, n, lam, top, ctx))


def defect_threshold(m: int, n: int) -> int:
    """Minimal probe level at which [L_m, A^i_n] can fail to vanish.

    The closing defect of the fiberwise construction lowers the level by
    m + n and needs max(0, m) + max(0, n) units of annihilation in every
    term, so on probes below that level the commutator [L_m, A^i_n]
    (m != 0) vanishes identically.  At the threshold itself it is already
    nonzero for generic momenta.
    """
    return max(0, m) + max(0, n)


def ddf_commutator_defect(m: int, i: int, n: int, v: FockVector,
                          ctx: DdfContext) -> FockVector:
    """Closed form of [L_m, A^i_n] v for m != 0 at the calibrated kappa = 1.

    Writing k for the context's null vector and V_t for the scalar vertex
    modes at null argument n*k, the commutator equals exactly

        sum_s (m+n-s) alpha^i_s V_{m+n-s} v
        - n sum_{a != 0} (k.alpha_a) alpha^i_s V_{m+n-a-s} v
        + n (k.alpha_m) A^i_n v

    where alpha^i_0 means multiplication by p^i; it is assembled and
    certified like the residual, from the images of :func:`_defect_image`.
    The mode bookkeeping behind the formula aligns integer gradings only
    when k.p = -1, hence the kappa restriction.  On probes below
    :func:`defect_threshold` and on states built from the vacuum by
    lowering operators the result is zero; elsewhere it is the exact
    obstruction to [L_m, A^i_n] = 0.
    """
    _check_transverse(i, ctx.params)
    if m == 0:
        raise ValueError("the closed form covers m != 0 only")
    if ctx.null.kappa != 1:
        raise ValueError("closed form derived for the calibrated kappa = 1")
    return _certified(_defect_image, m, i, n, v, ctx)


def _defect_image(m, n, s, lam, ctx, vertex) -> FockVector:
    """The defect's factor of alpha^i_s on lam in the d = 2 model:
    (m+n-s) V_{m+n-s} lam - n sum_{a != 0} (k.alpha_a) V_{m+n-a-s} lam
    + n (k.alpha_m) V_{n-s} lam.  t = m+n-a-s runs to level(lam), and so
    does a: k is lightlike, so each k.alpha_a contracts against lam."""
    params, k, level = ModelParams(2, ctx.params.b), ctx.null, level_of(lam)
    out = FockVector.zero()
    for t in range(m + n - s - level, level + 1):
        w, a = vertex(t), m + n - s - t
        if w:
            out += w.scaled(t) if not a else \
                _contract_apply(k, a, w, 1, params).scaled(-n)
    out += _contract_apply(k, m, vertex(n - s), 1, params).scaled(n)
    return out


def calibrate_normalization(params: ModelParams, momenta,
                            candidates=(Fraction(1), Fraction(1, 2), Fraction(2)),
                            level_cap: int = 2, mode_cap: int = 2,
                            directions=None) -> Fraction:
    """Search the candidate normalizations and return the one that works.

    A candidate passes when [L_m, A^i_n] psi = 0 exactly for all
    m in {-mode_cap..mode_cap} minus {0}, n in {-mode_cap..mode_cap}, every
    probed transverse direction, every test momentum, and every basis state
    psi of level <= level_cap *below the kinematic threshold*
    (level(psi) < :func:`defect_threshold`; above it the commutator carries
    the closing defect of the fiberwise construction at every normalization,
    so those probes discriminate nothing — see :func:`ddf_commutator_defect`
    and the module docstring).  Candidates are tried in the given order and
    rejected at the first nonzero residual.  If none passes, raises
    :class:`CalibrationError` carrying one witness residual per candidate;
    an empty direction list or probe set, a momentum with
    p^0 + p^{d-1} = 0 or the candidate 0 (every A^i_n would vanish) is a
    ValueError.
    """
    if not momenta:
        raise ValueError("calibration needs at least one momentum")
    for p in momenta:
        if not p.lightcone():
            raise ValueError(f"calibration momentum {p!r} has p^0 + p^{{d-1}} = 0")
    if 0 in candidates:
        raise ValueError("calibration candidate 0 makes every A^i_n vanish")
    dirs = list(directions) if directions is not None else list(range(1, params.d - 1))
    if not dirs:
        raise ValueError("calibration needs at least one transverse direction")
    for i in dirs:
        _check_transverse(i, params)
    probes = [[FockVector.basis_state(mono) for mono in iter_level_basis(params, level)]
              for level in range(level_cap + 1)]
    cells = [(n, m, level, j, v)
             for n in range(-mode_cap, mode_cap + 1)
             for m in range(-mode_cap, mode_cap + 1) if m
             for level in range(min(defect_threshold(m, n), level_cap + 1))
             for j, v in enumerate(probes[level])]
    if not cells:
        raise ValueError("calibration probe set is empty: raise level_cap or mode_cap")
    failures = {}
    for kappa in candidates:
        witness = _first_calibration_failure(params, momenta, kappa, cells, dirs)
        if witness is None:
            return Fraction(kappa)
        failures[str(kappa)] = witness
    raise CalibrationError("no candidate normalization makes [L_m, A^i_n] "
                           "vanish on the protected probe sector", failures)


def _first_calibration_failure(params, momenta, kappa, cells, dirs):
    """The first nonzero residual in (momentum, i, n, m, probe) order.

    ``cells`` lists (n, m, level, j, v), v the j-th basis probe lam (x) tau
    of its level; each is checked on the directions before the first
    failing one found so far.  Distinct s give distinct monomials
    alpha^i_s tau, so direction i fails exactly when some R_s(lam) != 0
    has alpha^i_s tau != 0 (:func:`_moved`): every i for s < 0, p^i != 0
    for s = 0, (s, i) in tau for s > 0.  A residual is assembled only for
    a failing direction or the certificate: dirs[0] on the first probe of
    each (n, m, level) and on its first probe with a factor in dirs[0].
    """
    for p in momenta:
        ctx = DdfContext(params, p, kappa)
        active, witness = dirs, None
        for n, m, level, j, v in cells:
            if not active:
                break
            (mono, _), = v.items()
            lam, tau = _split(mono, params.d - 1)
            live = {s for s, image in _lc_images(
                _residual_image, m, n, lam,
                max((a for a, _ in tau), default=0), ctx) if image}
            failing = set(active) if min(live, default=0) < 0 else {
                mu for a, mu in tau if a in live} | {
                i for i in active if 0 in live and p[i]}
            certify = not j or any(mu == active[0] for _, mu in tau)
            for pos in [pos for pos, i in enumerate(active)
                        if i in failing or certify and not pos]:
                i = active[pos]
                res = (_certified if certify and not pos else _factored)(
                    _residual_image, m, i, n, v, ctx)
                if res:
                    witness = {"momentum": repr(p.components), "i": i,
                               "n": n, "m": m, "residual_terms": len(res)}
                    active = active[:pos]
                    break
        if witness:
            return witness
    return None
