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
c l_m with c = k^0 and l_m = -alpha^0_m - alpha^{d-1}_m.  V_n(k) therefore
acts on the lightcone factors of a monomial and leaves its transverse
factors alone.  :func:`v_scalar_apply` builds V_n(k) on each lightcone
part once and keeps it on the null vector; a :class:`DdfContext` holds one
null vector per n, so those images serve every direction, probe and call
made through the context, and they go away with it.  The images carry the
context's ring scalars (U_n(c l) = sum_q c^q U_{n,q}(l), q the number of
factors), which is why no cache outlives its context.

The normalization kappa is *calibrated*, not assumed: candidate values are
searched until the commutators [L_m, A^i_n] (m != 0) vanish on a probe
family; see :func:`calibrate_normalization`.  Discrimination does not
require transversely moving probe momenta: the zero-mode pairing
k.alpha_0 = k.p = -kappa gives [L_1, A^i_{-2}] Omega = 2 (1 - kappa)
alpha^i_{-1} Omega on lightcone-plane momenta, and transverse momentum
components add [L_1, A^i_{-1}] Omega = p^i (1 - kappa) Omega.  As k^i = 0,
[V_t(k), alpha^i_s] = 0, and [L_m, alpha^i_s] = -s alpha^i_{m+s} with
alpha^i_0 = p^i, so [L_m, A^i_n] v is single oscillators alpha^i on the
images W_t = V_t v and vertex commutators E_t = L_m W_t - V_t L_m v, plus
terms for the modes of i in v.  The calibration builds W and E once for
all directions, certifying the expansion on two probes per (n, m, level).

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
rational momenta and on the symbolic momentum sections used by the
test-function factory.
"""

from __future__ import annotations

from fractions import Fraction

from .fiber import Momentum, virasoro_apply
from .fock import (
    FockVector,
    InvalidDirectionError,
    ModelParams,
    apply_oscillator,
    iter_level_basis,
    level_of,
)

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


class NullVector:
    """The lightlike contraction vector k(p), scaled by the normalization.

    Only the 0 and d-1 components are nonzero; they are opposite, so k.k = 0
    identically and k.p = -kappa.  ``times(c)`` rescales (the DDF definition
    feeds n * k(p) into V^i_n).  A vanishing lightcone combination
    p^0 + p^{d-1} makes the vector identically zero.

    ``images`` caches V_t(k) on lightcone basis states, keyed by
    (t, lightcone monomial); see :func:`v_scalar_apply`.  The images carry
    this vector's ring scalars, so the cache lives and dies with the vector
    and a rescaled copy from ``times`` starts empty.
    """

    __slots__ = ("p", "kappa", "components", "images")

    def __init__(self, p: Momentum, kappa):
        self.p = p
        self.kappa = Fraction(kappa) if isinstance(kappa, int) else kappa
        self.images = {}
        w = p.lightcone()
        d = p.d
        if not w or not self.kappa:
            self.components = (Fraction(0),) * d
        else:
            k0 = self.kappa / w
            self.components = (k0,) + (Fraction(0),) * (d - 2) + (-k0,)

    def __getitem__(self, mu):
        return self.components[mu]

    @property
    def is_zero(self) -> bool:
        return not any(self.components)

    def times(self, c) -> "NullVector":
        return NullVector(self.p, self.kappa * c)

    def dot(self, other) -> object:
        total = -(self.components[0] * other[0])
        for a, b in zip(self.components[1:], list(other)[1:]):
            total = total + a * b
        return total

    def __repr__(self):
        return f"NullVector(p={self.p!r}, kappa={self.kappa!r})"


def _contract_apply(k: NullVector, mode: int, v: FockVector, sign: int,
                    params: ModelParams) -> FockVector:
    """Apply (sign * k) . alpha_mode = -sign k^0 (alpha^0 + alpha^{d-1})_mode
    to v: eta^{00} k^0 and eta^{d-1,d-1} k^{d-1} are both -k^0."""
    k0 = k.components[0]
    if not k0:
        return FockVector.zero()
    w = apply_oscillator((mode, 0), v, params)
    w += apply_oscillator((mode, len(k.components) - 1), v, params)
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
    (every omitted term annihilates it), is built by :func:`u_op_apply` on
    first use and kept in ``k.images`` under (n, lightcone part), where
    every later call with the same ``k`` finds it.
    """
    last = len(k.components) - 1
    images = k.images
    out = FockVector.zero()
    for mono, c in v.items():
        lc = tuple(f for f in mono if f[1] == 0 or f[1] == last)
        image = images.get((n, lc))
        if image is None:
            image = images[(n, lc)] = _lightcone_image(n, k, lc, params)
        if len(lc) == len(mono):
            for img, a in image.items():
                out.add_term(img, a * c)
            continue
        spectators = tuple(f for f in mono if 0 < f[1] < last)
        for img, a in image.items():
            out.add_term(tuple(sorted(img + spectators)), a * c)
    return out


def _lightcone_image(n: int, k: NullVector, lc, params: ModelParams) -> FockVector:
    """V_n(k) on the lightcone basis state ``lc``: the literal p-sum."""
    v = FockVector({lc: Fraction(1)})
    out = FockVector.zero()
    for idx in range(max(0, n), level_of(lc) + 1):
        w = u_op_apply(idx, k, v, params, sign=1)
        if w:
            out += u_op_apply(idx - n, k, w, params, sign=-1, dagger=True)
    return out


def v_vector_apply(mu: int, n: int, k: NullVector, p: Momentum, v: FockVector,
                   params: ModelParams) -> FockVector:
    """Apply V^mu_n = sum_{q>0}[alpha^mu_{-q} V_{n+q} + V_{n-q} alpha^mu_q]
    + p^mu V_n, with level-bound truncations q <= level - n and q <= level:
    alpha^mu_{-q} on each of the :func:`_vertex_images` (p^mu at q = 0),
    plus V_{n-q} alpha^mu_q v for the modes q > 0 of mu that occur in v."""
    out = FockVector.zero()
    for q, w in _vertex_images(n, k, v, params):
        out += apply_oscillator((-q, mu), w, params) if q else w.scaled(p[mu])
    for q in sorted({f[0] for mono, _ in v.items() for f in mono if f[1] == mu}):
        out += v_scalar_apply(n - q, k, apply_oscillator((q, mu), v, params),
                              params)
    return out


def _vertex_images(n: int, k: NullVector, v: FockVector,
                   params: ModelParams) -> list:
    """[(q, V_{n+q}(k) v)] for 0 <= q <= level(v) - n, zero images dropped."""
    return [(q, w) for q in range(v.level() - n + 1)
            if (w := v_scalar_apply(n + q, k, v, params))]


class DdfContext:
    """Bundle of model, fiber momentum, and calibrated normalization.

    The scaled null vectors n*k(p) are built once per n (:meth:`null_at`),
    so every operator applied through this context shares their cached
    V_t images; the cache lives as long as the context.
    """

    __slots__ = ("params", "p", "kappa", "null", "_scaled")

    def __init__(self, params: ModelParams, p: Momentum, kappa=Fraction(1)):
        if params.d != p.d:
            raise ValueError("momentum dimension does not match the model")
        self.params = params
        self.p = p
        self.kappa = Fraction(kappa) if isinstance(kappa, int) else kappa
        self.null = NullVector(p, self.kappa)
        self._scaled = {1: self.null}

    def null_at(self, n: int) -> NullVector:
        """n*k(p), the null vector that A^i_n feeds into V_t."""
        k = self._scaled.get(n)
        if k is None:
            k = self._scaled[n] = self.null.times(n)
        return k

    @property
    def degenerate(self) -> bool:
        """True when p^0 + p^{d-1} = 0, where every A^i_n is zero."""
        return self.null.is_zero

    def __repr__(self):
        return (
            f"DdfContext(d={self.params.d}, p={self.p.components!r}, "
            f"kappa={self.kappa!r})"
        )


def _check_transverse(i: int, params: ModelParams) -> None:
    if not 1 <= i <= params.d - 2:
        raise InvalidDirectionError(
            f"direction {i} is not transverse (need 1..{params.d - 2})"
        )


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
    out = FockVector.zero()
    for mono, coeff in v.items():
        if 2 * (level_of(mono) - params.b) == r:
            out.add_term(mono, coeff)
    return out


def constraint_report(v: FockVector, ctx: DdfContext) -> dict:
    """L_m v for 0 <= m <= 3, keyed by m (exact FockVectors)."""
    return {m: virasoro_apply(m, ctx.p, v, ctx.params) for m in range(4)}


def ddf_commutator_residual(m: int, i: int, n: int, v: FockVector,
                            ctx: DdfContext) -> FockVector:
    """[L_m, A^i_n] v minus its expected value (-n A^i_n v for m = 0, else 0)."""
    w = ddf_apply(i, n, v, ctx)
    res = virasoro_apply(m, ctx.p, w, ctx.params)
    res -= ddf_apply(i, n, virasoro_apply(m, ctx.p, v, ctx.params), ctx)
    if m == 0:
        res += w.scaled(n)
    return res


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

    where alpha^i_0 means multiplication by p^i.  All sums are finite:
    V_t v = 0 for t > level(v), and because k is lightlike and transverse
    every annihilation factor must contract directly against v, capping the
    annihilation indices at level(v).  The mode bookkeeping behind the
    formula aligns integer gradings only when k.p = -1, hence the kappa
    restriction.

    On probes below :func:`defect_threshold` and on states built from the
    vacuum by lowering operators the result is zero; elsewhere it is the
    exact obstruction to [L_m, A^i_n] = 0.
    """
    if m == 0:
        raise ValueError("the closed form covers m != 0 only")
    if ctx.null.kappa != 1:
        raise ValueError("closed form derived for the calibrated kappa = 1")
    params, p, k = ctx.params, ctx.p, ctx.null
    nk = ctx.null_at(n)
    level = v.level()
    out = FockVector.zero()
    # one pass over (t, s) with a = m+n-t-s covers both sums; t <= level
    # and a <= level bound the index set, and each V_t v is built once
    for t in range(m + n - 2 * level, level + 1):
        w = v_scalar_apply(t, nk, v, params)
        if not w:
            continue
        for s in range(m + n - t - level, level + 1):
            x = apply_oscillator((s, i), w, params) if s else w.scaled(p[i])
            if not x:
                continue
            a = m + n - t - s
            if a == 0:
                out += x.scaled(t)
            else:
                out += _contract_apply(k, a, x, 1, params).scaled(-n)
    w = ddf_apply(i, n, v, ctx)
    if w:
        out += _contract_apply(k, m, w, 1, params).scaled(n)
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

    ``cells`` lists (n, m, level, j, v) in that order, v being the j-th
    probe of its level.  Each cell is checked on the directions before the
    first failing one found so far, so that order holds.  With W_t = V_t v
    at n k, E_t = L_m W_t - V_t L_m v and alpha^i_0 = p^i, each direction
    costs only single oscillators on W and E:

      [L_m, A^i_n] v = sum_{q>0} q alpha^i_{m-q} W_{n+q} + sum_{q>=0}
          alpha^i_{-q} E_{n+q} - sum_{0<q<=-m} q alpha^i_{m+q} W_{n-q}
          + sum_r ([L_m, V_{n-r}] - (r-m) [r > m] V_{n-r+m}) alpha^i_r v,

    r over the modes of direction i in v.  Certificate: on the first probe
    of each (n, m, level) and on its first probe with a factor in dirs[0],
    the expansion on dirs[0] must equal :func:`ddf_commutator_residual`.
    """
    from .spectrum import InvariantError
    for p in momenta:
        ctx = DdfContext(params, p, kappa)
        certified, active, witness = set(), dirs, None
        for n, m, level, j, v in cells:
            if not active:
                break
            nk = ctx.null_at(n)
            terms = _cell_terms(n, m, nk, p, v, params)
            present = {f[1] for mono in v.terms for f in mono}
            for pos, i in enumerate(active):
                if pos and not terms and i not in present:
                    continue  # every term of the expansion vanishes
                res = _bracket(i, n, m, nk, p, v, terms, params)
                has = i in present
                if not pos and (has or not j) and (n, m, level, has) not in certified:
                    certified.add((n, m, level, has))
                    if res != ddf_commutator_residual(m, i, n, v, ctx):
                        raise InvariantError(f"[L_{m}, A^{i}_{n}] expansion "
                                             f"disagrees with the literal one on {v!r}")
                if res:
                    witness = {"momentum": repr(p.components), "i": i,
                               "n": n, "m": m, "residual_terms": len(res)}
                    active = active[:pos]
                    break
        if witness:
            return witness
    return None


def _cell_terms(n, m, k, p, v, params) -> list:
    """The direction-free (s, term) pairs of [L_m, A^i_n] v: q W_{n+q},
    E_{n+q} and -q W_{n-q}, from the :func:`_vertex_images` of v and L_m v."""
    images = _vertex_images(n, k, v, params)
    errors = {q: virasoro_apply(m, p, w, params) for q, w in images}
    for q, w in _vertex_images(n, k, virasoro_apply(m, p, v, params), params):
        errors[q] = errors[q] - w if q in errors else -w
    terms = [(m - q, w.scaled(q)) for q, w in images if q]
    terms += [(-q, e) for q, e in errors.items() if e]
    return terms + [(m + q, w.scaled(-q)) for q in range(1, 1 - m)
                    if (w := v_scalar_apply(n - q, k, v, params))]


def _bracket(i, n, m, k, p, v, terms, params) -> FockVector:
    """[L_m, A^i_n] v by the expansion in :func:`_first_calibration_failure`:
    alpha^i_s on each of the :func:`_cell_terms`, then the modes of i in v."""
    out = FockVector.zero()
    for s, w in terms:
        out += apply_oscillator((s, i), w, params) if s else w.scaled(p[i])
    for r in sorted({f[0] for mono in v.terms for f in mono if f[1] == i}):
        x = apply_oscillator((r, i), v, params)
        out += virasoro_apply(m, p, v_scalar_apply(n - r, k, x, params), params)
        out -= v_scalar_apply(n - r, k, virasoro_apply(m, p, x, params), params)
        if r > m:
            out += v_scalar_apply(n - r + m, k, x, params).scaled(m - r)
    return out
