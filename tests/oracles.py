"""Independent slow-path oracles used to pin expected values in the tests.

Everything here recomputes results through a different route than the
production code: basis sizes by enumerating integer partitions directly,
inner products by recursively migrating annihilators with the bare
commutation relation, level dimensions by explicit series multiplication,
radial transforms by a shell-and-angle double quadrature, the support
slices by a dense phase matrix instead of an FFT, the spurious
radical and the physical signature through the Gram of a physical basis,
L_m by composing single oscillators on whole vectors, the vector
arithmetic and the diagonal operators on plain {monomial: coefficient}
dicts with no shared denominator, the integer
scanner's [T_m, T_n] by composing its own rows, U_n by enumerating
compositions and partitions, V_t by running U_n over the whole vector,
V^mu_n by its two-loop definition on top of that V_t, the closed-form
DDF defect by its three mode sums on the whole vector, and the kappa
calibration's failing directions by testing each direction in turn.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, gamma, pi

import numpy as np

from openstring.fock import FockVector, apply_oscillator


def partitions(n, cap=None):
    """All integer partitions of n as nonincreasing tuples."""
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def count_colored_partitions(d, n):
    """Number of level-n monomials over d directions, by direct enumeration
    of partition shapes and multiset-coefficient counting."""
    from math import comb

    total = 0
    for lam in partitions(n):
        prod = 1
        # group multiplicities of equal parts
        i = 0
        while i < len(lam):
            j = i
            while j < len(lam) and lam[j] == lam[i]:
                j += 1
            k = j - i
            prod *= comb(d + k - 1, k)
            i = j
        total += prod
    return total


def inner_recursive(u, v, params):
    """<u, v> computed by peeling creation factors off u via adjointness:
    <alpha_{-n} u', v> = <u', alpha_n v>, descending to <vac, .>."""
    total = Fraction(0)
    for mono, cu in u.terms.items():
        w = v
        # strip factors of the first argument one at a time
        for n, mu in mono:
            w = apply_oscillator((n, mu), w, params)
            if not w:
                break
        val = w.terms.get((), Fraction(0)) if w else Fraction(0)
        if val:
            total = total + cu * val
    return total


def virasoro_apply_reference(m, p, v, params, truncate=None):
    """L_m at momentum ``p`` on ``v``, one ``apply_oscillator`` at a time.

    Same conventions as :func:`openstring.fiber.virasoro_apply` (shifted
    L_0 = p.p/2 + N - b), but each normal-ordered pair alpha_{m-n}.alpha_n
    is applied to the whole vector direction by direction.  ``truncate``
    widens the mode bound (default ``level + |m|``) to show that the
    default already catches every surviving pair.
    """
    half = Fraction(1, 2)
    if m == 0:
        out = FockVector()
        for mono, coeff in v.items():
            level = sum(n for n, _ in mono)
            out.add_term(mono, coeff * (p.minkowski_sq() * half
                                        + (level - params.b)))
        return out
    level = v.level()
    bound = level + abs(m) if truncate is None else truncate
    out = FockVector()
    for mu in range(params.d):
        if p[mu]:
            w = apply_oscillator((m, mu), v, params)
            if w:
                out += w.scaled(params.eta(mu) * p[mu])
    for n in range(-bound, bound + 1):
        if n == 0 or n == m or 2 * n < m or n > level:
            continue
        coeff = half if 2 * n == m else Fraction(1)
        for mu in range(params.d):
            w = apply_oscillator((n, mu), v, params)
            if w:
                w = apply_oscillator((m - n, mu), w, params)
            if w:
                out += w.scaled(coeff * params.eta(mu))
    return out


# -- the vector arithmetic on plain {monomial: coefficient} dicts -----------


def dict_combine(u, v, sign=1):
    """u + sign * v, term by term, a zero sum pruned."""
    out = dict(u)
    for mono, c in v.items():
        new = out.get(mono, 0) + sign * c
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def dict_scaled(u, c):
    return {mono: c * a for mono, a in u.items()} if c else {}


def dict_oscillator(mode, mu, u):
    """alpha^mu_mode on u by the commutation relation, factor by factor:
    a creator appends and re-sorts, an annihilator contracts each equal
    factor in turn, with weight mode * eta^{mu mu}."""
    out = {}
    for mono, c in u.items():
        if mode < 0:
            terms = [(tuple(sorted(mono + ((-mode, mu),))), c)]
        else:
            eta = -1 if mu == 0 else 1
            terms = [(mono[:j] + mono[j + 1:], c * mode * eta)
                     for j, f in enumerate(mono) if f == (mode, mu)]
        for tm, a in terms:
            out = dict_combine(out, {tm: a})
    return out


def dict_virasoro(m, p, u, b):
    """L_m at momentum ``p`` on u: p.p/2 + N - b for m = 0, else
    sum_mu eta p_mu alpha^mu_m + (1/2) sum_{a + c = m; a, c != 0}
    :alpha_a . alpha_c:, the larger mode applied first, each pair once
    with weight 1 (1/2 when a = c)."""
    p, out = list(p), {}
    if m == 0:
        p2 = -p[0] * p[0] + sum(x * x for x in p[1:])
        for mono, c in u.items():
            level = sum(n for n, _ in mono)
            out = dict_combine(out, {mono: c * (p2 * Fraction(1, 2)
                                                + level - b)})
        return out
    top = max((sum(n for n, _ in mono) for mono in u), default=0) + abs(m)
    for mu in range(len(p)):
        eta = -1 if mu == 0 else 1
        if p[mu]:
            out = dict_combine(out, dict_scaled(
                dict_oscillator(m, mu, u), eta * p[mu]))
        for c in range(-top, top + 1):
            a = m - c
            if c and a and c >= a:
                w = dict_oscillator(a, mu, dict_oscillator(c, mu, u))
                out = dict_combine(out, dict_scaled(
                    w, eta * (Fraction(1, 2) if a == c else 1)))
    return out


def dict_diagonal(weight, u, den=1):
    """sum_m (weight(m) / den) u_m m, term by term, a zero weight pruned."""
    return {mono: c * weight(mono) * Fraction(1, den)
            for mono, c in u.items() if weight(mono)}


def dict_inner(u, v):
    """<u, v> on the orthogonal monomial basis: <mono, mono> is the product
    over its distinct factors (n, mu) of multiplicity k of
    k! (n eta^{mu mu})^k."""
    total = Fraction(0)
    for mono, c in u.items():
        if mono in v:
            norm = 1
            for (n, mu), k in Counter(mono).items():
                norm *= factorial(k) * (n * (-1 if mu == 0 else 1)) ** k
            total = total + c * v[mono] * norm
    return total


def random_vector(rng, params, max_level, *, terms=4, span=None):
    """Small random rational vector for property tests (seeded rng)."""
    from openstring.fock import level_basis

    pool = []
    for n in range(max_level + 1):
        pool.extend(level_basis(params, n))
    if span:
        pool = [m for m in pool if all(mu < span for _, mu in m)]
    out = FockVector()
    for _ in range(terms):
        mono = pool[rng.randrange(len(pool))]
        c = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        if c:
            out.add_term(mono, c)
    return out


@lru_cache(maxsize=None)
def compositions(n):
    """Ordered tuples of positive integers summing to n."""
    if n == 0:
        return ((),)
    out = []
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            out.append((first,) + rest)
    return tuple(out)


def u_composition_apply(n, k, v, params, sign=1, dagger=False):
    """Composition-form oracle for the exponential modes: one chain of
    contractions per ordered composition of n, weighted 1/(q! n_1..n_q)."""
    from openstring.ddf import _contract_apply

    out = FockVector()
    for comp in compositions(n):
        denom = factorial(len(comp))
        w = v
        for nj in comp:
            denom *= nj
            w = _contract_apply(k, -nj if dagger else nj, w, sign, params)
        out += w.scaled(Fraction(1, denom))
    return out


def u_exponential_partition_apply(n, k, v, params, sign=1, dagger=False):
    """Partition-form oracle for the exponential modes.

    Groups the ordered-composition expansion by multiplicity: a partition of
    n with multiplicities m_j (j appearing m_j times) carries coefficient
    prod_j 1/(j**m_j * m_j!), because its compositions number
    q!/prod(m_j!).  Independent route used to cross-check u_op_apply.
    """
    from openstring.ddf import _contract_apply

    if n == 0:
        return v.scaled(Fraction(1))
    out = FockVector()
    for part in partitions(n):
        mult = Counter(part)
        denom = 1
        for j, mj in mult.items():
            denom *= j ** mj * factorial(mj)
        w = v.scaled(Fraction(1, denom))
        for j in part:
            mode = -j if dagger else j
            w = _contract_apply(k, mode, w, sign, params)
            if not w:
                break
        if w:
            out += w
    return out


def v_scalar_apply_reference(t, k, v, params):
    """V_t(k) = sum_p U_{p-t}(-k)^dagger U_p(k) run on the whole vector.

    No lightcone split and no cache: each p-term of the sum goes through
    ``u_op_apply`` on all of ``v``.  Every omitted p annihilates v.
    """
    from openstring.ddf import u_op_apply

    out = FockVector()
    for idx in range(max(0, t), v.level() + 1):
        w = u_op_apply(idx, k, v, params, sign=1)
        if w:
            out += u_op_apply(idx - t, k, w, params, sign=-1, dagger=True)
    return out


def v_vector_apply_reference(mu, n, k, p, v, params):
    """V^mu_n = sum_{q>0}[alpha^mu_{-q} V_{n+q} + V_{n-q} alpha^mu_q] + p^mu V_n.

    The literal two-loop form, each V_t run on the whole vector by
    ``v_scalar_apply_reference``; q stops at the level bounds
    q <= level - n and q <= level, past which every term vanishes.
    """
    level = v.level()
    out = FockVector()
    for q in range(1, level - n + 1):
        w = v_scalar_apply_reference(n + q, k, v, params)
        if w:
            out += apply_oscillator((-q, mu), w, params)
    for q in range(1, level + 1):
        w = apply_oscillator((q, mu), v, params)
        if w:
            out += v_scalar_apply_reference(n - q, k, w, params)
    if p[mu]:
        out += v_scalar_apply_reference(n, k, v, params).scaled(p[mu])
    return out


def ddf_commutator_defect_reference(m, i, n, v, ctx):
    """The closed-form defect of [L_m, A^i_n] v summed on the whole vector:

        sum_s (m+n-s) alpha^i_s V_{m+n-s} v
        - n sum_{a != 0} (k.alpha_a) alpha^i_s V_{m+n-a-s} v
        + n (k.alpha_m) A^i_n v,

    one pass over (t, s) with a = m+n-t-s, t and a capped at level(v),
    with V_t(n k) run on all d directions by ``v_scalar_apply_reference``,
    so with no lightcone split and not through the images of the d = 2
    model.
    """
    from openstring.ddf import _contract_apply, ddf_apply

    params, p, k = ctx.params, ctx.p, ctx.null
    nk = k.times(n)
    level = v.level()
    out = FockVector()
    for t in range(m + n - 2 * level, level + 1):
        w = v_scalar_apply_reference(t, nk, v, params)
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


def first_calibration_failure_reference(params, momenta, kappa, cells, dirs):
    """``ddf._first_calibration_failure`` with each active direction
    tested in turn: i fails on a cell when some live s (an R_s(lam) != 0)
    has alpha^i_s tau != 0.  Same cells, certificate and witness order.
    """
    from openstring.ddf import (DdfContext, _certified, _factored,
                                _lc_images, _moved, _residual_image, _split)

    for p in momenta:
        ctx = DdfContext(params, p, kappa)
        active, witness = dirs, None
        for n, m, level, j, v in cells:
            if not active:
                break
            (mono, _), = v.items()
            lam, tau = _split(mono, params.d - 1)
            live = [s for s, image in _lc_images(
                _residual_image, m, n, lam,
                max((a for a, _ in tau), default=0), ctx) if image]
            for pos, i in enumerate(active):
                if not pos and (not j or any(mu == i for _, mu in tau)):
                    res = _certified(_residual_image, m, i, n, v, ctx)
                elif any(_moved(s, i, tau, p) for s in live):
                    res = _factored(_residual_image, m, i, n, v, ctx)
                else:
                    continue
                if res:
                    witness = {"momentum": repr(p.components), "i": i,
                               "n": n, "m": m, "residual_terms": len(res)}
                    active = active[:pos]
                    break
        if witness:
            return witness
    return None


def radial_fourier_shells(profile, rho):
    """Radial transform as a double quadrature over radius s and polar
    angle theta: f_hat(rho) = (2pi)^(-d/2) |S^(d-2)| int_0^R f(s) s^(d-1)
    int_0^pi cos(rho s cos theta) sin^(d-2) theta dtheta ds.

    Costs len(rho) * n_s * n_theta cosines; the production code reaches
    the same integral through the profile's 1-D projection instead.
    """
    rho = np.abs(np.atleast_1d(np.asarray(rho, dtype=float)))
    d = profile.d
    R = float(profile.R)
    n = int(R * float(np.max(rho, initial=0.0)) / 1.5) + 192
    x, w = np.polynomial.legendre.leggauss(n)
    s, ws = R * (x + 1.0) / 2.0, R * w / 2.0
    theta, wt = pi * (x + 1.0) / 2.0, pi * w / 2.0
    radial = profile.radial_position(s) * s ** (d - 1) * ws
    angular = np.sin(theta) ** (d - 2) * wt
    area = 2.0 * pi ** ((d - 1) / 2.0) / gamma((d - 1) / 2.0)
    out = np.empty_like(rho)
    for k, r in enumerate(rho):
        out[k] = radial @ (np.cos(np.outer(s * r, np.cos(theta))) @ angular)
    return (2.0 * pi) ** (-d / 2.0) * area * out


def slice_values_dense(h, x, rho):
    """sum_k exp(i x_j rho_k) h_k through the dense len(x) x len(rho)
    phase matrix.

    Costs len(x) * len(rho) complex exponentials; the production code
    reads the same sums off one FFT of the centred grids instead.
    """
    return np.exp(1j * np.outer(x, rho)) @ h


def support_fractions_dense(tf, grid=1024, declared_radius=None):
    """{axis: worst fraction of squared slice mass outside the declared
    radius about the origin}, the figure ``verify_support`` reports,
    with every axis restriction evaluated term by term on the momentum
    grid and transformed by ``slice_values_dense``.
    """
    R = float(tf.profile.R)
    R_dec = R if declared_radius is None else float(declared_radius)
    window = 8.0 * max(R, R_dec)
    n, d = grid, tf.params.d
    rho = (np.arange(n) - n // 2) * (2.0 * pi / window)
    x = (np.arange(n) - n // 2) * (window / n)
    g = tf.profile.radial_fourier(np.abs(rho))
    out = {}
    for mu in range(d):
        comps = [np.zeros(n)] * d
        comps[mu] = rho
        worst = 0.0
        for _, q in tf.body.items():
            vals = sum(float(c) * np.prod([v ** e for v, e in zip(comps, exps)],
                                          axis=0)
                       for exps, c in q.terms.items())
            if not np.any(vals):
                continue
            mass = np.abs(slice_values_dense(vals * g, x, rho)) ** 2
            worst = max(worst, mass[np.abs(x) > R_dec].sum() / mass.sum())
        out[mu] = float(worst)
    return out


def gram_route(physical):
    """(radical, signature) of the form on the span of a physical basis,
    through its Gram matrix: the radical is the Gram kernel mapped back
    to vectors, and the signature is ``gram_signature`` of the basis.

    Builds a len(physical)^2 Gram; the production scan reads both answers
    off the constraint rows and a Schur complement of their size instead.
    """
    from openstring.fock import inner_indefinite
    from openstring.linalg import kernel_basis
    from openstring.spectrum import gram_signature

    gram = [[inner_indefinite(u, v) for v in physical] for u in physical]
    radical = []
    for coeffs in kernel_basis(gram, ncols=len(physical)):
        v = FockVector()
        for c, basis_vec in zip(coeffs, physical):
            if c:
                for mono, a in basis_vec.items():
                    v.add_term(mono, c * a)
        radical.append(v)
    return radical, gram_signature(physical)
