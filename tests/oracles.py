"""Independent slow-path oracles used to pin expected values in the tests.

Everything here recomputes results through a different route than the
production code: basis sizes by enumerating integer partitions directly,
inner products by recursively migrating annihilators with the bare
commutation relation, level dimensions by explicit series multiplication,
radial transforms by a shell-and-angle double quadrature, the spurious
radical and the physical signature through the Gram of a physical basis,
and L_m by composing single oscillators on whole vectors.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, gamma, pi

import numpy as np

from openstring.exactnum import conjugate
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
            total = total + conjugate(cu) * val
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
