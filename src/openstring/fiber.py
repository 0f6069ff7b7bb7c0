"""Virasoro constraint operators on a fixed-momentum Fock fiber.

Conventions.  ``L_0`` is the shifted generator ``p.p/2 + N - b`` where ``N``
counts oscillator level and ``b`` is the intercept from
:class:`~openstring.fock.ModelParams`; the physical-state condition is then
plainly ``L_m psi = 0`` for ``m >= 0``.  For ``m != 0``,

    L_m = p . alpha_m + (1/2) sum_{n not in {0, m}} :alpha_{m-n} . alpha_n:

with zero modes replaced by the momentum.  Acting on a state of finite level
only finitely many summands survive (modes up to ``level + |m|``), so every
operator application here is exact.  The oscillator pairs are written once,
in integers; :func:`virasoro_apply` runs them on a vector's numerators,
and :class:`IntegerBracketScanner` sums whole residuals in integers, each
one its cell on the vacuum times the monomial plus cached responses on one
factor or one pair of factors.  ``L_0``, ``N`` and ``M^2`` are weights of
``FockVector.diagonal``; both engines take that of ``L_0`` from
:func:`_two_l0`.  :func:`virasoro_bracket_scan` certifies the scanner in a
chain: its rows against :func:`virasoro_apply`, its creator parts as pure
insertions, and its split residual against the residual composed from
those rows.

With the shifted ``L_0`` the algebra closes as

    [L_m, L_n] = (m - n) L_{m+n} + delta_{m+n} (d m (m^2-1)/12 + 2 b m).

All routines are generic over the coefficient ring: momentum components may
be Fractions or the polynomial sections used by the test-function factory,
as long as they support ring arithmetic with Fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import lcm

from .fock import FockVector, InvariantError, ModelParams, _accumulate, \
    _times, apply_oscillator, iter_level_basis, level_of
from .linalg import matrix_inverse

__all__ = [
    "DEFAULT_MODE_CAP",
    "IntegerBracketScanner",
    "LorentzMatrix",
    "Momentum",
    "cayley_lorentz",
    "lorentz_apply",
    "lorentz_momentum",
    "mass_square_apply",
    "number_apply",
    "virasoro_apply",
    "virasoro_bracket_residual",
    "virasoro_bracket_scan",
]

#: Guard against accidentally huge mode indices; configuration, not semantics.
DEFAULT_MODE_CAP = 8


class Momentum:
    """A d-component momentum with mostly-plus Minkowski products."""

    __slots__ = ("components", "_integrals")

    def __init__(self, components):
        self.components = tuple(components)
        if len(self.components) < 2:
            raise ValueError("momentum needs at least two components")
        self._integrals = {}

    @property
    def d(self) -> int:
        return len(self.components)

    def __getitem__(self, mu):
        return self.components[mu]

    def __iter__(self):
        return iter(self.components)

    def dot(self, other) -> object:
        """Minkowski product p.q = -p0 q0 + sum_i pi qi."""
        total = -(self.components[0] * other[0])
        for a, b in zip(self.components[1:], list(other)[1:]):
            total = total + a * b
        return total

    def minkowski_sq(self):
        return self.dot(self)

    def lightcone(self):
        """p^0 + p^{d-1}, the combination every DDF construction divides by."""
        return self.components[0] + self.components[-1]

    def __eq__(self, other):
        if isinstance(other, Momentum):
            return self.components == other.components
        return NotImplemented

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"Momentum{self.components!r}"


def _integral(p: Momentum, b: Fraction) -> tuple:
    """(D, P, B, P . P), kept on ``p`` per intercept ``b``: D the lcm of the
    denominators of b and of p's rational components, P = D p and B = D b,
    ints but for P's ring components, which are scaled as they are."""
    key = b.numerator, b.denominator
    if key not in p._integrals:
        den = lcm(b.denominator, *(c.denominator for c in p
                                   if isinstance(c, (int, Fraction))))
        P = Momentum(c.numerator * (den // c.denominator)
                     if isinstance(c, (int, Fraction)) else c * den for c in p)
        p._integrals[key] = (den, P.components, b.numerator * (
            den // b.denominator), P.minkowski_sq())
    return p._integrals[key]


def _two_l0(mono, den: int, B: int, p2):
    """2 D^2 L_0 on ``mono`` = P . P + 2 D (D N - B), (D, P, B, P . P) of
    :func:`_integral`: the weight of L_0's row and of the scanner's T_0."""
    return p2 + 2 * den * (den * level_of(mono) - B)


def _central(m: int, d: int, b: Fraction) -> Fraction:
    """The c-number of [L_m, L_{-m}] - 2 m L_0: d m (m^2 - 1) / 12 + 2 b m."""
    return Fraction(d * m * (m * m - 1), 12) + 2 * b * m


def _insert_pairs(out: dict, mono, lo: int, hi: int, d: int, w: int) -> None:
    """Add w :alpha_{-lo} . alpha_{-hi}: (lo <= hi), inserted into mono."""
    for mu in range(d):
        grown = list(mono)
        grown.insert(bisect_right(mono, (hi, mu)), (hi, mu))
        grown.insert(bisect_right(mono, (lo, mu)), (lo, mu))
        _accumulate(out, tuple(grown), -w if mu == 0 else w)


def _removals(mono, j: int):
    """(rest, mu, multiplicity) for each distinct factor (j, mu) of mono."""
    for pos, key in enumerate(mono):
        if key[0] == j and not (pos and mono[pos - 1] == key):
            yield mono[:pos] + mono[pos + 1:], key[1], mono.count(key)


def _creator_pairs_into(out: dict, k: int, mono, d: int, scale: int) -> dict:
    """Add scale * the two-creator pairs of :alpha_{k-n} . alpha_n: on ``mono``.

    With :func:`_contractions_into` this is the pair sum over n not in
    {0, k}, twice the oscillator part of L_k (k != 0); both add into the
    dict ``out`` (``scale`` a nonzero int or ring numerator) and return it.
    Both modes here create (k < 0, k/2 <= n < 0)."""
    for n in range(-(-k // 2), 0):
        _insert_pairs(out, mono, -n, n - k, d,
                      scale if 2 * n == k else 2 * scale)
    return out


def _contractions_into(out: dict, k: int, mono, scale: int) -> dict:
    """Add scale * the pairs of :alpha_{k-n} . alpha_n: holding an annihilator.

    The other half of :func:`_creator_pairs_into`, and the home of the
    mode-cap guard.  Each pair {n, k - n} is taken once, alpha_n (2n >= k)
    first, from one walk over the factors, so no mode beyond ``level + |k|``
    is visited.
    """
    if abs(k) > DEFAULT_MODE_CAP:
        raise ValueError(
            f"|m|={abs(k)} exceeds the mode cap {DEFAULT_MODE_CAP}")
    # alpha_n on a factor (n, mu) gives mult * n * eta, then alpha_{k-n}
    for pos, key in enumerate(mono):
        n, mu = key
        if n == k or (pos and mono[pos - 1] == key):
            continue
        rest = mono[:pos] + mono[pos + 1:]
        c, other = mono.count(key) * n, (abs(k - n), mu)
        if k < n:       # a creator; the two metric signs cancel
            i = bisect_right(rest, other)
            _accumulate(out, rest[:i] + (other,) + rest[i:], scale * (2 * c))
        elif k - n <= n and other in rest:  # a second annihilator, once
            c *= rest.count(other) * (k - n) * (1 if 2 * n == k else 2)
            i = rest.index(other)
            _accumulate(out, rest[:i] + rest[i + 1:], scale * (-c if mu == 0 else c))
    return out


def virasoro_apply(m: int, p: Momentum, v: FockVector,
                   params: ModelParams) -> FockVector:
    """Apply the constraint operator L_m at momentum ``p`` to ``v``.

    Generic over the coefficient ring.  With (D, P, B) of :func:`_integral`,
    v's numerators take the row 2 D L_m = D (pair row) + 2 P . alpha_m
    (m != 0), over 2 D times v's denominator, or the diagonal weight
    2 D^2 L_0 of :func:`_two_l0`, over 2 D^2 times it.
    """
    if params.d != p.d:
        raise ValueError(f"momentum has {p.d} components, model has d={params.d}")
    if not v:
        return FockVector.zero()
    den, P, B, p2 = _integral(p, params.b)
    if m == 0:
        return v.diagonal(lambda mono: _two_l0(mono, den, B, p2), 2 * den * den)
    out = FockVector._of({}, 2 * den * v.den)
    for mono, c in v.num.items():
        w = _times(c, den)
        _creator_pairs_into(out.num, m, mono, params.d, w)
        _contractions_into(out.num, m, mono, w)
    out._reduce()   # ring numerators fold the 2 D in before the cross terms
    # cross terms (P / D) . alpha_m; for m > 0 only the directions at mode m
    dirs = range(params.d) if m < 0 else \
        sorted({mu for mono in v.num for mode, mu in mono if mode == m})
    for mu in dirs:
        if P[mu]:
            out.add_product(apply_oscillator((m, mu), v, params), (),
                            -P[mu] if mu == 0 else P[mu], den)
    return out._reduce()


def virasoro_bracket_residual(m: int, n: int, p: Momentum, v: FockVector,
                              params: ModelParams) -> FockVector:
    """([L_m, L_n] - closure) applied to ``v``; zero iff the algebra holds."""
    lhs = (
        virasoro_apply(m, p, virasoro_apply(n, p, v, params), params)
        - virasoro_apply(n, p, virasoro_apply(m, p, v, params), params)
    )
    rhs = virasoro_apply(m + n, p, v, params).scaled(Fraction(m - n))
    if m + n == 0:
        rhs += v.scaled(_central(m, params.d, params.b))
    return lhs - rhs


def virasoro_bracket_scan(m: int, n: int, level: int, p: Momentum,
                          params: ModelParams):
    """Bracket residual for every basis monomial of the given level.

    Returns a list of (monomial, residual) pairs; the algebra holds iff every
    residual is the zero vector.  The residuals come from one
    :class:`IntegerBracketScanner`, so the fiber must be rational (else
    ``ValueError``; use :func:`virasoro_bracket_residual` there).  On the
    level's first monomial v the scan certifies, in turn, that the
    scanner's rows (L_m, L_n and, off the diagonal, L_{m+n}) equal
    :func:`virasoro_apply`; that its creator parts C_m, C_n only insert
    factors, which makes its commutator [T_m, T_n] a composition of those
    rows; and, off the diagonal, that its residual split into the cell and
    the cached responses equals the one composed from the rows, closure
    and central term included.  A failure raises
    :class:`~openstring.fock.InvariantError`.
    """
    scanner = IntegerBracketScanner(p, params)
    monos = list(iter_level_basis(params, level))
    first = monos[0]
    for k in ({m} if m == n else {m, n, m + n}):
        want = virasoro_apply(k, p, FockVector.basis_state(first), params)
        if FockVector(scanner.add_two_l({}, k, first, 1)) != want.scaled(scanner.scale):
            raise InvariantError(
                f"integer scanner disagrees with L_{k} on {first!r}")
    factors = Counter(first)
    for k in {m, n}:
        for tm in scanner.add_creators({}, k, first, 1):
            if level_of(tm) != level - k or factors - Counter(tm):
                raise InvariantError(
                    f"creator part C_{k} of the integer scanner gives "
                    f"{tm!r} on {first!r}, not a product with it")
    if m != n and scanner.residual(m, n, first) != FockVector(
            scanner.composed(m, n, first)).scaled(Fraction(1, scanner.scale ** 2)):
        raise InvariantError(f"split residual of the integer scanner disagrees "
                             f"with [T_{m}, T_{n}] less the closure on {first!r}")
    return [(mono, scanner.residual(m, n, mono)) for mono in monos]


def _integer_scan_applicable(p: Momentum, params: ModelParams) -> bool:
    # Unused by the package since every rational fiber takes the integer
    # scanner; perfbench/layers.py still calls it to name scan spans.
    return all(isinstance(x, (int, Fraction)) and x.denominator == 1
               for x in (params.b, *p.components))


class IntegerBracketScanner:
    """Bracket residuals over a rational fiber, with plain-int arithmetic.

    With D the lcm of the denominators of the momentum and the intercept,
    and P = D p, the scanner tracks T_k = 2 D^2 L_k, whose rows are integer:
    T_k = D^2 (pair row) + 2 D P . alpha_k for k != 0, and
    T_0 = P . P + 2 D^2 (N - b) (:func:`_two_l0`); a row on a monomial is
    :meth:`add_two_l` into {}.  A composed bracket then carries 4 D^4,
    which residuals divide back out on conversion to :class:`FockVector`.

    Each row splits as T_k = C_k + X_k: the creator part C_k (D^2 times
    the two-creator pairs plus the cross term, k < 0 only) and the rest.
    Creators commute, so :meth:`commutator` composes [T_m, T_n] from the
    rows, and :meth:`composed` the whole residual R = [T_m, T_n] -
    2 D^2 (m - n) T_{m+n} - 4 D^4 (central term).  R is a normal-ordered
    quadratic plus a c-number, so by Wick's theorem a residual is its
    cell, R on the vacuum, times the monomial, plus R's connected
    responses on one factor (j, mu) with j >= s = m + n, weighted by its
    multiplicity c, and on one pair (j, mu), (s - j, mu) below s, weighted
    C(c, 2) or c c'.  A response is composed once per scanner from the
    terms that contract its factors: [X_m, X_n], the contracting terms of
    [T_m, C_n] - [T_n, C_m] (:meth:`_add_bracket_contractions`) and the
    closure row X_{m+n}, less its vacuum constant.  The one cache, keyed
    (m, n, factors), holds the cell under factors ().  A diagonal cell
    (m, m) is zero without composing.  Rows are not cached: a row cache
    over five level-3 pairs at d = 26 grew past 2 GB and was slower.
    :func:`virasoro_bracket_scan` certifies what a residual uses.
    """

    def __init__(self, p: Momentum, params: ModelParams):
        if params.d != p.d:
            raise ValueError("momentum dimension does not match the model")
        for mu, c in enumerate(p.components):
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"bracket scan needs a rational fiber; "
                                 f"momentum component {mu} is {c!r}")
        self.den, self.p, self.b, self.p2 = _integral(p, params.b)
        self.d, self.scale = params.d, 2 * self.den * self.den
        self._responses = {}    # (m, n, factors) -> R's response on them

    def add_two_l(self, out: dict, k: int, mono, c: int) -> dict:
        """Add c T_k on one monomial into ``out`` (c != 0); returns ``out``."""
        self.add_creators(out, k, mono, c)
        return self.add_contractions(out, k, mono, c)

    def _add_p_alpha(self, out: dict, j: int, mono, c: int) -> None:
        """Add c P . alpha_j (j != 0) on one monomial."""
        if j > 0:
            for rest, mu, mult in _removals(mono, j):
                if self.p[mu]:
                    _accumulate(out, rest, c * self.p[mu] * mult * j)
            return
        for mu, pc in enumerate(self.p):
            if pc:
                i = bisect_right(mono, (-j, mu))
                _accumulate(out, mono[:i] + ((-j, mu),) + mono[i:],
                            -c * pc if mu == 0 else c * pc)

    def add_creators(self, out: dict, k: int, mono, c: int) -> dict:
        """Add c C_k, the pure-creator part of T_k, on one monomial."""
        if k < 0:
            _creator_pairs_into(out, k, mono, self.d, c * self.den * self.den)
            self._add_p_alpha(out, k, mono, 2 * self.den * c)
        return out

    def add_contractions(self, out: dict, k: int, mono, c: int) -> dict:
        """Add c X_k = c (T_k - C_k) on one monomial; T_0 lies here."""
        if k == 0:
            _accumulate(out, mono, c * _two_l0(mono, self.den, self.b, self.p2))
            return out
        _contractions_into(out, k, mono, c * self.den * self.den)
        if k > 0:
            self._add_p_alpha(out, k, mono, 2 * self.den * c)
        return out

    def _add_bracket_contractions(self, out: dict, n: int, m: int, mono,
                                  c: int) -> dict:
        """Add the terms of c [T_n, C_m] that contract a factor of mono.

        By [L_n, alpha_j] = -j alpha_{n+j}, [T_n, C_m] is zero for m >= 0,
        else 2 D^2 (-2 D^2 sum_{k=m+1}^{-1} k :alpha_{m-k} . alpha_{n+k}:
        - 2 D m P . alpha_{n+m}) with alpha_0 = P / D, plus a c-number when
        n + m = 0.  The terms kept here are those with k >= 1 - n, whose
        alpha_{n+k} annihilates, and P . alpha_{n+m} for n + m > 0; the
        rest insert the same factors into every monomial of a cell.
        """
        for k in range(max(m + 1, 1 - n), 0):   # empty if m >= 0
            j, wk = n + k, -4 * self.den ** 4 * k * c
            for rest, mu, mult in _removals(mono, j):   # metric signs cancel
                i = bisect_right(rest, (k - m, mu))
                _accumulate(out, rest[:i] + ((k - m, mu),) + rest[i:],
                            wk * j * mult)
        if m < 0 < n + m:
            self._add_p_alpha(out, n + m, mono, -4 * self.den ** 3 * m * c)
        return out

    def commutator(self, m: int, n: int, mono) -> dict:
        """[T_m, T_n] = 4 D^4 [L_m, L_n] on one monomial, as {monomial: int},
        composed from the rows as T_m X_n - T_n X_m + X_m C_n - X_n C_m;
        creators only insert, so C_m C_n - C_n C_m = 0 is left out."""
        out = {}
        for a, b, sign in ((m, n, 1), (n, m, -1)):
            for tm, tc in self.add_contractions({}, b, mono, sign).items():
                self.add_two_l(out, a, tm, tc)
            for tm, tc in self.add_creators({}, b, mono, sign).items():
                self.add_contractions(out, a, tm, tc)
        return out

    def composed(self, m: int, n: int, mono) -> dict:
        """4 D^4 ([L_m, L_n] - closure) on one monomial (m != n), composed
        from the rows: [T_m, T_n] - 2 D^2 (m - n) T_{m+n}, less 4 D^4 times
        the central term when m + n = 0."""
        out = self.add_two_l(self.commutator(m, n, mono), m + n, mono,
                             -self.scale * (m - n))
        if m + n == 0:
            _accumulate(out, mono, -int(self.scale ** 2 * _central(
                m, self.d, Fraction(self.b, self.den))))
        return out

    def _response(self, m: int, n: int, factors) -> dict:
        """The cell (factors ()) or R's connected response on one factor or
        one pair, composed on first use and kept."""
        slot = (m, n, factors)
        if slot not in self._responses:
            if not factors:
                out = self.composed(m, n, ())
            else:
                out, w = {}, self.scale * (m - n)
                for a, b, sign in ((m, n, 1), (n, m, -1)):
                    self._add_bracket_contractions(out, a, b, factors, sign)
                    for tm, tc in self.add_contractions({}, b, factors,
                                                        sign).items():
                        self.add_contractions(out, a, tm, tc)
                self.add_contractions(out, m + n, factors, -w)
                # less X_0's vacuum constant, which the cell holds
                _accumulate(out, factors, w * self.add_contractions(
                    {}, m + n, (), 1).get((), 0))
            self._responses[slot] = out
        return self._responses[slot]

    def residual(self, m: int, n: int, mono) -> FockVector:
        """([L_m, L_n] - closure) on a basis monomial, as a FockVector: the
        cell times the monomial plus the weighted responses of its factors
        and pairs of factors."""
        if m == n:      # the closure and central coefficients vanish
            return FockVector()
        s, out = m + n, {}
        slots = [((), mono, 1)]
        for pos, key in enumerate(mono):
            if pos and mono[pos - 1] == key:
                continue
            c, rest = mono.count(key), mono[:pos] + mono[pos + 1:]
            other = (s - key[0], key[1])
            if key[0] >= s:
                slots.append(((key,), rest, c))
            elif other >= key and other in rest:    # each pair once
                i = rest.index(other)
                slots.append(((key, other), rest[:i] + rest[i + 1:],
                              c * (c - 1) // 2 if other == key
                              else c * rest.count(other)))
        for factors, rest, w in slots:
            for tm, tc in self._response(m, n, factors).items():
                _accumulate(out, tuple(sorted(rest + tm)), w * tc)
        return FockVector._of(out, self.scale * self.scale)._reduce()


def number_apply(v: FockVector, params: ModelParams) -> FockVector:
    """Level-counting operator N (diagonal on the monomial basis)."""
    return v.diagonal(level_of)


def mass_square_apply(v: FockVector, params: ModelParams) -> FockVector:
    """M^2 = 2(N - b); together with L_0 this gives 2 L_0 = p.p + M^2."""
    b = params.b
    return v.diagonal(lambda mono: 2 * (
        b.denominator * level_of(mono) - b.numerator), b.denominator)


# -- exact Lorentz transforms ------------------------------------------------


class LorentzMatrix:
    """A d x d exact-rational matrix verified to satisfy L^T eta L = eta."""

    __slots__ = ("rows",)

    def __init__(self, rows, params: ModelParams):
        d = params.d
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError("matrix must be d x d")
        self.rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        for i in range(d):
            for j in range(i, d):
                got = sum(self.rows[k][i] * params.eta(k) * self.rows[k][j]
                          for k in range(d))
                want = params.eta(i) if i == j else 0
                if got != want:
                    raise ValueError("matrix does not preserve the metric")

    def __getitem__(self, i):
        return self.rows[i]

    def __len__(self):
        return len(self.rows)

    def __eq__(self, other):
        if isinstance(other, LorentzMatrix):
            return self.rows == other.rows
        return NotImplemented

    def __repr__(self):
        return f"LorentzMatrix({self.rows!r})"


def cayley_lorentz(seed, params: ModelParams) -> LorentzMatrix:
    """Rational Lorentz matrix from an antisymmetric rational seed.

    With eta the mostly-plus metric and X = eta S for antisymmetric S, the
    Cayley transform (I - X)(I + X)^{-1} satisfies L^T eta L = eta exactly.
    Raises ValueError if I + X is singular or the seed is not antisymmetric.
    """
    d = params.d
    if len(seed) != d or any(len(row) != d for row in seed):
        raise ValueError("seed must be a d x d matrix")
    for i in range(d):
        for j in range(d):
            if Fraction(seed[i][j]) != -Fraction(seed[j][i]):
                raise ValueError("seed must be antisymmetric")
    x = [[params.eta(i) * Fraction(seed[i][j]) for j in range(d)] for i in range(d)]
    i_minus = [[Fraction(i == j) - x[i][j] for j in range(d)] for i in range(d)]
    i_plus = [[Fraction(i == j) + x[i][j] for j in range(d)] for i in range(d)]
    inv = matrix_inverse(i_plus)
    lam = [[sum(i_minus[i][k] * inv[k][j] for k in range(d))
            for j in range(d)] for i in range(d)]
    return LorentzMatrix(lam, params)


def lorentz_momentum(lam, p: Momentum) -> Momentum:
    d = p.d
    return Momentum(tuple(sum(lam[nu][mu] * p[mu] for mu in range(d))
                          for nu in range(d)))


def lorentz_apply(lam, v: FockVector, params: ModelParams) -> FockVector:
    """Unitary image of ``v`` under the Lorentz matrix ``lam``.

    Oscillator labels are *basis* indices, so they pick up the contragradient
    matrix eta lam eta = (lam^{-1})^T; this is exactly what makes
    ``lorentz_apply(lam, zeta . alpha_{-1} vac) == (lam zeta) . alpha_{-1} vac``
    and hence L_m covariant alongside :func:`lorentz_momentum`.

    Non-Lorentz matrices are rejected (the metric check runs on construction
    of :class:`LorentzMatrix`; raw rows are validated here).
    """
    if not isinstance(lam, LorentzMatrix):
        lam = LorentzMatrix(lam, params)
    ent = [[params.eta(nu) * params.eta(mu) * x for mu, x in enumerate(row)]
           for nu, row in enumerate(lam.rows)]
    out = FockVector()
    for mono, coeff in v.items():
        partial = [(coeff, ())]
        for mode, mu in mono:
            partial = [(c * ent[nu][mu], factors + ((mode, nu),))
                       for c, factors in partial
                       for nu in range(params.d) if ent[nu][mu]]
        for c, factors in partial:
            out.add_term(tuple(sorted(factors)), c)
    return out._reduce()
