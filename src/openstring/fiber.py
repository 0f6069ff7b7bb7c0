"""Virasoro constraint operators on a fixed-momentum Fock fiber.

Conventions.  ``L_0`` is the shifted generator ``p.p/2 + N - b`` where ``N``
counts oscillator level and ``b`` is the intercept from
:class:`~openstring.fock.ModelParams`; the physical-state condition is then
plainly ``L_m psi = 0`` for ``m >= 0``.  For ``m != 0``,

    L_m = p . alpha_m + (1/2) sum_{n not in {0, m}} :alpha_{m-n} . alpha_n:

with zero modes replaced by the momentum.  Acting on a state of finite level
only finitely many summands survive (modes up to ``level + |m|``), so every
operator application here is exact.  The oscillator pairs are written once,
in integers, per monomial; :func:`virasoro_apply` scales them by the ring's
coefficients and :class:`IntegerBracketScanner` keeps them as integer rows.

With the shifted ``L_0`` the algebra closes as

    [L_m, L_n] = (m - n) L_{m+n} + delta_{m+n} (d m (m^2-1)/12 + 2 b m).

All routines are generic over the coefficient ring: momentum components may
be Fractions, ExactNums, or the polynomial sections used by the test-function
factory, as long as they support ring arithmetic with Fraction.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import lcm

from .fock import FockVector, ModelParams, apply_oscillator, \
    iter_level_basis, level_of

__all__ = [
    "DEFAULT_MODE_CAP",
    "FiberVector",
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

_HALF = Fraction(1, 2)

#: Guard against accidentally huge mode indices; configuration, not semantics.
DEFAULT_MODE_CAP = 8


class Momentum:
    """A d-component momentum with mostly-plus Minkowski products."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)
        if len(self.components) < 2:
            raise ValueError("momentum needs at least two components")

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


class FiberVector:
    """A state ``vec`` living in the Fock fiber over momentum ``p``."""

    __slots__ = ("p", "vec")

    def __init__(self, p: Momentum, vec: FockVector):
        self.p = p
        self.vec = vec

    def virasoro(self, m: int, params: ModelParams) -> "FiberVector":
        return FiberVector(self.p, virasoro_apply(m, self.p, self.vec, params))

    def mass_square(self, params: ModelParams) -> "FiberVector":
        return FiberVector(self.p, mass_square_apply(self.vec, params))

    def number(self, params: ModelParams) -> "FiberVector":
        return FiberVector(self.p, number_apply(self.vec, params))

    def __eq__(self, other):
        if isinstance(other, FiberVector):
            return self.p == other.p and self.vec == other.vec
        return NotImplemented

    def __repr__(self):
        return f"FiberVector(p={self.p!r}, vec={self.vec!r})"


def _osc(mode: int, mu: int, mono):
    """alpha^mu_mode on a monomial: (new_mono, int factor) or None."""
    if mode < 0:
        key = (-mode, mu)
        pos = bisect_right(mono, key)
        return mono[:pos] + (key,) + mono[pos:], 1
    key = (mode, mu)
    mult = mono.count(key)
    if not mult:
        return None
    pos = mono.index(key)
    return mono[:pos] + mono[pos + 1:], mult * mode * (-1 if mu == 0 else 1)


def _accumulate(out: dict, mono, c) -> None:
    new = out.get(mono, 0) + c
    if new:
        out[mono] = new
    elif mono in out:
        del out[mono]


def _pair_row(k: int, mono, d: int) -> dict:
    """sum_{n not in {0, k}} :alpha_{k-n} . alpha_n: on one monomial.

    This is twice the oscillator part of L_k (k != 0), returned as
    {monomial: int}, and the one place the pair sum is written down.  Each
    unordered pair {n, k - n} is visited once, with the annihilator alpha_n
    (2n >= k) applied first; modes beyond ``level + |k|`` cannot contribute.
    """
    if abs(k) > DEFAULT_MODE_CAP:
        raise ValueError(
            f"|m|={abs(k)} exceeds the mode cap {DEFAULT_MODE_CAP}")
    ell = level_of(mono)
    bound = ell + abs(k)
    out: dict = {}
    for n in range(-bound, bound + 1):
        if n == 0 or n == k or 2 * n < k:
            continue
        if n > ell:
            break  # annihilator beyond the top level; larger n only worse
        base = 1 if 2 * n == k else 2
        dirs = sorted({mu for mode, mu in mono if mode == n}) if n > 0 \
            else range(d)
        for mu in dirs:
            hit1 = _osc(n, mu, mono)
            if hit1 is None:
                continue
            hit2 = _osc(k - n, mu, hit1[0])
            if hit2 is None:
                continue
            tm = hit2[0]
            new = out.get(tm, 0) + base * (-1 if mu == 0 else 1) \
                * hit1[1] * hit2[1]
            if new:
                out[tm] = new
            else:
                del out[tm]
    return out


def virasoro_apply(m: int, p: Momentum, v: FockVector,
                   params: ModelParams) -> FockVector:
    """Apply the constraint operator L_m at momentum ``p`` to ``v``.

    Generic over the coefficient ring: each monomial's integer pair row is
    scaled by half its coefficient, and p . alpha_m by the momentum.
    """
    if params.d != p.d:
        raise ValueError(f"momentum has {p.d} components, model has d={params.d}")
    if not v:
        return FockVector.zero()
    out = FockVector.zero()
    if m == 0:
        half_p2 = p.minkowski_sq() * _HALF
        for mono, coeff in v.items():
            out.add_term(mono, coeff * (half_p2 + (level_of(mono) - params.b)))
        return out
    for mono, coeff in v.items():
        half = coeff * _HALF
        for tm, c in _pair_row(m, mono, params.d).items():
            out.add_term(tm, half * c)
    # zero-mode cross terms: p . alpha_m; an annihilator only sees the
    # directions present at mode m
    dirs = range(params.d) if m < 0 else \
        sorted({mu for mono in v.terms for mode, mu in mono if mode == m})
    for mu in dirs:
        c = p.components[mu]
        if c:
            scale = -c if mu == 0 else c
            for tm, w in apply_oscillator((m, mu), v, params).items():
                out.add_term(tm, w * scale)
    return out


def virasoro_bracket_residual(m: int, n: int, p: Momentum, v: FockVector,
                              params: ModelParams) -> FockVector:
    """([L_m, L_n] - closure) applied to ``v``; zero iff the algebra holds."""
    lhs = (
        virasoro_apply(m, p, virasoro_apply(n, p, v, params), params)
        - virasoro_apply(n, p, virasoro_apply(m, p, v, params), params)
    )
    rhs = virasoro_apply(m + n, p, v, params).scaled(Fraction(m - n))
    if m + n == 0:
        anomaly = Fraction(params.d * m * (m * m - 1), 12) + 2 * params.b * m
        rhs += v.scaled(anomaly)
    return lhs - rhs


def virasoro_bracket_scan(m: int, n: int, level: int, p: Momentum,
                          params: ModelParams):
    """Bracket residual for every basis monomial of the given level.

    Returns a list of (monomial, residual) pairs; the algebra holds iff every
    residual is the zero vector.  The residuals come from one
    :class:`IntegerBracketScanner`, so the momentum and the intercept must
    be rational (a surd or symbolic fiber raises ``ValueError``; use
    :func:`virasoro_bracket_residual` there).  As a certificate of the
    scanner's cleared denominators, its rows for L_m and L_n on the level's
    first monomial are checked against :func:`virasoro_apply`; a mismatch
    raises :class:`~openstring.spectrum.InvariantError`.
    """
    scanner = IntegerBracketScanner(p, params)
    monos = list(iter_level_basis(params, level))
    for k in {m, n}:
        want = virasoro_apply(k, p, FockVector.basis_state(monos[0]), params)
        if FockVector(scanner.two_l(k, monos[0])) != want.scaled(scanner.scale):
            from .spectrum import InvariantError

            raise InvariantError(
                f"integer scanner disagrees with L_{k} on {monos[0]!r}")
    return [(mono, scanner.residual(m, n, mono)) for mono in monos]


def _as_int(value):
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return None


def _integer_scan_applicable(p: Momentum, params: ModelParams) -> bool:
    # Unused by the package since every rational fiber takes the integer
    # scanner; perfbench/layers.py still calls it to name scan spans.
    if _as_int(params.b) is None:
        return False
    return all(_as_int(c) is not None for c in p.components)


class IntegerBracketScanner:
    """Bracket residuals over a rational fiber, with plain-int arithmetic.

    With D the lcm of the denominators of the momentum and the intercept,
    and P = D p, the scanner tracks T_k = 2 D^2 L_k, whose rows are integer:
    T_k = D^2 (pair row) + 2 D P . alpha_k for k != 0, and
    T_0 = P . P + 2 D^2 (N - b).  A composed bracket then carries 4 D^4,
    which residuals divide back out on conversion to :class:`FockVector`.

    The oscillator pairs come from the same function as in
    :func:`virasoro_apply`; the scanner skips the ring arithmetic, so the
    full acceptance grid (all mode pairs, every basis state of level <= 3,
    d = 26) fits in a test-suite runtime budget.  Rows are not cached:
    intermediate monomials are seldom revisited, and a row cache kept over
    five level-3 mode pairs at d = 26 grew past 2 GB and made them slower.
    """

    def __init__(self, p: Momentum, params: ModelParams):
        if params.d != p.d:
            raise ValueError("momentum dimension does not match the model")
        for mu, c in enumerate(p.components):
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"bracket scan needs a rational fiber; "
                                 f"momentum component {mu} is {c!r}")
        den = lcm(params.b.denominator,
                  *(Fraction(c).denominator for c in p.components))
        self.d = params.d
        self.den = den
        self.scale = 2 * den * den
        self.p = tuple(int(c * den) for c in p.components)    # P = D p
        self.b = int(params.b * den)                          # D b
        self.p2 = -self.p[0] * self.p[0] + sum(c * c for c in self.p[1:])

    def two_l(self, k: int, mono) -> dict:
        """T_k = 2 D^2 L_k on one monomial, as {monomial: int}."""
        if k == 0:
            t0 = self.p2 + 2 * self.den * (self.den * level_of(mono) - self.b)
            out = {mono: t0} if t0 else {}
        else:
            out = _pair_row(k, mono, self.d)
            if self.den != 1:
                sq = self.den * self.den
                out = {tm: sq * c for tm, c in out.items()}
            for mu, pc in enumerate(self.p):
                if pc:
                    hit1 = _osc(k, mu, mono)
                    if hit1 is not None:
                        _accumulate(out, hit1[0], 2 * self.den
                                    * (-pc if mu == 0 else pc) * hit1[1])
        return out

    def two_l_vec(self, k: int, vec: dict) -> dict:
        out: dict = {}
        for mono, c in vec.items():
            for tm, tc in self.two_l(k, mono).items():
                new = out.get(tm, 0) + c * tc
                if new:
                    out[tm] = new
                else:
                    del out[tm]
        return out

    def residual(self, m: int, n: int, mono) -> FockVector:
        """([L_m, L_n] - closure) on a basis monomial, as a FockVector."""
        lhs = self.two_l_vec(m, self.two_l(n, mono))
        for tm, tc in self.two_l_vec(n, self.two_l(m, mono)).items():
            _accumulate(lhs, tm, -tc)
        scale = self.scale * (m - n)
        if scale:
            for tm, tc in self.two_l(m + n, mono).items():
                _accumulate(lhs, tm, -scale * tc)
        if m + n == 0:
            # 4 D^4 (d m (m^2 - 1) / 12 + 2 b m)
            _accumulate(lhs, mono, -self.den ** 3 * (
                self.den * (self.d * m * (m * m - 1) // 3) + 8 * m * self.b))
        return FockVector({tm: Fraction(tc, self.scale * self.scale)
                           for tm, tc in lhs.items()})


def number_apply(v: FockVector, params: ModelParams) -> FockVector:
    """Level-counting operator N (diagonal on the monomial basis)."""
    out = FockVector.zero()
    for mono, coeff in v.items():
        if mono:
            out.add_term(mono, coeff * level_of(mono))
    return out


def mass_square_apply(v: FockVector, params: ModelParams) -> FockVector:
    """M^2 = 2(N - b); together with L_0 this gives 2 L_0 = p.p + M^2."""
    out = FockVector.zero()
    for mono, coeff in v.items():
        out.add_term(mono, coeff * (2 * (level_of(mono) - params.b)))
    return out


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
                got = sum(
                    self.rows[k][i] * params.eta(k) * self.rows[k][j]
                    for k in range(d)
                )
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
    from .linalg import matrix_inverse

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
    lam = [
        [sum(i_minus[i][k] * inv[k][j] for k in range(d)) for j in range(d)]
        for i in range(d)
    ]
    return LorentzMatrix(lam, params)


def _as_lorentz(lam, params: ModelParams) -> LorentzMatrix:
    if isinstance(lam, LorentzMatrix):
        return lam
    return LorentzMatrix(lam, params)


def lorentz_momentum(lam, p: Momentum) -> Momentum:
    d = p.d
    return Momentum(
        tuple(sum(lam[nu][mu] * p[mu] for mu in range(d)) for nu in range(d))
    )


def lorentz_apply(lam, v: FockVector, params: ModelParams) -> FockVector:
    """Unitary image of ``v`` under the Lorentz matrix ``lam``.

    Oscillator labels are *basis* indices, so they pick up the contragradient
    matrix eta lam eta = (lam^{-1})^T; this is exactly what makes
    ``lorentz_apply(lam, zeta . alpha_{-1} vac) == (lam zeta) . alpha_{-1} vac``
    and hence L_m covariant alongside :func:`lorentz_momentum`.

    Non-Lorentz matrices are rejected (the metric check runs on construction
    of :class:`LorentzMatrix`; raw rows are validated here).
    """
    lam = _as_lorentz(lam, params)
    d = params.d
    out = FockVector.zero()
    for mono, coeff in v.items():
        partial = [(coeff, ())]
        for mode, mu in mono:
            grown = []
            for c, factors in partial:
                for nu in range(d):
                    entry = params.eta(nu) * lam[nu][mu] * params.eta(mu)
                    if entry:
                        grown.append((c * entry, factors + ((mode, nu),)))
            partial = grown
        for c, factors in partial:
            out.add_term(tuple(sorted(factors)), c)
    return out
