"""Sparse exact polynomials in the momentum components, plus the one
rational extension the oscillator construction needs.

``Poly`` is a multivariate polynomial over Fraction in the d variables
p^0..p^{d-1}.  ``LcRational`` adjoins the inverse of the lightcone
combination w = p^0 + p^{d-1}: every coefficient produced by running the
oscillator machinery at a symbolic momentum has the shape q(p)/w^gamma,
because w is the only thing the construction ever divides by.  It is kept
as one Laurent polynomial in the lightcone coordinates (w, p^1, ...,
p^{d-1}), where the exponent of w may be negative.  That form is unique,
so sums, products and equality are Poly's own, gamma is read off the
lowest power of w, and a global w^gamma prefactor clears all denominators
at once.

Division is deliberately *not* closed: only ``scalar / LcRational`` with a
pure w-power argument is defined, precisely the shape k^0 = kappa / w
needs.  Everything else raises, so an unexpected denominator cannot creep
in silently.

The two structural rewrites used by the verification layers:

* ``flip_spatial``: p^i -> -p^i for all spatial i, the momentum half of
  the reality involution;
* ``reduce_shell(r)``: eliminate (p^0)^2 via (p^0)^2 = |vec p|^2 + r, the
  on-shell normal form that turns mass-shell identities into literal
  polynomial cancellations.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, mul, sub

from .fiber import Momentum

__all__ = ["LcRational", "Poly", "sym_momentum"]


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"polynomial coefficients are exact rationals, got {type(c)!r}")


class Poly:
    """Immutable sparse polynomial; keys are exponent tuples of length d."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms=None):
        self.d = d
        clean = {}
        if terms:
            for exps, c in terms.items():
                c = _as_fraction(c)
                if c:
                    clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, d: int, c) -> "Poly":
        return cls(d, {(0,) * d: _as_fraction(c)})

    @classmethod
    def variable(cls, d: int, mu: int) -> "Poly":
        exps = [0] * d
        exps[mu] = 1
        return cls(d, {tuple(exps): Fraction(1)})

    @classmethod
    def lightcone(cls, d: int) -> "Poly":
        return cls.variable(d, 0) + cls.variable(d, d - 1)

    # -- ring structure -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.d == other.d and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.d, other)
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes like that scalar
        if not any(map(any, self.terms)):
            return hash(self.terms.get((0,) * self.d, 0))
        return hash((self.d, frozenset(self.terms.items())))

    def __neg__(self):
        return Poly(self.d, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.d, other)
        if not isinstance(other, Poly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.d, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.const(self.d, -_as_fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return Poly(self.d)
            return Poly(self.d, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.d, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        out = Poly.const(self.d, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- queries ----------------------------------------------------------

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, mu: int) -> int:
        return max((e[mu] for e in self.terms), default=0)

    def evaluate(self, point):
        """Plug in a momentum; exact for exact components, float for floats."""
        total = None
        for exps, c in self.terms.items():
            term = c
            for mu, e in enumerate(exps):
                for _ in range(e):
                    term = term * point[mu]
            total = term if total is None else total + term
        return Fraction(0) if total is None else total

    # -- structural rewrites ----------------------------------------------

    def flip_spatial(self) -> "Poly":
        out = {}
        for exps, c in self.terms.items():
            sign = -1 if sum(exps[1:]) % 2 else 1
            out[exps] = sign * c
        return Poly(self.d, out)

    def reduce_shell(self, r) -> "Poly":
        """Normal form modulo (p^0)^2 - |vec p|^2 - r; p^0-degree <= 1.

        One pass: c (p^0)^(2j+e) rest becomes c (p^0)^e rest s^j with
        s = |vec p|^2 + r, and each power of s is built once.
        """
        s = sum((Poly.variable(self.d, i) ** 2 for i in range(1, self.d)),
                Poly.const(self.d, r))
        powers = [Poly.const(self.d, 1)]
        out = {}
        for exps, c in self.terms.items():
            j, e = divmod(exps[0], 2)
            while len(powers) <= j:
                powers.append(powers[-1] * s)
            for es, cs in powers[j].terms.items():
                key = (e,) + tuple(map(add, exps[1:], es[1:]))
                out[key] = out.get(key, 0) + c * cs
        return Poly(self.d, out)

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for exps, c in sorted(self.terms.items()):
            mono = "*".join(
                f"p{mu}" + (f"^{e}" if e > 1 else "")
                for mu, e in enumerate(exps) if e
            )
            bits.append(f"{c}{'*' + mono if mono else ''}")
        return "Poly(" + " + ".join(bits) + ")"


def _shear(q: Poly, sign: int) -> Poly:
    """q with x^0 -> x^0 + sign * x^{d-1}.

    sign = -1 rewrites a polynomial in p in the lightcone coordinates
    (w, p^1, ..., p^{d-1}), since p^0 = w - p^{d-1}; sign = +1 rewrites it
    back, since w = p^0 + p^{d-1}.  The exponent of x^0 must be
    nonnegative.
    """
    out = {}
    for exps, c in q.terms.items():
        a, mid, b = exps[0], exps[1:-1], exps[-1]
        for k in range(a + 1):
            e = (a - k,) + mid + (b + k,)
            out[e] = out.get(e, 0) + c * comb(a, k) * sign ** k
    return Poly(q.d, out)


def _w_power(d: int, e: int) -> Poly:
    """w^e in the lightcone coordinates, for any integer e."""
    return Poly(d, {(e,) + (0,) * (d - 1): 1})


class LcRational:
    """q(p) / w^gamma with w = p^0 + p^{d-1}, stored as its unique Laurent
    polynomial ``_lc`` in the lightcone coordinates (w, p^1, ..., p^{d-1})."""

    __slots__ = ("_lc",)

    def __init__(self, num: Poly, gamma: int = 0):
        if gamma < 0:
            raise ValueError("denominator exponent must be nonnegative")
        self._lc = _shear(num, -1) * _w_power(num.d, -gamma)

    @classmethod
    def _laurent(cls, lc: Poly) -> "LcRational":
        """The section whose Laurent polynomial is ``lc``."""
        out = cls.__new__(cls)
        out._lc = lc
        return out

    @property
    def d(self) -> int:
        return self._lc.d

    @property
    def gamma(self) -> int:
        """The least power of w that clears the denominator."""
        return max(0, -min((e[0] for e in self._lc.terms), default=0))

    @property
    def num(self) -> Poly:
        """The numerator over w^gamma, in p coordinates."""
        return self.cleared(self.gamma)

    def __bool__(self):
        return bool(self._lc)

    def _coerce(self, other):
        """other as an operand of ``_lc``'s Poly arithmetic, or None."""
        if isinstance(other, LcRational):
            return other._lc
        if isinstance(other, Poly):
            return _shear(other, -1)
        if isinstance(other, (int, Fraction)):
            return other
        return None

    def _lifted(self, other, op):
        o = self._coerce(other)
        return NotImplemented if o is None else self._laurent(op(self._lc, o))

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._lc == o

    def __hash__(self):
        # at gamma = 0 the section equals the Poly ``num``, so it hashes
        # like it; a section with a denominator equals no Poly or scalar
        return hash(self._lc if self.gamma else self.num)

    def __neg__(self):
        return LcRational._laurent(-self._lc)

    def __add__(self, other):
        return self._lifted(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._lifted(other, sub)

    def __rsub__(self, other):
        return self._lifted(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._lifted(other, mul)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """scalar / self, defined only when self is c * w^j exactly."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not self:
            raise ZeroDivisionError("division by the zero section")
        exps, c = next(iter(self._lc.terms.items()))
        if len(self._lc.terms) != 1 or any(exps[1:]):
            raise TypeError(
                "only pure lightcone powers can be inverted in this ring"
            )
        return LcRational._laurent(_w_power(self.d, -exps[0]) * (other / c))

    def evaluate(self, point):
        w = point[0] + point[self.d - 1]
        if not w:
            raise ZeroDivisionError("lightcone combination vanishes at the point")
        val = self.num.evaluate(point)
        for _ in range(self.gamma):
            val = val / w
        return val

    def cleared(self, gamma: int) -> Poly:
        """num * w^(gamma - self.gamma): the coefficient after a global
        w^gamma prefactor absorbs the denominator."""
        if gamma < self.gamma:
            raise ValueError(
                f"prefactor power {gamma} below denominator power {self.gamma}"
            )
        return _shear(self._lc * _w_power(self.d, gamma), 1)

    def __repr__(self):
        if self.gamma:
            return f"LcRational({self.num!r}, w^-{self.gamma})"
        return f"LcRational({self.num!r})"


def sym_momentum(d: int):
    """The momentum with symbolic components, as LcRational sections."""
    return Momentum(tuple(LcRational(Poly.variable(d, mu)) for mu in range(d)))
