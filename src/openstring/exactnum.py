"""Exact real scalar arithmetic over Q(sqrt(s)).

Every coefficient that enters the operator algebra is either a plain
:class:`fractions.Fraction` (the common, fast case) or an :class:`ExactNum`,
which represents

    a + c*sqrt(s)

with rational a, c and a fixed nonnegative integer radicand s.  The
radicand is squarefree after normalisation, so the representation is unique;
s = 0 means no radical part.  Two ExactNums with different nonzero radicands
cannot be combined -- the radicand is fixed per computation context.

The field is real on purpose: the local observables are smeared with real
test functions, and the no-ghost step needs only the inertia of a real
symmetric form, so no exact i is ever needed.

Plain Fractions interoperate transparently: Fraction + ExactNum promotes via
the reflected dunder methods, and the helpers below (``real_sign``,
``is_rational_real``) accept either type.  No floating point enters any of
the exact routines.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "ExactNum",
    "is_rational_real",
    "real_sign",
    "sqrt_fraction",
]

_RAT = (int, Fraction)


def _squarefree(n: int) -> tuple[int, int]:
    """Split n >= 0 as k*k * m with m squarefree; returns (k, m)."""
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    k, m, f = 1, n, 2
    while f * f <= m:
        ff = f * f
        while m % ff == 0:
            m //= ff
            k *= f
        f += 1
    return k, m


class ExactNum:
    """Element a + c*sqrt(s) of Q(sqrt(s))."""

    __slots__ = ("a", "c", "s")

    def __init__(self, a=0, c=0, s=0):
        a, c = Fraction(a), Fraction(c)
        s = int(s)
        if c == 0:
            s = 0
        elif s == 0:
            c = Fraction(0)
        else:
            k, m = _squarefree(s)
            if m <= 1:
                # sqrt(s) is the integer k (m==1) or 0; fold into the
                # rational part.
                a += c * k * m
                c = Fraction(0)
                s = 0
            else:
                c *= k
                s = m
        self.a, self.c, self.s = a, c, s

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ExactNum):
            return x
        if isinstance(x, _RAT):
            return ExactNum(x)
        return None

    def _join(self, other: "ExactNum") -> int:
        """Common radicand of two operands (0 merges with anything)."""
        if self.s and other.s and self.s != other.s:
            raise ValueError(
                f"incompatible radicands {self.s} and {other.s}; "
                "the radicand is fixed per computation context"
            )
        return self.s or other.s

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self._join(o)
        return ExactNum(self.a + o.a, self.c + o.c, s)

    __radd__ = __add__

    def __neg__(self):
        return ExactNum(-self.a, -self.c, self.s)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s = self._join(o)
        # (a1 + c1*r)(a2 + c2*r) = a1*a2 + s*c1*c2 + (a1*c2 + c1*a2)*r
        return ExactNum(self.a * o.a + s * self.c * o.c,
                        self.a * o.c + self.c * o.a, s)

    __rmul__ = __mul__

    def inverse(self) -> "ExactNum":
        if not self:
            raise ZeroDivisionError("ExactNum division by zero")
        # (a + c*sqrt(s)) (a - c*sqrt(s)) = a^2 - s*c^2, a nonzero rational
        # because sqrt(s) is irrational whenever c != 0.
        n = self.a * self.a - self.s * self.c * self.c
        return ExactNum(self.a / n, -self.c / n, self.s)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- structure -------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.c == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return self.a

    def real_sign(self) -> int:
        """Exact sign of a + c*sqrt(s)."""
        a, c, s = self.a, self.c, self.s
        if c == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if c > 0 else -1
        if a > 0 and c > 0:
            return 1
        if a < 0 and c < 0:
            return -1
        # opposite signs: compare a^2 with c^2 * s
        lhs, rhs = a * a, c * c * s
        if lhs == rhs:
            return 0
        big_is_a = lhs > rhs
        return (1 if a > 0 else -1) if big_is_a else (1 if c > 0 else -1)

    def __bool__(self):
        return bool(self.a or self.c)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.s and o.s and self.s != o.s:
            return False
        return (self.a, self.c) == (o.a, o.c)

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.c, self.s))

    def __repr__(self):
        parts = []
        if self.a or not self:
            parts.append(str(self.a))
        if self.c:
            parts.append(f"{self.c}*sqrt({self.s})")
        return " + ".join(parts)


def sqrt_fraction(q) -> Fraction | ExactNum:
    """Exact square root of a nonnegative rational.

    Returns a Fraction when q is a perfect square of a rational, otherwise
    an ExactNum with a squarefree radicand: sqrt(p/q) = sqrt(p*q)/q.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt_fraction needs a nonnegative argument")
    if q == 0:
        return Fraction(0)
    n = q.numerator * q.denominator
    k, m = _squarefree(n)
    if m == 1:
        return Fraction(k, q.denominator)
    return ExactNum(0, Fraction(k, q.denominator), m)


def real_sign(x) -> int:
    """Exact sign of a scalar (Fraction | int | ExactNum)."""
    if isinstance(x, _RAT):
        return (x > 0) - (x < 0)
    return x.real_sign()


def is_rational_real(x) -> bool:
    if isinstance(x, _RAT):
        return True
    return x.is_rational
