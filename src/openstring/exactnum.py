"""Exact scalar arithmetic over Q(i, sqrt(s)).

Every coefficient that enters the operator algebra is either a plain
:class:`fractions.Fraction` (the common, fast case) or an :class:`ExactNum`,
which represents

    a + b*i + (c + d*i)*sqrt(s)

with rational a, b, c, d and a fixed nonnegative integer radicand s.  The
radicand is squarefree after normalisation, so the representation is unique;
s = 0 means no radical part.  Two ExactNums with different nonzero radicands
cannot be combined -- the radicand is fixed per computation context.

Plain Fractions interoperate transparently: Fraction + ExactNum promotes via
the reflected dunder methods, and all helpers below (``conjugate``,
``real_sign``, ``as_complex``...) accept either type.  No floating point
enters any of the exact routines; ``as_complex`` is the single bridge to
numerics.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = [
    "ExactNum",
    "as_complex",
    "conjugate",
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
    """Element a + b*i + (c + d*i)*sqrt(s) of Q(i, sqrt(s))."""

    __slots__ = ("a", "b", "c", "d", "s")

    def __init__(self, a=0, b=0, c=0, d=0, s=0):
        a, b, c, d = (Fraction(x) for x in (a, b, c, d))
        s = int(s)
        if c == 0 and d == 0:
            s = 0
        elif s == 0:
            c = d = Fraction(0)
        else:
            k, m = _squarefree(s)
            if m <= 1:
                # sqrt(s) is the integer k (m==1) or 0; fold into the
                # rational part.
                a += c * k * m
                b += d * k * m
                c = d = Fraction(0)
                s = 0
            else:
                c *= k
                d *= k
                s = m
        self.a, self.b, self.c, self.d, self.s = a, b, c, d, s

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
        return ExactNum(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d, s)

    __radd__ = __add__

    def __neg__(self):
        return ExactNum(-self.a, -self.b, -self.c, -self.d, self.s)

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
        # (z1 + w1*r)(z2 + w2*r) = z1*z2 + s*w1*w2 + (z1*w2 + w1*z2)*r
        # with Gaussian parts z = (a, b), w = (c, d).
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        ra = a1 * a2 - b1 * b2 + s * (c1 * c2 - d1 * d2)
        rb = a1 * b2 + b1 * a2 + s * (c1 * d2 + d1 * c2)
        rc = a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2
        rd = a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2
        return ExactNum(ra, rb, rc, rd, s)

    __rmul__ = __mul__

    def inverse(self) -> "ExactNum":
        if not self:
            raise ZeroDivisionError("ExactNum division by zero")
        # x = z + w*sqrt(s); x * (z - w*sqrt(s)) = z^2 - s*w^2 (Gaussian).
        z = ExactNum(self.a, self.b)
        w = ExactNum(self.c, self.d)
        u = z * z - self.s * w * w
        # Gaussian inverse of u = ua + ub*i.
        n = u.a * u.a + u.b * u.b
        uinv = ExactNum(u.a / n, -u.b / n)
        flip = ExactNum(self.a, self.b, -self.c, -self.d, self.s)
        return flip * uinv

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

    def conjugate(self) -> "ExactNum":
        return ExactNum(self.a, -self.b, self.c, -self.d, self.s)

    @property
    def is_real(self) -> bool:
        return self.b == 0 and self.d == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0 and self.c == 0 and self.d == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return self.a

    def real_sign(self) -> int:
        """Exact sign of a real element a + c*sqrt(s)."""
        if not self.is_real:
            raise ValueError(f"sign of non-real element {self!r}")
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
        return bool(self.a or self.b or self.c or self.d)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.s and o.s and self.s != o.s:
            return False
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d, self.s))

    def __complex__(self):
        r = self.s ** 0.5
        return complex(self.a + self.c * r, self.b + self.d * r)

    def __repr__(self):
        parts = []
        if self.a or not self:
            parts.append(str(self.a))
        if self.b:
            parts.append(f"{self.b}*i")
        if self.c:
            parts.append(f"{self.c}*sqrt({self.s})")
        if self.d:
            parts.append(f"{self.d}*i*sqrt({self.s})")
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
    return ExactNum(0, 0, Fraction(k, q.denominator), 0, m)


def conjugate(x):
    """Complex conjugate for Fraction | int | ExactNum."""
    if isinstance(x, _RAT):
        return x
    return x.conjugate()


def real_sign(x) -> int:
    """Exact sign of a real scalar (Fraction | int | real ExactNum)."""
    if isinstance(x, _RAT):
        return (x > 0) - (x < 0)
    return x.real_sign()


def is_rational_real(x) -> bool:
    if isinstance(x, _RAT):
        return True
    return x.is_rational


def as_complex(x) -> complex:
    """The one bridge from exact scalars to floating point."""
    return complex(x)
