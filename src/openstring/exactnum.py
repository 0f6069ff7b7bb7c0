"""Exact rational square roots.

Every exact scalar in the package is a :class:`fractions.Fraction` or a
polynomial section of :mod:`openstring.poly`; no irrational number is
ever represented.  Shell momenta are built from rational
parametrizations of the quadric, so the one square root they need is
the root of a rational square, taken here exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

__all__ = ["sqrt_fraction"]


def sqrt_fraction(q) -> Fraction:
    """The nonnegative rational root of a rational square; any other
    argument (negative, or not a square in Q) raises ``ValueError``."""
    q = Fraction(q)
    if q < 0:
        raise ValueError(f"sqrt_fraction needs a nonnegative argument, got {q}")
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        raise ValueError(f"{q} is not the square of a rational")
    return Fraction(n, d)
