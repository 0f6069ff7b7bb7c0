"""Counting oracles the benchmark checks the program's outputs against.

They are computed here by a route the package does not use: the level
dimensions of d free bosons come from Euler's divisor-sum recurrence for
prod_n (1 - q^n)^(-d), not from series convolution or basis enumeration.
"""

from __future__ import annotations

from fractions import Fraction


def _divisor_sum(k: int) -> int:
    return sum(j for j in range(1, k + 1) if k % j == 0)


def boson_levels(d: int, max_level: int) -> list:
    """Coefficients a_0..a_max_level of prod_{n>=1} (1 - q^n)^(-d).

    From q F'(q) / F(q) = d sum_k sigma(k) q^k, so that
    n a_n = d sum_{k=1}^{n} sigma(k) a_{n-k}.
    """
    if d < 0 or max_level < 0:
        raise ValueError("need d >= 0 and max_level >= 0")
    a = [1]
    for n in range(1, max_level + 1):
        total = d * sum(_divisor_sum(k) * a[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError("divisor-sum recurrence left a remainder")
        a.append(total // n)
    return a


def transverse_count(d: int, level: int) -> int:
    """Number of states of the d - 2 transverse oscillators at ``level``:
    by the no-ghost theorem, the positive-norm physical count at d = 26."""
    return boson_levels(d - 2, level)[level]


def central_term(d: int, b, m: int) -> Fraction:
    """Central term of [L_m, L_{-m}] for d bosons and intercept b."""
    return Fraction(d * m * (m * m - 1), 12) + 2 * Fraction(b) * m


def mode_pairs(bound: int) -> list:
    """The (m, n) grid with -bound <= m <= n <= bound, as the CLI walks it."""
    return [(m, n) for m in range(-bound, bound + 1)
            for n in range(m, bound + 1)]
