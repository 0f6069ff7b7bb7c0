from fractions import Fraction
from math import sqrt

import pytest
from hypothesis import given, strategies as st

from openstring.exactnum import (
    ExactNum,
    real_sign,
    sqrt_fraction,
)

rats = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def exact(s):
    return st.builds(lambda a, c: ExactNum(a, c, s), rats, rats)


class TestRing:
    def test_sqrt_squares_to_radicand(self):
        r = ExactNum(0, 1, 5)
        assert r * r == 5

    def test_perfect_square_radicand_folds(self):
        x = ExactNum(1, 2, 9)  # 1 + 2*sqrt(9) = 7
        assert x == 7
        assert x.s == 0

    def test_square_part_extracted(self):
        x = ExactNum(0, 1, 12)  # sqrt(12) = 2*sqrt(3)
        assert x.s == 3
        assert x.c == 2

    def test_fraction_interop(self):
        x = ExactNum(Fraction(1, 2), 1, 3)
        y = Fraction(3, 2) + x
        assert y == ExactNum(2, 1, 3)
        assert Fraction(2) * x == ExactNum(1, 2, 3)
        assert x - Fraction(1, 2) == ExactNum(0, 1, 3)

    def test_incompatible_radicands(self):
        with pytest.raises(ValueError):
            ExactNum(0, 1, 2) + ExactNum(0, 1, 3)

    @given(exact(3), exact(3), exact(3))
    def test_mul_distributes(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(exact(7), exact(7))
    def test_mul_commutes(self, x, y):
        assert x * y == y * x

    @given(exact(2))
    def test_inverse(self, x):
        if x:
            assert x * x.inverse() == 1


class TestSigns:
    def test_real_sign_cases(self):
        # 1 - sqrt(2) < 0 although both pieces look "close"
        assert real_sign(ExactNum(1, -1, 2)) == -1
        assert real_sign(ExactNum(3, -2, 2)) == 1  # 3 > 2*sqrt(2)
        assert real_sign(ExactNum(2, -2, 2)) == -1  # 2 < 2*sqrt(2)
        assert real_sign(Fraction(-3, 7)) == -1
        assert real_sign(Fraction(0)) == 0

    @given(exact(3))
    def test_sign_matches_float(self, x):
        z = float(x.a) + float(x.c) * sqrt(3)
        if abs(z) > 1e-9:
            assert real_sign(x) == (1 if z > 0 else -1)


class TestSqrtFraction:
    def test_perfect(self):
        assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)

    def test_radical(self):
        x = sqrt_fraction(Fraction(3, 2))  # sqrt(6)/2
        assert x.s == 6
        assert x.c == Fraction(1, 2)
        assert x * x == Fraction(3, 2)

    @given(st.fractions(min_value=0, max_value=30, max_denominator=9))
    def test_square_roundtrip(self, q):
        x = sqrt_fraction(q)
        assert x * x == q

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_fraction(Fraction(-1))
