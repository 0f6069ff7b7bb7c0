from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from openstring.exactnum import sqrt_fraction


class TestSqrtFraction:
    def test_perfect(self):
        assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
        assert sqrt_fraction(16) == 4

    def test_zero(self):
        root = sqrt_fraction(0)
        assert root == 0 and type(root) is Fraction

    def test_radical(self):
        # a square root outside Q is refused, not approximated
        for q in (2, Fraction(17, 4), Fraction(3, 2), Fraction(4, 3)):
            with pytest.raises(ValueError, match="not the square"):
                sqrt_fraction(q)

    @given(st.fractions(min_value=-30, max_value=30, max_denominator=9))
    def test_square_roundtrip(self, q):
        root = sqrt_fraction(q * q)
        assert type(root) is Fraction and root == abs(q)

    def test_negative_rejected(self):
        for q in (Fraction(-1), Fraction(-9, 4)):
            with pytest.raises(ValueError, match="nonnegative"):
                sqrt_fraction(q)
