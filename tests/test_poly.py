"""Momentum-polynomial ring tests: arithmetic laws, division by the
lightcone combination w, and the two structural rewrites."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from openstring.poly import LcRational, Poly, sym_momentum

D = 4
rats = st.fractions(min_value=-9, max_value=9, max_denominator=6)
exponents = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(D)))
polys = st.dictionaries(exponents, rats, max_size=4).map(lambda t: Poly(D, t))


def var(mu):
    return Poly.variable(D, mu)


W = Poly.lightcone(D)


class TestRingLaws:
    @given(polys, polys, polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys)
    def test_additive_inverse(self, a):
        assert not (a + (-a))

    def test_scalar_coercions(self):
        x = var(1)
        assert 2 * x == x + x
        assert x - 1 == x + Poly.const(D, -1)
        assert 3 - x == -(x - 3)
        assert Fraction(1, 2) * (x + x) == x

    def test_power(self):
        assert W ** 0 == Poly.const(D, 1)
        assert W ** 3 == W * W * W
        with pytest.raises(ValueError):
            W ** -1

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Poly.const(D, 0.5)


class TestEvaluation:
    def test_exact_point(self):
        q = var(0) * var(0) - var(3) + Poly.const(D, 2)
        assert q.evaluate((Fraction(3), 0, 0, Fraction(5))) == 9 - 5 + 2

    def test_degrees(self):
        q = var(0) ** 2 * var(1) + var(2)
        assert q.degree() == 3
        assert q.degree_in(0) == 2
        assert q.degree_in(1) == 1
        assert q.degree_in(3) == 0
        assert Poly(D).degree() == 0

    @given(polys)
    def test_evaluation_is_a_ring_map(self, a):
        pt = (Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 2))
        b = var(0) - 2 * var(2)
        assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)
        assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)


class TestLightconeDivision:
    """Division by w, seen through LcRational's public API."""

    @given(polys, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_multiply_then_divide_roundtrips(self, q, k):
        back = LcRational(q * W ** k, k)
        assert back == LcRational(q)
        assert back.gamma == 0 and back.num == q

    @given(polys)
    def test_divisibility_iff_zero_remainder(self, q):
        for top in (q, q * W, q * W + Poly.const(D, 1)):
            quot = LcRational(top, 1)
            assert (quot.gamma == 0) == (quot.num * W == top)
        assert LcRational(q * W, 1).gamma == 0

    def test_simple_failures(self):
        assert LcRational(Poly.const(D, 1), 1).gamma == 1
        assert LcRational(W * var(1) + Poly.const(D, 1), 1).gamma == 1
        assert LcRational(Poly(D), 1).gamma == 0


class TestStructuralRewrites:
    def test_flip_spatial_involution(self):
        q = var(0) * var(1) + var(3) ** 2 - var(2)
        assert q.flip_spatial().flip_spatial() == q

    def test_flip_matches_evaluation_at_negated_point(self):
        q = var(0) ** 2 * var(1) - var(2) * var(3) + var(1)
        pt = (Fraction(2), Fraction(3), Fraction(-1), Fraction(5))
        flipped_pt = (pt[0],) + tuple(-x for x in pt[1:])
        assert q.flip_spatial().evaluate(pt) == q.evaluate(flipped_pt)

    def test_shell_reduction_kills_mass_shell_polynomial(self):
        # -(p^0)^2 + |vec p|^2 + r is exactly the shell relation
        r = Fraction(2)
        shell = -(var(0) ** 2) + var(1) ** 2 + var(2) ** 2 + var(3) ** 2 + r
        assert not shell.reduce_shell(r)
        # and as a factor it annihilates anything
        q = shell * (var(1) + var(0) * var(3))
        assert not q.reduce_shell(r)

    def test_shell_reduction_bounds_time_degree(self):
        q = var(0) ** 5 + var(0) ** 2 * var(1)
        red = q.reduce_shell(0)
        assert red.degree_in(0) <= 1

    @given(polys)
    def test_shell_reduction_preserves_on_shell_values(self, a):
        r = Fraction(2)
        pt = (Fraction(2), Fraction(1), Fraction(1), Fraction(0))  # 4 = 2 + 2
        for q in (a, a * var(0) ** 3):
            red = q.reduce_shell(r)
            assert red.degree_in(0) <= 1
            assert red.evaluate(pt) == q.evaluate(pt)


class TestLcRational:
    @given(polys, polys)
    def test_polys_embed_as_a_ring(self, a, b):
        assert LcRational(a + b) == LcRational(a) + LcRational(b)
        assert LcRational(a * b) == LcRational(a) * LcRational(b)
        assert LcRational(a * b, 3) == LcRational(a, 2) * LcRational(b, 1)
        assert LcRational(a).num == a

    def test_normalization_cancels(self):
        assert LcRational(W * var(1), 1) == LcRational(var(1))
        assert LcRational(W * W, 2).gamma == 0

    def test_zero_normal_form(self):
        z = LcRational(Poly(D), 3)
        assert not z and z.gamma == 0

    def test_mixed_gamma_addition(self):
        k = Fraction(1) / LcRational(W)   # 1/w
        s = k + LcRational(var(1))        # 1/w + p1 = (1 + w p1)/w
        assert s.gamma == 1
        assert s.num == Poly.const(D, 1) + W * var(1)

    def test_multiplication_adds_gammas(self):
        k = Fraction(1) / LcRational(W)
        assert (k * k).gamma == 2
        assert (k * LcRational(W)).gamma == 0

    def test_reflected_scalar_division(self):
        k = Fraction(3) / LcRational(W * W)
        assert k.gamma == 2 and k.num == Poly.const(D, 3)
        # dividing by something that is not a pure w power must refuse
        with pytest.raises(TypeError):
            Fraction(1) / LcRational(var(1))
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / LcRational(Poly(D))

    def test_division_by_w_rational_multiple(self):
        half_w = LcRational(W * Fraction(1, 2))
        k = Fraction(1) / half_w
        assert k.gamma == 1 and k.num == Poly.const(D, 2)

    def test_evaluate(self):
        k = Fraction(1) / LcRational(W)
        pt = (Fraction(2), Fraction(1), Fraction(0), Fraction(1))
        assert k.evaluate(pt) == Fraction(1, 3)
        degenerate = (Fraction(1), Fraction(0), Fraction(0), Fraction(-1))
        with pytest.raises(ZeroDivisionError):
            k.evaluate(degenerate)

    def test_cleared_prefactor(self):
        k = Fraction(5) / LcRational(W)
        assert k.cleared(1) == Poly.const(D, 5)
        assert k.cleared(2) == W * Fraction(5)
        with pytest.raises(ValueError):
            k.cleared(0)

    def test_equality_across_representations(self):
        assert LcRational(W, 1) == LcRational(Poly.const(D, 1))
        assert LcRational(W, 1) == 1
        assert LcRational(var(1)) == var(1)


scalars = st.one_of(st.integers(min_value=-3, max_value=3), rats)
sections = st.builds(LcRational, polys, st.integers(min_value=0, max_value=2))
ring_values = st.one_of(scalars, scalars.map(lambda c: Poly.const(D, c)),
                        polys, sections,
                        st.sampled_from(tuple(sym_momentum(D))))


def same_value_forms(x):
    """x written as every type of the ring that can hold its value."""
    if isinstance(x, (int, Fraction)):
        x = Poly.const(D, x)
    if isinstance(x, Poly):
        x = LcRational(x)
    forms = [x, x + 0, x * 1, LcRational(x.num * W, x.gamma + 1)]
    if not x.gamma:
        forms.append(x.num)
        if not any(map(any, x.num.terms)):
            c = x.num.terms.get((0,) * D, Fraction(0))
            forms += [c, int(c)] if c.denominator == 1 else [c]
    return forms


class TestHashing:
    @given(ring_values)
    def test_equal_values_hash_alike(self, x):
        for a in [x, *same_value_forms(x)]:
            for b in same_value_forms(x):
                assert a == b and b == a
                assert hash(a) == hash(b)

    @given(ring_values, ring_values)
    def test_equality_implies_equal_hashes(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_symbolic_components_hash_like_their_polynomials(self):
        p = sym_momentum(D)
        for mu, comp in enumerate(p):
            assert comp == var(mu) and hash(comp) == hash(var(mu))
        w = p.lightcone()
        assert w == W and hash(w) == hash(W)
        assert (1 / w) * w == 1 and hash((1 / w) * w) == hash(1)
        assert len({LcRational(Poly.const(D, 1)), Poly.const(D, 1), 1,
                    Fraction(1)}) == 1


class TestSymbolicMomentum:
    def test_minkowski_square(self):
        p = sym_momentum(D)
        expected = -(var(0) ** 2) + var(1) ** 2 + var(2) ** 2 + var(3) ** 2
        assert p.minkowski_sq() == LcRational(expected)

    def test_lightcone_is_symbolically_nonzero(self):
        p = sym_momentum(D)
        assert p.lightcone()
        assert p.lightcone() == LcRational(W)
