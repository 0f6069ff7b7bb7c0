import random
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from openstring.fock import (
    FockVector,
    InvalidDirectionError,
    ModelParams,
    apply_oscillator,
    basis_dimension,
    inner_indefinite,
    inner_positive,
    iter_level_basis,
    j_involution,
    level_basis,
    vector_from_json,
    vector_to_json,
)

from openstring.fiber import Momentum, virasoro_apply
from openstring.poly import sym_momentum

from .oracles import count_colored_partitions, dict_combine, dict_diagonal, \
    dict_inner, dict_oscillator, dict_scaled, dict_virasoro, inner_recursive, \
    random_vector

P26 = ModelParams(d=26)
P4 = ModelParams(d=4)


def vac():
    return FockVector.vacuum()


class TestBasis:
    def test_level_zero_is_vacuum(self):
        assert level_basis(P26, 0) == [()]

    def test_level_one(self):
        assert level_basis(P4, 1) == [((1, 0),), ((1, 1),), ((1, 2),), ((1, 3),)]

    def test_d26_level2_count(self):
        # d + d(d+1)/2 = 26 + 351
        assert len(level_basis(P26, 2)) == 377
        assert basis_dimension(26, 2) == 377

    def test_counts_match_partition_oracle(self):
        for d in (2, 3, 4, 7):
            p = ModelParams(d=d)
            for n in range(6):
                enumerated = len(level_basis(p, n))
                assert enumerated == count_colored_partitions(d, n)
                assert enumerated == basis_dimension(d, n)

    def test_sorted_and_canonical(self):
        basis = level_basis(P4, 3)
        assert basis == sorted(basis)
        assert len(set(basis)) == len(basis)
        for mono in basis:
            assert list(mono) == sorted(mono)
            assert sum(n for n, _ in mono) == 3

    def test_generator_matches_list(self):
        assert list(iter_level_basis(P4, 4)) == level_basis(P4, 4)

    def test_basis_state_keeps_a_canonical_monomial(self):
        # a caller that caches states by their monomial keeps one tuple
        for mono in level_basis(P4, 3):
            assert next(iter(FockVector.basis_state(mono).num)) is mono
        v = FockVector.basis_state([(2, 1), (1, 3), (1, 0)], Fraction(1, 2))
        assert v.num == {((1, 0), (1, 3), (2, 1)): 1} and v.den == 2


def _level_oracle(d, n):
    """The level-n monomials by brute force: every multiset of keys
    (mode, mu) with mode <= n, kept when its modes sum to n, sorted."""
    keys = [(mode, mu) for mode in range(1, n + 1) for mu in range(d)]
    return sorted(combo for k in range(n + 1)
                  for combo in combinations_with_replacement(keys, k)
                  if sum(mode for mode, _ in combo) == n)


class TestLazyEnumeration:
    @pytest.mark.parametrize("d,top", [(2, 6), (3, 5), (5, 4), (26, 3)])
    def test_matches_brute_force_oracle(self, d, top):
        params = ModelParams(d=d)
        for n in range(top + 1):
            assert list(iter_level_basis(params, n)) == _level_oracle(d, n)

    def test_first_monomials_do_not_build_the_level(self):
        # d = 26, level 5 has 247 312 monomials; the first 100 must not
        # cost the whole level
        tracemalloc.start()
        try:
            first = list(islice(iter_level_basis(P26, 5), 100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(first) == 100 and first == sorted(first)
        assert first[0] == ((1, 0),) * 5
        assert peak < 1 << 20

    def test_negative_level_is_refused(self):
        with pytest.raises(ValueError):
            next(iter_level_basis(P4, -1))


class TestOscillators:
    def test_annihilator_kills_vacuum(self):
        assert not apply_oscillator((1, 0), vac(), P26)

    def test_commutator_diagonal(self):
        # alpha^1_1 alpha^1_{-1} vac = 1 * eta^{11} vac
        up = apply_oscillator((-1, 1), vac(), P26)
        down = apply_oscillator((1, 1), up, P26)
        assert down == vac()

    def test_commutator_timelike_sign(self):
        # alpha^0_2 alpha^0_{-2} vac = 2 * eta^{00} vac = -2 vac
        up = apply_oscillator((-2, 0), vac(), P26)
        down = apply_oscillator((2, 0), up, P26)
        assert down == FockVector.vacuum(Fraction(-2))

    def test_cross_direction_vanishes(self):
        up = apply_oscillator((-1, 2), vac(), P26)
        assert not apply_oscillator((1, 1), up, P26)

    def test_multiplicity(self):
        # alpha_1 (alpha_{-1})^2 vac = 2 alpha_{-1} vac  (same direction)
        v = vac()
        for _ in range(2):
            v = apply_oscillator((-1, 3), v, P26)
        w = apply_oscillator((1, 3), v, P26)
        assert w == apply_oscillator((-1, 3), vac(), P26) * Fraction(2)

    def test_direction_range_checked(self):
        with pytest.raises(InvalidDirectionError):
            apply_oscillator((1, 4), vac(), P4)
        with pytest.raises(InvalidDirectionError):
            apply_oscillator((-1, -1), vac(), P4)

    def test_mode_zero_rejected(self):
        with pytest.raises(ValueError):
            apply_oscillator((0, 1), vac(), P4)

    def test_commutator_property_random(self):
        # [alpha^mu_m, alpha^nu_{-m}] v = m eta^{mu nu} v on random vectors
        rng = random.Random(7)
        for _ in range(25):
            v = random_vector(rng, P4, 3)
            m = rng.randrange(1, 4)
            mu = rng.randrange(4)
            nu = rng.randrange(4)
            ab = apply_oscillator((m, mu), apply_oscillator((-m, nu), v, P4), P4)
            ba = apply_oscillator((-m, nu), apply_oscillator((m, mu), v, P4), P4)
            expected = v * Fraction(m * P4.eta(mu)) if mu == nu else FockVector()
            assert ab - ba == expected


class TestInner:
    def test_vacuum_normalised(self):
        assert inner_indefinite(vac(), vac()) == 1

    def test_timelike_negative_norm(self):
        v = apply_oscillator((-1, 0), vac(), P26)
        assert inner_indefinite(v, v) == -1
        assert inner_positive(v, v) == 1

    def test_mode_weight(self):
        v = apply_oscillator((-3, 2), vac(), P26)
        assert inner_indefinite(v, v) == 3

    def test_repeated_factor_factorial(self):
        v = vac()
        for _ in range(3):
            v = apply_oscillator((-2, 1), v, P26)
        # 2^3 * 3! = 48
        assert inner_indefinite(v, v) == 48

    def test_orthogonality_of_basis(self):
        basis = level_basis(P4, 2)
        for i, m1 in enumerate(basis):
            v1 = FockVector.basis_state(m1)
            for m2 in basis[i + 1 :]:
                assert inner_indefinite(v1, FockVector.basis_state(m2)) == 0

    def test_matches_recursive_oracle(self):
        rng = random.Random(11)
        for _ in range(30):
            u = random_vector(rng, P4, 3)
            v = random_vector(rng, P4, 3)
            assert inner_indefinite(u, v) == inner_recursive(u, v, P4)

    def test_adjoint_relation(self):
        # <alpha_n u, v> = <u, alpha_{-n} v>
        rng = random.Random(13)
        for _ in range(20):
            u = random_vector(rng, P4, 3)
            v = random_vector(rng, P4, 3)
            n = rng.randrange(1, 4)
            mu = rng.randrange(4)
            lhs = inner_indefinite(apply_oscillator((n, mu), u, P4), v)
            rhs = inner_indefinite(u, apply_oscillator((-n, mu), v, P4))
            assert lhs == rhs

    def test_hermitian(self):
        rng = random.Random(17)
        for _ in range(15):
            u = random_vector(rng, P4, 2)
            v = random_vector(rng, P4, 2)
            assert inner_indefinite(u, v) == inner_indefinite(v, u)  # real coeffs


class TestJ:
    def test_involution(self):
        rng = random.Random(19)
        for _ in range(15):
            v = random_vector(rng, P4, 3)
            assert j_involution(j_involution(v)) == v

    def test_flips_timelike_only(self):
        v = FockVector.basis_state(((1, 0), (2, 0), (1, 3)))
        assert j_involution(v) == v  # two timelike factors
        w = FockVector.basis_state(((1, 0), (1, 3)))
        assert j_involution(w) == -w

    def test_positivity_random(self):
        rng = random.Random(23)
        for _ in range(30):
            v = random_vector(rng, P4, 3)
            q = inner_positive(v, v)
            assert q >= 0
            assert (q == 0) == (not v)


class TestLinearity:
    def test_vector_space_ops(self):
        a = FockVector.basis_state(((1, 0),))
        b = FockVector.basis_state(((2, 1),))
        v = a * Fraction(2, 3) + b
        assert v - b == a * Fraction(2, 3)
        assert not (v - v)
        assert (-v) + v == FockVector()

    def test_zero_pruning(self):
        v = FockVector({((1, 0),): Fraction(0)})
        assert not v
        w = FockVector.basis_state(((1, 0),)) + FockVector.basis_state(((1, 0),)) * Fraction(-1)
        assert not w

    def test_in_place_accumulation(self):
        # += and -= mutate the accumulator, prune cancelled terms, and only
        # read the right-hand operand
        acc = FockVector({((1, 0),): Fraction(1), ((2, 1),): Fraction(3)})
        w = FockVector({((1, 0),): Fraction(-1), ((1, 2),): Fraction(1, 2)})
        before, w_terms = acc, dict(w.terms)
        acc += w
        assert acc is before
        assert acc.terms == {((2, 1),): Fraction(3), ((1, 2),): Fraction(1, 2)}
        assert w.terms == w_terms
        acc -= w
        assert acc is before
        assert acc.terms == {((1, 0),): Fraction(1), ((2, 1),): Fraction(3)}
        assert w.terms == w_terms
        acc -= acc
        assert acc is before and not acc
        # the binary forms leave both operands alone
        total = w + w
        assert total.terms == {((1, 0),): Fraction(-2), ((1, 2),): Fraction(1)}
        assert not (w - w) and w.terms == w_terms

    def test_level(self):
        v = FockVector.basis_state(((1, 0), (3, 2)))
        assert v.level() == 4
        assert FockVector().level() == 0


class TestSerialisation:
    def test_round_trip_rational(self):
        v = FockVector(
            {
                ((1, 1), (2, 0)): Fraction(3, 2),
                ((3, 2),): Fraction(-7),
            }
        )
        assert vector_from_json(vector_to_json(v)) == v

    @pytest.mark.parametrize("field", ["im", "irad"])
    def test_imaginary_part_is_refused(self, field):
        text = ('{"s": 5, "terms": [{"monomial": [[-1, 0]], "re": "1", '
                f'"rad": "0", "{field}": "2"}}]}}')
        with pytest.raises(ValueError, match="imaginary"):
            vector_from_json(text)

    def test_surd_part_is_refused(self):
        text = ('{"s": 5, "terms": [{"monomial": [[-1, 0]], "re": "1", '
                '"rad": "1/3"}]}')
        with pytest.raises(ValueError, match="surd part"):
            vector_from_json(text)

    def test_rational_bytes(self):
        v = FockVector({((1, 1), (2, 0)): Fraction(3, 2), ((3, 2),): -7})
        text = ('{"s": 0, "terms": [{"monomial": [[-1, 1], [-2, 0]], '
                '"rad": "0", "re": "3/2"}, {"monomial": [[-3, 2]], '
                '"rad": "0", "re": "-7"}]}')
        assert vector_to_json(v) == text
        assert vector_from_json(text) == v

    def test_format_shape(self):
        import json

        v = FockVector({((1, 1), (2, 0)): Fraction(3, 2)})
        data = json.loads(vector_to_json(v))
        assert data["s"] == 0
        assert data["terms"][0]["monomial"] == [[-1, 1], [-2, 0]]
        assert data["terms"][0]["re"] == "3/2"


# -- the integer lane against {monomial: value} dicts ------------------------

POOL = [mono for n in range(3) for mono in level_basis(P4, n)]
SYM = sym_momentum(4)
INV_W = 1 / SYM.lightcone()
rationals = st.one_of(st.integers(-6, 6), st.fractions(
    min_value=-6, max_value=6, max_denominator=12))
# q0 + q1 p^mu + q2 / w: LcRational values, so the numerators are too
sections = st.builds(lambda a, b, mu, c: a + b * SYM[mu] + c * INV_W,
                     rationals, rationals, st.integers(0, 3), rationals)
COEFFS = {"rational": rationals, "symbolic": st.one_of(rationals, sections)}
# the weights of a diagonal operator: ints, or ring sections on sym_momentum(4)
WEIGHTS = {"rational": st.integers(-3, 3),
           "symbolic": st.one_of(st.integers(-3, 3), sections)}
lane = settings(max_examples=40, deadline=None)


def draw_dict(data, ring):
    """A {monomial: nonzero value} dict of up to six terms, the values of
    mixed denominators."""
    raw = data.draw(st.dictionaries(st.sampled_from(POOL), COEFFS[ring],
                                    max_size=6))
    return {mono: c for mono, c in raw.items() if c}


def assert_matches(v, want):
    """v holds the values of ``want``, pruned, and int numerators sit over
    a positive denominator that shares no factor with all of them."""
    assert v.terms == want
    assert v == FockVector(want) and len(v) == len(want)
    if all(type(c) is int for c in v.num.values()):
        assert v.den > 0 and gcd(v.den, *v.num.values()) == 1


@pytest.mark.parametrize("ring", sorted(COEFFS))
class TestIntegerLane:
    @lane
    @given(data=st.data())
    def test_sum_and_difference(self, ring, data):
        a, b = draw_dict(data, ring), draw_dict(data, ring)
        u, v = FockVector(a), FockVector(b)
        assert_matches(u, a)
        assert_matches(u + v, dict_combine(a, b))
        assert_matches(u - v, dict_combine(a, b, -1))
        acc = u + FockVector()
        acc += v
        assert_matches(acc, dict_combine(a, b))
        acc -= v
        assert_matches(acc, a)
        assert_matches(v, b)        # only read

    @lane
    @given(data=st.data())
    def test_scaled(self, ring, data):
        a = draw_dict(data, ring)
        c = data.draw(COEFFS[ring])
        v = FockVector(a)
        assert_matches(v.scaled(c), dict_scaled(a, c))
        assert_matches(c * v, dict_scaled(a, c))
        assert v.scaled(3).scaled(Fraction(1, 3)) == v
        assert v.scaled(Fraction(2, 7)).scaled(Fraction(7, 2)).terms == a

    @lane
    @given(data=st.data())
    def test_cancelled_term_is_pruned(self, ring, data):
        a = draw_dict(data, ring)
        if not a:
            return
        mono = data.draw(st.sampled_from(sorted(a)))
        v = FockVector(a)
        v.add_term(mono, -a[mono])
        assert mono not in v.num and len(v) == len(a) - 1
        w = FockVector(a) - FockVector({mono: a[mono]})
        assert_matches(w, {m: c for m, c in a.items() if m != mono})

    @lane
    @given(data=st.data())
    def test_apply_oscillator(self, ring, data):
        a = draw_dict(data, ring)
        mode = data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        mu = data.draw(st.integers(0, 3))
        assert_matches(apply_oscillator((mode, mu), FockVector(a), P4),
                       dict_oscillator(mode, mu, a))

    @lane
    @given(data=st.data())
    def test_virasoro_apply(self, ring, data):
        a = draw_dict(data, ring)
        m = data.draw(st.integers(-2, 2))
        b = data.draw(st.fractions(min_value=-2, max_value=2,
                                   max_denominator=4))
        p = SYM if ring == "symbolic" else Momentum(
            data.draw(st.lists(rationals, min_size=4, max_size=4)))
        assert_matches(virasoro_apply(m, p, FockVector(a), ModelParams(4, b)),
                       dict_virasoro(m, p, a, b))

    @lane
    @given(data=st.data())
    def test_diagonal(self, ring, data):
        # one weight per monomial, zero on some, over a drawn denominator
        a = draw_dict(data, ring)
        weight = {mono: data.draw(WEIGHTS[ring]) for mono in POOL}.get
        den = data.draw(st.integers(1, 12))
        v = FockVector(a).diagonal(weight, den)
        assert_matches(v, dict_diagonal(weight, a, den))
        assert all(weight(mono) for mono in v.num)
        if any(type(c) is not int for c in v.num.values()):
            assert v.den == 1       # ring numerators take den in

    @lane
    @given(data=st.data())
    def test_inner_indefinite(self, ring, data):
        a, b = draw_dict(data, ring), draw_dict(data, ring)
        assert inner_indefinite(FockVector(a), FockVector(b)) == \
            dict_inner(a, b)
