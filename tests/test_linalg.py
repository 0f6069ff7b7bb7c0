"""Exact elimination and symmetric signature tests.

The signature routine is the backbone of the spectrum scans, so its
fraction-free elimination on integer-scaled rows is exercised against the
Gauss-Jordan route, against eigenvalues and against Sylvester invariance
under random congruence transforms.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from openstring.linalg import (
    DependencyError,
    hermitian_signature,
    independence_check,
    kernel_basis,
    matrix_inverse,
    rank,
    rank_fraction_free,
    rref,
)


def frac_matrix(rng, nrows, ncols, span=6):
    return [
        [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(ncols)]
        for _ in range(nrows)
    ]


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


class TestEchelon:
    def test_rref_small(self):
        rows, pivots = rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
        assert pivots == [0]
        assert rows[0] == {0: 1, 1: 2}
        assert rows[1] == {}

    def test_rank_agrees_between_lanes(self):
        rng = random.Random(7)
        for _ in range(40):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            inner = rng.randint(1, min(nrows, ncols))
            # products of thin matrices give plenty of rank-deficient cases
            m = mat_mul(frac_matrix(rng, nrows, inner), frac_matrix(rng, inner, ncols))
            assert rank(m) == rank_fraction_free(m) <= inner

    def test_integer_lane_with_mixed_denominators(self):
        m = [[Fraction(1, 2), Fraction(1, 3), 0],
             [Fraction(3, 2), 1, 0],
             [0, Fraction(5, 7), Fraction(2, 9)]]
        assert rank_fraction_free(m) == rank(m) == 2

    def test_kernel_annihilates(self):
        rng = random.Random(11)
        for _ in range(25):
            nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
            m = frac_matrix(rng, nrows, ncols)
            basis = kernel_basis(m)
            assert len(basis) == ncols - rank(m)
            for vec in basis:
                assert all(
                    sum(row[j] * vec[j] for j in range(ncols)) == 0 for row in m
                )

    def test_kernel_of_nothing_is_everything(self):
        basis = kernel_basis([], ncols=3)
        assert len(basis) == 3

    def test_inverse_round_trip(self):
        rng = random.Random(13)
        built = 0
        while built < 10:
            n = rng.randint(1, 5)
            m = frac_matrix(rng, n, n)
            if rank(m) < n:
                continue
            built += 1
            inv = matrix_inverse(m)
            prod = mat_mul(m, inv)
            assert prod == [[Fraction(i == j) for j in range(n)] for i in range(n)]

    def test_inverse_rejects_singular(self):
        with pytest.raises(ValueError):
            matrix_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])

    def test_dependency_witness(self):
        rows = [
            [Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1)],
            [Fraction(2), Fraction(5), Fraction(1)],
        ]
        with pytest.raises(DependencyError) as err:
            independence_check(rows)
        w = err.value.witness
        combo = [sum(w[i] * rows[i][j] for i in range(3)) for j in range(3)]
        assert combo == [0, 0, 0]
        assert any(w)

    def test_independent_rows_pass(self):
        independence_check([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]])


def dict_rows(matrix, key=lambda j: j):
    return [{key(j): x for j, x in enumerate(row) if x} for row in matrix]


def dependency_witness(rows):
    try:
        independence_check(rows)
    except DependencyError as err:
        return err.witness
    return None


class TestDictRows:
    def test_dense_and_dict_input_agree(self):
        # sparse products of thin factors
        rng = random.Random(43)
        outcomes = set()
        for trial in range(80):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
            inner = rng.randint(1, min(nrows, ncols))
            left, right = (
                [[x if rng.random() < 0.6 else Fraction(0) for x in row]
                 for row in frac_matrix(rng, *shape)]
                for shape in ((nrows, inner), (inner, ncols)))
            m = mat_mul(left, right)
            sparse = dict_rows(m)
            # monomial-like keys, sorted in the reverse of position order
            monomial = dict_rows(m, key=lambda j: ((ncols - j, 1),))
            assert rref(sparse) == rref(m)
            assert rank(sparse) == rank(m) == rank_fraction_free(sparse) \
                == rank_fraction_free(m)
            assert kernel_basis(sparse, ncols=ncols) == kernel_basis(m)
            witness = dependency_witness(m)
            assert dependency_witness(sparse) == witness
            assert dependency_witness(monomial) == witness
            outcomes.add(witness is None)
        assert outcomes == {False, True}

    def test_kernel_of_dict_rows_needs_ncols(self):
        # a dict row's length is its nonzero count, not the column count
        with pytest.raises(ValueError, match="ncols"):
            kernel_basis([{0: Fraction(1), 2: Fraction(1)}])
        assert kernel_basis([{0: Fraction(1), 2: Fraction(1)}], ncols=3) == [
            [0, 1, 0], [-1, 0, 1]]


# symmetric forms with a known inertia
FIXED_FORMS = {
    # positive definite, with denominators up to 15
    "hilbert-8": ([[Fraction(1, i + j + 1) for j in range(8)]
                   for i in range(8)], (8, 0, 0)),
    # after the pivot on g[0][0] the remaining 2 x 2 block has a zero
    # diagonal, so the hyperbolic step runs inside the integer elimination
    "isotropic-partway": ([[1, 1, 0], [1, 1, 1], [0, 1, 0]], (2, 1, 0)),
    # the hyperbolic step needs the column scaling of D G D: on the
    # row-scaled D G alone it gives (4, 1, 0); eigenvalues about -3.22,
    # -2.14, -0.045, 2.45, 2.95
    "isotropic-mixed-denominators": (
        [[0, Fraction(-2, 3), -2, 0, -1],
         [Fraction(-2, 3), 0, Fraction(-1, 3), Fraction(1, 2), 2],
         [-2, Fraction(-1, 3), 0, 2, 0],
         [0, Fraction(1, 2), 2, 0, -1],
         [-1, 2, 0, -1, 0]], (2, 3, 0)),
}


class TestSignature:
    def test_diagonal(self):
        g = [
            [Fraction(2), 0, 0],
            [0, Fraction(-3), 0],
            [0, 0, Fraction(0)],
        ]
        assert hermitian_signature(g) == (1, 1, 1)

    def test_minkowski(self):
        d = 4
        g = [[Fraction(-1 if i == 0 else 1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        assert hermitian_signature(g) == (3, 1, 0)

    def test_hyperbolic_real(self):
        g = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        assert hermitian_signature(g) == (1, 1, 0)

    def test_radical_block(self):
        g = [
            [Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(-5)],
        ]
        # rank-one positive block plus a negative direction
        assert hermitian_signature(g) == (1, 1, 1)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_signature([[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]])

    def test_congruence_invariance(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 5)
            diag = [rng.choice([-2, -1, 0, 1, 3]) for _ in range(n)]
            expected = (
                sum(1 for x in diag if x > 0),
                sum(1 for x in diag if x < 0),
                sum(1 for x in diag if x == 0),
            )
            while True:
                s = [
                    [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     for _ in range(n)]
                    for _ in range(n)
                ]
                if rank(s) == n:
                    break
            # g = s^T diag s
            ds = [[diag[i] * s[i][j] for j in range(n)] for i in range(n)]
            g = [
                [
                    sum(s[k][i] * ds[k][j] for k in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert hermitian_signature(g) == expected

    def test_isotropic_diagonal_against_eigenvalues(self):
        # zero diagonals with mixed denominators: the v_i <- v_i + v_j step
        # must be a congruence (row and column) of the symmetrically
        # scaled form; the null count comes from the exact rank, the signs
        # from the other eigenvalues
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(2, 5)
            g = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        g[i][j] = g[j][i] = Fraction(rng.randint(-2, 2),
                                                     rng.choice([1, 1, 2, 3]))
            null = n - rank(g)
            ev = sorted(np.linalg.eigvalsh(np.array(g, dtype=float)),
                        key=abs)[null:]
            expected = (sum(1 for x in ev if x > 0),
                        sum(1 for x in ev if x < 0), null)
            assert hermitian_signature(g) == expected

    @pytest.mark.parametrize("name", sorted(FIXED_FORMS))
    def test_fixed_forms(self, name):
        g, expected = FIXED_FORMS[name]
        assert hermitian_signature(g) == expected

    def test_empty(self):
        assert hermitian_signature([]) == (0, 0, 0)
