"""The counting oracles against hand values and a second route."""

from fractions import Fraction

import pytest

from series import boson_levels, central_term, mode_pairs, transverse_count


def _by_convolution(d, top):
    """prod (1 - q^n)^(-d) by multiplying in one geometric factor at a time."""
    a = [1] + [0] * top
    for n in range(1, top + 1):
        for _ in range(d):
            for k in range(n, top + 1):
                a[k] += a[k - n]
    return a


def test_partition_numbers():
    assert boson_levels(1, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_critical_dimension_levels():
    # level 3 at d = 26: 26 + 26 * 26 + C(28, 3)
    assert boson_levels(26, 3) == [1, 26, 377, 26 + 676 + 3276]


@pytest.mark.parametrize("d", [0, 2, 5, 10, 24, 26])
def test_agrees_with_convolution(d):
    assert boson_levels(d, 8) == _by_convolution(d, 8)


def test_transverse_count_is_the_no_ghost_count():
    assert [transverse_count(26, n) for n in range(3)] == [1, 24, 324]


def test_central_term():
    assert central_term(26, 1, 1) == 2
    assert central_term(26, 1, 2) == 17
    assert central_term(4, Fraction(0), 3) == 8
    assert central_term(26, 1, -2) == -central_term(26, 1, 2)


def test_mode_pairs_walks_the_cli_grid():
    pairs = mode_pairs(3)
    assert len(pairs) == 28
    assert all(m <= n for m, n in pairs)
    assert len(set(pairs)) == 28


def test_rejects_negative_input():
    with pytest.raises(ValueError):
        boson_levels(-1, 2)
