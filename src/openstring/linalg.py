"""Exact dense linear algebra over Q and Q(sqrt(s)).

Matrices are plain lists of lists whose entries are Fractions or ExactNums.
Two elimination routes are provided on purpose: straightforward row echelon
with field division, and a fraction-free (Bareiss) elimination whose
intermediate entries are minors of the input.  Rank computations in the
package are cross-checked between the two.  The Bareiss route has an
integer lane for all-rational input: each row is scaled by the lcm of its
denominators, which leaves the rank alone, and the elimination then runs
on Python ints with exact floor division.  Surd entries take the generic
field lane.

``hermitian_signature`` computes the inertia (n_plus, n_minus, n_null) of a
real symmetric form by symmetric elimination with diagonal pivoting, a
hyperbolic fallback when the diagonal vanishes, and an integer Bareiss lane
for the common all-rational case.  The entries are real, so the form is
Hermitian exactly when it is symmetric, and its inertia is that of its
Hermitian complexification.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exactnum import is_rational_real, real_sign

__all__ = [
    "DependencyError",
    "hermitian_signature",
    "kernel_basis",
    "matrix_inverse",
    "rank",
    "rank_fraction_free",
    "rref",
]


class DependencyError(ValueError):
    """Raised when allegedly independent vectors are dependent.

    ``witness`` holds coefficients of a vanishing combination of the input
    rows.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def rref(matrix):
    """Reduced row echelon form by field division: (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if rows[r][c] != 1:
            inv = Fraction(1) / rows[r][c] if isinstance(rows[r][c], (int, Fraction)) else rows[r][c].inverse()
            rows[r] = [x * inv if x else x for x in rows[r]]
        # zero entries of the pivot row leave the other rows alone
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rank(matrix) -> int:
    if not matrix:
        return 0
    _, pivots = rref(matrix)
    return len(pivots)


def _as_fraction(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return x.rational_value()


def _denominator_lcm(row) -> int:
    out = 1
    for x in row:
        out = out * x.denominator // gcd(out, x.denominator)
    return out


def _integer_rows(rows):
    """Sparse rows {column: entry} scaled to integers by the lcm of their
    denominators, or None if an entry is not rational."""
    out = []
    for row in rows:
        if not all(map(is_rational_real, row.values())):
            return None
        f = {j: _as_fraction(x) for j, x in row.items()}
        scale = _denominator_lcm(f.values())
        out.append({j: x.numerator * (scale // x.denominator)
                    for j, x in f.items()})
    return out


def rank_fraction_free(matrix) -> int:
    """Rank by Bareiss elimination (independent of :func:`rref`).

    Rows are kept sparse, as {column: entry}.  All-rational input runs on
    integers after scaling each row by the lcm of its denominators; every
    intermediate entry is then an integer minor, so the division by the
    previous pivot is exact.  Other entries stay in their field.
    """
    if not matrix:
        return 0
    rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
    ints = _integer_rows(rows)
    integral = ints is not None
    if integral:
        rows = ints
    nrows, ncols = len(rows), len(matrix[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        piv = top[c]
        for i in range(r + 1, nrows):
            new = {j: a * piv for j, a in rows[i].items()}
            fi = rows[i].get(c)
            if fi is not None:
                for j, b in top.items():
                    new[j] = new.get(j, 0) - fi * b
            if integral:
                rows[i] = {j: x // prev for j, x in new.items() if x}
            else:
                rows[i] = {j: x / prev for j, x in new.items() if x}
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def kernel_basis(matrix, ncols=None):
    """Basis of the right kernel, in deterministic free-column order.

    Each basis vector has entry 1 at its free column and the solved pivot
    entries elsewhere.
    """
    if not matrix:
        if ncols is None:
            return []
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    ncols = ncols if ncols is not None else len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            if rows[r][fc]:
                vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def matrix_inverse(matrix):
    n = len(matrix)
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows[:n]]


def independence_check(vectors):
    """Raise DependencyError (with witness coefficients) unless independent.

    A vanishing combination of the rows is a kernel vector of their
    transpose, so the witness is the first vector of that kernel.
    """
    if not vectors:
        return
    transpose = [list(col) for col in zip(*vectors)]
    kernel = kernel_basis(transpose, ncols=len(vectors))
    if kernel:
        raise DependencyError(
            "input vectors are linearly dependent", witness=kernel[0]
        )


# -- signature of a symmetric form -----------------------------------------


def _row_is_zero(m, i):
    return not any(m[i])


def _sig_generic(m):
    """Inertia of a symmetric matrix with exact field entries."""
    pos = neg = nul = 0
    while m:
        n = len(m)
        zero_rows = {i for i in range(n) if _row_is_zero(m, i)}
        if zero_rows:
            keep = [i for i in range(n) if i not in zero_rows]
            nul += len(zero_rows)
            m = [[m[i][j] for j in keep] for i in keep]
            continue
        pi = next((i for i in range(n) if m[i][i]), None)
        if pi is None:
            # Wholly isotropic diagonal: make a pivot with a hyperbolic pair.
            i, j = next(
                (i, j) for i in range(n) for j in range(i + 1, n) if m[i][j]
            )
            # v_i <- v_i + v_j makes the new diagonal entry 2 m[i][j],
            # which is nonzero for real entries: row update, then column.
            m[i] = [x + y for x, y in zip(m[i], m[j])]
            for k in range(n):
                m[k][i] = m[k][i] + m[k][j]
            continue
        piv = m[pi][pi]
        s = real_sign(piv)
        if s > 0:
            pos += 1
        else:
            neg += 1
        others = [i for i in range(n) if i != pi]
        m = [
            [m[i][j] - m[i][pi] * m[pi][j] / piv for j in others]
            for i in others
        ]
    return pos, neg, nul


def _sig_rational(g):
    """Integer Bareiss lane: entries stay minors of the scaled input."""
    n = len(g)
    f = [[_as_fraction(x) for x in row] for row in g]
    scale = [_denominator_lcm(row) for row in f]
    m = [
        [int(f[i][j] * scale[i] * scale[j]) for j in range(n)]
        for i in range(n)
    ]
    pos = neg = nul = 0
    prev = 1
    while m:
        n = len(m)
        zero_rows = {i for i in range(n) if not any(m[i])}
        if zero_rows:
            keep = [i for i in range(n) if i not in zero_rows]
            nul += len(zero_rows)
            m = [[m[i][j] for j in keep] for i in keep]
            continue
        pi = None
        best = None
        for i in range(n):
            v = abs(m[i][i])
            if v and (best is None or v < best):
                best, pi = v, i
        if pi is None:
            # rare: all-isotropic diagonal; hand the exact remainder over
            rest = [[Fraction(x, prev) for x in row] for row in m]
            p2, n2, z2 = _sig_generic(rest)
            return pos + p2, neg + n2, nul + z2
        piv = m[pi][pi]
        if piv * prev > 0:
            pos += 1
        else:
            neg += 1
        others = [i for i in range(n) if i != pi]
        m = [
            [(m[i][j] * piv - m[i][pi] * m[pi][j]) // prev for j in others]
            for i in others
        ]
        prev = piv
    return pos, neg, nul


def hermitian_signature(gram):
    """Inertia (n_plus, n_minus, n_null) of a real symmetric matrix.

    Symmetry is checked.  A congruence transform never changes the result
    (Sylvester).  The entries are real, so symmetric is Hermitian.
    """
    n = len(gram)
    if n == 0:
        return (0, 0, 0)
    for i in range(n):
        for j in range(i, n):
            if gram[i][j] != gram[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    if all(is_rational_real(gram[i][j]) for i in range(n) for j in range(n)):
        return _sig_rational(gram)
    return _sig_generic([list(r) for r in gram])
