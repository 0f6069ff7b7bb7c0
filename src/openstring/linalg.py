"""Exact linear algebra over Q.

Every elimination runs on sparse {column: entry} rows of Fractions (or
ints), walking the columns that occur in sorted order.  Dense rows are
keyed by position; dict rows may have any sortable keys, such as
monomials.  Two elimination routes are provided on purpose, and
constraint ranks in the package are cross-checked between them:

* ``rref``, Gauss-Jordan by field division, behind ``rank``,
  ``kernel_basis``, ``matrix_inverse`` and ``independence_check``;
* one fraction-free (Bareiss) step, behind ``rank_fraction_free`` and
  ``hermitian_signature``.  Every intermediate entry is a minor of the
  input, so each division by the previous pivot is exact.

The fraction-free route runs on Python ints: each row i is scaled by the
lcm s_i of its denominators and the elimination divides with floor
division.  The signature also scales column j by s_j, so the congruence
D G D stays symmetric.

``hermitian_signature`` computes the inertia (n_plus, n_minus, n_null) of
a real symmetric form by diagonal pivoting on the smallest |pivot| and,
when the whole diagonal vanishes, after the congruence v_i <- v_i + v_j
inside the same loop.  The entries are real, so the form is Hermitian
exactly when it is symmetric, and its inertia is that of its Hermitian
complexification.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def _sparse(matrix):
    """Fresh zero-free dict rows of dense or dict rows."""
    return [{j: x for j, x in (row.items() if isinstance(row, dict)
                               else enumerate(row)) if x} for row in matrix]


def rref(matrix):
    """Reduced row echelon form by field division: (dict rows, pivot
    columns), a row that reduces to zero coming back as {}."""
    rows = _sparse(matrix)
    pivots = []
    for c in sorted({j for row in rows for j in row}):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        if top[c] != 1:
            inv = Fraction(1) / top[c]
            top = rows[r] = {j: x * inv for j, x in top.items()}
        for row in rows:
            f = row.get(c)
            if f is not None and row is not top:
                for j, b in top.items():
                    row[j] = row.get(j, 0) - f * b
                    if not row[j]:
                        del row[j]
        pivots.append(c)
    return rows, pivots


def rank(matrix) -> int:
    if not matrix:
        return 0
    _, pivots = rref(matrix)
    return len(pivots)


def _integer_rows(rows):
    """Sparse rows {column: entry} scaled to ints, each by the lcm s_i of
    its denominators, as numerator * (s_i // denominator), and the list of
    the s_i."""
    scales = [lcm(*(x.denominator for x in row.values())) for row in rows]
    return [{j: x.numerator * (s // x.denominator) for j, x in row.items()}
            for row, s in zip(rows, scales)], scales


def _bareiss_step(top, c, rows, prev):
    """Clear column c of the int ``rows`` against the pivot row ``top``:
    each row becomes (top[c] * row - row[c] * top) / prev.  Every entry
    stays a minor of the input, so the floor division by the previous
    pivot is exact."""
    piv = top[c]
    out = []
    for row in rows:
        new = {j: a * piv for j, a in row.items()}
        f = row.get(c)
        if f is not None:
            for j, b in top.items():
                new[j] = new.get(j, 0) - f * b
        out.append({j: x // prev for j, x in new.items() if x})
    return out


def rank_fraction_free(matrix) -> int:
    """Rank by Bareiss elimination (independent of :func:`rref`), on
    integers after scaling each row by the lcm of its denominators, which
    leaves the rank alone."""
    if not matrix:
        return 0
    rows, _ = _integer_rows(_sparse(matrix))
    prev = 1
    r = 0
    for c in sorted({j for row in rows for j in row}):
        pr = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r + 1:] = _bareiss_step(rows[r], c, rows[r + 1:], prev)
        prev = rows[r][c]
        r += 1
        if r == len(rows):
            break
    return r


def kernel_basis(matrix, ncols=None):
    """Basis of the right kernel, in deterministic free-column order.

    The columns are 0 .. ncols - 1, ``ncols`` by default the length of a
    dense first row.  Each basis vector is a dense list with entry 1 at its
    free column and the solved pivot entries elsewhere.
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
        for row, pc in zip(rows, pivots):
            if fc in row:
                vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def matrix_inverse(matrix):
    n = len(matrix)
    aug = [list(row) + [Fraction(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[row.get(j, Fraction(0)) for j in range(n, 2 * n)] for row in rows[:n]]


def independence_check(vectors):
    """Raise DependencyError (with witness coefficients) unless independent.

    A vanishing combination of the rows is a kernel vector of their
    transpose, so the witness is the first vector of that kernel.  The
    transpose is built sparsely, one row per column that occurs.
    """
    if not vectors:
        return
    transpose = {}
    for i, row in enumerate(_sparse(vectors)):
        for j, x in row.items():
            transpose.setdefault(j, {})[i] = x
    kernel = kernel_basis(list(transpose.values()), ncols=len(vectors))
    if kernel:
        raise DependencyError("input vectors are linearly dependent",
                              witness=kernel[0])


# -- signature of a symmetric form -----------------------------------------


def hermitian_signature(gram):
    """Inertia (n_plus, n_minus, n_null) of a real symmetric matrix.

    Symmetry is checked in O(nnz).  A congruence transform never changes
    the result (Sylvester), and the elimination is a chain of them: the
    integer scaling D G D, with D the diagonal of row scales; one Bareiss
    step per diagonal pivot, whose sign is that of pivot / previous pivot;
    and v_i <- v_i + v_j when the whole diagonal vanishes.  Rows that
    reach zero are null directions.  The entries are real, so symmetric
    is Hermitian.
    """
    n = len(gram)
    rows = _sparse(gram)
    for i, row in enumerate(rows):
        for j, x in row.items():
            if rows[j].get(i, 0) != x:
                raise ValueError(f"matrix is not symmetric at ({i},{j})")
    rows, scales = _integer_rows(rows)
    rows = [{j: x * scales[j] for j, x in row.items()} for row in rows]
    live = dict(enumerate(rows))
    pos = neg = 0
    prev = 1
    while live := {i: row for i, row in live.items() if row}:
        diagonal = [i for i, row in live.items() if i in row]
        if not diagonal:
            # v_i <- v_i + v_j on non-pivot rows keeps every entry a
            # bordered minor; the new diagonal entry is 2 m[i][j] != 0
            i = next(iter(live))
            j = next(iter(live[i]))
            row_i = live[i]
            for k, x in live[j].items():
                row_i[k] = row_i.get(k, 0) + x
            for row in live.values():
                if j in row:
                    row[i] = row.get(i, 0) + row[j]
            live = {k: {c: x for c, x in row.items() if x}
                    for k, row in live.items()}
            continue
        # the smallest pivot keeps the minors small
        p = min(diagonal, key=lambda i: abs(live[i][i]))
        top = live.pop(p)
        if (top[p] > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        live = dict(zip(live, _bareiss_step(top, p, live.values(), prev)))
        prev = top[p]
    return pos, neg, n - pos - neg
