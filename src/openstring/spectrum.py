"""Level-truncated physical-state machinery.

Everything here is fiberwise and exact: fix a mass-squared value r, find an
exact momentum on the shell p^2 + r = 0, truncate the Fock space at the
matching level N (r = 2(N - b)), and compute

* the physical subspace: the joint kernel of L_1, ..., L_N at level N
  (higher constraints act as zero there, so the stack is complete),
* the spurious subspace: the radical of the inner product restricted to
  the physical subspace, and
* the inertia (n_plus, n_minus, n_null) of the form on the physical
  subspace.

All three come from one elimination per :class:`LevelSpace`.  The monomial
basis is orthogonal, so the form is D = diag(<m, m>) with nonzero integer
entries.  One row reduction of the stacked L_1..L_N matrix A gives its r
independent rows R, and the physical subspace is ker R.  A, R and S below
are {column: entry} dict rows; no dense matrix is built.  Everything else
follows from the r x r Schur complement S = R D^-1 R^T of D in the
bordered matrix [[D, R^T], [R, 0]] (Haynsworth inertia additivity;
Chabrillac–Crouzeix 1984): the radical is D^-1 R^T ker S, and the
inertia on ker R is (n_plus(D) + n_minus(S) - r, n_minus(D) + n_plus(S) - r,
n_null(S)).  At d = 26, level 2, S is 27 x 27 where the physical Gram is
350 x 350.  The results carry three certificates.  A annihilates both
bases, one pass over the nonzeros of A.  The constraint rank is audited
by a second, fraction-free elimination of A (Bareiss), the costliest
step of the scan: at d = 26, level 3 it took 0.27 s of the 0.63 s row,
against 0.01 s for the rref, in one ``scripts/bench_noghost.py --repeat 1``
run on a shared 2-core machine.  The spurious basis has Gram signature
(0, 0, k): ``gram_signature`` builds their k x k Gram (k = 375 there)
and eliminates it after an independence check, which took 0.18 s of a
0.54 s row when timed inside one scan.  The physical basis is
read straight off R, one vector e_f - sum_i R[i][f] e_pivot(i) per free
column f, so it is the identity on the free columns by construction.

The no-ghost scan drives this pipeline over a (d, level) grid and reports
one row per point, each audited against itself first; the headline
structure is n_minus = 0 with the null directions exactly matching the
spurious subspace at d = 26, b = 1.

The momentum witness is closed-form and rational: for any rational r and
s != 0, p = ((r/s + s)/2, 0, ..., 0, (s - r/s)/2) has p^2 = -r and
p^0 + p^{d-1} = s.  By Lorentz invariance the counts on a shell do not
depend on which momentum of it is taken (Goddard–Thorn 1972), so one
witness per shell suffices and no search is made.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .ddf import DdfContext, ddf_state
from .fiber import Momentum, virasoro_apply
from .fock import (
    FockVector,
    ModelParams,
    inner_indefinite,
    iter_level_basis,
    monomial_norm,
)
from .linalg import (
    DependencyError,
    hermitian_signature,
    independence_check,
    kernel_basis,
    rank,
    rank_fraction_free,
    rref,
)

__all__ = [
    "DdfSpanReport",
    "InvariantError",
    "LevelSpace",
    "OffShellWarning",
    "OnShellMomentum",
    "PhysicalReport",
    "ddf_span_check",
    "find_onshell_momentum",
    "gram_signature",
    "noghost_csv",
    "noghost_scan",
    "physical_signature",
    "physical_subspace",
    "spurious_subspace",
]

CSV_FIELDS = (
    "d", "b", "level", "r", "dim_total", "dim_physical", "dim_spurious",
    "n_plus", "n_minus", "n_zero", "elapsed_ms",
)


class OffShellWarning(UserWarning):
    """Momentum does not sit on the shell matching the truncation level."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: two elimination routes
    disagree, or a result fails its certificate.  This is a fault of the
    program, not of the request."""


@dataclass(frozen=True)
class OnShellMomentum:
    """An exact witness for the shell p^2 + r = 0."""

    r: Fraction
    p: Momentum

    def __post_init__(self):
        if self.p.minkowski_sq() + self.r != 0:
            raise ValueError(f"momentum {self.p!r} is not on the r={self.r} shell")
        if self.r >= 0 and self.p[0] <= 0:
            raise ValueError("positive shell requires p^0 > 0")


# The stacked L_1..L_N matrix A as sparse columns [(row, entry), ...], and
# R, the independent dict rows of its rref, with their pivot columns.
Constraints = namedtuple("Constraints", "columns rows pivots")


class LevelSpace:
    """The level-N slice of one momentum fiber, with a fixed basis order.

    The constraint elimination and the Schur complement built from it are
    computed on first use and kept on the instance, so the physical basis,
    the spurious basis and the signature of one space share a single
    elimination.
    """

    def __init__(self, params: ModelParams, p: Momentum, level: int):
        if p.d != params.d:
            raise ValueError("momentum dimension does not match params")
        self.params = params
        self.p = p
        self.level = level
        self.basis = list(iter_level_basis(params, level))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def vector(self, entries) -> FockVector:
        """The vector with the given (index, coefficient) pairs in the
        fixed basis, all coefficients nonzero."""
        return FockVector({self.basis[j]: c for j, c in entries})

    @cached_property
    def norms(self) -> list:
        """The form on the basis, D = diag(<m, m>): integers, never zero."""
        return [monomial_norm(mono) for mono in self.basis]

    @cached_property
    def constraints(self) -> Constraints:
        """The one elimination of the stacked L_1..L_N matrix.

        The row echelon rank is audited by the fraction-free route.  L_m
        with m >= 1 does not involve the intercept, so neither does this.
        """
        matrix, columns = _stacked_constraint_matrix(self)
        if not matrix:
            return Constraints(columns, [], [])
        rows, pivots = rref(matrix)
        audit = rank_fraction_free(matrix)
        if audit != len(pivots):
            raise InvariantError(
                "elimination routes disagree on constraint rank: "
                f"{len(pivots)} vs {audit}"
            )
        return Constraints(columns, rows[:len(pivots)], pivots)

    @cached_property
    def reduced_columns(self) -> list:
        """R's nonzeros by column, [(row, entry), ...] per basis index."""
        out = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.constraints.rows):
            for k, a in row.items():
                out[k].append((i, a))
        return out

    @cached_property
    def schur(self) -> list:
        """S = R D^-1 R^T as r dict rows; -S is the Schur complement of D
        in the bordered matrix [[D, R^T], [R, 0]]."""
        out = [{} for _ in self.constraints.rows]
        for entries, norm in zip(self.reduced_columns, self.norms):
            for i, a in entries:
                scaled = a / norm
                for j, b in entries:
                    out[i][j] = out[i].get(j, 0) + scaled * b
        return out


@dataclass
class PhysicalReport:
    """One (d, level) row of the scan: dimensions and signature only, so
    no row's basis vectors outlive it."""

    d: int
    b: Fraction
    level: int
    r: Fraction
    dim_total: int
    dim_physical: int
    dim_spurious: int
    signature: tuple
    elapsed_ms: float

    def invariant_violations(self):
        """Audit the report against itself: the signature must sum to the
        physical dimension, and its null count (Bareiss on S) must equal
        the radical's dimension, the spurious one (rref kernel of S)."""
        out = []
        n_plus, n_minus, n_zero = self.signature
        if n_plus + n_minus + n_zero != self.dim_physical:
            out.append("signature does not sum to the physical dimension")
        if n_zero != self.dim_spurious:
            out.append("n_zero differs from the spurious dimension")
        return out


# -- the on-shell witness ------------------------------------------------------


def find_onshell_momentum(r, d: int) -> OnShellMomentum:
    """The rational witness ((r/s + s)/2, 0, ..., 0, (s - r/s)/2) for the
    shell p^2 + r = 0 in d >= 2 dimensions.

    Its lightcone part p^0 + p^{d-1} is s, with s = 2 for r > -4 and
    s = 2 - r otherwise, so p^0 > 0 on every shell.  The lightlike
    witness is (1, 0, ..., 0, 1), and r = 4 gives (2, 0, ..., 0).
    """
    r = Fraction(r)
    s = 2 if r > -4 else 2 - r
    comps = [(r / s + s) / 2] + [Fraction(0)] * (d - 2) + [(s - r / s) / 2]
    return OnShellMomentum(r, Momentum(comps))


# -- constraint kernels and Gram structure -----------------------------------


def _stacked_constraint_matrix(space: LevelSpace):
    """Rows {column: entry} of the stacked maps L_1..L_N in the fixed
    bases, column per level-N basis monomial, and the same entries as
    sparse columns [(row, entry), ...], filled in one pass.  L_m lands on
    level N - m, so a target monomial alone fixes its row."""
    row_of = {}
    for m in range(1, space.level + 1):
        for mono in iter_level_basis(space.params, space.level - m):
            row_of[mono] = len(row_of)
    rows = [{} for _ in row_of]
    columns = [[] for _ in space.basis]
    for j, mono in enumerate(space.basis):
        state = FockVector.basis_state(mono)
        for m in range(1, space.level + 1):
            for target, c in virasoro_apply(m, space.p, state,
                                            space.params).items():
                rows[row_of[target]][j] = c
                columns[j].append((row_of[target], c))
    return rows, columns


def _certify_annihilated(space: LevelSpace, vectors, what: str) -> None:
    """Raise InvariantError unless the stacked constraints kill every
    vector, given by its (index, coefficient) pairs; O(nnz)."""
    columns = space.constraints.columns
    for t, entries in enumerate(vectors):
        image = {}
        for j, c in entries:
            for i, a in columns[j]:
                image[i] = image.get(i, 0) + a * c
        if any(image.values()):
            raise InvariantError(
                f"{what} vector {t} is not annihilated by L_1..L_{space.level}"
            )


def physical_subspace(space: LevelSpace):
    """Exact basis of the constraint kernel at the space's level.

    The mass-shell part of the physical-state condition holds identically
    at level N exactly when p^2 = -2(N - b); off the shell the condition is
    empty, which is reported through :class:`OffShellWarning` together with
    an empty basis.

    The basis is read off the space's one elimination: for each free
    column f of R, the vector e_f - sum_i R[i][f] e_pivot(i).  These are
    the identity on the free columns, so they are independent, and with
    the rank audited by two routes they span the kernel once the stacked
    constraints are certified to annihilate them (A K = 0).
    """
    shell = space.p.minkowski_sq() + 2 * (space.level - space.params.b)
    if shell != 0:
        warnings.warn(
            f"momentum {space.p!r} is off the r=2(N-b) shell at level "
            f"{space.level} (p^2 + r = {shell}): physical space is empty",
            OffShellWarning,
            stacklevel=2,
        )
        return []
    pivots = space.constraints.pivots
    pivot_set = set(pivots)
    vectors = [
        sorted([(fc, Fraction(1))]
               + [(pivots[i], -a) for i, a in space.reduced_columns[fc]])
        for fc in range(space.dim) if fc not in pivot_set
    ]
    _certify_annihilated(space, vectors, "physical")
    return [space.vector(entries) for entries in vectors]


def _gram(vectors):
    return [{j: x for j, v in enumerate(vectors) if (x := inner_indefinite(u, v))}
            for u in vectors]


def spurious_subspace(physical, space: LevelSpace):
    """Radical of the inner product on the physical subspace.

    Every returned vector is physical and orthogonal to all of the physical
    subspace — in particular to itself.  ``physical`` must span the
    space's constraint kernel (an empty list, off the shell, gives an
    empty radical).

    With D the diagonal form on the monomial basis and R the independent
    constraint rows, x is in the radical iff D x lies in the row space of
    R and R x = 0, i.e. x = D^-1 R^T y with S y = 0 for the small
    Schur complement S = R D^-1 R^T.  The result is certified: the
    constraints annihilate it, and its own Gram signature is (0, 0, k),
    which also proves it independent.
    """
    if not physical:
        return []
    ys = kernel_basis(space.schur, ncols=len(space.constraints.rows))
    by_row = {}
    for t, y in enumerate(ys):
        for i, yi in enumerate(y):
            if yi:
                by_row.setdefault(i, []).append((t, yi))
    images = [{} for _ in ys]
    for k, entries in enumerate(space.reduced_columns):
        for i, a in entries:
            for t, yi in by_row.get(i, ()):
                images[t][k] = images[t].get(k, 0) + a * yi
    vectors = [[(k, c / space.norms[k]) for k, c in x.items() if c]
               for x in images]
    _certify_annihilated(space, vectors, "spurious")
    out = [space.vector(entries) for entries in vectors]
    try:
        signature = gram_signature(out)
    except DependencyError as exc:
        raise InvariantError("spurious vectors are linearly dependent") from exc
    if signature != (0, 0, len(out)):
        raise InvariantError(f"spurious vectors are not null: {signature}")
    return out


def physical_signature(space: LevelSpace):
    """Exact inertia (n_plus, n_minus, n_null) of the form on the
    constraint kernel, from the bordered matrix [[D, R^T], [R, 0]].

    R has full row rank r, so the bordered inertia is the kernel's plus
    (r, r, 0) (Chabrillac–Crouzeix 1984); by Haynsworth additivity it is
    also In(D) + In(-S) with S = R D^-1 R^T.  Hence the kernel has
    (n_plus(D) + n_minus(S) - r, n_minus(D) + n_plus(S) - r, n_null(S)),
    and only the r x r matrix S is ever eliminated.
    """
    r = len(space.constraints.rows)
    s_plus, s_minus, s_null = hermitian_signature(space.schur)
    d_plus = sum(1 for norm in space.norms if norm > 0)
    d_minus = space.dim - d_plus
    return (d_plus + s_minus - r, d_minus + s_plus - r, s_null)


def gram_signature(vectors):
    """Exact inertia (n_plus, n_minus, n_null) of the span of ``vectors``.

    The input must be linearly independent — checked, with a dependency
    witness on failure — so that the answer is a property of the subspace
    (Sylvester) rather than of the presentation.  This is the generic
    Gram route, for arbitrary vectors; the scan reads the signature of a
    whole constraint kernel off :func:`physical_signature` instead.
    """
    if not vectors:
        return (0, 0, 0)
    independence_check([v.terms for v in vectors])
    return hermitian_signature(_gram(vectors))


# -- the scan -----------------------------------------------------------------


def noghost_scan(d_list, b=Fraction(1), max_level: int = 2):
    """One :class:`PhysicalReport` per (d, level) grid point.

    Produces, for each dimension and truncation level, the exact dimensions
    and the exact inertia of the form on the physical subspace, read off
    the bordered constraint matrix (see the module docstring); the Gram of
    the physical basis is never built.  Each report records its wall time
    in ``elapsed_ms``, and any ``invariant_violations`` raise
    :class:`InvariantError`.  Level 3 at d = 26 is a 377 -> 3978 jump in
    dimension, with 404 constraint rows; that row took 0.63 s, 0.27 s of
    it in the rank audit, against 0.01 s for level 2 (``scan.row_s`` and
    ``constraint_rank`` of one ``scripts/bench_noghost.py --repeat 1`` run
    on a shared 2-core machine).
    """
    b = Fraction(b)
    reports = []
    for d in d_list:
        params = ModelParams(d=d, b=b)
        for level in range(max_level + 1):
            start = time.perf_counter()
            r = 2 * (level - b)
            shell = find_onshell_momentum(r, d)
            space = LevelSpace(params, shell.p, level)
            physical = physical_subspace(space)
            spurious = spurious_subspace(physical, space)
            sig = physical_signature(space)
            report = PhysicalReport(
                d=d, b=b, level=level, r=r,
                dim_total=space.dim, dim_physical=len(physical),
                dim_spurious=len(spurious), signature=sig,
                elapsed_ms=(time.perf_counter() - start) * 1000.0,
            )
            if violations := report.invariant_violations():
                raise InvariantError(
                    f"d={d}, level={level}: " + "; ".join(violations))
            reports.append(report)
    return reports


def noghost_csv(reports, *, timings: bool = False) -> str:
    """Render scan reports as CSV; byte-stable unless timings are opted in."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for rep in reports:
        n_plus, n_minus, n_zero = rep.signature
        elapsed = f"{rep.elapsed_ms:.1f}" if timings else ""
        writer.writerow([
            rep.d, rep.b, rep.level, rep.r, rep.dim_total,
            rep.dim_physical, rep.dim_spurious,
            n_plus, n_minus, n_zero, elapsed,
        ])
    return buf.getvalue()


# -- DDF span inside the kernel ------------------------------------------------


@dataclass
class DdfSpanReport:
    level: int
    momentum: Momentum
    words: list
    all_physical: bool
    failures: list
    rank: int
    dim_physical: int


def _words_of_weight(weight: int, n_transverse: int):
    """All multisets of (direction, mode) pairs with total mode weight.

    These are the level-``weight`` monomials of the model with
    ``n_transverse + 2`` directions that avoid the light-cone directions 0
    and ``n_transverse + 1``, each factor relabelled (direction, mode) and
    the word sorted, so every word lowers along 1..n_transverse only.
    """
    return [tuple(sorted((mu, n) for n, mu in mono))
            for mono in iter_level_basis(ModelParams(n_transverse + 2), weight)
            if all(0 < mu <= n_transverse for _, mu in mono)]


def ddf_span_check(level: int, ctx: DdfContext) -> DdfSpanReport:
    """Verify DDF words of total weight ``level`` are physical; report rank.

    Membership in the physical subspace is checked directly — L_m psi = 0
    exactly for 1 <= m <= level — which is the kernel's defining property.
    The span rank is read off the word Gram when the Gram is nondegenerate
    (the generic case: transverse words are mutually orthogonal with
    positive norms, making the Gram diagonal and elimination near-free);
    a degenerate Gram falls back to eliminating coordinate rows, since a
    radical in the span would make the Gram rank undercount.
    """
    params = ctx.params
    p = ctx.p
    shell = p.minkowski_sq() + 2 * (level - params.b)
    if shell != 0:
        raise ValueError(
            f"momentum is off the level-{level} shell (p^2 + r = {shell})"
        )
    space = LevelSpace(params, p, level)
    words = _words_of_weight(level, params.d - 2)
    states = []
    failures = []
    for word in words:
        psi = ddf_state(list(word), ctx)
        states.append(psi)
        for m in range(1, level + 1):
            if virasoro_apply(m, p, psi, params):
                failures.append((word, m))
    gram = _gram(states)
    gram_rank = len(gram) - len(kernel_basis(gram, ncols=len(gram)))
    if gram_rank == len(states):
        span_rank = gram_rank
    else:
        span_rank = rank([psi.terms for psi in states])
    dim_physical = len(physical_subspace(space))
    return DdfSpanReport(
        level=level, momentum=p, words=words,
        all_physical=not failures, failures=failures,
        rank=span_rank, dim_physical=dim_physical,
    )
