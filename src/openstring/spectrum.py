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
independent rows R, and the physical subspace is ker R.  Everything else
follows from the r x r Schur complement S = R D^-1 R^dagger of D in the
bordered matrix [[D, R^dagger], [R, 0]] (Haynsworth inertia additivity;
Chabrillac–Crouzeix 1984): the radical is D^-1 R^dagger ker S, and the
inertia on ker R is (n_plus(D) + n_minus(S) - r, n_minus(D) + n_plus(S) - r,
n_null(S)).  At d = 26, level 2, S is 27 x 27 where the physical Gram is
350 x 350.  The results carry cheap certificates instead of second
eliminations: the constraint rank is audited by the fraction-free route,
A annihilates both bases, the physical basis is the identity on the free
columns, and the spurious basis has Gram signature (0, 0, k).

The no-ghost scan drives this pipeline over a (d, level) grid and reports
one row per point; the headline structure is n_minus = 0 with the null
directions exactly matching the spurious subspace at d = 26, b = 1.

Momentum witnesses prefer small integer components.  The deterministic
rule: minimal p^0 >= 1 first (equivalently minimal Euclidean norm on the
shell), then the lexicographically smallest nonnegative spatial vector,
decided by a sum-of-squares feasibility oracle.  When no integer point
exists — wrong parity, a three-square obstruction at every p^0 within the
search bound, or fractional r — the momentum is extended by a single
quadratic surd, p^0 = sqrt(|vec p|^2 + r), and all arithmetic downstream
stays exact.
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .ddf import DdfContext, ddf_state
from .exactnum import conjugate, real_sign, sqrt_fraction
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
        if self.r >= 0 and real_sign(self.p[0]) <= 0:
            raise ValueError("positive shell requires p^0 > 0")


# The stacked L_1..L_N matrix A as sparse columns [(row, entry), ...], and
# R, the independent rows of its rref, with their pivot columns.
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
        self._index = {mono: j for j, mono in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coordinates(self, v: FockVector):
        """Coordinate list of a level-homogeneous vector in the fixed basis."""
        coords = [Fraction(0)] * self.dim
        for mono, c in v.items():
            coords[self._index[mono]] = c
        return coords

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
        matrix = _stacked_constraint_matrix(self, self.params)
        columns = [[] for _ in range(self.dim)]
        for i, row in enumerate(matrix):
            for j, a in enumerate(row):
                if a:
                    columns[j].append((i, a))
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
    def schur(self) -> list:
        """S = R D^-1 R^dagger, r x r; -S is the Schur complement of D in
        the bordered matrix [[D, R^dagger], [R, 0]]."""
        rows = self.constraints.rows
        by_column = {}
        for i, row in enumerate(rows):
            for k, a in enumerate(row):
                if a:
                    by_column.setdefault(k, []).append((i, a))
        out = [[Fraction(0)] * len(rows) for _ in rows]
        for k, entries in by_column.items():
            norm = self.norms[k]
            for i, a in entries:
                scaled = a / norm
                for j, b in entries:
                    out[i][j] += scaled * conjugate(b)
        return out


@dataclass
class PhysicalReport:
    d: int
    b: Fraction
    level: int
    r: Fraction
    momentum: Momentum
    dim_total: int
    dim_physical: int
    dim_spurious: int
    signature: tuple
    physical: list = field(repr=False)
    spurious: list = field(repr=False)
    elapsed_ms: float | None = None

    def invariant_violations(self):
        """Audit the report against itself: the signature must sum to the
        physical dimension, and its null count must cover the spurious
        dimension."""
        out = []
        n_plus, n_minus, n_zero = self.signature
        if n_plus + n_minus + n_zero != self.dim_physical:
            out.append("signature does not sum to the physical dimension")
        if n_zero < self.dim_spurious:
            out.append("n_zero smaller than the spurious dimension")
        return out


# -- on-shell momentum search ------------------------------------------------


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _two_squares(n: int) -> bool:
    # classic criterion: every prime = 3 (mod 4) divides n to an even power
    if n < 0:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if p % 4 == 3 and e % 2:
                return False
        p += 1
    return n % 4 != 3


def _three_squares(n: int) -> bool:
    if n < 0:
        return False
    while n % 4 == 0 and n > 0:
        n //= 4
    return n % 8 != 7


def _sum_of_squares_exists(n: int, k: int) -> bool:
    if n < 0:
        return False
    if k == 0:
        return n == 0
    if k == 1:
        return _is_square(n)
    if k == 2:
        return _two_squares(n)
    if k == 3:
        return _three_squares(n)
    return True  # Lagrange


def _lex_min_squares(total: int, slots: int):
    """Lexicographically smallest nonnegative integers with given square sum.

    Greedy front-to-back choice against the feasibility oracle; returns None
    when no representation exists.
    """
    if not _sum_of_squares_exists(total, slots):
        return None
    out = []
    for j in range(slots):
        rest = slots - j - 1
        v = 0
        while not _sum_of_squares_exists(total - v * v, rest):
            v += 1
        out.append(v)
        total -= v * v
    return out


def find_onshell_momentum(r, d: int, search_bound: int = 6) -> OnShellMomentum:
    """Deterministic smallest exact momentum with p^2 + r = 0.

    Integer lane: the shell forces |vec p|^2 = (p^0)^2 - r, so walk
    p^0 = 1..search_bound and take the first representable spatial square
    sum, realized lexicographically minimally.  Components are nonnegative,
    hence p^0 + p^{d-1} > 0 automatically.  Falls back to a momentum with
    p^0 = sqrt(|vec p|^2 + r) in a real quadratic extension when the integer
    lane is empty (this always succeeds).
    """
    if search_bound < 1:
        raise ValueError("search_bound must be at least 1")
    r = Fraction(r)
    if r.denominator == 1:
        for p0 in range(1, search_bound + 1):
            spatial = _lex_min_squares(p0 * p0 - int(r), d - 1)
            if spatial is not None:
                comps = [Fraction(p0)] + [Fraction(v) for v in spatial]
                return OnShellMomentum(r, Momentum(comps))
    # quadratic-extension fallback: smallest spatial square sum with
    # |vec p|^2 + r > 0, then adjoin the surd for p^0
    m = 0
    while m + r <= 0:
        m += 1
    spatial = _lex_min_squares(m, d - 1)
    while spatial is None:  # three-square obstruction: bump the square sum
        m += 1
        while m + r <= 0:
            m += 1
        spatial = _lex_min_squares(m, d - 1)
    p0 = sqrt_fraction(m + r)
    comps = [p0] + [Fraction(v) for v in spatial]
    return OnShellMomentum(r, Momentum(comps))


# -- constraint kernels and Gram structure -----------------------------------


def _stacked_constraint_matrix(space: LevelSpace, params: ModelParams):
    """Rows of the stacked maps L_1..L_N in the fixed bases, column per
    level-N basis monomial."""
    n = space.level
    lower = {m: list(iter_level_basis(params, n - m)) for m in range(1, n + 1)}
    lower_index = {
        m: {mono: i for i, mono in enumerate(monos)} for m, monos in lower.items()
    }
    rows = [
        [Fraction(0)] * space.dim
        for m in range(1, n + 1)
        for _ in lower[m]
    ]
    offsets = {}
    acc = 0
    for m in range(1, n + 1):
        offsets[m] = acc
        acc += len(lower[m])
    for j, mono in enumerate(space.basis):
        state = FockVector.basis_state(mono)
        for m in range(1, n + 1):
            image = virasoro_apply(m, space.p, state, params)
            for target, c in image.items():
                rows[offsets[m] + lower_index[m][target]][j] = c
    return rows


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


def physical_subspace(space: LevelSpace, b=None):
    """Exact basis of the constraint kernel at the space's level.

    The mass-shell part of the physical-state condition holds identically
    at level N exactly when p^2 = -2(N - b); off the shell the condition is
    empty, which is reported through :class:`OffShellWarning` together with
    an empty basis.

    The basis is read off the space's one elimination and certified: every
    vector is annihilated by the stacked constraints (A K = 0), and on the
    free columns the vectors form the identity, so they are independent;
    with the rank audited by two routes, they span the kernel.
    """
    params = space.params
    if b is not None and b != params.b:
        params = ModelParams(d=params.d, b=b)
    shell = space.p.minkowski_sq() + 2 * (space.level - params.b)
    if shell != 0:
        warnings.warn(
            f"momentum {space.p!r} is off the r=2(N-b) shell at level "
            f"{space.level} (p^2 + r = {shell}): physical space is empty",
            OffShellWarning,
            stacklevel=2,
        )
        return []
    pivots = space.constraints.pivots
    coords = kernel_basis(space.constraints.rows, ncols=space.dim)
    pivot_set = set(pivots)
    free = [c for c in range(space.dim) if c not in pivot_set]
    if len(coords) != len(free):
        raise InvariantError(
            f"kernel has {len(coords)} vectors, expected {len(free)}"
        )
    vectors = [[(j, c) for j, c in enumerate(vec) if c] for vec in coords]
    for t, (fc, entries) in enumerate(zip(free, vectors)):
        if [(j, c) for j, c in entries if j not in pivot_set] != [(fc, 1)]:
            raise InvariantError(
                f"physical vector {t} is not the identity on the free columns"
            )
    _certify_annihilated(space, vectors, "physical")
    return [space.vector(entries) for entries in vectors]


def _gram(vectors):
    return [[inner_indefinite(u, v) for v in vectors] for u in vectors]


def spurious_subspace(physical, space: LevelSpace):
    """Radical of the inner product on the physical subspace.

    Every returned vector is physical and orthogonal to all of the physical
    subspace — in particular to itself.  ``physical`` must span the
    space's constraint kernel (an empty list, off the shell, gives an
    empty radical).

    With D the diagonal form on the monomial basis and R the independent
    constraint rows, x is in the radical iff D x lies in the row space of
    R and R x = 0, i.e. x = D^-1 R^dagger y with S y = 0 for the small
    Schur complement S = R D^-1 R^dagger.  The result is certified: the
    constraints annihilate it, and its own Gram signature is (0, 0, k),
    which also proves it independent.
    """
    if not physical:
        return []
    rows = space.constraints.rows
    vectors = []
    for y in kernel_basis(space.schur, ncols=len(rows)):
        x = {}
        for yi, row in zip(y, rows):
            if yi:
                for k, a in enumerate(row):
                    if a:
                        x[k] = x.get(k, 0) + conjugate(a) * yi
        vectors.append([(k, c / space.norms[k])
                        for k, c in sorted(x.items()) if c])
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
    constraint kernel, from the bordered matrix [[D, R^dagger], [R, 0]].

    R has full row rank r, so the bordered inertia is the kernel's plus
    (r, r, 0) (Chabrillac–Crouzeix 1984); by Haynsworth additivity it is
    also In(D) + In(-S) with S = R D^-1 R^dagger.  Hence the kernel has
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
    monos = sorted({mono for v in vectors for mono in dict(v.items())})
    index = {mono: j for j, mono in enumerate(monos)}
    coord_rows = []
    for v in vectors:
        row = [Fraction(0)] * len(monos)
        for mono, c in v.items():
            row[index[mono]] = c
        coord_rows.append(row)
    independence_check(coord_rows)
    return hermitian_signature(_gram(vectors))


# -- the scan -----------------------------------------------------------------


def noghost_scan(d_list, b=Fraction(1), max_level: int = 2, *,
                 timings: bool = False, search_bound: int = 6):
    """One :class:`PhysicalReport` per (d, level) grid point.

    Produces, for each dimension and truncation level, the exact dimensions
    and the exact inertia of the form on the physical subspace, read off
    the bordered constraint matrix (see the module docstring); the Gram of
    the physical basis is never built.  Level 3 at d = 26 is a 377 -> 3978
    jump in dimension, with 404 constraint rows; that row took about 8 s
    (against 0.06 s for level 2) on a shared 2-core machine.
    """
    b = Fraction(b)
    reports = []
    for d in d_list:
        params = ModelParams(d=d, b=b)
        for level in range(max_level + 1):
            start = time.perf_counter() if timings else None
            r = 2 * (level - b)
            shell = find_onshell_momentum(r, d, search_bound)
            space = LevelSpace(params, shell.p, level)
            physical = physical_subspace(space)
            spurious = spurious_subspace(physical, space)
            sig = physical_signature(space)
            elapsed = (
                (time.perf_counter() - start) * 1000.0 if timings else None
            )
            reports.append(PhysicalReport(
                d=d, b=b, level=level, r=r, momentum=shell.p,
                dim_total=space.dim, dim_physical=len(physical),
                dim_spurious=len(spurious), signature=sig,
                physical=physical, spurious=spurious, elapsed_ms=elapsed,
            ))
    return reports


def noghost_csv(reports, *, timings: bool = False) -> str:
    """Render scan reports as CSV; byte-stable unless timings are opted in."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for rep in reports:
        n_plus, n_minus, n_zero = rep.signature
        elapsed = ""
        if timings and rep.elapsed_ms is not None:
            elapsed = f"{rep.elapsed_ms:.1f}"
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
    """All multisets of (direction, mode) pairs with total mode weight."""
    out = []

    def extend(prefix, remaining, floor):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for n in range(1, remaining + 1):
            for i in range(1, n_transverse + 1):
                if (i, n) < floor:
                    continue
                extend(prefix + [(i, n)], remaining - n, (i, n))

    extend([], weight, (0, 0))
    return out


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
        span_rank = rank([space.coordinates(psi) for psi in states])
    dim_physical = len(physical_subspace(space))
    return DdfSpanReport(
        level=level, momentum=p, words=words,
        all_physical=not failures, failures=failures,
        rank=span_rank, dim_physical=dim_physical,
    )
