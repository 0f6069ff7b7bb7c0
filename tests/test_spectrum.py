"""Physical-state machinery tests.

The frozen dimension/signature tables below were produced by the pipeline
itself and cross-checked structurally: total dims against the free-boson
level counting, physical dims against dim - rank with dual eliminations,
n_plus against the independently constructed transverse word span, n_zero
against the radical dimension, and n_minus = 0 against the no-ghost
statement for every d <= 26 probed.
"""

import math
import random
from fractions import Fraction

import pytest

from openstring.ddf import DdfContext
from openstring.fiber import Momentum, virasoro_apply
from openstring.fock import (
    FockVector,
    ModelParams,
    inner_indefinite,
    iter_level_basis,
)
from openstring.linalg import DependencyError, rank
from openstring.spectrum import (
    InvariantError,
    LevelSpace,
    OffShellWarning,
    OnShellMomentum,
    _words_of_weight,
    ddf_span_check,
    find_onshell_momentum,
    gram_signature,
    noghost_csv,
    noghost_scan,
    physical_signature,
    physical_subspace,
    spurious_subspace,
)

from .oracles import gram_route

P4 = ModelParams(d=4)
P26 = ModelParams(d=26)


def frac_mom(*comps):
    return Momentum(tuple(map(Fraction, comps)))


class TestOnShellSearch:
    def test_lightlike_witness(self):
        # smallest lightlike momentum is the pure lightcone one
        for d in (4, 10, 26):
            p = find_onshell_momentum(0, d).p
            assert p.components == tuple(
                Fraction(1 if mu in (0, d - 1) else 0) for mu in range(d)
            )

    def test_shell_and_lightcone_posts(self):
        for d in (4, 5, 10, 26):
            for r in (-4, -2, 0, 2, 4, 6, Fraction(1, 2), Fraction(-3, 2)):
                m = find_onshell_momentum(r, d)
                assert m.p.minkowski_sq() + Fraction(r) == 0
                assert m.p.lightcone() != 0
                # positive shell even where not required
                assert m.p[0] > 0

    @pytest.mark.parametrize("r,p0,p3,s", [
        (-6, "29/8", "35/8", 8), (-2, "1/2", "3/2", 2), (0, 1, 1, 2),
        (2, "3/2", "1/2", 2), (4, 2, 0, 2), ("1/2", "9/8", "7/8", 2),
        ("-3/2", "5/8", "11/8", 2),
    ])
    def test_closed_form_witness(self, r, p0, p3, s):
        # ((r/s + s)/2, 0, 0, (s - r/s)/2) with s = 2, or 2 - r for r <= -4
        p = find_onshell_momentum(Fraction(r), 4).p
        assert p == frac_mom(p0, 0, 0, p3)
        assert p[0] > 0 and p.lightcone() == s

    def test_witness_type_validates(self):
        with pytest.raises(ValueError):
            OnShellMomentum(Fraction(0), frac_mom(1, 0, 0, 2))
        with pytest.raises(ValueError):
            OnShellMomentum(Fraction(0), frac_mom(-1, 0, 0, 1))


class TestLevelSpace:
    def test_dims_match_level_counting(self):
        p = frac_mom(1, 0, 0, 1)
        for level, dim in [(0, 1), (1, 4), (2, 14), (3, 40)]:
            assert LevelSpace(P4, p, level).dim == dim

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LevelSpace(P4, Momentum((Fraction(1), Fraction(1))), 1)


class TestPhysicalSubspace:
    def test_level_zero_is_vacuum_line(self):
        p = find_onshell_momentum(-2, 4).p
        basis = physical_subspace(LevelSpace(P4, p, 0))
        assert len(basis) == 1
        assert dict(basis[0].items()) == {(): Fraction(1)}

    @pytest.mark.parametrize("d", [4, 10, 26])
    def test_level_one_kernel_has_codimension_one(self, d):
        params = ModelParams(d=d)
        p = find_onshell_momentum(0, d).p
        basis = physical_subspace(LevelSpace(params, p, 1))
        assert len(basis) == d - 1
        for v in basis:
            assert not virasoro_apply(1, p, v, params)

    def test_level_two_kernel_members_satisfy_all_constraints(self):
        p = find_onshell_momentum(2, 4).p
        basis = physical_subspace(LevelSpace(P4, p, 2))
        assert len(basis) == 9
        for v in basis:
            for m in (1, 2):
                assert not virasoro_apply(m, p, v, P4)

    def test_off_shell_reports_empty_with_diagnostic(self):
        space = LevelSpace(P4, frac_mom(5, 0, 0, 1), 1)
        with pytest.warns(OffShellWarning):
            assert physical_subspace(space) == []

    def test_b_override_changes_the_shell(self):
        # the same level-1 space is on-shell for b=0 at r=2
        p = find_onshell_momentum(2, 4).p
        space = LevelSpace(ModelParams(d=4, b=0), p, 1)
        basis = physical_subspace(space)
        assert len(basis) == 3


class TestSpuriousSubspace:
    def test_level_zero_empty(self):
        p = find_onshell_momentum(-2, 4).p
        space = LevelSpace(P4, p, 0)
        assert spurious_subspace(physical_subspace(space), space) == []

    def test_level_one_radical_is_the_momentum_direction(self):
        p = find_onshell_momentum(0, 26).p
        space = LevelSpace(P26, p, 1)
        physical = physical_subspace(space)
        spurious = spurious_subspace(physical, space)
        assert len(spurious) == 1
        null = spurious[0]
        # isotropic and orthogonal to everything physical
        assert inner_indefinite(null, null) == 0
        assert all(inner_indefinite(null, v) == 0 for v in physical)
        # structurally: proportional to p.alpha_{-1} acting on the vacuum
        direction = FockVector()
        for mu in range(26):
            c = p[mu] if mu else -p[mu]
            if c:
                direction.add_term(((1, mu),), c)
        coords = sorted({m for m in dict(null.items())} | {m for m in dict(direction.items())})
        rows = []
        for v in (null, direction):
            d = dict(v.items())
            rows.append([d.get(mono, Fraction(0)) for mono in coords])
        from openstring.linalg import rank
        assert rank(rows) == 1


class TestGramSignature:
    def test_vacuum_line(self):
        assert gram_signature([FockVector.vacuum()]) == (1, 0, 0)

    def test_time_space_pair(self):
        t = FockVector.basis_state(((1, 0),))
        x = FockVector.basis_state(((1, 1),))
        assert gram_signature([t, x]) == (1, 1, 0)

    def test_empty_input(self):
        assert gram_signature([]) == (0, 0, 0)

    def test_dependent_input_rejected_with_witness(self):
        v = FockVector.basis_state(((1, 1),))
        with pytest.raises(DependencyError) as exc:
            gram_signature([v, v.scaled(2)])
        witness = exc.value.witness
        assert any(witness)

    def test_sylvester_invariance_under_congruence(self):
        rng = random.Random(31)
        p = find_onshell_momentum(0, 4).p
        basis = physical_subspace(LevelSpace(P4, p, 1))
        sig = gram_signature(basis)
        for _ in range(3):
            while True:
                mat = [[Fraction(rng.randint(-3, 3)) for _ in basis] for _ in basis]
                from openstring.linalg import rank
                if rank(mat) == len(basis):
                    break
            transformed = []
            for row in mat:
                v = FockVector()
                for c, b_vec in zip(row, basis):
                    for mono, a in b_vec.items():
                        v.add_term(mono, c * a)
                transformed.append(v)
            assert gram_signature(transformed) == sig


class TestNoGhostScan:
    def test_frozen_d4_table(self):
        reps = noghost_scan([4], max_level=2)
        table = [(r.level, r.dim_total, r.dim_physical, r.dim_spurious, r.signature)
                 for r in reps]
        assert table == [
            (0, 1, 1, 0, (1, 0, 0)),
            (1, 4, 3, 1, (2, 0, 1)),
            (2, 14, 9, 3, (6, 0, 3)),
        ]

    def test_frozen_d10_table(self):
        reps = noghost_scan([10], max_level=2)
        table = [(r.level, r.dim_physical, r.dim_spurious, r.signature) for r in reps]
        assert table == [
            (0, 1, 0, (1, 0, 0)),
            (1, 9, 1, (8, 0, 1)),
            (2, 54, 9, (45, 0, 9)),
        ]

    def test_frozen_d26_table(self):
        # the headline: no negative directions, radical = spurious exactly
        reps = noghost_scan([26], max_level=2)
        table = [(r.level, r.dim_total, r.dim_physical, r.dim_spurious, r.signature)
                 for r in reps]
        assert table == [
            (0, 1, 1, 0, (1, 0, 0)),
            (1, 26, 25, 1, (24, 0, 1)),
            (2, 377, 350, 26, (324, 0, 26)),
        ]
        assert all(not r.invariant_violations() for r in reps)

    def test_d26_level_three_row(self):
        # n_plus is p_24(3), the q^3 coefficient of prod (1-q^n)^-24:
        # 24 colors of mode 3, 24 x 24 of modes 2 + 1, C(26, 3) of 1 + 1 + 1
        assert 24 + 24 * 24 + math.comb(26, 3) == 3200
        rep = noghost_scan([26], max_level=3)[3]
        assert (rep.dim_total, rep.dim_physical, rep.dim_spurious,
                rep.signature) == (3978, 3575, 375, (3200, 0, 375))
        assert not rep.invariant_violations()

    def test_no_negative_norms_below_critical_dimension(self):
        for rep in noghost_scan([4, 10], max_level=2):
            assert rep.signature[1] == 0
            assert rep.signature[2] == rep.dim_spurious
            assert not rep.invariant_violations()

    def test_unshifted_scan_has_no_radical(self):
        # b = 0 puts every level on a massive or lightlike shell with a
        # positive definite physical Gram
        reps = noghost_scan([4], b=0, max_level=2)
        table = [(r.level, r.r, r.dim_physical, r.dim_spurious, r.signature)
                 for r in reps]
        assert table == [
            (0, 0, 1, 0, (1, 0, 0)),
            (1, 2, 3, 0, (3, 0, 0)),
            (2, 4, 9, 0, (9, 0, 0)),
        ]

    def test_csv_bytes_stable(self):
        reps = noghost_scan([4], max_level=1)
        assert noghost_csv(reps) == (
            "d,b,level,r,dim_total,dim_physical,dim_spurious,"
            "n_plus,n_minus,n_zero,elapsed_ms\n"
            "4,1,0,-2,1,1,0,1,0,0,\n"
            "4,1,1,0,4,3,1,2,0,1,\n"
        )

    def test_csv_timings_opt_in(self):
        reps = noghost_scan([4], max_level=0)
        out = noghost_csv(reps, timings=True)
        last_field = out.splitlines()[1].split(",")[-1]
        assert last_field and float(last_field) >= 0.0

    def test_report_flags_inconsistency(self):
        rep = noghost_scan([4], max_level=0)[0]
        rep.signature = (0, 0, 0)
        assert rep.invariant_violations()

    def test_report_flags_null_count_above_spurious_dimension(self):
        # the null count of the form on ker A is the radical's dimension,
        # so it may not exceed the spurious dimension either
        rep = noghost_scan([4], max_level=1)[1]
        n_plus, n_minus, n_zero = rep.signature
        rep.signature = (n_plus - 1, n_minus, n_zero + 1)
        assert rep.invariant_violations() == [
            "n_zero differs from the spurious dimension"]


# d <= 5 to level 3, d = 6 and 10 to level 2, at integer and half-integer
# intercepts; every witness here is rational
BORDERED_GRID = [
    (d, b, level)
    for d in (2, 3, 4, 5, 6, 10)
    for b in ("0", "1/2", "1", "3/2")
    for level in range(4 if d <= 5 else 3)
]

# six d = 2 points of the grid again, on a second rational momentum of the
# same shell r = 2(level - b): (t, x) with t - x = s and t + x = r/s, so
# that the route also runs end to end off the witness; entries
# (d, b, level, s)
SHELL_POINTS = [
    (2, "0", 1, "1/2"), (2, "0", 3, "1/2"), (2, "1/2", 0, "3"),
    (2, "1", 0, "3"), (2, "1", 2, "1/2"), (2, "3/2", 1, "1/2"),
]


def _bordered_cases():
    for d, b, level in BORDERED_GRID:
        yield pytest.param(d, b, level, None, id=f"{d}-{b}-{level}")
    for d, b, level, s in SHELL_POINTS:
        r, s = 2 * (level - Fraction(b)), Fraction(s)
        p = Momentum(((s + r / s) / 2, (r / s - s) / 2))
        yield pytest.param(d, b, level, p, id=f"{d}-{b}-{level}-off-witness")


def _on_shell_space(d, b, level, p=None):
    b = Fraction(b)
    r = 2 * (level - b)
    p = find_onshell_momentum(r, d).p if p is None else OnShellMomentum(r, p).p
    return LevelSpace(ModelParams(d=d, b=b), p, level)


class TestBorderedRoute:
    @pytest.mark.parametrize("d,b,level,p", _bordered_cases())
    def test_agrees_with_gram_route(self, d, b, level, p):
        space = _on_shell_space(d, b, level, p)
        witness = find_onshell_momentum(2 * (level - Fraction(b)), d).p
        assert (space.p == witness) == (p is None)
        physical = physical_subspace(space)
        spurious = spurious_subspace(physical, space)
        radical, signature = gram_route(physical)
        assert physical_signature(space) == signature
        assert len(spurious) == len(radical)
        if radical:
            assert rank([v.terms for v in spurious + radical]) == len(radical)

    def test_one_elimination_per_space(self, monkeypatch):
        from openstring import spectrum

        calls = []
        original = spectrum.rref

        def counting(matrix):
            calls.append(len(matrix))
            return original(matrix)

        monkeypatch.setattr(spectrum, "rref", counting)
        space = _on_shell_space(4, "1", 2)
        physical = physical_subspace(space)
        spurious_subspace(physical, space)
        physical_signature(space)
        assert len(calls) == 1

    def test_constraints_are_eliminated_as_dict_rows(self, monkeypatch):
        # both routes get sparse rows, so no dense matrix creeps back in
        from openstring import spectrum

        seen = []
        for name in ("rref", "rank_fraction_free"):
            def spy(matrix, _original=getattr(spectrum, name), _name=name):
                seen.append((_name, len(matrix),
                             all(isinstance(row, dict) for row in matrix)))
                return _original(matrix)

            monkeypatch.setattr(spectrum, name, spy)
        space = _on_shell_space(4, "1", 2)
        space.constraints
        rows = 4 + 1  # L_1 onto level 1, L_2 onto level 0
        assert seen == [("rref", rows, True),
                        ("rank_fraction_free", rows, True)]

    def test_tampered_constraint_rows_fail_the_kernel_certificate(self):
        space = _on_shell_space(4, "1", 2)
        rows = [dict(row) for row in space.constraints.rows]
        free = next(c for c in range(space.dim)
                    if c not in space.constraints.pivots)
        rows[0][free] = rows[0].get(free, 0) + 1
        space.constraints = space.constraints._replace(rows=rows)
        with pytest.raises(InvariantError, match="not annihilated"):
            physical_subspace(space)

    def test_tampered_schur_fails_the_spurious_certificate(self):
        space = _on_shell_space(4, "1", 2)
        physical = physical_subspace(space)
        # S = 0 makes every D^-1 R^dagger y "spurious"; none is physical
        space.schur = [[Fraction(0)] * len(row) for row in space.schur]
        with pytest.raises(InvariantError, match="not annihilated"):
            spurious_subspace(physical, space)

    def test_dependent_spurious_vectors_are_refused(self, monkeypatch):
        from openstring import spectrum

        space = _on_shell_space(4, "1", 2)
        physical = physical_subspace(space)
        original = spectrum.kernel_basis

        def doubled(matrix, ncols=None):
            basis = original(matrix, ncols)
            return basis + basis[:1] if matrix is space.schur else basis

        monkeypatch.setattr(spectrum, "kernel_basis", doubled)
        with pytest.raises(InvariantError, match="linearly dependent"):
            spurious_subspace(physical, space)

    def test_disagreeing_rank_audit_raises(self, monkeypatch):
        from openstring import spectrum

        monkeypatch.setattr(spectrum, "rank_fraction_free",
                            lambda matrix: 0)
        with pytest.raises(InvariantError, match="disagree"):
            physical_subspace(_on_shell_space(4, "1", 1))


class TestDdfSpan:
    def test_word_enumeration_counts(self):
        assert len(_words_of_weight(0, 2)) == 1
        assert len(_words_of_weight(2, 2)) == 5
        assert len(_words_of_weight(3, 2)) == 10
        assert len(_words_of_weight(2, 24)) == 324

    def test_words_at_one_transverse_direction(self):
        assert set(_words_of_weight(3, 1)) == {
            ((1, 3),), ((1, 1), (1, 2)), ((1, 1), (1, 1), (1, 1))}
        assert len(_words_of_weight(3, 1)) == 3

    def test_words_at_d26_are_sorted_transverse_and_of_their_weight(self):
        for weight in range(4):
            words = _words_of_weight(weight, 24)
            assert len(set(words)) == len(words)
            for word in words:
                assert list(word) == sorted(word)
                assert all(1 <= i <= 24 for i, _ in word)
                assert sum(n for _, n in word) == weight

    @pytest.mark.parametrize("level,rank,phys", [(0, 1, 1), (1, 2, 3), (2, 5, 9)])
    def test_small_dimension_span(self, level, rank, phys):
        p = find_onshell_momentum(2 * (level - 1), 4).p
        rep = ddf_span_check(level, DdfContext(P4, p))
        assert rep.all_physical and not rep.failures
        assert rep.rank == rank == len(rep.words)
        assert rep.dim_physical == phys

    def test_subcritical_gap(self):
        # below the critical dimension the transverse span does not exhaust
        # the positive-norm part: at d=4, level 2 it misses one direction
        p = find_onshell_momentum(2, 4).p
        rep = ddf_span_check(2, DdfContext(P4, p))
        sig = noghost_scan([4], max_level=2)[2].signature
        assert sig[0] == rep.rank + 1

    def test_critical_dimension_span_fills_positive_part(self):
        p = find_onshell_momentum(0, 26).p
        rep = ddf_span_check(1, DdfContext(P26, p))
        assert rep.all_physical and rep.rank == 24 and rep.dim_physical == 25

    def test_critical_dimension_level_two(self):
        p = find_onshell_momentum(2, 26).p
        rep = ddf_span_check(2, DdfContext(P26, p))
        assert rep.all_physical and rep.rank == 324 and rep.dim_physical == 350

    def test_off_shell_rejected(self):
        with pytest.raises(ValueError):
            ddf_span_check(1, DdfContext(P4, frac_mom(3, 0, 0, 1)))
