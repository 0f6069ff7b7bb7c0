"""Constraint-operator tests: frozen examples, algebra closure, adjointness.

The bracket checks are exact — no tolerance anywhere.  Expected values below
were derived by hand from the mode expansion before being frozen here.
"""

import random
from fractions import Fraction

import pytest

from openstring import cli
from openstring import fiber
from openstring.fiber import (
    IntegerBracketScanner,
    LorentzMatrix,
    Momentum,
    _integer_scan_applicable,
    cayley_lorentz,
    lorentz_apply,
    lorentz_momentum,
    mass_square_apply,
    number_apply,
    virasoro_apply,
    virasoro_bracket_residual,
    virasoro_bracket_scan,
)
from openstring.fock import (
    FockVector,
    ModelParams,
    apply_oscillator,
    inner_indefinite,
    iter_level_basis,
)

from openstring.poly import sym_momentum
from openstring.spectrum import InvariantError

from .oracles import random_vector, virasoro_apply_reference

P4 = ModelParams(d=4)
P26 = ModelParams(d=26)


def rand_momentum(rng, d, span=3):
    while True:
        comps = tuple(
            Fraction(rng.randint(-span, span), rng.randint(1, 2)) for _ in range(d)
        )
        if any(comps):
            return Momentum(comps)


class TestMomentum:
    def test_products(self):
        p = Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1)))
        q = Momentum((Fraction(1), Fraction(3), Fraction(0), Fraction(0)))
        assert p.minkowski_sq() == Fraction(-2)
        assert p.dot(q) == Fraction(1)
        assert p.lightcone() == Fraction(3)

    def test_needs_two_components(self):
        with pytest.raises(ValueError):
            Momentum((Fraction(1),))

    def test_dimension_mismatch_rejected(self):
        p = Momentum((Fraction(1), Fraction(0)))
        with pytest.raises(ValueError):
            virasoro_apply(0, p, FockVector.vacuum(), P4)


class TestFrozenExamples:
    def test_l0_on_vacuum(self):
        # p.p/2 + 0 - b = -1/2 - 1 at p = (1, 0, 0, 0)
        p = Momentum((Fraction(1), 0, 0, 0))
        out = virasoro_apply(0, p, FockVector.vacuum(), P4)
        assert out == FockVector.vacuum().scaled(Fraction(-3, 2))

    def test_l0_is_diagonal_with_level(self):
        p = Momentum((Fraction(1), Fraction(2), 0, 0))
        state = FockVector.basis_state(((1, 1), (2, 0)))
        out = virasoro_apply(0, p, state, P4)
        want = Fraction(3, 2) + 3 - 1  # p.p/2 + N - b
        assert out == state.scaled(want)

    def test_positive_modes_kill_vacuum(self):
        p = Momentum((Fraction(1), 0, 0, 0))
        for m in (1, 2, 3):
            assert not virasoro_apply(m, p, FockVector.vacuum(), P4)

    def test_l1_on_level_one(self):
        p = Momentum((Fraction(2), Fraction(3), Fraction(-1), Fraction(5)))
        for mu in range(4):
            state = FockVector.basis_state(((1, mu),))
            out = virasoro_apply(1, p, state, P4)
            assert out == FockVector.vacuum().scaled(p[mu])

    def test_lminus1_on_vacuum(self):
        p = Momentum((Fraction(2), Fraction(3), 0, Fraction(1)))
        out = virasoro_apply(-1, p, FockVector.vacuum(), P4)
        want = FockVector.zero()
        for mu in range(4):
            want.add_term(((1, mu),), P4.eta(mu) * p[mu])
        assert out == want

    def test_lminus2_on_vacuum(self):
        p = Momentum((Fraction(1), Fraction(1), 0, 0))
        out = virasoro_apply(-2, p, FockVector.vacuum(), P4)
        want = FockVector.zero()
        for mu in range(4):
            want.add_term(((2, mu),), P4.eta(mu) * p[mu])
            want.add_term(((1, mu), (1, mu)), Fraction(P4.eta(mu), 2))
        assert out == want


class TestAlgebraClosure:
    def test_central_term_at_26(self):
        # [L_2, L_{-2}] Omega = 4 L_0 Omega + 17 Omega  (d = 26, b = 1)
        p = Momentum((Fraction(1),) + (Fraction(0),) * 25)
        vac = FockVector.vacuum()
        lhs = virasoro_apply(2, p, virasoro_apply(-2, p, vac, P26), P26)
        rhs = virasoro_apply(0, p, vac, P26).scaled(4) + vac.scaled(17)
        assert lhs == rhs

    def test_bracket_grid_d4(self):
        rng = random.Random(41)
        momenta = [
            Momentum((Fraction(1), 0, 0, 0)),
            Momentum((Fraction(3, 2), Fraction(1), Fraction(-1, 2), Fraction(2))),
        ]
        for p in momenta:
            v = random_vector(rng, P4, max_level=3)
            for m in range(-3, 4):
                for n in range(-3, 4):
                    assert not virasoro_bracket_residual(m, n, p, v, P4), (m, n)

    def test_bracket_spots_d26(self):
        rng = random.Random(43)
        p = Momentum(
            (Fraction(2), Fraction(1)) + (Fraction(0),) * 23 + (Fraction(1),)
        )
        v = random_vector(rng, P26, max_level=2, span=5)
        for m, n in [(1, -1), (2, -2), (2, -1), (-2, -1), (3, -2)]:
            assert not virasoro_bracket_residual(m, n, p, v, P26), (m, n)


class TestAlgebraGrids:
    def test_bracket_scan_levels(self):
        # whole-level scans at both intercepts; residuals vanish identically
        momenta = [
            Momentum((Fraction(1), 0, 0, 0)),
            Momentum((Fraction(1), Fraction(1, 2), Fraction(1), Fraction(-1))),
        ]
        for b in (0, 1):
            params = ModelParams(d=4, b=b)
            for p in momenta:
                for level in (0, 1, 2):
                    for m, n in [(2, -2), (1, -1), (3, -1), (-2, -1)]:
                        for mono, res in virasoro_bracket_scan(m, n, level, p, params):
                            assert not res, (b, m, n, mono)

    def test_mode_cap(self):
        p = Momentum((Fraction(1), 0, 0, 0))
        with pytest.raises(ValueError):
            virasoro_apply(9, p, FockVector.vacuum(), P4)


class TestScanEngines:
    """The integer kernel must be indistinguishable from the generic path."""

    def test_operator_action_matches_reference(self):
        # strongest form: compare 2 L_k itself on basis monomials, where the
        # outputs are rich nonzero vectors (residual comparisons alone would
        # only ever compare zero against zero)
        momenta = [
            Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1))),
            Momentum((Fraction(1), Fraction(2), Fraction(0), Fraction(3))),
        ]
        for p in momenta:
            scanner = IntegerBracketScanner(p, P4)
            for level in range(4):
                for mono in iter_level_basis(P4, level):
                    for k in range(-3, 4):
                        fast = FockVector(scanner.add_two_l({}, k, mono, 1))
                        ref = virasoro_apply(
                            k, p, FockVector.basis_state(mono), P4
                        ).scaled(2)
                        assert fast == ref, (k, mono)

    def test_operator_action_matches_at_26(self):
        p = Momentum(
            (Fraction(2), Fraction(1)) + (Fraction(0),) * 23 + (Fraction(1),)
        )
        scanner = IntegerBracketScanner(p, P26)
        rng = random.Random(59)
        monos = list(iter_level_basis(P26, 2))
        for mono in rng.sample(monos, 25):
            for k in (-3, -1, 0, 2):
                fast = FockVector(scanner.add_two_l({}, k, mono, 1))
                ref = virasoro_apply(
                    k, p, FockVector.basis_state(mono), P26
                ).scaled(2)
                assert fast == ref, (k, mono)

    def test_scan_engines_agree(self):
        # the scan against the generic residual, on an integral and on a
        # half-integral fiber with a half-integral intercept
        cases = [
            (Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1))), P4),
            (Momentum((Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2))),
             ModelParams(d=4, b=Fraction(1, 2))),
        ]
        for p, params in cases:
            for m, n in [(2, -2), (-2, -1), (0, 3), (1, 2)]:
                scan = virasoro_bracket_scan(m, n, 2, p, params)
                ref = [(mono, virasoro_bracket_residual(
                            m, n, p, FockVector.basis_state(mono), params))
                       for mono in iter_level_basis(params, 2)]
                assert scan == ref

    def test_scan_agrees_with_generic_route_on_every_pair(self):
        # all 28 cells |m|, |n| <= 3, the 7 diagonal ones included: the scan
        # returns those without composing, the generic route composes
        cases = [
            (Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1))), P4),
            (Momentum((Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2))),
             ModelParams(d=4, b=Fraction(1, 2))),
        ]
        pairs = [(m, n) for m in range(-3, 4) for n in range(m, 4)]
        assert len(pairs) == 28
        for p, params in cases:
            for m, n in pairs:
                for level in range(3):
                    scan = virasoro_bracket_scan(m, n, level, p, params)
                    ref = [(mono, virasoro_bracket_residual(
                                m, n, p, FockVector.basis_state(mono), params))
                           for mono in iter_level_basis(params, level)]
                    assert scan == ref, (m, n, level)

    def test_rows_out_to_six_at_26(self):
        # the closure row reaches |m + n| = 6; a rational probe with 22
        # nonzero components, like the CLI's seeded ones
        rng = random.Random(61)
        zeros = set(rng.sample(range(1, 25), 4))
        p = Momentum(tuple(
            Fraction(0) if mu in zeros else
            Fraction(rng.choice((-2, -1, 1, 2, 3)), rng.randint(1, 3))
            for mu in range(26)))
        assert sum(1 for c in p if c) == 22
        scanner = IntegerBracketScanner(p, P26)
        monos = [mono for level in range(3) for mono in iter_level_basis(P26, level)]
        nonzero = 0
        for mono in rng.sample(monos, 25):
            for k in range(-6, 7):
                want = virasoro_apply_reference(
                    k, p, FockVector.basis_state(mono), P26)
                nonzero += bool(want)
                assert FockVector(scanner.add_two_l({}, k, mono, 1)) == \
                    want.scaled(scanner.scale), (k, mono)
        assert nonzero >= 190  # 198 of the 325 rows compared

    def test_scan_certifies_closure_row(self, monkeypatch):
        # only T_{m+n} is wrong; the compositions never use it
        p = Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1)))
        real = IntegerBracketScanner.add_two_l

        def tampered(self, out, k, mono, c):
            real(self, out, k, mono, c)
            if k == 3:
                out[((5, 1),)] = out.get(((5, 1),), 0) + c
            return out

        monkeypatch.setattr(IntegerBracketScanner, "add_two_l", tampered)
        mono = next(iter(iter_level_basis(P4, 1)))
        assert IntegerBracketScanner(p, P4).residual(1, 2, mono)
        assert not IntegerBracketScanner(p, P4).residual(1, 1, mono)
        with pytest.raises(InvariantError, match="L_3"):
            virasoro_bracket_scan(1, 2, 1, p, P4)

    def test_scan_certifies_creator_parts(self, monkeypatch):
        # move the contractions of T_{-1} into its creator part: the row
        # T_{-1} is unchanged, but C_{-1} no longer commutes with C_{-2}
        p = Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1)))
        creators = IntegerBracketScanner.add_creators
        contractions = IntegerBracketScanner.add_contractions

        def tampered_creators(self, out, k, mono, c):
            creators(self, out, k, mono, c)
            return contractions(self, out, k, mono, c) if k == -1 else out

        def tampered_contractions(self, out, k, mono, c):
            return out if k == -1 else contractions(self, out, k, mono, c)

        mono = next(iter(iter_level_basis(P4, 1)))
        want = IntegerBracketScanner(p, P4).add_two_l({}, -1, mono, 1)
        monkeypatch.setattr(IntegerBracketScanner, "add_creators",
                            tampered_creators)
        monkeypatch.setattr(IntegerBracketScanner, "add_contractions",
                            tampered_contractions)
        scanner = IntegerBracketScanner(p, P4)
        assert scanner.add_two_l({}, -1, mono, 1) == want
        assert scanner.residual(-2, -1, mono)
        with pytest.raises(InvariantError, match="creator part C_-1"):
            virasoro_bracket_scan(-2, -1, 1, p, P4)

    def test_split_commutator_matches_reference_at_26(self):
        # the CLI's seeded rational probe for --seed 2; the scanner never
        # composes C_m C_n, so compare its commutator (a rich nonzero
        # vector) and its residual with compositions of the reference L_m
        p = cli._probe_momenta(26, 2)[1]
        assert sum(1 for c in p if c) == 22
        assert sum(1 for c in p if c.denominator != 1) == 11
        scanner = IntegerBracketScanner(p, P26)
        rng = random.Random(71)
        monos = rng.sample(list(iter_level_basis(P26, 2)), 20)

        def ref(k, v):
            return virasoro_apply_reference(k, p, v, P26)

        for m, n in [(-3, -2), (-3, -1), (-2, -1), (-3, 2)]:
            for mono in monos:
                v = FockVector.basis_state(mono)
                bracket = ref(m, ref(n, v)) - ref(n, ref(m, v))
                assert bracket
                assert FockVector(scanner.commutator(m, n, mono)) == \
                    bracket.scaled(scanner.scale ** 2), (m, n, mono)
                assert scanner.residual(m, n, mono) == \
                    bracket - ref(m + n, v).scaled(m - n), (m, n, mono)

    @staticmethod
    def assert_residual_is_composed(scanner, p, params, m, n, mono):
        # the fast residual against T_m X_n - T_n X_m + X_m C_n - X_n C_m
        # composed from the scanner's own rows, less the closure built on
        # virasoro_apply; returns the composed commutator
        v = FockVector.basis_state(mono)
        composed = scanner.commutator(m, n, mono)
        want = FockVector(composed).scaled(Fraction(1, scanner.scale ** 2))
        want -= virasoro_apply(m + n, p, v, params).scaled(Fraction(m - n))
        if m + n == 0:
            want -= v.scaled(Fraction(params.d * m * (m * m - 1), 12)
                             + 2 * params.b * m)
        assert scanner.residual(m, n, mono) == want, (p, m, n, mono)
        return composed

    @pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_direct_commutator_matches_composition_at_d4(self, b):
        # every cell |m|, |n| <= 3 on levels <= 3
        params = ModelParams(d=4, b=b)
        momenta = [
            Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1))),
            Momentum((Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2))),
        ]
        monos = [mono for level in range(4)
                 for mono in iter_level_basis(params, level)]
        assert len(monos) == 59
        nonzero = 0
        for p in momenta:
            scanner = IntegerBracketScanner(p, params)
            for m in range(-3, 4):
                for n in range(-3, 4):
                    for mono in monos:
                        nonzero += bool(self.assert_residual_is_composed(
                            scanner, p, params, m, n, mono))
        assert nonzero > 3800  # 3852 of the 5782 commutators are nonzero

    def test_direct_commutator_matches_composition_at_26(self):
        p = cli._probe_momenta(26, 2)[1]
        scanner = IntegerBracketScanner(p, P26)
        rng = random.Random(73)
        for mono in rng.sample(list(iter_level_basis(P26, 2)), 20):
            for m in range(-3, 4):
                for n in range(-3, 4):
                    self.assert_residual_is_composed(scanner, p, P26, m, n,
                                                     mono)

    def test_scan_certifies_direct_creator_brackets(self, monkeypatch):
        # a wrong weight on the contracting terms of [T_2, C_-1], here
        # P . alpha_1: every row, creator part and the composed commutator
        # are untouched, but the residual moves.  The cell (-2, -1) has no
        # such terms, since both modes create.
        p = Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1)))
        real = IntegerBracketScanner._add_bracket_contractions

        def tampered(self, out, n, m, mono, c):
            return real(self, out, n, m, mono, 2 * c if (n, m) == (2, -1)
                        else c)

        mono = next(iter(iter_level_basis(P4, 1)))
        assert not IntegerBracketScanner(p, P4).residual(-1, 2, mono)
        monkeypatch.setattr(IntegerBracketScanner, "_add_bracket_contractions",
                            tampered)
        scanner = IntegerBracketScanner(p, P4)
        assert scanner.residual(-1, 2, mono)
        with pytest.raises(InvariantError, match=r"split residual .* "
                                                 r"\[T_-1, T_2\]"):
            virasoro_bracket_scan(-1, 2, 1, p, P4)

    def test_shifted_mass_is_caught_by_the_central_pairs(self):
        # raising P.P by one breaks L_0 only, which the scan reaches through
        # the closure row of m = -n != 0; every other cell stays zero
        p = Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1)))
        scanner = IntegerBracketScanner(p, P4)
        scanner.p2 += 1
        monos = [mono for level in range(3) for mono in iter_level_basis(P4, level)]
        assert len(monos) == 19
        hits = {}
        for m in range(-3, 4):
            for n in range(m, 4):
                count = sum(1 for mono in monos if scanner.residual(m, n, mono))
                if count:
                    hits[m, n] = count
        assert hits == {(-3, 3): 19, (-2, 2): 19, (-1, 1): 19}

    def test_auto_dispatch_requires_integrality(self):
        half = Momentum((Fraction(3, 2), Fraction(1), 0, Fraction(1)))
        whole = Momentum((Fraction(2), Fraction(1), 0, Fraction(1)))
        assert _integer_scan_applicable(whole, P4)
        assert not _integer_scan_applicable(half, P4)
        assert not _integer_scan_applicable(whole, ModelParams(d=4, b=Fraction(1, 2)))
        # the half-integral fiber runs on the integer scanner too, with its
        # denominators cleared
        out = virasoro_bracket_scan(1, -1, 1, half, P4)
        assert all(not res for _, res in out)

    def test_scanner_rejects_surd_fiber(self):
        half = Momentum((Fraction(3, 2), Fraction(1), 0, Fraction(1)))
        assert IntegerBracketScanner(half, P4).scale == 8
        assert all(not res for _, res in virasoro_bracket_scan(1, -1, 1, half, P4))
        # a fiber that is not rational, such as the symbolic one, is refused
        with pytest.raises(ValueError, match="rational fiber; momentum component 0"):
            IntegerBracketScanner(sym_momentum(4), P4)
        with pytest.raises(ValueError, match="rational fiber"):
            virasoro_bracket_scan(1, -1, 1, sym_momentum(4), P4)

    def test_scan_certifies_scanner_rows(self, monkeypatch):
        p = Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1)))
        real = IntegerBracketScanner.add_two_l

        def tampered(self, out, k, mono, c):
            real(self, out, k, mono, c)
            out[((5, 1),)] = out.get(((5, 1),), 0) + c
            return out

        monkeypatch.setattr(IntegerBracketScanner, "add_two_l", tampered)
        with pytest.raises(InvariantError, match="disagrees with L_"):
            virasoro_bracket_scan(1, -1, 1, p, P4)

    def test_scanner_rows_clear_denominators(self):
        # T_k = 2 D^2 L_k with D = 6 for these halves and thirds; compare
        # the rows themselves, which are rich nonzero vectors
        params = ModelParams(d=4, b=Fraction(1, 2))
        momenta = [
            Momentum((Fraction(3, 2), Fraction(1, 3), 0, Fraction(-2, 3))),
            Momentum((Fraction(1, 6), Fraction(2), Fraction(-5, 2), 0)),
        ]
        nonzero = 0
        for p in momenta:
            scanner = IntegerBracketScanner(p, params)
            assert scanner.scale == 2 * 6 * 6
            for level in range(3):
                for mono in iter_level_basis(params, level):
                    for k in range(-3, 4):
                        want = virasoro_apply_reference(
                            k, p, FockVector.basis_state(mono), params)
                        nonzero += bool(want)
                        assert FockVector(scanner.add_two_l({}, k, mono, 1)) == \
                            want.scaled(scanner.scale), (k, mono)
        assert nonzero > 150  # of the 266 rows compared


class TestCellPolynomial:
    """The residual composes each cell, the residual on the vacuum, once
    and multiplies it into every monomial of the cell."""

    MOMENTA_D4 = [
        Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1))),
        Momentum((Fraction(3, 2), Fraction(1, 3), 0, Fraction(-1, 2))),
    ]

    def assert_central_only(self, p, params):
        # residual() keeps each cell, under the factors (), in the one
        # cache; every cell is empty, since the vacuum bracket [T_m, T_n]
        # is the closure's creators, and for m = -n the c-number 4 D^4
        # [L_m, L_{-m}] = 4 D^4 (m p.p + d m (m^2 - 1) / 12): L_0's
        # intercept cancels against 2 b m
        scanner = IntegerBracketScanner(p, params)
        cells = [(m, n) for m in range(-3, 4) for n in range(-3, 4) if m != n]
        for m, n in cells:
            assert not scanner.residual(m, n, ())
        assert scanner._responses == {(m, n, ()): {} for m, n in cells}
        pp = p.minkowski_sq()
        for m, n in cells:
            vac = scanner.commutator(m, n, ())
            if m + n:
                assert vac == scanner.add_creators(
                    {}, m + n, (), scanner.scale * (m - n)), (m, n)
                continue
            c = scanner.scale ** 2 * (
                m * pp + Fraction(params.d * m * (m * m - 1), 12))
            assert c and vac == {(): c}, (m, n, vac)

    @pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_polynomial_is_the_vacuum_bracket_at_d4(self, b):
        for p in self.MOMENTA_D4:
            self.assert_central_only(p, ModelParams(d=4, b=b))

    def test_polynomial_is_the_vacuum_bracket_at_26(self):
        for p in cli._probe_momenta(26, 2):
            self.assert_central_only(p, P26)

    def test_doubled_creator_pair_shows_on_every_monomial(self, monkeypatch):
        # [T_{-1}, C_{-3}] has the both-create pair :alpha_{-1} . alpha_{-3}:
        # (weight 8 D^4); doubling it in the vacuum commutator breaks the
        # fixed polynomial of the cell (-3, -1), so every monomial of the
        # level must see it, while the commutator on them stays right
        p = self.MOMENTA_D4[0]
        monos = list(iter_level_basis(P4, 2))
        assert len(monos) == 14
        scanner = IntegerBracketScanner(p, P4)
        assert not any(scanner.residual(-3, -1, mono) for mono in monos)
        real = IntegerBracketScanner.commutator

        def tampered(self, m, n, mono):
            out = real(self, m, n, mono)
            if not mono and {m, n} == {-3, -1}:
                fiber._insert_pairs(out, mono, 1, 3, self.d,
                                    8 * self.den ** 4 * (1 if m == -1 else -1))
            return out

        monkeypatch.setattr(IntegerBracketScanner, "commutator", tampered)
        scanner = IntegerBracketScanner(p, P4)
        assert all(scanner.residual(-3, -1, mono) for mono in monos)
        assert all(scanner.residual(-1, -3, mono) for mono in monos)
        with pytest.raises(InvariantError, match=r"split residual .* "
                                                 r"\[T_-3, T_-1\]"):
            virasoro_bracket_scan(-3, -1, 2, p, P4)

    def test_scan_certifies_split_residual(self, monkeypatch):
        # a cell one off in its c-number: rows, creator parts and the
        # commutator are untouched, and only the cells with m + n = 0, whose
        # composition on the vacuum carries the c-numbers, move
        p = self.MOMENTA_D4[0]
        real = IntegerBracketScanner.composed

        def tampered(self, m, n, mono):
            out = real(self, m, n, mono)
            if not mono and m + n == 0:
                out[()] = out.get((), 0) + 1
            return out

        monkeypatch.setattr(IntegerBracketScanner, "composed", tampered)
        scanner = IntegerBracketScanner(p, P4)
        mono = next(iter(iter_level_basis(P4, 1)))
        assert scanner.residual(2, -2, mono)
        assert not scanner.residual(1, 2, mono)
        assert all(not res for _, res in virasoro_bracket_scan(1, 2, 1, p, P4))
        with pytest.raises(InvariantError, match=r"split residual .* \[T_2, "
                                                 r"T_-2\]"):
            virasoro_bracket_scan(2, -2, 1, p, P4)


class TestXResponses:
    """The residual assembled from the cell and the cached one- and
    two-factor responses, against the residual composed from the rows, on
    scanners whose responses are not empty."""

    @staticmethod
    def assert_assembled(p, params, monos):
        # every cell |m|, |n| <= 3 with m, n, m - n != 0, on a scanner whose
        # closure row X_{m+n} is doubled: the residual is then
        # -2 D^2 (m - n) X_{m+n}, a normal-ordered quadratic like the true
        # one, with a response on every factor from mode m + n up and on
        # every pair below it.  Returns the nonzero responses and residuals.
        responses = residuals = 0
        for m in range(-3, 4):
            for n in range(-3, 4):
                if m == n or 0 in (m, n):
                    continue
                scanner = IntegerBracketScanner(p, params)
                real = scanner.add_contractions
                scanner.add_contractions = (
                    lambda out, k, mono, c, s=m + n:
                    real(out, k, mono, 2 * c if k == s else c))
                for mono in monos:
                    want = FockVector(scanner.composed(m, n, mono)).scaled(
                        Fraction(1, scanner.scale ** 2))
                    residuals += bool(want)
                    assert scanner.residual(m, n, mono) == want, (m, n, mono)
                responses += sum(map(bool, scanner._responses.values()))
        return responses, residuals

    @pytest.mark.parametrize("b", [Fraction(0), Fraction(1, 2), Fraction(1)])
    def test_assembled_matches_composed_at_d4(self, b):
        # level 4 reaches a repeated factor paired with a distinct one in
        # the same direction, alpha^1_{-1} alpha^1_{-1} alpha^1_{-2}, in a
        # cell with m + n = 3
        params = ModelParams(d=4, b=b)
        monos = [mono for level in range(5)
                 for mono in iter_level_basis(params, level)]
        assert len(monos) == 164
        assert ((1, 1), (1, 1), (2, 1)) in monos
        counts = [self.assert_assembled(p, params, monos)
                  for p in TestCellPolynomial.MOMENTA_D4]
        # 428 nonzero responses, and 3864 to 3948 of the 4920 residuals
        assert all(resp > 400 and res > 3800 for resp, res in counts), counts

    def test_assembled_matches_composed_at_26(self):
        p = cli._probe_momenta(26, 2)[1]
        rng = random.Random(79)
        monos = rng.sample(list(iter_level_basis(P26, 2)), 20)
        responses, residuals = self.assert_assembled(p, P26, monos)
        # 508 nonzero responses, and 448 of the 600 residuals
        assert responses > 500 and residuals > 440, (responses, residuals)

    def test_scan_certifies_cached_responses(self, monkeypatch):
        # every response on one or two factors gains those factors once:
        # rows, creator parts, the commutator and the cells are untouched,
        # the residual moves
        p = TestCellPolynomial.MOMENTA_D4[0]
        mono = next(iter(iter_level_basis(P4, 1)))
        assert not IntegerBracketScanner(p, P4).residual(-2, 1, mono)

        class Corrupted(dict):
            def __setitem__(self, key, resp):
                if key[2]:
                    resp = {**resp, key[2]: resp.get(key[2], 0) + 1}
                super().__setitem__(key, resp)

        real = IntegerBracketScanner.__init__

        def tampered(self, p, params):
            real(self, p, params)
            self._responses = Corrupted()

        monkeypatch.setattr(IntegerBracketScanner, "__init__", tampered)
        assert IntegerBracketScanner(p, P4).residual(-2, 1, mono)
        with pytest.raises(InvariantError, match=r"split residual .* "
                                                 r"\[T_-2, T_1\]"):
            virasoro_bracket_scan(-2, 1, 1, p, P4)

    def test_int_and_fraction_momenta_give_the_same_fields(self):
        fields = ("d", "den", "scale", "p", "b", "p2")
        for params in (P4, ModelParams(d=4, b=Fraction(1, 2))):
            ints = IntegerBracketScanner(Momentum((2, 1, 0, -3)), params)
            fracs = IntegerBracketScanner(
                Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(-3))),
                params)
            for name in fields:
                got = getattr(ints, name)
                assert got == getattr(fracs, name), name
                assert all(type(x) is int for x in (
                    got if isinstance(got, tuple) else (got,))), name
        mixed = IntegerBracketScanner(
            Momentum((Fraction(3, 2), 1, 0, Fraction(-1, 3))),
            ModelParams(d=4, b=Fraction(1, 2)))
        assert (mixed.den, mixed.p, mixed.b) == (6, (9, 6, 0, -2), 3)


class TestReferenceOracle:
    """Production L_m against the oracle that composes single oscillators."""

    @pytest.mark.parametrize("kind", ["fraction", "symbolic"])
    def test_agrees_at_d4(self, kind):
        p = {
            "fraction": Momentum((Fraction(3, 2), Fraction(-1, 3), 2, Fraction(1, 2))),
            "symbolic": sym_momentum(4),
        }[kind]
        for b in (Fraction(0), Fraction(1, 2), Fraction(1)):
            params = ModelParams(d=4, b=b)
            for level in range(4):
                for mono in iter_level_basis(params, level):
                    v = FockVector.basis_state(mono)
                    for m in range(-3, 4):
                        assert virasoro_apply(m, p, v, params) == \
                            virasoro_apply_reference(m, p, v, params), (b, m, mono)

    def test_agrees_at_26(self):
        rng = random.Random(89)
        p = Momentum(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                           for _ in range(26)))
        for mono in rng.sample(list(iter_level_basis(P26, 2)), 25):
            v = FockVector.basis_state(mono)
            for m in range(-3, 4):
                assert virasoro_apply(m, p, v, P26) == \
                    virasoro_apply_reference(m, p, v, P26), (m, mono)


class TestMassSquare:
    def test_frozen_eigenvalues(self):
        vac = FockVector.vacuum()
        assert mass_square_apply(vac, P4) == vac.scaled(-2)
        one = FockVector.basis_state(((1, 1),))
        assert not mass_square_apply(one, P4)
        three = FockVector.basis_state(((1, 2), (2, 1)))
        assert mass_square_apply(three, P4) == three.scaled(4)


class TestOperatorIdentities:
    def test_mass_shell_relation(self):
        rng = random.Random(47)
        for _ in range(10):
            p = rand_momentum(rng, 4)
            v = random_vector(rng, P4, max_level=3)
            lhs = virasoro_apply(0, p, v, P4).scaled(2)
            rhs = v.scaled(p.minkowski_sq()) + mass_square_apply(v, P4)
            assert lhs == rhs

    def test_number_operator_matches_mode_sum(self):
        rng = random.Random(53)
        for _ in range(10):
            v = random_vector(rng, P4, max_level=4)
            expanded = FockVector.zero()
            for k in range(1, v.level() + 1):
                for mu in range(4):
                    w = apply_oscillator((k, mu), v, P4)
                    if w:
                        w = apply_oscillator((-k, mu), w, P4)
                        expanded += w.scaled(P4.eta(mu))
            assert expanded == number_apply(v, P4)

    def test_adjointness(self):
        rng = random.Random(59)
        p = rand_momentum(rng, 4)
        for m in (-2, -1, 0, 1, 2):
            u = random_vector(rng, P4, max_level=3)
            v = random_vector(rng, P4, max_level=3)
            lhs = inner_indefinite(virasoro_apply(m, p, u, P4), v)
            rhs = inner_indefinite(u, virasoro_apply(-m, p, v, P4))
            assert lhs == rhs

    def test_wider_truncation_changes_nothing(self):
        rng = random.Random(61)
        p = rand_momentum(rng, 4)
        v = random_vector(rng, P4, max_level=3)
        for m in (-3, -1, 1, 2):
            base = virasoro_apply(m, p, v, P4)
            wide = virasoro_apply_reference(
                m, p, v, P4, truncate=v.level() + abs(m) + 4)
            assert base == wide


class TestLorentz:
    def rand_seed(self, rng, d):
        s = [[Fraction(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                val = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                s[i][j] = val
                s[j][i] = -val
        return s

    def test_rejects_non_antisymmetric(self):
        bad = [[Fraction(1) for _ in range(4)] for _ in range(4)]
        with pytest.raises(ValueError):
            cayley_lorentz(bad, P4)

    def test_rejects_non_lorentz_matrix(self):
        doubled = [[Fraction(2 * (i == j)) for j in range(4)] for i in range(4)]
        with pytest.raises(ValueError):
            lorentz_apply(doubled, FockVector.vacuum(), P4)
        with pytest.raises(ValueError):
            LorentzMatrix(doubled, P4)

    def test_identity_and_spatial_swap(self):
        ident = LorentzMatrix(
            [[Fraction(i == j) for j in range(4)] for i in range(4)], P4
        )
        v = FockVector.basis_state(((1, 1), (2, 0)))
        assert lorentz_apply(ident, v, P4) == v
        swap = [[Fraction(0)] * 4 for _ in range(4)]
        swap[0][0] = swap[3][3] = Fraction(1)
        swap[1][2] = swap[2][1] = Fraction(1)
        assert lorentz_apply(swap, FockVector.basis_state(((1, 1),)), P4) == (
            FockVector.basis_state(((1, 2),))
        )

    def test_nontrivial_transform(self):
        rng = random.Random(67)
        lam = cayley_lorentz(self.rand_seed(rng, 4), P4)
        ident = [[Fraction(i == j) for j in range(4)] for i in range(4)]
        assert lam != ident  # metric identity is asserted inside the builder

    def test_momentum_norm_preserved(self):
        rng = random.Random(71)
        lam = cayley_lorentz(self.rand_seed(rng, 4), P4)
        for _ in range(5):
            p = rand_momentum(rng, 4)
            assert lorentz_momentum(lam, p).minkowski_sq() == p.minkowski_sq()

    def test_inner_product_invariance(self):
        rng = random.Random(73)
        lam = cayley_lorentz(self.rand_seed(rng, 4), P4)
        for _ in range(5):
            u = random_vector(rng, P4, max_level=2)
            v = random_vector(rng, P4, max_level=2)
            assert inner_indefinite(
                lorentz_apply(lam, u, P4), lorentz_apply(lam, v, P4)
            ) == inner_indefinite(u, v)

    def test_polarization_covariance(self):
        # lam (zeta . alpha_{-1} vac) must equal (lam zeta) . alpha_{-1} vac;
        # this pins down the contragradient action on oscillator labels.
        rng = random.Random(83)
        lam = cayley_lorentz(self.rand_seed(rng, 4), P4)
        zeta = rand_momentum(rng, 4)

        def contracted(vec):
            out = FockVector.zero()
            for mu in range(4):
                out.add_term(((1, mu),), P4.eta(mu) * vec[mu])
            return out

        assert lorentz_apply(lam, contracted(zeta), P4) == contracted(
            lorentz_momentum(lam, zeta)
        )

    def test_constraint_equivariance(self):
        rng = random.Random(79)
        lam = cayley_lorentz(self.rand_seed(rng, 4), P4)
        p = rand_momentum(rng, 4)
        v = random_vector(rng, P4, max_level=2)
        for m in (-2, -1, 0, 1, 2):
            direct = lorentz_apply(lam, virasoro_apply(m, p, v, P4), P4)
            moved = virasoro_apply(m, lorentz_momentum(lam, p), lorentz_apply(lam, v, P4), P4)
            assert direct == moved
