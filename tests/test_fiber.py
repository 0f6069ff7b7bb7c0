"""Constraint-operator tests: frozen examples, algebra closure, adjointness.

The bracket checks are exact — no tolerance anywhere.  Expected values below
were derived by hand from the mode expansion before being frozen here.
"""

import random
from fractions import Fraction

import pytest

from openstring.exactnum import ExactNum
from openstring.fiber import (
    FiberVector,
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

    def test_bracket_with_surd_momentum(self):
        root2 = ExactNum(0, 0, 1, 0, 2)
        p = Momentum((root2, Fraction(1), 0, 0))
        v = FockVector.basis_state(((1, 0), (1, 2)))
        for m, n in [(1, -1), (2, -2), (-2, 1)]:
            assert not virasoro_bracket_residual(m, n, p, v, P4)

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
                        fast = FockVector(scanner.two_l(k, mono))
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
                fast = FockVector(scanner.two_l(k, mono))
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

    def test_auto_dispatch_requires_integrality(self):
        half = Momentum((Fraction(3, 2), Fraction(1), 0, Fraction(1)))
        whole = Momentum((Fraction(2), Fraction(1), 0, Fraction(1)))
        assert _integer_scan_applicable(whole, P4)
        assert not _integer_scan_applicable(half, P4)
        assert not _integer_scan_applicable(whole, ModelParams(d=4, b=Fraction(1, 2)))
        # the non-integer fiber still scans fine through the generic path
        out = virasoro_bracket_scan(1, -1, 1, half, P4)
        assert all(not res for _, res in out)

    def test_scanner_rejects_surd_fiber(self):
        half = Momentum((Fraction(3, 2), Fraction(1), 0, Fraction(1)))
        assert IntegerBracketScanner(half, P4).scale == 8
        assert all(not res for _, res in virasoro_bracket_scan(1, -1, 1, half, P4))
        surd = Momentum((ExactNum(0, 0, 1, 0, 2), Fraction(1), 0, 0))
        with pytest.raises(ValueError, match="rational fiber; momentum component 0"):
            IntegerBracketScanner(surd, P4)
        with pytest.raises(ValueError, match="rational fiber"):
            virasoro_bracket_scan(1, -1, 1, surd, P4)
        with pytest.raises(ValueError, match="rational fiber"):
            virasoro_bracket_scan(1, -1, 1, sym_momentum(4), P4)

    def test_scan_certifies_scanner_rows(self, monkeypatch):
        p = Momentum((Fraction(2), Fraction(1), Fraction(0), Fraction(1)))
        real = IntegerBracketScanner.two_l

        def tampered(self, k, mono):
            row = dict(real(self, k, mono))
            row[((5, 1),)] = 1
            return row

        monkeypatch.setattr(IntegerBracketScanner, "two_l", tampered)
        with pytest.raises(InvariantError, match="disagrees"):
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
                        assert FockVector(scanner.two_l(k, mono)) == \
                            want.scaled(scanner.scale), (k, mono)
        assert nonzero > 150  # of the 266 rows compared


class TestReferenceOracle:
    """Production L_m against the oracle that composes single oscillators."""

    @pytest.mark.parametrize("kind", ["fraction", "surd", "symbolic"])
    def test_agrees_at_d4(self, kind):
        p = {
            "fraction": Momentum((Fraction(3, 2), Fraction(-1, 3), 2, Fraction(1, 2))),
            "surd": Momentum((ExactNum(0, 0, 1, 0, 2), Fraction(1), 0,
                              ExactNum(Fraction(1, 2), 0, 3, 0, 2))),
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


class TestFiberVector:
    def test_carrier_roundtrip(self):
        p = Momentum((Fraction(1), 0, 0, 0))
        fv = FiberVector(p, FockVector.vacuum())
        out = fv.virasoro(0, P4)
        assert out.p == p
        assert out.vec == FockVector.vacuum().scaled(Fraction(-3, 2))
        assert fv.mass_square(P4).vec == FockVector.vacuum().scaled(-2)
        assert not fv.number(P4).vec


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
