"""Transverse DDF operator tests.

Split in three bands: the combinatorial building blocks (exponential modes
and scalar vertex modes), the realized operator algebra (oscillator
commutators, grading, adjointness, annihilation, Gram), and the constraint
equations on states built by lowering operators.  The raising/lowering
Virasoro commutators do NOT vanish as operator identities here — they
vanish on the kinematically protected sector and on word states, and above
the threshold they equal an exact closed form; both facts are pinned below,
including the minimal hand-computed counterexample.
"""

import random
from fractions import Fraction

import pytest

from openstring.ddf import (
    CalibrationError,
    DdfContext,
    NullVector,
    calibrate_normalization,
    constraint_report,
    ddf_apply,
    ddf_commutator_defect,
    ddf_commutator_residual,
    ddf_state,
    defect_threshold,
    mass_project,
    u_op_apply,
    v_scalar_apply,
    v_vector_apply,
)
import openstring.ddf as ddf_module
from openstring.cli import _probe_momenta, main
from openstring.fiber import Momentum, mass_square_apply, virasoro_apply
from openstring.fock import (
    FockVector,
    InvalidDirectionError,
    ModelParams,
    apply_oscillator,
    inner_indefinite,
    iter_level_basis,
    level_of,
)
from openstring.poly import sym_momentum
from openstring.spectrum import InvariantError

from .oracles import (
    compositions,
    ddf_commutator_defect_reference,
    first_calibration_failure_reference,
    random_vector,
    u_composition_apply,
    u_exponential_partition_apply,
    v_scalar_apply_reference,
    v_vector_apply_reference,
)

P4 = ModelParams(d=4)
P4B0 = ModelParams(d=4, b=0)
P26 = ModelParams(d=26)

# all exact rational momenta with p^0 + p^{d-1} != 0; the first two carry a
# nonzero transverse component (needed for normalization discrimination)
MOME4 = [
    Momentum(tuple(map(Fraction, (2, 1, 0, 1)))),
    Momentum(tuple(map(Fraction, (3, 2, 1, 1)))),
    Momentum(tuple(map(Fraction, (2, 0, 0, 1)))),
]


def mom(*comps):
    return Momentum(tuple(map(Fraction, comps)))


def mom26(*head_tail):
    comps = list(map(Fraction, head_tail[:-1])) + [Fraction(0)] * (26 - len(head_tail))
    comps.append(Fraction(head_tail[-1]))
    return Momentum(tuple(comps))


def basis_upto(params, lmax):
    return [
        FockVector.basis_state(mono)
        for level in range(lmax + 1)
        for mono in iter_level_basis(params, level)
    ]


def vec_eq(a, b):
    diff = a.scaled(1)
    for mono, c in b.items():
        diff.add_term(mono, -c)
    return not diff


class TestCompositions:
    def test_counts_are_powers_of_two(self):
        for n in range(1, 8):
            assert len(compositions(n)) == 2 ** (n - 1)

    def test_frozen_n3(self):
        assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}

    def test_empty_composition_of_zero(self):
        assert compositions(0) == ((),)


class TestNullVector:
    def test_lightlike_and_pairing(self):
        p = MOME4[0]
        k = NullVector(p, Fraction(1))
        assert k.dot(k) == 0
        # k.p = -kappa by construction
        total = -k[0] * p[0] + sum(k[mu] * p[mu] for mu in range(1, 4))
        assert total == -1

    def test_degenerate_momentum_gives_zero_vector(self):
        k = NullVector(mom(1, 0, 0, -1), Fraction(1))
        assert k.is_zero

    def test_scaling(self):
        k = NullVector(MOME4[0], Fraction(1))
        assert k.times(3)[0] == 3 * k[0]
        assert k.times(0).is_zero


class TestExponentialModes:
    """The U_n building blocks: mode recurrence, truncation, dagger."""

    def test_u0_is_identity(self):
        v = FockVector.basis_state(((1, 1), (2, 0)))
        k = NullVector(MOME4[0], Fraction(1))
        assert vec_eq(u_op_apply(0, k, v, P4), v)

    def test_u1_is_single_contraction(self):
        # U_1(k) = k.alpha_1 on a one-mode state
        p = mom(2, 0, 0, 1)
        k = NullVector(p, Fraction(1))  # k^0 = 1/3 = -k^3
        v = FockVector.basis_state(((1, 0),))
        out = u_op_apply(1, k, v, P4)
        # [k.alpha_1, alpha^0_{-1}] = k_mu eta^{mu 0} = k^0: the metric in
        # the pairing cancels against the index raise, leaving +1/3
        assert dict(out.items()) == {(): Fraction(1, 3)}

    def test_u2_frozen_coefficients(self):
        # U_2 = 1/2 (k.alpha_1)^2 + 1/2 (k.alpha_2): check both channels
        p = mom(2, 0, 0, 1)
        k = NullVector(p, Fraction(1))
        two_ones = FockVector.basis_state(((1, 0), (1, 0)))
        single_two = FockVector.basis_state(((2, 0),))
        # (k.alpha_1)^2 on alpha^0_{-1}alpha^0_{-1} vac: 2 pairings * (k^0)^2
        assert dict(u_op_apply(2, k, two_ones, P4).items()) == {
            (): Fraction(1, 2) * 2 * Fraction(1, 9)
        }
        # k.alpha_2 on alpha^0_{-2} vac: mode factor 2 * k^0, halved
        assert dict(u_op_apply(2, k, single_two, P4).items()) == {
            (): Fraction(1, 2) * 2 * Fraction(1, 3)
        }

    def test_kills_above_level(self):
        k = NullVector(MOME4[0], Fraction(1))
        v = FockVector.basis_state(((1, 1), (1, 3)))
        for n in range(3, 7):
            assert not u_op_apply(n, k, v, P4)

    def test_dagger_raises_level(self):
        k = NullVector(MOME4[0], Fraction(1))
        out = u_op_apply(2, k, FockVector.vacuum(), P4, sign=-1, dagger=True)
        assert out.level() == 2
        assert all(len(mono) in (1, 2) for mono in dict(out.items()))

    @pytest.mark.parametrize("n", range(0, 6))
    def test_matches_partition_oracle(self, n):
        rng = random.Random(20 + n)
        k = NullVector(MOME4[1], Fraction(1))
        for _ in range(3):
            v = random_vector(rng, P4, max_level=3)
            fast = u_op_apply(n, k, v, P4)
            slow = u_exponential_partition_apply(n, k, v, P4)
            assert vec_eq(fast, slow)
            fast_d = u_op_apply(n, k, v, P4, sign=-1, dagger=True)
            slow_d = u_exponential_partition_apply(
                n, k, v, P4, sign=-1, dagger=True
            )
            assert vec_eq(fast_d, slow_d)

    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_composition_oracle(self, n):
        rng = random.Random(40 + n)
        k = NullVector(MOME4[0], Fraction(2))
        for _ in range(3):
            v = random_vector(rng, P4, max_level=3)
            for sign in (1, -1):
                for dagger in (False, True):
                    assert vec_eq(
                        u_op_apply(n, k, v, P4, sign=sign, dagger=dagger),
                        u_composition_apply(n, k, v, P4, sign=sign,
                                            dagger=dagger))


class TestScalarVertexModes:
    def test_v0_on_vacuum(self):
        k = NullVector(MOME4[0], Fraction(1))
        assert vec_eq(v_scalar_apply(0, k, FockVector.vacuum(), P4),
                      FockVector.vacuum())

    def test_vn_annihilates_vacuum(self):
        k = NullVector(MOME4[0], Fraction(1))
        for n in range(1, 5):
            assert not v_scalar_apply(n, k, FockVector.vacuum(), P4)

    def test_level_grading(self):
        # V_t maps level L homogeneous vectors to level L - t
        rng = random.Random(3)
        k = NullVector(MOME4[0], Fraction(1))
        for mono in iter_level_basis(P4, 2):
            v = FockVector.basis_state(mono)
            for t in (-2, -1, 0, 1, 2):
                out = v_scalar_apply(t, k, v, P4)
                if out:
                    levels = {sum(n for n, _ in m) for m in dict(out.items())}
                    assert levels == {2 - t}
            assert not v_scalar_apply(3, k, v, P4)

    def test_truncation_soundness(self):
        """Widening the internal sum beyond the stated bounds changes nothing."""
        k = NullVector(MOME4[1], Fraction(1))
        rng = random.Random(11)
        for _ in range(4):
            v = random_vector(rng, P4, max_level=2)
            for t in (-2, -1, 0, 1, 2):
                out = v_scalar_apply(t, k, v, P4)
                wide = FockVector.zero()
                for idx in range(max(0, t), v.level() + 5):
                    w = u_op_apply(idx, k, v, P4)
                    if not w:
                        continue
                    wide += u_op_apply(idx - t, k, w, P4, sign=-1, dagger=True)
                assert vec_eq(out, wide)


# one momentum per coefficient ring, all with p^0 + p^{d-1} != 0
RING_MOMENTA = {
    "fraction": Momentum((Fraction(3, 2), Fraction(-1, 3), 2, Fraction(1, 2))),
    "symbolic": sym_momentum(4),
}


def mixed_vectors(seed, count):
    """Random vectors of level <= 3, each with a monomial that carries
    both lightcone and transverse factors."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = random_vector(rng, P4, max_level=3, terms=5)
        if any({mu in (0, 3) for _, mu in mono} == {True, False}
               for mono, _ in v.items()):
            out.append(v)
    return out


def ddf_apply_reference(i, n, v, p, nk):
    """A^i_n = sum_s alpha^i_s V_{n-s}(n k) with alpha^i_0 = p^i, every
    V_t run on the whole vector; s reaches one step past either bound."""
    level = v.level()
    out = FockVector.zero()
    for s in range(n - level - 1, level + 2):
        w = v_scalar_apply_reference(n - s, nk, v, P4)
        if s == 0:
            out += w.scaled(p[i])
        elif w:
            out += apply_oscillator((s, i), w, P4)
    return out


class TestLightconeImages:
    """V_t from cached lightcone images against V_t run on whole vectors."""

    @pytest.mark.parametrize("ring", sorted(RING_MOMENTA))
    def test_v_scalar_matches_reference(self, ring):
        ctx = DdfContext(P4, RING_MOMENTA[ring])
        vectors = mixed_vectors(61, 3)
        for n in (1, -1, 2, -2):
            k = ctx.null_at(n)
            for v in vectors:
                for t in range(-3, 4):
                    assert v_scalar_apply(t, k, v, P4) == \
                        v_scalar_apply_reference(t, k, v, P4), (n, t)

    @pytest.mark.parametrize("ring", sorted(RING_MOMENTA))
    def test_ddf_apply_matches_reference(self, ring):
        p = RING_MOMENTA[ring]
        ctx = DdfContext(P4, p)
        for n, i in ((1, 1), (-1, 2), (2, 2), (-2, 1)):
            nk = NullVector(p, Fraction(n))
            for v in mixed_vectors(62, 2):
                assert ddf_apply(i, n, v, ctx) == \
                    ddf_apply_reference(i, n, v, p, nk), (n, i)

    @pytest.mark.parametrize("ring", sorted(RING_MOMENTA))
    def test_linked_images_match_unlinked(self, ring):
        # n k(p) at d = 4 keeps each V_t image once in the d = 2 model
        # (last = 1) and its relabelling of direction 1 to 3 (last = 3);
        # the reference builds V_t at d = 4 from U_n on the whole vector
        ctx = DdfContext(P4, RING_MOMENTA[ring])
        lightcone = [FockVector.basis_state(mono) for level in range(4)
                     for mono in iter_level_basis(P4, level)
                     if all(mu in (0, 3) for _, mu in mono)]
        assert len(lightcone) == 1 + 2 + 5 + 10
        for n in (1, -1, 2, -3):
            k = ctx.null_at(n)
            for v in lightcone:
                for t in range(-3, 4):
                    assert v_scalar_apply(t, k, v, P4) == \
                        v_scalar_apply_reference(t, k, v, P4), (n, t, v)
            assert k.images and {last for *_, last in k.images} == {1, 3}
            for t, lam, last in k.images:
                if last == 3:
                    assert k.images[t, lam, 3] == ddf_module._lifted(
                        k.images[t, lam, 1], 3), (n, t, lam)

    def test_certificates_build_images_only_in_the_plane(self, monkeypatch):
        # the literal A^i_n of both certificates runs V_t at d = 26, but
        # every lightcone image is built in the d = 2 model
        dims = []
        real = ddf_module._lightcone_image
        monkeypatch.setattr(ddf_module, "_lightcone_image",
                            lambda n, k, lc, params: dims.append(params.d)
                            or real(n, k, lc, params))
        ctx = DdfContext(P26, _probe_momenta(26, 2)[1])
        probes = [FockVector.vacuum(),
                  FockVector({((1, 0), (1, 3)): Fraction(1)}),
                  FockVector({((1, 2), (1, 25)): Fraction(2),
                              ((2, 0),): Fraction(-1)})]
        for m, n in ((1, -2), (-1, -1), (2, 1)):
            for v in probes:
                res = ddf_commutator_residual(m, 3, n, v, ctx)
                assert res == ddf_commutator_defect(m, 3, n, v, ctx)
        assert len(ctx.certified) == 2 * 3 * 3
        assert dims and set(dims) == {2}

    def test_factored_engine_builds_no_second_context(self, monkeypatch):
        # the d = 2 images live on the context and its null vectors: the
        # residual, the defect and the calibration make one DdfContext per
        # momentum and candidate, and no null vector points at another
        made = []
        real = DdfContext.__init__

        def counting(self, params, p, kappa=Fraction(1)):
            made.append((params.d, p, kappa))
            real(self, params, p, kappa)

        monkeypatch.setattr(DdfContext, "__init__", counting)
        momenta = _probe_momenta(26, 2)
        ctx = DdfContext(P26, momenta[1])
        v = FockVector({((1, 2), (1, 25)): Fraction(2), ((2, 0),): Fraction(-1)})
        for m, n in ((1, -2), (-1, -1), (2, 1)):
            assert ddf_commutator_residual(m, 3, n, v, ctx) == \
                ddf_commutator_defect(m, 3, n, v, ctx)
            assert not hasattr(ctx.null_at(n), "plane")
        assert made == [(26, momenta[1], 1)]
        assert calibrate_normalization(P26, momenta) == 1
        assert made[1:] == [(26, p, 1) for p in momenta]

    def test_interleaved_contexts_keep_their_own_images(self):
        a, b = DdfContext(P4, MOME4[0]), DdfContext(P4, MOME4[1])
        assert a.null_at(1) is a.null_at(1)
        assert a.null_at(1) is not b.null_at(1)
        for v in mixed_vectors(63, 3):
            for n in (1, -1, 2, -2):
                for ctx in (a, b, a):
                    want = ddf_apply_reference(
                        1, n, v, ctx.p, NullVector(ctx.p, Fraction(n)))
                    assert ddf_apply(1, n, v, ctx) == want, (ctx, n)

    def test_degenerate_fiber_gives_zero(self):
        ctx = DdfContext(P4, mom(1, 0, 0, -1))
        assert ctx.degenerate
        for v in mixed_vectors(64, 2):
            for n in (1, -1, 2, -2):
                assert not ddf_apply(1, n, v, ctx)
                # V_t at the zero null vector is the identity at t = 0
                k = ctx.null_at(n)
                for t in range(-3, 4):
                    assert v_scalar_apply(t, k, v, P4) == \
                        (v if t == 0 else FockVector.zero())


# a p^i = 0 direction next to p^i != 0 ones, at d = 4 and at d = 26
SHARED_IMAGE_CASES = {
    "d4": (P4, MOME4[0], basis_upto(P4, 2)),
    "d26": (P26, mom26(2, 1, 0, -1, 1), [
        FockVector({((1, 0), (1, 1)): Fraction(1), ((2, 25),): Fraction(1, 2),
                    ((1, 2), (1, 3)): Fraction(-2)}),
        FockVector({((1, 1), (1, 25)): Fraction(3), ((1, 0),): Fraction(1)}),
        FockVector.vacuum(),
    ]),
}


class TestSharedVertexImages:
    """ddf_apply, which assembles A^i_n (lam (x) tau) = sum_s V_{n-s}(n k)
    lam (x) alpha^i_s tau from the direction-free lightcone images
    V_t(n k) lam, against the literal two-loop form on whole vectors."""

    @pytest.mark.parametrize("case", sorted(SHARED_IMAGE_CASES))
    def test_ddf_apply_matches_two_loop_reference(self, case):
        params, p, vectors = SHARED_IMAGE_CASES[case]
        vectors = vectors + [random_vector(random.Random(seed), params, 2)
                             for seed in range(3)]
        seen = set()
        for kappa in (Fraction(1), Fraction(1, 2), Fraction(2)):
            ctx = DdfContext(params, p, kappa=kappa)
            for n in range(-2, 3):
                nk = NullVector(p, kappa * n)
                for v in vectors:
                    for i in range(1, params.d - 1):
                        want = v_vector_apply_reference(i, n, nk, p, v, params)
                        assert ddf_apply(i, n, v, ctx) == want, (kappa, n, i, v)
                        present = any(mu == i for mono, _ in v.items()
                                      for _, mu in mono)
                        seen.add((present, bool(p[i])))
        # directions in v and absent from it, with p^i zero and nonzero
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}


class TestVertexNormalForm:
    """A^i_n = sum_s alpha^i_s V_{n-s}(n k), with alpha^i_0 = p^i.

    This is the mode expansion of the underlying vertex operator; it pins
    the equivalence of the split double-sum definition with the compact
    transverse form (possible because transverse oscillators commute with
    every k.alpha factor).
    """

    @pytest.mark.parametrize("n", range(-2, 3))
    def test_normal_form(self, n):
        p = MOME4[0]
        ctx = DdfContext(P4, p)
        nk = ctx.null.times(n)
        for v in basis_upto(P4, 2):
            level = v.level()
            out = FockVector.zero()
            for s in range(n - level, level + 1):
                t = n - s
                if t > level:
                    continue
                w = v_scalar_apply(t, nk, v, P4)
                if not w:
                    continue
                if s == 0:
                    out += w.scaled(p[1])
                else:
                    out += apply_oscillator((s, 1), w, P4)
            assert vec_eq(out, ddf_apply(1, n, v, ctx))


class TestOperatorBasics:
    def test_frozen_lowering_on_vacuum(self):
        # A^1_{-1} vac at p = (2,1,0,1): transverse creation plus the
        # momentum-weighted null dressing, all exact
        ctx = DdfContext(P4, mom(2, 1, 0, 1))
        out = ddf_apply(1, -1, FockVector.vacuum(), ctx)
        assert dict(out.items()) == {
            ((1, 1),): Fraction(1),
            ((1, 0),): Fraction(-1, 3),
            ((1, 3),): Fraction(-1, 3),
        }

    def test_annihilates_vacuum(self):
        ctx = DdfContext(P4, MOME4[0])
        for n in (1, 2, 3):
            assert not ddf_apply(1, n, FockVector.vacuum(), ctx)

    def test_zero_mode_is_momentum_component(self):
        rng = random.Random(7)
        for p in MOME4:
            ctx = DdfContext(P4, p)
            v = random_vector(rng, P4, max_level=2)
            for i in (1, 2):
                assert vec_eq(ddf_apply(i, 0, v, ctx), v.scaled(p[i]))

    def test_invalid_directions_rejected(self):
        ctx = DdfContext(P4, MOME4[0])
        for i in (0, 3, 4, -1):
            with pytest.raises(InvalidDirectionError):
                ddf_apply(i, 1, FockVector.vacuum(), ctx)
            # the factored V^mu_n holds for transverse mu only
            with pytest.raises(InvalidDirectionError):
                v_vector_apply(i, 1, ctx.null_at(1), ctx.p,
                               FockVector.vacuum(), P4)

    def test_degenerate_fiber_gives_zero(self):
        ctx = DdfContext(P4, mom(1, 2, 3, -1))
        assert ctx.degenerate
        v = FockVector.basis_state(((1, 1),))
        assert not ddf_apply(1, -1, v, ctx)

    def test_gram_is_kronecker_delta(self):
        for p in (MOME4[0], MOME4[1]):
            ctx = DdfContext(P4, p)
            states = {i: ddf_apply(i, -1, FockVector.vacuum(), ctx) for i in (1, 2)}
            for i in (1, 2):
                for j in (1, 2):
                    expected = Fraction(1) if i == j else Fraction(0)
                    assert inner_indefinite(states[i], states[j]) == expected


class TestOscillatorAlgebra:
    """[A^i_m, A^j_n] = delta_ij m delta_{m+n} — coefficient from the first
    index, which is what the explicit expansion produces (and the only sign
    compatible with a positive transverse Gram)."""

    def test_commutators_on_probe_grid(self):
        for p in MOME4[:2]:
            ctx = DdfContext(P4, p)
            for (i, j) in ((1, 1), (1, 2)):
                for m in range(-2, 3):
                    for n in range(-2, 3):
                        for v in basis_upto(P4, 2):
                            lhs = ddf_apply(i, m, ddf_apply(j, n, v, ctx), ctx)
                            rhs = ddf_apply(j, n, ddf_apply(i, m, v, ctx), ctx)
                            comm = lhs
                            for mono, c in rhs.items():
                                comm.add_term(mono, -c)
                            if i == j and m + n == 0:
                                for mono, c in v.items():
                                    comm.add_term(mono, -Fraction(m) * c)
                            assert not comm, (i, j, m, n)

    def test_ladder_normalization_on_vacuum(self):
        # the m = 1 rung: [A^1_1, A^1_{-1}] vac = +vac
        ctx = DdfContext(P4, MOME4[0])
        vac = FockVector.vacuum()
        up = ddf_apply(1, -1, vac, ctx)
        assert vec_eq(ddf_apply(1, 1, up, ctx), vac)

    def test_adjoint_relation(self):
        rng = random.Random(5)
        ctx = DdfContext(P4, MOME4[1])
        for n in (1, 2):
            for _ in range(4):
                u = random_vector(rng, P4, max_level=2)
                v = random_vector(rng, P4, max_level=3)
                lhs = inner_indefinite(ddf_apply(1, -n, u, ctx), v)
                rhs = inner_indefinite(u, ddf_apply(1, n, v, ctx))
                assert lhs == rhs


class TestVirasoroCommutators:
    """The realized [L_m, A^i_n] structure: exact zero below the kinematic
    threshold, exact closed-form defect above it."""

    def test_grading_with_l0(self):
        for p in MOME4[:2]:
            ctx = DdfContext(P4, p)
            for n in range(-2, 3):
                for v in basis_upto(P4, 2):
                    assert not ddf_commutator_residual(0, 1, n, v, ctx)

    def test_threshold_table(self):
        assert defect_threshold(-1, -1) == 0
        assert defect_threshold(-2, 1) == 1
        assert defect_threshold(1, -2) == 1
        assert defect_threshold(1, 1) == 2
        assert defect_threshold(2, 2) == 4

    def test_protected_sector_vanishes(self):
        for p in MOME4[:2]:
            ctx = DdfContext(P4, p)
            for m in (-2, -1, 1, 2):
                for n in range(-2, 3):
                    cut = defect_threshold(m, n)
                    for v in basis_upto(P4, 2):
                        if v.level() >= cut:
                            continue
                        assert not ddf_commutator_residual(m, 1, n, v, ctx), (m, n)

    def test_minimal_counterexample_frozen(self):
        # [L_{-1}, A^1_{-1}] vac = -alpha^1_{-1}(k.alpha_{-1}) vac != 0:
        # hand-expanded both operator orders; at p = (2,0,0,1), k^0 = 1/3
        ctx = DdfContext(P4, mom(2, 0, 0, 1))
        res = ddf_commutator_residual(-1, 1, -1, FockVector.vacuum(), ctx)
        assert dict(res.items()) == {
            ((1, 0), (1, 1)): Fraction(1, 3),
            ((1, 1), (1, 3)): Fraction(1, 3),
        }

    def test_defect_closed_form_on_grid(self):
        for p in MOME4[:2]:
            ctx = DdfContext(P4, p)
            for m in (-2, -1, 1, 2):
                for n in range(-2, 3):
                    for v in basis_upto(P4, 2):
                        res = ddf_commutator_residual(m, 1, n, v, ctx)
                        dft = ddf_commutator_defect(m, 1, n, v, ctx)
                        assert vec_eq(res, dft), (m, n)

    def test_defect_annihilates_word_states_for_raising_m(self):
        # the sector that carries the physics: for m > 0 the commutator
        # acts as zero on states built by lowering operators out of the
        # vacuum (A^i_n keeps them in the DDF span, L_{m>0} kills the span)
        ctx = DdfContext(P4, MOME4[0])
        words = [[(1, 1)], [(2, 1)], [(1, 2)], [(1, 1), (2, 1)], [(1, 1), (1, 1)]]
        for word in words:
            psi = ddf_state(word, ctx)
            for m in (1, 2):
                for n in range(-2, 3):
                    assert not ddf_commutator_defect(m, 1, n, psi, ctx)

    def test_defect_moves_word_states_for_lowering_m(self):
        # ...and for m < 0 it does not: the commutator pushes word states
        # out of the DDF span (harmless — the physical-state conditions
        # only involve L_m with m > 0)
        ctx = DdfContext(P4, MOME4[0])
        psi = ddf_state([(1, 1)], ctx)
        assert ddf_commutator_defect(-1, 1, -1, psi, ctx)

    def test_defect_guards(self):
        ctx = DdfContext(P4, MOME4[0])
        with pytest.raises(ValueError):
            ddf_commutator_defect(0, 1, 1, FockVector.vacuum(), ctx)
        ctx_half = DdfContext(P4, MOME4[0], kappa=Fraction(1, 2))
        with pytest.raises(ValueError):
            ddf_commutator_defect(1, 1, 1, FockVector.vacuum(), ctx_half)

    def test_defect_builds_each_lightcone_image_once(self, monkeypatch):
        # the closed-form sums read V_t(n k) lam off the null vectors' own
        # cache, without v_scalar_apply: each (n k, t, lam) is built once
        # per context, for the images and the certificate's literal alike
        built = []
        real = ddf_module._lightcone_image
        monkeypatch.setattr(ddf_module, "_lightcone_image",
                            lambda t, k, lam, params: built.append(
                                (id(k), t, lam)) or real(t, k, lam, params))
        ctx = DdfContext(P4, MOME4[0])
        for m, n in [(-2, -2), (2, 2), (1, -1)]:
            for v in basis_upto(P4, 2):
                ddf_commutator_defect(m, 1, n, v, ctx)
        assert built and len(built) == len(set(built))


class TestCalibration:
    def test_selects_unit_normalization(self):
        assert calibrate_normalization(P4, MOME4[:2]) == 1

    def test_rejects_wrong_candidates_with_witnesses(self):
        with pytest.raises(CalibrationError) as exc:
            calibrate_normalization(
                P4, MOME4[:2], candidates=(Fraction(1, 2), Fraction(2))
            )
        residuals = exc.value.residuals
        assert set(residuals) == {"1/2", "2"}
        for witness in residuals.values():
            assert witness["residual_terms"] > 0
            assert witness["m"] != 0

    def test_single_bad_candidate(self):
        with pytest.raises(CalibrationError):
            calibrate_normalization(P4, MOME4[:2], candidates=(Fraction(3),))

    def test_degenerate_momentum_rejected(self):
        with pytest.raises(ValueError):
            calibrate_normalization(P4, [mom(1, 1, 1, -1)])

    def test_degenerate_momentum_refused_before_any_candidate(self):
        # the first momentum alone would fail kappa = 3 with a witness; the
        # degenerate second one must still be refused, not reached
        with pytest.raises(ValueError, match=r"p\^0 \+ p\^\{d-1\} = 0"):
            calibrate_normalization(P4, [mom(2, 1, 0, 1), mom(1, 1, 1, -1)],
                                    candidates=(Fraction(3),))

    def test_zero_candidate_is_named_not_the_momentum(self):
        with pytest.raises(ValueError, match="candidate 0") as exc:
            calibrate_normalization(P4, [mom(2, 1, 0, 1)],
                                    candidates=(Fraction(0), Fraction(1)))
        assert "momentum" not in str(exc.value)

    def test_needs_momenta(self):
        with pytest.raises(ValueError):
            calibrate_normalization(P4, [])

    def test_directions_share_vertex_image_builds(self, monkeypatch):
        # k^i = 0, so the lightcone images R_s serve every direction, and a
        # residual is assembled only for the certificate or a witness: one
        # direction builds and assembles as often as all 24 do
        counts = {"_residual_image": [], "_factored": []}
        for name, calls in counts.items():
            def counting(*args, real=getattr(ddf_module, name), calls=calls):
                calls.append(args[:3])
                return real(*args)
            monkeypatch.setattr(ddf_module, name, counting)
        totals = []
        for directions in ((1,), None):
            for calls in counts.values():
                calls.clear()
            assert calibrate_normalization(
                P26, [mom26(2, 1, 0, 1)], directions=directions) == 1
            totals.append({name: len(calls) for name, calls in counts.items()})
        assert totals[0] == totals[1]
        assert min(totals[0].values()) > 0

    def test_dropping_the_zero_mode_image_is_caught(self, monkeypatch):
        # without its s = 0 term A^i_n loses p^i V_n lam (x) tau; the
        # factored residual does not use A^i_n, so the literal certificate
        # disagrees with it on the first probe, and kappa = 1 cannot pass
        real = ddf_module.v_vector_apply

        def without_zero_mode(mu, n, k, p, v, params):
            return real(mu, n, k, p, v, params) - v_scalar_apply(
                n, k, v, params).scaled(p[mu])

        monkeypatch.setattr(ddf_module, "v_vector_apply", without_zero_mode)
        with pytest.raises(InvariantError, match=r"\[L_1, A\^1_-2\]"):
            calibrate_normalization(P4, MOME4[:2])

    def test_non_transverse_directions_rejected(self):
        for i in (0, 3):
            with pytest.raises(InvalidDirectionError):
                calibrate_normalization(P4, MOME4[:1], directions=(1, i))

    def test_witnesses_frozen_on_cli_momenta(self):
        # the CLI's seed-0 momenta: the fixed (2, 1, 0, .., 0, 1) and a
        # seeded one; both candidates fail first on [L_1, A^1_{-2}] vac
        fixed, seeded = _probe_momenta(26, 0)
        fixed_repr = ("(Fraction(2, 1), Fraction(1, 1), "
                      + "Fraction(0, 1), " * 23 + "Fraction(1, 1))")
        assert repr(fixed.components) == fixed_repr
        witness = {"i": 1, "n": -2, "m": 1, "residual_terms": 3}
        for momenta, where in (([fixed, seeded], fixed_repr),
                               ([seeded], repr(seeded.components))):
            with pytest.raises(CalibrationError) as exc:
                calibrate_normalization(
                    P26, momenta, candidates=(Fraction(1, 2), Fraction(2)))
            assert exc.value.residuals == {
                "1/2": {"momentum": where, **witness},
                "2": {"momentum": where, **witness},
            }

    def test_plane_momenta_still_discriminate(self):
        # even without transverse momentum components the zero-mode pairing
        # k.alpha_0 = k.p = -kappa exposes a wrong candidate:
        # [L_1, A^1_{-2}] vac = 2 (1 - kappa) alpha^1_{-1} vac
        plane = [mom(2, 0, 0, 1), mom(3, 0, 0, 1)]
        with pytest.raises(CalibrationError) as exc:
            calibrate_normalization(P4, plane, candidates=(Fraction(3),))
        witness = exc.value.residuals["3"]
        assert (witness["m"], witness["n"]) == (1, -2)
        assert calibrate_normalization(P4, plane) == 1
        ctx = DdfContext(P4, plane[0], kappa=Fraction(3))
        res = ddf_commutator_residual(1, 1, -2, FockVector.vacuum(), ctx)
        assert dict(res.items()) == {((1, 1),): Fraction(-4)}

    @pytest.mark.parametrize("momenta", [
        MOME4[:2], MOME4[:1], [mom(2, 0, 0, 1), mom(3, 0, 0, 1)]],
        ids=["transverse", "p2-zero", "plane"])
    def test_direction_set_matches_per_direction_loop(self, monkeypatch,
                                                      momenta):
        # the failing directions read off the live s against testing each
        # direction in turn: the same kappa or the same witnesses
        def outcome():
            try:
                return calibrate_normalization(P4, momenta, candidates=cands,
                                               directions=dirs)
            except CalibrationError as exc:
                return exc.residuals

        for cands in ((Fraction(1, 2), Fraction(2)), (Fraction(3),),
                      (Fraction(1),)):
            for dirs in ((1, 2), (2, 1), (2,)):
                got = outcome()
                with monkeypatch.context() as patch:
                    patch.setattr(ddf_module, "_first_calibration_failure",
                                  first_calibration_failure_reference)
                    assert outcome() == got, (cands, dirs)

    @pytest.mark.parametrize("momentum", [MOME4[0], mom(2, 0, 0, 1)],
                             ids=["p1-only", "plane"])
    def test_direction_set_matches_on_uncertified_cells(self, monkeypatch,
                                                        momentum):
        # each cell alone, for every (n, m) of |n|, |m| <= 2 on every probe
        # of level <= 2, above the threshold too, with j = 1: only a probe
        # with a factor in dirs[0] is certified, so the direction set alone
        # finds the failing direction.  Every call shares one context, so
        # the images are built once.
        shared = DdfContext(P4, momentum, Fraction(1, 2))
        monkeypatch.setattr(ddf_module, "DdfContext", lambda *args: shared)
        for dirs in ((1, 2), (2, 1)):
            for n in range(-2, 3):
                for m in (-2, -1, 1, 2):
                    for v in basis_upto(P4, 2):
                        args = (P4, [momentum], Fraction(1, 2),
                                [(n, m, v.level(), 1, v)], dirs)
                        assert ddf_module._first_calibration_failure(
                            *args) == first_calibration_failure_reference(
                                *args), (dirs, n, m, v)

    @pytest.mark.parametrize("seed", [0, 2, 81])
    def test_direction_set_matches_on_cli_rejects(self, monkeypatch, seed):
        momenta = _probe_momenta(26, seed)
        cands = (Fraction(1, 2), Fraction(2))
        with pytest.raises(CalibrationError) as got:
            calibrate_normalization(P26, momenta, candidates=cands)
        monkeypatch.setattr(ddf_module, "_first_calibration_failure",
                            first_calibration_failure_reference)
        with pytest.raises(CalibrationError) as want:
            calibrate_normalization(P26, momenta, candidates=cands)
        assert got.value.residuals == want.value.residuals

    @pytest.mark.parametrize("kwargs,empty", [
        ({"directions": ()}, "direction"),
        ({"mode_cap": 0}, "probe set"),
        ({"level_cap": -1}, "probe set"),
    ], ids=["no-directions", "no-modes", "no-levels"])
    def test_vacuous_calibration_is_refused(self, kwargs, empty):
        # with nothing to check, any candidate would pass; the default probe
        # set rejects kappa = 7
        with pytest.raises(CalibrationError):
            calibrate_normalization(P4, MOME4[:1], candidates=(Fraction(7),))
        with pytest.raises(ValueError, match=empty):
            calibrate_normalization(
                P4, MOME4[:1], candidates=(Fraction(7),), **kwargs)


def literal_residual(i, n, m, v, ctx):
    """L_m A^i_n v - A^i_n L_m v, plus n A^i_n v for m = 0."""
    w = ddf_apply(i, n, v, ctx)
    lowered = virasoro_apply(m, ctx.p, v, ctx.params)
    res = virasoro_apply(m, ctx.p, w, ctx.params) - ddf_apply(i, n, lowered, ctx)
    return res + w.scaled(n) if m == 0 else res


class TestCalibrationExpansion:
    """The calibration and the residual read [L_m, A^i_n] v off the cached
    lightcone images R_s (``ddf._factored`` on ``ddf._residual_image``).
    Here that form is pinned to the literal composition on every cell and
    direction at d = 4 and on sampled cells at d = 26, and a tampered
    image must trip the calibration's certificate."""

    @staticmethod
    def expansion(i, n, m, v, ctx):
        return ddf_module._factored(ddf_module._residual_image, m, i, n, v, ctx)

    @pytest.mark.parametrize("b,kappa", [
        (Fraction(1), Fraction(1)),
        (Fraction(1, 2), Fraction(1)),
        (Fraction(1), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ], ids=["b1", "b1/2", "kappa1/2", "b1/2-kappa1/2"])
    def test_matches_literal_commutator_at_d4(self, b, kappa):
        params = ModelParams(d=4, b=b)
        ctx = DdfContext(params, MOME4[1], kappa=kappa)
        nonzero = 0
        for n in range(-3, 4):
            for m in range(-3, 4):
                for v in basis_upto(params, 2):
                    for i in (1, 2):
                        got = self.expansion(i, n, m, v, ctx)
                        assert got == literal_residual(i, n, m, v, ctx), \
                            (i, n, m, v)
                        assert ddf_commutator_residual(m, i, n, v, ctx) == got
                        nonzero += bool(got)
        # above the defect threshold, or off kappa = 1, the bracket is
        # mostly nonzero, so the equality is not 0 == 0
        assert nonzero > 250

    def test_matches_literal_commutator_on_sampled_d26_cells(self):
        rng = random.Random(15)
        ctx = DdfContext(P26, _probe_momenta(26, 2)[1])
        probes = basis_upto(P26, 2)
        nonzero = 0
        for _ in range(80):
            v = rng.choice(probes)
            n, m = rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))
            present = sorted({mu for mono, _ in v.items() for _, mu in mono
                              if 0 < mu < 25})
            i = rng.choice(present) if present and rng.random() < 0.5 \
                else rng.randint(1, 24)
            got = self.expansion(i, n, m, v, ctx)
            assert got == literal_residual(i, n, m, v, ctx), (i, n, m, v)
            nonzero += bool(got)
        assert nonzero > 10

    @pytest.mark.parametrize("where", ["first-probe", "first-factor"])
    def test_tampered_expansion_is_an_invariant_error(self, monkeypatch,
                                                      capsys, where):
        # an extra vacuum term in every image, or only in the images R_s
        # with s > 0, which reach a probe only through a factor alpha^i_{-s}
        # of it: only the second certified probe sees those
        real = ddf_module._residual_image

        def tampered(m, n, s, lam, plane, vertex):
            out = real(m, n, s, lam, plane, vertex)
            if where == "first-probe" or s > 0:
                out += FockVector.vacuum()
            return out

        monkeypatch.setattr(ddf_module, "_residual_image", tampered)
        with pytest.raises(InvariantError, match="disagrees"):
            calibrate_normalization(P4, MOME4[:2])
        assert main(["ddf", "--d", "4"]) == 4
        assert capsys.readouterr().err.startswith("internal error: [L_")


class TestFactoredResidual:
    """ddf_commutator_residual and ddf_commutator_defect assemble
    sum_s image_s(lam) (x) alpha^i_s tau from lightcone images built in the
    d = 2 model; both against their whole-vector forms, and both certified
    against the literal commutator."""

    def test_multi_term_vectors_at_d26(self):
        rng = random.Random(23)
        ctx = DdfContext(P26, _probe_momenta(26, 2)[1])
        nonzero = 0
        for _ in range(30):
            v = random_vector(rng, P26, 2, terms=4)
            # n <= 1 keeps most cells above the defect threshold
            m, n, i = rng.randint(-3, 3), rng.randint(-3, 1), rng.randint(1, 24)
            got = ddf_commutator_residual(m, i, n, v, ctx)
            assert got == literal_residual(i, n, m, v, ctx), (m, n, i, v)
            nonzero += bool(got)
        assert nonzero > 10

    def test_word_states_at_d26(self):
        ctx = DdfContext(P26, mom26(2, 1, 0, -1, 1))
        nonzero = 0
        for word in ([(1, 1)], [(2, 2)], [(1, 1), (24, 1)]):
            psi = ddf_state(word, ctx)
            for m in range(-3, 4):
                for n in range(-3, 4):
                    for i in (1, 2, 24):
                        got = ddf_commutator_residual(m, i, n, psi, ctx)
                        assert got == literal_residual(i, n, m, psi, ctx), \
                            (word, m, n, i)
                        nonzero += bool(got)
        assert nonzero > 50

    def test_symbolic_momentum(self):
        ctx = DdfContext(P4, sym_momentum(4))
        probes = basis_upto(P4, 1) + [FockVector({((1, 1), (1, 3)): Fraction(2)})]
        for m, n in ((-1, -1), (1, -2), (2, 1), (0, 1)):
            for v in probes:
                got = ddf_commutator_residual(m, 1, n, v, ctx)
                assert got == literal_residual(1, n, m, v, ctx), (m, n, v)

    def test_degenerate_context_gives_zero(self):
        ctx = DdfContext(P4, mom(1, 0, 0, -1))
        for v in basis_upto(P4, 2) + mixed_vectors(65, 2):
            for m in (-2, -1, 1, 2):
                for n in range(-2, 3):
                    assert not ddf_commutator_residual(m, 1, n, v, ctx)
                    assert not ddf_commutator_defect(m, 2, n, v, ctx)

    def test_non_transverse_directions_refused_first(self):
        for ctx in (DdfContext(P4, MOME4[0]), DdfContext(P4, mom(1, 0, 0, -1))):
            for i in (0, 3, 4):
                with pytest.raises(InvalidDirectionError):
                    ddf_commutator_residual(1, i, 1, FockVector.vacuum(), ctx)
                for m in (1, 0):  # refused before the m = 0 guard
                    with pytest.raises(InvalidDirectionError):
                        ddf_commutator_defect(m, i, 1, FockVector.vacuum(), ctx)

    @pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
    def test_defect_matches_reference(self, m):
        ctx = DdfContext(P4, MOME4[1])
        # level-3 probes put m = 3 above the threshold; for m < 0 the
        # whole-vector reference runs V_t down to t = m + n - 6 on them
        probes = basis_upto(P4, 2) + (mixed_vectors(66, 3) if m > 0 else [])
        nonzero = 0
        for n in range(-2, 3):
            for v in probes:
                for i in (1, 2):
                    got = ddf_commutator_defect(m, i, n, v, ctx)
                    assert got == ddf_commutator_defect_reference(
                        m, i, n, v, ctx), (m, n, i, v)
                    nonzero += bool(got)
        assert nonzero > 0

    def test_certificate_runs_once_per_cell(self, monkeypatch):
        calls = []
        real = ddf_module._literal_residual
        monkeypatch.setattr(ddf_module, "_literal_residual",
                            lambda *args: calls.append(args) or real(*args))
        ctx = DdfContext(P4, MOME4[0])
        probes = basis_upto(P4, 2)
        for _ in range(2):
            for v in probes:
                ddf_commutator_residual(1, 1, -1, v, ctx)
                ddf_commutator_defect(1, 1, -1, v, ctx)
        cells = {(v.level(), any(mu == 1 for mono in v.terms for _, mu in mono))
                 for v in probes}
        # one literal per cell serves both builders, and both are certified
        assert len(calls) == len(cells) == 5
        assert ctx.certified == {
            (build, -1, 1, *cell) for cell in cells
            for build in (ddf_module._residual_image, ddf_module._defect_image)}
        assert len(ctx.certified) == 10
        assert not ctx.literals

    def test_each_builder_compares_its_own_probe(self, monkeypatch):
        # the residual's literal on alpha^0_{-1} vac is not the defect's on
        # alpha^2_{-1} vac, although both probes share a cell
        calls = []
        real = ddf_module._literal_residual
        monkeypatch.setattr(ddf_module, "_literal_residual",
                            lambda *args: calls.append(args) or real(*args))
        ctx = DdfContext(P4, MOME4[1])
        v, w = (FockVector.basis_state(((1, mu),)) for mu in (0, 2))
        assert real(1, 1, -1, v, ctx) != real(1, 1, -1, w, ctx)
        ddf_commutator_residual(1, 1, -1, v, ctx)
        assert ctx.literals
        assert ddf_commutator_defect(1, 1, -1, w, ctx) == \
            literal_residual(1, -1, 1, w, ctx)
        assert len(calls) == 2 and not ctx.literals

    @pytest.mark.parametrize("image,apply", [
        ("_residual_image", ddf_commutator_residual),
        ("_defect_image", ddf_commutator_defect),
    ], ids=["residual", "defect"])
    def test_tampered_image_is_an_invariant_error(self, monkeypatch, image,
                                                  apply):
        real = getattr(ddf_module, image)
        monkeypatch.setattr(ddf_module, image,
                            lambda *args: real(*args) + FockVector.vacuum())
        with pytest.raises(InvariantError, match="disagrees"):
            apply(1, 1, -2, FockVector.vacuum(), DdfContext(P4, MOME4[0]))


class TestWordStates:
    def test_empty_word_is_vacuum(self):
        ctx = DdfContext(P4, MOME4[0])
        assert vec_eq(ddf_state([], ctx), FockVector.vacuum())

    def test_level_is_word_weight(self):
        ctx = DdfContext(P4, MOME4[1])
        for word, weight in [([(1, 1)], 1), ([(1, 2)], 2),
                             ([(1, 1), (2, 1)], 2), ([(2, 1), (1, 2)], 3)]:
            psi = ddf_state(word, ctx)
            assert psi
            assert psi.level() == weight

    def test_single_rung_has_unit_norm(self):
        ctx = DdfContext(P4, MOME4[0])
        psi = ddf_state([(1, 1)], ctx)
        assert inner_indefinite(psi, psi) == 1

    def test_raising_entries_rejected(self):
        ctx = DdfContext(P4, MOME4[0])
        with pytest.raises(ValueError):
            ddf_state([(1, -1)], ctx)
        with pytest.raises(ValueError):
            ddf_state([(1, 0)], ctx)

    def test_mass_square_eigenvalue(self):
        # M^2 = 2(nbar - b) on word states
        ctx = DdfContext(P4, MOME4[1])
        psi = ddf_state([(1, 1), (2, 1)], ctx)
        assert vec_eq(mass_square_apply(psi, P4), psi.scaled(2 * (2 - P4.b)))


class TestConstraints:
    def test_lowering_constraints_vanish_on_words(self):
        # every word of total weight <= 3 over two transverse directions
        words = [[]]
        for w in words:
            s = sum(n for _, n in w)
            for i in (1, 2):
                for n in range(1, 4 - s):
                    words.append(w + [(i, n)])
        words = [w for w in words if w]
        for p in MOME4[:2]:
            ctx = DdfContext(P4, p)
            for word in words:
                psi = ddf_state(word, ctx)
                for m in (1, 2, 3):
                    assert not virasoro_apply(m, p, psi, P4), (word, m)

    def test_l0_eigenvalue_formula(self):
        for p in MOME4[:2]:
            ctx = DdfContext(P4, p)
            for word in ([(1, 1)], [(1, 1), (2, 1)], [(1, 2)]):
                psi = ddf_state(word, ctx)
                nbar = sum(n for _, n in word)
                ev = Fraction(1, 2) * (p.minkowski_sq() - 2 * P4.b + 2 * nbar)
                assert vec_eq(virasoro_apply(0, p, psi, P4), psi.scaled(ev))

    def test_onshell_word_is_physical(self):
        # b = 1, nbar = 1 wants p^2 = -2(nbar - b) = 0, e.g. a lightlike
        # momentum with nonzero lightcone combination
        p = mom(1, 0, 0, 1)
        ctx = DdfContext(P4, p)
        psi = ddf_state([(1, 1)], ctx)
        report = constraint_report(psi, ctx)
        assert set(report) == {0, 1, 2, 3}
        assert all(not vec for vec in report.values())

    def test_vacuum_report_at_generic_momentum(self):
        p = MOME4[1]
        ctx = DdfContext(P4, p)
        report = constraint_report(FockVector.vacuum(), ctx)
        ev = Fraction(1, 2) * (p.minkowski_sq() - 2 * P4.b)
        assert vec_eq(report[0], FockVector.vacuum().scaled(ev))
        assert not report[1] and not report[2] and not report[3]

    def test_unshifted_vacuum_module_is_b_sensitive(self):
        p = MOME4[1]
        ctx0 = DdfContext(P4B0, p)
        report = constraint_report(FockVector.vacuum(), ctx0)
        ev = Fraction(1, 2) * p.minkowski_sq()
        assert vec_eq(report[0], FockVector.vacuum().scaled(ev))


class TestMassProjection:
    def test_selects_word_level(self):
        ctx = DdfContext(P4, MOME4[0])
        psi = ddf_state([(1, 1)], ctx)  # level 1, b = 1: M^2 = 0
        assert vec_eq(mass_project(0, psi, P4), psi)
        assert not mass_project(2, psi, P4)
        assert not mass_project(-2, psi, P4)

    def test_idempotent_and_partition_of_unity(self):
        rng = random.Random(13)
        v = random_vector(rng, P4, max_level=3, terms=6)
        seen = FockVector.zero()
        for r in (-2, 0, 2, 4):
            piece = mass_project(r, v, P4)
            assert vec_eq(mass_project(r, piece, P4), piece)
            seen += piece
        assert vec_eq(seen, v)


class TestTwentySixDimensions:
    """Spot checks that nothing above is a d=4 artifact."""

    P = mom26(2, 1, 0, 1)

    def test_ladder_rung(self):
        ctx = DdfContext(P26, self.P)
        vac = FockVector.vacuum()
        assert vec_eq(ddf_apply(1, 1, ddf_apply(1, -1, vac, ctx), ctx), vac)

    def test_gram_spot(self):
        ctx = DdfContext(P26, self.P)
        a = ddf_apply(1, -1, FockVector.vacuum(), ctx)
        b = ddf_apply(24, -1, FockVector.vacuum(), ctx)
        assert inner_indefinite(a, a) == 1
        assert inner_indefinite(a, b) == 0

    def test_word_constraints(self):
        ctx = DdfContext(P26, self.P)
        psi = ddf_state([(1, 1), (3, 1)], ctx)
        for m in (1, 2, 3):
            assert not virasoro_apply(m, self.P, psi, P26)

    def test_counterexample_persists(self):
        ctx = DdfContext(P26, mom26(2, 0, 1))
        assert ddf_commutator_residual(-1, 1, -1, FockVector.vacuum(), ctx)

    def test_calibration(self):
        assert calibrate_normalization(
            P26, [self.P], directions=(1, 2), level_cap=1
        ) == 1

    def test_calibration_builds_each_image_once(self, monkeypatch):
        """U_n runs only on image builds: each (n k, t, lightcone part lam
        in d = 2 labels) reaches _lightcone_image once, for the residual
        images and the certificate's A^i_n alike, and U_n runs at most
        2(L + 1) times for each built lam of level L."""
        calls = 0
        built = []
        real_u, real_image = ddf_module.u_op_apply, ddf_module._lightcone_image

        def counting_u(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real_u(*args, **kwargs)

        def recording_image(t, k, lam, params):
            built.append((id(k), t, lam))
            return real_image(t, k, lam, params)

        monkeypatch.setattr(ddf_module, "u_op_apply", counting_u)
        monkeypatch.setattr(ddf_module, "_lightcone_image", recording_image)
        assert calibrate_normalization(P26, [self.P]) == 1
        assert built and len(built) == len(set(built))
        assert 0 < calls <= sum(2 * (level_of(lam) + 1) for *_, lam in built)
