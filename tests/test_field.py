"""Smeared fields: projection towers, CCR algebra, kernels, locality.

Numeric tolerances here are of three kinds and deliberately not mixed up:
machine-exact claims (antisymmetry, self-commutators, tower stability)
are asserted with ==, operator identities are probed through matrix
elements where roundoff cancels linearly, and the genuinely approximate
quadrature statements (locality, convergence) carry the tolerances the
reports advertise.
"""

from fractions import Fraction

import numpy as np
import pytest

from openstring.field import (
    LocalityReport,
    MultiParticleVector,
    QuadratureSpec,
    SeparationError,
    SmearedState,
    commutator_kernel,
    field_equation_check,
    field_matrix_element,
    gupta_bleuler_check,
    locality_check,
    locality_sweep,
    pauli_jordan_contour,
    pauli_jordan_time_kernel,
    project_pi,
)
from openstring.fiber import Momentum
from openstring.fock import FockVector, ModelParams, inner_indefinite, \
    level_basis
from openstring.poly import Poly
from openstring.spectrum import find_onshell_momentum
from openstring.testfn import BumpProfile, TestFunction, make_testfunction, realify

P4 = ModelParams(d=4, b=Fraction(1))
SPEC = QuadratureSpec(d_q=2, extent=24.0, n=128, levels=(0, 2))


@pytest.fixture(scope="module")
def profile4():
    return BumpProfile(1, 4)


@pytest.fixture(scope="module")
def f_level1(profile4):
    return realify(make_testfunction([(1, 1)], profile4, P4))


@pytest.fixture(scope="module")
def g_level1(profile4):
    return realify(make_testfunction([(2, 1)], profile4, P4))


@pytest.fixture(scope="module")
def h_level2(profile4):
    return realify(make_testfunction([(1, 2)], profile4, P4))


@pytest.fixture(scope="module")
def sf(f_level1):
    return project_pi(f_level1, SPEC).unit()


@pytest.fixture(scope="module")
def sg(g_level1):
    return project_pi(g_level1, SPEC).unit()


@pytest.fixture(scope="module")
def sh(h_level2):
    return project_pi(h_level2, SPEC).unit()


class TestQuadratureSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(n=127), dict(n=4), dict(extent=0.0), dict(extent=-1.0),
        dict(extent=float("nan")), dict(extent=float("inf")),
        dict(levels=(-2, 0)), dict(levels=(2, 0)), dict(levels=(0, 0)),
        dict(d_q=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_midpoint_axes_avoid_origin(self):
        spec = QuadratureSpec(d_q=1, extent=2.0, n=8, levels=(0,))
        ax = spec.axes()
        assert 0.0 not in ax
        assert ax[0] == -1.75 and ax[-1] == 1.75
        assert spec.step == 0.5
        assert spec.weight == 0.5


class TestProjection:
    def test_tachyon_body_projects_to_empty(self, profile4):
        tf = make_testfunction([], profile4, P4)  # shell -2
        assert project_pi(tf, SPEC).is_empty()

    def test_level_outside_tower_is_empty(self, f_level1):
        narrow = QuadratureSpec(d_q=2, extent=24.0, n=128, levels=(2,))
        assert project_pi(f_level1, narrow).is_empty()

    def test_slice_kills_transverse_polynomial_components(self, f_level1):
        # the realified level-one body is 2 p^3 a^1_{-1} - 2 p^1 a^3_{-1};
        # on the d_q=2 grid p^3 = 0, so only the a^3_{-1} component survives
        state = project_pi(f_level1, SPEC)
        assert list(state.levels) == [0]
        monos, vals = state.levels[0]
        assert monos == (((1, 3),),)
        assert vals.shape == (1, 128, 128)

    def test_projected_values_spot_checked(self, f_level1):
        spec = QuadratureSpec(d_q=2, extent=4.0, n=8, levels=(0,))
        state = project_pi(f_level1, spec)
        _, vals = state.levels[0]
        ax = spec.axes()
        i, j = 5, 2
        p1, p2 = ax[i], ax[j]
        omega = np.hypot(p1, p2)
        rho = np.sqrt(omega**2 + p1**2 + p2**2)
        g = f_level1.profile.radial_fourier_interp(np.array([rho]))[0]
        want = np.sqrt(2 * np.pi) * (-2.0 * p1) * g
        assert vals[0, i, j] == pytest.approx(want, rel=1e-12)

    def test_level_two_body_populates_level_two(self, h_level2):
        state = project_pi(h_level2, SPEC)
        assert list(state.levels) == [2]

    def test_slice_wider_than_space_is_refused(self, f_level1):
        # d = 4 has three spatial directions
        spec = QuadratureSpec(d_q=4, extent=4.0, n=8, levels=(0,))
        with pytest.raises(ValueError, match="spatial directions"):
            project_pi(f_level1, spec)


class TestSmearedState:
    def test_unit_norm(self, sf):
        assert sf.norm() == pytest.approx(1.0, abs=1e-12)

    def test_inner_conjugate_symmetry(self, sf, sg):
        a = sf.inner(sg.translate((0.3, 1.0, 0.2)))
        b = sg.translate((0.3, 1.0, 0.2)).inner(sf)
        assert abs(a - b.conjugate()) < 1e-14

    def test_translate_by_zero_is_identity(self, sf):
        t = sf.translate((0, 0, 0))
        for r in sf.levels:
            assert np.array_equal(t.levels[r][1], sf.levels[r][1])

    def test_translations_compose(self, sf):
        one = sf.translate((0.2, 0.5, -0.1)).translate((0.1, 0.25, 0.3))
        two = sf.translate((0.3, 0.75, 0.2))
        for r in sf.levels:
            assert np.allclose(one.levels[r][1], two.levels[r][1],
                               rtol=0, atol=1e-12)

    def test_translation_validation(self, sf):
        with pytest.raises(ValueError, match="too short"):
            sf.translate((1.0,))
        with pytest.raises(ValueError, match="reduced"):
            sf.translate((0.0, 0.0, 0.0, 5.0))

    def test_incompatible_specs_rejected(self, sf, f_level1):
        other = project_pi(
            f_level1, QuadratureSpec(d_q=2, extent=24.0, n=64, levels=(0,)))
        with pytest.raises(ValueError, match="incompatible"):
            sf.inner(other)
        with pytest.raises(ValueError, match="incompatible"):
            sf + other

    def test_addition_is_bilinear_in_inner(self, sf, sg, sh):
        lhs = (sf + sg).inner(sh)
        rhs = sf.inner(sh) + sg.inner(sh)
        assert abs(lhs - rhs) < 1e-12

    def test_empty_state_cannot_be_normalized(self):
        with pytest.raises(ValueError, match="empty"):
            SmearedState.empty(SPEC).unit()

    def test_orthogonal_levels_have_zero_inner(self, sf, sh):
        assert sf.inner(sh) == 0.0

    def test_fiber_gram_is_the_exact_pairing(self):
        # every pairing <m_i, m_j> through level 2, timelike (negative)
        # norms and repeated oscillators included, as SmearedState.inner
        # weights it: a monomial carried by the same profile on both sides
        # pairs to <m_i, m_j> times the vacuum's pairing
        spec = QuadratureSpec(d_q=1, extent=4.0, n=8, levels=(0,))
        profile = np.ones((1, spec.n), dtype=complex)

        def carried(m):
            return SmearedState(spec, {0: ((m,), profile)})

        vacuum = carried(()).inner(carried(()))
        monos = [m for n in range(3) for m in level_basis(P4, n)]
        units = [FockVector.basis_state(m) for m in monos]
        want = [[float(inner_indefinite(u, v)) for v in units] for u in units]
        got = [[carried(m).inner(carried(n)) for n in monos] for m in monos]
        assert got == [[pytest.approx(w * vacuum, rel=1e-14) for w in row]
                       for row in want]
        assert any(w < 0 for row in want for w in row)


class TestMultiParticle:
    def test_vacuum_norm_is_exactly_one(self):
        assert MultiParticleVector.vacuum(SPEC).norm() == 1.0

    def test_ccr_realized_by_permanents(self, sf, sg):
        # <vac| a(F) a_dag(G) |vac> = <F, G> with no correction terms
        vac = MultiParticleVector.vacuum(SPEC)
        created = vac.apply_create(sg)
        assert created.apply_annihilate(sf).terms[0][0] == sf.inner(sg)

    def test_two_particle_permanent(self, sf, sg):
        pair = MultiParticleVector.particles(sf, sg)
        got = pair.inner(pair)
        ff, gg = sf.inner(sf), sg.inner(sg)
        fg = sf.inner(sg)
        want = ff * gg + fg * np.conj(fg)
        assert abs(got - want) < 1e-12

    def test_matrix_element_creation_amplitude(self, sf):
        vac = MultiParticleVector.vacuum(SPEC)
        one = MultiParticleVector.particles(sf)
        me = field_matrix_element(sf, one, vac)
        assert me == pytest.approx(sf.inner(sf) / np.sqrt(2), abs=1e-12)

    def test_matrix_element_particle_mismatch_is_zero(self, sf, sg):
        vac = MultiParticleVector.vacuum(SPEC)
        two = MultiParticleVector.particles(sf, sg)
        assert field_matrix_element(sf, vac, two) == 0.0

    def test_hermiticity_for_real_testfunction(self, sf, sg):
        bra = MultiParticleVector.particles(sg.translate((0.2, 0.7, 0.1)))
        ket = MultiParticleVector.vacuum(SPEC)
        forward = field_matrix_element(sf, bra, ket)
        backward = field_matrix_element(sf, ket, bra)
        assert abs(forward - backward.conjugate()) < 1e-12

    @pytest.mark.parametrize("n_particles", [1, 2])
    def test_commutator_acts_as_the_scalar_kernel(self, sf, sg, sh,
                                                  n_particles):
        # weak operator identity: probe matrix elements of
        # [Phi(F), Phi(G_a)] Psi - kernel Psi against a small basis;
        # probing keeps the roundoff linear instead of sqrt-scale
        a = (0.25, 1.0, 0.5)
        sga = sg.translate(a)
        if n_particles == 1:
            psi = MultiParticleVector.particles(sh)
        else:
            psi = MultiParticleVector.particles(sh, sf)
        lhs = (psi.apply_field(sga).apply_field(sf)
               - psi.apply_field(sf).apply_field(sga))
        rhs = psi.scaled(commutator_kernel(sf, sga))
        probes = [
            psi,
            MultiParticleVector.particles(sf),
            MultiParticleVector.particles(sg, sh),
            MultiParticleVector.vacuum(SPEC),
        ]
        scale = max(rhs.norm(), 1e-30)
        for probe in probes:
            dev = abs(probe.inner(lhs - rhs)) / (max(probe.norm(), 1e-30) * scale)
            assert dev < 1e-10


class TestCommutatorKernel:
    def test_antisymmetry_is_machine_exact(self, sf, sg):
        sga = sg.translate((0.25, 1.0, 0.5))
        assert commutator_kernel(sf, sga) == -commutator_kernel(sga, sf)

    def test_self_kernel_is_exactly_zero(self, sf):
        assert commutator_kernel(sf, sf) == 0.0

    def test_kernel_is_essentially_imaginary(self, sf, sg):
        k = commutator_kernel(sf, sg.translate((0.25, 1.0, 0.5)))
        assert abs(k.real) < 1e-12
        assert abs(k.imag) > 1e-3

    def test_disjoint_levels_commute_exactly(self, sf, sh):
        assert commutator_kernel(sf, sh.translate((0.25, 1.0, 0.5))) == 0.0


class TestFieldEquation:
    @pytest.mark.parametrize("word", [[(1, 1)], [(1, 2)], [(2, 1), (1, 1)]])
    def test_matching_mass_annihilates(self, profile4, word):
        tf = realify(make_testfunction(word, profile4, P4))
        assert field_equation_check(tf)

    def test_mismatched_mass_survives(self, f_level1):
        assert not field_equation_check(f_level1, mass_sq=2)
        assert not field_equation_check(f_level1, mass_sq=Fraction(1, 3))

    def test_tachyon_shell_body(self, profile4):
        tf = make_testfunction([], profile4, P4)
        assert field_equation_check(tf)
        assert not field_equation_check(tf, mass_sq=0)


class TestGuptaBleuler:
    def test_factory_bodies_pass(self, f_level1):
        samples = [
            find_onshell_momentum(0, 4),
            Momentum((Fraction(5, 4), Fraction(3, 4), Fraction(0), Fraction(1))),
        ]
        assert gupta_bleuler_check(f_level1, samples)

    def test_timelike_oscillator_counterexample_fails(self, profile4):
        body = FockVector()
        body.add_term(((1, 0),), Poly.const(4, 1))
        fake = TestFunction(profile=profile4, params=P4, word=((1, 1),),
                            gamma=0, body=body, level=1)
        assert not gupta_bleuler_check(fake, [find_onshell_momentum(0, 4)])

    def test_tachyon_vacuum_body_passes(self, profile4):
        tf = make_testfunction([], profile4, P4)
        assert gupta_bleuler_check(tf, [find_onshell_momentum(-2, 4)])


class TestLocality:
    def test_spacelike_kernel_vanishes_with_live_control(self, f_level1):
        spec = QuadratureSpec(d_q=2, extent=24.0, n=256, levels=(0, 2))
        rep = locality_check(f_level1, f_level1, (Fraction(1, 2), 4, 0), spec)
        assert rep.passed
        assert abs(complex(rep.kernel_re, rep.kernel_im)) < 1e-6
        assert rep.control_passed
        assert rep.control_abs > 1e-5
        assert rep.to_json_dict()["pass"] is True

    def test_insufficient_separation_raises(self, f_level1):
        # |a_vec| must exceed R_F + R_G + |a0| strictly; equality fails
        with pytest.raises(SeparationError):
            locality_check(f_level1, f_level1,
                           (Fraction(1, 2), Fraction(5, 2), 0), SPEC)
        with pytest.raises(SeparationError):
            locality_check(f_level1, f_level1, (0, 2, 0), SPEC)

    def test_separation_outside_reduced_spacetime_rejected(self, f_level1):
        with pytest.raises(ValueError, match="reduced"):
            locality_check(f_level1, f_level1, (0, 4, 0, 1), SPEC)

    def test_kernel_converges_under_joint_doubling(self, f_level1):
        # doubling extent and point count together keeps the step while
        # killing the window truncation, so the sequence must fall fast;
        # the invariant asks only for a factor of 4 per doubling
        vals = []
        for extent, n in ((12.0, 64), (24.0, 128), (48.0, 256)):
            spec = QuadratureSpec(d_q=2, extent=extent, n=n, levels=(0,))
            rep = locality_check(f_level1, f_level1, (Fraction(1, 2), 4, 0),
                                 spec)
            vals.append(abs(complex(rep.kernel_re, rep.kernel_im)))
        assert vals[0] > 4 * vals[1] > 16 * vals[2]

    def test_tower_truncation_stability(self, f_level1):
        # a level-0 state cannot see whether the tower also reserved
        # room at levels 2 and 4: the kernels agree to the bit
        a = (Fraction(1, 2), 4, 0)
        slim = QuadratureSpec(d_q=2, extent=24.0, n=128, levels=(0,))
        wide = QuadratureSpec(d_q=2, extent=24.0, n=128, levels=(0, 2, 4))
        k_slim = locality_check(f_level1, f_level1, a, slim)
        k_wide = locality_check(f_level1, f_level1, a, wide)
        assert (k_slim.kernel_re, k_slim.kernel_im) == \
            (k_wide.kernel_re, k_wide.kernel_im)

    def test_small_radius_profile(self):
        prof = BumpProfile(Fraction(1, 10), 4)
        tf = realify(make_testfunction([(1, 1)], prof, P4))
        spec = QuadratureSpec(d_q=2, extent=240.0, n=256, levels=(0,))
        rep = locality_check(tf, tf, (Fraction(1, 20), Fraction(2, 5), 0),
                             spec)
        assert rep.passed
        assert rep.control_passed

    def test_same_test_function_is_projected_once(self, f_level1,
                                                  monkeypatch):
        from dataclasses import replace

        from openstring import field

        calls = []
        original = field.project_pi

        def counting(tf, spec):
            calls.append(tf)
            return original(tf, spec)

        monkeypatch.setattr(field, "project_pi", counting)
        a = (Fraction(1, 2), 4, 0)
        once = locality_check(f_level1, f_level1, a, SPEC)
        assert calls == [f_level1]
        twin = replace(f_level1)
        twice = locality_check(f_level1, twin, a, SPEC)
        assert len(calls) == 3
        assert once.to_json_dict() == twice.to_json_dict()

    def test_sweep_emits_csv(self, f_level1):
        spec = QuadratureSpec(d_q=2, extent=24.0, n=64, levels=(0,))
        out = locality_sweep(
            f_level1, f_level1,
            [(Fraction(1, 2), 4, 0), (0, 1, 0), (1, 5, 0)],
            spec,
        )
        lines = out.strip().split("\n")
        assert lines[0] == "a0,a_space,spacelike,kernel_abs,pass"
        assert len(lines) == 4
        assert lines[2].split(",")[2] == "False"  # (0,1,0) is too close
        assert lines[1].split(",")[2] == "True"


class TestPauliJordan:
    @pytest.mark.parametrize("omega,t", [(2.0, 1.3), (1.0, 0.0), (0.7, -2.0)])
    def test_contour_reproduces_residue_form(self, omega, t):
        assert pauli_jordan_contour(omega, t) == pytest.approx(
            pauli_jordan_time_kernel(omega, t), abs=1e-12)

    def test_contour_radius_guard(self):
        with pytest.raises(ValueError):
            pauli_jordan_contour(1.0, 0.5, radius=1.5)

    def test_residue_form_guards_omega(self):
        with pytest.raises(ValueError):
            pauli_jordan_time_kernel(0.0, 1.0)

    def test_small_time_expansion(self):
        # sin(wt)/w = t - w^2 t^3/6 + ...
        assert pauli_jordan_time_kernel(3.0, 1e-4) == pytest.approx(
            1e-4, rel=1e-6)
