"""Test-function factory: bump profiles, cleared bodies, reality, support.

The numeric transforms are checked against closed forms (d=3 reduces the
angular kernel to sin(u)/u, d=1 is a plain cosine transform, and the
half-power profile at d=4 has a spherical-Bessel transform), one
end-to-end projection-slice oracle at d=2, and, at d=26, the shell-and-angle
double quadrature the production path replaced; the support slices are
checked against the dense phase-matrix sum the FFT replaced.  The exact side — cleared
polynomial bodies, reality flips, constraint residuals — is all
frozen-value or identity work with zero tolerance.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from openstring.fiber import Momentum, virasoro_apply
from openstring.fock import FockVector, ModelParams
from openstring.poly import Poly, sym_momentum
from openstring.spectrum import OnShellMomentum, find_onshell_momentum
from tests.oracles import (
    radial_fourier_shells,
    slice_values_dense,
    support_fractions_dense,
)
from openstring import testfn
from openstring.testfn import (
    BumpProfile,
    OffShellSampleError,
    ResolutionError,
    c1_flip_body,
    is_c1_real,
    make_testfunction,
    realify,
    verify_constraints_pointwise,
    verify_support,
)

P4 = ModelParams(d=4, b=Fraction(1))


@pytest.fixture(scope="module")
def profile4():
    return BumpProfile(1, 4)


def poly4(**monos):
    """Poly in 4 variables from {exponent-tuple-as-string: coeff} kwargs."""
    out = Poly(4, {})
    for key, c in monos.items():
        exps = tuple(int(ch) for ch in key.strip("e"))
        out = out + Poly(4, {exps: Fraction(c)})
    return out


class TestBumpProfile:
    def test_position_support_is_exactly_the_ball(self, profile4):
        r = np.array([0.0, 0.5, 0.999, 1.0, 1.5, 7.0])
        vals = profile4.radial_position(r)
        assert np.all(vals[:3] > 0)
        assert np.all(vals[3:] == 0.0)

    def test_mollifier_midpoint_value(self, profile4):
        # exp(-1/(1 - 1/4)) at half radius
        assert profile4.radial_position(0.5) == pytest.approx(np.exp(-4.0 / 3.0))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BumpProfile(0, 4)
        with pytest.raises(ValueError):
            BumpProfile(-2, 4)
        with pytest.raises(ValueError):
            BumpProfile(1, 4, center=(0, 0, 0))
        with pytest.raises(ValueError):
            BumpProfile(1, 4, kind="gaussian")

    def test_d3_transform_matches_sinc_reduction(self):
        # at d=3 the angular integral is 2 sin(u)/u exactly; an independent
        # trapezoid route through that closed form pins the full constant
        prof = BumpProfile(1, 3)
        rho = np.array([0.0, 0.5, 1.7, 4.0, 9.3, 20.0])
        got = prof.radial_fourier(rho)
        s = np.linspace(0, 1, 200001)[1:-1]
        phi = np.exp(-1.0 / (1.0 - s**2))
        want = np.array([
            (2 * np.pi) ** (-1.5) * 2 * np.pi
            * np.trapezoid(phi * s * s * 2 * np.sinc(s * r / np.pi), s)
            for r in rho
        ])
        assert np.max(np.abs(got - want)) < 1e-12

    def test_d1_transform_is_a_cosine_transform(self):
        prof = BumpProfile(1, 1)
        rho = np.array([0.0, 1.3, 6.0, 15.0])
        got = prof.radial_fourier(rho)
        s = np.linspace(0, 1, 400001)[1:-1]
        phi = np.exp(-1.0 / (1.0 - s**2))
        want = np.array([
            (2 * np.pi) ** (-0.5) * 2 * np.trapezoid(phi * np.cos(s * r), s)
            for r in rho
        ])
        assert np.max(np.abs(got - want)) < 1e-5

    def test_halfpower_d4_matches_spherical_bessel_shape(self):
        # (1-u^2)^{1/2} at d=4 transforms to J_{5/2}(rho)/rho^{5/2} up to
        # normalization, i.e. the shape 15 j_2(rho)/rho^2 with j_2 the
        # spherical Bessel function — an oracle with different analytics
        # than the quadrature under test
        prof = BumpProfile(1, 4, kind="halfpower")
        rho = np.array([0.8, 2.0, 5.5, 11.0, 17.0])
        got = prof.radial_fourier(rho) / prof.radial_fourier(np.array([1e-8]))[0]

        def j2(u):
            return (3.0 / u**3 - 1.0 / u) * np.sin(u) - 3.0 / u**2 * np.cos(u)

        assert np.max(np.abs(got - 15.0 * j2(rho) / rho**2)) < 1e-6

    def test_projection_slice_consistency_d2(self):
        # inverse transform of the momentum restriction to an axis must
        # reproduce the position-space projection onto that axis — the
        # theorem behind verify_support, checked end to end at d=2
        prof = BumpProfile(1, 2)
        n, window = 1024, 8.0
        drho = 2 * np.pi / window
        rho = (np.arange(n) - n // 2) * drho
        g = prof.radial_fourier(np.abs(rho))
        x = (np.arange(n) - n // 2) * (window / n)
        f_slice = (np.exp(1j * np.outer(x, rho)) @ g).real
        y = np.linspace(-1, 1, 4001)
        proj = np.array([
            np.trapezoid(prof.radial_position(np.sqrt(xx * xx + y * y)), y)
            for xx in x
        ])
        a = f_slice / np.linalg.norm(f_slice)
        b = proj / np.linalg.norm(proj)
        assert np.max(np.abs(a - b)) < 1e-9

    def test_scale_covariance(self):
        # f_R(x) = f_1(x/R) gives g_R(rho) = R^d g_1(R rho)
        small = BumpProfile(Fraction(1, 10), 3)
        unit = BumpProfile(1, 3)
        rho = np.array([0.0, 3.0, 11.0, 40.0])
        lhs = small.radial_fourier(rho)
        rhs = 0.1**3 * unit.radial_fourier(0.1 * rho)
        assert np.max(np.abs(lhs - rhs)) < 1e-16

    def test_interp_table_matches_direct_quadrature(self):
        prof = BumpProfile(1, 4)
        rho = np.linspace(0.0, 55.0, 137)
        direct = prof.radial_fourier(rho)
        via_table = prof.radial_fourier_interp(rho)
        assert np.max(np.abs(direct - via_table)) < 1e-10

    def test_transform_is_even(self, profile4):
        vals = profile4.radial_fourier(np.array([-3.0, 3.0]))
        assert vals[0] == vals[1]

    def test_d26_matches_shell_quadrature(self):
        # the headline profile (R = 1/10 at d = 26) over the support
        # check's whole momentum window, out to where the transform has
        # decayed to rounding level
        prof = BumpProfile(Fraction(1, 10), 26)
        rho = np.linspace(0.0, 4021.0, 64)
        want = radial_fourier_shells(prof, rho)
        peak = np.max(np.abs(want))
        assert np.abs(want[-1]) < 1e-12 * peak
        got = prof.radial_fourier(rho)
        assert np.max(np.abs(got - want)) <= 1e-12 * peak

    def test_grid_input_keeps_shape_and_matches_pointwise(self, profile4):
        # one node count throughout, so only the grouping of the sums
        # can differ between the two routes
        rho = np.array([[0.5, 3.0, 0.5], [3.0, -0.5, 7.0]])
        got = profile4.radial_fourier(rho, n_s=200)
        assert got.shape == rho.shape
        assert got[0, 0] == got[0, 2] == got[1, 1]
        assert got[0, 1] == got[1, 0]
        pointwise = np.array([
            profile4.radial_fourier(np.array([v]), n_s=200)[0]
            for v in rho.ravel()
        ]).reshape(rho.shape)
        peak = np.max(np.abs(pointwise))
        assert np.max(np.abs(got - pointwise)) <= 1e-15 * peak


class TestFactory:
    def test_level_one_body_frozen(self, profile4):
        tf = make_testfunction([(1, 1)], profile4, P4)
        assert tf.gamma == 1
        assert tf.level == 1
        assert tf.shell == 0
        expected = FockVector()
        expected.add_term(((1, 0),), poly4(e0100=-1))
        expected.add_term(((1, 1),), poly4(e1000=1, e0001=1))
        expected.add_term(((1, 3),), poly4(e0100=-1))
        assert tf.body == expected

    @pytest.mark.parametrize("word,weight", [
        ([(1, 1)], 1),
        ([(1, 2)], 2),
        ([(2, 1), (1, 1)], 2),
        ([(1, 1), (1, 2)], 3),
    ])
    def test_gamma_equals_word_weight(self, profile4, word, weight):
        tf = make_testfunction(word, profile4, P4)
        assert tf.gamma == weight
        assert tf.level == weight
        assert tf.shell == 2 * (weight - 1)

    @pytest.mark.parametrize("comps", [
        (2, 1, 0, 1), (3, 2, 1, 1), (2, 0, 0, 1),
    ])
    def test_body_matches_numeric_state_times_prefactor(self, profile4, comps):
        # the shared-oracle invariant: evaluating the cleared symbolic body
        # at a rational momentum equals w(p)^gamma times the state built
        # by the numeric operators at that same momentum
        from openstring.ddf import DdfContext, ddf_state

        word = [(1, 1), (2, 1)]
        tf = make_testfunction(word, profile4, P4)
        p = Momentum(tuple(Fraction(c) for c in comps))
        w = p.lightcone()
        numeric = ddf_state(word, DdfContext(P4, p)).scaled(w ** tf.gamma)
        assert tf.evaluate_body(p) == numeric

    def test_dimension_mismatch_rejected(self, profile4):
        with pytest.raises(ValueError):
            make_testfunction([(1, 1)], profile4, ModelParams(d=26))

    def test_empty_word_gives_vacuum_body(self, profile4):
        tf = make_testfunction([], profile4, P4)
        assert tf.gamma == 0
        assert tf.level == 0
        assert tf.shell == -2
        assert list(tf.body.items()) == [((), Poly.const(4, 1))]

    def test_critical_dimension_word(self):
        params = ModelParams(d=26, b=Fraction(1))
        tf = make_testfunction([(7, 1)], BumpProfile(1, 26), params)
        assert tf.gamma == 1
        p = find_onshell_momentum(0, 26).p
        v = tf.evaluate_body(p)
        assert len(v) > 0
        assert not virasoro_apply(1, p, v, params)


class TestReality:
    def test_flip_is_an_involution(self, profile4):
        tf = make_testfunction([(1, 2)], profile4, P4)
        assert c1_flip_body(c1_flip_body(tf.body)) == tf.body

    def test_sign_rule_on_single_terms(self):
        # alpha^0 keeps its sign, each spatial oscillator flips one sign,
        # and the polynomial has its spatial variables negated
        v = FockVector()
        v.add_term(((1, 0),), poly4(e0100=1))
        flipped = c1_flip_body(v)
        assert list(flipped.items()) == [(((1, 0),), poly4(e0100=-1))]
        w = FockVector()
        w.add_term(((1, 2), (3, 1)), poly4(e1000=1))
        assert list(c1_flip_body(w).items()) == [(((1, 2), (3, 1)), poly4(e1000=1))]

    def test_realified_level_one_body_frozen(self, profile4):
        # reality cancels the timelike component entirely:
        # 2 p^3 alpha^1_{-1} - 2 p^1 alpha^3_{-1}
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        expected = FockVector()
        expected.add_term(((1, 1),), poly4(e0001=2))
        expected.add_term(((1, 3),), poly4(e0100=-2))
        assert tf.body == expected
        assert is_c1_real(tf.body)

    @pytest.mark.parametrize("word", [[(1, 1)], [(1, 2)], [(2, 1), (1, 1)]])
    def test_realify_output_is_real(self, profile4, word):
        tf = realify(make_testfunction(word, profile4, P4))
        assert is_c1_real(tf.body)

    def test_realify_twice_doubles(self, profile4):
        once = realify(make_testfunction([(1, 1)], profile4, P4))
        twice = realify(once)
        assert twice.body == once.body + once.body

    def test_realify_needs_centered_profile(self):
        off = BumpProfile(1, 4, center=(0, Fraction(1, 2), 0, 0))
        tf = make_testfunction([(1, 1)], off, P4)
        with pytest.raises(ValueError, match="center"):
            realify(tf)

    @pytest.mark.parametrize("word", [[(1, 1)], [(1, 2)], [(2, 1), (1, 1)]])
    def test_constraints_hold_identically_in_p(self, profile4, word):
        # the strong form: L_m annihilates the realified body as a
        # polynomial identity in the momentum, not just on-shell pointwise
        tf = realify(make_testfunction(word, profile4, P4))
        ps = sym_momentum(4)
        for m in (1, 2, 3):
            assert not virasoro_apply(m, ps, tf.body, P4)


class TestPointwiseVerification:
    def test_exact_zeros_at_three_samples(self, profile4):
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        samples = [
            find_onshell_momentum(0, 4),
            Momentum((Fraction(5, 4), Fraction(3, 4), Fraction(0), Fraction(1))),
            Momentum((Fraction(13, 6), Fraction(2), Fraction(2, 3), Fraction(1, 2))),
        ]
        rep = verify_constraints_pointwise(tf, samples)
        assert rep.passed
        assert rep.residual_terms == 0
        assert rep.max_mode == 1
        assert len(rep.samples) == 3

    def test_level_two_word_checks_through_l2(self, profile4):
        tf = realify(make_testfunction([(1, 2)], profile4, P4))
        rep = verify_constraints_pointwise(tf, [find_onshell_momentum(2, 4)])
        assert rep.passed
        assert rep.max_mode == 2

    def test_off_shell_sample_rejected(self, profile4):
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        with pytest.raises(OffShellSampleError, match="shell"):
            verify_constraints_pointwise(
                tf, [Momentum((Fraction(2), Fraction(0), Fraction(0), Fraction(0)))]
            )

    def test_sample_on_wrong_shell_rejected(self, profile4):
        tf = realify(make_testfunction([(1, 2)], profile4, P4))  # needs r=2
        with pytest.raises(OffShellSampleError):
            verify_constraints_pointwise(tf, [find_onshell_momentum(0, 4)])

    def test_vacuum_body_on_tachyon_shell(self, profile4):
        tf = make_testfunction([], profile4, P4)
        rep = verify_constraints_pointwise(tf, [find_onshell_momentum(-2, 4)])
        assert rep.passed


class TestSupportVerification:
    def test_mass_stays_inside_declared_radius(self, profile4):
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        rep = verify_support(tf, grid=1024)
        assert rep.passed
        assert rep.worst_fraction < 1e-9

    def test_half_radius_claim_fails(self, profile4):
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        rep = verify_support(tf, grid=1024, declared_radius=Fraction(1, 2))
        assert not rep.passed
        assert rep.worst_fraction > 0.1

    def test_small_radius_is_scale_invariant(self):
        big = realify(make_testfunction([(1, 1)], BumpProfile(1, 4), P4))
        small = realify(make_testfunction(
            [(1, 1)], BumpProfile(Fraction(1, 10), 4), P4))
        a = verify_support(big, grid=1024)
        b = verify_support(small, grid=1024)
        assert b.passed
        assert abs(a.worst_fraction - b.worst_fraction) < 1e-12

    def test_coarse_position_grid_refused(self, profile4):
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        with pytest.raises(ResolutionError, match="too coarse"):
            verify_support(tf, grid=32)

    def test_undecayed_window_refused(self, profile4):
        # a degree-2 polynomial body needs the wider momentum window that
        # grid=1024 provides; 512 leaves visible mass at the window edge
        tf = realify(make_testfunction([(1, 2)], profile4, P4))
        with pytest.raises(ResolutionError, match="window"):
            verify_support(tf, grid=512)
        assert verify_support(tf, grid=1024).passed

    def test_report_carries_per_axis_fractions(self, profile4):
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        rep = verify_support(tf, grid=1024, axes=(0, 1))
        assert rep.axes == (0, 1)
        assert set(rep.fractions) == {0, 1}
        assert rep.worst_axis in (0, 1)

    def test_bad_declared_radius(self, profile4):
        tf = make_testfunction([], profile4, P4)
        with pytest.raises(ValueError):
            verify_support(tf, declared_radius=0)

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_slice_values_match_the_dense_sum(self, profile4, n):
        # the values, not only their moduli: an input shift off by one
        # on an odd grid only turns each value's phase
        window = 8.0
        rho = (np.arange(n) - n // 2) * (2 * np.pi / window)
        x = (np.arange(n) - n // 2) * (window / n)
        g = profile4.radial_fourier(np.abs(rho))
        for power in range(3):
            h = rho ** power * g
            want = slice_values_dense(h, x, rho)
            got = testfn._slice_values(h)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_half_radius_fractions_match_the_dense_route(self, profile4, n):
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        rep = verify_support(tf, grid=n, declared_radius=Fraction(1, 2))
        want = support_fractions_dense(tf, grid=n,
                                       declared_radius=Fraction(1, 2))
        assert not rep.passed and rep.worst_fraction > 0.1
        assert set(rep.fractions) == set(want)
        for mu, frac in want.items():
            assert abs(rep.fractions[mu] - frac) <= 1e-12 * max(frac, 1e-300)

    @pytest.mark.parametrize("center", [(0, 3, 0, 0), (0, Fraction(1, 2), 0, 0),
                                        (1, -2, Fraction(1, 3), 5)])
    def test_off_centre_profile_certified_like_the_centred_one(self, profile4,
                                                                center):
        # the slices transform the origin-centred profile, so the mass is
        # measured about the origin whatever the center
        moved = make_testfunction([(1, 1)], BumpProfile(1, 4, center=center), P4)
        rep = verify_support(moved, grid=1024)
        want = verify_support(make_testfunction([(1, 1)], profile4, P4),
                              grid=1024)
        assert rep.passed
        assert rep.fractions == want.fractions


class TestQuadratureRules:
    def test_each_rule_built_once(self, monkeypatch):
        legendre = np.polynomial.legendre
        built = []
        real = legendre.leggauss

        def counted(n):
            built.append(n)
            return real(n)

        monkeypatch.setattr(legendre, "leggauss", counted)
        testfn._leggauss_on.cache_clear()
        prof = BumpProfile(1, 4)
        rho = np.linspace(0.0, 5.0, 7)
        first = prof.radial_fourier(rho, n_s=200)
        second = prof.radial_fourier(rho, n_s=200)
        assert sorted(built) == [192, 200]
        assert np.array_equal(first, second)
        prof.radial_fourier(rho, n_s=201)
        assert sorted(built) == [192, 200, 201]

    def test_cached_rule_is_read_only(self):
        nodes, weights = testfn._leggauss_on(0.0, 1.0, 192)
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[:] = 1.0
        again = testfn._leggauss_on(0.0, 1.0, 192)
        assert again[0] is nodes and again[1] is weights


class TestSerialization:
    def test_json_dict_roundtrips_through_dumps(self, profile4):
        tf = realify(make_testfunction([(1, 1)], profile4, P4))
        blob = tf.to_json_dict()
        assert blob["profile"] == {
            "R": "1", "center": ["0", "0", "0", "0"], "kind": "mollifier",
        }
        assert blob["gamma"] == 1
        assert blob["word"] == [[1, 1]]
        assert json.dumps(blob) == json.dumps(tf.to_json_dict())
        # coefficients serialize as exact fraction strings
        coeffs = {c for entry in blob["body"] for _, c in entry["poly"]}
        assert coeffs == {"2", "-2"}

    def test_body_entries_sorted_and_typed(self, profile4):
        blob = make_testfunction([(1, 2)], profile4, P4).to_json_dict()
        monos = [tuple(map(tuple, e["fock"])) for e in blob["body"]]
        assert monos == sorted(monos)
        for entry in blob["body"]:
            for exps, coeff in entry["poly"]:
                assert len(exps) == 4
                Fraction(coeff)  # parses exactly
