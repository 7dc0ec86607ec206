import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spin_snr_synth import (
    CLASSIFY_TOL,
    BlochState,
    ControlStructure,
    DomainError,
    RelaxationPair,
    SynthesisRegime,
    boundary_curves,
    classify,
    ellipsoid_y,
    ernst_ellipsoid_residual,
    magic_plane,
    q_max_surface,
    regime,
    regime_boundaries,
    relax,
)
from spin_snr_synth.synthesis import STRUCTURE_DECISIONS, _first_match, _select
from conftest import disk_states, rate_pairs, relax_inverse

ERNST_POINT_B = BlochState(0.6892739804246589, 0.2689414213699951)


class TestMagicPlane:
    def test_reference_rates(self, params_b):
        plane = magic_plane(params_b)
        assert plane.present
        assert plane.z0 == pytest.approx(-0.625, abs=1e-15)
        # the angular derivative of the radial speed at fixed radius,
        # (|y|/r)*(2*Gamma*z + gamma - 2*gamma*z), vanishes there
        y, z, big_g, g = 0.4, plane.z0, params_b.gamma_t2, params_b.gamma_t1
        dtheta = (abs(y) / math.hypot(y, z)) * (2.0 * big_g * z + g - 2.0 * g * z)
        assert dtheta == pytest.approx(0.0, abs=1e-14)

    def test_tangency_boundary(self):
        plane = magic_plane(RelaxationPair(1.5, 1.0))
        assert plane.z0 == pytest.approx(-1.0, abs=1e-15)
        assert not plane.present

    def test_absent_for_regime_c_rates(self, params_c):
        assert not magic_plane(params_c).present

    def test_absent_without_formula_when_rates_cross(self):
        plane = magic_plane(RelaxationPair(0.8, 1.0))
        assert plane.z0 is None
        assert not plane.present

    @given(rate_pairs())
    def test_present_iff_inside_ball(self, p):
        plane = magic_plane(p)
        if plane.present:
            assert p.gamma_t2 > 1.5 * p.gamma_t1
            assert -1.0 < plane.z0 < 0.0
        else:
            assert p.gamma_t2 <= 1.5 * p.gamma_t1


class TestErnstEllipsoidResidual:
    def test_equilibrium_on_ellipsoid(self, params_b):
        assert ernst_ellipsoid_residual(BlochState(0.0, 1.0), params_b) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_ernst_point_on_ellipsoid(self, params_b):
        assert abs(ernst_ellipsoid_residual(ERNST_POINT_B, params_b)) <= 1e-12

    def test_value_at_outer_point(self, params_b):
        # r_s^2 - r_m^2 with r_s from the relaxation closed form
        m = BlochState(0.95, 0.0)
        ys = 0.95 * math.exp(-1.8)
        zs = 1.0 - math.exp(-1.0)
        expected = ys * ys + zs * zs - 0.9025
        got = ernst_ellipsoid_residual(m, params_b)
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(-0.4782639395975904, abs=1e-14)

    @given(disk_states(), rate_pairs())
    @settings(max_examples=300)
    def test_identity_with_relaxed_radius(self, m, p):
        s = relax(m, 1.0, p)
        assert ernst_ellipsoid_residual(m, p) == pytest.approx(
            s.r**2 - m.r**2, abs=5e-16
        )


def _zero_radial_speed_residual(s, p):
    """Gamma*y^2 + gamma*z^2 - gamma*z, which is -r*dr/dt under free evolution.

    Zero on the ellipse dr/dt = 0, positive where the radius shrinks,
    negative where it grows.
    """
    return p.gamma_t2 * s.y * s.y + p.gamma_t1 * s.z * s.z - p.gamma_t1 * s.z


class TestZeroRadialSpeedResidual:
    def test_equilibrium_and_origin(self, params_b):
        assert _zero_radial_speed_residual(BlochState(0.0, 1.0), params_b) == 0.0
        assert _zero_radial_speed_residual(BlochState(0.0, 0.0), params_b) == 0.0
        assert relax(BlochState(0.0, 1.0), 1e-3, params_b).r == 1.0

    def test_direct_value(self, params_b):
        s = BlochState(0.5, 0.5)
        assert _zero_radial_speed_residual(s, params_b) == pytest.approx(0.2, abs=1e-15)
        assert relax(s, 1e-3, params_b).r < s.r

    def test_sign_agrees_with_radial_speed(self, params_b):
        rng = np.random.default_rng(11)
        h = 1e-7
        for _ in range(10_000):
            r = math.sqrt(rng.uniform(1e-4, 0.96))
            th = rng.uniform(-math.pi, math.pi)
            s = BlochState(r * math.cos(th), r * math.sin(th))
            res = _zero_radial_speed_residual(s, params_b)
            # dr/dt = (-Gamma*y^2 + gamma*z*(1 - z))/r
            speed = (-params_b.gamma_t2 * s.y**2 + params_b.gamma_t1 * s.z * (1.0 - s.z)) / r
            if abs(res) > 1e-12:
                assert (res > 0.0) == (speed < 0.0)
            # d(r^2)/dt = -2*res of the closed-form relaxation; the forward
            # difference is off by ~h*|d2(r^2)/dt2| < 1e-6
            if abs(res) > 1e-5:
                s_h = relax(s, h, params_b)
                assert (res > 0.0) == (s_h.y**2 + s_h.z**2 < s.y**2 + s.z**2)


class TestClassify:
    @pytest.mark.parametrize(
        "point,expected",
        [
            ((0.95, 0.0), ControlStructure.BSvPosB),
            ((0.6, 0.3), ControlStructure.BShB),
            ((0.3, 0.1), ControlStructure.BShSvNegB),
            ((ERNST_POINT_B.y, ERNST_POINT_B.z), ControlStructure.B),
        ],
    )
    def test_reference_points(self, params_b, point, expected):
        assert classify(BlochState(*point), params_b) is expected

    def test_outside_disk_rejected(self, params_b):
        with pytest.raises(DomainError):
            classify(BlochState(0.8, 0.6), params_b)

    def test_negative_y_rejected(self, params_b):
        with pytest.raises(DomainError):
            classify(BlochState(-0.3, 0.1), params_b)

    def test_tag_b_iff_radii_balance(self, params_b):
        rng = np.random.default_rng(23)
        pts = []
        for _ in range(10_000):
            r = 0.98 * math.sqrt(rng.uniform())
            th = rng.uniform(-math.pi / 2, math.pi / 2)
            pts.append(BlochState(r * math.cos(th), r * math.sin(th)))
        # sprinkle points constructed to sit on the ellipsoid
        for z in np.linspace(-0.4, 0.95, 50):
            y = ellipsoid_y(float(z), params_b, tol=1e-14)
            if y is not None and y > 0.0:
                pts.append(BlochState(y, float(z)))
        for m in pts:
            tag = classify(m, params_b)
            balance = abs(relax(m, 1.0, params_b).r - m.r)
            assert (tag is ControlStructure.B) == (balance <= 1e-10)

    def test_posthoc_radius_relations(self, params_b):
        za = abs(magic_plane(params_b).z0)
        rng = np.random.default_rng(37)
        for _ in range(5000):
            r = 0.98 * math.sqrt(rng.uniform())
            th = rng.uniform(-math.pi / 2, math.pi / 2)
            m = BlochState(r * math.cos(th), r * math.sin(th))
            tag = classify(m, params_b)
            r_m, r_s = m.r, relax(m, 1.0, params_b).r
            if tag is ControlStructure.BShSvNegB:
                assert r_s > za and r_m < za
            elif tag is ControlStructure.BShB:
                assert r_m >= za and r_s > r_m
            elif tag is ControlStructure.BSvPosB:
                assert r_s < r_m
            elif tag is ControlStructure.BSvNegB:
                assert r_s <= za and r_s > r_m

    def test_tiny_perturbations_keep_tag_away_from_boundaries(self, params_b):
        za = abs(magic_plane(params_b).z0)
        rng = np.random.default_rng(5)
        kept = 0
        while kept < 500:
            r = 0.98 * math.sqrt(rng.uniform())
            th = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
            m = BlochState(r * math.cos(th), r * math.sin(th))
            r_m, r_s = m.r, relax(m, 1.0, params_b).r
            # stay clear of all three boundary curves
            if min(abs(r_s - r_m), abs(r_m - za), abs(r_s - za)) < 1e-3:
                continue
            kept += 1
            tag = classify(m, params_b)
            for dy, dz in ((1e-14, 0.0), (-1e-14, 0.0), (0.0, 1e-14), (0.0, -1e-14)):
                assert classify(BlochState(m.y + dy, m.z + dz), params_b) is tag


def _float_neighbours(x):
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


@st.composite
def tie_radii(draw):
    """(r_m, r_s, za) with one exact tie of the structure decision list.

    za is |z0| of a plane inside the ball, or inf when the plane is absent.
    """
    za = draw(st.one_of(st.floats(0.01, 1.0, exclude_max=True), st.just(math.inf)))
    r = draw(st.floats(0.0, 0.999))
    other = draw(st.floats(0.0, 0.999))
    tie = draw(st.sampled_from(["r_s == r_m", "r_s - r_m == tol", "r_m - r_s == tol",
                                "r_m == za", "r_s == za"]))
    if za == math.inf and tie in ("r_m == za", "r_s == za"):
        tie = "r_s == r_m"
    return {
        "r_s == r_m": (r, r),
        "r_s - r_m == tol": (r, r + CLASSIFY_TOL),
        "r_m - r_s == tol": (r + CLASSIFY_TOL, r),
        "r_m == za": (za, other),
        "r_s == za": (other, za),
    }[tie] + (za,)


class TestDecisionListsAgreeAtTies:
    """The scalar and the array consumer of a decision list pick the same choice."""

    @given(tie_radii())
    @settings(max_examples=300)
    def test_structure(self, radii):
        r_m, r_s, za = radii
        # the tie itself and each radius one float step to either side
        pairs = [(a, b) for a in _float_neighbours(r_m) for b in _float_neighbours(r_s)]
        labels = {s: np.int8(code) for code, s in enumerate(ControlStructure)}
        codes = _select(STRUCTURE_DECISIONS, labels, np.array([a for a, _ in pairs]),
                        np.array([b for _, b in pairs]), za)
        for (a, b), code in zip(pairs, codes.tolist()):
            assert tuple(ControlStructure)[code] is _first_match(STRUCTURE_DECISIONS, a, b, za)

    @given(st.floats(0.05, 3.0), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_regime(self, g, at_ab):
        # Gamma == Gamma_ab or Gamma == 1.5*gamma exactly, and one float step to either side
        tie = regime_boundaries(g)[0 if at_ab else 1]
        for big in _float_neighbours(tie):
            scalar = regime(RelaxationPair(big, g))
            cell = q_max_surface((g, 2.0 * g), (big, 2.0 * big), (2, 2)).regimes[0, 0]
            assert cell == scalar.value


class TestRegime:
    @pytest.mark.parametrize(
        "rates,expected",
        [
            ((1.90, 0.5), SynthesisRegime.A),
            ((1.80, 1.0), SynthesisRegime.B),
            ((1.69, 1.5), SynthesisRegime.C),
        ],
    )
    def test_reference_parameter_sets(self, rates, expected):
        assert regime(RelaxationPair(*rates)) is expected

    def test_boundaries_at_unit_gamma(self):
        ab, bc = regime_boundaries(1.0)
        assert bc == 1.5
        assert ab == pytest.approx(2.0819767068693267, abs=1e-14)

    def test_boundaries_at_half_gamma(self):
        ab, bc = regime_boundaries(0.5)
        assert bc == 0.75
        assert ab == pytest.approx(1.5207470412683991, abs=1e-14)

    @given(st.floats(1e-6, 10.0))
    def test_ordering_never_crosses(self, g):
        ab, bc = regime_boundaries(g)
        assert ab >= bc

    def test_small_gamma_limit(self):
        # Gamma_bc -> 0 while Gamma_ab -> 1, so their ratio diverges
        ab, bc = regime_boundaries(1e-8)
        assert bc == pytest.approx(1.5e-8, abs=1e-20)
        assert ab == pytest.approx(1.0, abs=1e-6)

    def test_sweep_produces_exactly_two_switches(self):
        g = 1.0
        ab, bc = regime_boundaries(g)
        tags = [
            regime(RelaxationPair(big, g)).value
            for big in np.linspace(0.51, 3.0, 4000)
        ]
        switches = [(a, b) for a, b in zip(tags, tags[1:]) if a != b]
        assert switches == [("C", "B"), ("B", "A")]
        assert regime(RelaxationPair(bc, g)) is SynthesisRegime.C
        assert regime(RelaxationPair(ab, g)) is SynthesisRegime.A

    @given(st.floats(0.05, 3.0))
    @settings(max_examples=100)
    def test_ab_threshold_matches_ellipsoid_bottom_radius(self, g):
        # at Gamma_ab the magic radius |z0| equals the ellipsoid's lower
        # axis crossing tanh(gamma/2); this is where the r_s = |z0| curve
        # touches the ellipsoid on the z-axis
        ab, _ = regime_boundaries(g)
        plane = magic_plane(RelaxationPair(ab, g))
        assert abs(plane.z0) == pytest.approx(math.tanh(0.5 * g), rel=1e-12)


class TestBoundaryCurves:
    def test_ellipsoid_points_have_zero_residual(self, params_b):
        curves = boundary_curves(params_b, 200)
        assert len(curves.ernst_ellipsoid) >= 2
        for y, z in curves.ernst_ellipsoid:
            assert abs(ernst_ellipsoid_residual(BlochState(y, z), params_b)) <= 1e-9

    def test_circle_radius(self, params_b):
        curves = boundary_curves(params_b, 64)
        radii = np.hypot(curves.magic_radius_circle[:, 0], curves.magic_radius_circle[:, 1])
        assert np.allclose(radii, 0.625, atol=1e-15)

    def test_preimage_points_relax_onto_circle(self, params_b):
        curves = boundary_curves(params_b, 128)
        assert len(curves.magic_radius_preimage) >= 2
        for y, z in curves.magic_radius_preimage:
            s = relax(BlochState(y, z), 1.0, params_b)
            assert abs(s.r - 0.625) <= 1e-9

    def test_preimage_matches_backward_relaxation(self, params_b):
        # curve (iii) is the backward free relaxation of the circle r = |z0|
        za = 0.625
        for phi in np.linspace(0.2, 1.5, 20):
            s = BlochState(za * math.cos(phi), za * math.sin(phi))
            try:
                m = relax_inverse(s, 1.0, params_b)
            except Exception:
                continue
            back = relax(m, 1.0, params_b)
            assert abs(back.r - za) <= 1e-12

    def test_magic_curves_empty_without_plane(self, params_c):
        curves = boundary_curves(params_c, 64)
        assert curves.magic_radius_circle.shape == (0, 2)
        assert curves.magic_radius_preimage.shape == (0, 2)
        assert len(curves.ernst_ellipsoid) >= 2

    def test_minimum_sampling(self, params_b):
        with pytest.raises(DomainError):
            boundary_curves(params_b, 1)

    @given(rate_pairs())
    @settings(max_examples=30, deadline=None)
    def test_ellipsoid_solver_consistent_with_residual(self, p):
        for z in (0.1, 0.4, 0.8):
            y = ellipsoid_y(z, p)
            if y is not None and y > 0.0:
                assert abs(ernst_ellipsoid_residual(BlochState(y, z), p)) <= 1e-9
