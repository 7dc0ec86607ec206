import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spin_snr_synth
from spin_snr_synth import (
    BlochState,
    BracketingError,
    DomainError,
    EQUILIBRIUM,
    PhysicalityError,
    RelaxationPair,
    VerificationCheck,
    VerificationReport,
    bloch,
    boundary_curves,
    build_trajectory,
    cycle_fixed_point,
    ernst,
    ernst_solution,
    magic_plane,
    normalize_params,
    oracle,
    q_max_surface,
    q_value,
    qsurface,
    relax,
    rotate,
    simulate_structure,
    sweep_delta_pulse,
    synthesis,
)
from spin_snr_synth.oracle import _axis_arc, _bang_flow, _rk4_u_step
from conftest import disk_states, rate_pairs, relax_inverse


class TestRelaxationPair:
    def test_unit_cancellation(self):
        p = normalize_params(1.0, 1.0, 1.0 / (2.0 * math.pi))
        assert p.gamma_t2 == pytest.approx(1.0, abs=1e-15)
        assert p.gamma_t1 == pytest.approx(1.0, abs=1e-15)

    def test_physical_form_of_reference_rates(self):
        p = normalize_params(2.0 * math.pi, 2.0 * math.pi / 1.8, 1.0)
        assert p.gamma_t2 == pytest.approx(1.8, abs=1e-14)
        assert p.gamma_t1 == pytest.approx(1.0, abs=1e-14)

    def test_t2_above_twice_t1_rejected(self):
        with pytest.raises(PhysicalityError):
            normalize_params(1.0, 3.0, 1.0)

    def test_unphysical_has_no_override(self):
        # the synthesis does not hold at 2*Gamma < gamma, so no keyword lets such a pair in
        with pytest.raises(TypeError):
            normalize_params(1.0, 3.0, 1.0, allow_unphysical=True)
        with pytest.raises(TypeError):
            RelaxationPair(0.4, 1.0, allow_unphysical=True)

    @pytest.mark.parametrize("t1,t2,td", [(0.0, 1, 1), (1, -2, 1), (1, 1, 0.0)])
    def test_nonpositive_inputs_rejected(self, t1, t2, td):
        with pytest.raises(DomainError):
            normalize_params(t1, t2, td)

    def test_direct_construction_validates(self):
        with pytest.raises(DomainError):
            RelaxationPair(-1.0, 1.0)
        with pytest.raises(PhysicalityError, match=r"Gamma=0\.4, gamma=1\.0"):
            RelaxationPair(0.4, 1.0)
        assert RelaxationPair(0.5, 1.0).gamma_t2 == 0.5  # 2*Gamma = gamma is admissible


class TestBlochState:
    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            BlochState(0.9, 0.9)

    @given(disk_states())
    def test_polar_view_exact(self, s):
        assert s.r * math.cos(s.theta) == pytest.approx(s.y, abs=1e-15)
        assert s.r * math.sin(s.theta) == pytest.approx(s.z, abs=1e-15)


_PARAMS = RelaxationPair(1.8, 1.0)
_POINT = BlochState(0.3, 0.1)
_CHECK = VerificationCheck("closure", 1e-9, 0.0, True)

#: One builder per record type of the package.
RECORD_BUILDERS = {
    RelaxationPair: lambda: _PARAMS,
    BlochState: lambda: _POINT,
    synthesis.MagicPlane: lambda: magic_plane(_PARAMS),
    synthesis.BoundaryCurves: lambda: boundary_curves(_PARAMS, 8),
    qsurface.QSample: lambda: q_value(_POINT, _PARAMS),
    qsurface.Segment: lambda: build_trajectory(_POINT, _PARAMS).segments[0],
    qsurface.Trajectory: lambda: build_trajectory(_POINT, _PARAMS),
    ernst.ErnstSolution: lambda: ernst_solution(_PARAMS),
    ernst.QMaxSurface: lambda: q_max_surface((0.1, 2.0), (0.1, 3.0), (4, 4)),
    oracle.CycleFixedPoint: lambda: cycle_fixed_point(1.0, _PARAMS),
    oracle.SweepResult: lambda: sweep_delta_pulse(_PARAMS),
    VerificationCheck: lambda: _CHECK,
    VerificationReport: lambda: VerificationReport(_PARAMS, 1, (_CHECK,)),
}


class TestRecords:
    def test_every_record_type_has_a_builder(self):
        found = {
            obj
            for mod in (bloch, synthesis, qsurface, ernst, oracle)
            for name, obj in vars(mod).items()
            if isinstance(obj, type) and issubclass(obj, tuple) and not name.startswith("_")
        }
        assert found == set(RECORD_BUILDERS)

    @pytest.mark.parametrize("cls", list(RECORD_BUILDERS), ids=lambda cls: cls.__name__)
    def test_fields_are_read_only(self, cls):
        record = RECORD_BUILDERS[cls]()
        assert type(record) is cls
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = None

    def test_validated_records_check_every_construction(self):
        with pytest.raises(DomainError):
            BlochState(1.1, 0)
        with pytest.raises(PhysicalityError):
            RelaxationPair(0.1, 1.0)

    def test_package_never_skips_validation(self):
        # _replace and _make build a record without calling its __new__
        src = Path(spin_snr_synth.__file__).parent
        attributes = {
            node.attr
            for path in src.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
        }
        assert not {"_replace", "_make"} & attributes


class TestRelax:
    def test_equilibrium_is_fixed_point(self, params_b):
        out = relax(EQUILIBRIUM, 5.0, params_b)
        assert (out.y, out.z) == (0.0, 1.0)

    def test_closed_form_example(self, params_b):
        out = relax(BlochState(0.6, 0.3), 1.0, params_b)
        assert out.y == pytest.approx(0.6 * math.exp(-1.8), abs=1e-15)
        assert out.z == pytest.approx(1.0 - 0.7 * math.exp(-1.0), abs=1e-15)
        # frozen values, cross-checked against RK4 in TestIntegrate
        assert out.y == pytest.approx(0.09917933293295192, abs=1e-15)
        assert out.z == pytest.approx(0.7424843911799903, abs=1e-15)

    @given(disk_states(), st.floats(0.0, 3.0), st.floats(0.0, 3.0), rate_pairs())
    @settings(max_examples=200)
    def test_semigroup(self, s, a, b, p):
        one = relax(relax(s, a, p), b, p)
        two = relax(s, a + b, p)
        assert math.hypot(one.y - two.y, one.z - two.z) <= 1e-12

    @given(disk_states(), rate_pairs())
    def test_zero_time_is_identity(self, s, p):
        out = relax(s, 0.0, p)
        assert (out.y, out.z) == (s.y, s.z)

    def test_negative_time_rejected(self, params_b):
        with pytest.raises(DomainError):
            relax(EQUILIBRIUM, -1.0, params_b)


class TestRelaxInverse:
    def test_equilibrium(self, params_b):
        out = relax_inverse(EQUILIBRIUM, 1.0, params_b)
        assert (out.y, out.z) == (0.0, 1.0)

    def test_inverts_relax_example(self, params_b):
        fwd = relax(BlochState(0.6, 0.3), 1.0, params_b)
        back = relax_inverse(fwd, 1.0, params_b)
        assert back.y == pytest.approx(0.6, abs=1e-12)
        assert back.z == pytest.approx(0.3, abs=1e-12)

    @given(disk_states(r_max=0.9), st.floats(0.0, 2.0), rate_pairs())
    @settings(max_examples=150)
    def test_roundtrip(self, s, tau, p):
        try:
            pre = relax_inverse(s, tau, p)
        except DomainError:
            return
        out = relax(pre, tau, p)
        assert math.hypot(out.y - s.y, out.z - s.z) <= 1e-12


class TestRotate:
    def test_quarter_flip(self):
        out = rotate(EQUILIBRIUM, math.pi / 2.0)
        assert out.y == pytest.approx(1.0, abs=1e-15)
        assert out.z == pytest.approx(0.0, abs=1e-15)

    def test_identity(self):
        out = rotate(EQUILIBRIUM, 0.0)
        assert (out.y, out.z) == (0.0, 1.0)

    @given(disk_states(), st.floats(-7.0, 7.0), st.floats(-7.0, 7.0))
    @settings(max_examples=300)
    def test_radius_preserved_and_additive(self, s, a, b):
        ra = rotate(s, a)
        assert abs(ra.y**2 + ra.z**2 - (s.y**2 + s.z**2)) <= 1e-14
        one = rotate(ra, b)
        two = rotate(s, a + b)
        assert math.hypot(one.y - two.y, one.z - two.z) <= 1e-12


def _fixed_step_flow(s, u, t, p, n=400):
    """n equal Dormand-Prince steps under the constant field u; returns (y, z)."""
    y, z, h = s.y, s.z, t / n
    for _ in range(n):
        y, z, _ = _rk4_u_step(y, z, h, lambda yy, zz: u, p.gamma_t2, p.gamma_t1)
    return y, z


class TestIntegrate:
    """The oracle's exact constant-field flow and the free axis arc bisected on it."""

    def test_free_evolution_matches_closed_form(self, params_b):
        s = BlochState(0.6, 0.3)
        exact = relax(s, 1.0, params_b)
        y, z = _bang_flow(s.y, s.z, 0.0, 1.0, params_b)
        assert math.hypot(y - exact.y, z - exact.z) <= 1e-15

    def test_long_free_arc_stays_finite(self):
        # at A, delta = 1.25: cosh(1.25*600) alone overflows, the decay it is carried by does not
        params = RelaxationPair(3.0, 0.5)
        exact = relax(BlochState(0.3, 0.5), 600.0, params)
        y, z = _bang_flow(0.3, 0.5, 0.0, 600.0, params)
        assert math.hypot(y - exact.y, z - exact.z) <= 1e-15

    @pytest.mark.parametrize("u", [0.0, 0.3, -0.3, 0.4, -0.4, 50.0, -1e4])
    def test_flow_matches_fixed_step_integration(self, params_b, u):
        # at B, delta = (Gamma - gamma)/2 is exactly 0.4: |u| < 0.4 takes the cosh
        # branch, |u| = 0.4 the linear one and |u| > 0.4 the cos one
        assert 0.5 * (params_b.gamma_t2 - params_b.gamma_t1) == 0.4
        t = 2.0 if abs(u) < 1.0 else 1.1 / abs(u)
        for s in (BlochState(0.3, 0.5), BlochState(-0.7, -0.6), EQUILIBRIUM):
            y, z = _bang_flow(s.y, s.z, u, t, params_b)
            ref_y, ref_z = _fixed_step_flow(s, u, t, params_b)
            assert math.hypot(y - ref_y, z - ref_z) <= 1e-13

    def test_free_evolution_batch(self, params_b):
        # the axis arc, stopped where relax puts z after tau, lands at tau and at
        # relax's point
        rng = np.random.default_rng(2024)
        for _ in range(100):
            r = 0.99 * math.sqrt(rng.uniform())
            th = rng.uniform(-math.pi, math.pi)
            s = BlochState(r * math.cos(th), r * math.sin(th))
            tau = rng.uniform(0.0, 2.0)
            exact = relax(s, tau, params_b)
            t, y, z = _axis_arc(s.y, s.z, exact.z, params_b)
            assert abs(t - tau) <= 1e-11
            assert math.hypot(y - exact.y, z - exact.z) <= 1e-12

    @pytest.mark.parametrize("amp", [1e2, 1e3, 1e4])
    def test_bang_limit_approaches_rotation(self, params_b, amp):
        # constant u = A over phi/A tends to rotate(s, -phi) as A grows
        s = BlochState(0.3, 0.5)
        phi = 1.1
        y, z = _bang_flow(s.y, s.z, amp, phi / amp, params_b)
        tgt = rotate(s, -phi)
        assert math.hypot(y - tgt.y, z - tgt.z) <= 3.0 / amp

    def test_bang_limit_error_scales_inversely(self, params_b):
        s = BlochState(0.3, 0.5)
        phi = 1.1
        errs = []
        for amp in (1e2, 1e3, 1e4):
            y, z = _bang_flow(s.y, s.z, amp, phi / amp, params_b)
            tgt = rotate(s, -phi)
            errs.append(math.hypot(y - tgt.y, z - tgt.z))
        assert errs[0] > errs[1] > errs[2]
        assert 5.0 < errs[0] / errs[1] < 20.0

    def test_invalid_arguments(self, params_b):
        with pytest.raises(DomainError):
            simulate_structure(BlochState(0.3, 0.2), params_b, 0.0)
        with pytest.raises(BracketingError):  # free evolution never lifts z above 1
            _axis_arc(0.0, 0.5, 1.0, params_b)


def _radial_speed(s, p):
    """dr/dt under free evolution, (-Gamma*y^2 + gamma*z*(1 - z))/r; r > 0."""
    return (-p.gamma_t2 * s.y * s.y + p.gamma_t1 * s.z * (1.0 - s.z)) / s.r


def _radial_speed_dtheta(s, p):
    """Angular derivative of the radial speed at fixed radius, (|y|/r)*(2*Gamma*z + gamma - 2*gamma*z).

    It vanishes on the z axis and on the magic plane z0 = -gamma/(2*(Gamma - gamma)),
    the two singular sets of the time-optimal flow.
    """
    g = p.gamma_t1
    return (abs(s.y) / s.r) * (2.0 * p.gamma_t2 * s.z + g - 2.0 * g * s.z)


def _relaxed_radius_rate(s, p, h=1e-8):
    """dr/dt at s of the closed-form free evolution, by forward difference."""
    return (relax(s, h, p).r - s.r) / h


class TestRadialSpeed:
    def test_equilibrium(self, params_b):
        assert _radial_speed(EQUILIBRIUM, params_b) == 0.0
        assert _relaxed_radius_rate(EQUILIBRIUM, params_b) == 0.0

    def test_pure_transverse_decays_at_big_gamma(self, params_b):
        s = BlochState(1.0, 0.0)
        assert _radial_speed(s, params_b) == pytest.approx(-1.8, abs=1e-15)
        assert _relaxed_radius_rate(s, params_b) == pytest.approx(-1.8, abs=1e-6)

    def test_lower_axis_point(self, params_b):
        s = BlochState(0.0, -0.5)
        assert _radial_speed(s, params_b) == pytest.approx(-1.5, abs=1e-14)
        assert _relaxed_radius_rate(s, params_b) == pytest.approx(-1.5, abs=1e-6)

    def test_origin_undefined(self, params_b):
        # free evolution leaves the origin along +z at speed gamma, yet the radial
        # speed tends to 0 along the y axis: it has no limit at the origin
        assert _relaxed_radius_rate(BlochState(0.0, 0.0), params_b) == pytest.approx(1.0, abs=1e-6)
        assert _radial_speed(BlochState(0.0, 1e-9), params_b) == pytest.approx(1.0, abs=1e-8)
        assert _radial_speed(BlochState(1e-9, 0.0), params_b) == pytest.approx(0.0, abs=1e-8)

    @given(disk_states(r_max=0.98), rate_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_radius_derivative_along_trajectory(self, s, p):
        if s.r < 0.2:
            return
        h = 1e-4
        s1 = BlochState(*_bang_flow(s.y, s.z, 0.0, h, p))
        s2 = BlochState(*_bang_flow(s.y, s.z, 0.0, 2.0 * h, p))
        fd = (s2.r - s.r) / (2.0 * h)  # central difference at t = h
        # truncation ~ (h^2/6)*max|r'''|; r''' grows with rates^3 and 1/r^2
        tol = 1e-7 * (1.0 + p.gamma_t2 + p.gamma_t1) ** 3
        assert fd == pytest.approx(_radial_speed(s1, p), abs=tol)


class TestRadialSpeedDtheta:
    def test_zero_on_axis(self, params_b):
        assert _radial_speed_dtheta(BlochState(0.0, 0.4), params_b) == 0.0
        assert _radial_speed_dtheta(BlochState(0.0, -0.4), params_b) == 0.0

    def test_zero_on_magic_plane(self, params_b):
        z0 = magic_plane(params_b).z0
        assert z0 == pytest.approx(-1.0 / (2.0 * 0.8), abs=1e-15)
        assert _radial_speed_dtheta(BlochState(0.3, z0), params_b) == pytest.approx(0.0, abs=1e-15)

    def test_direct_value(self, params_b):
        got = _radial_speed_dtheta(BlochState(0.5, 0.5), params_b)
        assert got == pytest.approx(1.2727922061357856, abs=1e-14)

    def test_origin_undefined(self, params_b):
        # gamma along the y axis, 0 along the z axis: no limit at the origin
        assert _radial_speed_dtheta(BlochState(1e-9, 0.0), params_b) == pytest.approx(1.0, abs=1e-8)
        assert _radial_speed_dtheta(BlochState(0.0, 1e-9), params_b) == 0.0

    @given(disk_states(r_max=0.97), rate_pairs())
    @settings(max_examples=150)
    def test_matches_finite_difference_over_theta(self, s, p):
        r = s.r
        if r < 0.05 or abs(s.y) < 0.05:
            return
        th = s.theta
        h = 1e-5
        plus = BlochState(r * math.cos(th + h), r * math.sin(th + h))
        minus = BlochState(r * math.cos(th - h), r * math.sin(th - h))
        fd = (_radial_speed(plus, p) - _radial_speed(minus, p)) / (2.0 * h)
        # the analytic form carries |y| where the true derivative carries y
        got = math.copysign(1.0, s.y) * _radial_speed_dtheta(s, p)
        assert fd == pytest.approx(got, rel=1e-6, abs=1e-9)
