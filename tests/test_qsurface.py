import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spin_snr_synth import (
    BlochState,
    ControlStructure,
    DomainError,
    RelaxationPair,
    build_trajectory,
    control_time,
    magic_plane,
    q_grid_arrays,
    q_value,
    relax,
    time_magic,
    time_vertical,
)
from spin_snr_synth.qsurface import _linspace, q_lattice_arrays
from conftest import half_disk_states, rate_pairs, relax_inverse

ERNST_POINT_B = BlochState(0.6892739804246589, 0.2689414213699951)


def pairs_with_plane():
    return rate_pairs().filter(lambda p: magic_plane(p).present)


class TestTimeVertical:
    def test_zero_length(self, params_b):
        assert time_vertical(0.3, 0.3, params_b) == 0.0

    def test_closed_form_example(self, params_b):
        got = time_vertical(-0.5, 0.0, params_b)
        assert got == pytest.approx(math.log(1.5), abs=1e-15)
        assert got == pytest.approx(0.4054651081081644, abs=1e-15)

    def test_pole_unreachable(self, params_b):
        with pytest.raises(DomainError):
            time_vertical(0.0, 1.0, params_b)

    def test_downward_transfer_rejected(self, params_b):
        with pytest.raises(DomainError):
            time_vertical(0.5, 0.2, params_b)

    @given(
        st.floats(-0.95, 0.9),
        st.floats(0.0, 0.5),
        st.floats(0.0, 0.4),
        rate_pairs(),
    )
    @settings(max_examples=200)
    def test_additivity(self, z1, d1, d2, p):
        z2 = min(z1 + d1, 0.95)
        z3 = min(z2 + d2, 0.97)
        whole = time_vertical(z1, z3, p)
        split = time_vertical(z1, z2, p) + time_vertical(z2, z3, p)
        assert whole == pytest.approx(split, abs=1e-12)


class TestTimeMagic:
    def test_zero_length(self, params_b):
        assert time_magic(0.4, 0.4, params_b) == 0.0

    def test_closed_form_example(self, params_b):
        # w = y^2 relaxes toward w_inf = gamma*(1-z0)*z0/Gamma = -0.56423611...
        w_inf = 1.0 * (1.0 + 0.625) * (-0.625) / 1.8
        assert w_inf == pytest.approx(-0.5642361111111111, abs=1e-15)
        got = time_magic(0.5, 0.2, params_b)
        expected = math.log((0.25 - w_inf) / (0.04 - w_inf)) / 3.6
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.08285704243012655, abs=1e-15)

    def test_finite_down_to_axis(self, params_b):
        assert time_magic(0.5, 0.0, params_b) == pytest.approx(
            0.10188266281015053, abs=1e-15
        )

    def test_plane_absent_rejected(self, params_c):
        with pytest.raises(DomainError):
            time_magic(0.5, 0.2, params_c)

    def test_upward_transfer_rejected(self, params_b):
        with pytest.raises(DomainError):
            time_magic(0.2, 0.5, params_b)

    @given(
        st.floats(0.0, 0.7),
        st.floats(0.0, 0.3),
        st.floats(0.0, 0.3),
        pairs_with_plane(),
    )
    @settings(max_examples=200)
    def test_additivity(self, y3, d1, d2, p):
        y2 = y3 + d1
        y1 = y2 + d2
        whole = time_magic(y1, y3, p)
        split = time_magic(y1, y2, p) + time_magic(y2, y3, p)
        assert whole == pytest.approx(split, abs=1e-12)

    @given(pairs_with_plane(), st.floats(0.05, 0.95), st.floats(0.0, 1.0))
    @example(RelaxationPair(1.5002783853171267, 1.0), 0.5, 0.0)  # |z0| = 0.99944
    @settings(max_examples=300)
    def test_matches_radius_form_of_sheet_formula(self, p, rs_frac, rm_frac):
        # the same duration written directly in the radii:
        # (1/2G) * log((4 rs^2 G (G-g) + g^2)/(4 rm^2 G (G-g) + g^2))
        big_g, g = p.gamma_t2, p.gamma_t1
        za = abs(magic_plane(p).z0)
        r_s = za + (1.0 - za) * rs_frac  # inside (|z0|, 1), also where |z0| > 0.999
        r_m = za + (r_s - za) * rm_frac
        composed = time_magic(
            math.sqrt(r_s**2 - za**2), math.sqrt(r_m**2 - za**2), p
        )
        direct = math.log(
            (4.0 * r_s**2 * big_g * (big_g - g) + g * g)
            / (4.0 * r_m**2 * big_g * (big_g - g) + g * g)
        ) / (2.0 * big_g)
        assert composed == pytest.approx(direct, abs=1e-12)


class TestControlTime:
    def test_ernst_point_needs_no_time(self, params_b):
        structure, t = control_time(ERNST_POINT_B, params_b)
        assert structure is ControlStructure.B
        assert t == 0.0

    def test_axis_growth_case(self, params_b):
        structure, t = control_time(BlochState(0.95, 0.0), params_b)
        assert structure is ControlStructure.BSvPosB
        r_s = relax(BlochState(0.95, 0.0), 1.0, params_b).r
        assert t == pytest.approx(math.log((1.0 - r_s) / 0.05), abs=1e-14)
        assert t == pytest.approx(1.9420912604819565, abs=1e-13)

    def test_magic_plane_case(self, params_b):
        m = BlochState(0.6, 0.3)
        structure, t = control_time(m, params_b)
        assert structure is ControlStructure.BShB
        r_s = relax(m, 1.0, params_b).r
        expected = time_magic(
            math.sqrt(r_s**2 - 0.625**2), math.sqrt(m.r**2 - 0.625**2), params_b
        )
        assert t == pytest.approx(expected, abs=1e-15)

    def test_compound_case_composes_segments(self, params_b):
        m = BlochState(0.3, 0.1)
        structure, t = control_time(m, params_b)
        assert structure is ControlStructure.BShSvNegB
        r_s = relax(m, 1.0, params_b).r
        expected = time_magic(math.sqrt(r_s**2 - 0.625**2), 0.0, params_b) + time_vertical(
            -0.625, -m.r, params_b
        )
        assert t == pytest.approx(expected, abs=1e-15)

    @given(pairs_with_plane(), st.floats(-1.4, 1.4))
    @settings(max_examples=200)
    def test_degenerate_measurement_radius_at_magic_circle(self, p, phi):
        # r_m = |z0| exactly: the BShB arc ends on the axis and the
        # compound structure's vertical leg has zero length, so both give
        # the same duration
        za = abs(magic_plane(p).z0)
        m = BlochState(za * math.cos(phi), za * math.sin(phi))
        r_s = relax(m, 1.0, p).r
        if r_s <= za + 1e-9:
            return
        structure, t = control_time(m, p)
        y_in = math.sqrt(max(0.0, r_s * r_s - za * za))
        assert structure is ControlStructure.BShB
        assert t == pytest.approx(time_magic(y_in, 0.0, p), abs=1e-12)

    @given(pairs_with_plane(), st.floats(0.0, 1.2))
    @settings(max_examples=200)
    def test_degenerate_relaxed_radius_at_magic_circle(self, p, phi):
        # r_s = |z0| exactly: the magic leg of the compound structure has
        # zero length and the time reduces to the pure axis transfer
        za = abs(magic_plane(p).z0)
        s = BlochState(za * math.cos(phi), za * math.sin(phi))
        try:
            m = relax_inverse(s, 1.0, p)
        except Exception:
            return
        if m.y < 0.0 or m.r >= 0.999 or m.r >= za - 1e-9:
            return
        structure, t = control_time(m, p)
        assert structure is ControlStructure.BSvNegB
        assert t == pytest.approx(time_vertical(-za, -m.r, p), abs=2e-10)

    def test_domain_errors(self, params_b):
        with pytest.raises(DomainError):
            control_time(BlochState(-0.1, 0.0), params_b)
        with pytest.raises(DomainError):
            control_time(BlochState(0.8, 0.6), params_b)


class TestQValue:
    def test_ernst_point(self, params_b):
        sample = q_value(ERNST_POINT_B, params_b)
        assert sample.q == sample.m.y
        assert sample.t_control == 0.0

    def test_outer_point(self, params_b):
        sample = q_value(BlochState(0.95, 0.0), params_b)
        assert sample.q == pytest.approx(0.95 / math.sqrt(2.9420912604819565), abs=1e-13)
        assert sample.q == pytest.approx(0.553854304452208, abs=1e-13)

    def test_q_vanishes_with_signal(self, params_b):
        for z in (0.9, 0.0, -0.5):
            assert q_value(BlochState(1e-12, z), params_b).q <= 1e-11

    @given(half_disk_states(), rate_pairs())
    @settings(max_examples=300)
    def test_matches_axis_sheet_formulas(self, m, p):
        # Q on the single-axis sheets written directly in the radii
        sample = q_value(m, p)
        r_m = m.r
        r_s = relax(m, 1.0, p).r
        g = p.gamma_t1
        if sample.structure is ControlStructure.BSvPosB:
            direct = m.y / math.sqrt(1.0 + math.log((1.0 - r_s) / (1.0 - r_m)) / g)
        elif sample.structure is ControlStructure.BSvNegB:
            direct = m.y / math.sqrt(1.0 + math.log((1.0 + r_s) / (1.0 + r_m)) / g)
        else:
            return
        assert sample.q == pytest.approx(direct, abs=1e-12)

    @given(half_disk_states(), rate_pairs())
    @settings(max_examples=300)
    def test_q_below_one(self, m, p):
        sample = q_value(m, p)
        assert 0.0 <= sample.q < 1.0
        assert sample.t_control >= 0.0
        assert sample.q == m.y / math.sqrt(1.0 + sample.t_control)


class TestQGrid:
    def test_lattice_membership_and_order(self, params_b):
        y, z, _, _, _ = q_grid_arrays(params_b, 48, 48)
        assert len(y) > 0
        assert np.all((y > 0.0) & (np.hypot(y, z) < 1.0))
        # row-major: y never decreases, z increases within a y row
        assert np.all((y[1:] > y[:-1]) | ((y[1:] == y[:-1]) & (z[1:] > z[:-1])))

    def test_samples_self_consistent(self, params_b):
        y, _, _, t_c, q = q_grid_arrays(params_b, 48, 48)
        assert np.array_equal(q, y / np.sqrt(1.0 + t_c))
        assert np.all((0.0 <= q) & (q < 1.0))

    def test_vectorized_matches_scalar(self, params_b):
        y, z, codes, t_c, q = q_grid_arrays(params_b, 64, 64)
        structures = tuple(ControlStructure)
        rng = np.random.default_rng(3)
        for i in rng.choice(len(y), 150, replace=False):
            sample = q_value(BlochState(y[i], z[i]), params_b)
            assert sample.structure is structures[codes[i]]
            assert sample.t_control == pytest.approx(t_c[i], abs=1e-14)
            assert sample.q == pytest.approx(q[i], abs=1e-14)

    def test_grid_maximum_near_optimum(self, params_b):
        _, _, _, _, q = q_grid_arrays(params_b, 256, 256)
        assert q.max() == pytest.approx(ERNST_POINT_B.y, abs=1e-3)

    def test_minimum_resolution(self, params_b):
        with pytest.raises(DomainError):
            q_grid_arrays(params_b, 1, 10)

    @given(rate_pairs(), st.integers(2, 2048), st.integers(2, 2048), st.floats(0.0, 1.0))
    @example(RelaxationPair(1.8, 1.0), 90, 90, 79.5 / 88)  # rim rows (80/89, +-39/89)
    @settings(max_examples=100, deadline=None)
    def test_scalar_raises_exactly_where_lattice_drops(self, p, n_y, n_z, y_frac):
        # one whole lattice row with y > 0, both of its disk-rim crossings included
        y_axis = np.linspace(0.0, 1.0, n_y)
        z_axis = np.linspace(-1.0, 1.0, n_z)
        i = 1 + int(y_frac * (n_y - 2))
        _, z, codes, _, _ = q_lattice_arrays(p, y_axis[i:i + 1], z_axis)
        kept = dict(zip(z.tolist(), codes.tolist()))
        structures = tuple(ControlStructure)
        for zi in z_axis.tolist():
            try:
                structure, _ = control_time(BlochState(float(y_axis[i]), zi), p)
            except DomainError:
                assert zi not in kept
            else:
                assert structures[kept[zi]] is structure


class TestTrajectory:
    @pytest.mark.parametrize(
        "point,kinds",
        [
            ((0.95, 0.0), ("bang", "axis_arc", "bang", "detection")),
            ((0.6, 0.3), ("bang", "magic_arc", "bang", "detection")),
            ((0.3, 0.1), ("bang", "magic_arc", "axis_arc", "bang", "detection")),
            ((0.6892739804246589, 0.2689414213699951), ("bang", "detection")),
        ],
    )
    def test_segment_kinds(self, params_b, point, kinds):
        traj = build_trajectory(BlochState(*point), params_b)
        assert tuple(seg.kind for seg in traj.segments) == kinds

    def test_segments_are_contiguous(self, params_b):
        for point in ((0.95, 0.0), (0.6, 0.3), (0.3, 0.1)):
            traj = build_trajectory(BlochState(*point), params_b)
            assert traj.segments[0].start == traj.s
            assert traj.segments[-1].end == traj.s  # detection returns to S
            for a, b in zip(traj.segments, traj.segments[1:]):
                assert math.hypot(a.end.y - b.start.y, a.end.z - b.start.z) <= 1e-14

    def test_durations_sum_to_control_time(self, params_b):
        for point in ((0.95, 0.0), (0.6, 0.3), (0.3, 0.1)):
            m = BlochState(*point)
            traj = build_trajectory(m, params_b)
            moving = sum(s.duration for s in traj.segments if s.kind != "detection")
            assert moving == pytest.approx(traj.t_control, abs=1e-15)
            assert traj.t_control == control_time(m, params_b)[1]

    def test_bangs_preserve_radius(self, params_b):
        traj = build_trajectory(BlochState(0.3, 0.1), params_b)
        for seg in traj.segments:
            if seg.kind == "bang":
                assert seg.start.r == pytest.approx(seg.end.r, abs=1e-12)
                pts = np.asarray(seg.polyline(16))
                assert np.allclose(np.hypot(pts[:, 0], pts[:, 1]), seg.start.r, atol=1e-12)

    def test_detection_polyline_follows_relaxation(self, params_b):
        traj = build_trajectory(BlochState(0.6, 0.3), params_b)
        det = traj.segments[-1]
        pts = det.polyline(5)
        mid = relax(det.start, det.duration / 2.0, params_b)
        assert pts[2][0] == pytest.approx(mid.y, abs=1e-14)
        assert pts[2][1] == pytest.approx(mid.z, abs=1e-14)


def numpy_polyline(seg, n):
    """The numpy formulas ``Segment.polyline`` was computed with, as an (n, 2) array."""
    if seg.kind == "bang":
        angles = seg.start.theta - np.linspace(0.0, seg.flip, n)
        r = seg.start.r
        return np.column_stack((r * np.cos(angles), r * np.sin(angles)))
    if seg.kind == "detection":
        pts = [relax(seg.start, t, seg.params) for t in np.linspace(0.0, seg.duration, n)]
        return np.array([[p.y, p.z] for p in pts])
    ys = np.linspace(seg.start.y, seg.end.y, n)
    zs = np.linspace(seg.start.z, seg.end.z, n)
    return np.column_stack((ys, zs))


class TestPolyline:
    @given(rate_pairs(), half_disk_states(), st.integers(0, 80))
    @settings(max_examples=200, deadline=None)
    def test_equals_numpy_formulas(self, params, m, n):
        # repr tells -0.0 from 0.0, so equal reprs are equal bits
        for seg in build_trajectory(m, params).segments:
            assert repr(seg.polyline(n)) == repr(numpy_polyline(seg, n).tolist())

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(0, 40),
    )
    def test_linspace_rule(self, a, b, n):
        with np.errstate(all="ignore"):
            expected = np.linspace(a, b, n).tolist()
        assert repr(_linspace(a, b, n)) == repr(expected)

    @pytest.mark.parametrize("a, b", [(0.0, 5e-324), (0.0, -5e-324), (1.0, 1.0), (0.0, 1e-320)])
    def test_linspace_tiny_steps(self, a, b):
        assert repr(_linspace(a, b, 64)) == repr(np.linspace(a, b, 64).tolist())

    def test_negative_count_refused(self, params_b):
        seg = build_trajectory(BlochState(0.3, 0.1), params_b).segments[0]
        with pytest.raises(DomainError):
            seg.polyline(-1)
