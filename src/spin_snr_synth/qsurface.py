"""Control times along the singular sets and the figure-of-merit surface Q.

With unbounded control the bangs are instantaneous, so the control time
Tc(M) is spent only on the z-axis and on the magic plane. Both travel
times have exact closed forms: on the axis z obeys dz/dt = gamma*(1-z);
on the magic plane w = y^2 obeys the linear equation
dw/dt = -2*Gamma*w + 2*gamma*(1-z0)*z0. Q(M) = y_m/sqrt(1 + Tc(M)) is
continuous but not smooth across the region boundaries; composing Tc
from trajectory segments (rather than one formula per sheet) makes that
continuity automatic.

There are two paths. The scalar one, ``_plan``, takes plain floats and the
per-rate constants of ``_rates`` (computed once per rate pair) and returns
the structure and Tc; :func:`classify`, :func:`control_time`,
:func:`q_value` and :func:`build_trajectory` read it, and so do the
searches of ``ernst`` and ``oracle``, which build no record per point. The
array one, :func:`q_lattice_arrays`, evaluates a whole lattice. Both take
the structure from ``synthesis.STRUCTURE_DECISIONS`` and keep a point only
when r_m = hypot(y, z) < 1. The travel times stay in two forms, :mod:`math`
and NumPy: ``math.hypot`` and ``np.hypot`` round differently, and NumPy's
``log1p`` and ``log`` differ from libm's on hosts where NumPy dispatches
them to AVX-512 loops. The golden CSVs pin both forms (lattice rows and
boundary rows).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bloch import DETECTION_TIME, BlochState, RelaxationPair, relax
from .errors import DomainError
from .synthesis import (
    STRUCTURE_DECISIONS,
    ControlStructure,
    _detection_decays,
    _first_match,
    _in_half_disk,
    _linspace,
    _select,
    magic_plane,
)


def time_vertical(z1: float, z2: float, params: RelaxationPair) -> float:
    """Free travel time along the z-axis from z1 up to z2 (z1 <= z2 < 1)."""
    if not z2 < 1.0:
        raise DomainError(f"z2 must be < 1 (the pole is reached only asymptotically), got {z2}")
    if not (math.isfinite(z1) and z1 <= z2):
        raise DomainError(f"free axis motion is upward only, from a finite z1, got z1={z1}, z2={z2}")
    return _axis_time(z1, z2, params.gamma_t1)


def _axis_time(z1: float, z2: float, small_g: float) -> float:
    return (math.log1p(-z1) - math.log1p(-z2)) / small_g


def _w_inf(params: RelaxationPair, z0: float) -> float:
    # Asymptote of w = y^2 on the magic plane; negative whenever the plane exists.
    return params.gamma_t1 * (1.0 - z0) * z0 / params.gamma_t2


def time_magic(y1: float, y2: float, params: RelaxationPair) -> float:
    """Feedback travel time along the magic plane from y1 down to y2 >= 0.

    Finite even for y2 = 0 because w = y^2 crosses zero on its way to a
    negative asymptote.
    """
    plane = magic_plane(params)
    if not plane.present:
        raise DomainError("magic plane does not intersect the unit ball for these rates")
    if not (math.isfinite(y1) and y1 >= y2 >= 0.0):
        raise DomainError(f"magic-plane motion needs finite y1 >= y2 >= 0, got ({y1}, {y2})")
    return _magic_time(y1, y2, params.gamma_t2, _w_inf(params, plane.z0))


def _magic_time(y1: float, y2: float, big_g: float, w_inf: float) -> float:
    return math.log((y1 * y1 - w_inf) / (y2 * y2 - w_inf)) / (2.0 * big_g)


def _plane_y(r: float, z0: float) -> float:
    """The y >= 0 at which the circle of radius r meets the magic plane (0 if it does not)."""
    return math.sqrt(max(0.0, r * r - z0 * z0))


class _Rates(NamedTuple):
    """The per-rate-pair constants of :func:`_plan`, computed once per pair.

    ``e2``/``e1`` are e^-Gamma and e^-gamma over one detection; ``za`` is
    :attr:`MagicPlane.radius` and ``w_inf`` is None without the plane.
    """

    big_g: float
    small_g: float
    e2: float
    e1: float
    z0: float | None
    za: float
    w_inf: float | None


def _rates(params: RelaxationPair) -> _Rates:
    plane = magic_plane(params)
    return _Rates(
        *params,
        *_detection_decays(params),
        plane.z0,
        plane.radius,
        _w_inf(params, plane.z0) if plane.present else None,
    )


def _plan(y: float, z: float, k: _Rates) -> tuple[ControlStructure, float]:
    """Structure and control time Tc at (y, z), which must lie in the open half-disk.

    Plain floats in and out, so that the searches over many points build no
    records. S = relax(M, 1) is (y*e2, 1 + (z - 1)*e1); the arcs run from S
    in travel order: the z-axis, or the magic plane and then the z-axis.
    """
    r_m = math.hypot(y, z)
    r_s = math.hypot(y * k.e2, 1.0 + (z - 1.0) * k.e1)
    structure = _first_match(STRUCTURE_DECISIONS, r_m, r_s, k.za)
    if structure is ControlStructure.B:
        return structure, 0.0
    if structure is ControlStructure.BSvPosB:
        return structure, _axis_time(r_s, r_m, k.small_g)
    if structure is ControlStructure.BSvNegB:
        return structure, _axis_time(-r_s, -r_m, k.small_g)
    y_in = _plane_y(r_s, k.z0)
    if structure is ControlStructure.BShB:
        return structure, _magic_time(y_in, _plane_y(r_m, k.z0), k.big_g, k.w_inf)
    # BShSvNegB: ride the plane to the axis, then the axis up to -r_m
    return structure, (_magic_time(y_in, 0.0, k.big_g, k.w_inf)
                       + _axis_time(k.z0, -r_m, k.small_g))


def _checked(m: BlochState) -> BlochState:
    """m, if it is a measurement point in the open half-disk, else DomainError."""
    if not _in_half_disk(m.y, m.z):
        raise DomainError(f"measurement point ({m.y}, {m.z}) is outside the half-disk y >= 0, |m| < 1")
    return m


def _q(y: float, z: float, k: _Rates) -> tuple[ControlStructure, float, float]:
    """(structure, Tc, Q = y_m/sqrt(1 + Tc)) at (y, z) in the open half-disk."""
    structure, t_c = _plan(y, z, k)
    return structure, t_c, y / math.sqrt(1.0 + t_c)


def classify(m: BlochState, params: RelaxationPair) -> ControlStructure:
    """Optimal control structure for the measurement point m.

    m must lie in the open half-disk (y >= 0, r < 1).
    """
    return _plan(*_checked(m), _rates(params))[0]


def control_time(m: BlochState, params: RelaxationPair) -> tuple[ControlStructure, float]:
    """Structure tag and control duration Tc for the measurement point m."""
    return _plan(*_checked(m), _rates(params))


class QSample(NamedTuple):
    """One evaluated point of the Q surface."""

    m: BlochState
    structure: ControlStructure
    t_control: float
    q: float


def q_value(m: BlochState, params: RelaxationPair) -> QSample:
    """Figure of merit Q = y_m/sqrt(1 + Tc) at a single M point."""
    return QSample(m, *_q(*_checked(m), _rates(params)))


def q_grid_arrays(
    params: RelaxationPair, n_y: int, n_z: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized Q evaluation on the (n_y, n_z) lattice of the half-disk.

    Returns flat arrays (y, z, code, t_control, q) in row-major order
    (y outer, z inner), restricted to {0 < y, y^2 + z^2 < 1}. ``code``
    indexes into ``tuple(ControlStructure)``.
    """
    import numpy as np

    if n_y < 2 or n_z < 2:
        raise DomainError(f"grid resolution must be >= 2, got ({n_y}, {n_z})")
    return q_lattice_arrays(params, np.linspace(0.0, 1.0, n_y), np.linspace(-1.0, 1.0, n_z))


def q_lattice_arrays(
    params: RelaxationPair, y_axis: np.ndarray, z_axis: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Same as :func:`q_grid_arrays` for explicit axis vectors (chunkable)."""
    import numpy as np

    yy, zz = np.meshgrid(y_axis, z_axis, indexing="ij")
    y = yy.ravel()
    z = zz.ravel()
    r_m = np.hypot(y, z)
    # Not synthesis._in_half_disk: the lattice also leaves out the y = 0 column,
    # where Q = 0, and the golden CSVs pin that.
    keep = (y > 0.0) & (r_m < 1.0)
    y = y[keep]
    z = z[keep]
    r_m = r_m[keep]

    big_g = params.gamma_t2
    small_g = params.gamma_t1
    ys = y * math.exp(-big_g * DETECTION_TIME)
    zs = 1.0 + (z - 1.0) * math.exp(-small_g * DETECTION_TIME)
    r_s = np.hypot(ys, zs)

    plane = magic_plane(params)
    labels = {s: np.int8(code) for code, s in enumerate(ControlStructure)}
    codes = _select(STRUCTURE_DECISIONS, labels, r_m, r_s, plane.radius)
    is_pos = codes == labels[ControlStructure.BSvPosB]
    is_neg = codes == labels[ControlStructure.BSvNegB]
    is_h = codes == labels[ControlStructure.BShB]
    is_hv = codes == labels[ControlStructure.BShSvNegB]
    t_c = np.zeros(y.shape, dtype=float)
    t_c[is_pos] = (np.log1p(-r_s[is_pos]) - np.log1p(-r_m[is_pos])) / small_g
    t_c[is_neg] = (np.log1p(r_s[is_neg]) - np.log1p(r_m[is_neg])) / small_g
    if plane.present:
        z0 = plane.z0
        w_inf = _w_inf(params, z0)
        w_s = np.maximum(r_s * r_s - z0 * z0, 0.0)
        w_m = np.maximum(r_m * r_m - z0 * z0, 0.0)
        two_g = 2.0 * big_g
        t_c[is_h] = np.log((w_s[is_h] - w_inf) / (w_m[is_h] - w_inf)) / two_g
        t_c[is_hv] = np.log((w_s[is_hv] - w_inf) / -w_inf) / two_g + (
            np.log1p(-z0) - np.log1p(r_m[is_hv])
        ) / small_g

    q = y / np.sqrt(1.0 + t_c)
    return y, z, codes, t_c, q


class Segment(NamedTuple):
    """One leg of the optimal cycle.

    kind is one of "bang" (instantaneous rotation by ``flip``),
    "magic_arc", "axis_arc" (feedback / free arcs of the given duration)
    and "detection" (the free relaxation of length 1 from M back to S).
    ``params`` is carried only by detection segments, whose path is the
    relaxation curve rather than a straight line or circular arc.
    """

    kind: str
    start: BlochState
    end: BlochState
    duration: float
    flip: float | None = None
    params: RelaxationPair | None = None

    def polyline(self, n: int = 32) -> list[list[float]]:
        """n [y, z] samples of the segment path for plotting."""
        if self.kind == "bang":
            r = self.start.r
            theta = self.start.theta
            return [
                [r * math.cos(theta - a), r * math.sin(theta - a)]
                for a in _linspace(0.0, self.flip, n)
            ]
        if self.kind == "detection":
            pts = [relax(self.start, t, self.params) for t in _linspace(0.0, self.duration, n)]
            return [[p.y, p.z] for p in pts]
        ys = _linspace(self.start.y, self.end.y, n)
        zs = _linspace(self.start.z, self.end.z, n)
        return [[y, z] for y, z in zip(ys, zs)]


class Trajectory(NamedTuple):
    """Ordered segments of one optimal cycle for a measurement point."""

    m: BlochState
    s: BlochState
    structure: ControlStructure
    segments: tuple[Segment, ...]
    t_control: float


def build_trajectory(m: BlochState, params: RelaxationPair) -> Trajectory:
    """Construct the segment list realizing the optimal structure for m.

    Bangs are recorded with their signed flip angle (positive tips +z
    toward +y) and zero duration; arc durations come from the closed-form
    travel times. A bang joins S to the first arc and the last arc to m
    (with no arc, structure B, one bang joins S to m). The last segment is
    the detection from m back to S.
    """
    k = _rates(params)
    structure, t_c = _plan(*_checked(m), k)
    s = relax(m, DETECTION_TIME, params)
    r_m, r_s, z0 = m.r, s.r, k.z0
    if structure is ControlStructure.B:
        arcs = ()
    elif structure is ControlStructure.BSvPosB:
        arcs = (("axis_arc", (0.0, r_s), (0.0, r_m), t_c),)
    elif structure is ControlStructure.BSvNegB:
        arcs = (("axis_arc", (0.0, -r_s), (0.0, -r_m), t_c),)
    elif structure is ControlStructure.BShB:
        arcs = (("magic_arc", (_plane_y(r_s, z0), z0), (_plane_y(r_m, z0), z0), t_c),)
    else:  # BShSvNegB; _plan sums the same two travel times into t_c
        y_in = _plane_y(r_s, z0)
        arcs = (
            ("magic_arc", (y_in, z0), (0.0, z0), _magic_time(y_in, 0.0, k.big_g, k.w_inf)),
            ("axis_arc", (0.0, z0), (0.0, -r_m), _axis_time(z0, -r_m, k.small_g)),
        )
    segs: list[Segment] = []
    here = s
    for kind, start, end, duration in arcs:
        start = BlochState(*start)
        if not segs:
            segs.append(_bang(s, start))
        here = BlochState(*end)
        segs.append(Segment(kind, start, here, duration))
    segs.append(_bang(here, m))
    segs.append(Segment("detection", m, s, DETECTION_TIME, params=params))
    return Trajectory(m, s, structure, tuple(segs), t_c)


def _bang(a: BlochState, b: BlochState) -> Segment:
    return Segment("bang", a, b, 0.0, flip=a.theta - b.theta)
