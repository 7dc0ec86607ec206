"""Steady-state synthesis: which pulse structure is optimal for each M point.

Because the control amplitude is unbounded, rotations cost no time and the
problem reduces to transferring the radius from r_s = |relax(M, 1)| to
r_m = |M|. Radius growth is fastest on the upper z-axis, shrinkage on the
horizontal "magic" plane z = z0 = -gamma/(2*(Gamma-gamma)) when it meets
the unit ball, and otherwise on the lower z-axis. Five pulse structures
result; this module classifies M points, computes the geometric boundary
curves between the structure regions, and partitions the rate plane into
the three qualitative synthesis regimes.

Each decision is one ordered list of (choice, test) pairs, whose tests act
alike on floats and on NumPy arrays: the scalar path reads it with
:func:`_first_match`, the array path with :func:`_select`.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .bloch import DETECTION_TIME, BlochState, RelaxationPair, relax
from .errors import DomainError

#: Tie tolerance on |r_s - r_m| and the magic-radius comparisons.
CLASSIFY_TOL = 1e-10


class ControlStructure(enum.Enum):
    """The five optimal pulse-sequence shapes.

    B is an instantaneous rotation (bang); Sh a feedback arc along the
    magic plane; SvPos / SvNeg free arcs on the upper / lower z-axis.
    """

    B = "B"
    BSvPosB = "BSvPosB"
    BSvNegB = "BSvNegB"
    BShB = "BShB"
    BShSvNegB = "BShSvNegB"


class SynthesisRegime(enum.Enum):
    """Qualitative layout of the synthesis in the (gamma, Gamma) plane."""

    A = "A"
    B = "B"
    C = "C"


class MagicPlane(NamedTuple):
    """Horizontal plane of fastest radial shrinkage, z = z0.

    ``present`` is True only when the plane intersects the open unit
    ball, i.e. Gamma > 3*gamma/2. For Gamma <= gamma the defining
    formula has no meaning and z0 is None.
    """

    z0: float | None
    present: bool

    @property
    def radius(self) -> float:
        """|z0| when the plane meets the ball, else inf, which no radius reaches."""
        return abs(self.z0) if self.present else math.inf


def magic_plane(params: RelaxationPair) -> MagicPlane:
    big_g = params.gamma_t2
    small_g = params.gamma_t1
    if big_g <= small_g:
        return MagicPlane(None, False)
    z0 = -small_g / (2.0 * (big_g - small_g))
    return MagicPlane(z0, big_g > 1.5 * small_g)


def ernst_ellipsoid_residual(m: BlochState, params: RelaxationPair) -> float:
    """r_s^2 - r_m^2 where S = relax(M, 1); zero exactly on the Ernst ellipsoid.

    The Ernst ellipsoid is the locus of M points whose detection-relaxed
    image keeps the same radius, i.e. the steady states reachable with a
    single instantaneous pulse.
    """
    ys = m.y * math.exp(-params.gamma_t2 * DETECTION_TIME)
    zs = 1.0 + (m.z - 1.0) * math.exp(-params.gamma_t1 * DETECTION_TIME)
    return ys * ys + zs * zs - m.y * m.y - m.z * m.z


def _first_match(decisions, *args):
    """The first choice in ``decisions`` whose test holds for the scalar ``args``."""
    for choice, test in decisions:
        if test(*args):
            return choice


def _select(decisions, labels, *args):
    """:func:`_first_match` elementwise over NumPy ``args``, as ``labels[choice]``."""
    import numpy as np

    choices = [labels[choice] for choice, _ in decisions]
    # the last test always holds; the default only keeps the labels' dtype
    return np.select([test(*args) for _, test in decisions], choices, choices[-1])


#: The structure decision: the first structure whose test holds for the radii
#: (r_m, r_s, za) is optimal, with za = :attr:`MagicPlane.radius`. Ties resolve to
#: the structure whose extra segment degenerates to zero length, so the control
#: time is continuous across the tie.
STRUCTURE_DECISIONS = (
    (ControlStructure.B, lambda r_m, r_s, za: abs(r_s - r_m) <= CLASSIFY_TOL),
    (ControlStructure.BSvPosB, lambda r_m, r_s, za: r_s < r_m),
    (ControlStructure.BShSvNegB, lambda r_m, r_s, za: (r_s > za) & (za > r_m)),
    (ControlStructure.BShB, lambda r_m, r_s, za: r_m >= za),
    (ControlStructure.BSvNegB, lambda r_m, r_s, za: True),
)


def _in_half_disk(y: float, z: float) -> bool:
    """Whether (y, z) is a measurement point: y >= 0 and r_m = hypot(y, z) < 1."""
    return y >= 0.0 and math.hypot(y, z) < 1.0


def _checked_relax(m: BlochState, params: RelaxationPair) -> tuple[float, BlochState]:
    """(r_m, S) for a measurement point m in the open half-disk, else DomainError."""
    if not _in_half_disk(m.y, m.z):
        raise DomainError(f"measurement point ({m.y}, {m.z}) is outside the half-disk y >= 0, |m| < 1")
    return m.r, relax(m, DETECTION_TIME, params)


def classify(m: BlochState, params: RelaxationPair) -> ControlStructure:
    """Optimal control structure for the measurement point m.

    m must lie in the open half-disk (y >= 0, r < 1).
    """
    r_m, s = _checked_relax(m, params)
    return _first_match(STRUCTURE_DECISIONS, r_m, s.r, magic_plane(params).radius)


def regime_boundaries(gamma: float) -> tuple[float, float]:
    """Threshold rates (Gamma_ab, Gamma_bc) at a given gamma.

    Gamma_bc = 3*gamma/2 is where the magic plane enters the ball;
    Gamma_ab = (gamma/2)*(1-3*e^gamma)/(1-e^gamma) is where the curve
    r_s = |z0| detaches from the Ernst ellipsoid. Gamma_ab >= Gamma_bc
    for every gamma, so the two lines never cross.
    """
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    # (1-3e^g)/(1-e^g) = 3 + 2/(e^g - 1), stable for small gamma via expm1;
    # past g = 700 the term is below 1e-303, and expm1 would overflow at ~710.
    gamma_ab = 0.5 * gamma * (3.0 + 2.0 / math.expm1(min(gamma, 700.0)))
    return gamma_ab, 1.5 * gamma


#: The regime decision: the first regime whose test holds for
#: (Gamma, Gamma_ab, Gamma_bc) is the layout of the synthesis.
REGIME_DECISIONS = (
    (SynthesisRegime.C, lambda big_g, gamma_ab, gamma_bc: big_g <= gamma_bc),
    (SynthesisRegime.A, lambda big_g, gamma_ab, gamma_bc: big_g >= gamma_ab),
    (SynthesisRegime.B, lambda big_g, gamma_ab, gamma_bc: True),
)


def regime(params: RelaxationPair) -> SynthesisRegime:
    """Which of the three synthesis layouts the rate pair produces."""
    return _first_match(REGIME_DECISIONS, params.gamma_t2, *regime_boundaries(params.gamma_t1))


def ellipsoid_y(z: float, params: RelaxationPair, tol: float = 1e-12) -> float | None:
    """Nonnegative y with (y, z) on the Ernst ellipsoid, or None if there is none.

    Solved by bisection in y at fixed z (bracketed on [0, chord]); the
    residual is strictly decreasing in y^2 so the root is unique.
    """
    if abs(z) > 1.0:
        return None
    e1 = math.exp(-params.gamma_t1 * DETECTION_TIME)
    axis_val = (1.0 + (z - 1.0) * e1) ** 2 - z * z  # residual at y = 0
    if axis_val < 0.0:
        return None
    if axis_val == 0.0:
        return 0.0
    y_hi = math.sqrt(max(0.0, 1.0 - z * z))
    if y_hi == 0.0:
        return None

    def f(y: float) -> float:
        return ernst_ellipsoid_residual(BlochState(y, z), params)

    if f(y_hi) > 0.0:
        # Ellipsoid exits the disk on this chord (only for unphysical rates).
        return None
    lo, hi = 0.0, y_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class BoundaryCurves(NamedTuple):
    """Sampled boundary curves between structure regions, in M-space.

    Arrays have shape (k, 2) with columns (y, z). ``magic_radius_circle``
    (r_m = |z0|) and ``magic_radius_preimage`` (r_s = |z0|) are empty when
    the magic plane does not meet the ball.
    """

    ernst_ellipsoid: np.ndarray
    magic_radius_circle: np.ndarray
    magic_radius_preimage: np.ndarray


def _ellipsoid_z_bottom(params: RelaxationPair) -> float:
    # Lower crossing of the ellipsoid with the z-axis: z = -tanh(gamma/2).
    return -math.tanh(0.5 * params.gamma_t1 * DETECTION_TIME)


def boundary_curves(params: RelaxationPair, n: int) -> BoundaryCurves:
    """Sample the three boundary curves with about n points each."""
    import numpy as np

    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    big_g = params.gamma_t2
    small_g = params.gamma_t1

    z_vals = np.linspace(_ellipsoid_z_bottom(params), 1.0, n)
    pts = []
    for z in z_vals:
        y = ellipsoid_y(float(z), params)
        if y is not None:
            pts.append((y, float(z)))
    ellipsoid = np.array(pts, dtype=float).reshape(-1, 2)

    plane = magic_plane(params)
    if not plane.present:
        empty = np.empty((0, 2), dtype=float)
        return BoundaryCurves(ellipsoid, empty, empty.copy())

    za = plane.radius
    phi = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n)
    circle = np.column_stack((za * np.cos(phi), za * np.sin(phi)))

    preimage = _sample_preimage_curve(za, big_g, small_g, n)
    return BoundaryCurves(ellipsoid, circle, preimage)


def _preimage_point(phi: float, za: float, big_g: float, small_g: float) -> tuple[float, float]:
    # Backward free relaxation of the circle point (za*cos(phi), za*sin(phi)).
    y = za * math.cos(phi) * math.exp(big_g * DETECTION_TIME)
    z = 1.0 + (za * math.sin(phi) - 1.0) * math.exp(small_g * DETECTION_TIME)
    return y, z


def _sample_preimage_curve(za: float, big_g: float, small_g: float, n: int) -> np.ndarray:
    """M points with |relax(M, 1)| = za, restricted to the closed unit disk.

    The squared preimage radius is concave in sin(phi), so the inside set
    is at most two arcs of the phi interval; each boundary is refined by
    bisection before uniform resampling.
    """
    import numpy as np

    def excess(phi: float) -> float:
        try:
            y, z = _preimage_point(phi, za, big_g, small_g)
        except OverflowError:  # e^Gamma or e^gamma beyond float range: far outside the disk
            return math.inf
        return y * y + z * z - 1.0

    n_scan = max(4 * n, 512)
    phis = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_scan)
    vals = np.array([excess(p) for p in phis])
    inside = vals <= 0.0
    if not inside.any():
        return np.empty((0, 2), dtype=float)

    def refine(lo: float, hi: float) -> float:
        # excess changes sign on [lo, hi]
        f_lo = excess(lo)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (excess(mid) > 0.0) == (f_lo > 0.0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    intervals = []
    start = None
    for i in range(n_scan):
        if inside[i] and start is None:
            start = phis[i] if i == 0 else refine(phis[i - 1], phis[i])
        elif not inside[i] and start is not None:
            intervals.append((start, refine(phis[i - 1], phis[i])))
            start = None
    if start is not None:
        intervals.append((start, phis[-1]))

    total = sum(b - a for a, b in intervals)
    pts = []
    for a, b in intervals:
        k = max(2, int(round(n * (b - a) / total)))
        for phi in np.linspace(a, b, k):
            y, z = _preimage_point(float(phi), za, big_g, small_g)
            pts.append((y, z))
    arr = np.array(pts, dtype=float).reshape(-1, 2)
    # Clip roundoff overshoot at the refined entry points.
    radii = np.hypot(arr[:, 0], arr[:, 1])
    bad = radii > 1.0
    if bad.any():
        arr[bad] *= (1.0 / radii[bad])[:, None]
    return arr
