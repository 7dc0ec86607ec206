"""Independent numerical verification of the closed forms.

Nothing in this module trusts the analytic travel times or the Ernst
formulas: steady states are found by iterating the physical cycle map,
optimal flips by brute-force sweeps, and control durations by running the
actual control fields until the state reaches its planned target. Nothing
is integrated. Every constant field (a finite-amplitude bang, u = 0 on the
free axis arcs) makes the Bloch equation affine and is propagated by its
exact 2x2 flow, and the 1/y feedback on the magic plane makes z and
w = y^2 linear and is propagated by their exact flow. Each arc's stop is
found by bisecting time on its flow, never by inverting a travel-time
formula. The closed-form layer is accepted only because these checks
reproduce it.

The module runs on :mod:`math` alone. Its random inputs come from
:class:`random.Random` (seed, and seed + 1 for the Q-surface points), each
uniform drawn as a + (b - a)*U, so a seed names the same draws everywhere.

The ``rk4_`` names predate the exact flows. They stay because the verify
check names (``axis-time-vs-rk4``, ``magic-time-vs-rk4``) and the
benchmark's span and counter names are built from them.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .bloch import (
    DETECTION_TIME,
    EQUILIBRIUM,
    BlochState,
    RelaxationPair,
    relax,
    rotate,
)
from .ernst import _golden_max, ernst_solution, maximize_on_ellipsoid, maximize_q_global
from .errors import BracketingError, ConvergenceError, DomainError
from .qsurface import _q, _rates, build_trajectory, control_time, q_value, time_magic, time_vertical
from .synthesis import _boundary_points, _in_half_disk, _linspace, magic_plane

#: Residual at which the iterated cycle map counts as converged, and the
#: iteration cap (the map contracts geometrically, so the cap only guards).
_CYCLE_TOL = 1e-14
_CYCLE_MAX_ITER = 10_000

#: Points per boundary curve at which Q continuity is probed, and the probe
#: distance to either side of the curve.
_JUMP_POINTS = 200
_JUMP_OFFSET = 1e-6


class CycleFixedPoint(NamedTuple):
    """Steady state of the pulse-then-detect cycle map."""

    s: BlochState
    m: BlochState
    iterations: int
    residual: float


def _bang_flow(
    y: float, z: float, u: float, t: float, params: RelaxationPair
) -> tuple[float, float]:
    """Exact state after time t under the constant field u; returns (y, z).

    For constant u the Bloch equation x' = A x + b is affine, with
    A = [[-Gamma, -u], [u, -gamma]], so x(t) = x* + e^(At) (x0 - x*) with the
    fixed point x* = (-u*gamma, Gamma*gamma)/(Gamma*gamma + u^2). Writing
    A = -sigma*I + N with sigma = (Gamma + gamma)/2 and delta = (Gamma - gamma)/2
    gives N^2 = (delta^2 - u^2) I, so e^(Nt) is a cosh, cos or linear form in
    that discriminant's sign (Moler & Van Loan, SIAM Rev. 45, 3, 2003). The
    cosh form carries e^(-wt) over into the decay, which stays finite because
    w < sigma, so long free arcs do not overflow.
    """
    big_g, small_g = params.gamma_t2, params.gamma_t1
    den = big_g * small_g + u * u
    ys, zs = -u * small_g / den, big_g * small_g / den
    dy, dz = y - ys, z - zs
    sigma = 0.5 * (big_g + small_g)
    delta = 0.5 * (big_g - small_g)
    disc = delta * delta - u * u
    if disc > 0.0:
        w = math.sqrt(disc)
        m = -math.expm1(-2.0 * w * t)  # cosh(wt) = e^(wt)*(1 - m/2), sinh(wt) = e^(wt)*m/2
        c, s, decay = 1.0 - 0.5 * m, 0.5 * m / w, math.exp((w - sigma) * t)
    elif disc < 0.0:
        w = math.sqrt(-disc)
        c, s, decay = math.cos(w * t), math.sin(w * t) / w, math.exp(-sigma * t)
    else:
        c, s, decay = 1.0, t, math.exp(-sigma * t)
    return (
        ys + decay * ((c - s * delta) * dy - s * u * dz),
        zs + decay * (s * u * dy + (c + s * delta) * dz),
    )


def _feedback_flow(
    y: float, z: float, t: float, params: RelaxationPair
) -> tuple[float, float]:
    """Exact state after time t under the magic-plane feedback u = -c/y; returns (y, z).

    With c = gamma*(1 - z0) the feedback holds the plane z = z0: the Bloch
    equation gives z' = gamma*(z0 - z) and (y^2)' = -2*Gamma*y^2 + 2*c*z, both
    linear, so z(t) = z0 + (z_a - z0)e^(-gamma*t) and w = y^2 is

        w(t) = w_a*e^(-2*Gamma*t) + (c*z0/Gamma)(1 - e^(-2*Gamma*t))
               + 2c(z_a - z0)(e^(-gamma*t) - e^(-2*Gamma*t))/(2*Gamma - gamma)

    from any start (y_a, z_a) with y_a > 0, on the plane or off it. The plane
    exists only for Gamma > 1.5*gamma, so 2*Gamma - gamma > 0. c*z0 < 0, so w
    falls through 0 in finite time; y is 0 from there on, where the arc ends.
    """
    plane = magic_plane(params)
    if not plane.present:
        raise DomainError("magic feedback undefined: plane outside the unit ball")
    big_g, small_g = params.gamma_t2, params.gamma_t1
    z0 = plane.z0
    c = small_g * (1.0 - z0)
    e_small = math.exp(-small_g * t)
    # e^(-gamma*t) - e^(-2*Gamma*t) = -e^(-gamma*t)*expm1(-(2*Gamma - gamma)*t)
    w = (y * y * math.exp(-2.0 * big_g * t) - c * z0 / big_g * math.expm1(-2.0 * big_g * t)
         - 2.0 * c * (z - z0) * e_small * math.expm1(-(2.0 * big_g - small_g) * t)
         / (2.0 * big_g - small_g))
    return math.sqrt(max(w, 0.0)), z0 + (z - z0) * e_small


def _first_time(reached) -> float:
    """The first float t > 0 at which ``reached(t)`` holds, once it holds for good.

    The crossing is bracketed by doubling t from 1 and located by bisecting t
    to float resolution, with no travel time assumed.
    """
    lo, hi = 0.0, 1.0
    while not reached(hi):
        lo, hi = hi, 2.0 * hi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if reached(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def _axis_arc(
    y: float, z: float, z_end: float, params: RelaxationPair
) -> tuple[float, float, float]:
    """Free (u = 0) travel from (y, z) until z reaches z_end; returns (t, y, z).

    The field is constant, so the state at any t is the exact flow
    (:func:`_bang_flow`); t is the first float at which its z reaches z_end.
    """
    if z >= z_end:
        return 0.0, y, z
    if z_end >= 1.0:
        raise BracketingError(f"free evolution relaxes z toward 1 and never reaches {z_end}")
    t = _first_time(lambda t: _bang_flow(y, z, 0.0, t, params)[1] >= z_end)
    return (t, *_bang_flow(y, z, 0.0, t, params))


def _magic_arc(
    y: float, z: float, y_end: float, params: RelaxationPair
) -> tuple[float, float, float]:
    """Feedback travel on the magic plane from (y, z) down to y_end; returns (t, y, z).

    The state at any t is the exact flow (:func:`_feedback_flow`); t is the
    first float at which its y reaches y_end.
    """
    if y <= y_end:
        return 0.0, y, z
    t = _first_time(lambda t: _feedback_flow(y, z, t, params)[0] <= y_end)
    return (t, *_feedback_flow(y, z, t, params))


def cycle_fixed_point(flip: float, params: RelaxationPair) -> CycleFixedPoint:
    """Steady state of S -> relax(rotate(S, flip), 1), from equilibrium.

    The cycle map composes a rotation with the strictly contracting detection
    relaxation, so iteration converges geometrically to ``_CYCLE_TOL``.
    """
    s = EQUILIBRIUM
    for i in range(1, _CYCLE_MAX_ITER + 1):
        m = rotate(s, flip)
        s_next = relax(m, DETECTION_TIME, params)
        residual = math.hypot(s_next.y - s.y, s_next.z - s.z)
        s = s_next
        if residual <= _CYCLE_TOL:
            return CycleFixedPoint(s, m, i, residual)
    raise ConvergenceError(
        f"cycle map did not reach tol={_CYCLE_TOL} in {_CYCLE_MAX_ITER} iterations "
        f"(last residual {residual})",
        residual=residual,
    )


def delta_pulse_fixed_point(flip: float, params: RelaxationPair) -> tuple[float, float, float]:
    """Directly solved steady state (S_y, S_z) and signal y_m of the delta-pulse cycle.

    The cycle map is affine, S -> D*R(flip)*S + d with D the detection decay
    and d the recovery offset, so its fixed point is a 2x2 solve. y_m is Q,
    since a delta pulse costs no time.
    """
    e2 = math.exp(-params.gamma_t2 * DETECTION_TIME)
    e1 = math.exp(-params.gamma_t1 * DETECTION_TIME)
    c = math.cos(flip)
    s = math.sin(flip)
    det = (1.0 - e2 * c) * (1.0 - e1 * c) + e1 * e2 * s * s
    sz = (1.0 - e1) * (1.0 - e2 * c) / det
    sy = e2 * s * sz / (1.0 - e2 * c)
    return sy, sz, c * sy + s * sz


class SweepResult(NamedTuple):
    best_flip: float
    best_q: float


def sweep_delta_pulse(params: RelaxationPair) -> SweepResult:
    """Brute-force rediscovery of the optimal flip angle.

    Evaluates the steady-state signal on a 2000-point grid of flip angles
    in (0, pi), then refines the cell around the first best point by golden
    section.
    """
    flips = _linspace(0.0, math.pi, 2002)[1:-1]

    def q_of(flip: float) -> float:
        return delta_pulse_fixed_point(flip, params)[2]

    q = [q_of(flip) for flip in flips]
    i = q.index(max(q))
    lo = flips[i - 1] if i > 0 else 0.0
    hi = flips[i + 1] if i < len(flips) - 1 else math.pi
    best = _golden_max(q_of, lo, hi, 1e-12)
    return SweepResult(best, q_of(best))


def simulate_structure(
    m: BlochState,
    params: RelaxationPair,
    bang_amplitude: float,
) -> tuple[float, float]:
    """Realize the optimal trajectory for m with finite-amplitude bangs.

    Bangs become constant pulses of magnitude ``bang_amplitude``, each
    propagated by its exact flow (:func:`_bang_flow`) for the time that
    rotates by the planned angle at that amplitude. The free axis arcs
    (u = 0) run on the same exact flow until z reaches its planned target,
    and the magic arcs run on the exact flow of the 1/y feedback until y
    reaches theirs, exactly as :func:`rk4_time_vertical` and
    :func:`rk4_time_magic` do. Nothing is integrated, and only the planned
    geometry is used, never a planned duration. Returns the realized control
    duration and the distance from the achieved endpoint to m. Both converge
    as O(1/amplitude), the only error of the simulation beyond rounding.
    """
    if bang_amplitude <= 0.0:
        raise DomainError(f"bang_amplitude must be positive, got {bang_amplitude}")
    traj = build_trajectory(m, params)
    y, z = traj.s.y, traj.s.z
    t_ctrl = 0.0
    for seg in traj.segments[:-1]:  # all but the detection leg
        if seg.kind == "bang":
            phi = math.atan2(z, y) - seg.end.theta
            if phi == 0.0:
                continue
            t = abs(phi) / bang_amplitude
            y, z = _bang_flow(y, z, -math.copysign(bang_amplitude, phi), t, params)
        elif seg.kind == "axis_arc":
            t, y, z = _axis_arc(y, z, seg.end.z, params)
        else:  # magic_arc
            t, y, z = _magic_arc(y, z, seg.end.y, params)
        t_ctrl += t
    return t_ctrl, math.hypot(y - m.y, z - m.z)


def rk4_time_vertical(z1: float, z2: float, params: RelaxationPair) -> float:
    """Measured axis travel time: the exact free flow, bisected in time to z2."""
    if not (math.isfinite(z1) and z1 <= z2 < 1.0):
        raise DomainError(f"need finite z1 <= z2 < 1, got ({z1}, {z2})")
    return _axis_arc(0.0, z1, z2, params)[0]


def rk4_time_magic(y1: float, y2: float, params: RelaxationPair) -> float:
    """Measured magic-plane travel time: the exact feedback flow, bisected in time to y2."""
    plane = magic_plane(params)
    if not plane.present:
        raise DomainError("magic plane does not intersect the unit ball for these rates")
    if not (math.isfinite(y1) and y1 >= y2 >= 0.0):
        raise DomainError(f"need finite y1 >= y2 >= 0, got ({y1}, {y2})")
    return _magic_arc(y1, plane.z0, y2, params)[0]


def sample_measurement_points(rng: random.Random, n: int) -> list[BlochState]:
    """n points drawn uniformly (by area) from the half-disk of radius 0.999, radii first."""
    r = [0.999 * math.sqrt(rng.random()) for _ in range(n)]
    phi = [rng.uniform(-0.5 * math.pi, 0.5 * math.pi) for _ in range(n)]
    return [BlochState(ri * math.cos(p), ri * math.sin(p)) for ri, p in zip(r, phi)]


def verify_q_surface(
    params: RelaxationPair,
    n_samples: int,
    bang_amplitude: float,
    seed: int = 0,
) -> float:
    """Worst |Q_analytic - Q_simulated| over random M points."""
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    worst = 0.0
    for m in sample_measurement_points(random.Random(seed), n_samples):
        t_sim, _ = simulate_structure(m, params, bang_amplitude)
        q_sim = m.y / math.sqrt(1.0 + t_sim)
        q_ana = q_value(m, params).q
        worst = max(worst, abs(q_ana - q_sim))
    return worst


class VerificationCheck(NamedTuple):
    name: str
    tolerance: float
    measured: float
    passed: bool


class VerificationReport(NamedTuple):
    """The checks of one rate pair, with the inputs that produced them."""

    params: RelaxationPair
    seed: int
    n_transfers: int
    n_structure: int
    n_qsurface: int
    bang_amplitude: float
    checks: tuple[VerificationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "params": {"Gamma": self.params.gamma_t2, "gamma": self.params.gamma_t1},
            "seed": self.seed,
            "n_transfers": self.n_transfers,
            "n_structure": self.n_structure,
            "n_qsurface": self.n_qsurface,
            "bang_amplitude": self.bang_amplitude,
            "passed": self.passed,
            "checks": [c._asdict() for c in self.checks],
        }


def run_verification(
    params: RelaxationPair,
    seed: int = 12345,
    n_transfers: int = 100,
    n_structure: int = 200,
    n_qsurface: int = 200,
    bang_amplitude: float = 1e6,
) -> VerificationReport:
    """Full oracle suite against the closed-form layer for one rate pair.

    Inputs are checked before any check runs; a count of 0 would pass unmeasured.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    for name, count in (("n_transfers", n_transfers), ("n_structure", n_structure),
                        ("n_qsurface", n_qsurface)):
        if count < 1:
            raise DomainError(f"{name} must be >= 1, got {count}")
    if not 0.0 < bang_amplitude < math.inf:
        raise DomainError(f"bang_amplitude must be positive and finite, got {bang_amplitude}")
    rng = random.Random(seed)
    checks: list[VerificationCheck] = []

    def add(name: str, tolerance: float, measured: float) -> None:
        measured = float(measured)
        checks.append(VerificationCheck(name, tolerance, measured, measured <= tolerance))

    sol = ernst_solution(params)
    closure = rotate(sol.s, sol.flip)
    add(
        "ernst-cycle-closure",
        1e-12,
        math.hypot(closure.y - sol.m.y, closure.z - sol.m.z),
    )
    add("ernst-radius-balance", 1e-12, abs(sol.s.r - sol.m.r))
    peak = maximize_on_ellipsoid(params).m
    add("ellipsoid-max-vs-closed-form", 1e-9, math.hypot(peak.y - sol.m.y, peak.z - sol.m.z))

    fp = cycle_fixed_point(sol.flip, params)
    add(
        "cycle-iteration-matches-closed-form",
        1e-9,
        math.hypot(fp.m.y - sol.m.y, fp.m.z - sol.m.z),
    )
    worst_affine = 0.0
    for _ in range(8):
        flip = rng.uniform(0.1, math.pi - 0.1)
        sy, sz, _ = delta_pulse_fixed_point(flip, params)
        s_iter = cycle_fixed_point(flip, params).s
        worst_affine = max(worst_affine, math.hypot(sy - s_iter.y, sz - s_iter.z))
    add("affine-vs-iterated-fixed-point", 1e-12, worst_affine)

    sweep = sweep_delta_pulse(params)
    add("sweep-flip-vs-closed-form", 1e-6, abs(sweep.best_flip - sol.flip))
    add("sweep-q-vs-closed-form", 1e-8, abs(sweep.best_q - sol.q))

    worst_axis = 0.0
    for _ in range(n_transfers):
        z1 = rng.uniform(-0.95, 0.9)
        z2 = rng.uniform(z1, 0.95)
        analytic = time_vertical(z1, z2, params)
        worst_axis = max(worst_axis, abs(rk4_time_vertical(z1, z2, params) - analytic))
    add("axis-time-vs-rk4", 1e-6, worst_axis)

    plane = magic_plane(params)
    if plane.present:
        worst_magic = 0.0
        y_max = math.sqrt(max(0.0, 1.0 - plane.z0 * plane.z0)) * 0.98
        for _ in range(n_transfers):
            # the plane barely enters the ball just above Gamma = 1.5*gamma, where y_max < 0.05
            y1 = rng.uniform(min(0.05, 0.5 * y_max), y_max)
            y2 = rng.uniform(0.0, y1)
            worst_magic = max(
                worst_magic,
                abs(rk4_time_magic(y1, y2, params) - time_magic(y1, y2, params)),
            )
        add("magic-time-vs-rk4", 1e-6, worst_magic)

    worst_t = 0.0
    worst_term = 0.0
    for m in sample_measurement_points(rng, n_structure):
        _, t_closed = control_time(m, params)
        t_sim, term = simulate_structure(m, params, bang_amplitude)
        worst_t = max(worst_t, abs(t_sim - t_closed))
        worst_term = max(worst_term, term)
    add("structure-time-vs-simulation", 1e-3, worst_t)
    add("structure-terminal-error", 1e-3, worst_term)

    add(
        "qsurface-vs-simulation",
        1e-3,
        verify_q_surface(params, n_qsurface, bang_amplitude, seed=seed + 1),
    )

    add("q-continuity-across-boundaries", 1e-4, boundary_q_jump(params))

    arg, q_best = maximize_q_global(params)
    add(
        "global-max-at-ernst-point",
        1e-6,
        math.hypot(arg.y - sol.m.y, arg.z - sol.m.z),
    )
    add("global-max-q-vs-closed-form", 1e-8, abs(q_best - sol.q))

    return VerificationReport(params, seed, n_transfers, n_structure, n_qsurface, bang_amplitude,
                              tuple(checks))


def boundary_q_jump(params: RelaxationPair) -> float:
    """Largest |Q(+) - Q(-)| across the boundary curves, ``_JUMP_OFFSET`` along the normal."""
    curves = _boundary_points(params, _JUMP_POINTS + 2)
    e2 = math.exp(-2.0 * params.gamma_t2 * DETECTION_TIME)
    e1 = math.exp(-params.gamma_t1 * DETECTION_TIME)
    k = _rates(params)
    worst = 0.0

    def probe(y: float, z: float, ny: float, nz: float) -> float:
        norm = math.hypot(ny, nz)
        if norm == 0.0:
            return 0.0
        ny, nz = ny / norm, nz / norm
        pts = []
        for sign in (1.0, -1.0):
            yy = y + sign * _JUMP_OFFSET * ny
            zz = z + sign * _JUMP_OFFSET * nz
            if not _in_half_disk(yy, zz):
                return 0.0
            pts.append(_q(yy, zz, k)[2])
        return abs(pts[0] - pts[1])

    for y, z in curves.ernst_ellipsoid:
        if y < 10.0 * _JUMP_OFFSET:
            continue
        # gradient of r_s^2 - r_m^2
        zs = 1.0 + (z - 1.0) * e1
        worst = max(worst, probe(y, z, 2.0 * y * (e2 - 1.0), 2.0 * (zs * e1 - z)))
    for y, z in curves.magic_radius_circle:
        if y < 10.0 * _JUMP_OFFSET:
            continue
        worst = max(worst, probe(y, z, y, z))
    for y, z in curves.magic_radius_preimage:
        if y < 10.0 * _JUMP_OFFSET or y * y + z * z > (1.0 - 10.0 * _JUMP_OFFSET) ** 2:
            continue
        zs = 1.0 + (z - 1.0) * e1
        worst = max(worst, probe(y, z, 2.0 * y * e2, 2.0 * zs * e1))
    return worst
