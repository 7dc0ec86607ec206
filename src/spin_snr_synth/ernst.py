"""The Ernst solution and the global maximization of Q.

The maximum of Q over the half-disk sits on the Ernst ellipsoid, where a
single instantaneous pulse closes the cycle (Tc = 0) and Q reduces to
y_m. Maximizing y along the ellipsoid gives the closed form

    z_m = 1/(1 + e^gamma)
    y_m = e^Gamma/(1 + e^gamma) * sqrt((e^(2*gamma) - 1)/(e^(2*Gamma) - 1))

and the flip angle of the closing pulse is the classical Ernst angle
arccos((e^-gamma + e^-Gamma)/(1 + e^-(Gamma+gamma))). The numeric
optimizers in this module rediscover that point without using the
closed form, which is how the formulas get verified; they run on
:mod:`math` alone, so ``verify`` loads no numpy.

The closed form is written twice: :func:`ernst_solution` on :mod:`math`,
because the query commands load no numpy, and :func:`ernst_q` on NumPy,
because the phase-diagram golden CSVs pin the bits of its arithmetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bloch import DETECTION_TIME, BlochState, RelaxationPair, relax
from .errors import BracketingError, DomainError
from .qsurface import _q, _rates
from .synthesis import (REGIME_DECISIONS, SynthesisRegime, _in_half_disk, _linspace, _select,
                        ellipsoid_y, regime_boundaries)

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Lattice resolution of the scan that seeds :func:`maximize_q_global`.
_COARSE_N = 64


class ErnstSolution(NamedTuple):
    """Optimal steady-state cycle: measurement point, steady state, Q, flip."""

    m: BlochState
    s: BlochState
    q: float
    flip: float


def ernst_solution(params: RelaxationPair) -> ErnstSolution:
    """Closed-form optimal point and Ernst angle for the given rates."""
    big_g = params.gamma_t2
    small_g = params.gamma_t1
    # Divided through by e^gamma and e^Gamma, so that no term overflows at large rates.
    e_g = math.exp(-small_g)
    z_m = e_g / (1.0 + e_g)
    y_m = math.sqrt(-math.expm1(-2.0 * small_g)) / (
        (1.0 + e_g) * math.sqrt(-math.expm1(-2.0 * big_g))
    )
    # The Ernst angle's arccos loses digits at a small flip; 1 - cos(flip), which is
    # 2*sin^2(flip/2), factors into two expm1 terms that keep them.
    one_minus_cos = math.expm1(-small_g) * math.expm1(-big_g) / (1.0 + math.exp(-big_g - small_g))
    flip = 2.0 * math.asin(math.sqrt(0.5 * one_minus_cos))
    m = BlochState(y_m, z_m)
    return ErnstSolution(m, relax(m, DETECTION_TIME, params), y_m, flip)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    """Abscissa of the maximum of a unimodal f on [lo, hi]."""
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = f(x1)
    return 0.5 * (lo + hi)


def maximize_on_ellipsoid(params: RelaxationPair) -> ErnstSolution:
    """Numerically maximize y along the Ernst ellipsoid.

    Golden-section on the z parameterization locates the peak; a
    finite-difference stationarity bisection then polishes it past the
    comparison noise floor of the flat top. Must coincide with
    :func:`ernst_solution` to ~1e-9 in both coordinates.
    """

    def y_of(z: float) -> float:
        y = ellipsoid_y(z, params, tol=1e-15)
        if y is None:
            raise BracketingError(f"no ellipsoid point at z={z}")
        return y

    z_star = _golden_max(y_of, 1e-9, 1.0 - 1e-9, 1e-12)

    # dy/dz changes sign across the peak; bisect it on a small bracket.
    h = 1e-5

    def slope(z: float) -> float:
        return (y_of(z + h) - y_of(z - h)) / (2.0 * h)

    lo, hi = z_star - 1e-4, z_star + 1e-4
    s_lo, s_hi = slope(lo), slope(hi)
    if s_lo > 0.0 > s_hi:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        z_star = 0.5 * (lo + hi)

    m = BlochState(y_of(z_star), z_star)
    s = relax(m, DETECTION_TIME, params)
    return ErnstSolution(m, s, m.y, s.theta - m.theta)


def _nelder_mead(f, sim: list[tuple[float, float]]) -> tuple[tuple[float, float], float]:
    """Minimize f(y, z) from the simplex ``sim`` of three (y, z) tuples; returns (argmin, min).

    Non-adaptive Nelder-Mead (Lagarias et al., SIAM J. Optim. 9, 112, 1998):
    reflection 1, expansion 2, contraction and shrink 1/2. The arithmetic of
    each move, the stable re-sort after every iteration and the joint
    xatol = 1e-12 / fatol = 1e-14 stop are scipy's, because the tests pin the
    bits of the argmax it returns.
    """

    def sort(sim, fsim):
        order = sorted(range(3), key=fsim.__getitem__)
        return [sim[i] for i in order], [fsim[i] for i in order]

    def towards(a, b, wa, wb):
        return wa * a[0] + wb * b[0], wa * a[1] + wb * b[1]

    sim, fsim = sort(sim, [f(*x) for x in sim])
    # the 60 passes at the 12 pinned rate pairs take <= ~300 iterations; three
    # starts at (50, 10), whose maximum sits at the rim, stop at 500, counted from 1
    for _ in range(1, 500):
        (y0, z0), (y1, z1), (y2, z2) = sim
        if (abs(y1 - y0) <= 1e-12 and abs(z1 - z0) <= 1e-12
                and abs(y2 - y0) <= 1e-12 and abs(z2 - z0) <= 1e-12
                and abs(fsim[0] - fsim[1]) <= 1e-14 and abs(fsim[0] - fsim[2]) <= 1e-14):
            break
        xbar = ((y0 + y1) / 2, (z0 + z1) / 2)
        xr = towards(xbar, sim[2], 2, -1)
        fxr = f(*xr)
        if fxr < fsim[0]:
            xe = towards(xbar, sim[2], 3, -2)
            fxe = f(*xe)
            sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[1]:
            sim[2], fsim[2] = xr, fxr
        else:
            if fxr < fsim[2]:  # outside contraction
                xc = towards(xbar, sim[2], 1.5, -0.5)
                fxc = f(*xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = towards(xbar, sim[2], 0.5, 0.5)
                fxc = f(*xc)
                accept = fxc < fsim[2]
            if accept:
                sim[2], fsim[2] = xc, fxc
            else:  # shrink toward the best vertex
                for j in (1, 2):
                    sim[j] = (y0 + 0.5 * (sim[j][0] - y0), z0 + 0.5 * (sim[j][1] - z0))
                    fsim[j] = f(*sim[j])
        sim, fsim = sort(sim, fsim)
    return sim[0], fsim[0]


def maximize_q_global(params: RelaxationPair) -> tuple[BlochState, float]:
    """Global maximum of Q over the open half-disk.

    Q at the y > 0 points of a ``_COARSE_N``-squared lattice picks the five
    best cells, and one Nelder-Mead pass from each, on a simplex with legs
    of 2/``_COARSE_N``, refines them. Nelder-Mead needs no gradient, and Q
    is continuous but not smooth on the ridge where the maximum sits.
    """
    k = _rates(params)

    def neg_q(y: float, z: float) -> float:
        return -_q(y, z, k)[2] if _in_half_disk(y, z) else math.inf

    cells = [(y, z) for y in _linspace(0.0, 1.0, _COARSE_N) if y > 0.0
             for z in _linspace(-1.0, 1.0, _COARSE_N) if _in_half_disk(y, z)]
    q = [_q(y, z, k)[2] for y, z in cells]
    h = 2.0 / _COARSE_N
    best_x = None
    best_val = math.inf
    for i in sorted(range(len(q)), key=q.__getitem__)[-5:]:
        y, z = cells[i]
        x, val = _nelder_mead(neg_q, [(y, z), (y + h, z), (y, z + h)])
        if val < best_val:
            best_x, best_val = x, val
    return BlochState(*best_x), -best_val


class QMaxSurface(NamedTuple):
    """Ernst-solution Q over a (gamma, Gamma) lattice.

    ``q`` and ``regimes`` are indexed [i_gamma, i_Gamma]; unphysical
    cells (2*Gamma < gamma) carry q = nan and physical = False.
    ``gamma_ab``/``gamma_bc`` are the two regime-transition curves and
    ``gamma_phys`` the physicality line Gamma = gamma/2, all sampled on
    the gamma axis.
    """

    gamma: np.ndarray
    big_gamma: np.ndarray
    q: np.ndarray
    regimes: np.ndarray
    physical: np.ndarray
    gamma_ab: np.ndarray
    gamma_bc: np.ndarray
    gamma_phys: np.ndarray


def ernst_q(big_g: np.ndarray, small_g: np.ndarray) -> np.ndarray:
    """Vectorized closed-form optimal Q (the y coordinate of the Ernst point).

    gamma is clamped at 350, below the overflow of expm1(2*gamma) at ~355;
    the quotient has reached 1/sqrt(1 - e^(-2*Gamma)) long before.
    """
    import numpy as np

    small_g = np.minimum(small_g, 350.0)
    return np.sqrt(np.expm1(2.0 * small_g)) / (
        (1.0 + np.exp(small_g)) * np.sqrt(-np.expm1(-2.0 * big_g))
    )


def q_max_surface(
    gamma_range: tuple[float, float],
    big_gamma_range: tuple[float, float],
    n: tuple[int, int],
) -> QMaxSurface:
    """Evaluate the optimal Q over a rate lattice with regime annotations."""
    import numpy as np

    (g_lo, g_hi), (bg_lo, bg_hi) = gamma_range, big_gamma_range
    n_g, n_bg = n
    if g_lo <= 0.0 or bg_lo <= 0.0 or g_hi <= g_lo or bg_hi <= bg_lo:
        raise DomainError("rate ranges must be positive and increasing")
    if n_g < 2 or n_bg < 2:
        raise DomainError(f"lattice resolution must be >= 2, got {n}")

    gamma = np.linspace(g_lo, g_hi, n_g)
    big_gamma = np.linspace(bg_lo, bg_hi, n_bg)
    gg, bb = np.meshgrid(gamma, big_gamma, indexing="ij")
    physical = 2.0 * bb >= gg
    q = ernst_q(bb, gg)
    q[~physical] = np.nan

    ab, bc = np.array([regime_boundaries(g) for g in gamma]).T
    labels = {reg: reg.value for reg in SynthesisRegime}
    regimes = _select(REGIME_DECISIONS, labels, bb, ab[:, None], bc[:, None])
    return QMaxSurface(gamma, big_gamma, q, regimes, physical, ab, bc, 0.5 * gamma)
