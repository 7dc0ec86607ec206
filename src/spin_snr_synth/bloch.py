"""Normalized spin-1/2 Bloch dynamics restricted to the (y, z) plane.

Time is measured in units of the detection duration, so one detection
period always lasts 1. The only physical parameters are the two
dimensionless relaxation rates

    Gamma = 2*pi*Td/T2   (transverse decay of y)
    gamma = 2*pi*Td/T1   (longitudinal recovery of z toward 1)

and the controlled equation of motion is

    dy/dt = -Gamma*y - u*z
    dz/dt = gamma*(1 - z) + u*y

with a single on-resonance control field u(t). All operations here are
pure functions of value types; nothing keeps state between calls.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, PhysicalityError

#: Numerical slack for unit-ball membership checks.
EPS_BALL = 1e-12

#: Detection window in normalized time. Fixed by the normalization, not a knob.
DETECTION_TIME = 1.0


class _RelaxationPairFields(NamedTuple):
    gamma_t2: float  # Gamma = 2*pi*Td/T2
    gamma_t1: float  # gamma = 2*pi*Td/T1


class RelaxationPair(_RelaxationPairFields):
    """Dimensionless relaxation rates (Gamma, gamma).

    Physical admissibility requires T2 <= 2*T1, i.e. 2*Gamma >= gamma.
    Construction rejects inadmissible pairs: with 2*Gamma < gamma, radii
    near 1 no longer grow fastest on the upper z-axis, so the synthesis
    does not hold there.
    """

    __slots__ = ()

    def __new__(cls, gamma_t2: float, gamma_t1: float):
        if not (gamma_t2 > 0.0 and math.isfinite(gamma_t2)):
            raise DomainError(f"Gamma must be positive and finite, got {gamma_t2}")
        if not (gamma_t1 > 0.0 and math.isfinite(gamma_t1)):
            raise DomainError(f"gamma must be positive and finite, got {gamma_t1}")
        if 2.0 * gamma_t2 < gamma_t1:
            raise PhysicalityError(
                f"2*Gamma >= gamma violated (Gamma={gamma_t2}, gamma={gamma_t1}); "
                "equivalent to T2 > 2*T1, where the synthesis does not hold."
            )
        return tuple.__new__(cls, (gamma_t2, gamma_t1))


class _BlochStateFields(NamedTuple):
    y: float
    z: float


class BlochState(_BlochStateFields):
    """A magnetization state (y, z) inside the closed unit disk.

    The polar view uses the angle measured from the +y axis:
    y = r*cos(theta), z = r*sin(theta).
    """

    __slots__ = ()

    def __new__(cls, y: float, z: float):
        r2 = y * y + z * z
        if not (r2 <= 1.0 + EPS_BALL):
            raise DomainError(f"state ({y}, {z}) lies outside the unit disk (r^2={r2})")
        return tuple.__new__(cls, (y, z))

    @property
    def r(self) -> float:
        return math.hypot(self.y, self.z)

    @property
    def theta(self) -> float:
        return math.atan2(self.z, self.y)


EQUILIBRIUM = BlochState(0.0, 1.0)


def normalize_params(t1: float, t2: float, t_detect: float) -> RelaxationPair:
    """Convert physical (T1, T2, Td) to the normalized rate pair.

    Returns Gamma = 2*pi*Td/T2 and gamma = 2*pi*Td/T1. Raises
    :class:`DomainError` on non-positive inputs and
    :class:`PhysicalityError` when T2 > 2*T1.
    """
    if t1 <= 0.0 or t2 <= 0.0 or t_detect <= 0.0:
        raise DomainError(f"T1, T2, Td must all be positive, got ({t1}, {t2}, {t_detect})")
    return RelaxationPair(
        gamma_t2=2.0 * math.pi * t_detect / t2,
        gamma_t1=2.0 * math.pi * t_detect / t1,
    )


def relax(state: BlochState, tau: float, params: RelaxationPair) -> BlochState:
    """Free evolution (u = 0) for a time tau, in closed form.

    y decays as exp(-Gamma*tau); z approaches 1 as exp(-gamma*tau).
    """
    if tau < 0.0:
        raise DomainError(f"tau must be >= 0, got {tau}")
    if tau == 0.0:
        return state
    return BlochState(
        state.y * math.exp(-params.gamma_t2 * tau),
        1.0 + (state.z - 1.0) * math.exp(-params.gamma_t1 * tau),
    )


def rotate(state: BlochState, phi: float) -> BlochState:
    """Instantaneous rotation by phi; positive phi tips +z toward +y.

    Radius-preserving. In terms of the equation of motion this is the
    pure control flow with integral(u dt) = -phi; the sign choice keeps
    measured y positive and is legitimate by the (y, u) -> (-y, -u)
    mirror symmetry of the dynamics.
    """
    c = math.cos(phi)
    s = math.sin(phi)
    return BlochState(state.y * c + state.z * s, -state.y * s + state.z * c)
