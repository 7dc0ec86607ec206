"""Steady-state SNR-per-unit-time synthesis for a pulsed spin-1/2 ensemble.

Exact planar Bloch dynamics, the five-way optimal-control classification
of measurement points, the analytic figure-of-merit surface Q, the Ernst
solution, and an ODE-based oracle that independently verifies every
closed form.

A launch loads only the code its command runs. Importing the package
loads no numpy: the scalar layer (``bloch``, ``classify``,
``control_time``, ``q_value``, ``build_trajectory``, ``ernst_solution``)
runs on :mod:`math`, so the ``ernst``, ``classify`` and ``trajectory``
commands never load it. The functions that build arrays (the lattice
kernel, the boundary curves, the rate-plane surface and the oracle)
import numpy when first called, so only ``qsurface``, ``phase-diagram``
and ``verify`` load it. The oracle's names resolve on first access, so
only ``verify`` loads :mod:`.oracle`. The records are
:class:`typing.NamedTuple` classes, so no command loads :mod:`dataclasses`.
"""

from .bloch import (
    DETECTION_TIME,
    EPS_BALL,
    EQUILIBRIUM,
    BlochState,
    RelaxationPair,
    normalize_params,
    relax,
    rotate,
)
from .ernst import (
    ErnstSolution,
    QMaxSurface,
    ernst_q,
    ernst_solution,
    maximize_on_ellipsoid,
    maximize_q_global,
    q_max_surface,
)
from .errors import (
    BracketingError,
    ConvergenceError,
    DomainError,
    PhysicalityError,
    SpinSnrError,
)
from .qsurface import (
    QSample,
    Segment,
    Trajectory,
    build_trajectory,
    control_time,
    q_grid_arrays,
    q_value,
    time_magic,
    time_vertical,
)
from .synthesis import (
    CLASSIFY_TOL,
    BoundaryCurves,
    ControlStructure,
    MagicPlane,
    SynthesisRegime,
    boundary_curves,
    classify,
    ellipsoid_y,
    ernst_ellipsoid_residual,
    magic_plane,
    regime,
    regime_boundaries,
)

__version__ = "0.1.0"

#: Public names of :mod:`.oracle`, which only ``verify`` runs; each is looked
#: up on first access (PEP 562), so importing the package loads no oracle.
_ORACLE_NAMES = frozenset({
    "CycleFixedPoint",
    "SweepResult",
    "VerificationCheck",
    "VerificationReport",
    "cycle_fixed_point",
    "delta_pulse_fixed_point",
    "rk4_time_magic",
    "rk4_time_vertical",
    "run_verification",
    "simulate_structure",
    "sweep_delta_pulse",
    "verify_q_surface",
})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
