"""Steady-state SNR-per-unit-time synthesis for a pulsed spin-1/2 ensemble.

Exact planar Bloch dynamics, the five-way optimal-control classification
of measurement points, the analytic figure-of-merit surface Q, the Ernst
solution, and an ODE-based oracle that independently verifies every
closed form.

Importing the package loads no numpy: the scalar layer (``bloch``,
``classify``, ``control_time``, ``q_value``, ``build_trajectory``,
``ernst_solution``) runs on :mod:`math`, so the ``ernst``, ``classify``
and ``trajectory`` commands never load it. The functions that build
arrays (the lattice kernel, the boundary curves, the rate-plane surface
and the oracle) import numpy when first called.
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
from .oracle import (
    CycleFixedPoint,
    SweepResult,
    VerificationCheck,
    VerificationReport,
    cycle_fixed_point,
    delta_pulse_fixed_point,
    rk4_time_magic,
    rk4_time_vertical,
    run_verification,
    simulate_structure,
    sweep_delta_pulse,
    verify_q_surface,
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
