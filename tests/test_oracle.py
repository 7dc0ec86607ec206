"""The integration oracle: travel times, structure simulation, the verify suite."""

import json
import math

import numpy as np
import pytest

from spin_snr_synth import (
    BlochState,
    ControlStructure,
    DomainError,
    RelaxationPair,
    control_time,
    q_value,
    rk4_time_magic,
    rk4_time_vertical,
    run_verification,
    simulate_structure,
    sweep_delta_pulse,
    time_magic,
    time_vertical,
)
from spin_snr_synth import cli, oracle
from conftest import bias_q_value

#: One rate pair (Gamma, gamma) per synthesis regime.
REGIMES = {"A": (3.0, 0.5), "B": (1.8, 1.0), "C": (0.5, 0.4)}
#: Regimes whose magic plane meets the unit disk (it lies below z = -1 at C).
MAGIC_REGIMES = ("A", "B")
#: The verify checks in report order; C, with no magic plane, lacks "magic-time-vs-rk4".
CHECK_NAMES = [
    "ernst-cycle-closure",
    "ernst-radius-balance",
    "ellipsoid-max-vs-closed-form",
    "cycle-iteration-matches-closed-form",
    "affine-vs-iterated-fixed-point",
    "sweep-flip-vs-closed-form",
    "sweep-q-vs-closed-form",
    "axis-time-vs-rk4",
    "magic-time-vs-rk4",
    "structure-time-vs-simulation",
    "structure-terminal-error",
    "qsurface-vs-simulation",
    "q-continuity-across-boundaries",
    "global-max-at-ernst-point",
    "global-max-q-vs-closed-form",
]


def _params(tag):
    return RelaxationPair(*REGIMES[tag])


def _rate_args(tag):
    big_g, small_g = REGIMES[tag]
    return ["--Gamma", repr(big_g), "--gamma", repr(small_g)]


def _assert_integrates_nothing():
    # the Dormand-Prince stepper is gone; tests/conftest.py keeps it as a reference only
    assert not hasattr(oracle, "_rk4_u_step")
    assert not hasattr(oracle, "_LOCAL_TOL")


@pytest.mark.parametrize("tag", sorted(REGIMES))
def test_axis_time_matches_closed_form(monkeypatch, tag):
    # u = 0 is a constant field: the axis arc runs on its exact flow alone
    _assert_integrates_nothing()
    monkeypatch.setattr(oracle, "_feedback_flow", lambda *args: pytest.fail("axis arc ran the feedback"))
    params = _params(tag)
    for z1, z2 in [(-0.95, 0.95), (-0.5, -0.49), (0.0, 0.9), (0.3, 0.3), (-0.2, 0.6)]:
        assert rk4_time_vertical(z1, z2, params) == pytest.approx(
            time_vertical(z1, z2, params), abs=1e-9
        )


@pytest.mark.parametrize("tag", MAGIC_REGIMES)
def test_magic_time_matches_closed_form(tag):
    params = _params(tag)
    for y1, y2 in [(0.9, 0.0), (0.6, 0.3), (0.3, 1e-9), (0.05, 0.0), (0.4, 0.4)]:
        assert rk4_time_magic(y1, y2, params) == pytest.approx(
            time_magic(y1, y2, params), abs=1e-9
        )


def test_magic_time_needs_the_plane():
    with pytest.raises(DomainError):
        rk4_time_magic(0.5, 0.1, _params("C"))


@pytest.mark.parametrize("fn", [time_vertical, rk4_time_vertical, time_magic, rk4_time_magic])
@pytest.mark.parametrize("args", [(math.nan, 0.1), (0.5, math.nan), (math.inf, 0.1),
                                  (-math.inf, 0.1), (0.5, -math.inf)])
def test_travel_times_reject_non_finite_arguments(fn, args):
    # nan once came back as a silent 5e-324 (rk4_time_vertical), 0.0 (rk4_time_magic) or nan
    with pytest.raises(DomainError):
        fn(*args, _params("A"))


def test_terminal_error_falls_with_amplitude():
    params = _params("B")
    m = BlochState(0.333, 0.179)
    _, err_lo = simulate_structure(m, params, 1e3)
    _, err_hi = simulate_structure(m, params, 1e4)
    assert 8.0 < err_lo / err_hi < 12.0


def test_simulation_uses_no_closed_form_time(monkeypatch):
    def closed_form(*args):
        raise AssertionError("the oracle called a closed-form travel time")

    monkeypatch.setattr(oracle, "time_magic", closed_form)
    monkeypatch.setattr(oracle, "time_vertical", closed_form)
    params = _params("B")
    m = BlochState(0.333, 0.179)
    assert q_value(m, params).structure is ControlStructure.BShSvNegB
    t_sim, err = simulate_structure(m, params, 1e4)
    _, t_closed = control_time(m, params)
    assert abs(t_sim - t_closed) < 1e-3
    assert err < 1e-3
    assert rk4_time_magic(0.5, 0.0, params) > 0.0
    assert rk4_time_vertical(-0.5, 0.5, params) > 0.0


def _vectorised_delta_pulse_q(flip, params):
    """Steady-state signal of the delta-pulse cycle, elementwise in a flip array."""
    e2 = math.exp(-params.gamma_t2)
    e1 = math.exp(-params.gamma_t1)
    c, s = np.cos(flip), np.sin(flip)
    det = (1.0 - e2 * c) * (1.0 - e1 * c) + e1 * e2 * s * s
    sz = (1.0 - e1) * (1.0 - e2 * c) / det
    sy = e2 * s * sz / (1.0 - e2 * c)
    return c * sy + s * sz


@pytest.mark.parametrize("tag", sorted(REGIMES))
def test_sweep_keeps_the_vectorised_bits(tag):
    # the sweep on math lands on the same bits as the numpy sweep it replaced
    params = _params(tag)
    flips = np.linspace(0.0, math.pi, 2002)[1:-1]
    i = int(np.argmax(_vectorised_delta_pulse_q(flips, params)))

    def q_scalar(flip):
        return float(_vectorised_delta_pulse_q(np.array([flip]), params)[0])

    best = oracle._golden_max(q_scalar, flips[i - 1], flips[i + 1], 1e-12)
    got = sweep_delta_pulse(params)
    assert (got.best_flip.hex(), got.best_q.hex()) == (best.hex(), q_scalar(best).hex())


@pytest.mark.parametrize("tag", sorted(REGIMES))
def test_verification_passes_at_reduced_counts(monkeypatch, tag):
    _assert_integrates_nothing()
    flows = []
    flow = oracle._feedback_flow

    def counted(*args):
        flows.append(args)
        return flow(*args)

    monkeypatch.setattr(oracle, "_feedback_flow", counted)
    report = run_verification(_params(tag), n_transfers=5, n_structure=10, n_qsurface=10)
    failed = [c.name for c in report.checks if not c.passed]
    assert report.passed, failed
    # a check that disappears would pass unmeasured
    expected = [n for n in CHECK_NAMES if tag in MAGIC_REGIMES or n != "magic-time-vs-rk4"]
    assert [c.name for c in report.checks] == expected
    # the feedback flow runs exactly where the magic plane meets the disk
    assert bool(flows) == (tag in MAGIC_REGIMES)
    for c in report.checks:
        if c.name in ("axis-time-vs-rk4", "magic-time-vs-rk4"):
            assert c.measured <= 1e-9


def test_injected_q_bias_is_caught(monkeypatch, capsys):
    bias_q_value(monkeypatch, 1e-2)
    code = cli.main(
        ["verify", *_rate_args("B"), "--n-transfers", "2", "--n-structure", "2",
         "--n-qsurface", "3", "--format", "json"]
    )
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["passed"]
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert failed == {"qsurface-vs-simulation"}


def test_verification_passes_just_above_the_magic_plane_threshold(capsys):
    # at Gamma = 1.5000001*gamma the magic plane barely enters the ball, so its
    # transfers start below y = 0.05
    assert cli.main(["verify", "--Gamma", "1.5000001", "--gamma", "1.0", "--n-transfers", "5",
                     "--n-structure", "10", "--n-qsurface", "10"]) == 0
    assert "magic-time-vs-rk4" in capsys.readouterr().out


def test_perturbed_ernst_point_is_caught(monkeypatch):
    params = _params("B")
    sol = oracle.ernst_solution(params)
    moved = BlochState(sol.m.y, sol.m.z + 1e-7)
    monkeypatch.setattr(oracle, "ernst_solution", lambda p: sol._replace(m=moved))
    report = run_verification(params, n_transfers=2, n_structure=2, n_qsurface=2)
    check = next(c for c in report.checks if c.name == "ellipsoid-max-vs-closed-form")
    assert not check.passed
    assert check.measured == pytest.approx(1e-7, rel=1e-3)
