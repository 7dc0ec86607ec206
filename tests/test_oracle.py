"""The integration oracle: travel times, structure simulation, the verify suite."""

import json

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


@pytest.mark.parametrize("tag", sorted(REGIMES))
def test_axis_time_matches_closed_form(monkeypatch, tag):
    # u = 0 is a constant field: the axis arc runs on its exact flow, never the integrator
    monkeypatch.setattr(oracle, "_rk4_u_step", lambda *args: pytest.fail("axis arc integrated"))
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


@pytest.mark.parametrize("tag", sorted(REGIMES))
def test_verification_passes_at_reduced_counts(monkeypatch, tag):
    steps = []
    step = oracle._rk4_u_step

    def counted(*args):
        steps.append(args)
        return step(*args)

    monkeypatch.setattr(oracle, "_rk4_u_step", counted)
    report = run_verification(_params(tag), n_transfers=5, n_structure=10, n_qsurface=10)
    failed = [c.name for c in report.checks if not c.passed]
    assert report.passed, failed
    # a check that disappears would pass unmeasured
    expected = [n for n in CHECK_NAMES if tag in MAGIC_REGIMES or n != "magic-time-vs-rk4"]
    assert [c.name for c in report.checks] == expected
    # only the magic feedback is integrated; every other field is propagated exactly
    assert bool(steps) == (tag in MAGIC_REGIMES)
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
