import math

import pytest
from hypothesis import strategies as st

from spin_snr_synth import BlochState, RelaxationPair, oracle


@pytest.fixture(scope="session")
def params_a():
    return RelaxationPair(1.90, 0.5)


@pytest.fixture(scope="session")
def params_b():
    return RelaxationPair(1.80, 1.0)


@pytest.fixture(scope="session")
def params_c():
    return RelaxationPair(1.69, 1.5)


@pytest.fixture(scope="session")
def params_rim():
    # the Ernst point lies 4.5e-5 inside the rim, closer than a lattice cell
    return RelaxationPair(50.0, 10.0)


@st.composite
def rate_pairs(draw):
    """Admissible (Gamma, gamma) pairs: 2*Gamma >= gamma."""
    g = draw(st.floats(0.05, 3.0, allow_nan=False))
    ratio = draw(st.floats(0.5, 4.0, allow_nan=False))
    return RelaxationPair(gamma_t2=ratio * g, gamma_t1=g)


@st.composite
def disk_states(draw, r_max=0.999):
    r = draw(st.floats(0.0, r_max, allow_nan=False))
    th = draw(st.floats(-math.pi, math.pi, allow_nan=False))
    return BlochState(r * math.cos(th), r * math.sin(th))


@st.composite
def half_disk_states(draw, r_min=1e-6, r_max=0.999):
    r = draw(st.floats(r_min, r_max, allow_nan=False))
    th = draw(st.floats(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9, allow_nan=False))
    return BlochState(r * math.cos(th), r * math.sin(th))


def relax_inverse(state, tau, params):
    """Reference inverse of ``relax``: the state that relaxes onto ``state`` in time tau.

    A preimage outside the closed unit disk raises DomainError, from BlochState.
    """
    return BlochState(
        state.y * math.exp(params.gamma_t2 * tau),
        1.0 + (state.z - 1.0) * math.exp(params.gamma_t1 * tau),
    )


def bias_q_value(monkeypatch, bias):
    """Shift every Q that the oracle reads from the closed-form layer by ``bias``."""
    exact = oracle.q_value

    def biased(m, params):
        sample = exact(m, params)
        return sample._replace(q=sample.q + bias)

    monkeypatch.setattr(oracle, "q_value", biased)
