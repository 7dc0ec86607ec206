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


#: Rate pairs (Gamma, gamma) at which the float kernels must keep the bits of the
#: record-building code they replaced: the regimes, the magic plane's threshold,
#: the rim, large and small rates, and the CI pairs.
BIT_PAIRS = [(3.0, 0.5), (1.8, 1.0), (0.5, 0.4), (1.5000001, 1.0), (50.0, 10.0), (1.0, 0.3),
             (200.0, 1.0), (0.01, 0.005), (10.0, 0.1)]


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


def dormand_prince_step(y, z, h, u_fn, params):
    """One Dormand-Prince 5(4) step of the Bloch equation under the field u_fn(y, z).

    The reference integrator of the exact flows that the oracle propagates
    (Dormand & Prince, J. Comput. Appl. Math. 6, 19, 1980); u is evaluated
    at every stage point. Returns the 5th-order state (y, z).
    """
    big_g, small_g = params.gamma_t2, params.gamma_t1

    def rhs(yy, zz):
        u = u_fn(yy, zz)
        return -big_g * yy - u * zz, small_g * (1.0 - zz) + u * yy

    k1y, k1z = rhs(y, z)
    k2y, k2z = rhs(y + h * (1 / 5) * k1y, z + h * (1 / 5) * k1z)
    k3y, k3z = rhs(
        y + h * (3 / 40 * k1y + 9 / 40 * k2y),
        z + h * (3 / 40 * k1z + 9 / 40 * k2z),
    )
    k4y, k4z = rhs(
        y + h * (44 / 45 * k1y - 56 / 15 * k2y + 32 / 9 * k3y),
        z + h * (44 / 45 * k1z - 56 / 15 * k2z + 32 / 9 * k3z),
    )
    k5y, k5z = rhs(
        y + h * (19372 / 6561 * k1y - 25360 / 2187 * k2y + 64448 / 6561 * k3y - 212 / 729 * k4y),
        z + h * (19372 / 6561 * k1z - 25360 / 2187 * k2z + 64448 / 6561 * k3z - 212 / 729 * k4z),
    )
    k6y, k6z = rhs(
        y + h * (9017 / 3168 * k1y - 355 / 33 * k2y + 46732 / 5247 * k3y
                 + 49 / 176 * k4y - 5103 / 18656 * k5y),
        z + h * (9017 / 3168 * k1z - 355 / 33 * k2z + 46732 / 5247 * k3z
                 + 49 / 176 * k4z - 5103 / 18656 * k5z),
    )
    return (
        y + h * (35 / 384 * k1y + 500 / 1113 * k3y + 125 / 192 * k4y
                 - 2187 / 6784 * k5y + 11 / 84 * k6y),
        z + h * (35 / 384 * k1z + 500 / 1113 * k3z + 125 / 192 * k4z
                 - 2187 / 6784 * k5z + 11 / 84 * k6z),
    )


def fixed_step_flow(s, u_fn, t, params, n):
    """n equal Dormand-Prince steps from the state s under the field u_fn; returns (y, z)."""
    y, z, h = s.y, s.z, t / n
    for _ in range(n):
        y, z = dormand_prince_step(y, z, h, u_fn, params)
    return y, z
