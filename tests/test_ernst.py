from decimal import Decimal, localcontext

import numpy as np
import pytest

from spin_snr_synth import (
    RelaxationPair,
    ernst_q,
    ernst_solution,
    maximize_on_ellipsoid,
    maximize_q_global,
)

#: maximize_q_global(RelaxationPair(Gamma, gamma)) as float.hex (y, z, Q), recorded
#: from scipy 1.17.1's optimize.minimize(method="Nelder-Mead") with xatol 1e-12,
#: fatol 1e-14, maxiter 500 and the same 64^2 lattice starts and simplices (one
#: pass per start), so that the in-package Nelder-Mead is pinned to scipy's bits.
SCIPY_ARGMAX_64 = [
    ((3.0, 0.5), ("0x1.fb663511b9e45p-2", "0x1.829a057ae5a0cp-2", "0x1.fb663511b9e45p-2")),
    ((1.8, 1.0), ("0x1.60e884e8c365ep-1", "0x1.136561e88897fp-2", "0x1.60e884e8c365ep-1")),
    ((0.5, 0.4), ("0x1.1e195bd6b3bfdp-1", "0x1.9af19fd1781c8p-2", "0x1.1e195bd6b3bfdp-1")),
    ((1.9, 0.5), ("0x1.004485b2f9200p-1", "0x1.829a008b05324p-2", "0x1.004485b2f9200p-1")),
    ((1.69, 1.5), ("0x1.9f2c791bbc79cp-1", "0x1.759b811326e20p-3", "0x1.9f2c791bbc79cp-1")),
    ((1.0, 0.3), ("0x1.a8ea2067d89cfp-2", "0x1.b3c557ad37048p-2", "0x1.a8ea2067d89cfp-2")),
    ((5.0, 2.0), ("0x1.bed44b809e1dap-1", "0x1.e84154394b8bcp-4", "0x1.bed44b809e1dap-1")),
    ((0.7, 1.2), ("0x1.b04740883b753p-1", "0x1.da0fadabd0769p-3", "0x1.b04740883b753p-1")),
    ((10.0, 0.1), ("0x1.c9c18d5088a4fp-3", "0x1.e66bdba0b309cp-2", "0x1.c9c18d5088a4fp-3")),
    ((0.2, 0.15), ("0x1.e7f3e25459075p-2", "0x1.d9abfe41ab47ap-2", "0x1.e7f3e25459075p-2")),
    ((2.5, 0.7), ("0x1.29f467770bd7ap-1", "0x1.53c695ecbc0c7p-2", "0x1.29f467770bd7ap-1")),
    ((0.9, 0.9), ("0x1.6c0192bedfe74p-1", "0x1.27fcda9ed15f8p-2", "0x1.6c0192bedfe74p-1")),
]


@pytest.mark.parametrize("fixture", ["params_a", "params_b", "params_c", "params_rim"])
def test_global_maximum_is_the_ernst_point(request, fixture):
    params = request.getfixturevalue(fixture)
    m, q = maximize_q_global(params)
    sol = ernst_solution(params)
    assert m.y == pytest.approx(sol.m.y, abs=1e-6)
    assert m.z == pytest.approx(sol.m.z, abs=1e-6)
    assert q == pytest.approx(sol.q, abs=1e-6)


@pytest.mark.parametrize("rates,expected", SCIPY_ARGMAX_64, ids=[str(r) for r, _ in SCIPY_ARGMAX_64])
def test_global_maximum_keeps_recorded_bits(rates, expected):
    m, q = maximize_q_global(RelaxationPair(*rates))
    assert (m.y.hex(), m.z.hex(), float(q).hex()) == expected


@pytest.mark.parametrize("rates", [(3.0, 0.5), (1.8, 1.0), (0.5, 0.4), (175.0, 350.0), (1e3, 350.0)])
def test_closed_form_copies_agree(rates):
    # ernst_solution divides through by e^gamma, ernst_q does not; gamma = 350 is ernst_q's clamp
    big_g, small_g = rates
    vectorized = ernst_q(np.array([big_g]), np.array([small_g]))[0]
    assert ernst_solution(RelaxationPair(big_g, small_g)).q == pytest.approx(vectorized, rel=1e-15)


@pytest.mark.parametrize("fixture", ["params_a", "params_b", "params_c"])
def test_ellipsoid_maximum_is_the_closed_form(request, fixture):
    params = request.getfixturevalue(fixture)
    got, sol = maximize_on_ellipsoid(params), ernst_solution(params)
    assert got.m.y == pytest.approx(sol.m.y, abs=1e-9)
    assert got.m.z == pytest.approx(sol.m.z, abs=1e-9)
    assert got.q == pytest.approx(sol.q, abs=1e-9)
    assert got.flip == pytest.approx(sol.flip, abs=1e-9)


def _decimal_sin(x):
    """sin(x) by its Taylor series, at the Decimal context's precision."""
    term = total = x
    k = 1
    while abs(term) > abs(total) * Decimal(10) ** -60:
        term = -term * x * x / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


def test_flip_against_decimal_reference():
    # sin^2(flip/2) = (1 - cos(flip))/2 = (1 - e^-gamma)(1 - e^-Gamma)/(2(1 + e^-(Gamma+gamma))),
    # at 50 digits; 2 000 physical rate pairs, log-uniform over 1e-4 to 10^2.5, whose small
    # flips are where an arccos form loses up to 8 digits
    pairs = 10.0 ** np.random.default_rng(2024).uniform(-4.0, 2.5, size=(4000, 2))
    pairs = pairs[2.0 * pairs[:, 0] >= pairs[:, 1]][:2000]
    assert len(pairs) == 2000
    worst = 0.0
    with localcontext() as ctx:
        ctx.prec = 50
        for big_g, small_g in pairs:
            flip = ernst_solution(RelaxationPair(big_g, small_g)).flip
            half_sin = _decimal_sin(Decimal(flip) / 2)
            e_big, e_small = (-Decimal(big_g)).exp(), (-Decimal(small_g)).exp()
            exact = (1 - e_small) * (1 - e_big) / (2 * (1 + e_big * e_small))
            worst = max(worst, float(abs(half_sin * half_sin - exact) / exact))
    assert worst <= 1e-14
