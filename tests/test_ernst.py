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
#: fatol 1e-14, maxiter 500 and the same 256^2 lattice starts and simplices (one
#: pass per start), so that the in-package Nelder-Mead is pinned to scipy's bits.
SCIPY_ARGMAX_256 = [
    ((3.0, 0.5), ("0x1.fb663511b9e46p-2", "0x1.829a05852cbb2p-2", "0x1.fb663511b9e46p-2")),
    ((1.8, 1.0), ("0x1.60e884e8c365fp-1", "0x1.136560b1496acp-2", "0x1.60e884e8c365fp-1")),
    ((0.5, 0.4), ("0x1.1e195bd6b3bfep-1", "0x1.9af19f4706a64p-2", "0x1.1e195bd6b3bfep-1")),
    ((1.9, 0.5), ("0x1.004485b2f921fp-1", "0x1.829a05ac6459bp-2", "0x1.004485b2f921fp-1")),
    ((1.69, 1.5), ("0x1.9f2c791bbc79dp-1", "0x1.759b8404929bap-3", "0x1.9f2c791bbc79dp-1")),
    ((1.0, 0.3), ("0x1.a8ea2067d89d3p-2", "0x1.b3c557d5c39dfp-2", "0x1.a8ea2067d89d3p-2")),
    ((5.0, 2.0), ("0x1.bed44b809e1dap-1", "0x1.e84151aaf6ebdp-4", "0x1.bed44b809e1dap-1")),
    ((0.7, 1.2), ("0x1.b04740883b753p-1", "0x1.da0fae26bff7bp-3", "0x1.b04740883b753p-1")),
    ((10.0, 0.1), ("0x1.c9c18d5088a3dp-3", "0x1.e66bdd65143d2p-2", "0x1.c9c18d5088a3dp-3")),
    ((0.2, 0.15), ("0x1.e7f3e25459074p-2", "0x1.d9abfce47c494p-2", "0x1.e7f3e25459074p-2")),
    ((2.5, 0.7), ("0x1.29f467770bd7cp-1", "0x1.53c6958407206p-2", "0x1.29f467770bd7cp-1")),
    ((0.9, 0.9), ("0x1.6c0192bedfe74p-1", "0x1.27fcdada58352p-2", "0x1.6c0192bedfe74p-1")),
]


@pytest.mark.parametrize("fixture", ["params_a", "params_b", "params_c"])
def test_global_maximum_is_the_ernst_point(request, fixture):
    params = request.getfixturevalue(fixture)
    m, q = maximize_q_global(params)
    sol = ernst_solution(params)
    assert m.y == pytest.approx(sol.m.y, abs=1e-6)
    assert m.z == pytest.approx(sol.m.z, abs=1e-6)
    assert q == pytest.approx(sol.q, abs=1e-6)


@pytest.mark.parametrize("rates,expected", SCIPY_ARGMAX_256, ids=[str(r) for r, _ in SCIPY_ARGMAX_256])
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
