import pytest

from spin_snr_synth import DomainError, ernst_solution, maximize_q_global


@pytest.mark.parametrize("fixture", ["params_a", "params_b", "params_c"])
def test_global_maximum_is_the_ernst_point(request, fixture):
    params = request.getfixturevalue(fixture)
    m, q = maximize_q_global(params, coarse_n=64)
    sol = ernst_solution(params)
    assert m.y == pytest.approx(sol.m.y, abs=1e-6)
    assert m.z == pytest.approx(sol.m.z, abs=1e-6)
    assert q == pytest.approx(sol.q, abs=1e-6)


def test_coarse_lattice_below_64_rejected(params_b):
    with pytest.raises(DomainError):
        maximize_q_global(params_b, coarse_n=63)
