"""Workload inputs and the golden lattices they pin."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import workloads

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "golden.json").read_text())


def test_sessions_repeat_for_a_seed_and_vary_across_seeds():
    for name in workloads.WORKLOADS:
        assert workloads.session(name, 7, 0) == workloads.session(name, 7, 0)
    assert workloads.session("query", 7, 0) != workloads.session("query", 8, 0)
    assert workloads.session("map", 7, 0) != workloads.session("map", 7, 1)


def test_map_session_pins_every_golden_output():
    invs = workloads.session("map", 3, 0)
    pinned = {inv.golden for inv in invs if inv.golden}
    assert pinned == {k for k in GOLDEN if k != "note"}
    for inv in invs:
        if inv.golden and inv.check != "qsurface-json":
            assert " ".join(inv.argv) == GOLDEN[inv.golden]["argv"]


@pytest.mark.parametrize("seed", range(20))
def test_query_inputs_stay_on_their_side_of_the_domain(seed):
    for inv in workloads.session("query", seed, 0):
        def arg(flag, k=1):
            return float(inv.argv[inv.argv.index(flag) + k])

        big_g, small_g = arg("--Gamma"), arg("--gamma")
        physical = 2.0 * big_g >= small_g
        if "--point" in inv.argv:
            y, z = arg("--point"), arg("--point", 2)
            inside = y > 0.0 and math.hypot(y, z) < 0.96
        else:
            inside = True
        assert (physical and inside) == (inv.expect != "reject"), inv


def _lattice(n, big_g, small_g):
    y, z = np.meshgrid(np.linspace(0.0, 1.0, n), np.linspace(-1.0, 1.0, n), indexing="ij")
    y, z = y.ravel(), z.ravel()
    keep = (y > 0.0) & (y * y + z * z < 1.0)
    y, z = y[keep], z[keep]
    r_m = np.hypot(y, z)
    r_s = np.hypot(y * math.exp(-big_g), 1.0 + (z - 1.0) * math.exp(-small_g))
    return r_m, r_s


@pytest.mark.parametrize("tag", sorted(workloads.REGIMES))
def test_golden_lattices_hold_no_rim_point_and_no_tie(tag):
    """Fixes at the rim or at structure ties cannot legitimately change the golden bytes."""
    big_g, small_g = workloads.REGIMES[tag]
    r_m, r_s = _lattice(512, big_g, small_g)
    assert len(r_m) == GOLDEN[f"qsurface-512-{tag}"]["n_lattice_rows"]
    assert not (r_m >= 1.0).any()
    assert np.abs(r_s - r_m).min() > 1e-8
    if big_g > 1.5 * small_g:  # magic plane z0 = -gamma / (2 (Gamma - gamma)) inside the ball
        za = small_g / (2.0 * (big_g - small_g))
        assert np.abs(r_m - za).min() > 1e-8
        assert np.abs(r_s - za).min() > 1e-8


@pytest.mark.parametrize("tag", sorted(workloads.REGIMES))
def test_rim_defect_lattice_has_two_rim_points(tag):
    r_m, _ = _lattice(90, *workloads.REGIMES[tag])
    assert int((r_m >= 1.0).sum()) == 2
