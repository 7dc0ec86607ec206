"""The steadiness check against the benchmark's own bounds."""

import json
from pathlib import Path

import steady

METRICS = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())["end_to_end"]


def runs(scale=1.0, jitter=0.01, setup_jitter=0.01):
    """Ten values per metric around a fixed centre."""
    offsets = [(-1) ** i * (i % 5) / 4 for i in range(10)]  # in [-1, 1]
    centre = {"setup_s": 0.8, "wall_s": 14.0, "cpu_s": 13.5, "peak_rss_mb": 400.0, "ok_rate": 0.75}
    out = {}
    for m in METRICS:
        j = {"setup_s": setup_jitter, "ok_rate": 0.0}.get(m["name"], jitter)
        out[m["name"]] = [centre[m["name"]] * scale * (1 + j * o) for o in offsets]
    return out


def test_spread_is_quartile_distance_over_median():
    assert steady.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == (4.5 - 1.5) / 3.0


def test_same_code_twice_is_steady():
    assert steady.compare(runs(), runs(scale=1.01), METRICS) == []


def test_noisy_set_is_not_steady():
    problems = steady.compare(runs(), runs(jitter=0.8), METRICS)
    assert any("wall_s: second spread" in p for p in problems)


def test_setup_spread_and_median_are_checked():
    problems = steady.compare(runs(), runs(setup_jitter=0.9), METRICS)
    assert any(p.startswith("setup_s: second spread") for p in problems)
    problems = steady.compare(runs(), runs(scale=1.5), METRICS)
    assert any(p.startswith("setup_s: median") for p in problems)
    assert any(p.startswith("wall_s: median") for p in problems)


def test_medians_must_agree_in_both_directions():
    problems = steady.compare(runs(), runs(scale=0.6), METRICS)
    assert any(p.startswith("wall_s: median") for p in problems)
    better = runs()
    better["ok_rate"] = [1.0] * 10
    assert any(p.startswith("ok_rate: median") for p in steady.compare(runs(), better, METRICS))
    assert any(p.startswith("ok_rate: median") for p in steady.compare(better, runs(), METRICS))
