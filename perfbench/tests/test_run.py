"""The estimator behind the end-to-end times."""

import pytest

import run


def test_trimmed_mean_drops_a_tenth_at_each_end():
    values = [1.0] * 8 + [0.0, 100.0]
    assert run.trimmed_mean(values) == 1.0
    assert run.trimmed_mean(reversed(values)) == 1.0


def test_trimmed_mean_of_few_values_is_their_mean():
    # two levels of host speed: the median would pick one of them
    assert run.trimmed_mean([6.0, 6.0, 7.5, 7.5]) == pytest.approx(6.75)
    assert run.trimmed_mean([4.0]) == 4.0
