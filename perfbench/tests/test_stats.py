"""Order statistics and metric names."""

import pytest

from stats import (
    MIN_P90_SAMPLES,
    check_name,
    median,
    median_of_medians,
    p90,
    percentile,
)


def test_p90_is_refused_below_one_hundred_samples():
    with pytest.raises(ValueError):
        p90(list(range(MIN_P90_SAMPLES - 1)))
    assert p90(list(range(1, 101))) == 90


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 0.5) == 3
    assert percentile(values, 1.0) == 5
    assert percentile(values, 0.01) == 1


def test_median_of_medians_weights_each_group_once():
    samples = [("a", 1), ("a", 2), ("a", 3), ("b", 10), ("b", 11),
               ("c", 20), ("c", 21), ("c", 22), ("c", 23)]
    assert median_of_medians(samples) == 10.5


def test_median():
    assert median([3, 1, 2]) == 2
    with pytest.raises(ValueError):
        median([])


@pytest.mark.parametrize("name", ["setup_s", "execute.ms.Q1", "q1_p50_ms"])
def test_legal_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "cypher.parse_ms.<Q1>", "x/y"])
def test_illegal_names(name):
    with pytest.raises(ValueError):
        check_name(name)
