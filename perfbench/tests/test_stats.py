"""The reporting rule: median plus the highest percentile with >= 10 beyond."""

import pytest

from rivbench.stats import percentile, summarize, tail_percentile


def beyond(n: int, q: float) -> int:
    values = list(range(n))
    return sum(1 for v in values if v > percentile(values, q))


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 21, 100, 101, 1000, 1001, 1005, 9999, 10_000, 12_345])
def test_reported_tail_has_at_least_ten_samples_beyond(n):
    q = tail_percentile(n)
    assert beyond(n, q) >= 10
    higher = [p for p in (99.99, 99.9, 99.0, 90.0, 50.0) if p > q]
    # Every higher candidate would have fewer than ten samples beyond it.
    assert all(beyond(n, p) < 10 for p in higher)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 50.0) == 500
    assert percentile(values, 99.0) == 990
    assert percentile([7.0], 99.0) == 7.0


def test_summarize_reports_count_and_label():
    s = summarize([float(v) for v in range(1000, 0, -1)])
    assert s == {"n": 1000, "p50": 500.0, "tail_q": 99.0, "tail": 990.0}
    assert summarize([]) == {"n": 0, "p50": None, "tail_q": None, "tail": None}
    assert summarize([1.0] * 5)["tail"] is None
