"""Span arithmetic and the tail-percentile rule, on hand-made inputs."""

import pytest

from tracer import op_growth, self_times
from run import nearest_rank, tail_percentile


def test_self_time_subtracts_direct_children_only():
    spans = [
        # name, start, end, parent, job
        ["bench.job", 0.0, 10.0, -1, 0],
        ["heap.run", 1.0, 4.0, 0, 0],
        ["heap.snapshot", 1.5, 2.0, 1, 0],
        ["algorithms.time_fn", 5.0, 9.0, 0, 0],
        ["heap.run", 6.0, 7.0, 3, 0],
    ]
    totals = self_times(spans)
    assert totals["bench.job"] == pytest.approx([10 - 3 - 4, 1, 10])
    assert totals["heap.run"] == pytest.approx([(3 - 0.5) + 1, 2, 4])
    assert totals["heap.snapshot"] == pytest.approx([0.5, 1, 0.5])
    assert totals["algorithms.time_fn"] == pytest.approx([3, 1, 4])
    # self times partition the root span exactly
    assert sum(v[0] for v in totals.values()) == pytest.approx(10)


def test_op_growth_is_last_quarter_over_first_quarter_per_series():
    op = "amortized.check_op_inequality"
    spans = [[op, 0.0, d * 1e-6, -1, job] for job, d in enumerate([1, 1, 2, 2, 3, 3, 4, 4])]
    durations, growth = op_growth(spans, lambda job: "a" if job < 4 else "b")
    assert durations == pytest.approx([1, 1, 2, 2, 3, 3, 4, 4])
    assert growth == pytest.approx((2 + 4) / (1 + 3))


def test_op_duration_leaves_out_the_tracers_own_heap_copies():
    spans = [
        ["amortized.check_op_inequality", 0.0, 10e-6, -1, 0],
        ["heap.snapshot", 1e-6, 4e-6, 0, 0],
        ["heap.run", 4e-6, 9e-6, 0, 0],
    ]
    durations, _ = op_growth(spans, lambda job: job)
    assert durations == pytest.approx([7.0])


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert tail_percentile(80) == 75.0  # p90 would leave only 8
    assert tail_percentile(144) == 90.0
    assert tail_percentile(10_025) == 99.0
    assert tail_percentile(5) == 50.0  # too few jobs: fall back to the median


def test_nearest_rank():
    xs = [float(i) for i in range(1, 101)]
    assert nearest_rank(xs, 50.0) == 50.0
    assert nearest_rank(xs, 90.0) == 90.0
    assert nearest_rank([7.0], 99.0) == 7.0
