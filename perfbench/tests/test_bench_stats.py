import pytest

from spans import self_times
from stats import beyond, max_bits, percentile, rank


def span(name, start, end, parent):
    return [name, start, end, parent, (0, "op"), 0]


def test_self_time_subtracts_child_coverage_on_a_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 7.0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_overlapping_or_overhanging_children_are_covered_once():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("x", 1.0, 6.0, 0),
        span("y", 4.0, 8.0, 0),
        span("z", 9.0, 12.0, 0),
    ]
    # x and y together cover [1, 8]; z covers [9, 10] inside the parent
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_nearest_rank_percentile_is_a_measured_sample():
    samples = [float(v) for v in range(100, 0, -1)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 90) == 90.0
    assert percentile([0.3, 0.1, 0.2], 50) == 0.2
    assert percentile([7.0], 90) == 7.0


def test_sample_count_beyond_a_percentile():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(1000, 90) == 100
    assert beyond(1, 50) == 0
    with pytest.raises(ValueError):
        rank(0, 50)


def test_bit_lengths_take_numerator_and_denominator():
    from fractions import Fraction

    assert max_bits([[Fraction(-5, 2), Fraction(1)], [Fraction(1, 1024), Fraction(0)]]) == 11
    assert max_bits((Fraction(3), Fraction(-8))) == 4


def test_timings_scale_by_the_median_kernel_time_around_each_run():
    from hostspeed import REFERENCE_S
    from run import Pass

    done = Pass(durations=[1.0] * 6, kernel=[REFERENCE_S] * 3 + [2 * REFERENCE_S] * 3)
    assert done.scaled() == pytest.approx([1.0, 1.0, 1.0, 0.5, 0.5, 0.5])
