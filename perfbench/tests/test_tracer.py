"""Self-test of the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""

import time

import pytest

from circlet import covers, families
from tracer import TARGETS, Tracer, self_times, summarize


def current():
    return [vars(owner)[attr] for owner, attr, _, _ in TARGETS]


def test_wrappers_exist_only_inside_the_traced_run():
    originals = current()
    tr = Tracer()
    with tr:
        for wrapped, original in zip(current(), originals):
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        covers.verify_cover(covers.euler_cover(families.random_even(2, 4)))
    assert current() == originals
    assert tr.spans and tr.counts["covers.merge"] == 3


def test_originals_restored_when_the_run_raises():
    originals = current()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    assert current() == originals


def test_self_time_plus_children_is_the_duration():
    tr = Tracer()
    with tr:
        covers.verify_cover(covers.euler_cover(families.random_even(5, 6)))
    resolution = time.get_clock_info("perf_counter").resolution
    own, child = self_times(tr.spans)
    for (_, parent, start, end, _), s, c in zip(tr.spans, own, child):
        assert s >= -resolution
        assert abs(s + c - (end - start)) <= resolution
        if parent >= 0:
            assert tr.spans[parent][2] <= start <= end <= tr.spans[parent][3]


def test_summary_counts_nested_calls_of_one_name_once():
    spans = [
        ["a", -1, 0.0, 10.0, False],
        ["b", 0, 1.0, 4.0, False],
        ["a", 1, 2.0, 3.0, True],
    ]
    assert summarize(spans) == {
        "a": {"calls": 2, "incl_s": 10.0, "self_s": 8.0},
        "b": {"calls": 1, "incl_s": 3.0, "self_s": 2.0},
    }


@pytest.mark.parametrize(
    "k, merges, scans",
    [
        (families.random_even(1, 20), 19, None),
        (families.finned_circlet(20, 8), 0, 322),
    ],
)
def test_cover_counts(k, merges, scans):
    tr = Tracer()
    with tr:
        covers.euler_cover(k)
    assert tr.counts["covers.merge"] == merges
    assert tr.counts["gf2.scan"] == tr.counts["matroid.find_even"]
    if scans is not None:
        assert tr.counts["gf2.scan"] == scans
