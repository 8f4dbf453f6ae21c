"""`tools/bench_pairs.summarise`, the summary every committed BENCH_<pr>.json holds."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pairs(parent, change, name="m"):
    """One pair per (parent, change) value; None leaves the metric out of that side."""
    def side(value):
        return {"metrics": {} if value is None else {name: value}}
    return [{"parent": side(a), "change": side(b)} for a, b in zip(parent, change)]


def test_lower_is_better_counts_pairs_the_change_lowered():
    out = bench_pairs.summarise(_pairs([2.0, 2.0, 2.0, 2.0], [1.0, 3.0, 1.5, 1.9]),
                                {"m": "lower"})["m"]
    assert out["change_better_in"] == 3 and out["pairs"] == 4
    assert out["better"] == "lower"
    assert out["parent_median"] == 2.0 and out["change_median"] == 1.7
    assert out["median_ratio"] == pytest.approx(0.85)


def test_higher_is_better_counts_pairs_the_change_raised():
    out = bench_pairs.summarise(_pairs([10.0, 10.0, 10.0], [12.0, 9.0, 11.0]),
                                {"m": "higher"})["m"]
    assert out["change_better_in"] == 2 and out["pairs"] == 3


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_ties_count_for_neither_side(better):
    out = bench_pairs.summarise(_pairs([5.0, 5.0, 4.0], [5.0, 5.0, 4.0]), {"m": better})["m"]
    assert out["change_better_in"] == 0 and out["pairs"] == 3
    assert out["median_ratio"] == 1.0


def test_parent_iqr_is_the_spread_of_the_parent_runs_alone():
    # statistics.quantiles' default (exclusive) method on 1..10: quartiles 2.75 and 8.25.
    parent = [float(v) for v in (7, 1, 10, 4, 2, 9, 3, 8, 6, 5)]
    out = bench_pairs.summarise(_pairs(parent, [100.0] * 10), {"m": "lower"})["m"]
    assert out["parent_iqr"] == pytest.approx(5.5)
    assert out["parent_median"] == 5.5
    one = bench_pairs.summarise(_pairs([3.0], [2.0]), {"m": "lower"})["m"]
    assert one["parent_iqr"] == 0.0 and one["change_better_in"] == 1


def test_a_metric_missing_on_one_side_skips_that_pair():
    pairs = _pairs([2.0, None, 2.0, 2.0], [1.0, 1.0, None, 3.0])
    out = bench_pairs.summarise(pairs, {"m": "lower"})["m"]
    assert out["pairs"] == 2 and out["change_better_in"] == 1
    assert out["parent_median"] == 2.0 and out["change_median"] == 2.0


def test_a_metric_no_pair_has_on_both_sides_is_left_out():
    pairs = _pairs([1.0, None], [None, 2.0])
    assert bench_pairs.summarise(pairs, {"m": "lower", "absent": "higher"}) == {}


def test_a_zero_parent_value_is_left_out_of_the_ratio_only():
    out = bench_pairs.summarise(_pairs([0.0, 2.0, 4.0], [1.0, 1.0, 1.0]), {"m": "lower"})["m"]
    assert out["pairs"] == 3 and out["change_better_in"] == 2
    assert out["median_ratio"] == pytest.approx((0.5 + 0.25) / 2)
