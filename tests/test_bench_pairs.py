"""The summary of `tools/bench_pairs.py` on synthetic runs."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(parent, change, name="wall_s", failed=(0, 0)):
    runs = []
    for i, (a, b) in enumerate(zip(parent, change)):
        runs.append({"pair": i, "tree": "parent", "attempted": 10, "failed": failed[0],
                     "metrics": {name: a}})
        runs.append({"pair": i, "tree": "change", "attempted": 10, "failed": failed[1],
                     "metrics": {name: b}})
    return runs


def test_a_clear_gain_wins_every_pair_and_clears_the_spread():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [7.0, 8.0, 9.0, 10.0, 11.0]
    m = bench_pairs.summarize(_runs(parent, change), {"wall_s": "lower"})["metrics"]["wall_s"]
    assert (m["parent_q1"], m["parent_median"], m["parent_q3"]) == (11.0, 12.0, 13.0)
    assert m["change_median"] == 9.0
    assert (m["change_wins"], m["change_losses"]) == (5, 0)
    assert m["change_vs_parent"] == pytest.approx(-0.25)
    assert m["gap_exceeds_parent_spread"] and m["improved"]


def test_ties_count_for_neither_side_and_a_small_gap_is_not_a_gain():
    parent = [10.0, 11.0, 12.0, 13.0]
    change = [10.0, 10.5, 12.5, 13.0]
    m = bench_pairs.summarize(_runs(parent, change), {})["metrics"]["wall_s"]
    assert (m["change_wins"], m["change_losses"]) == (1, 1)
    assert not m["gap_exceeds_parent_spread"] and not m["improved"]


def test_a_higher_is_better_metric_and_a_regression():
    up = bench_pairs.summarize(_runs([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], name="evals"),
                               {"evals": "higher"})["metrics"]["evals"]
    assert up["better"] == "higher" and up["change_wins"] == 3 and up["improved"]
    down = bench_pairs.summarize(_runs([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]),
                                 {"wall_s": "lower"})["metrics"]["wall_s"]
    assert down["change_losses"] == 3 and down["gap_exceeds_parent_spread"]
    assert not down["improved"]


def test_only_complete_pairs_count_and_failures_are_a_share_of_attempts():
    runs = _runs([10.0, 12.0], [9.0, 11.0], failed=(0, 5))
    runs.append({"pair": 7, "tree": "parent", "attempted": 10, "failed": 0,
                 "metrics": {"wall_s": 100.0}})
    summary = bench_pairs.summarize(runs, {})
    assert summary["pairs"] == 2
    assert summary["parent_fail_frac"] == 0.0 and summary["change_fail_frac"] == 0.5
    assert summary["metrics"]["wall_s"]["parent_median"] == 11.0
