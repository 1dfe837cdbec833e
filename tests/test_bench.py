"""tools/bench.py's run order and its summary of paired runs, on fixed
numbers: a real comparison runs perfbench for minutes, too slow for tier-1."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_median_and_inclusive_quartiles():
    assert bench.side_summary([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "quartiles": [2.0, 4.0], "values": [5.0, 1.0, 4.0, 2.0, 3.0]}


def test_lower_is_better_within_bound():
    m = bench.summarize([10.0, 11.0, 12.0, 13.0, 14.0], [9.0, 12.0, 10.0, 11.0, 13.0],
                        "lower", 0.05)
    assert m["ratio"] == pytest.approx(11 / 12)
    assert (m["wins"], m["pairs"], m["within_bound"]) == (4, 5, True)
    assert m["parent"]["quartiles"] == [11.0, 13.0]


def test_ratio_against_the_bound():
    parent = [1.0, 1.0, 1.0]
    assert bench.summarize(parent, [1.24, 1.24, 1.24], "lower", 0.25)["within_bound"]
    assert not bench.summarize(parent, [1.26, 1.26, 1.26], "lower", 0.25)["within_bound"]
    # higher is better: a fall, not a rise, leaves the bound
    assert bench.summarize(parent, [1.5, 1.5, 1.5], "higher", 0.05)["within_bound"]
    dropped = bench.summarize(parent, [1.0, 0.9, 0.9], "higher", 0.05)
    assert (dropped["ratio"], dropped["wins"], dropped["within_bound"]) == (0.9, 0, False)


def test_ties_are_not_wins_and_a_zero_median_has_no_ratio():
    m = bench.summarize([0.0, 0.0], [0.0, 0.0], "lower", 0.05)
    assert (m["ratio"], m["wins"], m["within_bound"]) == (None, 0, True)
    assert not bench.summarize([0.0, 0.0], [1.0, 1.0], "lower", 0.05)["within_bound"]


def test_summary_covers_every_workload_and_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [metric["name"] for metric in spec["end_to_end"]]

    def report(value: float) -> dict:
        return {"correct": True, "metrics": {name: {"value": value} for name in names}}

    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: {"parent": [report(2.0), report(3.0)], "change": [report(1.0), report(2.5)]}
            for w in workloads}
    summary = bench.summary(runs, spec["end_to_end"])
    assert list(summary) == workloads
    for by_metric in summary.values():
        assert list(by_metric) == names
        for name, m in by_metric.items():
            assert set(m) == {"parent", "change", "ratio", "wins", "pairs", "bound",
                              "within_bound"}
            assert m["parent"]["values"] == [2.0, 3.0] and m["change"]["values"] == [1.0, 2.5]
            assert (m["ratio"], m["pairs"]) == (0.7, 2)
            assert m["wins"] == (0 if name == "pass_rate" else 2)
    json.dumps(summary, allow_nan=False)


def test_pairs_run_outermost_and_the_change_first_on_odd_seeds():
    assert bench.run_order(["a", "b"], 3, 2) == [
        (3, "a", "change"), (3, "a", "parent"), (3, "b", "change"), (3, "b", "parent"),
        (4, "a", "parent"), (4, "a", "change"), (4, "b", "parent"), (4, "b", "change"),
    ]
    order = bench.run_order(["paper", "regions", "wide"], 1, 10)
    assert len(order) == 60 and len(set(order)) == 60
    # every workload's pair i runs before any workload's pair i + 1
    assert [seed for seed, _, _ in order] == sorted(seed for seed, _, _ in order)
