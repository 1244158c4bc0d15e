"""tools/pairs.py, the paired benchmark runner, on synthetic runs: each
side's statistics, the per-pair ratios and wins, every verdict, and the
seeds and alternating order of the pairs. No benchmark runs here."""

import importlib.util
import math
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_summarize_takes_inclusive_quartiles_of_the_completed_runs():
    got = pairs.summarize([5.0, None, 1.0, 3.0, 2.0, 4.0])
    assert (got["median"], got["q1"], got["q3"]) == (3.0, 2.0, 4.0)
    assert got["iqr_over_median"] == pytest.approx(2 / 3)
    assert got["runs"] == [5.0, None, 1.0, 3.0, 2.0, 4.0]  # in pair order, failures kept


def test_summarize_of_one_run_and_of_none():
    assert pairs.summarize([7.0]) | {"runs": None} == {
        "runs": None, "median": 7.0, "q1": 7.0, "q3": 7.0, "iqr_over_median": 0.0,
    }
    assert pairs.summarize([None, None])["median"] is None


def test_a_spread_around_a_zero_median_is_infinite():
    assert pairs.relative(0.0, 0.0) == 0.0
    assert math.isinf(pairs.relative(1.0, 0.0))


def test_ratios_and_wins_are_per_pair_and_skip_failed_runs():
    parent = [100.0, 100.0, 100.0, None, 100.0]
    change = [110.0, 90.0, 100.0, 120.0, None]
    got = pairs.compare(parent, change, "higher", 0.25, False)
    assert got["pairs_completed"] == 3
    assert got["wins"] == 1  # 110 beats 100; the tie counts for neither side
    assert got["ratio"] == {"median": 1.0, "min": 0.9, "max": 1.1}
    assert pairs.compare(parent, change, "lower", 0.25, False)["wins"] == 1  # only 90 beats 100


TIGHT = [99.0, 100.0, 101.0, 100.0, 99.5, 100.5, 100.0, 99.0, 101.0, 100.0]
WIDE = [50.0, 150.0] * 5  # IQR/median 1.0, past any bound
GAIN = [v * 1.1 for v in TIGHT]


@pytest.mark.parametrize(
    "parent, change, better, fails_more, verdict",
    [
        pytest.param(WIDE, TIGHT, "higher", False, "unresolved", id="parent-iqr-over-bound"),
        pytest.param(WIDE, [v + 200 for v in WIDE], "higher", False, "better", id="wide-parent-every-run-beaten"),
        pytest.param(WIDE, [160.0] * 10, "higher", False, "within_bound", id="wide-parent-beaten-inside-its-iqr"),
        pytest.param(WIDE, [None] + [v + 200 for v in WIDE[1:]], "higher", False, "unresolved", id="wide-parent-a-run-failed"),
        pytest.param(TIGHT, [v * 0.7 for v in TIGHT], "higher", False, "worse", id="higher-better-fell-30%"),
        pytest.param(TIGHT, [v * 1.3 for v in TIGHT], "lower", False, "worse", id="lower-better-rose-30%"),
        pytest.param(TIGHT, GAIN, "higher", False, "better", id="won-every-pair-past-the-iqr"),
        pytest.param(TIGHT, [v * 0.9 for v in TIGHT], "lower", False, "better", id="lower-better-gain"),
        pytest.param(TIGHT, GAIN, "higher", True, "within_bound", id="gain-with-more-operations-failed"),
        pytest.param(TIGHT, [None] * 3 + GAIN[3:], "higher", False, "within_bound", id="7-of-7-wins-is-7-of-10"),
        pytest.param(TIGHT, TIGHT[::-1], "higher", False, "within_bound", id="noise"),
        pytest.param(TIGHT, [v * 0.9 for v in TIGHT], "higher", False, "within_bound", id="worse-inside-the-bound"),
        pytest.param(TIGHT, [None] * 10, "higher", False, "no_runs", id="change-never-ran"),
    ],
)
def test_verdicts(parent, change, better, fails_more, verdict):
    assert pairs.compare(parent, change, better, 0.25, fails_more)["verdict"] == verdict


def test_a_gain_needs_nine_tenths_of_the_pairs():
    change = list(GAIN)
    change[0] = change[1] = 50.0  # two losses of ten
    got = pairs.compare(TIGHT, change, "higher", 0.25, False)
    assert (got["wins"], got["verdict"]) == (8, "within_bound")


def test_a_gain_needs_the_medians_apart_by_more_than_the_parent_iqr():
    change = [v + 0.5 for v in TIGHT]  # wins every pair, by less than the IQR of 1
    got = pairs.compare(TIGHT, change, "higher", 0.25, False)
    assert (got["wins"], got["verdict"]) == (10, "within_bound")


BENCH = {
    "command": ["python3", "perfbench/run.py"],
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [{"name": "ops_s", "unit": "1/s", "better": "higher", "bound": 0.25}],
    "run_seconds": 2.0,
}


def test_run_pairs_shares_a_seed_per_pair_and_alternates_the_first_side(monkeypatch):
    calls = []

    def fake_run_side(checkout, command, workload, seed, seconds):
        assert seconds == 2.0
        calls.append((checkout, workload, seed))
        if (checkout, workload, seed) == ("C", "w2", 2):
            return {"error": "exit 1: boom"}
        stamp = {"git_sha": checkout, "workload": workload, "seed": seed, "params": {}, "pinned_cpu": 0}
        ops = 100.0 + seed + (5 if checkout == "C" else 0)
        return {"stamp": stamp, "result": {"attempted": 10, "failed": 1, "metrics": {"ops_s": {"value": ops}}}}

    monkeypatch.setattr(pairs, "run_side", fake_run_side)
    record = pairs.run_pairs({"parent": "P", "change": "C"}, BENCH, pairs=3)
    assert calls == [
        ("P", "w1", 1), ("C", "w1", 1), ("P", "w2", 1), ("C", "w2", 1),
        ("C", "w1", 2), ("P", "w1", 2), ("C", "w2", 2), ("P", "w2", 2),
        ("P", "w1", 3), ("C", "w1", 3), ("P", "w2", 3), ("C", "w2", 3),
    ]
    assert record["seeds"] == [1, 2, 3] and record["first"] == ["parent", "change", "parent"]
    assert record["stamps"] == {"parent": [{"git_sha": "P"}], "change": [{"git_sha": "C"}]}
    w2 = record["workloads"]["w2"]
    assert w2["sides"]["change"] == {
        "runs_attempted": 3, "runs_failed": 1, "ops_attempted": 20, "ops_failed": 2, "errors": ["exit 1: boom"],
    }
    metric = w2["metrics"]["ops_s"]
    assert metric["change"]["runs"] == [106.0, None, 108.0]
    assert (metric["pairs_completed"], metric["wins"], metric["bound"]) == (2, 2, 0.25)


def test_run_pairs_withholds_a_gain_when_a_larger_share_of_the_change_s_operations_fails(monkeypatch):
    failed = {"P": 1, "C": 1}

    def fake_run_side(checkout, command, workload, seed, seconds):
        ops = 100.0 + seed + (5 if checkout == "C" else 0)
        return {"stamp": {}, "result": {"attempted": 10, "failed": failed[checkout], "metrics": {"ops_s": {"value": ops}}}}

    def verdict():
        return pairs.run_pairs({"parent": "P", "change": "C"}, BENCH, pairs=3)["workloads"]["w1"]["metrics"]["ops_s"]["verdict"]

    monkeypatch.setattr(pairs, "run_side", fake_run_side)
    assert verdict() == "better"
    failed["C"] = 2
    assert verdict() == "within_bound"
