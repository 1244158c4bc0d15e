"""Tests of the benchmark itself (not collected by the repository's suite):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import corpus  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kiwi import KiwiMap, checker  # noqa: E402


@pytest.fixture(scope="module")
def probe():
    return workloads.SpeedProbe()


def test_prefill_chunk_count_repeats_for_a_seed(tmp_path, probe):
    counts = []
    for _ in range(2):
        rnd = workloads.Round(workloads.READ_MOSTLY, 7, str(tmp_path), probe)
        counts.append(rnd.chunks_after_prefill)
        rnd.close()
    assert counts[0] == counts[1] > 1


def test_corpus_verdicts_and_node_total_repeat_for_a_seed():
    totals = []
    for _ in range(2):
        built = corpus.build(3)
        assert len(built) == 2 * corpus.HISTORIES
        total = 0
        for hist, linearizable in built:
            assert hist.has_overlap()
            result = checker.check_linearizable(hist)
            assert result.status == (checker.LINEARIZABLE if linearizable else checker.NOT_LINEARIZABLE)
            total += result.nodes_used
        totals.append(total)
    assert totals[0] == totals[1]


def test_self_time_excludes_children():
    ticks = iter(range(0, 10_000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrapper("inner", lambda: None)
    outer = tracer.wrapper("outer", lambda: (inner(), inner()))
    outer()
    rows = tracer.rows()
    # each span reads the clock twice; outer's interval holds both inner ones
    assert rows["inner"][:3] == [2, 20, 20]
    assert rows["outer"][:3] == [1, 50, 30]


def test_function_is_wrapped_wherever_the_package_binds_it():
    home = types.ModuleType("pkgx.home")
    other = types.ModuleType("pkgx.other")
    home.f = lambda: 1
    other.f = home.f  # as `from .home import f`
    sys.modules.update({"pkgx": types.ModuleType("pkgx"), "pkgx.home": home, "pkgx.other": other})
    try:
        tracer = spans.Tracer()
        tracer.wrap_function("pkgx.f", home, "f")
        assert other.f() == 1 and home.f() == 1
        assert tracer.rows()["pkgx.f"][spans.CALLS] == 2
        tracer.restore()
        assert not hasattr(other.f, "__wrapped__")
    finally:
        for name in ("pkgx", "pkgx.home", "pkgx.other"):
            del sys.modules[name]


def test_expected_span_with_zero_calls_fails_loudly():
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        m = KiwiMap(max_threads=1, max_items=64)
        m.register_thread()
        m.put(1, 1)
        m.get(1)
    finally:
        tracer.restore()
    tracer.require_calls(["core.put", "core.get", "rebalance.check_rebalance"])
    with pytest.raises(spans.MissingSpanError, match="rebalance.copy_range"):
        tracer.require_calls(["core.put", "rebalance.copy_range"])


def test_every_layer_metric_in_benchmark_json_is_produced():
    import json

    tracer = spans.Tracer()
    layers.install(tracer)
    tracer.restore()
    produced = set(layers.span_metrics(tracer.rows())) | {
        "bounds.slack", "core.chunks.after_prefill", "checker.check_linearizable.nodes", "trace.empty_span_us",
    } | {f"trace.{k}_ops_s.{w}" for k in layers.OVERHEAD_KINDS for w in ("untraced", "traced")}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert produced == declared


def test_wrong_get_results_count_as_failures(tmp_path, monkeypatch, probe):
    rnd = workloads.Round(workloads.READ_MOSTLY, 5, str(tmp_path), probe)
    try:
        monkeypatch.setattr(KiwiMap, "get", lambda self, key: workloads.encode(key + 1, 0))
        segments = rnd.run([0.2])
    finally:
        rnd.close()
    assert sum(log.failed for log in rnd.logs) > 0
    assert "returned" in rnd.logs[0].errors[0]
    assert all(len(seg.probes) == 2 and seg.speed > 0 for seg in segments)


def test_lost_write_fails_the_quiescent_replay(tmp_path, probe):
    rnd = workloads.Round(workloads.CHURN_SCAN, 5, str(tmp_path), probe)
    try:
        rnd.run([0.2])
        key, value = rnd.logs[0].writes[-1]
        rnd.logs[0].writes.append((key, workloads.encode(key, 12345)))  # never put
        attempted, failed = rnd.verify()
    finally:
        rnd.close()
    assert failed >= 1 and "items_vs_replay" in rnd.checks
