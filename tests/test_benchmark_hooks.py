"""The benchmark's traced run wraps kiwi functions by name (perfbench/
layers.py) and fails when a span it expects records no calls. Installing
its tracer here on a small map makes a rename or a moved lookup fail the
test suite too, not only the traced benchmark run."""

import os
import sys

from kiwi import KiwiMap

from helpers import force_rebalance

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import layers  # noqa: E402
import spans  # noqa: E402


def test_traced_spans_record_calls_on_a_small_map():
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        m = KiwiMap(max_items=16, rng=lambda: 1.0)
        m.register_thread()
        for key in range(6):
            m.put(key, key * 10)
        assert m.get(3) == 30
        assert m.scan(1, 4) == [(1, 10), (2, 20), (3, 30), (4, 40)]
        assert force_rebalance(m, 0)
    finally:
        tracer.restore()
    tracer.require_calls([
        "core.find_insertion_location",
        "core.get",
        "core.scan",
        "rebalance.copy_range",
        "rebalance.copy_compact",
    ])
