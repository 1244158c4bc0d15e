"""Linearizability fuzzing under rebalance pressure: tiny chunks make
every run split repeatedly while readers, scanners, and writers race the
freeze/help/copy/replace pipeline. This is the regime the original
testing effort left thinnest, so it gets its own gate."""

from kiwi import FuzzConfig
from kiwi.fuzz import record_run

from helpers import assert_linearizable


def test_single_chunk_range_with_constant_splits(tmp_path):
    for seed in range(60):
        cfg = FuzzConfig(
            threads=2 + seed % 2,
            ops_per_thread=13,
            key_range=8,
            seed=seed,
            max_items=8,
            delay_prob=0.35,
            delay_max_s=0.0005,
        )
        assert_linearizable(record_run(cfg), tmp_path)


def test_multi_chunk_scans_during_splits(tmp_path):
    for seed in range(60):
        cfg = FuzzConfig(
            threads=3,
            ops_per_thread=13,
            key_range=24,
            seed=seed,
            max_items=6,
            delay_prob=0.3,
            delay_max_s=0.0004,
            scan_span=24,
            mix={"put": 3, "delete": 2, "get": 3, "scan": 2},
        )
        assert_linearizable(record_run(cfg), tmp_path, node_budget=4_000_000)
