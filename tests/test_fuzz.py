"""The fuzzed-run recorder: determinism, overlap, delay-point coverage,
and the locked-oracle calibration runs."""

import sys
import threading

import pytest

from kiwi import (
    LINEARIZABLE,
    FuzzConfig,
    KiwiMap,
    LockedSortedMap,
    RegistrationError,
    check_linearizable,
    generate_ops,
    record_locked_oracle_run,
    record_run,
)
from kiwi.core import POST_ALLOCATE, POST_PUBLISH, PRE_LIST_CAS, PRE_VERSION_CAS
from kiwi.history import PUT

from helpers import with_size_ops


def test_single_thread_run_records_sequentially():
    cfg = FuzzConfig(threads=1, ops_per_thread=10, key_range=4, seed=1)
    history = record_run(cfg)
    assert len(history.records) == 10
    history.validate()
    assert not history.has_overlap()


def test_multi_thread_run_overlaps():
    overlapping = 0
    for seed in range(5):
        cfg = FuzzConfig(threads=2, ops_per_thread=15, key_range=4, seed=seed)
        history = record_run(cfg)
        assert len(history.records) == 30
        overlapping += history.has_overlap()
    assert overlapping >= 4  # delays at sensitive points force overlap


def test_same_seed_same_op_sequences():
    cfg = FuzzConfig(threads=3, ops_per_thread=20, key_range=8, seed=99)
    first = [generate_ops(cfg, tid) for tid in range(3)]
    second = [generate_ops(cfg, tid) for tid in range(3)]
    assert first == second
    h1 = record_run(cfg)
    h2 = record_run(cfg)
    for tid in range(3):
        ops1 = [(r.kind, r.args) for r in h1.records if r.thread_id == tid]
        ops2 = [(r.kind, r.args) for r in h2.records if r.thread_id == tid]
        assert ops1 == ops2  # sequences identical; only timing differs


def test_different_threads_get_different_streams():
    cfg = FuzzConfig(threads=2, ops_per_thread=30, key_range=8, seed=5)
    assert generate_ops(cfg, 0) != generate_ops(cfg, 1)


def test_put_passes_every_pause_point_in_lifecycle_order():
    # The fuzz delay hook fires wherever put calls it; one put must reach
    # all four sensitive points, each once, in lifecycle order.
    m = KiwiMap(max_threads=1)
    m.register_thread()
    points = []
    m.set_pause_hook(points.append)
    m.put(1, 10)
    assert points == [POST_ALLOCATE, POST_PUBLISH, PRE_VERSION_CAS, PRE_LIST_CAS]


def test_size_mix_records_size_ops():
    cfg = with_size_ops(FuzzConfig(threads=2, ops_per_thread=25, key_range=4, seed=11))
    assert cfg.bounds_enabled
    history = record_run(cfg)
    kinds = {r.kind for r in history.records}
    assert "size" in kinds or "is_empty" in kinds


def test_locked_oracle_runs_are_linearizable_with_overlap():
    for seed in range(5):
        cfg = FuzzConfig(threads=3, ops_per_thread=10, key_range=5, seed=seed)
        history = record_locked_oracle_run(cfg)
        assert history.has_overlap()
        assert check_linearizable(history).ok


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_long_fuzz_histories_are_linearizable(threads):
    """About 200 ops per history, five times C2's; max_items=16 adds
    rebalance to the recorded runs."""
    for seed in range(3):
        for max_items in (4500, 16):
            cfg = FuzzConfig(
                threads=threads, ops_per_thread=200 // threads, key_range=8, seed=seed, max_items=max_items
            )
            history = record_run(cfg)
            assert len(history.records) >= 198
            result = check_linearizable(history, node_budget=2_000_000)
            assert result.status == LINEARIZABLE, f"seed {seed}, max_items {max_items}: {result.status}"


def test_put_delete_mix_is_put_only():
    cfg = FuzzConfig(threads=2, ops_per_thread=20, key_range=8, seed=3, mix={"put": 1, "delete": 1})
    history = record_run(cfg)
    assert {r.kind for r in history.records} == {PUT}
    tombstones = [r for r in history.records if r.args[1] is None]
    assert tombstones  # deletes are put(key, tombstone)


def test_worker_failing_before_the_start_line_raises():
    """Two workers on a one-slot map: the one that cannot register breaks
    the start barrier, record_run raises its error instead of hanging,
    and the switch interval it shortened is restored."""
    interval = sys.getswitchinterval()
    cfg = FuzzConfig(threads=2, ops_per_thread=5, seed=1)
    errors = []

    def attempt():
        try:
            record_run(cfg, map_factory=lambda: LockedSortedMap(max_threads=1))
        except Exception as exc:
            errors.append(exc)

    t = threading.Thread(target=attempt, daemon=True)
    t.start()
    t.join(10.0)
    assert not t.is_alive()
    assert len(errors) == 1 and isinstance(errors[0], RegistrationError)
    assert sys.getswitchinterval() == interval


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(threads=0)
    with pytest.raises(ValueError):
        FuzzConfig(key_range=0)
