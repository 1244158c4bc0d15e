"""The fuzzed-run recorder: determinism, overlap, pause-site coverage
on both maps, the recipe a history records, the configs it refuses, the
deadline that fails a stuck worker, and the locked-oracle calibration
runs."""

import sys
import threading
import time

import pytest

from kiwi import (
    LINEARIZABLE,
    FuzzConfig,
    KiwiMap,
    LockedSortedMap,
    TOMBSTONE,
    RegistrationError,
    check_linearizable,
    generate_ops,
    load_history,
    record_run,
    save_history,
)
from kiwi import cli, workers
from kiwi.fuzz import PAUSE_SITES
from kiwi.history import PUT

from helpers import SIZE_MIX, with_size_ops
from interleave import pause_sites_met, run_threads


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
    """The fuzzer's delays come from a trace function that matches pause
    sites by function name, so a renamed or moved site would turn them off
    without an error. One put on the concurrent map meets its four sites
    once each, in lifecycle order."""
    m = KiwiMap(max_threads=1)
    m.register_thread()
    assert pause_sites_met(lambda: m.put(1, 10)) == [
        ("put", "on_put_published"), ("put", "store_fence"), ("put", "cas_version"), ("put", "add_to_linked_list"),
    ]


def test_locked_map_pauses_once_per_operation_before_its_lock():
    # Each put, delete, get and scan on the oracle meets its one pause
    # site once, at the slot check, with the map's lock not yet held.
    oracle = LockedSortedMap(max_threads=1)
    oracle.register_thread()
    ops = lambda: (oracle.put(1, 10), oracle.get(1), oracle.scan(0, 5), oracle.put(1, TOMBSTONE))
    assert pause_sites_met(ops, state=oracle._lock.locked) == [
        ("put", "_require_slot", False), ("get", "_require_slot", False),
        ("scan", "_require_slot", False), ("put", "_require_slot", False),
    ]


def test_history_metadata_rebuilds_the_whole_recipe(tmp_path):
    cfg = with_size_ops(
        FuzzConfig(threads=2, ops_per_thread=12, key_range=4, seed=17, max_items=8, scan_span=3)
    )
    path = str(tmp_path / "h.jsonl")
    save_history(record_run(cfg), path)
    assert FuzzConfig(**load_history(path).meta) == cfg


def test_size_mix_records_size_ops():
    cfg = with_size_ops(FuzzConfig(threads=2, ops_per_thread=25, key_range=4, seed=11))
    assert cfg.bounds_enabled
    history = record_run(cfg)
    kinds = {r.kind for r in history.records}
    assert "size" in kinds or "is_empty" in kinds


def test_locked_oracle_runs_are_linearizable_with_overlap():
    for seed in range(5):
        cfg = FuzzConfig(threads=3, ops_per_thread=10, key_range=5, seed=seed)
        history = record_run(cfg, LockedSortedMap(max_threads=cfg.threads))
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
    """Two workers on a one-slot map: the one that cannot register, just
    past the start barrier, fails record_run with its error instead of
    hanging, and the switch interval it shortened is restored."""
    interval = sys.getswitchinterval()
    cfg = FuzzConfig(threads=2, ops_per_thread=5, seed=1)

    def attempt():
        record_run(cfg, LockedSortedMap(max_threads=1))

    with pytest.raises(RegistrationError):
        run_threads(attempt, timeout=10.0)
    assert sys.getswitchinterval() == interval


def test_a_stuck_worker_fails_record_run_at_its_bound_by_name(monkeypatch, tmp_path, capsys):
    """A worker whose puts never return: record_run, and the fuzz command,
    fail at the run's bound with TimeoutError naming it, not a hang."""
    monkeypatch.setattr(workers, "MARGIN_S", 0.5)
    release = threading.Event()

    class StuckPuts(LockedSortedMap):
        def put(self, key, value):
            if threading.current_thread().name == "worker-1":
                release.wait()
            super().put(key, value)

    def stuck_run(config):
        return record_run(config, StuckPuts(max_threads=config.threads))

    cfg = FuzzConfig(threads=2, ops_per_thread=3, mix={PUT: 1}, delay_prob=0.0)
    bound = 0.5 + 3 * len(PAUSE_SITES) * cfg.delay_max_s  # the margin plus the worst-case sleeps
    codes = []
    monkeypatch.setattr(cli, "record_run", stuck_run)
    argv = ["fuzz", "--threads", "2", "--ops", "4", "--out", str(tmp_path / "h.jsonl")]
    try:
        started = time.monotonic()
        with pytest.raises(TimeoutError, match=rf"still alive after {bound:g} s: worker-1$"):
            run_threads(lambda: stuck_run(cfg), timeout=10.0)
        assert time.monotonic() - started < bound + 1.0
        run_threads(lambda: codes.append(cli.main(argv)), timeout=10.0)
    finally:
        release.set()
    assert codes == [2]
    assert capsys.readouterr().err.endswith(" s: worker-1\n")


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(threads=0)
    with pytest.raises(ValueError):
        FuzzConfig(key_range=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("ops_per_thread", -3),
        ("delay_prob", 2.0),
        ("delay_prob", float("nan")),
        ("scan_span", 0),
        ("delay_max_s", -0.001),
        ("delay_max_s", float("nan")),
        ("delay_max_s", float("inf")),
        ("mix", {"put": 0}),
        ("mix", {"bogus": 1}),
        ("mix", {"put": -1, "get": 2}),
        ("max_items", 1),
        ("bounds_enabled", False),  # with size ops in the mix
    ],
    ids=str,
)
def test_config_refuses_a_recipe_it_cannot_run(field, value):
    """A recipe comes back from a history file as FuzzConfig(**meta), so
    the config refuses, naming the field, what would otherwise fail late
    inside a worker, or record a wrong run without complaint."""
    recipe = dict(mix=dict(SIZE_MIX), bounds_enabled=True)
    recipe[field] = value
    with pytest.raises(ValueError, match=field):
        FuzzConfig(**recipe)
