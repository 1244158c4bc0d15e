"""Acceptance gate: one test per exit criterion, each printing a PASS
line with its measured numbers (run with -s to watch them live).

Criterion 9 (the 4-thread benchmark trend) states its own environment
precondition: at least 4 hardware threads: and is skipped below that;
on GIL interpreters it will run but cannot pass, since pure-Python map
operations never execute in parallel.
"""

import ast
import inspect
import os
import random
import textwrap
import time
from functools import partial

import pytest

from kiwi import (
    FuzzConfig,
    KiwiMap,
    LockedSortedMap,
    TOMBSTONE,
    WorkloadConfig,
    check_linearizable,
    run_workload,
    steady_state_init_size,
    validate_put_only_final_state,
)
from kiwi.fuzz import record_run
from kiwi.history import SIZE, IS_EMPTY

from helpers import assert_linearizable, assert_map_invariants, force_rebalance, fuzz_map, quiescent_items, total_mean, with_size_ops
from interleave import run_threads
from test_checker import bad_histories


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS: {detail}")


def test_c01_sequential_oracle_equivalence():
    """10^5 single-thread random put/get/scan ops over 2^10 keys match a
    dict oracle exactly, in under 30 seconds."""
    started = time.monotonic()
    rng = random.Random(0xACCE55)
    m = KiwiMap(max_threads=2)
    m.register_thread()
    oracle = {}
    ops = 100_000
    for step in range(ops):
        key = rng.randrange(1024)
        roll = rng.random()
        if roll < 0.40:
            value = rng.randrange(1 << 20)
            m.put(key, value)
            oracle[key] = value
        elif roll < 0.60:
            m.put(key, TOMBSTONE)
            oracle.pop(key, None)
        elif roll < 0.97:
            assert m.get(key) == oracle.get(key), f"get({key}) diverged at step {step}"
        else:
            hi = key + rng.randrange(64)
            expected = sorted((k, v) for k, v in oracle.items() if key <= k <= hi)
            assert m.scan(key, hi) == expected, f"scan diverged at step {step}"
    elapsed = time.monotonic() - started
    assert dict(m.items()) == oracle
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    report("C1", f"{ops} ops matched the oracle in {elapsed:.1f}s")


def test_c02_linearizability_fuzzing_500_histories(tmp_path):
    """500 fuzzed histories (2-3 threads, <= 40 ops, key range <= 8,
    delays at all four sensitive points) all check linearizable within
    10 minutes."""
    started = time.monotonic()
    checked = 0
    for seed in range(500):
        threads = 2 + seed % 2
        cfg = FuzzConfig(
            threads=threads,
            ops_per_thread=40 // threads,
            key_range=8,
            seed=seed,
            delay_prob=0.35,
            delay_max_s=0.0006,
        )
        history = record_run(cfg)
        assert len(history.records) <= 40
        assert_linearizable(history, tmp_path)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
    report("C2", f"{checked} fuzzed histories accepted in {elapsed:.1f}s")


def test_c03_checker_validity_both_directions():
    """The curated bad corpus is fully rejected; coarse-lock oracle runs
    are fully accepted."""
    corpus = bad_histories()
    assert len(corpus) >= 6
    for name, history in corpus.items():
        assert check_linearizable(history).status == "not-linearizable", name
    accepted = 0
    for seed in range(40):
        cfg = FuzzConfig(threads=2 + seed % 2, ops_per_thread=12, key_range=6, seed=seed)
        history = record_run(cfg, LockedSortedMap(max_threads=cfg.threads))
        assert check_linearizable(history).ok, f"locked-oracle seed {seed} rejected"
        accepted += 1
    report("C3", f"{len(corpus)} bad histories rejected, {accepted} locked-oracle histories accepted")


def test_c04_regression_suite():
    """The four historical-bug regressions, scripted: dataIndex-based
    newest selection, PPA-only gets, the tombstone insertion race, and
    the straightforward range copy against brute force on 10^3 random
    chunk contents."""
    import test_core_concurrent as concurrent
    from test_rebalance import run_copy_range_oracle_rounds

    concurrent.test_overwrite_updates_data_while_order_index_stays()
    concurrent.test_get_serves_versioned_put_from_ppa_before_list_insert()
    concurrent.test_tombstone_inserted_even_when_key_absent_from_list()
    run_copy_range_oracle_rounds(1000)
    report("C4", "dataIndex read, PPA-only get, tombstone race, 1000 copy-oracle rounds")


def test_c05_rebalance_preservation_100_runs():
    """100 runs: 4 writer threads fill >= 3x a 64-item chunk while a
    rebalancer forces splits; the drained content must replay from an
    accepted linearization and every chunk invariant must hold."""
    started = time.monotonic()
    for run in range(100):
        cfg = FuzzConfig(
            threads=4,
            ops_per_thread=160,  # 640 allocations >= 3 * 64
            key_range=96,
            seed=10_000 + run,
            mix={"put": 2, "delete": 1},
            delay_prob=0.0,
            max_items=64,
        )
        m = fuzz_map(cfg)
        history = record_run(cfg, m)

        def force_all():
            m.register_thread()
            for key in range(0, 96, 16):
                force_rebalance(m, key)

        run_threads(force_all, timeout=30.0)
        final = quiescent_items(m)
        assert validate_put_only_final_state(history, list(final.items())), f"run {run}"
        assert_map_invariants(m)
    elapsed = time.monotonic() - started
    report("C5", f"100 rebalance stress runs preserved content in {elapsed:.1f}s")


def test_c06_size_bound_bracketing_100_runs():
    """100 mixed put/delete stress runs with bounds enabled: at every
    quiescent checkpoint lower <= true size <= upper; pure distinct-key
    inserts with no retries give lower == upper == exact size."""
    started = time.monotonic()
    for run in range(100):
        m = KiwiMap(max_threads=9, max_items=256, bounds_enabled=True)
        m.register_thread()
        for phase in range(2):  # two quiescent checkpoints per run
            seeds = [run * 100 + phase * 10 + i for i in range(4)]
            run_threads(*[partial(_bounded_writer, m, seed) for seed in seeds], timeout=30.0)
            true_size = len(quiescent_items(m))
            lower, upper = m.size_lower_bound(), m.size_upper_bound()
            assert lower <= true_size <= upper, (run, phase, lower, true_size, upper)
    # exactness: pure inserts, distinct keys, rebalancing disabled
    for run in range(20):
        m = KiwiMap(max_threads=5, bounds_enabled=True, rng=lambda: 1.0)
        m.register_thread()
        count = 200

        def inserter(offset):
            for k in range(offset, count, 4):
                m.put(k, k)

        run_threads(*[partial(_registered, m, inserter, i) for i in range(4)], timeout=30.0)
        assert m.size_lower_bound() == count == m.size_upper_bound()
    elapsed = time.monotonic() - started
    report("C6", f"bracketing on 200 checkpoints, exactness on 20 insert runs, {elapsed:.1f}s")


def _bounded_writer(m, worker_seed):
    m.register_thread()
    wrng = random.Random(worker_seed)
    for _ in range(60):
        key = wrng.randrange(40)
        if wrng.random() < 0.5:
            m.put(key, TOMBSTONE)
        else:
            m.put(key, wrng.randrange(1000))


def _registered(m, fn, *args):
    m.register_thread()
    fn(*args)


def test_c07_size_compositions_linearize(tmp_path):
    """Short fuzzed runs mixing writes with size()/isEmpty(): every
    decided answer, recorded as an operation, leaves the history
    checker-accepted (whole histories of <= 25 ops)."""
    started = time.monotonic()
    decided = 0
    for seed in range(100):
        cfg = with_size_ops(FuzzConfig(
            threads=3,
            ops_per_thread=8,  # 24 ops <= 25
            key_range=6,
            seed=30_000 + seed,
            delay_prob=0.3,
            delay_max_s=0.0005,
        ))
        history = record_run(cfg)
        assert len(history.records) <= 25
        assert_linearizable(history, tmp_path)
        decided += sum(
            1
            for r in history.records
            if r.kind in (SIZE, IS_EMPTY) and r.result is not None
        )
    elapsed = time.monotonic() - started
    assert decided > 0, "no size/isEmpty call ever decided; protocol too weak to test"
    report("C7", f"{decided} decided size/isEmpty answers linearized in {elapsed:.1f}s")


def test_c08_steady_state_sizing_rule():
    assert steady_state_init_size(2_000_000, 50, 50) == 1_000_000
    report("C8", "steady_state_init_size(2,000,000, 50, 50) == 1,000,000")


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="criterion requires >= 4 hardware threads (desk-scale precondition)",
)
def test_c09_benchmark_trend_check():
    """4-thread throughput >= 1.5x 1-thread for the concurrent map on
    GetOnly and HalfPutDeleteHalfScan; the coarse-lock reference fails
    that ratio on at least one of the two. Rerun up to 3x for scheduler
    noise."""
    def measure(name, impl, threads):
        cfg = WorkloadConfig(
            name=name,
            threads=threads,
            key_range_max=16_384,
            run_seconds=1.0,
            iterations=3,
            seed=7,
        )
        return total_mean(run_workload(cfg, impl))

    workloads = ("GetOnly", "HalfPutDeleteHalfScan")
    for attempt in range(3):
        kiwi_ratios = {}
        locked_ratios = {}
        for name in workloads:
            kiwi_ratios[name] = measure(name, "kiwi", 4) / measure(name, "kiwi", 1)
            locked_ratios[name] = measure(name, "locked", 4) / measure(name, "locked", 1)
        kiwi_ok = all(ratio >= 1.5 for ratio in kiwi_ratios.values())
        locked_fails_one = any(ratio < 1.5 for ratio in locked_ratios.values())
        if kiwi_ok and locked_fails_one:
            report(
                "C9",
                f"kiwi ratios {kiwi_ratios}, locked ratios {locked_ratios} (attempt {attempt + 1})",
            )
            return
    pytest.fail(f"trend check failed 3 attempts: kiwi={kiwi_ratios} locked={locked_ratios}")


def test_c10_wait_free_structural_audit():
    """get, scan and the size-bound reads must contain no retry loop: no
    while-True anywhere on their call graph, and every while loop there is
    one of the known forward-only list walks to END. find_chunk is one
    bisect, and scan walks the chunks of one index snapshot by a for loop,
    with no while loop at all. put's retry loops are exempt by contract."""
    from kiwi import atomics, bounds, chunk, rebalance

    wait_free_functions = {
        "get": KiwiMap.get,
        "scan": KiwiMap.scan,
        "find_chunk": KiwiMap.find_chunk,
        "help_pending_puts": KiwiMap.help_pending_puts,
        "find_insertion_location": chunk.find_insertion_location,
        "_min_active_scan_version": KiwiMap._min_active_scan_version,
        "copy_range": rebalance.copy_range,
        "_prefix_search_before": chunk._prefix_search_before,
        "size_lower_bound": bounds.BoundsCounters.size_lower_bound,
        "size_upper_bound": bounds.BoundsCounters.size_upper_bound,
        "size": bounds.BoundsCounters.size,
        "is_empty": bounds.BoundsCounters.is_empty,
        "AtomicInt.get": atomics.AtomicInt.get,
    }
    allowed_while_loops = {
        "find_insertion_location": 1,  # list walk, bounded by chunk capacity
        "copy_range": 1,  # list walk, bounded by chunk capacity
    }
    for name, fn in wait_free_functions.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        whiles = [node for node in ast.walk(tree) if isinstance(node, ast.While)]
        for node in whiles:
            is_while_true = isinstance(node.test, ast.Constant) and node.test.value is True
            assert not is_while_true, f"{name} contains an unbounded while-True loop"
        assert len(whiles) <= allowed_while_loops.get(name, 0), (
            f"{name} has {len(whiles)} while loops; audit allows {allowed_while_loops.get(name, 0)}"
        )
    report("C10", f"{len(wait_free_functions)} wait-free-path functions audited")
