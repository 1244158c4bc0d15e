"""Size-bound accounting: the per-case settlement rules, quiescent
exactness and bracketing, the composed size()/is_empty(), bound reads
that puts landing mid-read cannot tear, and the disabled-mode contract."""

import random
import threading
from functools import partial

import pytest

from kiwi import BoundsDisabledError, KiwiMap, TOMBSTONE
from kiwi import core
from kiwi.bounds import BoundsCounters
from kiwi.core import FROZEN

from helpers import assert_map_invariants, force_rebalance, quiescent_items, walk_list
from interleave import ParkedThread, PutGate, join_threads, run_threads, run_with_interference, start_thread


def make_counters(enabled=True):
    return BoundsCounters(enabled=enabled)


# ---------------- unit rules ----------------

def test_publish_moves_are_conservative():
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (-1, 0)
    c.on_put_published(is_tombstone=False)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (-1, 1)
    c.on_put_undone(is_tombstone=True)
    c.on_put_undone(is_tombstone=False)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (0, 0)


def test_overwrite_shadowed_by_higher_version_undoes():
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    c.update_count_after_overwrite(True, True, None)
    assert c.size_lower_bound() == 0  # undone: certainly not removed

    c = make_counters()
    c.on_put_published(is_tombstone=False)
    c.update_count_after_overwrite(False, True, False)
    assert c.size_upper_bound() == 0  # undone: certainly not added


def test_overwrite_witness_invalid_tolerates_uncertainty():
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    c.update_count_after_overwrite(True, False, None)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (-1, 0)  # stays loose


def test_overwrite_settles_on_old_data():
    # tombstone over tombstone: nothing removed -> lower undone
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    c.update_count_after_overwrite(True, False, True)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (0, 0)

    # value over tombstone: certainly added -> lower joins upper
    c = make_counters()
    c.on_put_published(is_tombstone=False)
    c.update_count_after_overwrite(False, False, True)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (1, 1)

    # tombstone over value: certainly removed -> upper tightens
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    c.update_count_after_overwrite(True, False, False)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (-1, -1)

    # value over value: nothing added -> upper undone
    c = make_counters()
    c.on_put_published(is_tombstone=False)
    c.update_count_after_overwrite(False, False, False)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (0, 0)


def test_insert_settlement_rule_table():
    # next key greater, tombstone: key was absent, nothing removed
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    c.update_count_after_insert(True, False, True)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (0, 0)

    # next key greater, value: certainly added
    c = make_counters()
    c.on_put_published(is_tombstone=False)
    c.update_count_after_insert(False, False, True)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (1, 1)

    # same key below with validated tombstone data: absent
    c = make_counters()
    c.on_put_published(is_tombstone=False)
    c.update_count_after_insert(False, False, True)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (1, 1)

    # same key below with validated real data: present -> tombstone removes
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    c.update_count_after_insert(True, False, False)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (-1, -1)

    # higher version of the key precedes: shadowed, undo
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    c.update_count_after_insert(True, True, None)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (0, 0)

    # witness invalid on same-key next: uncertainty tolerated
    c = make_counters()
    c.on_put_published(is_tombstone=True)
    c.update_count_after_insert(True, False, None)
    assert (c.size_lower_bound(), c.size_upper_bound()) == (-1, 0)


# ---------------- map-level accounting ----------------

def test_sequential_lifecycle_keeps_bounds_exact():
    m = KiwiMap(max_threads=2, bounds_enabled=True)
    m.register_thread()
    checkpoints = []
    script = [
        (1, 11), (1, 12), (1, TOMBSTONE), (1, TOMBSTONE), (1, 13),
        (2, TOMBSTONE), (2, 21), (3, 31), (2, TOMBSTONE),
    ]
    oracle = {}
    for key, value in script:
        m.put(key, value)
        if value is TOMBSTONE:
            oracle.pop(key, None)
        else:
            oracle[key] = value
        checkpoints.append((m.size_lower_bound(), len(oracle), m.size_upper_bound()))
    for lower, true_size, upper in checkpoints:
        assert lower == true_size == upper


def test_quiescent_exactness_distinct_inserts():
    m = KiwiMap(max_threads=2, bounds_enabled=True, rng=lambda: 1.0)
    m.register_thread()
    for k in range(100):
        m.put(k, k)
    assert m.size_lower_bound() == 100
    assert m.size_upper_bound() == 100
    assert m.size() == 100


def test_inserts_over_older_versions_keep_bounds_exact():
    """Scans advance the global version, so later puts of a key insert a
    new version above an older one; the settlement then reads that older
    version's data (tombstone or value) as the witness of presence."""
    for seed in range(20):
        m = KiwiMap(
            max_threads=2,
            max_items=32,
            bounds_enabled=True,
            rng=lambda: 1.0,
        )
        m.register_thread()
        rng = random.Random(seed)
        oracle = {}
        for step in range(300):
            if rng.random() < 0.3:
                m.scan(0, 11)
            key = rng.randrange(12)
            if rng.random() < 0.45:
                m.put(key, TOMBSTONE)
                oracle.pop(key, None)
            else:
                oracle[key] = step
                m.put(key, step)
            assert m.size_lower_bound() == len(oracle) == m.size_upper_bound(), (seed, step)


def test_insert_whose_older_version_is_overwritten_meanwhile_stays_loose(monkeypatch):
    """An insert above an older version reads that version's dataIndex as
    its witness. A same-version tombstone overwrite that lands between the
    read and the insert's list CAS raises that dataIndex, so the witness
    is void: the insert settles nothing, and the bounds bracket the size
    loosely instead of claiming the value was already present."""
    m = KiwiMap(max_threads=2, bounds_enabled=True, rng=lambda: 1.0)
    m.register_thread()
    m.put(7, 70)  # linked at the current global version

    def tombstone():
        m.register_thread()
        m.put(7, TOMBSTONE)  # same version as the linked entry

    gate = PutGate("add_to_linked_list", tombstone)
    gate.wait_arrived()
    m.scan(0, 10)  # the value put below gets a newer version
    real_advance = KiwiMap._advance_entry_next
    released = []

    def advance_after_overwrite(chunk, entry, candidate):
        if not released:
            # The value put has read the older entry's dataIndex; let the
            # tombstone overwrite that entry before the value put links.
            released.append(True)
            gate.finish()
        real_advance(chunk, entry, candidate)

    monkeypatch.setattr(KiwiMap, "_advance_entry_next", staticmethod(advance_after_overwrite))
    m.put(7, 71)
    assert released
    assert m.get(7) == 71
    assert m.size_lower_bound() == 0
    assert m.size_upper_bound() == 1
    assert_map_invariants(m)


_COUNTER_HOOKS = (
    "on_put_published", "on_put_undone", "update_count_after_insert", "update_count_after_overwrite",
)


def record_hook_calls(monkeypatch):
    """Wrap every counter-moving BoundsCounters hook; returns the list of
    hook names called, in call order (list.append is atomic per call)."""
    calls = []
    for name in _COUNTER_HOOKS:
        def wrapper(self, *args, _name=name, _hook=getattr(BoundsCounters, name), **kwargs):
            calls.append(_name)
            return _hook(self, *args, **kwargs)

        monkeypatch.setattr(BoundsCounters, name, wrapper)
    return calls


def test_reads_never_touch_counters(monkeypatch):
    calls = record_hook_calls(monkeypatch)
    m = KiwiMap(max_threads=2, bounds_enabled=True)
    m.register_thread()
    m.put(1, 10)
    calls_after_put = len(calls)
    for _ in range(20):
        m.get(1)
        m.scan(0, 5)
        m.size_lower_bound()
        m.is_empty()
    assert len(calls) == calls_after_put


def test_bracketing_under_concurrent_churn():
    for seed in range(8):
        m = KiwiMap(max_threads=5, max_items=64, bounds_enabled=True)
        m.register_thread()
        rng = random.Random(seed)

        def writer(worker_seed):
            m.register_thread()
            wrng = random.Random(worker_seed)
            for _ in range(150):
                key = wrng.randrange(48)
                if wrng.random() < 0.5:
                    m.put(key, TOMBSTONE)
                else:
                    m.put(key, wrng.randrange(1000))

        run_threads(*[partial(writer, seed * 10 + i) for i in range(4)], timeout=30.0)
        true_size = len(quiescent_items(m))
        lower, upper = m.size_lower_bound(), m.size_upper_bound()
        assert lower <= true_size <= upper, (seed, lower, true_size, upper)
        assert_map_invariants(m)


def test_conservative_direction_with_parked_puts():
    """A tombstone put parked at any published lifecycle stage already
    counts as removed in the lower bound; a parked insert already counts
    as added in the upper bound. Before publish, nothing moves."""
    for point in ("on_put_published", "store_fence", "cas_version", "add_to_linked_list"):
        for tombstone in (True, False):
            m = KiwiMap(max_threads=4, bounds_enabled=True)
            m.register_thread()
            m.put(1, 10)
            m.put(2, 20)
            assert (m.size_lower_bound(), m.size_upper_bound()) == (2, 2)

            def parked():
                m.register_thread()
                m.put(1 if tombstone else 9, TOMBSTONE if tombstone else 90)

            gate = PutGate(point, parked)
            gate.wait_arrived()
            lower, upper = m.size_lower_bound(), m.size_upper_bound()
            if point == "on_put_published":  # not yet published: untouched
                assert (lower, upper) == (2, 2), point
            elif tombstone:
                # present-and-not-pending-tombstone keys: just key 2
                assert lower <= 1, (point, lower)
                assert upper == 2, (point, upper)
            else:
                # present-or-pending keys: 1, 2 and the incoming 9
                assert upper >= 3, (point, upper)
                assert lower == 2, (point, lower)
            gate.finish()
            expected = 1 if tombstone else 3
            assert m.size_lower_bound() == expected == m.size_upper_bound()


def test_retry_paths_pair_undo_with_redo(monkeypatch):
    """Forced freezes make puts retry; every conservative move must be
    netted by exactly one undo or settlement, so quiescent sums bracket."""
    calls = record_hook_calls(monkeypatch)
    m = KiwiMap(max_threads=3, max_items=16, bounds_enabled=True)
    m.register_thread()
    stop = threading.Event()

    def rebalancer():
        m.register_thread()
        while not stop.is_set():
            force_rebalance(m, 8)

    t = start_thread(rebalancer)
    rng = random.Random(5)
    oracle_keys = set()
    for _ in range(400):
        key = rng.randrange(24)
        if rng.random() < 0.4:
            m.put(key, TOMBSTONE)
            oracle_keys.discard(key)
        else:
            m.put(key, 1)
            oracle_keys.add(key)
    stop.set()
    join_threads(t, timeout=10.0)
    published = calls.count("on_put_published")
    undone = calls.count("on_put_undone")
    assert undone <= published
    true_size = len(quiescent_items(m))
    assert m.size_lower_bound() <= true_size <= m.size_upper_bound()


def test_put_that_finds_its_chunk_frozen_after_publish_seals_undoes_and_retries(monkeypatch):
    """freeze_chunk sets the frozen flag before its seal pass. A put parked
    after its PPA publish that wakes to that flag seals its own entry from
    NONE, undoes its conservative move exactly once, and retries into the
    replacement chunk; get and both bounds come out exact."""
    calls = record_hook_calls(monkeypatch)
    m = KiwiMap(max_threads=2, bounds_enabled=True, rng=lambda: 1.0)
    m.register_thread()
    m.put(1, 10)
    m.put(2, 20)
    entry_at_freeze = []
    real_freeze = core.freeze_chunk

    def traced_freeze(c):
        entry_at_freeze.append(entry.version)
        real_freeze(c)

    monkeypatch.setattr(core, "freeze_chunk", traced_freeze)
    del calls[:]

    def parked():
        m.register_thread()
        m.put(9, 90)

    gate = PutGate("store_fence", parked)  # after its PPA publish
    gate.wait_arrived()
    chunk = m.find_chunk(9)
    (idx,) = [i for i in chunk.ppa if i is not None]
    entry = chunk.order[idx]
    chunk.frozen = True  # freeze_chunk's first step; no seal pass has run
    gate.finish()

    assert entry_at_freeze == [FROZEN]  # sealed by the put before any seal pass
    assert calls.count("on_put_undone") == 1
    assert calls.count("on_put_published") == 2  # the undone attempt and the retry
    new_chunk = m.find_chunk(9)
    assert m.chunks() == [new_chunk] and new_chunk is not chunk
    assert [e.key for e in walk_list(new_chunk)] == [1, 2, 9]
    assert m.get(9) == 90
    assert m.size_lower_bound() == 3 == m.size_upper_bound()
    assert_map_invariants(m)


# ---------------- composed operations ----------------

def test_is_empty_tristate():
    m = KiwiMap(max_threads=2, bounds_enabled=True)
    m.register_thread()
    assert m.is_empty() is True
    m.put(1, 10)
    assert m.is_empty() is False
    m.put(1, TOMBSTONE)
    assert m.is_empty() is True


def test_is_empty_unknown_between_bounds():
    c = make_counters()
    for _ in range(3):
        c.on_put_published(is_tombstone=False)  # three unsettled value puts
    assert (c.size_lower_bound(), c.size_upper_bound()) == (0, 3)
    assert c.is_empty() is None


def test_size_known_on_equality():
    c = make_counters()
    for _ in range(5):
        c.on_put_published(is_tombstone=False)
        c.update_count_after_insert(False, False, True)  # each added a key
    assert (c.size_lower_bound(), c.size_upper_bound()) == (5, 5)
    assert c.size() == 5


def test_size_unknown_when_guards_fail():
    class Scripted(BoundsCounters):
        def __init__(self):
            super().__init__(True)
            self.lower_reads = iter([3, 4])

        def size_lower_bound(self):
            return next(self.lower_reads)

        def size_upper_bound(self):
            return 7

    assert Scripted().size() is None


def test_size_second_lower_read_can_close():
    class Scripted(BoundsCounters):
        def __init__(self):
            super().__init__(True)
            self.lower_reads = iter([3, 7])

        def size_lower_bound(self):
            return next(self.lower_reads)

        def size_upper_bound(self):
            return 7

    assert Scripted().size() == 7


_TRACED_MODULES = ("kiwi.bounds", "kiwi.atomics")

# Key 1 is present. Tombstone first: the map holds 1, 0, 1 keys and the
# lower bound reads 1, 0, 0, 0, 1. Value first: the map holds 1, 2, 1
# keys and the upper bound reads 1, 2, 2, 2, 1.
_TOMBSTONE_FIRST = ((1, TOMBSTONE), (2, 20))
_VALUE_FIRST = ((2, 20), (1, TOMBSTONE))


@pytest.mark.parametrize("read, puts, allowed", [
    ("size_lower_bound", _TOMBSTONE_FIRST, {0, 1}),
    ("size_upper_bound", _VALUE_FIRST, {1, 2}),
    ("size", _VALUE_FIRST, {None, 1, 2}),
    ("is_empty", _VALUE_FIRST, {None, False}),
])
def test_bound_read_is_not_torn(read, puts, allowed):
    """Two whole puts land at each opcode boundary of one read in turn;
    the read must still give a value the bound (or, for size and
    is_empty, the map) had at some instant of the call. The first put's
    thread holds the first registration slot, so a read that visited
    per-thread parts in slot order could miss that put's move and see
    the second put's."""
    # On 3.12 the first traced run of a code object meets no opcode
    # boundary (ROADMAP item 5): one traced read on a throwaway map first.
    throwaway = KiwiMap(max_threads=1, bounds_enabled=True)
    run_with_interference(getattr(throwaway, read), lambda: None, 0, _TRACED_MODULES)
    k = 0
    while True:
        m = KiwiMap(max_threads=3, bounds_enabled=True)
        workers = [ParkedThread(m), ParkedThread(m)]
        try:
            workers[0].run(lambda: m.put(1, 10))

            def interfere():
                for worker, (key, value) in zip(workers, puts):
                    worker.run(lambda: m.put(key, value))

            result, reached = run_with_interference(getattr(m, read), interfere, k, _TRACED_MODULES)
        finally:
            for worker in workers:
                worker.stop()
        assert result in allowed, (read, k, result)
        if not reached:
            break
        k += 1
    assert k > 0


def test_quiescent_size_known():
    m = KiwiMap(max_threads=2, bounds_enabled=True)
    m.register_thread()
    for k in range(42):
        m.put(k, k)
    assert m.size() == 42
    assert m.is_empty() is False


# ---------------- disabled mode ----------------

def test_disabled_bounds_raise():
    m = KiwiMap(max_threads=2, bounds_enabled=False)
    m.register_thread()
    with pytest.raises(BoundsDisabledError):
        m.size_lower_bound()
    with pytest.raises(BoundsDisabledError):
        m.size_upper_bound()
    with pytest.raises(BoundsDisabledError):
        m.size()
    with pytest.raises(BoundsDisabledError):
        m.is_empty()


def test_disabled_and_enabled_runs_produce_identical_results():
    def run(bounds_enabled):
        m = KiwiMap(max_threads=2, max_items=64, bounds_enabled=bounds_enabled)
        m.register_thread()
        rng = random.Random(777)
        outputs = []
        for _ in range(2000):
            key = rng.randrange(64)
            roll = rng.random()
            if roll < 0.4:
                m.put(key, rng.randrange(100))
            elif roll < 0.6:
                m.put(key, TOMBSTONE)
            elif roll < 0.9:
                outputs.append(("get", key, m.get(key)))
            else:
                outputs.append(("scan", key, tuple(m.scan(key, key + 8))))
        outputs.append(("items", None, tuple(m.items())))
        return outputs

    assert run(False) == run(True)
