"""Freeze/help/compact/replace behavior plus the straightforward range
copy, all checked against brute-force oracles where results are derived."""

import ast
import inspect
import random
import sys
import textwrap
import threading
from functools import partial

import pytest

from kiwi import KiwiMap, TOMBSTONE, core
from kiwi.atomics import word_lock
from kiwi.core import FROZEN, KEY_MIN, VERSION_NONE, Chunk, OrderEntry
from kiwi.rebalance import (
    check_rebalance,
    copy_compact,
    copy_range,
    freeze_chunk,
    help_frozen_chunk_puts,
)

from helpers import (
    assert_chunk_invariants,
    assert_map_invariants,
    brute_force_range,
    force_rebalance,
    global_version,
    ppa_ranking,
    quiescent_items,
    raw_chunk,
    walk_list,
)
from interleave import ParkedThread, fast_switching, run_threads, run_with_interference

INF = float("inf")


# ---------------- rebalance trigger ----------------

def test_check_rebalance_full_chunk_always_triggers():
    chunk, _ = raw_chunk([(k, 1, k) for k in range(4)], capacity=4)
    assert chunk.is_full()
    assert check_rebalance(chunk, rand=lambda: 0.99)


def test_check_rebalance_prefix_rule_blocks_draw():
    # prefix 100 covers a 150-long list at ratio 1.8: 180 >= 150, no draw
    chunk, _ = raw_chunk([(k, 1, k) for k in range(150)], capacity=1000)
    chunk.sorted_prefix_len = 100
    assert not check_rebalance(chunk, rand=lambda: 0.0)


def test_check_rebalance_prefix_rule_allows_draw():
    # prefix 100 vs list 190: 180 < 190, Bernoulli decides
    chunk, _ = raw_chunk([(k, 1, k) for k in range(190)], capacity=1000)
    chunk.sorted_prefix_len = 100
    assert check_rebalance(chunk, rand=lambda: 0.0)
    assert not check_rebalance(chunk, rand=lambda: 0.99)


# ---------------- freeze ----------------

def test_freeze_without_pending_sets_flag_only():
    chunk, _ = raw_chunk([(1, 1, 10)])
    freeze_chunk(chunk)
    assert chunk.frozen
    assert chunk.is_full()  # allocation cut off
    (entry,) = walk_list(chunk)
    assert entry.version == 1  # versioned entries untouched


def test_alloc_writes_the_whole_slot():
    # Before any put publishes its index, a reader of the slot already
    # finds the entry, its key and its value: the dataIndex is the slot,
    # and a tombstone's data cell holds None.
    chunk, _ = raw_chunk([(1, 1, 10)], capacity=8)
    from kiwi.core import OrderEntry

    value, tomb = OrderEntry(5), OrderEntry(6)
    assert chunk.alloc(value, 50) == 2
    assert chunk.alloc(tomb, TOMBSTONE) == 3
    assert chunk.ppa == [None] * 4
    assert (value.version, value.data_index) == (VERSION_NONE, 2)
    assert (tomb.version, tomb.data_index) == (VERSION_NONE, 3)
    assert chunk.order[2:] == [value, tomb] and chunk.keys[2:] == [5, 6]
    assert chunk.data[2:] == [50, None]


class AppendFailsOnce(list):
    """A list whose next append raises MemoryError, once."""

    armed = True

    def append(self, item):
        if self.armed:
            self.armed = False
            raise MemoryError("append")
        super().append(item)


def test_alloc_cuts_a_partial_slot_when_an_append_raises():
    # The entry is appended, the key append raises: alloc cuts the entry
    # again, so the three arrays stay in step and the slot is free.
    chunk, _ = raw_chunk([(1, 1, 10)], capacity=8)
    chunk.keys = AppendFailsOnce(chunk.keys)
    with pytest.raises(MemoryError):
        chunk.alloc(OrderEntry(5), 50)
    assert len(chunk.order) == len(chunk.keys) == len(chunk.data) == 2
    entry = OrderEntry(5)
    assert chunk.alloc(entry, 51) == 2
    assert chunk.order[2] is entry and chunk.data[2] == 51
    assert_chunk_invariants(chunk)


class Injected(BaseException):
    """What a trace hook raises inside alloc, as an interrupt would."""


def alloc_try_lines():
    """The source lines of the statements in alloc's try body."""
    source, first = inspect.getsourcelines(Chunk.alloc)
    (tried,) = [node for node in ast.walk(ast.parse(textwrap.dedent("".join(source)))) if isinstance(node, ast.Try)]
    return {first - 1 + line for stmt in tried.body for line in range(stmt.lineno, stmt.end_lineno + 1)}


def traced_alloc(chunk, entry, value, lines, raise_at=None):
    """chunk.alloc(entry, value), raising Injected at its raise_at-th
    opcode boundary on lines; returns the number of those boundaries."""
    seen = 0

    def local(frame, event, arg):
        nonlocal seen
        if event == "opcode" and frame.f_lineno in lines:
            seen += 1
            if seen - 1 == raise_at:
                raise Injected
        return local

    def on_call(frame, event, arg):
        if frame.f_code is not Chunk.alloc.__code__:
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        chunk.alloc(entry, value)
    finally:
        sys.settrace(previous)
    return seen


@pytest.mark.parametrize("value", [20, TOMBSTONE], ids=["value", "tombstone"])
def test_alloc_interrupted_at_any_boundary_of_its_try_body_leaves_a_whole_chunk(value):
    """An exception at any opcode boundary of alloc's try body, the ones
    before idx is bound included, propagates as itself, frees the stripe
    and leaves the three arrays in step, so the next alloc succeeds."""
    lines = alloc_try_lines()

    def warm_chunk():
        chunk = Chunk(8, 2)
        chunk.alloc(OrderEntry(1), 10)
        return chunk

    # On 3.12 the first traced run of a code object meets no opcode
    # boundary, and on 3.13.0 none does (ROADMAP item 5).
    traced_alloc(warm_chunk(), OrderEntry(2), value, lines)
    boundaries = traced_alloc(warm_chunk(), OrderEntry(2), value, lines)
    assert boundaries > len(lines)
    for raise_at in range(boundaries):
        chunk = warm_chunk()
        with pytest.raises(Injected):
            traced_alloc(chunk, OrderEntry(2), value, lines, raise_at)
        assert not word_lock(chunk).locked(), f"boundary {raise_at}: stripe held"
        assert len(chunk.order) == len(chunk.keys) == len(chunk.data), f"boundary {raise_at}"
        assert_chunk_invariants(chunk)
        assert chunk.alloc(OrderEntry(3), 30) == len(chunk.order) - 1
        assert_chunk_invariants(chunk)


def test_freeze_seals_unversioned_entries():
    chunk, _ = raw_chunk([])
    from kiwi.core import OrderEntry

    entry = OrderEntry(5)
    chunk.alloc(entry, 50)
    assert entry.version == VERSION_NONE
    freeze_chunk(chunk)
    assert entry.version is FROZEN
    freeze_chunk(chunk)  # idempotent
    assert entry.version is FROZEN


def test_frozen_chunk_rejects_allocation():
    # The flag is the whole cut-off: with free slots left and no seal pass
    # run, alloc refuses, and the bound of handed-out slots stays put.
    chunk, _ = raw_chunk([(1, 1, 10)], capacity=8)
    from kiwi.core import OrderEntry

    chunk.frozen = True
    assert chunk.is_full()
    assert chunk.alloc(OrderEntry(5), 50) is None
    assert chunk.allocated_bound() == 2
    freeze_chunk(chunk)
    assert chunk.alloc(OrderEntry(6), TOMBSTONE) is None
    assert chunk.allocated_bound() == 2


# ---------------- helping ----------------

def test_help_frozen_inserts_pending_from_the_ppa():
    m = KiwiMap(max_threads=2)
    m.register_thread()
    chunk, (pending,) = raw_chunk([(1, 1, 10)], pending=[(5, 1, 50)])
    freeze_chunk(chunk)
    help_frozen_chunk_puts(m, chunk)
    entries = walk_list(chunk)
    assert [e.key for e in entries] == [1, 5]
    assert pending.version == 1  # the word is not touched
    help_frozen_chunk_puts(m, chunk)  # no-op second time
    assert [e.key for e in walk_list(chunk)] == [1, 5]


def test_concurrent_rebalancers_insert_pending_once():
    for _ in range(20):
        m = KiwiMap(max_threads=4)
        m.register_thread()
        chunk, _ = raw_chunk(
            [(k, 1, k) for k in range(0, 20, 2)],
            pending=[(k, 1, k) for k in range(1, 20, 2)],
            max_threads=10,  # one PPA cell per pending entry
        )
        freeze_chunk(chunk)
        barrier = threading.Barrier(2)

        def helper():
            m.register_thread()
            barrier.wait()
            help_frozen_chunk_puts(m, chunk)

        run_threads(helper, helper, timeout=10.0)
        assert [e.key for e in walk_list(chunk)] == list(range(20))
        assert_chunk_invariants(chunk)


# ---------------- compaction ----------------

def test_copy_compact_keeps_only_newest_without_scans():
    chunk, _ = raw_chunk([(7, 3, 33), (7, 2, 22), (7, 1, 11)], capacity=64)
    (new,) = copy_compact(chunk, INF)
    entries = walk_list(new)
    assert [(e.key, e.version) for e in entries] == [(7, 3)]
    assert new.data[entries[0].data_index] == 33
    assert new.sorted_prefix_len == 1


def test_copy_compact_retains_versions_for_active_scan():
    chunk, _ = raw_chunk([(7, 3, 33), (7, 2, 22), (7, 1, 11)], capacity=64)
    (new,) = copy_compact(chunk, 2)
    assert [(e.key, e.version) for e in walk_list(new)] == [(7, 3), (7, 2)]
    # the retained version is exactly what a scan pinned at 2 reads
    assert copy_range(new, 0, 100, 2, {}) == [(7, 22)]


def test_copy_compact_keeps_floor_version_below_min_active_scan():
    # a scan pinned at 5 must still see the version-1 value even though
    # 1 < 5: it is the newest version at or below the pin
    chunk, _ = raw_chunk([(7, 7, 77), (7, 1, 11)], capacity=64)
    (new,) = copy_compact(chunk, 5)
    assert [(e.key, e.version) for e in walk_list(new)] == [(7, 7), (7, 1)]
    assert copy_range(new, 0, 100, 5, {}) == [(7, 11)]


def test_copy_compact_purges_newest_tombstone_without_scans():
    chunk, _ = raw_chunk([(3, 2, TOMBSTONE), (3, 1, 10), (8, 1, 80)], capacity=64)
    (new,) = copy_compact(chunk, INF)
    assert [e.key for e in walk_list(new)] == [8]


def test_copy_compact_keeps_tombstone_needed_by_scan():
    chunk, _ = raw_chunk([(3, 4, TOMBSTONE), (3, 1, 10)], capacity=64)
    (new,) = copy_compact(chunk, 2)
    pairs = [(e.key, e.version) for e in walk_list(new)]
    assert pairs == [(3, 4), (3, 1)]
    assert copy_range(new, 0, 100, 2, {}) == [(3, 10)]  # old scan sees old data
    assert copy_range(new, 0, 100, 9, {}) == []  # new scans see the delete


def map_over(keys, chunks):
    """A map whose index holds the given hand-built chunks under keys."""
    m = KiwiMap(max_threads=4)
    m._index = (tuple(keys), tuple(chunks))
    return m


def test_copy_compact_splits_and_partitions_range():
    chunk, _ = raw_chunk([(k, 1, k * 10) for k in range(40)], capacity=16)
    m = map_over([KEY_MIN], [chunk])
    assert m._rebalance_chunk(chunk)
    keys, new_chunks = m._index
    assert len(new_chunks) == 5  # 40 entries, 8 per chunk
    # The old key, then each later output chunk's first stored key.
    assert keys == (KEY_MIN, 8, 16, 24, 32)
    assert_map_invariants(m)  # every listed key inside its index bounds
    for c in new_chunks:
        assert c.sorted_prefix_len == len(walk_list(c))


def test_copy_compact_never_splits_a_key_across_chunks():
    chunk, _ = raw_chunk(
        [(k, v, k * 100 + v) for k in range(10) for v in (3, 2, 1)], capacity=8
    )
    new_chunks = copy_compact(chunk, 1)
    assert len(new_chunks) > 1
    homes: dict[int, int] = {}
    for i, c in enumerate(new_chunks):
        assert_chunk_invariants(c)
        for entry in walk_list(c):
            homes.setdefault(entry.key, i)
            assert homes[entry.key] == i, f"key {entry.key} split across chunks"


def test_copy_compact_empty_chunk_keeps_range():
    """An all-tombstone chunk compacts to an empty one, which keeps its
    index key."""
    first, _ = raw_chunk([(1, 1, 10)], capacity=16)
    chunk, _ = raw_chunk([(13, 1, TOMBSTONE)], capacity=16)
    m = map_over([KEY_MIN, 10], [first, chunk])
    assert m._rebalance_chunk(chunk)
    keys, (kept, new) = m._index
    assert keys == (KEY_MIN, 10) and kept is first
    assert walk_list(new) == []
    assert_map_invariants(m)


# ---------------- replacement ----------------

def test_replace_chunks_uncontended_and_routing():
    m = KiwiMap(max_threads=2, max_items=64)
    m.register_thread()
    for k in range(10):
        m.put(k, k)
    old = m.find_chunk(5)
    stale = m._index
    assert m._rebalance_chunk(old)
    new_chunks = m.chunks()
    assert len(new_chunks) == 1 and new_chunks[0] is not old and new_chunks[0].capacity == 64
    assert m.find_chunk(5) is new_chunks[0]
    assert dict(m.items()) == {k: k for k in range(10)}
    # A reader still holding the index from before the CAS gets the
    # retired chunk, frozen; a later rebalance of it changes nothing.
    assert old in stale[1] and old.frozen
    index = m._index
    assert not m._rebalance_chunk(old)
    assert m._index is index


def test_replace_chunks_single_winner_under_race(monkeypatch):
    # Both racers find the chunk in the index and compact before either
    # tries the index CAS, so the CAS alone picks the winner.
    barrier = threading.Barrier(2, timeout=10)

    def compact_then_meet(chunk, min_active_scan):
        mine = copy_compact(chunk, min_active_scan)
        barrier.wait()
        return mine

    monkeypatch.setattr(core, "copy_compact", compact_then_meet)
    for _ in range(20):
        m = KiwiMap(max_threads=4, max_items=64, rng=lambda: 1.0)  # the puts below never rebalance
        m.register_thread()
        for k in range(10):
            m.put(k, k)
        old = m.find_chunk(5)
        wins = []

        def racer():
            m.register_thread()
            wins.append(m._rebalance_chunk(old))

        run_threads(racer, racer, timeout=10.0)
        assert sorted(wins) == [False, True]
        assert dict(m.items()) == {k: k for k in range(10)}
        assert_map_invariants(m)


def test_reader_mid_scan_survives_replacement():
    """A scan that pinned its version before a rebalance returns the same
    result whether or not the rebalance intervenes."""
    def build():
        m = KiwiMap(max_threads=4, max_items=64)
        m.register_thread()
        for k in range(20):
            m.put(k, k)
        m.scan(50, 60)  # bump GV to 2
        for k in range(0, 20, 2):
            m.put(k, k + 100)  # version 2 data
        return m

    plain = build()
    expected = plain.scan(0, 30)

    m = build()
    scan_version = global_version(m)
    m._psa[1] = scan_version  # an in-flight scan pinned before the rebalance
    for k in (0, 19):
        force_rebalance(m, k)
    m._psa[1] = None
    assert m.scan(0, 30) == expected
    assert_map_invariants(m)


# (key 2, key 7) before, between and after the interfering job's three puts.
_SCAN_RACE_STATES = {(2, 7), ("a", 7), ("a", "b"), ("c", "b")}
_SCAN_MODULES = ("kiwi.core", "kiwi.chunk", "kiwi.rebalance")


def test_scan_is_a_snapshot_whatever_opcode_a_compaction_lands_on():
    """Three puts, each followed by a compaction of its key's chunk, land
    at each opcode boundary of one scan in turn, in kiwi.core, kiwi.chunk
    and kiwi.rebalance frames. Compaction keeps the versions the scan's
    PSA entry asks for, so the scan returns every key, and keys 2 and 7 as
    they stood together at some instant. A compaction that ran before the
    scan published its version, or that ignored it, would drop the version
    the scan needs and lose key 2."""
    k = 0
    while True:
        m = KiwiMap(max_items=64, rng=lambda: 1.0)
        m.register_thread()
        for key in range(10):
            m.put(key, key)
        worker = ParkedThread(m)

        def interfere():
            def job():
                for key, value in ((2, "a"), (7, "b"), (2, "c")):
                    m.put(key, value)
                    force_rebalance(m, key)

            worker.run(job)

        try:
            result, reached = run_with_interference(lambda: m.scan(0, 9), interfere, k, _SCAN_MODULES)
        finally:
            worker.stop()
        d = dict(result)
        assert [key for key, _ in result] == list(range(10)), (k, result)
        assert (d[2], d[7]) in _SCAN_RACE_STATES, (k, result)
        if not reached:
            break
        k += 1
    assert k > 0


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param(9, "v", id="new-value"),
        pytest.param(3, "v", id="same-version-overwrite"),
        pytest.param(3, TOMBSTONE, id="tombstone"),
    ],
)
def test_put_takes_effect_once_whatever_opcode_a_rebalance_lands_on(key, value):
    """A rebalance of the key's chunk lands at each opcode boundary of one
    put in turn, in kiwi.core and kiwi.chunk frames, but never inside
    Chunk.alloc, which holds the stripe a freeze takes. Sealed before its
    version CAS, the put retries into the replacement; versioned, it is
    linked by the help pass, which finds it through the PPA cell the put
    keeps until its own insert returns. Either way the put takes effect
    once: get, items() and both exact bounds match a dict, the key is
    linked at most once, and each live chunk's count equals its list."""
    expected = {j: j for j in range(6)}  # all at version 1, as is the put
    if value is TOMBSTONE:
        del expected[key]
    else:
        expected[key] = value
    k = 0
    while True:
        m = KiwiMap(max_items=8, bounds_enabled=True, rng=lambda: 1.0)
        m.register_thread()
        for j in range(6):
            m.put(j, j)
        worker = ParkedThread(m)
        try:
            _, reached = run_with_interference(
                lambda: m.put(key, value),
                lambda: worker.run(lambda: force_rebalance(m, key)),
                k,
                ("kiwi.core", "kiwi.chunk"),
                skip=("alloc",),
            )
        finally:
            worker.stop()
        assert m.get(key) == expected.get(key), k
        assert m.size_lower_bound() == m.size_upper_bound() == len(expected), k
        chunks = m.chunks()
        linked = [entry for chunk in chunks for entry in walk_list(chunk) if entry.key == key]
        assert len(linked) == 1 if key in expected else len(linked) <= 1, (k, linked)
        assert [c.list_size.get() for c in chunks] == [len(walk_list(c)) for c in chunks], k
        assert m.items() == sorted(expected.items()), k
        assert_map_invariants(m)
        if not reached:
            break
        k += 1
    assert k > 50


def test_put_lands_whatever_opcode_of_a_rebalance_it_runs_at():
    """A put and a get of a value, then of a tombstone, run at each opcode
    boundary of one rebalance in turn, in kiwi.core, kiwi.chunk and
    kiwi.rebalance frames, except where the freeze holds the chunk's
    stripe. Once the chunk is frozen the put's alloc fails there, and its
    own rebalance call either lands the index CAS first or finds the chunk
    retired, so the put retries into a live chunk and the get that follows
    finds it. Each run ends with the map and both exact bounds as a dict
    says, and with no frozen chunk in the index."""
    original = {j: j for j in range(12)}
    expected = {**original, 5: "new"}
    del expected[6]
    k = ran = skipped = 0
    while True:
        m = KiwiMap(max_items=8, bounds_enabled=True, rng=lambda: 1.0)
        m.register_thread()
        for j in range(12):
            m.put(j, j)
        chunk = m.find_chunk(5)
        worker = ParkedThread(m)
        seen = []

        def job():
            m.put(5, "new")
            seen.append(m.get(5))
            m.put(6, TOMBSTONE)
            seen.append(m.get(6))

        def interfere():
            nonlocal ran, skipped
            if word_lock(chunk).locked():  # the freeze's with body: alloc would wait
                skipped += 1
            else:
                worker.run(job)
                ran += 1

        try:
            _, reached = run_with_interference(
                lambda: m._rebalance_chunk(chunk), interfere, k, _SCAN_MODULES
            )
        finally:
            worker.stop()
        want = expected if seen else original
        assert seen in ([], ["new", None]), (k, seen)
        assert m.items() == sorted(want.items()), k
        assert m.size_lower_bound() == m.size_upper_bound() == len(want), k
        assert not any(c.frozen for c in m._index[1]), k
        assert_map_invariants(m)
        if not reached:
            break
        k += 1
    assert ran + skipped == k and ran > 500 and 0 < skipped < 20


def test_one_of_two_rebalancers_of_a_chunk_lands_whatever_opcode_the_second_starts_at():
    """A second rebalance of the same chunk runs at each opcode boundary
    of a first one in turn, in kiwi.core, kiwi.chunk and kiwi.rebalance
    frames, except where the freeze holds the chunk's stripe. The index
    CAS alone picks the winner: exactly one call returns True, whichever
    lands first, and the other finds the chunk gone from the index, also
    when its own CAS lost. A loser that swapped its copy into a fresh
    snapshot without looking for the chunk again would replace the
    winner's chunks. Each run ends with items() unchanged and no frozen
    chunk in the index."""
    k = ran = skipped = 0
    while True:
        m = KiwiMap(max_items=8, rng=lambda: 1.0)
        m.register_thread()
        for j in range(12):
            m.put(j, j)
        before = m.items()
        chunk = m.find_chunk(5)
        worker = ParkedThread(m)
        wins = []

        def interfere():
            nonlocal ran, skipped
            if word_lock(chunk).locked():  # the freeze's with body: a freeze would wait
                skipped += 1
            else:
                worker.run(lambda: wins.append(m._rebalance_chunk(chunk)))
                ran += 1

        try:
            won, reached = run_with_interference(
                lambda: m._rebalance_chunk(chunk), interfere, k, _SCAN_MODULES
            )
        finally:
            worker.stop()
        assert sorted([won, *wins]) == ([False, True] if wins else [True]), (k, won, wins)
        assert chunk not in m.chunks(), k
        assert m.items() == before, k
        assert not any(c.frozen for c in m._index[1]), k
        assert_map_invariants(m)
        if not reached:
            break
        k += 1
    assert ran + skipped == k and ran > 500 and 0 < skipped < 20


@pytest.mark.parametrize("key, want", [(5, "new"), (6, None), (20, None)], ids=["value", "tombstone", "absent"])
def test_get_reads_its_key_whatever_opcode_a_rebalance_of_its_chunk_lands_on(key, want):
    """A rebalance of the key's chunk lands at each opcode boundary of one
    get in turn, in kiwi.core, kiwi.chunk and kiwi.rebalance frames. Key 5
    holds an older version beside its newest one, and key 6 a tombstone
    over a value; the compaction keeps only each newest, and drops the
    tombstone and its value bit. The get reads the chunk of its index
    snapshot, retired or live, and returns the key's newest value at every
    one."""
    k = 0
    while True:
        m = KiwiMap(max_items=8, rng=lambda: 1.0)
        m.register_thread()
        for j in range(12):
            m.put(j, j)
        m.scan(0, 0)  # the next puts take a newer version
        m.put(5, "new")
        m.put(6, TOMBSTONE)
        worker = ParkedThread(m)
        try:
            got, reached = run_with_interference(
                lambda: m.get(key),
                lambda: worker.run(lambda: force_rebalance(m, key)),
                k,
                _SCAN_MODULES,
            )
        finally:
            worker.stop()
        assert got == want, k
        if not reached:
            break
        k += 1
    assert k > 50


def test_data_preservation_under_forced_rebalances():
    rng = random.Random(99)
    m = KiwiMap(max_threads=2, max_items=64)
    m.register_thread()
    oracle = {}
    for _ in range(800):
        k = rng.randrange(150)
        if rng.random() < 0.3:
            m.put(k, TOMBSTONE)
            oracle.pop(k, None)
        else:
            v = rng.randrange(10_000)
            m.put(k, v)
            oracle[k] = v
    before = quiescent_items(m)
    assert before == oracle
    for key in m._index[0]:  # one rebalance of each chunk of this index
        force_rebalance(m, key)
    assert quiescent_items(m) == oracle
    assert dict(m.items()) == oracle
    assert_map_invariants(m)


# ---------------- chunk index ----------------

def assert_index_is_live(m):
    """No index chunk is frozen once every rebalance has returned, and
    the index keys start at KEY_MIN, ascend and bound every listed key of
    their chunks (see assert_map_invariants)."""
    assert not any(c.frozen for c in m._index[1])
    assert_map_invariants(m)


def concurrent_churn():
    """Three seeded threads put, tombstone and scan 200 keys on a
    16-item-chunk map with a 1 us switch interval; returns the map."""
    m = KiwiMap(max_threads=3, max_items=16)
    barrier = threading.Barrier(3)

    def churn(seed):
        rng = random.Random(seed)
        m.register_thread()
        barrier.wait()
        for _ in range(3000):
            k = rng.randrange(200)
            draw = rng.random()
            if draw < 0.5:
                m.put(k, k)
            elif draw < 0.8:
                m.put(k, TOMBSTONE)
            else:
                m.scan(k, k + 20)
        m.unregister_thread()

    with fast_switching(1e-6):
        run_threads(*[partial(churn, seed) for seed in (11, 12, 13)], timeout=30.0)
    return m


def test_index_equals_live_list_after_concurrent_churn():
    m = concurrent_churn()
    assert len(m.chunks()) > 2
    assert_index_is_live(m)


def test_list_size_counts_the_live_list_after_concurrent_churn():
    """Every list insert adds one to its chunk's count, under contention
    too, so each live chunk's count equals the length of its list."""
    m = concurrent_churn()
    chunks = m.chunks()
    assert len(chunks) > 2
    assert [c.list_size.get() for c in chunks] == [len(walk_list(c)) for c in chunks]


def test_late_helper_leaves_the_index_on_the_live_list():
    """A helper that rebalances P again after the chunk replacing P was
    itself replaced finds P gone from the index, returns False and must
    not put a retired chunk back in the index."""
    m = KiwiMap(max_threads=2, max_items=16)
    m.register_thread()
    for k in range(40):
        m.put(k, k)
    p = m.find_chunk(20)
    p_key = m._index[0][m._index[1].index(p)]
    m._rebalance_chunk(p)
    q = m.find_chunk(p_key)
    assert q is not p and p not in m.chunks()
    m._rebalance_chunk(q)
    assert q.frozen and q not in m.chunks()
    before, index = m.items(), m._index
    assert not m._rebalance_chunk(p)
    assert m._index is index
    assert_index_is_live(m)
    assert m.items() == before


# ---------------- copy_range ----------------

def test_copy_range_empty_chunk():
    chunk, _ = raw_chunk([])
    assert copy_range(chunk, 0, 100, 5, {}) == []


def test_copy_range_version_filter():
    chunk, _ = raw_chunk([(4, 5, 55), (4, 3, 33)])
    assert copy_range(chunk, 0, 10, 4, {}) == [(4, 33)]
    assert copy_range(chunk, 0, 10, 5, {}) == [(4, 55)]
    assert copy_range(chunk, 0, 10, 2, {}) == []


def test_copy_range_merges_pending_items():
    chunk, pending = raw_chunk([(4, 2, 22)], pending=[(4, 3, 33)])
    assert copy_range(chunk, 0, 10, 9, ppa_ranking(pending, 0, 10, 9)) == [(4, 33)]
    assert copy_range(chunk, 0, 10, 2, ppa_ranking(pending, 0, 10, 2)) == [(4, 22)]


def test_copy_range_against_brute_force_oracle():
    run_copy_range_oracle_rounds(200)


def run_copy_range_oracle_rounds(rounds):
    rng = random.Random(1234)
    readers = KiwiMap()  # its help_pending_puts ranks each chunk's PPA
    for round_no in range(rounds):
        n_keys = rng.randrange(1, 8)
        listed = []
        for key in sorted(rng.sample(range(16), n_keys)):
            for version in sorted(rng.sample(range(1, 8), rng.randrange(1, 4)), reverse=True):
                value = TOMBSTONE if rng.random() < 0.3 else rng.randrange(1000)
                listed.append((key, version, value))
        pending = [
            (rng.randrange(16), rng.randrange(1, 8), TOMBSTONE if rng.random() < 0.3 else rng.randrange(1000))
            for _ in range(rng.randrange(0, 4))
        ]
        chunk, pending_entries = raw_chunk(listed, pending=pending)
        lo = rng.randrange(-2, 18)
        hi = lo + rng.randrange(0, 20)
        scan_version = rng.randrange(1, 9)

        items = []
        for idx, (key, version, value) in enumerate(listed, start=1):
            di = chunk.order[idx].data_index
            items.append((key, version, di, value))
        for entry, (key, version, value) in zip(pending_entries, pending):
            items.append((key, version, entry.data_index, value))

        expected = brute_force_range(items, lo, hi, scan_version)
        ranking = readers.help_pending_puts(chunk, lo, hi, scan_version)
        assert ranking == ppa_ranking(pending_entries, lo, hi, scan_version)
        got = copy_range(chunk, lo, hi, scan_version, ranking)
        assert got == expected, (round_no, listed, pending, lo, hi, scan_version)
