"""The shared slot-number table: every slot number a chunk stores is the
table's int object, the table grows only as far as the slots used, and
growth under concurrent allocation never hands out a wrong number."""

import random
import threading
from functools import partial

import pytest

from kiwi import TOMBSTONE, KiwiMap
from kiwi.core import _SLOTS, END

from interleave import fast_switching, run_threads

NEVER_REBALANCE = lambda: 1.0  # the probabilistic trigger needs rng() < 0.02


def assert_slots_shared(kiwi):
    """Every dataIndex and next link of every allocated entry is the
    table's object for its number."""
    for chunk in kiwi.chunks():
        for entry in chunk.order:
            assert entry.data_index is _SLOTS[entry.data_index], entry
            assert entry.next == END or entry.next is _SLOTS[entry.next], entry


# 16 covers splits at small-int slots; 600 puts slots past CPython's
# small-int cache (256), where a fresh int is a distinct object.
@pytest.mark.parametrize("max_items,key_range,ops", [(16, 200, 3000), (600, 1500, 2500)])
def test_concurrent_churn_stores_only_table_ints(max_items, key_range, ops):
    m = KiwiMap(max_threads=3, max_items=max_items, rng=random.Random(7).random)
    barrier = threading.Barrier(3)

    def churn(seed):
        rng = random.Random(seed)
        m.register_thread()
        barrier.wait()
        for _ in range(ops):
            k = rng.randrange(key_range)
            draw = rng.random()
            if draw < 0.5:
                m.put(k, k)
            elif draw < 0.8:
                m.put(k, TOMBSTONE)
            else:
                m.scan(k, k + 20)
        m.unregister_thread()

    with fast_switching():
        run_threads(*[partial(churn, seed) for seed in (11, 12, 13)], timeout=60.0)
    assert len(m.chunks()) > 2  # splits ran
    assert_slots_shared(m)


def test_a_large_capacity_does_not_grow_the_table():
    before = len(_SLOTS)
    m = KiwiMap(max_threads=1, max_items=10**6)
    m.register_thread()
    for k in range(10):
        m.put(k, k)
    assert len(_SLOTS) == max(before, 11)


def fill_descending(m, count):
    """count puts, one slot each: put i takes slot i + 1. Keys descend, so
    each value links after the head. When i % 3 == 2, put i deletes the
    key put i - 1 wrote: a delete at the value's version, which takes a
    slot and overwrites the listed entry's dataIndex with it. Returns the
    items left and the dataIndex each slot's entry ends with, by slot."""
    left, data_index = {}, [0]
    for i, k in enumerate(range(count, 0, -1)):
        slot = i + 1
        if i % 3 == 2:
            m.put(k + 1, TOMBSTONE)
            del left[k + 1]
            data_index[slot - 1] = slot
            data_index.append(slot)
        else:
            m.put(k, k)
            left[k] = k
            data_index.append(slot)
    return sorted(left.items()), data_index


def test_a_slot_beyond_the_table_grows_it():
    size = len(_SLOTS)
    m = KiwiMap(max_threads=1, max_items=size + 10, rng=NEVER_REBALANCE)
    m.register_thread()
    left, data_index = fill_descending(m, size + 5)
    assert len(m.chunks()) == 1
    assert len(_SLOTS) == size + 6
    assert all(_SLOTS[i] == i for i in range(size + 6))
    assert_slots_shared(m)
    (chunk,) = m.chunks()
    assert [entry.data_index for entry in chunk.order] == data_index
    assert [m.get(k) for k in (size + 3, size + 4, size + 5)] == [None, None, size + 5]
    assert m.items() == left


def test_threads_filling_chunks_past_the_table_read_right_numbers():
    """Four maps are filled at once, each to past the table's end, so the
    table grows while other threads allocate and read from it."""
    count = len(_SLOTS) + 400
    errors = []

    def check_one_map():
        m = KiwiMap(max_threads=1, max_items=count + 1, rng=NEVER_REBALANCE)  # never full
        m.register_thread()
        left, data_index = fill_descending(m, count)
        (chunk,) = m.chunks()
        for slot in range(1, count + 1):
            entry = chunk.order[slot]
            expected = data_index[slot]
            if entry.data_index is not _SLOTS[expected]:
                errors.append((slot, entry.data_index))
        if m.scan(1, count) != left:
            errors.append("scan")

    with fast_switching():
        run_threads(*[check_one_map] * 4, timeout=60.0)
    assert not errors, errors[:5]
    assert all(_SLOTS[i] == i for i in range(len(_SLOTS)))


def test_compaction_does_not_grow_the_table():
    """Only alloc grows the table: compaction writes no slot above its
    input's allocated bound, and every slot below it was handed out by
    alloc, so rebalancing every chunk of a churned map, slots past the
    small-int cache included, finds the table already covering them."""
    rng = random.Random(600)
    m = KiwiMap(max_threads=2, max_items=600, rng=NEVER_REBALANCE)
    m.register_thread()
    for _ in range(4000):
        k = rng.randrange(1500)
        draw = rng.random()
        if draw < 0.6:
            m.put(k, k)
        elif draw < 0.85:
            m.put(k, TOMBSTONE)
        else:
            m.scan(k, k + 20)
    before_items = m.items()
    old_chunks = m.chunks()
    assert len(old_chunks) > 1 and max(c.allocated_bound() for c in old_chunks) > 256
    size = len(_SLOTS)
    m._psa[1] = 1  # a pinned scan keeps old versions, so outputs stay long
    for chunk in old_chunks:
        assert m._rebalance_chunk(chunk)
    m._psa[1] = None
    assert len(_SLOTS) == size
    assert all(c not in old_chunks for c in m.chunks())
    assert_slots_shared(m)
    assert m.items() == before_items
