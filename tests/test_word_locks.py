"""Striped word locks: words, entries and chunks borrow a stripe from one
shared table instead of owning a lock, CAS stays exact when two objects
share a stripe, and a lock section whose body raises still frees its
stripe (else the next put that hashes there would block forever). A
put, a delete and a get take a pinned number of lock sections."""

import threading

import pytest

import kiwi.chunk
from kiwi import atomics
from kiwi.atomics import AtomicInt, cas, word_lock
from kiwi.core import TOMBSTONE, Chunk, KiwiMap, OrderEntry

from interleave import fast_switching, join_threads, run_threads, start_thread


def test_words_own_no_lock():
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    for obj in (OrderEntry(1), AtomicInt(0), Chunk(4, 2)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        slots = [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]
        owned = [getattr(obj, name) for name in slots if hasattr(obj, name)]
        assert not any(isinstance(value, lock_types) for value in owned), type(obj).__name__


def test_cas_loops_exact_on_a_shared_stripe():
    """CAS-loop increments of an AtomicInt's word and an OrderEntry's word,
    on two objects that share one stripe, lose no update."""
    counters = [AtomicInt(0) for _ in range(256)]
    entries = {word_lock(e): e for e in (OrderEntry("k") for _ in range(256))}
    counter = next(c for c in counters if word_lock(c) in entries)
    entry = entries[word_lock(counter)]
    per_thread = 1500

    def hammer():
        for _ in range(per_thread):
            while True:
                seen = counter.get()
                if cas(counter, "_value", seen, seen + 1):
                    break
            while True:
                seen = entry.data_index
                if entry.cas_data_index(seen, seen + 1):
                    break

    with fast_switching(1e-6):
        run_threads(*[hammer] * 4, timeout=60.0)
    assert counter.get() == 4 * per_thread
    assert entry.data_index == 4 * per_thread


def assert_stripe_free(owner):
    lock = word_lock(owner)
    assert lock.acquire(blocking=False), "the stripe is still held"
    lock.release()


def test_a_cas_that_raises_frees_its_stripe():
    entry = OrderEntry.__new__(OrderEntry)  # its slots are left unset
    with pytest.raises(AttributeError):
        cas(entry, "version", 0, 1)
    assert_stripe_free(entry)


def test_a_fetch_add_that_raises_frees_its_stripe():
    counter = AtomicInt(0)
    with pytest.raises(TypeError):
        counter.fetch_add("x")
    assert_stripe_free(counter)


def test_alloc_takes_the_stripe_that_freezing_takes():
    """freeze_chunk sets the frozen flag under word_lock(chunk), and alloc
    reads it under the stripe it indexes inline; were they two locks, a
    slot could be handed out after the freeze. So while the test holds
    word_lock(chunk), alloc must wait."""
    for _ in range(3):
        chunk = Chunk(4, 2)
        got = []
        lock = word_lock(chunk)
        lock.acquire()
        try:
            t = start_thread(lambda: got.append(chunk.alloc(OrderEntry(1), 10)))
            t.join(timeout=0.1)
            assert t.is_alive() and got == []
        finally:
            lock.release()
        join_threads(t, timeout=10.0)
        assert got == [1]


class CountingLock:
    """A lock that counts its sections, through acquire() or `with`."""

    def __init__(self, lock, counter):
        self._lock = lock
        self._counter = counter

    def acquire(self, *args, **kwargs):
        got = self._lock.acquire(*args, **kwargs)
        if got:
            self._counter[0] += 1
        return got

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self.release()


@pytest.fixture
def sections():
    """Count every word-lock section and fence from here on: the stripes
    and the fence lock are swapped for counting proxies of the same locks
    in each module that names them, and put back afterwards."""
    counter = [0]
    stripes = tuple(CountingLock(lock, counter) for lock in atomics._WORD_LOCKS)
    saved = atomics._WORD_LOCKS, kiwi.chunk._WORD_LOCKS, atomics._FENCE_LOCK
    atomics._WORD_LOCKS = kiwi.chunk._WORD_LOCKS = stripes
    atomics._FENCE_LOCK = CountingLock(saved[2], counter)
    try:
        yield counter
    finally:
        atomics._WORD_LOCKS, kiwi.chunk._WORD_LOCKS, atomics._FENCE_LOCK = saved


@pytest.mark.parametrize("bounds", [True, False], ids=["bounds-on", "bounds-off"])
def test_lock_sections_per_operation(sections, bounds):
    """The put path's lock budget, fence included. A landed value put of
    a new key: alloc, the store fence, the version CAS (NONE -> v), two
    list CASes and the list-size add, plus one bound add on publish and
    one on settlement with the bounds on. No commit step follows: the
    list alone says the entry is linked. A same-version overwrite swaps
    the list work for one dataIndex CAS. A delete of a never-written key
    and a get on a clear bit stop before any section, and a full-path
    get takes only its fence."""
    m = KiwiMap(max_threads=2, bounds_enabled=bounds, rng=lambda: 1.0)
    m.register_thread()

    def cost(op, *args):
        before = sections[0]
        op(*args)
        return sections[0] - before

    extra = 2 if bounds else 0
    assert cost(m.put, 1, 10) == 6 + extra  # a new key, landed
    assert cost(m.put, 1, 11) == 4 + extra  # same version: an overwrite
    assert cost(m.put, 2, TOMBSTONE) == 0  # never written: the bit is clear
    assert cost(m.get, 1) == 1  # the full path: its fence
    assert cost(m.get, 2) == 0  # a clear bit
    assert m.items() == [(1, 11)]
