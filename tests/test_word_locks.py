"""Striped word locks: words, entries and chunks borrow a stripe from one
shared table instead of owning a lock, and CAS stays exact when two
objects share a stripe."""

import sys
import threading

from kiwi.atomics import AtomicInt, cas, word_lock
from kiwi.core import Chunk, OrderEntry


def test_words_own_no_lock():
    lock_types = (type(threading.Lock()), type(threading.RLock()))
    for obj in (OrderEntry(1), AtomicInt(0), Chunk(0, 10, 4, 2)):
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

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert counter.get() == 4 * per_thread
    assert entry.data_index == 4 * per_thread
