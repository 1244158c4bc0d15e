"""Single-word atomic primitives and memory fences.

One rule covers every shared word: a read is a plain attribute load, and
every read-modify-write goes through `cas` or `AtomicInt.fetch_add`, or
is a store made under `word_lock(owner)`. CPython guarantees torn-free
reads and writes of object attributes, so reads take no lock.
Each read-modify-write takes a striped word lock: one lock from a fixed
table, picked by the owning object's identity. Two words that share a
stripe are merely serialized against each other; every word still sees
exactly one winner per CAS. On a machine-level runtime these would be
single instructions; the contracts are the same.

Hot lock sections (`cas`, `AtomicInt.fetch_add`, `Chunk.alloc`) index
their stripe in `_WORD_LOCKS` inline rather than through a `word_lock()`
call, take it with `acquire()` and give it back in `try/finally`, and
the fences are a bare acquire and release. A `with lock:` statement does
the same work through the context-manager protocol: on CPython 3.11
(timeit, three runs on a 2-vCPU guest) it cost 460-560 ns per empty
section against 250-285 ns for acquire/release, and 955-1090 ns per
`cas` against 730-820 ns. A value put of a new key takes six sections,
its store fence included (eight with the size bounds on). The `finally`
still frees the stripe when the body raises. `Chunk.alloc` indexes the
stripe of `word_lock(chunk)`, which freezing takes:
`tests/test_word_locks.py` checks that the two are one lock, and pins
the section counts.
"""

from __future__ import annotations

import threading
from typing import Any

# Rule: code never takes a stripe while it holds another stripe (no deadlock).
_WORD_LOCKS = tuple(threading.Lock() for _ in range(64))


def word_lock(owner: object) -> threading.Lock:
    """The stripe that arbitrates every read-modify-write of owner's words.
    An OrderEntry fills a 64-byte block, so the low six bits of id() are
    dropped: with fewer, entries would reach only 16 of the 64 stripes."""
    return _WORD_LOCKS[(id(owner) >> 6) & 63]


def cas(owner: object, attr: str, expected: Any, new: Any) -> bool:
    """Set owner.attr to new iff it currently is, or equals, expected.
    Objects that define no equality, such as chunks, compare by identity.
    The stripe is word_lock(owner), indexed inline to save a call."""
    lock = _WORD_LOCKS[(id(owner) >> 6) & 63]
    lock.acquire()
    try:
        cur = getattr(owner, attr)
        if cur is expected or cur == expected:
            setattr(owner, attr, new)
            return True
        return False
    finally:
        lock.release()


class AtomicInt:
    """Integer counter changed only by fetch-and-add; plain reads. A
    counter nothing else can see yet is built with its value instead."""

    __slots__ = ("_value",)

    def __init__(self, value: int = 0) -> None:
        self._value = value

    def get(self) -> int:
        return self._value

    def fetch_add(self, delta: int = 1) -> int:
        """Add delta, return the PRIOR value."""
        lock = _WORD_LOCKS[(id(self) >> 6) & 63]
        lock.acquire()
        try:
            old = self._value
            self._value = old + delta
        finally:
            lock.release()
        return old


# The synchronization contract mandates exactly two fence points: a store
# fence after publishing to the PPA, and a full fence before any PPA read.
# A lock acquire/release pair is a real two-way barrier on every CPython
# build (GIL or free-threaded), so both fences share one implementation.
_FENCE_LOCK = threading.Lock()


def store_fence() -> None:
    _FENCE_LOCK.acquire()
    _FENCE_LOCK.release()


def full_fence() -> None:
    _FENCE_LOCK.acquire()
    _FENCE_LOCK.release()
