"""Chunks: the fixed-capacity segments of the map and their search.

Layout: fixed-capacity chunks, each holding the keys of the stretch of
key space the index gives it. A chunk holds an order array (versioned
key slots forming a sorted linked list with a presorted prefix), a key
array parallel to it (the prefix search bisects it directly), a data
array of immutable value cells, and a pending-puts array (PPA) with one
slot per registered thread. Chunk.alloc, the only writer of a new slot,
builds its entry and appends it, its key and its value, so the three
arrays grow by one append per slot: a chunk pays for the slots it uses,
not its capacity.

Version word, changed only by a CAS that expects NONE:
    0    NONE     allocated, not yet visible
    v    version v (>= 1), assigned by the owner or a helper
    FROZEN        sealed by rebalance before any version was assigned
The word does not say whether the entry is linked; the list does. A put
whose entry a rebalance linked first gets ALREADY_LINKED from its own
insert, and a rebalance finds the versioned entries not yet linked
through the PPA (see rebalance.help_frozen_chunk_puts).

dataIndex: the slot of the item's data cell, always >= 1, so it orders
same-(key, version) items by recency; overwrites only raise it. A
tombstone's cell holds None, which no put may store. Every slot number a
chunk stores (a dataIndex, a next link, the index alloc hands out) is
the int object from the shared slot table below. CPython caches only the
ints up to 256, so without it each entry would hold ints of its own, and
every step of a list walk would load a cold int before it could index
the order array.

Value bits: every chunk has eight bits per slot of capacity (one byte),
and a key's bit, hash(key) mod (8 * capacity), is set for each key the
chunk holds a value of (never for a tombstone alone). Chunk.alloc sets a
value put's bit under the chunk's stripe before it returns the slot, so
before the put publishes anything; copy_compact sets every bit of an
output chunk before the index CAS publishes the chunk. A live chunk's
bits are only ever set. So a clear bit proves the chunk held no value of
the key, in its list, its PPA or any allocated slot, when the bit was
read: get returns None and a delete returns at once. That read needs no
fence: nothing of the put or of the compaction is visible before the
bit, so a reader that finds it clear is ordered before the put. A set
bit, a hash collision included, takes the full path. get, put, alloc and
copy_compact compute the bit inline (timeit, CPython 3.11 on a 2-vCPU
guest: a call and its tuple cost about 100 ns, a seventh of a get on a
100k-key map); tests/test_value_bits.py checks each inline copy against
the rule.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Optional

from .atomics import AtomicInt, cas, word_lock


VERSION_NONE = 0
END = -1  # end-of-list order index


class _Marker:
    """A value compared by identity only; its name is its repr."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


TOMBSTONE = _Marker("TOMBSTONE")
FROZEN = _Marker("FROZEN")


class _KeyBound:
    """One end of the key space: KEY_MIN (rank -1) sorts below every key
    and KEY_MAX, KEY_MAX (rank +1) above every key and KEY_MIN. A bound
    compares its rank with its own rank for itself and with 0 for anything
    else (a key, or the other bound, which lies past every key). A key
    compared with one gets the answer by reflection, so keys of any
    mutually comparable type (ints, strings, bytes, tuples) share one map
    layout."""

    __slots__ = ("rank", "name")

    def __init__(self, rank: int, name: str) -> None:
        self.rank = rank
        self.name = name

    def __lt__(self, other: Any) -> bool:
        return self.rank < (self.rank if other is self else 0)

    def __le__(self, other: Any) -> bool:
        return self.rank <= (self.rank if other is self else 0)

    def __gt__(self, other: Any) -> bool:
        return self.rank > (self.rank if other is self else 0)

    def __ge__(self, other: Any) -> bool:
        return self.rank >= (self.rank if other is self else 0)

    def __repr__(self) -> str:
        return self.name


# The first chunk starts at KEY_MIN and the last one ends at KEY_MAX.
KEY_MIN = _KeyBound(-1, "-inf")
KEY_MAX = _KeyBound(1, "inf")


# Shared slot-number ints: _SLOTS[i] is i, one object per number for
# every chunk. It grows by extend only, under _SLOTS_LOCK, to cover the
# highest slot any chunk has used, so an int once handed out stays the
# shared one and readers index without a lock. Chunk.alloc takes the
# lock inside its stripe; code that holds the lock never takes a stripe,
# so the two cannot deadlock.
_SLOTS: list[int] = [0]
_SLOTS_LOCK = threading.Lock()


def cover_slots(bound: int) -> None:
    """Grow the shared slot table to cover every slot below bound."""
    if bound <= len(_SLOTS):
        return
    with _SLOTS_LOCK:
        size = len(_SLOTS)
        if bound > size:
            _SLOTS.extend(range(size, bound))


class OrderEntry:
    """One versioned key slot. key is immutable; the rest change by CAS.
    A put's entry is built by Chunk.alloc, with its slot as dataIndex."""

    __slots__ = ("key", "version", "data_index", "next")

    def __init__(self, key: Any, version: Any = VERSION_NONE, data_index: int = 0) -> None:
        self.key = key
        self.version = version
        self.data_index = data_index
        self.next = END

    def cas_version(self, expected: Any, new: Any) -> bool:
        return cas(self, "version", expected, new)

    def cas_data_index(self, expected: int, new: int) -> bool:
        return cas(self, "data_index", expected, new)

    def cas_next(self, expected: int, new: int) -> bool:
        return cas(self, "next", expected, new)

    def __repr__(self) -> str:
        return f"OrderEntry(key={self.key!r}, ver={self.version!r}, di={self.data_index}, next={self.next})"


def overwrite_data_index(entry: OrderEntry, new_data_index: int) -> Optional[int]:
    """Raise entry.data_index to new_data_index while it is newer (a
    later slot). Returns the word THIS call's CAS replaced, or None when
    the call changed nothing (the entry already held a newer word)."""
    while True:
        old = entry.data_index
        if new_data_index <= old:
            return None
        if entry.cas_data_index(old, new_data_index):
            return old


class Chunk:
    """Fixed-capacity segment of the map; the index says which keys it covers.

    Slot 0 of the order array is a permanent head sentinel, so allocation
    slots run 1..capacity and every insert CAS has a real predecessor.
    order, keys and data are parallel lists indexed by slot: keys[i] is
    order[i].key (None for the head), and data[i] holds the value alloc
    wrote there (None for tombstones). They grow by one append per
    allocation, so their length is allocated_bound(). bits holds the
    value bits (see the module docstring): one byte per slot of capacity,
    allocated whole.
    """

    __slots__ = (
        "capacity",
        "order",
        "keys",
        "data",
        "bits",
        "ppa",
        "sorted_prefix_len",
        "frozen",
        "list_size",
    )

    def __init__(self, capacity: int, max_threads: int) -> None:
        self.capacity = capacity
        self.order: list[OrderEntry] = [OrderEntry(None)]
        self.keys: list[Any] = [None]
        self.data: list[Any] = [None]
        self.bits = bytearray(capacity)  # value bits: hash(key) mod (8 * capacity)
        self.ppa: list[Optional[int]] = [None] * max_threads
        self.sorted_prefix_len = 0
        self.frozen = False
        self.list_size = AtomicInt(0)  # entries linked into the list

    def is_full(self) -> bool:
        return self.frozen or len(self.order) > self.capacity

    def alloc(self, key: Any, value: Any) -> Optional[int]:
        """Claim one slot and write it whole: a new OrderEntry(key, NONE,
        slot), the key and the value (None for a TOMBSTONE), and set the
        key's value bit for a value. None when full or frozen.

        Freezing is one flag, set under word_lock(self), and alloc reads
        it under the same lock, so no slot is handed out once it is set.
        The appends and the bit happen under the lock too, before the
        caller can publish idx, so the freeze pass and every reader of a
        published index see an initialized entry, key and value, and no
        bit is set once the chunk is frozen. The key is hashed before the
        lock is taken, so an unhashable key changes nothing. An exception
        inside the try cuts order and keys back to data, which is appended
        last, so a slot is written whole or not at all; a bit set before it
        stays, a false positive.
        The index and dataIndex are the shared slot ints.
        """
        if value is not TOMBSTONE:
            h = hash(key) % (self.capacity << 3)  # the value bit; may raise TypeError
        lock = word_lock(self)
        lock.acquire()
        try:
            idx = len(self.order)
            if self.frozen or idx > self.capacity:
                return None
            if idx >= len(_SLOTS):
                cover_slots(idx + 1)
            idx = _SLOTS[idx]
            if value is TOMBSTONE:
                value = None
            else:
                self.bits[h >> 3] |= 1 << (h & 7)
            self.order.append(OrderEntry(key, VERSION_NONE, idx))
            self.keys.append(key)
            self.data.append(value)
            return idx
        except BaseException:  # a MemoryError from an append, say; idx may be unbound
            del self.order[len(self.data):], self.keys[len(self.data):]
            raise
        finally:
            lock.release()

    def allocated_bound(self) -> int:
        """Exclusive bound of initialized slots; fixed once frozen."""
        return len(self.order)

    def order_key(self, idx: int) -> tuple:
        """Total order of list positions: (key asc, version desc); END is last."""
        if idx == END:
            return (KEY_MAX, 0)
        e = self.order[idx]
        return (e.key, -e.version)

    def __repr__(self) -> str:
        return f"Chunk(n={len(self.order) - 1}, capacity={self.capacity}, frozen={self.frozen})"


_INF = float("inf")  # a version bound: above every version


def find_insertion_location(chunk: Chunk, key: Any, version: int) -> tuple[int, int]:
    """Binary-search the sorted prefix, then walk next links to the first
    entry >= (key, version) in (key asc, version desc) order. Returns the
    straddling (prev, next) order indices; prev may be the head sentinel
    (0) and next may be END. An equal (key, version) entry is always
    returned as next: that is the overwrite signal."""
    order = chunk.order
    prev = _prefix_search_before(chunk, key)
    nxt = order[prev].next
    while nxt != END:
        e = order[nxt]
        if e.key > key:
            break
        # get and scan pass version +inf: the first entry of the key stops.
        if e.key == key and (version == _INF or e.version <= version):
            break
        prev = nxt
        nxt = e.next
    return prev, nxt


def _prefix_search_before(chunk: Chunk, key: Any) -> int:
    """Greatest sorted-prefix index whose key is strictly less than key,
    or the head sentinel. Strictness keeps same-key version ordering to
    the walk."""
    return bisect_left(chunk.keys, key, 1, chunk.sorted_prefix_len + 1) - 1
