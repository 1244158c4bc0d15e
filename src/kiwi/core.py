"""Chunked multi-version concurrent sorted map.

Layout: a linked list of fixed-capacity chunks, each covering a key range
[min_key, range_end). A chunk holds an order array (versioned key slots
forming a sorted linked list with a presorted prefix), a key array
parallel to it (the prefix search bisects it directly), a data array of
immutable value cells, and a pending-puts array (PPA) with one slot per
registered thread. The order, key and data arrays grow by one append per
allocated slot, so a chunk pays for the slots it uses, not its capacity.
A map-wide global version counter (incremented only by scans) defines
snapshot boundaries; a pending-scans array (PSA) tells rebalance which
old versions in-flight scans still need.

Progress: put is lock-free; it retries only after a rebalance froze its
chunk. get and scan never retry, and their walks only move forward: a
list walk passes at most a chunk's capacity of entries, but find_chunk's
chunk walk and scan's range walk take one more step for each concurrent
rebalance that retires or splits a chunk ahead of them. So the reads are
wait-free while no rebalance completes, and lock-free under rebalancing.

Version word encoding; every transition is a CAS but the commit, a store:
    0    NONE       allocated, not yet visible
    -v   Pending(v) version assigned (by owner or helper), not yet in list
    +v   Committed(v)
    FROZEN          sealed by rebalance before any version was assigned
Every CAS expects NONE, which a word never returns to, and each committer
(owner or rebalance helper) stores the same +v once its list insert has
returned, so the store races no CAS. CPython makes a slot store whole on
both builds, and a release store on a free-threaded one, so whoever
reads +v sees the link made before it.

dataIndex encoding: +slot for a value stored at data[slot]; -slot for a
tombstone (its data cell holds None). Magnitude equals the allocation slot,
so |dataIndex| orders same-(key, version) items by recency; overwrites
raise the magnitude monotonically. Every slot number a chunk stores (a
dataIndex, a next link, the index alloc hands out) is the int object from
the shared slot tables below. CPython caches only the ints up to 256, so
without them each entry would hold ints of its own, and every step of a
list walk would load a cold int before it could index the order array.

Value bits: every chunk has eight bits per slot of capacity (one
byte), and the bit value_bit names for a key is set for each key the
chunk holds a value of (never for a tombstone alone). Chunk.alloc sets a
value put's bit under the chunk's stripe before it returns the slot, so
before the put publishes anything; copy_compact sets every bit of an
output chunk before the replacement CAS publishes the chunk. A live
chunk's bits are only ever set. So a clear bit proves the chunk held no
value of the key, in its list, its PPA or any allocated slot, when the
bit was read: get returns None and a delete returns at once. That read
needs no fence: nothing of the put or of the compaction is visible
before the bit, so a reader that finds it clear is ordered before the
put. A set bit, a hash collision included, takes the full path.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Optional

from .atomics import _WORD_LOCKS, AtomicInt, cas, full_fence, store_fence, word_lock
from .bounds import BoundsCounters

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


# Shared slot-number ints: _SLOTS[i] is i and _NEG_SLOTS[i] is -i, one
# object per number for every chunk. They grow by extend only, under
# _SLOTS_LOCK, to cover the highest slot any chunk has used, so an int
# once handed out stays the shared one and readers index without a lock.
# _NEG_SLOTS grows first: any i below len(_SLOTS) is in both tables.
# Chunk.alloc takes the lock inside its stripe; code that holds the lock
# never takes a stripe, so the two cannot deadlock.
_SLOTS: list[int] = [0]
_NEG_SLOTS: list[int] = [0]
_SLOTS_LOCK = threading.Lock()


def cover_slots(bound: int) -> None:
    """Grow the shared slot tables to cover every slot below bound."""
    if bound <= len(_SLOTS):
        return
    with _SLOTS_LOCK:
        size = len(_SLOTS)
        if bound > size:
            new = list(range(size, bound))
            _NEG_SLOTS.extend([-i for i in new])
            _SLOTS.extend(new)


class RegistrationError(RuntimeError):
    """Thread registry misuse: double registration, capacity, or no slot."""


class OrderEntry:
    """One versioned key slot. key is immutable; the rest change by CAS but the commit."""

    __slots__ = ("key", "version", "data_index", "next")

    def __init__(self, key: Any, version: Any = VERSION_NONE, data_index: int = 0) -> None:
        self.key = key
        self.version = version
        self.data_index = data_index  # a put's entry gets its own in Chunk.alloc
        self.next = END

    def cas_version(self, expected: Any, new: Any) -> bool:
        return cas(self, "version", expected, new)

    def cas_data_index(self, expected: int, new: int) -> bool:
        return cas(self, "data_index", expected, new)

    def cas_next(self, expected: int, new: int) -> bool:
        return cas(self, "next", expected, new)

    def __repr__(self) -> str:
        return f"OrderEntry(key={self.key!r}, ver={self.version!r}, di={self.data_index}, next={self.next})"


def logical_version(word: Any) -> int:
    """Pending(-v) and Committed(+v) rank equally as version v."""
    return -word if word < 0 else word


def overwrite_data_index(entry: OrderEntry, new_data_index: int) -> Optional[int]:
    """Raise entry.data_index to new_data_index while it is newer (larger
    magnitude). Returns the word THIS call's CAS replaced, or None when
    the call changed nothing (the entry already held a newer word)."""
    new_mag = abs(new_data_index)
    while True:
        old = entry.data_index
        if new_mag <= abs(old):
            return None
        if entry.cas_data_index(old, new_data_index):
            return old


def value_bit(bits: bytearray, key: Any) -> tuple[int, int]:
    """The value bit of key in a chunk's bits, as (byte index, mask): bit
    hash(key) mod (8 * capacity). Raises TypeError for an unhashable key.

    get, put, Chunk.alloc and copy_compact compute the bit inline, as alloc
    indexes its stripe: on CPython 3.11 (timeit, a 2-vCPU guest) the call
    and its tuple cost about 100 ns, a seventh of a get on a 100k-key map,
    and compaction would pay them for every value it keeps.
    tests/test_value_bits.py checks each inline copy against this one."""
    h = hash(key) % (len(bits) << 3)
    return h >> 3, 1 << (h & 7)


class Chunk:
    """Fixed-capacity segment covering [min_key, range_end).

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
        "min_key",
        "range_end",
        "capacity",
        "order",
        "keys",
        "data",
        "bits",
        "ppa",
        "sorted_prefix_len",
        "frozen",
        "replacement",
        "next",
        "list_size",
    )

    def __init__(self, min_key: Any, range_end: Any, capacity: int, max_threads: int) -> None:
        self.min_key = min_key
        self.range_end = range_end
        self.capacity = capacity
        self.order: list[OrderEntry] = [OrderEntry(None)]
        self.keys: list[Any] = [None]
        self.data: list[Any] = [None]
        self.bits = bytearray(capacity)  # value bits, see value_bit
        self.ppa: list[Optional[int]] = [None] * max_threads
        self.sorted_prefix_len = 0
        self.frozen = False
        self.replacement: Optional[tuple["Chunk", ...]] = None
        self.next: Optional["Chunk"] = None
        self.list_size = AtomicInt(0)  # entries linked into the list

    def is_full(self) -> bool:
        return self.frozen or len(self.order) > self.capacity

    def alloc(self, entry: OrderEntry, value: Any) -> Optional[int]:
        """Claim one slot and write it whole: entry, key and value (None
        for a TOMBSTONE, whose dataIndex is negative), and set the key's
        value bit for a value. None when full or frozen.

        Freezing is one flag, set under this chunk's word lock, and alloc
        reads it under the same lock, so no slot is handed out once it is
        set. The appends and the bit happen under the lock too, before the
        caller can publish idx, so the freeze pass and every reader of a
        published index see an initialized entry, key and value, and no
        bit is set once the chunk is frozen. The key is hashed before the
        lock is taken, so an unhashable key changes nothing. The index and
        dataIndex are the shared slot ints.
        """
        if value is not TOMBSTONE:
            h = hash(entry.key) % (self.capacity << 3)  # value_bit, inline; may raise TypeError
        lock = _WORD_LOCKS[(id(self) >> 6) & 63]  # word_lock(self), inline; a test pins the match
        lock.acquire()
        try:
            idx = len(self.order)
            if self.frozen or idx > self.capacity:
                return None
            if idx >= len(_SLOTS):
                cover_slots(idx + 1)
            idx = _SLOTS[idx]
            if value is TOMBSTONE:
                entry.data_index = _NEG_SLOTS[idx]
                value = None
            else:
                entry.data_index = idx
                self.bits[h >> 3] |= 1 << (h & 7)
            self.order.append(entry)
            self.keys.append(entry.key)
            self.data.append(value)
            return idx
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
        return (e.key, -logical_version(e.version))

    def __repr__(self) -> str:
        return f"Chunk([{self.min_key!r}, {self.range_end!r}), n={len(self.order) - 1}, frozen={self.frozen})"


_INF = float("inf")  # a version bound: above every version


def refuse_unstorable(key: Any, value: Any) -> None:
    """Raise ValueError for a put no map can store faithfully: a None
    value, a None key (the head sentinel's), or a key unequal to itself
    (NaN), also at any depth inside a tuple key."""
    if value is None or key is None or key != key or (isinstance(key, tuple) and nan_inside(key)):
        raise ValueError(f"put({key!r}, {value!r}): None values and None or NaN keys are not storable")


def nan_inside(key: tuple) -> bool:
    """Whether an element of a tuple key, at any depth, is unequal to
    itself. Tuple equality counts identical elements as equal, so a tuple
    holding a NaN equals itself and key != key misses it."""
    for k in key:
        if k != k or (isinstance(k, tuple) and nan_inside(k)):
            return True
    return False


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
        if e.key == key and (version == _INF or logical_version(e.version) <= version):
            break
        prev = nxt
        nxt = e.next
    return prev, nxt


def _prefix_search_before(chunk: Chunk, key: Any) -> int:
    """Greatest sorted-prefix index whose key is strictly less than key,
    or the head sentinel. Strictness keeps same-key version ordering to
    the walk."""
    return bisect_left(chunk.keys, key, 1, chunk.sorted_prefix_len + 1) - 1


class InsertOutcome:
    """What add_to_linked_list did; rebalance and tests inspect these."""

    INSERTED = "inserted"
    OVERWROTE = "overwrote"
    ALREADY_LINKED = "already-linked"

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __repr__(self) -> str:
        return f"InsertOutcome({self.kind})"


# add_to_linked_list returns one of these; an outcome carries no other state.
_INSERTED = InsertOutcome(InsertOutcome.INSERTED)
_OVERWROTE = InsertOutcome(InsertOutcome.OVERWROTE)
_ALREADY_LINKED = InsertOutcome(InsertOutcome.ALREADY_LINKED)


class ThreadRegistry:
    """Per-map thread slots: register_thread() gives the calling thread the
    lowest free slot in range(max_threads), unregister_thread() gives it
    back for a later thread to reuse."""

    def __init__(self, max_threads: int) -> None:
        self.max_threads = max_threads
        self._tls = threading.local()
        self._free_slots = list(range(max_threads - 1, -1, -1))  # pop() gives the lowest
        self._reg_lock = threading.Lock()

    def register_thread(self) -> int:
        if getattr(self._tls, "slot", None) is not None:
            raise RegistrationError("thread already registered")
        with self._reg_lock:
            if not self._free_slots:
                raise RegistrationError(f"registration capacity exceeded ({self.max_threads} slots)")
            slot = self._free_slots.pop()
        self._tls.slot = slot
        return slot

    def unregister_thread(self) -> None:
        slot = self._require_slot()
        self._tls.slot = None
        with self._reg_lock:
            self._free_slots.append(slot)

    def _require_slot(self) -> int:
        slot = getattr(self._tls, "slot", None)
        if slot is None:
            raise RegistrationError("calling thread is not registered")
        return slot


class KiwiMap(ThreadRegistry):
    """Concurrent sorted map. Keys may be of any mutually comparable,
    hashable type (ints, strings, bytes, tuples, ...); values are any
    object but None.

    Threads must call register_thread() once before operating; the slot
    indexes the per-chunk PPA and the map PSA. Every put clears its PPA
    cell and every scan its PSA cell before returning, so a slot given
    back by unregister_thread() carries nothing over to its next thread.
    put(key, TOMBSTONE) discards a key; put raises ValueError for a None
    value, a None key or a key holding a NaN, and TypeError for an
    unhashable key or a key that does not compare with a stored key,
    before it changes anything. get returns None for absent keys and
    raises TypeError for an unhashable one. scan(lo, hi) is an atomic
    snapshot of the inclusive key range, sorted ascending.
    """

    def __init__(
        self,
        max_threads: int = 8,
        max_items: int = 4500,
        bounds_enabled: bool = False,
        rng: Callable[[], float] = random.random,
    ) -> None:
        if max_threads < 1:
            raise ValueError("max_threads must be >= 1")
        if max_items < 2:
            raise ValueError("max_items must be >= 2")
        super().__init__(max_threads)
        self.bounds = BoundsCounters(bounds_enabled)
        self._rng = rng
        self._gv = AtomicInt(1)
        self._psa: list[Optional[int]] = [None] * max_threads
        first = Chunk(KEY_MIN, KEY_MAX, max_items, max_threads)
        self._first = first
        self._index: tuple[tuple, tuple] = ((KEY_MIN,), (first,))

    # ---------------- chunk location ----------------

    def _index_floor(self, key: Any) -> Chunk:
        keys, chunks = self._index
        # keys[0] is KEY_MIN, below every key, so the search starts past it.
        i = bisect_right(keys, key, 1) - 1
        return chunks[i]

    def find_chunk(self, key: Any) -> Chunk:
        """Live-or-freshly-retired chunk covering key. The index is only an
        accelerator; correctness comes from the next-walk (retired chunks
        forward their next pointer into the replacement list)."""
        cur = self._index_floor(key)
        nxt = cur.next
        while nxt is not None and nxt.min_key <= key:
            cur = nxt
            nxt = cur.next
        return cur

    # ---------------- helping ----------------

    def help_pending_puts(self, chunk: Chunk, lo: Any, hi: Any) -> list[OrderEntry]:
        """Fence, read the global version, then give every relevant
        unversioned pending put that version and return all relevant
        versioned PPA entries for the caller to merge. The fence comes
        before any PPA cell is read, so no reader can skip it. Frozen
        entries are skipped."""
        full_fence()
        help_version = self._gv.get()
        items: list[OrderEntry] = []
        order = chunk.order
        for idx in chunk.ppa:
            if idx is None:
                continue
            entry = order[idx]  # alloc wrote it before the put published idx
            key = entry.key
            if key < lo or key > hi:
                continue
            ver = entry.version
            if ver == VERSION_NONE:
                entry.cas_version(VERSION_NONE, -help_version)
                ver = entry.version
            if ver is FROZEN:
                continue
            items.append(entry)
        return items

    # ---------------- operations ----------------

    def put(self, key: Any, value: Any) -> None:
        refuse_unstorable(key, value)
        slot = self._require_slot()
        is_tomb = value is TOMBSTONE
        bounds = self.bounds
        while True:
            chunk = self.find_chunk(key)
            keys = chunk.keys
            if len(keys) > 1:
                # Raise TypeError for a key of another type before the put
                # changes anything: on a one-chunk map the index search and
                # the chunk walk above compared key with no stored key.
                _ = keys[1] < key
            if is_tomb:
                h = hash(key) % (chunk.capacity << 3)  # value_bit, inline
                if not chunk.bits[h >> 3] & (1 << (h & 7)):
                    return  # the chunk holds no value of key: nothing to delete
            entry = OrderEntry(key)
            idx = chunk.alloc(entry, value)
            if idx is None:
                self._rebalance_chunk(chunk)
                continue
            bounds.on_put_published(is_tomb)
            chunk.ppa[slot] = idx
            store_fence()
            entry.cas_version(VERSION_NONE, FROZEN if chunk.frozen else -self._gv.get())
            ver = entry.version
            if ver is FROZEN:
                # FROZEN replaces only NONE, so no reader saw it: safe undo.
                bounds.on_put_undone(is_tomb)
                chunk.ppa[slot] = None
                self._rebalance_chunk(chunk)
                continue
            if ver < 0:
                self.add_to_linked_list(chunk, idx)
                entry.version = -ver  # commit: a store, see the module docstring
            # ver > 0: a rebalancer already inserted and committed it.
            chunk.ppa[slot] = None
            if check_rebalance(chunk, self._rng):
                self._rebalance_chunk(chunk)
            return

    def get(self, key: Any) -> Any:
        self._require_slot()
        chunk = self.find_chunk(key)
        h = hash(key) % (chunk.capacity << 3)  # value_bit, inline
        if not chunk.bits[h >> 3] & (1 << (h & 7)):
            return None  # the chunk holds no value of key
        candidates = self.help_pending_puts(chunk, key, key)
        if candidates:  # rank them against the list as a scan would
            found = copy_range(chunk, key, key, _INF, candidates)
            return found[0][1] if found else None
        # Versions sort descending, so the first entry with this key is the
        # newest; equal-version duplicates cannot exist.
        nxt = find_insertion_location(chunk, key, _INF)[1]
        if nxt != END and chunk.keys[nxt] == key:
            di = chunk.order[nxt].data_index
            return None if di < 0 else chunk.data[di]
        return None

    def scan(self, min_key: Any, max_key: Any) -> list[tuple[Any, Any]]:
        slot = self._require_slot()
        if min_key > max_key:
            raise ValueError("scan requires min_key <= max_key")
        # Publish a conservative version BEFORE the increment so rebalance
        # compaction can never drop versions this scan still needs.
        self._psa[slot] = self._gv.get()
        scan_version = self._gv.fetch_add(1)
        self._psa[slot] = scan_version
        try:
            out: list[tuple[Any, Any]] = []
            cursor = min_key
            done = False
            while not done:  # the cursor advances one chunk range per pass
                chunk = self.find_chunk(cursor)
                ppa_items = self.help_pending_puts(chunk, cursor, max_key)
                out.extend(copy_range(chunk, cursor, max_key, scan_version, ppa_items))
                done = chunk.range_end is KEY_MAX or chunk.range_end > max_key
                if not done:
                    cursor = chunk.range_end
            return out
        finally:
            self._psa[slot] = None

    def items(self) -> list[tuple[Any, Any]]:
        """Snapshot of the whole map (a scan over the full key range)."""
        return self.scan(KEY_MIN, KEY_MAX)

    # ---------------- size bounds ----------------

    def size_lower_bound(self) -> int:
        return self.bounds.size_lower_bound()

    def size_upper_bound(self) -> int:
        return self.bounds.size_upper_bound()

    def size(self) -> Optional[int]:
        """Known size as an int, or None when concurrent churn hides it."""
        return self.bounds.size()

    def is_empty(self) -> Optional[bool]:
        """True/False when decidable from the bounds, else None."""
        return self.bounds.is_empty()

    # ---------------- linked-list insertion ----------------

    def add_to_linked_list(self, chunk: Chunk, idx: int) -> InsertOutcome:
        """Insert a Pending/Committed entry into the chunk's list, or raise
        the dataIndex of an existing equal-(key, version) entry. The thread
        whose CAS physically lands runs the size-bound accounting.

        The same order index may be inserted concurrently by its owner and
        by rebalance helpers. entry.next is therefore only moved TOWARD the
        insertion point (closest candidate wins): every candidate sorts at
        or after the entry, nodes are never removed, and prev.next values
        never repeat, so a successful prev.next CAS implies entry.next
        holds exactly the candidate that was linked.
        """
        order = chunk.order
        entry = order[idx]
        key = entry.key
        version = logical_version(entry.version)
        bounds = self.bounds
        while True:
            prev_idx, next_idx = find_insertion_location(chunk, key, version)
            prev = order[prev_idx]
            if next_idx == idx:
                return _ALREADY_LINKED
            nxt = order[next_idx] if next_idx != END else None
            if nxt is not None and nxt.key == key and logical_version(nxt.version) == version:
                old = overwrite_data_index(nxt, entry.data_index)
                if old is not None:
                    # An unchanged prev.next proves the overwritten entry
                    # was the key's newest, so its old data says whether
                    # the key was present.
                    absent = old < 0 if prev.next == next_idx else None
                    bounds.update_count_after_overwrite(entry.data_index < 0, prev.key == key, absent)
                return _OVERWROTE
            next_di_seen = nxt.data_index if (nxt is not None and nxt.key == key) else None
            self._advance_entry_next(chunk, entry, next_idx)
            if entry.next != next_idx:
                continue  # a competing inserter is closer; re-find
            if prev.cas_next(next_idx, idx):
                chunk.list_size.fetch_add(1)
                # The CAS proves nothing was linked between prev and next:
                # a greater next key means the key was absent; an older
                # version of it whose dataIndex is unchanged since it was
                # read exposes the previous newest value.
                if next_di_seen is None:
                    absent = True
                elif nxt.data_index == next_di_seen:
                    absent = next_di_seen < 0
                else:
                    absent = None
                bounds.update_count_after_insert(entry.data_index < 0, prev.key == key, absent)
                return _INSERTED

    @staticmethod
    def _advance_entry_next(chunk: Chunk, entry: OrderEntry, candidate: int) -> None:
        cand_key = None  # built only once there is a current next to beat
        while True:
            cur = entry.next
            if cur != END:
                if cand_key is None:
                    cand_key = chunk.order_key(candidate)
                if chunk.order_key(cur) <= cand_key:
                    return
            if entry.cas_next(cur, candidate):
                return

    # ---------------- rebalance glue ----------------

    def _min_active_scan_version(self) -> float:
        versions = [v for v in self._psa if v is not None]
        return min(versions) if versions else _INF

    def _rebalance_chunk(self, chunk: Chunk) -> bool:
        """Freeze, help, compact, decide, publish; True if this call's
        replacement won the decision CAS. Losers' chunks are discarded
        unreferenced; publication runs for winners and losers alike."""
        won = False
        if chunk.replacement is None:
            freeze_chunk(chunk)
            help_frozen_chunk_puts(self, chunk)
            new_chunks = copy_compact(chunk, self._min_active_scan_version())
            won = cas(chunk, "replacement", None, tuple(new_chunks))
        self._finish_replacement(chunk)
        return won

    def _find_pred(self, chunk: Chunk) -> Optional[Chunk]:
        """Live-list predecessor of chunk, or None if already unreachable.
        The caller has moved _first off chunk, and a retired chunk never
        becomes _first again, so the walk starts past it."""
        cur = self._first
        while True:
            nxt = cur.next
            if nxt is chunk:
                return cur
            if nxt is None or nxt.min_key > chunk.min_key:
                return None
            cur = nxt

    def _finish_replacement(self, old: Chunk) -> None:
        """Publish a decided replacement: splice, forward, index. Idempotent
        and callable by any thread, so a stalled winner never blocks puts.
        Callers pass a chunk whose replacement is already decided."""
        new_chunks = old.replacement
        first = new_chunks[0]
        if self._first is old:
            cas(self, "_first", old, first)
        while True:
            pred = self._find_pred(old)
            if pred is None:
                break
            if cas(pred, "next", old, first):
                break
        # Forward retired chunk into the new list for in-flight readers;
        # under the word's stripe, so a concurrent cas on it stays atomic.
        if old.next is not first:
            with word_lock(old):
                old.next = first
        self._index_replace()

    def _index_replace(self) -> None:
        """Rebuild the index from the live list. Every publisher calls this
        after its own splice and forward, and a CAS lost to another rebuild
        walks again, so the last rebuild to land reflects every finished
        splice and a late helper's rebuild cannot reinstall a retired chunk."""
        while True:
            snapshot = self._index
            chunks = tuple(self.chunks())
            if chunks == snapshot[1]:
                return
            if cas(self, "_index", snapshot, (tuple(c.min_key for c in chunks), chunks)):
                return

    # ---------------- introspection ----------------

    def chunks(self) -> list[Chunk]:
        """Live chunk list, in ascending min_key order. Safe under
        concurrent rebalance: each listed chunk was reachable and not yet
        forwarded when the walk passed it."""
        out = []
        cur: Optional[Chunk] = self._first
        while cur is not None:
            nxt = cur.next
            # A retired chunk forwards into its replacement (nxt.min_key
            # below its range_end): walk through it, but do not list it.
            if nxt is None or nxt.min_key >= cur.range_end:
                out.append(cur)
            cur = nxt
        return out


# rebalance imports this module's names at its top, so its own come last.
from .rebalance import (  # noqa: E402
    check_rebalance,
    copy_compact,
    copy_range,
    freeze_chunk,
    help_frozen_chunk_puts,
)
