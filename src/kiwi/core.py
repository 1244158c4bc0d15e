"""Chunked multi-version concurrent sorted map.

A map-wide global version counter (incremented only by scans) defines
snapshot boundaries; a pending-scans array (PSA) tells rebalance which
old versions in-flight scans still need. kiwi.chunk holds the chunks.

Index: one immutable (keys, chunks) pair, swapped whole by CAS, is the
only record of which chunks are live and of the bounds of each: chunk j
covers [keys[j], keys[j + 1]), the last one up to KEY_MAX. They stay
fixed while the index holds the chunk, and find_chunk is one bisect of
one snapshot of the index. A rebalance retires a chunk by one index CAS
that swaps the chunk for its new chunks (KiwiMap._rebalance_chunk): the
CAS both picks the winner among rival rebalancers of the chunk and
publishes its chunks. A chunk becomes reachable only through the index,
so one the index no longer holds is retired for good and needs no
forward pointer. The invariant: a put allocates only in a chunk that
some published index held. A put that meets a retired chunk fails
alloc, because the chunk is frozen, and its rebalance call lands the
index CAS itself or finds the chunk gone before the put retries. So a
reader holding a stale snapshot reads a frozen chunk that no later put
has bypassed: every put in the chunks that took its place read a newer
index, so it began its allocation after the reader's index read, and it
takes a version above every scan that read the older index.

Progress: put is lock-free; it retries only after a rebalance froze its
chunk. get and scan never retry. find_chunk is one bisect, a list walk
passes at most a chunk's capacity of entries, and the PPA has one cell
per thread, so get takes a bounded number of steps whatever other
threads do: it is wait-free. scan reads one index snapshot, taken after
its version, and each chunk of its range there once, so its steps are
fixed by the chunks its range met when it started. Puts that split
chunks ahead of it add none: scan is wait-free too.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_right
from typing import Any, Callable, Optional

from .atomics import AtomicInt, cas, full_fence, store_fence
from .bounds import BoundsCounters
from .chunk import (
    _INF, END, FROZEN, KEY_MAX, KEY_MIN, TOMBSTONE, VERSION_NONE,
    Chunk, OrderEntry, find_insertion_location, overwrite_data_index,
)
from .rebalance import check_rebalance, copy_compact, copy_range, freeze_chunk, help_frozen_chunk_puts


class RegistrationError(RuntimeError):
    """Thread registry misuse: double registration, capacity, or no slot."""


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
    indexes the per-chunk PPA and the map PSA. Every put that returns
    clears its PPA cell and every scan its PSA cell before returning, so
    a slot given back by unregister_thread() carries nothing over to its
    next thread. A put that raises after publishing its slot leaves its
    PPA cell set: readers still find its value there until the thread's
    next put into that chunk overwrites the cell, so the value can vanish
    with no delete. Clearing the cell on that path is still to be done.
    put(key, TOMBSTONE) discards a key; put raises ValueError for a None
    value, a None key or a key holding a NaN, and TypeError for an
    unhashable key, before it changes anything. So it does for a key that
    does not compare with its chunk's first stored key, but it checks no
    other: a key that compares with that one and not with another stored
    key raises after publishing its slot, and then so do the chunk's
    readers. get returns None for absent keys and
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
        first = Chunk(max_items, max_threads)
        self._index: tuple[tuple, tuple] = ((KEY_MIN,), (first,))

    # ---------------- chunk location ----------------

    def find_chunk(self, key: Any) -> Chunk:
        """The chunk covering key in one snapshot of the index: live, or
        retired after the snapshot was published (see the module
        docstring for why a reader may use it)."""
        keys, chunks = self._index
        # keys[0] is KEY_MIN, below every key, so the search starts past it.
        return chunks[bisect_right(keys, key, 1) - 1]

    # ---------------- helping ----------------

    def help_pending_puts(self, chunk: Chunk, lo: Any, hi: Any, version: float) -> dict[Any, tuple[int, int]]:
        """A reader's one pass over the chunk's PPA fences, helps, filters
        and ranks: fence, read the global version, give it to every
        unversioned pending put of a key in [lo, hi], skip frozen entries
        and those versioned above version, and return {key: (version,
        dataIndex)}, each key's largest, for copy_range to merge with the
        list. The fence comes before any PPA cell is read, so no reader
        can skip it."""
        full_fence()
        help_version = self._gv.get()
        best: dict[Any, tuple[int, int]] = {}
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
                entry.cas_version(VERSION_NONE, help_version)
                ver = entry.version
            if ver is FROZEN or ver > version:
                continue
            rank = (ver, entry.data_index)
            cur = best.get(key)
            if cur is None or rank > cur:
                best[key] = rank
        return best

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
                # changes anything: on a one-chunk map the index search
                # above compared key with no stored key.
                _ = keys[1] < key
            if is_tomb:
                h = hash(key) % (chunk.capacity << 3)  # the value bit
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
            entry.cas_version(VERSION_NONE, FROZEN if chunk.frozen else self._gv.get())
            if entry.version is FROZEN:
                # FROZEN replaces only NONE, so no reader saw it: safe undo.
                bounds.on_put_undone(is_tomb)
                chunk.ppa[slot] = None
                self._rebalance_chunk(chunk)
                continue
            # ALREADY_LINKED when a rebalance's help pass linked it first;
            # the PPA cell stays set until the insert returns, for that pass.
            self.add_to_linked_list(chunk, idx)
            chunk.ppa[slot] = None
            if check_rebalance(chunk, self._rng):
                self._rebalance_chunk(chunk)
            return

    def get(self, key: Any) -> Any:
        self._require_slot()
        chunk = self.find_chunk(key)
        h = hash(key) % (chunk.capacity << 3)  # the value bit
        if not chunk.bits[h >> 3] & (1 << (h & 7)):
            return None  # the chunk holds no value of key
        ppa_best = self.help_pending_puts(chunk, key, key, _INF)
        if ppa_best:  # merge it with the list as a scan would
            found = copy_range(chunk, key, key, _INF, ppa_best)
            return found[0][1] if found else None
        # Versions sort descending, so the first entry with this key is the
        # newest; equal-version duplicates cannot exist.
        nxt = find_insertion_location(chunk, key, _INF)[1]
        if nxt != END and chunk.keys[nxt] == key:
            return chunk.data[chunk.order[nxt].data_index]  # None for a tombstone
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
            # One index snapshot, read after the version: the chunks of
            # the range when the scan starts are all it reads, each over
            # the whole range, as each holds only keys of its own bounds.
            keys, chunks = self._index
            for chunk in chunks[bisect_right(keys, min_key, 1) - 1 : bisect_right(keys, max_key, 1)]:
                ppa_best = self.help_pending_puts(chunk, min_key, max_key, scan_version)
                out.extend(copy_range(chunk, min_key, max_key, scan_version, ppa_best))
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
        """Insert a versioned entry into the chunk's list, or raise the
        dataIndex of an existing equal-(key, version) entry. The thread
        whose CAS physically lands runs the size-bound accounting.

        The same order index may be inserted concurrently by its owner and
        by rebalance helpers. entry.next is therefore only moved TOWARD the
        insertion point (closest candidate wins): every candidate sorts at
        or after the entry, nodes are never removed, and prev.next values
        never repeat, so a successful prev.next CAS implies entry.next
        holds exactly the candidate that was linked.
        """
        order = chunk.order
        data = chunk.data
        entry = order[idx]
        key = entry.key
        version = entry.version
        is_tomb = data[idx] is None
        bounds = self.bounds
        while True:
            prev_idx, next_idx = find_insertion_location(chunk, key, version)
            prev = order[prev_idx]
            if next_idx == idx:
                return _ALREADY_LINKED
            nxt = order[next_idx] if next_idx != END else None
            if nxt is not None and nxt.key == key and nxt.version == version:
                old = overwrite_data_index(nxt, entry.data_index)
                if old is not None:
                    # An unchanged prev.next proves the overwritten entry
                    # was the key's newest, so its old data says whether
                    # the key was present.
                    absent = data[old] is None if prev.next == next_idx else None
                    bounds.update_count_after_overwrite(is_tomb, prev.key == key, absent)
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
                    absent = data[next_di_seen] is None
                else:
                    absent = None
                bounds.update_count_after_insert(is_tomb, prev.key == key, absent)
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
        """Freeze, help and compact chunk, then swap it in the index for
        its new chunks by one CAS, which both decides and publishes the
        rebalance; True if this call's CAS landed. The first new chunk
        keeps chunk's index key, and each later one takes its slot 1 key,
        where copy_compact split. A chunk becomes reachable only through
        the index, so once the index no longer holds it, it is retired and
        the call returns False; so does a call whose CAS lost to a rival
        rebalance of the chunk, whose copy is discarded unreferenced. A
        CAS lost to a rebalance of another chunk reads the index again."""
        new_chunks = None
        while True:
            snapshot = keys, chunks = self._index
            try:
                i = chunks.index(chunk)  # chunks compare by identity
            except ValueError:
                return False
            if new_chunks is None:
                freeze_chunk(chunk)
                help_frozen_chunk_puts(self, chunk)
                new_chunks = tuple(copy_compact(chunk, self._min_active_scan_version()))
                split_keys = tuple(c.keys[1] for c in new_chunks[1:])
            index = (keys[: i + 1] + split_keys + keys[i + 1 :], chunks[:i] + new_chunks + chunks[i + 1 :])
            if cas(self, "_index", snapshot, index):
                return True

    # ---------------- introspection ----------------

    def chunks(self) -> list[Chunk]:
        """Live chunks in ascending key order: the index's."""
        return list(self._index[1])

