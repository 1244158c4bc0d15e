"""Chunk freeze, pending-put helping, compaction, and range copy.

Rebalance of a chunk proceeds in idempotent stages any thread may run:
freeze (one flag, which is also the allocation cut-off, then sealing
unversioned entries), help (insert every Pending entry into the frozen
list and commit it), compact (copy surviving versions into fresh
half-filled chunks), then a single replacement CAS decides the winner
whose chunks get spliced in. Losers discard their copies; publication
(splice, next-forwarding, index) is re-runnable by anyone so a stalled
winner never blocks writers.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, Iterator, Optional

from .atomics import cas, store_fence, word_lock
from .core import (
    _INF,
    END,
    FROZEN,
    TOMBSTONE,
    VERSION_NONE,
    Chunk,
    KiwiMap,
    OrderEntry,
    find_insertion_location,
    logical_version,
)

_NO_KEY = object()  # equal to no key
_entry_key = attrgetter("key")

# When a put reorganizes its chunk: always when the chunk is full, else
# with probability REBALANCE_PROB_PERC / 100 when the presorted prefix
# covers less than 1 / SORTED_REBALANCE_RATIO of the linked list.
# Compaction fills fresh chunks to FILL_FACTOR x capacity.
REBALANCE_PROB_PERC = 2
SORTED_REBALANCE_RATIO = 1.8
FILL_FACTOR = 0.5


def check_rebalance(chunk: Chunk, rand: Callable[[], float]) -> bool:
    if chunk.is_full():
        return True
    if chunk.sorted_prefix_len * SORTED_REBALANCE_RATIO < chunk.list_size.get():
        return rand() * 100.0 < REBALANCE_PROB_PERC
    return False


def freeze_chunk(chunk: Chunk) -> None:
    """Seal the chunk: no new allocations, no new versions. Idempotent.

    Freezing is one flag, set under the chunk's word lock. Chunk.alloc
    reads it under that lock, so it is also the allocation cut-off: once
    it is set the allocation counter is the exact bound of handed-out
    slots (cell writes happen under the same lock), and the sealing pass
    covers every entry that could still be unversioned. After this pass no
    entry can move NONE->Pending, which makes the helping pass complete.
    """
    with word_lock(chunk):
        chunk.frozen = True
    store_fence()
    bound = chunk.allocated_bound()
    order = chunk.order
    for idx in range(1, bound):
        entry = order[idx]
        if entry.version == VERSION_NONE:
            entry.cas_version(VERSION_NONE, FROZEN)


def help_frozen_chunk_puts(kiwi: KiwiMap, chunk: Chunk) -> None:
    """Insert every Pending entry into the frozen chunk's list and commit
    it. Duplicate helping degrades to an overwrite or no-op through the
    dataIndex rule, so concurrent rebalancers are safe."""
    slot = kiwi._require_slot()
    bound = chunk.allocated_bound()
    order = chunk.order
    for idx in range(1, bound):
        entry = order[idx]
        ver = entry.version
        if ver is not FROZEN and ver < 0:
            kiwi.add_to_linked_list(chunk, idx, slot)
            entry.cas_version(ver, -ver)


def _list_entries(chunk: Chunk) -> Iterator[OrderEntry]:
    """The chunk's list in order: key ascending, version descending."""
    order = chunk.order
    idx = order[0].next
    while idx != END:
        entry = order[idx]
        yield entry
        idx = entry.next


def _retained_versions(versions: list[tuple[int, int]], min_active_scan: float) -> list[tuple[int, int]]:
    """Versions a compacted chunk must keep for one key.

    Keep the newest, plus everything an in-flight scan could still select:
    all versions at or above the floor, where the floor is the newest
    version <= min_active_scan (a scan at version s >= min_active_scan may
    select any version in [floor, s]). A key whose newest version is a
    tombstone older than every active scan is dropped entirely.
    """
    newest_ver, newest_di = versions[0]
    if newest_di < 0 and newest_ver < min_active_scan:
        return []
    floor = None
    for ver, _ in versions:
        if ver <= min_active_scan:
            floor = ver
            break
    if floor is None:
        return list(versions)
    return [(v, d) for v, d in versions if v >= floor]


def copy_compact(
    chunk: Chunk,
    min_active_scan: float,
    *,
    max_items: int,
    max_threads: int,
) -> list[Chunk]:
    """Build 1..k fresh chunks from a frozen, fully-helped chunk in one
    walk of its list.

    New chunks are presorted (sorted_prefix_len == entry count), filled to
    at most FILL_FACTOR x max_items, and never split one key's versions
    across a chunk boundary. Their ranges partition the old range.
    """
    target = max(1, int(max_items * FILL_FACTOR))
    fresh = Chunk(chunk.min_key, chunk.range_end, max_items, max_threads)
    new_chunks = [fresh]
    for key, group in groupby(_list_entries(chunk), key=_entry_key):
        kept = _retained_versions([(logical_version(e.version), e.data_index) for e in group], min_active_scan)
        if not kept:
            continue
        if fresh.sorted_prefix_len and fresh.sorted_prefix_len + len(kept) > target:
            fresh.range_end = key
            nxt = Chunk(key, chunk.range_end, max_items, max_threads)
            fresh.next = nxt
            fresh = nxt
            new_chunks.append(fresh)
        for ver, di in kept:
            _append_presorted(fresh, key, ver, chunk.data[di] if di >= 0 else TOMBSTONE)
    fresh.next = chunk.next
    for new_chunk in new_chunks:
        new_chunk.list_size.set(new_chunk.sorted_prefix_len)
    return new_chunks


def _append_presorted(fresh: Chunk, key: Any, ver: int, value: Any) -> None:
    """Append one item after the last entry of a chunk no other thread can
    see yet; the caller appends in (key asc, version desc) order and sets
    list_size once the chunk is complete."""
    slot = fresh._alloc_counter
    entry = OrderEntry(key)
    entry.version = ver
    if value is TOMBSTONE:
        entry.data_index = -slot
        fresh.data.append(None)
    else:
        entry.data_index = slot
        fresh.data.append(value)
    fresh.order[slot - 1].next = slot
    fresh.order.append(entry)
    fresh.keys.append(key)
    fresh._alloc_counter = slot + 1
    fresh.sorted_prefix_len = slot


def replace_chunks(kiwi: KiwiMap, old: Chunk, new_chunks: list[Chunk]) -> bool:
    """Decide and publish a replacement for old. Exactly one caller wins
    the replacement CAS; losers' chunks are discarded unreferenced. The
    publication steps run for winners and losers alike (idempotent)."""
    won = cas(old, "replacement", None, tuple(new_chunks))
    kiwi._finish_replacement(old)
    return won


def copy_range(
    chunk: Chunk,
    lo: Any,
    hi: Any,
    scan_version: int,
    ppa_items: Optional[list[OrderEntry]] = None,
) -> list[tuple[Any, Any]]:
    """One ordered walk of the chunk's list from the first key >= lo: for
    each key in [lo, hi], the first entry with version <= scan_version
    (versions sort descending, so it is the newest such), unless a helped
    PPA item ranks higher by (version, |dataIndex|); PPA items are
    versioned entries, as help_pending_puts returns them. Tombstone
    winners suppress their key. Output ascending, unique keys."""
    ppa_best: dict[Any, tuple[int, int, int]] = {}
    for entry in ppa_items or ():
        key = entry.key
        if key < lo or key > hi:
            continue
        ver = logical_version(entry.version)
        if ver > scan_version:
            continue
        di = entry.data_index
        rank = (ver, abs(di), di)
        cur = ppa_best.get(key)
        if cur is None or rank > cur:
            ppa_best[key] = rank
    order = chunk.order
    data = chunk.data
    out: list[tuple[Any, Any]] = []
    taken = _NO_KEY  # the last key whose item was chosen
    idx = find_insertion_location(chunk, lo, _INF)[1]
    while idx != END:
        entry = order[idx]
        idx = entry.next
        key = entry.key
        if key > hi:
            break
        if key == taken:
            continue
        ver = logical_version(entry.version)
        if ver > scan_version:
            continue
        taken = key
        di = entry.data_index  # read once; rank and payload must agree
        if ppa_best:
            cur = ppa_best.pop(key, None)
            if cur is not None and cur[:2] > (ver, abs(di)):
                di = cur[2]
        if di >= 0:
            out.append((key, data[di]))
    if ppa_best:  # keys only PPA items hold: at most one per thread slot
        out.extend((key, data[di]) for key, (_, _, di) in ppa_best.items() if di >= 0)
        out.sort()
    return out
