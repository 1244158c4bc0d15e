"""Chunk freeze, pending-put helping, compaction, and range copy.

Rebalance of a chunk proceeds in idempotent stages any thread may run:
freeze (flag + allocation cut-off + sealing unversioned entries), help
(insert every Pending entry into the frozen list and commit it), compact
(copy surviving versions into fresh half-filled chunks), then a single
replacement CAS decides the winner whose chunks get spliced in. Losers
discard their copies; publication (splice, next-forwarding, index) is
re-runnable by anyone so a stalled winner never blocks writers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .atomics import store_fence
from .core import (
    END,
    FROZEN,
    TOMBSTONE,
    VERSION_NONE,
    Chunk,
    KiwiMap,
    OrderEntry,
    _prefix_search_before,
    logical_version,
)


@dataclass
class RebalancePolicy:
    """When a put should reorganize a chunk.

    Trigger when the chunk is full, or with probability
    rebalance_prob_perc / 100 when the presorted prefix covers less than
    1/sorted_rebalance_ratio of the linked list. fill_factor controls how
    full freshly compacted chunks are built.
    """

    rebalance_prob_perc: int = 2
    sorted_rebalance_ratio: float = 1.8
    fill_factor: float = 0.5

    def __post_init__(self) -> None:
        if not 0 <= self.rebalance_prob_perc <= 100:
            raise ValueError("rebalance_prob_perc must be in [0, 100]")
        if self.sorted_rebalance_ratio <= 1:
            raise ValueError("sorted_rebalance_ratio must be > 1")
        if not 0 < self.fill_factor <= 1:
            raise ValueError("fill_factor must be in (0, 1]")


def check_rebalance(chunk: Chunk, policy: RebalancePolicy, rand: Callable[[], float] = random.random) -> bool:
    if chunk.is_full():
        return True
    if chunk.sorted_prefix_len * policy.sorted_rebalance_ratio < chunk.list_size.get():
        return rand() * 100.0 < policy.rebalance_prob_perc
    return False


def freeze_chunk(chunk: Chunk) -> None:
    """Seal the chunk: no new allocations, no new versions. Idempotent.

    The allocation cut-off returns the exact bound of handed-out slots
    (cell writes happen under the same lock), so the sealing pass covers
    every entry that could still be unversioned. After this pass no entry
    can move NONE->Pending, which makes the helping pass complete.
    """
    chunk.frozen = True
    store_fence()
    bound = chunk.freeze_allocation()
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
        if ver is FROZEN or ver == VERSION_NONE:
            continue
        if ver < 0:
            kiwi.add_to_linked_list(chunk, idx, slot)
            entry.cas_version(ver, -ver)


def _collect_key_groups(chunk: Chunk) -> list[tuple[Any, list[tuple[int, int]]]]:
    """Walk the frozen list: per key (ascending), its (version desc,
    data_index) pairs."""
    groups: list[tuple[Any, list[tuple[int, int]]]] = []
    order = chunk.order
    idx = chunk.head.next
    while idx != END:
        entry = order[idx]
        ver = logical_version(entry.version)
        if groups and groups[-1][0] == entry.key:
            groups[-1][1].append((ver, entry.data_index))
        else:
            groups.append((entry.key, [(ver, entry.data_index)]))
        idx = entry.next
    return groups


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
    fill_factor: float,
) -> list[Chunk]:
    """Build 1..k fresh chunks from a frozen, fully-helped chunk.

    New chunks are presorted (sorted_prefix_len == entry count), filled to
    at most fill_factor x max_items, and never split one key's versions
    across a chunk boundary. Their ranges partition the old range.
    """
    surviving: list[tuple[Any, list[tuple[int, Any]]]] = []
    for key, versions in _collect_key_groups(chunk):
        kept = _retained_versions(versions, min_active_scan)
        if kept:
            surviving.append((key, [(v, chunk.data[d] if d >= 0 else TOMBSTONE) for v, d in kept]))

    target = max(1, int(max_items * fill_factor))
    pieces: list[list[tuple[Any, list[tuple[int, Any]]]]] = [[]]
    count = 0
    for group in surviving:
        if count and count + len(group[1]) > target:
            pieces.append([])
            count = 0
        pieces[-1].append(group)
        count += len(group[1])

    new_chunks: list[Chunk] = []
    for i, piece in enumerate(pieces):
        min_key = chunk.min_key if i == 0 else piece[0][0]
        range_end = pieces[i + 1][0][0] if i + 1 < len(pieces) else chunk.range_end
        fresh = Chunk(min_key, range_end, max_items, max_threads)
        _populate_presorted(fresh, piece)
        new_chunks.append(fresh)
    for i in range(len(new_chunks) - 1):
        new_chunks[i].next.set(new_chunks[i + 1])
    new_chunks[-1].next.set(chunk.next.get())
    return new_chunks


def _populate_presorted(fresh: Chunk, piece: list[tuple[Any, list[tuple[int, Any]]]]) -> None:
    slot = 1
    prev = fresh.head
    for key, versions in piece:
        for ver, value in versions:
            entry = OrderEntry(key)
            entry.version = ver
            if value is TOMBSTONE:
                entry.data_index = -slot
            else:
                entry.data_index = slot
                fresh.data[slot] = value
            fresh.order[slot] = entry
            prev.next = slot
            prev = entry
            slot += 1
    prev.next = END
    fresh.sorted_prefix_len = slot - 1
    fresh.list_size.set(slot - 1)
    fresh._alloc_counter = slot


def replace_chunks(kiwi: KiwiMap, old: Chunk, new_chunks: list[Chunk]) -> bool:
    """Decide and publish a replacement for old. Exactly one caller wins
    the replacement CAS; losers' chunks are discarded unreferenced. The
    publication steps run for winners and losers alike (idempotent)."""
    won = old.replacement.compare_and_set(None, tuple(new_chunks))
    kiwi._finish_replacement(old)
    return won


def copy_range(
    chunk: Chunk,
    lo: Any,
    hi: Any,
    scan_version: int,
    ppa_items: Optional[list[OrderEntry]] = None,
) -> list[tuple[Any, Any]]:
    """Single pass over the chunk: for each key in [lo, hi], the newest
    item with version <= scan_version among list entries and helped PPA
    items, ranked by (version, |dataIndex|). Tombstone winners suppress
    their key. Output ascending, unique keys."""
    order = chunk.order
    best: dict[Any, tuple[int, int, int]] = {}
    idx = order[_prefix_search_before(chunk, lo)].next
    while idx != END:
        entry = order[idx]
        key = entry.key
        if key > hi:
            break
        if key >= lo:
            ver = logical_version(entry.version)
            if ver <= scan_version:
                di = entry.data_index
                rank = (ver, abs(di), di)
                cur = best.get(key)
                if cur is None or rank > cur:
                    best[key] = rank
        idx = entry.next
    for entry in ppa_items or ():
        key = entry.key
        if key < lo or key > hi:
            continue
        word = entry.version
        if word is FROZEN or word == VERSION_NONE:
            continue
        ver = logical_version(word)
        if ver > scan_version:
            continue
        di = entry.data_index
        rank = (ver, abs(di), di)
        cur = best.get(key)
        if cur is None or rank > cur:
            best[key] = rank
    return [
        (key, chunk.data[di])
        for key, (_, _, di) in sorted(best.items())
        if di >= 0
    ]
