"""Shared test machinery: raw chunk builders, invariant walkers,
brute-force oracles kept independent of the code paths they check, and
the small hooks into a map's internals that only tests need."""

from __future__ import annotations

import dataclasses
from itertools import permutations
from typing import Any, Iterable

from kiwi.bench import MeasurementResult
from kiwi.atomics import AtomicInt
from kiwi.core import END, TOMBSTONE, Chunk, KiwiMap, OrderEntry, cover_slots, logical_version, value_bit
from kiwi.fuzz import FuzzConfig
from kiwi.history import GET, IS_EMPTY, PUT, SIZE, History, OpRecord

SIZE_MIX = {PUT: 3, "delete": 3, GET: 2, SIZE: 1, IS_EMPTY: 1}


def force_rebalance(kiwi: KiwiMap, key: Any) -> bool:
    """Rebalance the chunk covering key now; True if this call's
    replacement won."""
    return kiwi._rebalance_chunk(kiwi.find_chunk(key))


def global_version(kiwi: KiwiMap) -> int:
    return kiwi._gv.get()


def with_size_ops(cfg: FuzzConfig) -> FuzzConfig:
    """cfg with size/is_empty ops in the mix and the size bounds on."""
    return dataclasses.replace(cfg, mix=dict(SIZE_MIX), bounds_enabled=True)


def total_mean(result: MeasurementResult) -> float:
    """Mean ops/s summed over every op kind."""
    return sum(result.mean(kind) for kind in result.per_kind_raw)


def raw_chunk(
    listed: Iterable[tuple[Any, int, Any]],
    pending: Iterable[tuple[Any, int, Any]] = (),
    capacity: int = 256,
    max_threads: int = 4,
) -> tuple[Chunk, list[OrderEntry]]:
    """Hand-built chunk: `listed` items (key, version, value-or-TOMBSTONE)
    wired into the linked list in the given order (caller supplies sorted
    input), `pending` items allocated and versioned but NOT linked, as if
    published to the PPA and helped. Like alloc, it grows the shared slot
    table to cover its slots and sets each value's bit. Returns the chunk
    and the pending entries."""
    chunk = Chunk(float("-inf"), float("inf"), capacity, max_threads)

    def append(key, version, value):
        slot = len(chunk.order)
        entry = OrderEntry(key)
        entry.version = version
        entry.data_index = -slot if value is TOMBSTONE else slot
        chunk.order.append(entry)
        chunk.keys.append(key)
        chunk.data.append(None if value is TOMBSTONE else value)
        if value is not TOMBSTONE:
            byte, mask = value_bit(chunk.bits, key)
            chunk.bits[byte] |= mask
        return entry

    prev = chunk.order[0]
    for key, version, value in listed:
        prev.next = len(chunk.order)
        prev = append(key, version, value)
    prev.next = END
    chunk.sorted_prefix_len = len(chunk.order) - 1
    chunk.list_size = AtomicInt(chunk.sorted_prefix_len)
    # pending entries carry the pending (negative) version encoding
    pending_entries = [append(key, -version, value) for key, version, value in pending]
    cover_slots(len(chunk.order))
    return chunk, pending_entries


def walk_list(chunk: Chunk) -> list[OrderEntry]:
    out = []
    idx = chunk.order[0].next
    seen = set()
    while idx != END:
        assert idx not in seen, f"cycle through order index {idx}"
        seen.add(idx)
        entry = chunk.order[idx]
        out.append(entry)
        idx = entry.next
    return out


def assert_chunk_invariants(chunk: Chunk) -> None:
    """List strictly sorted by (key asc, version desc, |dataIndex| desc),
    no duplicate (key, version), keys inside the chunk range; the order,
    key and data arrays run parallel over exactly the allocated slots."""
    bound = chunk.allocated_bound()
    assert len(chunk.order) == len(chunk.keys) == len(chunk.data) == bound
    for i in range(1, bound):
        assert chunk.keys[i] is chunk.order[i].key, f"slot {i} key array out of step"
    entries = walk_list(chunk)
    ranks = [(e.key, -logical_version(e.version), -abs(e.data_index)) for e in entries]
    assert ranks == sorted(ranks), f"list out of order: {ranks}"
    pairs = [(e.key, logical_version(e.version)) for e in entries]
    assert len(pairs) == len(set(pairs)), f"duplicate (key, version): {pairs}"
    for e in entries:
        assert chunk.min_key <= e.key < chunk.range_end


def has_value_bit(chunk: Chunk, key: Any) -> bool:
    byte, mask = value_bit(chunk.bits, key)
    return bool(chunk.bits[byte] & mask)


def assert_map_invariants(kiwi: KiwiMap) -> None:
    """Every chunk's invariants, versions within the global counter, chunk
    ranges that tile, and value bits: every key with a value entry in a
    chunk's list, data or PPA has its bit set (each listed and each PPA
    entry is an allocated slot, so one pass over the slots covers all)."""
    chunks = kiwi.chunks()
    gv = global_version(kiwi)
    for chunk in chunks:
        assert_chunk_invariants(chunk)
        for entry in walk_list(chunk):
            assert logical_version(entry.version) <= gv, "version beyond the global counter"
        assert all(idx is None or 0 < idx < chunk.allocated_bound() for idx in chunk.ppa)
        for i in range(1, chunk.allocated_bound()):
            if chunk.order[i].data_index >= 0 or chunk.data[i] is not None:
                key = chunk.keys[i]
                assert has_value_bit(chunk, key), f"slot {i}: a value of {key!r} without its bit"
    boundaries = [(c.min_key, c.range_end) for c in chunks]
    for (lo1, hi1), (lo2, _) in zip(boundaries, boundaries[1:]):
        assert hi1 == lo2, f"chunk ranges do not tile: {boundaries}"


def quiescent_items(kiwi: KiwiMap) -> dict:
    """Independent drain: walk every chunk list directly, take the newest
    (version, |dataIndex|) item per key, drop tombstones. Valid only with
    no in-flight operations."""
    best: dict[Any, tuple[int, int, int, Chunk]] = {}
    for chunk in kiwi.chunks():
        for entry in walk_list(chunk):
            di = entry.data_index
            rank = (logical_version(entry.version), abs(di))
            cur = best.get(entry.key)
            if cur is None or rank > cur[:2]:
                best[entry.key] = (rank[0], rank[1], di, chunk)
    return {
        key: chunk.data[di]
        for key, (_, _, di, chunk) in best.items()
        if di >= 0
    }


def brute_force_range(
    items: list[tuple[Any, int, int, Any]],
    lo: Any,
    hi: Any,
    scan_version: int,
) -> list[tuple[Any, Any]]:
    """Oracle for copy_range: items are (key, version, data_index, value);
    per key in [lo, hi] pick the newest (version, |dataIndex|) with
    version <= scan_version, suppress tombstone winners."""
    best: dict[Any, tuple[tuple[int, int], Any, int]] = {}
    for key, version, data_index, value in items:
        if not lo <= key <= hi or version > scan_version:
            continue
        rank = (version, abs(data_index))
        cur = best.get(key)
        if cur is None or rank > cur[0]:
            best[key] = (rank, value, data_index)
    return [(k, value) for k, (_, value, di) in sorted(best.items()) if di >= 0]


def brute_force_linearizations(history: History) -> list[list[OpRecord]]:
    """Every real-time-consistent total order (small histories only).
    Reference oracle for validator and checker tests."""
    recs = history.records
    out = []
    for perm in permutations(recs):
        ok = True
        for i, a in enumerate(perm):
            for b in perm[i + 1 :]:
                if b.response_ts < a.invoke_ts:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        seen_threads: dict[int, int] = {}
        sequential = True
        for rec in perm:
            prev = seen_threads.get(rec.thread_id)
            if prev is not None and rec.invoke_ts < prev:
                sequential = False
                break
            seen_threads[rec.thread_id] = rec.invoke_ts
        if sequential:
            out.append(list(perm))
    return out
