"""Shared test machinery: raw chunk builders, invariant walkers,
brute-force oracles kept independent of the code paths they check, and
the small hooks into a map's internals that only tests need."""

from __future__ import annotations

import dataclasses
from itertools import permutations
from typing import Any, Iterable

from kiwi.bench import MeasurementResult
from kiwi.atomics import AtomicInt
from kiwi.checker import oracle_apply
from kiwi.chunk import END, FROZEN, KEY_MAX, KEY_MIN, TOMBSTONE, Chunk, OrderEntry
from kiwi.core import KiwiMap
from kiwi.fuzz import FuzzConfig
from kiwi.history import GET, IS_EMPTY, PUT, SIZE, History, OpRecord

SIZE_MIX = {PUT: 3, "delete": 3, GET: 2, SIZE: 1, IS_EMPTY: 1}


def force_rebalance(kiwi: KiwiMap, key: Any) -> bool:
    """Rebalance the chunk covering key now; True if this call's index
    CAS landed."""
    return kiwi._rebalance_chunk(kiwi.find_chunk(key))


def global_version(kiwi: KiwiMap) -> int:
    return kiwi._gv.get()


def fuzz_map(cfg: FuzzConfig) -> KiwiMap:
    """The map record_run builds for cfg, with its spare thread slot, for
    a test that drains the map after the run."""
    return KiwiMap(max_threads=cfg.threads + 1, max_items=cfg.max_items, bounds_enabled=cfg.bounds_enabled)


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
    input), `pending` items allocated and versioned but NOT linked, each
    published in its own PPA cell as if by its put and then helped (so
    max_threads must cover them). Chunk.alloc writes every slot; this
    sets its version and links or publishes the slot int alloc returns.
    More items than capacity make an over-full chunk, compaction input
    that no put could fill, with every value bit set (a false positive
    is always safe). Returns the chunk and the pending entries."""
    listed, pending = list(listed), list(pending)
    chunk = Chunk(max(capacity, len(listed) + len(pending)), max_threads)

    def alloc(key, version, value):
        entry = OrderEntry(key)
        idx = chunk.alloc(entry, value)
        entry.version = version
        return entry, idx

    prev = chunk.order[0]
    for item in listed:
        entry, prev.next = alloc(*item)
        prev = entry
    chunk.sorted_prefix_len = len(chunk.order) - 1
    chunk.list_size = AtomicInt(chunk.sorted_prefix_len)
    pending_entries = []
    for cell, item in enumerate(pending):
        entry, chunk.ppa[cell] = alloc(*item)
        pending_entries.append(entry)
    if chunk.capacity > capacity:
        chunk.capacity = capacity
        chunk.bits = bytearray(b"\xff" * capacity)
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


def assert_chunk_invariants(chunk: Chunk, lo: Any = KEY_MIN, hi: Any = KEY_MAX) -> None:
    """List strictly sorted by (key asc, version desc, dataIndex desc),
    no duplicate (key, version), listed keys inside [lo, hi), the bounds
    the index gives the chunk; the order, key and data arrays run
    parallel over exactly the allocated slots."""
    bound = chunk.allocated_bound()
    assert len(chunk.order) == len(chunk.keys) == len(chunk.data) == bound
    for i in range(1, bound):
        assert chunk.keys[i] is chunk.order[i].key, f"slot {i} key array out of step"
    entries = walk_list(chunk)
    ranks = [(e.key, -e.version, -e.data_index) for e in entries]
    assert ranks == sorted(ranks), f"list out of order: {ranks}"
    pairs = [(e.key, e.version) for e in entries]
    assert len(pairs) == len(set(pairs)), f"duplicate (key, version): {pairs}"
    for e in entries:
        assert lo <= e.key < hi, f"key {e.key!r} outside [{lo!r}, {hi!r})"


def value_bit(bits: bytearray, key: Any) -> tuple[int, int]:
    """The value bit of key in a chunk's bits, as (byte index, mask): bit
    hash(key) mod (8 * capacity). Raises TypeError for an unhashable key.
    The package computes it inline; test_value_bits.py checks each of
    those copies against this one."""
    h = hash(key) % (len(bits) << 3)
    return h >> 3, 1 << (h & 7)


def has_value_bit(chunk: Chunk, key: Any) -> bool:
    byte, mask = value_bit(chunk.bits, key)
    return bool(chunk.bits[byte] & mask)


def chunk_bounds(keys: tuple) -> list[tuple[Any, Any]]:
    """The [lo, hi) bounds that index keys give their chunks, in order."""
    return list(zip(keys, keys[1:] + (KEY_MAX,)))


def assert_map_invariants(kiwi: KiwiMap) -> None:
    """An index that starts at KEY_MIN with strictly ascending keys, every
    chunk's invariants within the bounds the index gives it, versions
    within the global counter, and value bits: every key with a value
    entry in a chunk's list, data or PPA has its bit set (each listed and
    each PPA entry is an allocated slot, so one pass over the slots covers
    all)."""
    keys, chunks = kiwi._index
    assert len(keys) == len(chunks)
    assert keys[0] is KEY_MIN
    assert all(a < b for a, b in zip(keys, keys[1:])), f"index keys do not ascend: {keys}"
    gv = global_version(kiwi)
    for chunk, (lo, hi) in zip(chunks, chunk_bounds(keys)):
        assert_chunk_invariants(chunk, lo, hi)
        for entry in walk_list(chunk):
            assert entry.version <= gv, "version beyond the global counter"
        assert all(idx is None or 0 < idx < chunk.allocated_bound() for idx in chunk.ppa)
        for i in range(1, chunk.allocated_bound()):
            if chunk.data[i] is not None:
                key = chunk.keys[i]
                assert has_value_bit(chunk, key), f"slot {i}: a value of {key!r} without its bit"


def quiescent_items(kiwi: KiwiMap) -> dict:
    """Independent drain: walk every chunk list directly, take the newest
    (version, dataIndex) item per key, drop tombstones (a None data
    cell). Valid only with no in-flight operations."""
    best: dict[Any, tuple[int, int, Chunk]] = {}
    for chunk in kiwi.chunks():
        for entry in walk_list(chunk):
            rank = (entry.version, entry.data_index)
            cur = best.get(entry.key)
            if cur is None or rank > cur[:2]:
                best[entry.key] = (*rank, chunk)
    return {
        key: chunk.data[di]
        for key, (_, di, chunk) in best.items()
        if chunk.data[di] is not None
    }


def brute_force_range(
    items: list[tuple[Any, int, int, Any]],
    lo: Any,
    hi: Any,
    scan_version: int,
) -> list[tuple[Any, Any]]:
    """Oracle for copy_range: items are (key, version, data_index, value);
    per key in [lo, hi] pick the newest (version, dataIndex) with
    version <= scan_version, suppress TOMBSTONE winners."""
    best: dict[Any, tuple[tuple[int, int], Any]] = {}
    for key, version, data_index, value in items:
        if not lo <= key <= hi or version > scan_version:
            continue
        rank = (version, data_index)
        cur = best.get(key)
        if cur is None or rank > cur[0]:
            best[key] = (rank, value)
    return [(k, value) for k, (_, value) in sorted(best.items()) if value is not TOMBSTONE]


def ppa_ranking(entries: Iterable[OrderEntry], lo: Any, hi: Any, version: float) -> dict:
    """Oracle for help_pending_puts' ranking over versioned entries: each
    key in [lo, hi] maps to the largest (version, dataIndex) among its
    entries versioned at or below version; FROZEN entries rank nowhere."""
    ranks = [
        (e.key, (e.version, e.data_index))
        for e in entries
        if e.version is not FROZEN and lo <= e.key <= hi and e.version <= version
    ]
    return {key: max(rank for k, rank in ranks if k == key) for key, _ in ranks}


def oracle_replay(records: list[OpRecord]) -> dict:
    """Final model state after applying records in order; raises on a
    result mismatch (replay is for checker-accepted orders)."""
    model: dict = {}
    for rec in records:
        ok, model = oracle_apply(model, rec)
        if not ok:
            raise ValueError(f"record does not serialize at replay: {rec}")
    return model


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
