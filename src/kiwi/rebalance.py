"""Chunk freeze, pending-put helping, compaction, and range copy.

Rebalance of a chunk proceeds in idempotent stages any thread may run:
freeze (one flag, which is also the allocation cut-off, then sealing
unversioned entries), help (insert every versioned entry the PPA names
into the frozen list), compact (copy surviving versions into fresh
half-filled chunks, sized like the input chunk). KiwiMap._rebalance_chunk
runs them, then one CAS of the map's index swaps the input for the new
chunks: it decides the winner and publishes its chunks in one step.
Losers discard their copies. Nothing lies between decision and
publication, so a stalled rebalancer never blocks writers: a put that
meets the frozen chunk runs the stages itself.
"""

from __future__ import annotations

from typing import Any, Callable

from .atomics import AtomicInt, store_fence, word_lock
from .chunk import (
    _INF, _SLOTS, END, FROZEN, KEY_MIN, VERSION_NONE, Chunk, OrderEntry, find_insertion_location,
)

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
    it is set allocated_bound() is the exact bound of handed-out slots
    (the order appends happen under the same lock), and the sealing pass
    covers every entry that could still be unversioned. After this pass no
    entry can gain a version, which makes the helping pass complete.
    """
    with word_lock(chunk):
        chunk.frozen = True
    store_fence()
    for entry in chunk.order[1 : chunk.allocated_bound()]:
        if entry.version == VERSION_NONE:
            entry.cas_version(VERSION_NONE, FROZEN)


def help_frozen_chunk_puts(kiwi: Any, chunk: Chunk) -> None:
    """Insert every versioned entry the frozen chunk's PPA names into its
    list. That reaches every versioned entry not yet linked, because
    - a put publishes its slot before anyone can version it;
    - it clears the slot only after its list insert returns;
    - sealing turned every remaining NONE into FROZEN.
    An entry already linked comes back ALREADY_LINKED, and one whose
    (key, version) is linked degrades to an overwrite or a no-op, so
    concurrent rebalancers are safe. A PPA cell holds the shared slot
    int alloc returned, which a list CAS may store as a next link."""
    order = chunk.order
    for idx in chunk.ppa:
        if idx is not None and order[idx].version is not FROZEN:
            kiwi.add_to_linked_list(chunk, idx)


def copy_compact(chunk: Chunk, min_active_scan: float) -> list[Chunk]:
    """Build 1..k fresh chunks from a frozen, fully-helped chunk in one
    walk of its list, writing each kept entry once, in its final slot.

    Per key, the walk keeps every version an in-flight scan could still
    select: the newest, then older ones while the last one kept is above
    min_active_scan (a scan at version s >= min_active_scan may select any
    version from the newest one <= min_active_scan up to s). A key whose
    newest version is a tombstone older than every active scan is dropped.

    New chunks take the input's capacity and PPA width. They are presorted
    (sorted_prefix_len == entry count), filled greedily to at most
    FILL_FACTOR x capacity, and never split one key's versions across a
    chunk boundary: a key that overflows a chunk it shares is cut from it
    and read again, from its newest version, into the next chunk's slot 1.
    Their slot numbers (next links, dataIndex words) are the shared slot
    ints, which cover them already: no output slot exceeds the input's
    allocated bound.
    Each kept value sets its key's value bit in its output chunk, and a
    dropped key sets none (a cut key's bit stays set in the chunk it was
    cut from, a false positive). Nothing else sees a new chunk, or its
    bits, before the index CAS publishes it.
    """
    target = max(1, int(chunk.capacity * FILL_FACTOR))
    nbits = chunk.capacity << 3
    order = chunk.order
    data = chunk.data
    slots = _SLOTS
    fresh = Chunk(chunk.capacity, len(chunk.ppa))
    new_chunks = [fresh]
    fresh_order, fresh_keys, fresh_data = fresh.order, fresh.keys, fresh.data
    fresh_bits = fresh.bits
    last = fresh_order[0]  # the entry the next one appended links after
    slot = start = 1  # the next free slot; the current key's first slot
    key = KEY_MIN  # equal to no key
    keep = False  # whether the current key's next older version is kept
    idx = newest = order[0].next  # newest: the current key's newest version
    while idx != END:
        here = idx
        entry = order[idx]
        idx = entry.next
        ver = entry.version
        value = data[entry.data_index]
        if entry.key != key:  # the key's newest version
            key = entry.key
            if value is None and ver < min_active_scan:
                keep = False
                continue
            start = slot
            newest = here
        elif not keep:
            continue
        keep = ver > min_active_scan
        if slot > target and start > 1:
            # The key overflows a chunk it shares: cut it from that chunk
            # and read it again, from its newest version, into the next.
            del fresh_order[start:], fresh_keys[start:], fresh_data[start:]
            fresh_order[-1].next = END
            fresh = Chunk(chunk.capacity, len(chunk.ppa))
            new_chunks.append(fresh)
            fresh_order, fresh_keys, fresh_data = fresh.order, fresh.keys, fresh.data
            fresh_bits = fresh.bits
            last = fresh_order[0]
            slot = 1
            key = KEY_MIN  # so its newest version reads as a new key's
            idx = newest
            continue
        if value is not None:
            h = hash(key) % nbits  # the value bit: hash(key) mod (8 * capacity)
            fresh_bits[h >> 3] |= 1 << (h & 7)
        fresh_data.append(value)
        last.next = slot_int = slots[slot]
        last = OrderEntry(key, ver, slot_int)
        fresh_order.append(last)
        fresh_keys.append(key)
        slot += 1
    for new_chunk in new_chunks:
        new_chunk.sorted_prefix_len = len(new_chunk.order) - 1
        new_chunk.list_size = AtomicInt(new_chunk.sorted_prefix_len)
    return new_chunks


def copy_range(
    chunk: Chunk,
    lo: Any,
    hi: Any,
    scan_version: float,
    ppa_best: dict[Any, tuple[int, int]],
) -> list[tuple[Any, Any]]:
    """One ordered walk of the chunk's list from the first key >= lo,
    which merges in ppa_best, the ranking of pending puts that
    help_pending_puts returns (popping each key it merges): for each key
    in [lo, hi], the first entry with version <= scan_version (versions
    sort descending, so it is the newest such), unless the key's ranked
    pending put is larger by (version, dataIndex). Tombstone winners (a
    None data cell) suppress their key. Output ascending, unique keys."""
    order = chunk.order
    data = chunk.data
    out: list[tuple[Any, Any]] = []
    taken = KEY_MIN  # the last key whose item was chosen; equal to no key
    idx = find_insertion_location(chunk, lo, _INF)[1]
    while idx != END:
        entry = order[idx]
        idx = entry.next
        key = entry.key
        if key > hi:
            break
        if key == taken:
            continue
        ver = entry.version
        if ver > scan_version:
            continue
        taken = key
        di = entry.data_index  # read once; rank and payload must agree
        if ppa_best:
            cur = ppa_best.pop(key, None)
            if cur is not None and cur > (ver, di):
                di = cur[1]
        value = data[di]
        if value is not None:
            out.append((key, value))
    if ppa_best:  # keys only pending puts hold: at most one per thread slot
        out.extend((key, data[di]) for key, (_, di) in ppa_best.items() if data[di] is not None)
        out.sort()
    return out
