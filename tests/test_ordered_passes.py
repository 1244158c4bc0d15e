"""The two ordered list walks of rebalance: copy_compact against an oracle
of retained versions, on hand-built chunks and on the chunks of a real
map, and copy_range with PPA items that tie a listed version."""

import random

from kiwi import TOMBSTONE, KiwiMap
from kiwi.rebalance import FILL_FACTOR, copy_compact, copy_range, freeze_chunk, help_frozen_chunk_puts

from helpers import (
    assert_chunk_invariants, brute_force_range, chunk_bounds, has_value_bit, ppa_ranking, raw_chunk, walk_list,
)

INF = float("inf")


def random_listed(rng, n_keys, key_space=40, max_version=9):
    """Sorted (key, version, value) items: 1-3 versions per key, newest
    first, about a quarter of them tombstones."""
    listed = []
    for key in sorted(rng.sample(range(key_space), n_keys)):
        for version in sorted(rng.sample(range(1, max_version), rng.randrange(1, 4)), reverse=True):
            listed.append((key, version, TOMBSTONE if rng.random() < 0.25 else rng.randrange(1000)))
    return listed


def oracle_retained(listed, min_active_scan):
    """Per key, the (version, value) pairs compaction must keep: every
    version a scan at or after min_active_scan can still select, i.e. all
    versions down to the newest one at or below min_active_scan (all of
    them when none is that old), and nothing for a key whose newest
    version is a tombstone no active scan predates."""
    by_key = {}
    for key, version, value in listed:
        by_key.setdefault(key, []).append((version, value))
    retained = []
    for key, versions in by_key.items():
        newest_version, newest_value = versions[0]
        if newest_value is TOMBSTONE and newest_version < min_active_scan:
            continue
        old_enough = [v for v, _ in versions if v <= min_active_scan]
        floor = max(old_enough) if old_enough else -INF
        retained.extend((key, v, value) for v, value in versions if v >= floor)
    return retained


def test_copy_compact_against_oracle():
    rng = random.Random(4242)
    for round_no in range(400):
        listed = random_listed(rng, rng.randrange(0, 14))
        min_active_scan = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, INF])
        max_items = rng.randrange(3, 17)
        chunk, _ = raw_chunk(listed, capacity=max_items)
        freeze_chunk(chunk)
        target = max(1, int(max_items * FILL_FACTOR))
        context = (round_no, listed, min_active_scan, max_items)

        new_chunks = copy_compact(chunk, min_active_scan)
        assert all(fresh.capacity == max_items and len(fresh.ppa) == 4 for fresh in new_chunks), context

        for fresh in new_chunks:
            entries = walk_list(fresh)
            bound = fresh.allocated_bound()
            assert fresh.sorted_prefix_len == fresh.list_size.get() == bound - 1 == len(entries), context
            assert entries == fresh.order[1:bound], context  # list order is slot order
            keys = {entry.key for entry in entries}
            assert len(entries) <= target or len(keys) == 1, context
        # Every listed key inside the bounds the index would give it.
        assert compacted_items(new_chunks, -5, 100) == oracle_retained(listed, min_active_scan), context

        for left, right in zip(new_chunks, new_chunks[1:]):
            # Greedy fill: a chunk closes only when the next key would pass the target.
            first_key_versions = sum(1 for entry in walk_list(right) if entry.key == right.keys[1])
            assert left.list_size.get() + first_key_versions > target, context


def compacted_items(new_chunks, lo, hi):
    """(key, version, value) of every entry, chunk by chunk, in list order,
    after checking each output chunk within the bounds KiwiMap's index
    CAS gives it when its input was bounded by [lo, hi): the first keeps
    lo, and each later one starts at the key at its slot 1. Each slot
    that holds a value must have its key's value bit set."""
    starts = [lo] + [fresh.keys[1] for fresh in new_chunks[1:]]
    copied = []
    for fresh, start, end in zip(new_chunks, starts, starts[1:] + [hi]):
        assert_chunk_invariants(fresh, start, end)
        for i in range(1, fresh.allocated_bound()):
            assert fresh.data[i] is None or has_value_bit(fresh, fresh.keys[i]), f"slot {i}: a value without its bit"
        copied += listed_items(fresh)
    return copied


def listed_items(chunk):
    """(key, version, value-or-TOMBSTONE) of each entry in list order."""
    items = []
    for entry in walk_list(chunk):
        value = chunk.data[entry.data_index]
        items.append((entry.key, entry.version, TOMBSTONE if value is None else value))
    return items


def test_copy_compact_of_real_chunks_against_oracle():
    """Chunks a map built itself: scans between puts give keys several
    versions, and 40% of puts are tombstones. Each chunk is frozen and
    helped as a rebalance would, then compacted at versions drawn from its
    own list and at +inf."""
    rng = random.Random(9090)
    kiwi = KiwiMap(max_threads=2, max_items=256, rng=random.Random(9090).random)
    kiwi.register_thread()
    try:
        for _ in range(6000):
            key = rng.randrange(1500)
            kiwi.put(key, TOMBSTONE if rng.random() < 0.4 else rng.randrange(1000))
            if rng.random() < 0.2:
                kiwi.scan(key, key + 20)
        keys, chunks = kiwi._index
        splits = 0
        multi_version_keys = 0
        for chunk, (lo, hi) in zip(chunks, chunk_bounds(keys)):
            freeze_chunk(chunk)
            help_frozen_chunk_puts(kiwi, chunk)
            listed = listed_items(chunk)
            multi_version_keys += len(listed) - len({key for key, _, _ in listed})
            versions = sorted({version for _, version, _ in listed})
            for min_active_scan in rng.sample(versions, min(3, len(versions))) + [INF]:
                context = (chunk, min_active_scan)
                new_chunks = copy_compact(chunk, min_active_scan)
                assert compacted_items(new_chunks, lo, hi) == oracle_retained(listed, min_active_scan), context
                splits += len(new_chunks) > 1
    finally:
        kiwi.unregister_thread()
    assert len(chunks) > 1 and multi_version_keys > 0
    assert splits > 0


def test_copy_range_with_pending_list_entries_against_brute_force_oracle():
    rng = random.Random(777)
    readers = KiwiMap()  # its help_pending_puts ranks each chunk's PPA
    for round_no in range(500):
        listed = random_listed(rng, rng.randrange(1, 8), key_space=16)
        # PPA items: some tie a listed (key, version) with a later slot,
        # hence a larger dataIndex; the rest are arbitrary.
        pending = []
        for _ in range(rng.randrange(0, 4)):
            if rng.random() < 0.5:
                key, version, _ = rng.choice(listed)
            else:
                key, version = rng.randrange(16), rng.randrange(1, 9)
            pending.append((key, version, TOMBSTONE if rng.random() < 0.25 else rng.randrange(1000)))
        chunk, pending_entries = raw_chunk(listed, pending=pending)
        lo = rng.randrange(-2, 18)
        hi = lo + rng.randrange(0, 20)
        scan_version = rng.randrange(1, 10)

        items = [
            (key, version, chunk.order[idx].data_index, value)
            for idx, (key, version, value) in enumerate(listed, start=1)
        ]
        items += [
            (key, version, entry.data_index, value)
            for entry, (key, version, value) in zip(pending_entries, pending)
        ]
        expected = brute_force_range(items, lo, hi, scan_version)
        ranking = readers.help_pending_puts(chunk, lo, hi, scan_version)
        assert ranking == ppa_ranking(pending_entries, lo, hi, scan_version)
        got = copy_range(chunk, lo, hi, scan_version, ranking)
        assert got == expected, (round_no, listed, pending, lo, hi, scan_version)
