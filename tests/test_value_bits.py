"""Value bits: a chunk's bit for a key is set for every value of the key
the chunk holds, so a get or a delete of a key whose bit is clear stops
right after find_chunk. A hash collision only sends a get or a delete
down the full path; compaction rebuilds the bits from what it keeps; and
a seeded concurrent run, delete-heavy over small chunks, stays
linearizable with its size bounds bracketing the size."""

import dataclasses

import pytest

from kiwi import TOMBSTONE, FuzzConfig, KiwiMap
from kiwi.fuzz import record_run
from kiwi.history import GET, PUT, SCAN, SIZE

from helpers import assert_linearizable, assert_map_invariants, force_rebalance, fuzz_map, has_value_bit, quiescent_items, value_bit

NEVER_REBALANCE = lambda: 1.0  # the probabilistic trigger needs rng() < 0.02


def only_bit(capacity, key):
    bits = bytearray(capacity)
    byte, mask = value_bit(bits, key)
    bits[byte] |= mask
    return bits


@pytest.mark.parametrize("key", [0, 5, -3, 2**70, "k", b"k", (1, "a")], ids=repr)
def test_inline_bit_rules_match_value_bit(key):
    """Chunk.alloc, copy_compact, get and a delete's put compute the bit
    inline; each must name the bit value_bit names. A get or a delete
    stops when that bit is clear, with every other bit set, and a delete
    allocates when it is set."""
    m = KiwiMap(max_threads=2, max_items=16, rng=NEVER_REBALANCE)
    m.register_thread()
    m.put(key, 1)  # alloc
    (chunk,) = m.chunks()
    assert chunk.bits == only_bit(16, key)
    assert force_rebalance(m, key)  # copy_compact
    (chunk,) = m.chunks()
    assert chunk.bits == only_bit(16, key)
    assert m.get(key) == 1  # get reads the bit value_bit names
    chunk.bits[:] = bytes(b ^ 0xFF for b in only_bit(16, key))
    assert m.get(key) is None  # and stops when it is clear
    bound = chunk.allocated_bound()
    m.put(key, TOMBSTONE)
    assert chunk.allocated_bound() == bound  # so does a delete, before allocating
    chunk.bits[:] = only_bit(16, key)
    m.put(key, TOMBSTONE)
    assert chunk.allocated_bound() == bound + 1  # with it set, the delete allocates
    assert m.get(key) is None


def test_colliding_keys_answer_through_the_full_path():
    """k and k + 8 * capacity share a bit: each key's value sets it for
    the other, whose get and delete then take the full path and still
    answer right."""
    m = KiwiMap(max_threads=2, max_items=8, bounds_enabled=True, rng=NEVER_REBALANCE)
    m.register_thread()
    k, twin = 3, 3 + 8 * 8
    m.put(k, 30)
    assert m.find_chunk(k) is m.find_chunk(twin)
    assert has_value_bit(m.find_chunk(k), twin)
    assert m.get(twin) is None
    m.put(twin, TOMBSTONE)  # a set bit: the delete allocates and links
    assert m.find_chunk(k).allocated_bound() == 3
    assert (m.get(k), m.get(twin)) == (30, None)
    m.put(twin, 40)
    m.put(k, TOMBSTONE)
    assert (m.get(k), m.get(twin)) == (None, 40)
    assert m.items() == [(twin, 40)]
    assert m.size() == 1
    assert_map_invariants(m)


def test_compaction_clears_dropped_keys_and_keeps_retained_values():
    """Key 2's newest version is a tombstone older than every active
    scan, so compaction drops it and its bit. Key 3 was deleted after a
    scan pinned at version 2 began, so its version-1 value is kept behind
    the newer tombstone, and so is its bit."""
    m = KiwiMap(max_threads=2, max_items=64, rng=NEVER_REBALANCE)
    m.register_thread()
    for key in (1, 2, 3):
        m.put(key, key * 10)  # version 1
    m.put(2, TOMBSTONE)  # version 1
    m.scan(0, 0)  # the global version moves to 2
    m._psa[1] = 2  # a scan pinned at version 2
    m.scan(0, 0)  # the global version moves to 3
    m.put(3, TOMBSTONE)  # version 3
    old = m.find_chunk(0)
    assert all(has_value_bit(old, key) for key in (1, 2, 3))
    assert force_rebalance(m, 0)
    (new,) = m.chunks()
    assert new is not old
    assert [has_value_bit(new, key) for key in (1, 2, 3)] == [True, False, True]
    assert [e.key for e in new.order[1:]] == [1, 3, 3]
    assert m.get(2) is None and m.get(3) is None
    m._psa[1] = None
    assert m.items() == [(1, 10)]
    assert_map_invariants(m)


DELETE_HEAVY = FuzzConfig(
    threads=3,
    ops_per_thread=20,
    key_range=6,  # put 2 to delete 3: about 2.4 keys live at a time
    max_items=6,
    bounds_enabled=True,
    delay_prob=0.4,
    delay_max_s=0.002,
    scan_span=6,
    mix={PUT: 2, "delete": 3, GET: 3, SCAN: 3, SIZE: 1},
)


@pytest.mark.parametrize("seeds", [range(0, 50), range(50, 100)], ids=["seeds-0-49", "seeds-50-99"])
def test_delete_heavy_runs_on_small_chunks_stay_linearizable(seeds, tmp_path):
    """Chunks of capacity 6 compact every few puts, so each run rebuilds
    bits many times while gets and deletes stop on clear ones. Scans see
    a put from its PPA publish on, so a bit set any later than alloc lets
    a get after such a scan miss the value, and these seeds catch it."""
    for seed in seeds:
        cfg = dataclasses.replace(DELETE_HEAVY, seed=seed)
        m = fuzz_map(cfg)
        assert_linearizable(record_run(cfg, m), tmp_path)
        m.register_thread()
        size = len(quiescent_items(m))
        assert m.size_lower_bound() <= size <= m.size_upper_bound(), f"seed {seed}"
        assert_map_invariants(m)
