"""Single-thread behavior of the map: the contract examples plus a
randomized equivalence run against a plain dict oracle."""

import random
import threading

import pytest

from kiwi import KiwiMap, RegistrationError, TOMBSTONE

from helpers import assert_map_invariants


@pytest.fixture
def kiwi():
    m = KiwiMap(max_threads=4)
    m.register_thread()
    return m


def test_put_then_get(kiwi):
    kiwi.put(5, 7)
    assert kiwi.get(5) == 7


def test_delete_visibility(kiwi):
    kiwi.put(5, 7)
    kiwi.put(5, TOMBSTONE)
    assert kiwi.get(5) is None


def test_get_on_empty_map(kiwi):
    assert kiwi.get(3) is None


def test_last_write_wins_per_key(kiwi):
    kiwi.put(3, 1)
    kiwi.put(3, 2)
    assert kiwi.get(3) == 2


def test_scan_on_empty_map(kiwi):
    assert kiwi.scan(0, 10) == []


def test_scan_tombstone_suppression(kiwi):
    kiwi.put(1, 11)
    kiwi.put(2, 22)
    kiwi.put(2, TOMBSTONE)
    assert kiwi.scan(0, 10) == [(1, 11)]


def test_scan_requires_ordered_range(kiwi):
    with pytest.raises(ValueError):
        kiwi.scan(5, 4)


def test_scan_bounds_inclusive(kiwi):
    for k in range(10):
        kiwi.put(k, k * 10)
    assert kiwi.scan(3, 5) == [(3, 30), (4, 40), (5, 50)]


def test_tombstone_for_absent_key_reads_absent(kiwi):
    kiwi.put(9, TOMBSTONE)
    assert kiwi.get(9) is None
    assert kiwi.scan(0, 100) == []


def test_overwrite_after_delete(kiwi):
    kiwi.put(5, 7)
    kiwi.put(5, TOMBSTONE)
    kiwi.put(5, 9)
    assert kiwi.get(5) == 9


def test_register_thread_slots_and_capacity():
    m = KiwiMap(max_threads=2)
    assert m.register_thread() == 0

    results = {}

    def second():
        results["slot"] = m.register_thread()

    t = threading.Thread(target=second, daemon=True)
    t.start()
    t.join(5.0)
    assert not t.is_alive()
    assert results["slot"] == 1

    def third():
        try:
            m.register_thread()
        except RegistrationError as exc:
            results["error"] = str(exc)

    t = threading.Thread(target=third, daemon=True)
    t.start()
    t.join(5.0)
    assert not t.is_alive()
    assert "capacity" in results["error"]


def test_register_thread_rejects_double_registration(kiwi):
    with pytest.raises(RegistrationError):
        kiwi.register_thread()


def test_operations_require_registration():
    m = KiwiMap(max_threads=2)
    with pytest.raises(RegistrationError):
        m.put(1, 2)
    with pytest.raises(RegistrationError):
        m.get(1)
    with pytest.raises(RegistrationError):
        m.scan(0, 1)


def test_find_chunk_single_chunk_covers_everything(kiwi):
    chunk = kiwi.find_chunk(0)
    assert kiwi.find_chunk(-10**9) is chunk
    assert kiwi.find_chunk(10**9) is chunk


def test_find_chunk_boundaries_after_splits():
    m = KiwiMap(max_threads=2, max_items=16)
    m.register_thread()
    for k in range(200):
        m.put(k, k)
    keys, chunks = m._index
    assert len(chunks) > 1
    for prev_chunk, chunk, boundary in zip(chunks, chunks[1:], keys[1:]):
        assert m.find_chunk(boundary) is chunk  # at the split
        assert m.find_chunk(boundary - 1) is prev_chunk  # just below it
    assert_map_invariants(m)


def test_sequential_equivalence_randomized():
    rng = random.Random(20_260_808)
    m = KiwiMap(max_threads=2, max_items=128)
    m.register_thread()
    oracle = {}
    for step in range(10_000):
        roll = rng.random()
        key = rng.randrange(256)
        if roll < 0.45:
            value = rng.randrange(10_000)
            m.put(key, value)
            oracle[key] = value
        elif roll < 0.65:
            m.put(key, TOMBSTONE)
            oracle.pop(key, None)
        elif roll < 0.95:
            assert m.get(key) == oracle.get(key), f"step {step} get({key})"
        else:
            span = rng.randrange(16)
            expected = sorted(
                (k, v) for k, v in oracle.items() if key <= k <= key + span
            )
            assert m.scan(key, key + span) == expected, f"step {step} scan"
    assert dict(m.items()) == oracle
    assert_map_invariants(m)
