"""Keys beyond numbers: the map's key space is bounded by two sentinels
that compare below and above every key, so any mutually comparable key
type works. Seeded single-thread runs on small chunks (so chunks split
and compact) compare every result with the coarse-lock reference map."""

import random

import pytest

from kiwi import TOMBSTONE, KiwiMap, LockedSortedMap
from kiwi.core import FROZEN, KEY_MAX, KEY_MIN

from helpers import assert_map_invariants


def test_a_string_key_is_storable():
    m = KiwiMap()
    m.register_thread()
    m.put("a", 1)
    m.put("b", 2)
    m.put("a", TOMBSTONE)
    assert m.get("a") is None
    assert m.get("b") == 2
    assert m.scan("a", "z") == [("b", 2)]
    assert m.items() == [("b", 2)]


def test_key_bounds_order_below_and_above_any_key():
    for key in (0, -10**30, "", "zz", b"", (), (1, "x"), float("inf"), float("-inf")):
        assert KEY_MIN < key < KEY_MAX
        assert KEY_MIN <= key <= KEY_MAX
        assert key > KEY_MIN and key >= KEY_MIN
        assert key < KEY_MAX and key <= KEY_MAX
        assert not (key < KEY_MIN or KEY_MAX < key or key == KEY_MIN or key == KEY_MAX)
    assert KEY_MIN < KEY_MAX and not KEY_MAX < KEY_MIN
    assert KEY_MIN <= KEY_MIN and KEY_MAX >= KEY_MAX
    assert not (KEY_MIN < KEY_MIN or KEY_MAX > KEY_MAX)


def test_sentinel_and_marker_reprs_and_identity():
    assert (repr(KEY_MIN), repr(KEY_MAX)) == ("-inf", "inf")
    assert (repr(TOMBSTONE), repr(FROZEN)) == ("TOMBSTONE", "FROZEN")
    assert TOMBSTONE != FROZEN and TOMBSTONE is not FROZEN
    for marker in (TOMBSTONE, FROZEN):
        assert marker == marker
        assert marker != 0 and marker != None  # noqa: E711


def str_key(rng):
    return "k%03d" % rng.randrange(300)


def bytes_key(rng):
    return bytes([rng.randrange(40), rng.randrange(4)])


def tuple_key(rng):
    return (rng.randrange(30), "ab"[rng.randrange(2)])


def run_against_reference(make_key, ops, seed):
    """Apply one seeded op sequence to both maps, comparing every result."""
    rng = random.Random(seed)
    kiwi = KiwiMap(max_threads=2, max_items=8, rng=random.Random(seed).random)
    ref = LockedSortedMap(max_threads=2, bounds_enabled=False)
    kiwi.register_thread()
    ref.register_thread()
    try:
        for i in range(ops):
            key = make_key(rng)
            draw = rng.random()
            if draw < 0.45:
                value = rng.randrange(1000)
                kiwi.put(key, value)
                ref.put(key, value)
            elif draw < 0.65:
                kiwi.put(key, TOMBSTONE)
                ref.put(key, TOMBSTONE)
            elif draw < 0.85:
                assert kiwi.get(key) == ref.get(key), (i, key)
            elif draw < 0.98:
                lo, hi = sorted((key, make_key(rng)))
                assert kiwi.scan(lo, hi) == ref.scan(lo, hi), (i, lo, hi)
            else:
                assert kiwi.items() == ref.items(), i
        assert kiwi.items() == ref.items()
        assert len(kiwi.chunks()) > 2
        assert_map_invariants(kiwi)
    finally:
        kiwi.unregister_thread()
        ref.unregister_thread()


def test_string_keys_match_the_reference_op_by_op():
    run_against_reference(str_key, 6000, seed=5)


@pytest.mark.parametrize("make_key", [bytes_key, tuple_key], ids=["bytes", "tuple"])
def test_other_key_types_match_the_reference_op_by_op(make_key):
    run_against_reference(make_key, 2000, seed=6)
