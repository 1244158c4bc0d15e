"""put refuses what it could not store faithfully: a None value (the
history format's tombstone, which get and items() would disagree on)
and a NaN key (accepted, then never visible again). The refusal leaves
no trace in the map or its size bounds. The coarse-lock map likewise
refuses a constructor keyword it does not know."""

import pytest

from kiwi import KiwiMap, LockedSortedMap

MAPS = {
    "kiwi": lambda: KiwiMap(max_threads=2, bounds_enabled=True),
    "locked": lambda: LockedSortedMap(max_threads=2, bounds_enabled=True),
}


@pytest.fixture(params=sorted(MAPS))
def target(request):
    m = MAPS[request.param]()
    m.register_thread()
    return m


def assert_untouched(m, key):
    assert m.items() == []
    assert m.get(key) is None
    assert m.size_lower_bound() == 0
    assert m.size_upper_bound() == 0


def test_put_rejects_none_value(target):
    with pytest.raises(ValueError):
        target.put(3, None)
    assert_untouched(target, 3)


def test_put_rejects_nan_key(target):
    nan = float("nan")
    with pytest.raises(ValueError):
        target.put(nan, 5)
    assert_untouched(target, nan)



def test_locked_map_rejects_unknown_keyword():
    # A misspelled or kiwi-only option must not be silently dropped.
    with pytest.raises(TypeError):
        LockedSortedMap(max_items=4)
