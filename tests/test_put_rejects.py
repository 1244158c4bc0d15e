"""put refuses what it could not store faithfully: a None value (the
history format's tombstone, which get and items() would disagree on)
and a NaN key (accepted, then never visible again). The refusal leaves
no trace in the map or its size bounds. The coarse-lock map likewise
refuses a constructor keyword it does not know, and raises the concurrent
map's errors for a second registration from one thread, for a
registration past capacity and for a size query with bounds off."""

import threading

import pytest

from kiwi import BoundsDisabledError, KiwiMap, LockedSortedMap, RegistrationError

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


def test_locked_map_refuses_registration_past_capacity():
    m = LockedSortedMap(max_threads=1)
    m.register_thread()
    errors = []

    def second():
        try:
            m.register_thread()
        except RegistrationError as exc:
            errors.append(exc)

    t = threading.Thread(target=second)
    t.start()
    t.join(5.0)
    assert not t.is_alive()
    assert len(errors) == 1 and "capacity" in str(errors[0])


@pytest.mark.parametrize("make", [KiwiMap, LockedSortedMap], ids=["kiwi", "locked"])
def test_second_registration_on_one_thread_is_refused(make):
    m = make(max_threads=2)
    assert m.register_thread() == 0
    with pytest.raises(RegistrationError, match="already registered"):
        m.register_thread()


def test_locked_map_size_queries_raise_when_bounds_are_off():
    m = LockedSortedMap(max_threads=1, bounds_enabled=False)
    m.register_thread()
    m.put(1, 10)
    for query in (m.size_lower_bound, m.size_upper_bound, m.size, m.is_empty):
        with pytest.raises(BoundsDisabledError):
            query()
    assert m.items() == [(1, 10)]
