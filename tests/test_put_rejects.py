"""put refuses what it could not store faithfully: a None value (the
history format's tombstone, which get and items() would disagree on)
a NaN key (accepted, then never visible again), also one inside a tuple
key, and a None key. Both maps raise TypeError for an unhashable key on
put and get. The concurrent map also refuses a key that does not
compare with a stored key. The refusal leaves no trace in the map or its
size bounds. Both maps refuse a scan whose lower end is above its upper
end, and the concurrent map refuses fewer than one thread slot or two
items per chunk. The coarse-lock map refuses a constructor keyword it
does not know, and raises the concurrent map's errors for a second
registration from one thread, for a registration past capacity, for an
operation from a thread that never registered and for a size query with
bounds off. On both maps a released registration slot serves the next
thread."""

import threading
from functools import partial

import pytest

from kiwi import TOMBSTONE, BoundsDisabledError, KiwiMap, LockedSortedMap, RegistrationError

from interleave import fast_switching, run_threads

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


@pytest.mark.parametrize(
    "key",
    [None, (float("nan"),), (1, (2, float("nan")))],
    ids=["none", "nan-tuple", "nested-nan-tuple"],
)
def test_put_rejects_none_and_nan_holding_keys(target, key):
    # None is the head sentinel's key; a tuple holding a NaN equals itself
    # (tuple equality counts identical elements as equal), so key != key
    # alone would let it in, where it breaks the sorted layout.
    with pytest.raises(ValueError):
        target.put(key, 5)
    assert_untouched(target, key)


def test_put_of_a_key_of_another_type_changes_nothing():
    # On a one-chunk map no search step compares the key with a stored
    # key; put must raise before it allocates or publishes anything.
    m = KiwiMap(max_threads=2, bounds_enabled=True)
    m.register_thread()
    m.put(1, 10)
    for bad in ("a", b"a", (1,)):
        with pytest.raises(TypeError):
            m.put(bad, 5)
        with pytest.raises(TypeError):
            m.put(bad, TOMBSTONE)
    with pytest.raises(ValueError):
        m.put(None, 5)
    (chunk,) = m.chunks()
    assert chunk.allocated_bound() == 2
    assert chunk.ppa == [None, None]
    assert m.get(1) == 10
    assert m.items() == [(1, 10)]
    m.put(2, 20)
    m.put(1, TOMBSTONE)
    assert m.scan(0, 5) == [(2, 20)]
    assert m.size() == 1


@pytest.mark.xfail(strict=True, raises=TypeError, reason="ROADMAP item 3: the refused put's entry stays in the PPA")
def test_an_incomparable_tuple_key_leaves_the_map_readable():
    # Both stored keys compare with the new one's first position, so the
    # put's one comparison passes and it publishes before the list walk
    # compares 2 with "a".
    m = KiwiMap(max_threads=2, bounds_enabled=True)
    m.register_thread()
    m.put((2, 2), 1)
    m.put((1, 2), 1)
    before = m.items()
    with pytest.raises(TypeError):
        m.put((1, "a"), 1)
    assert m.get((1, 2)) == 1
    assert m.items() == before



def test_an_unhashable_key_raises_and_changes_nothing(target):
    # On an empty map nothing compares the key before it is hashed.
    for op in (lambda: target.put([1], 1), lambda: target.put([1], TOMBSTONE), lambda: target.get([1])):
        with pytest.raises(TypeError):
            op()
    assert_untouched(target, 1)
    target.put(1, 10)
    for op in (lambda: target.put([1], 1), lambda: target.get([1])):
        with pytest.raises(TypeError):
            op()
    assert target.items() == [(1, 10)]
    assert target.size_lower_bound() == target.size_upper_bound() == 1


@pytest.mark.parametrize("knob, value", [("max_threads", 0), ("max_items", 1)])
def test_kiwi_map_refuses_unusable_sizes(knob, value):
    with pytest.raises(ValueError, match=knob):
        KiwiMap(**{knob: value})


def test_scan_refuses_a_reversed_range(target):
    with pytest.raises(ValueError):
        target.scan(5, 1)


def test_locked_map_rejects_unknown_keyword():
    # A misspelled, kiwi-only or removed option must not be silently dropped.
    with pytest.raises(TypeError):
        LockedSortedMap(max_items=4)
    with pytest.raises(TypeError):
        LockedSortedMap(op_delay_s=0.1)  # delays come from the fuzz tracer


def test_locked_map_refuses_registration_past_capacity():
    m = LockedSortedMap(max_threads=1)
    m.register_thread()
    with pytest.raises(RegistrationError, match="capacity"):
        run_threads(m.register_thread, timeout=5.0)


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


@pytest.mark.parametrize("make", [KiwiMap, LockedSortedMap], ids=["kiwi", "locked"])
def test_released_slots_serve_threads_that_run_one_after_another(make):
    # A thread pool's workers come and go: on a two-slot map whose first
    # slot stays taken, three workers in turn register, put, scan and
    # release, so each must get the slot the one before it gave back.
    m = make(max_threads=2)
    m.register_thread()
    slots = []

    def worker(key):
        slots.append(m.register_thread())
        m.put(key, key * 10)
        m.scan(0, 10)
        m.unregister_thread()

    for key in range(3):
        if isinstance(m, KiwiMap):
            # The released slot leaves no pending put or pending scan behind.
            assert m._psa[1] is None
            assert all(chunk.ppa[1] is None for chunk in m.chunks())
        run_threads(partial(worker, key), timeout=5.0)
    assert slots == [1, 1, 1]
    assert m.items() == [(0, 0), (1, 10), (2, 20)]


@pytest.mark.parametrize("make", [KiwiMap, LockedSortedMap], ids=["kiwi", "locked"])
def test_operations_from_an_unregistered_thread_are_refused(make):
    # A caller that forgets to register must fail against the oracle as
    # it does against the map, and its put must change nothing.
    m = make(max_threads=2)
    m.register_thread()
    m.put(1, 1)
    errors = []

    def unregistered():
        for op in (lambda: m.put(2, 2), lambda: m.get(1), lambda: m.scan(0, 5), m.items):
            try:
                op()
            except RegistrationError as exc:
                errors.append(str(exc))

    run_threads(unregistered, timeout=5.0)
    assert errors == ["calling thread is not registered"] * 4
    assert m.items() == [(1, 1)]


@pytest.mark.parametrize("make", [KiwiMap, LockedSortedMap], ids=["kiwi", "locked"])
def test_unregister_requires_a_registered_thread(make):
    m = make(max_threads=1)
    with pytest.raises(RegistrationError, match="not registered"):
        m.unregister_thread()
    assert m.register_thread() == 0
    m.unregister_thread()
    with pytest.raises(RegistrationError, match="not registered"):
        m.unregister_thread()
    assert m.register_thread() == 0  # the same thread may register again


@pytest.mark.parametrize("make", [KiwiMap, LockedSortedMap], ids=["kiwi", "locked"])
def test_racing_register_and_release_never_share_a_slot(make):
    # More workers than slots and cores, at a short switch interval: a
    # refused registration is fine, two live holders of one slot are not.
    m = make(max_threads=2)
    held, errors, guard = set(), [], threading.Lock()
    registered = [0]

    def worker():
        for _ in range(200):
            try:
                slot = m.register_thread()
            except RegistrationError:
                continue
            with guard:
                if slot in held:
                    errors.append(slot)
                held.add(slot)
                registered[0] += 1
            m.get(slot)  # a window in which another thread may register
            with guard:
                held.discard(slot)
            m.unregister_thread()

    with fast_switching(1e-6):
        run_threads(*[worker] * 6, timeout=20.0)
    assert errors == []
    assert registered[0] > 0
    assert sorted(m._free_slots) == [0, 1]  # every slot came back
