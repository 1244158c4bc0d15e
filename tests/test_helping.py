"""help_pending_puts unit behavior and the recorded writer/scanner
interleaving: scans must only ever return values the key actually held
inside the scan's own interval."""

import threading
import time

import pytest

from kiwi import TOMBSTONE, KiwiMap, OpRecord, core
from kiwi.atomics import AtomicInt
from kiwi.core import FROZEN, VERSION_NONE, OrderEntry

from helpers import assert_map_invariants
from interleave import PutGate, pause_sites_met, run_threads


def help_at(m, chunk, version):
    """help_pending_puts over keys 0..10 with the global version at version."""
    m._gv = AtomicInt(version)
    return m.help_pending_puts(chunk, 0, 10)


def test_help_empty_ppa_returns_nothing():
    m = KiwiMap(max_threads=2)
    m.register_thread()
    chunk = m.find_chunk(0)
    assert help_at(m, chunk, 12) == []


def test_help_assigns_requested_version():
    m = KiwiMap(max_threads=2)
    m.register_thread()
    chunk = m.find_chunk(5)
    entry = OrderEntry(5)
    idx = chunk.alloc(entry, 50)
    chunk.ppa[0] = idx
    helped = help_at(m, chunk, 12)
    assert helped == [entry]
    assert entry.version == 12  # the helper's version


def test_help_ignores_out_of_range_keys():
    m = KiwiMap(max_threads=2)
    m.register_thread()
    chunk = m.find_chunk(50)
    entry = OrderEntry(50)
    chunk.ppa[0] = chunk.alloc(entry, 500)
    assert help_at(m, chunk, 12) == []
    assert entry.version == VERSION_NONE  # untouched


def test_help_skips_frozen_entries():
    m = KiwiMap(max_threads=2)
    m.register_thread()
    chunk = m.find_chunk(5)
    entry = OrderEntry(5)
    idx = chunk.alloc(entry, 50)
    entry.version = FROZEN
    chunk.ppa[0] = idx
    assert help_at(m, chunk, 12) == []


def test_help_returns_already_versioned_entries_unchanged():
    m = KiwiMap(max_threads=2)
    m.register_thread()
    chunk = m.find_chunk(5)
    entry = OrderEntry(5)
    idx = chunk.alloc(entry, 50)
    entry.version = 3
    chunk.ppa[0] = idx
    helped = help_at(m, chunk, 12)
    assert helped == [entry]
    assert entry.version == 3


def fences_during(fn):
    """Calls of core.full_fence while fn runs."""
    calls = []
    original = core.full_fence

    def counted():
        calls.append(1)
        original()

    core.full_fence = counted
    try:
        fn()
    finally:
        core.full_fence = original
    return len(calls)


def test_help_fences_on_an_empty_ppa():
    m = KiwiMap(max_threads=2)
    m.register_thread()
    chunk = m.find_chunk(0)
    assert fences_during(lambda: help_at(m, chunk, 12)) == 1


def test_get_fences_once_with_or_without_pending_puts():
    m = KiwiMap(max_threads=2)
    m.register_thread()
    m.put(5, 50)
    assert fences_during(lambda: m.get(5)) == 1
    chunk = m.find_chunk(5)
    chunk.ppa[1] = chunk.alloc(OrderEntry(5), 51)  # another thread's put, parked
    assert fences_during(lambda: m.get(5)) == 1
    assert m.get(5) == 51


def test_get_fences_only_when_its_key_has_a_value_bit():
    """A get whose key has a clear bit returns right after find_chunk, so
    it fences 0 times. A set bit fences once: a value's, a deleted key's
    (its bit stays) and a colliding key's alike."""
    m = KiwiMap(max_threads=2, max_items=8, rng=lambda: 1.0)
    m.register_thread()
    m.put(5, 50)
    m.put(6, 60)
    m.put(6, TOMBSTONE)
    collider = 5 + 8 * 8  # the same bit as 5 in a chunk of capacity 8
    assert m.find_chunk(collider) is m.find_chunk(5)
    assert fences_during(lambda: m.get(7)) == 0
    for key in (5, 6, collider):
        assert fences_during(lambda: m.get(key)) == 1
    assert [m.get(k) for k in (5, 6, 7, collider)] == [50, None, None, None]


def test_scan_fences_once_per_chunk():
    m = KiwiMap(max_threads=2, max_items=8, rng=lambda: 1.0)
    m.register_thread()
    for k in range(60):
        m.put(k, k)
    k = len(m.chunks())
    assert k > 3
    assert fences_during(m.items) == k
    assert fences_during(lambda: m.scan(10, 10)) == 1


@pytest.mark.parametrize(
    "value, newer_version, listed",
    [
        pytest.param(2, False, True, id="same-version-value"),
        pytest.param(TOMBSTONE, False, True, id="same-version-tombstone"),
        pytest.param(2, True, True, id="newer-version-value"),
        pytest.param(TOMBSTONE, True, True, id="newer-version-tombstone"),
        pytest.param(2, False, False, id="unlisted-value"),
    ],
)
def test_get_prefers_a_put_parked_before_its_list_cas(value, newer_version, listed):
    """A put parked before its list insert over a key the list already holds is
    versioned but not linked: get finds it only through the PPA, and it
    must outrank the list's entry, by version or (at an equal version) by
    its larger dataIndex. Unlisted, the parked put is the key's
    only item, and get must find it with nothing in the list. (An unlisted
    delete never parks: see the never-written-key test below.)"""
    m = KiwiMap(max_threads=2, rng=lambda: 1.0)
    m.register_thread()
    if listed:
        m.put(5, 1)  # in the list
    if newer_version:
        m.scan(0, 10)  # the parked put gets a newer version

    def parked():
        m.register_thread()
        m.put(5, value)

    gate = PutGate("add_to_linked_list", parked)
    gate.wait_arrived()
    expected = None if value is TOMBSTONE else value
    try:
        assert m.get(5) == expected
        assert m.scan(5, 5) == ([] if expected is None else [(5, expected)])
    finally:
        gate.finish()
    assert m.get(5) == expected
    assert_map_invariants(m)


def test_a_delete_of_a_never_written_key_returns_before_allocating():
    """A key's chunk holds no value of it, so the key is absent and its
    delete changes nothing: it returns before its first pause site, with the
    chunk's allocated bound, its PPA and both size bounds as they were.
    A delete of a key that held a value takes the whole put path."""
    m = KiwiMap(max_threads=2, bounds_enabled=True, rng=lambda: 1.0)
    m.register_thread()
    m.put(4, 40)
    chunk = m.find_chunk(5)

    def state():
        return chunk.allocated_bound(), list(chunk.ppa), m.size_lower_bound(), m.size_upper_bound()

    before = state()
    assert pause_sites_met(lambda: m.put(5, TOMBSTONE)) == []
    assert state() == before == (2, [None, None], 1, 1)
    assert m.get(5) is None and m.items() == [(4, 40)]
    assert pause_sites_met(lambda: m.put(4, TOMBSTONE))[0] == ("put", "on_put_published")
    assert state() == (3, [None, None], 0, 0)
    assert m.items() == []
    assert_map_invariants(m)


def test_scan_results_track_a_racing_writers_interval():
    """One thread keeps bumping a single key's value while another loops
    point scans: every scan result must be a value the key held at some
    instant within the scan's own interval. With one sequential writer
    that means a value no older than the last put completed before the
    scan began and no newer than the last put invoked before it ended."""
    m = KiwiMap(max_threads=3)
    m.register_thread()
    records = []
    lock = threading.Lock()

    def run_op(tid, kind, args, fn):
        invoke = time.monotonic_ns()
        result = fn()
        response = time.monotonic_ns()
        with lock:
            records.append(OpRecord(tid, kind, args, result, invoke, response))

    stop = threading.Event()

    def writer():
        m.register_thread()
        try:
            for i in range(150):
                run_op(1, "put", (5, i), lambda i=i: m.put(5, i))
                time.sleep(0.0001)
        finally:
            stop.set()  # the scanner stops also when a put raises

    def scanner():
        m.register_thread()
        while not stop.is_set():
            run_op(2, "scan", (5, 5), lambda: tuple(m.scan(5, 5)))

    run_threads(writer, scanner, timeout=30.0)

    puts = sorted((r for r in records if r.kind == "put"), key=lambda r: r.invoke_ts)
    scans = [r for r in records if r.kind == "scan"]
    assert len(scans) > 10
    for scan in scans:
        completed_before = [p for p in puts if p.response_ts < scan.invoke_ts]
        invoked_before_end = [p for p in puts if p.invoke_ts < scan.response_ts]
        floor = completed_before[-1].args[1] if completed_before else None
        ceiling = invoked_before_end[-1].args[1] if invoked_before_end else None
        if scan.result == ():
            assert floor is None, f"scan missed completed put {floor}"
            continue
        ((key, value),) = scan.result
        assert key == 5
        assert ceiling is not None and value <= ceiling, "value from the future"
        if floor is not None:
            assert value >= floor, f"stale value {value} < completed {floor}"
