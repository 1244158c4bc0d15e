"""Scripted interleavings and stress runs against the concurrent map:
helping, the historical visibility regressions, insert/overwrite races,
and the structural list invariants under contention."""

import random
import threading
from functools import partial

import pytest

from kiwi import KiwiMap, TOMBSTONE, validate_put_only_final_state
from kiwi.core import FROZEN, InsertOutcome
from kiwi.fuzz import FuzzConfig, record_run

from helpers import assert_map_invariants, force_rebalance, fuzz_map, global_version, quiescent_items, walk_list
from interleave import PutGate, join_threads, run_threads, start_thread

# structure-inspecting tests pin the probabilistic rebalance off with
# rng=lambda: 1.0 (a draw of 1.0 is never below the 2% rebalance rate),
# so no compaction rearranges the lists they walk


def test_get_serves_versioned_put_from_ppa_before_list_insert():
    """A put stalled between version assignment and list insert is already
    visible: readers must take it from the PPA even though the key is
    absent from the linked list."""
    m = KiwiMap(max_threads=4, rng=lambda: 1.0)
    m.register_thread()

    def writer():
        m.register_thread()
        m.put(3, 1)

    gate = PutGate("add_to_linked_list", writer)
    gate.wait_arrived()

    chunk = m.find_chunk(3)
    assert all(e.key != 3 for e in walk_list(chunk)), "key must not be in the list yet"
    assert m.get(3) == 1
    assert m.scan(0, 10) == [(3, 1)]

    gate.finish()
    assert m.get(3) == 1
    assert_map_invariants(m)


def test_reader_helps_unversioned_put_and_writer_adopts():
    """A reader finding a published put with no version assigns one; the
    stalled writer must adopt the helper's version, not pick a new one."""
    m = KiwiMap(max_threads=4)
    m.register_thread()

    def writer():
        m.register_thread()
        m.put(3, 1)

    gate = PutGate("cas_version", writer)
    gate.wait_arrived()

    gv_before = global_version(m)
    assert m.get(3) == 1  # the help itself
    chunk = m.find_chunk(3)
    slot_entries = [chunk.order[i] for i in chunk.ppa if i is not None]
    (entry,) = [e for e in slot_entries if e.key == 3]
    helped_version = entry.version
    assert helped_version == gv_before

    gate.finish()
    assert entry.version == helped_version  # adopted, not replaced
    assert [e for e in walk_list(chunk) if e.key == 3] == [entry]  # linked
    assert m.get(3) == 1


def test_same_key_same_version_insert_and_overwrite_outcomes():
    """Two puts that adopt the same (key, version) resolve as exactly one
    physical insert plus one overwrite attempt on the same entry."""
    m = KiwiMap(max_threads=4)
    m.register_thread()
    outcomes = {}
    staged = {}
    barrier = threading.Barrier(2)

    def racer(name, value):
        slot = m.register_thread()
        chunk = m.find_chunk(5)
        idx = chunk.alloc(5, value)
        entry = chunk.order[idx]
        chunk.ppa[slot] = idx
        entry.cas_version(0, global_version(m))
        staged[name] = (idx, value)
        barrier.wait()
        outcomes[name] = m.add_to_linked_list(chunk, idx)
        chunk.ppa[slot] = None

    run_threads(partial(racer, "a", 111), partial(racer, "b", 222), timeout=5.0)

    kinds = sorted(o.kind for o in outcomes.values())
    assert kinds == [InsertOutcome.INSERTED, InsertOutcome.OVERWROTE], outcomes
    newest_name = max(staged, key=lambda n: staged[n][0])
    assert m.get(5) == staged[newest_name][1]
    chunk = m.find_chunk(5)
    assert len([e for e in walk_list(chunk) if e.key == 5]) == 1
    assert_map_invariants(m)


def test_freeze_loses_version_race_and_entry_survives_rebalance():
    """freeze seals only unversioned entries: one a reader versioned first
    must be carried through compaction into the replacement chunks."""
    m = KiwiMap(max_threads=4)
    m.register_thread()

    def writer():
        m.register_thread()
        m.put(7, 42)

    gate = PutGate("cas_version", writer)
    gate.wait_arrived()

    old_chunk = m.find_chunk(7)
    assert m.get(7) == 42  # helper assigns the version
    force_rebalance(m, 7)
    assert m.find_chunk(7) is not old_chunk
    assert m.get(7) == 42  # survived into the replacement

    gate.finish()
    assert m.get(7) == 42
    assert quiescent_items(m) == {7: 42}
    assert_map_invariants(m)


def test_freeze_seals_unhelped_put_which_retries():
    """A published put nobody helped gets sealed by the freeze and must
    retry invisibly; its retried attempt lands in the replacement."""
    m = KiwiMap(max_threads=4)
    m.register_thread()

    def writer():
        m.register_thread()
        m.put(7, 42)

    gate = PutGate("cas_version", writer)
    gate.wait_arrived()

    chunk = m.find_chunk(7)
    (idx,) = [i for i in chunk.ppa if i is not None]
    sealed_entry = chunk.order[idx]
    force_rebalance(m, 7)  # no reader helped: freeze wins the version CAS
    assert sealed_entry.version is FROZEN
    assert m.get(7) is None

    gate.finish()
    assert m.get(7) == 42  # retried attempt completed in the new chunk
    assert_map_invariants(m)


@pytest.mark.parametrize(
    "read, before", [(lambda m: m.get(9), None), (lambda m: m.scan(9, 9), [])], ids=["get", "scan"]
)
def test_freeze_seals_a_put_it_cannot_find_in_the_ppa(read, before):
    """A put allocates, and a reader finds the put's chunk, before a
    rebalance retires that chunk; the put publishes its slot only after
    the freeze has passed the PPA. The freeze seals every allocated slot,
    so the reader, helping late, skips the sealed entry instead of giving
    it a version in the retired chunk, and the put retries into the
    replacement. A freeze that sealed only the slots the PPA named would
    let the reader version it, and the put would link it where no later
    read looks."""
    m = KiwiMap(max_threads=4, rng=lambda: 1.0)
    m.register_thread()
    for key in range(6):
        m.put(key, key)
    chunk = m.find_chunk(9)
    help_pending_puts = m.help_pending_puts
    found, resume = threading.Event(), threading.Event()

    def parked_help(*args):  # get and scan call it through the map
        found.set()
        assert resume.wait(10.0)
        return help_pending_puts(*args)

    def writer():
        m.register_thread()
        m.put(9, "new")

    def reader():
        m.register_thread()
        seen.append(read(m))

    seen = []
    gate = PutGate("on_put_published", writer, then=("cas_version",))
    gate.wait_arrived()
    assert chunk.ppa == [None] * 4  # allocated, not yet published
    m.help_pending_puts = parked_help
    reading = start_thread(reader)
    assert found.wait(5.0)  # the reader holds the chunk
    assert m._rebalance_chunk(chunk) and chunk not in m.chunks()
    gate.release()
    gate.wait_arrived()
    assert chunk.ppa != [None] * 4  # published, its version CAS next
    resume.set()
    join_threads(reading, timeout=5.0)
    gate.finish()
    assert m.get(9) == "new"
    assert seen == [before]
    assert_map_invariants(m)


@pytest.mark.parametrize("helped", [True, False], ids=["helped", "unhelped"])
def test_put_parked_before_its_list_insert_is_linked_once(helped):
    """A put parked after its version CAS, before its list insert, keeps
    its PPA cell. Helped: a rebalance of its chunk finds the entry
    through that cell and links it; the put, released, finds it already
    linked in the retired chunk. Unhelped: the put links it. Either way
    the version word is never touched again, the entry is linked once
    and the bounds are exact."""
    m = KiwiMap(max_threads=4, bounds_enabled=True, rng=lambda: 1.0)
    m.register_thread()
    outcomes = []
    insert = m.add_to_linked_list

    def add_to_linked_list(chunk, idx):  # the pause site's name, so the gate parks here
        outcome = insert(chunk, idx)
        outcomes.append((threading.current_thread().name, outcome.kind))
        return outcome

    m.add_to_linked_list = add_to_linked_list  # rebalance and put both call it through the map

    def writer():
        m.register_thread()
        m.put(7, 42)

    gate = PutGate("add_to_linked_list", writer)
    gate.wait_arrived()
    chunk = m.find_chunk(7)
    (idx,) = [i for i in chunk.ppa if i is not None]
    entry = chunk.order[idx]
    version = entry.version
    assert version == global_version(m), "parked with a version"
    if helped:
        assert force_rebalance(m, 7)
        assert m.find_chunk(7) is not chunk
        assert [e for e in walk_list(chunk) if e.key == 7] == [entry]  # the help pass linked it
    gate.finish()

    assert entry.version == version
    if helped:
        helper = threading.current_thread().name
        assert outcomes == [(helper, InsertOutcome.INSERTED), ("writer", InsertOutcome.ALREADY_LINKED)]
    else:
        assert outcomes == [("writer", InsertOutcome.INSERTED)]
    assert [e for e in walk_list(chunk) if e.key == 7] == [entry]
    assert m.get(7) == 42
    assert m.items() == [(7, 42)]
    assert (m.size_lower_bound(), m.size_upper_bound()) == (1, 1)
    assert_map_invariants(m)


def test_tombstone_inserted_even_when_key_absent_from_list():
    """A tombstone racing an older-version pending put of real data must
    be inserted even though the key is not in the list, or the stale data
    would resurface once the pending put lands."""
    m = KiwiMap(max_threads=4, rng=lambda: 1.0)
    m.register_thread()

    def writer():
        m.register_thread()
        m.put(3, 11)

    gate = PutGate("cas_version", writer)
    gate.wait_arrived()

    assert m.get(3) == 11  # helper gives the pending put version 1
    m.scan(100, 100)  # bump the global version to 2
    m.put(3, TOMBSTONE)  # version 2, key absent from the list

    chunk = m.find_chunk(3)
    tombstones = [e for e in walk_list(chunk) if e.key == 3]
    assert len(tombstones) == 1 and chunk.data[tombstones[0].data_index] is None
    assert m.get(3) is None

    gate.finish()
    assert m.get(3) is None  # the older data never resurfaces
    entries = [e for e in walk_list(m.find_chunk(3)) if e.key == 3]
    versions = [e.version for e in entries]
    assert versions == sorted(versions, reverse=True)
    assert m.scan(0, 10) == []
    assert_map_invariants(m)


def test_overwrite_updates_data_while_order_index_stays():
    """Same-version re-put raises the dataIndex of the original order
    entry; reads must follow the dataIndex, never the order position."""
    m = KiwiMap(max_threads=2, rng=lambda: 1.0)
    m.register_thread()
    m.put(5, 7)
    chunk = m.find_chunk(5)
    (entry,) = [e for e in walk_list(chunk) if e.key == 5]
    original_di = entry.data_index
    m.put(5, 9)
    (entry_after,) = [e for e in walk_list(chunk) if e.key == 5]
    assert entry_after is entry  # same order entry
    assert entry.data_index > original_di
    assert m.get(5) == 9


def test_concurrent_distinct_key_inserts_keep_list_sorted():
    rng = random.Random(7)
    for _ in range(10):
        m = KiwiMap(max_threads=4)
        m.register_thread()
        key_sets = [list(range(i, 120, 3)) for i in range(3)]
        for keys in key_sets:
            rng.shuffle(keys)

        def writer(keys):
            m.register_thread()
            for k in keys:
                m.put(k, k * 10)

        run_threads(*[partial(writer, keys) for keys in key_sets], timeout=10.0)
        assert quiescent_items(m) == {k: k * 10 for k in range(120)}
        assert_map_invariants(m)


def test_data_index_monotone_under_same_key_churn():
    """The dataIndex of a list entry only ever moves to later slots,
    even with two writers hammering the same key at one version."""
    m = KiwiMap(max_threads=4)
    m.register_thread()
    m.put(1, 0)
    chunk = m.find_chunk(1)
    (entry,) = [e for e in walk_list(chunk) if e.key == 1]
    observations = []
    writers = []

    def observer():  # until both writers end
        while not writers or any(w.is_alive() for w in writers):
            observations.append(entry.data_index)

    def writer(base):
        m.register_thread()
        for i in range(300):
            m.put(1, base + i)

    obs = start_thread(observer)
    writers += [start_thread(partial(writer, base)) for base in (1000, 2000)]
    join_threads(obs, *writers, timeout=10.0)

    distinct = []
    for value in observations:
        if not distinct or value != distinct[-1]:
            distinct.append(value)
    assert distinct == sorted(distinct)
    assert m.get(1) in set(range(1000, 1300)) | set(range(2000, 2300))


def test_put_only_stress_drain_matches_accepted_linearization():
    """Two threads of random puts/deletes over a small key range: the
    drained content must be the oracle replay of a real-time-consistent
    linearization (put-only reduction of the full check)."""
    for seed in range(5):
        cfg = FuzzConfig(
            threads=2,
            ops_per_thread=1000,
            key_range=64,
            seed=seed,
            mix={"put": 1, "delete": 1},
            delay_prob=0.02,
            delay_max_s=0.0002,
        )
        m = fuzz_map(cfg)
        history = record_run(cfg, m)
        m.register_thread()
        final = m.items()
        assert validate_put_only_final_state(history, final)
        assert dict(final) == quiescent_items(m)
        assert_map_invariants(m)
