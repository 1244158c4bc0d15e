"""find_insertion_location ordering, the dataIndex overwrite rule, and
their behavior under racing threads."""

import threading

from kiwi import TOMBSTONE
from kiwi.core import END, OrderEntry, find_insertion_location, overwrite_data_index

from helpers import raw_chunk, walk_list


def test_empty_list_straddles_head_and_end():
    chunk, _ = raw_chunk([])
    assert find_insertion_location(chunk, 5, 1) == (0, END)


def test_higher_version_precedes_lower():
    chunk, _ = raw_chunk([(5, 2, 50)])
    prev, nxt = find_insertion_location(chunk, 5, 3)
    assert prev == 0  # head sentinel
    assert chunk.order[nxt].key == 5 and chunk.order[nxt].version == 2


def test_equal_version_signals_overwrite():
    chunk, _ = raw_chunk([(5, 2, 50)])
    prev, nxt = find_insertion_location(chunk, 5, 2)
    entry = chunk.order[nxt]
    assert (entry.key, entry.version) == (5, 2)


def test_lower_version_lands_after_existing():
    chunk, _ = raw_chunk([(5, 3, 50)])
    prev, nxt = find_insertion_location(chunk, 5, 2)
    assert chunk.order[prev].key == 5  # behind the newer item
    assert nxt == END


def test_walk_spans_keys():
    chunk, _ = raw_chunk([(1, 1, 10), (3, 2, 30), (3, 1, 31), (7, 1, 70)])
    prev, nxt = find_insertion_location(chunk, 4, 9)
    assert chunk.order[prev].key == 3
    assert chunk.order[nxt].key == 7
    prev, nxt = find_insertion_location(chunk, 0, 9)
    assert prev == 0
    assert chunk.order[nxt].key == 1


def test_prefix_binary_search_matches_walk():
    listed = [(k, v, k * 100 + v) for k in range(0, 40, 2) for v in (3, 2, 1)]
    chunk, _ = raw_chunk(listed)
    for key in range(-1, 42):
        for version in (1, 2, 3, 4):
            prev, nxt = find_insertion_location(chunk, key, version)
            # prev strictly precedes (key, version); next is the first not less
            if prev != 0:
                e = chunk.order[prev]
                assert (e.key, -e.version) < (key, -version)
            if nxt != END:
                e = chunk.order[nxt]
                assert (e.key, -e.version) >= (key, -version)


def test_overwrite_raises_uncontended():
    entry = OrderEntry(5)
    entry.data_index = 3
    assert overwrite_data_index(entry, 7) == 3  # the word its CAS replaced
    assert entry.data_index == 7


def test_overwrite_refuses_smaller_magnitude():
    entry = OrderEntry(5)
    entry.data_index = 7
    assert overwrite_data_index(entry, 3) is None
    assert entry.data_index == 7


def test_overwrite_tombstone_beats_older_data_by_magnitude():
    # A tombstone's dataIndex is its slot like any other: a later slot
    # wins, and the data cell it names holds None.
    chunk, _ = raw_chunk([(5, 1, 50)], capacity=8)
    (entry,) = walk_list(chunk)
    tomb = chunk.alloc(OrderEntry(5), TOMBSTONE)
    assert overwrite_data_index(entry, tomb) == 1
    assert entry.data_index == tomb == 2 and chunk.data[entry.data_index] is None
    assert overwrite_data_index(entry, 1) is None


def test_overwrite_race_converges_to_max_magnitude():
    for round_no in range(30):
        entry = OrderEntry(1)
        entry.data_index = 1
        performed = []
        observations = []
        stop = threading.Event()

        def observer():
            while not stop.is_set():
                observations.append(entry.data_index)

        def racer(new):
            performed.append((new, overwrite_data_index(entry, new) is not None))

        obs = threading.Thread(target=observer, daemon=True)
        obs.start()
        threads = [threading.Thread(target=racer, args=(n,), daemon=True) for n in (5, 9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        stop.set()
        obs.join(10.0)
        assert not any(t.is_alive() for t in [obs, *threads])

        assert entry.data_index == 9
        by_value = dict(performed)
        assert by_value[9]  # the final write certainly landed
        distinct = [observations[0]] if observations else []
        for value in observations[1:]:
            if value != distinct[-1]:
                distinct.append(value)
        assert distinct == sorted(distinct), f"non-monotonic: {distinct}"


def test_raw_chunk_helper_is_sane():
    chunk, pending = raw_chunk([(1, 1, 10), (2, 1, TOMBSTONE)], pending=[(3, 2, 30)])
    entries = walk_list(chunk)
    assert [e.key for e in entries] == [1, 2]
    assert [e.data_index for e in entries] == [1, 2] and chunk.data[2] is None
    assert (pending[0].version, pending[0].data_index) == (2, 3)
    assert chunk.data[3] == 30 and chunk.ppa[0] == 3  # published, not linked
