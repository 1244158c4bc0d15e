"""Reads take a bounded number of steps however many puts land on their
chunk meanwhile. A parked thread runs a put of key 7 at each of a read's
first rounds opcode boundaries (in kiwi.core and kiwi.rebalance frames),
and the read's boundary count is compared with its undisturbed count.
Every second such put fills 7's chunk and retires it, so a read that
followed retired chunks forward would take more steps with each put."""

from kiwi import KiwiMap

from interleave import ParkedThread, count_boundaries


def read_under_puts(read, rounds):
    """(result, boundaries, chunks at invocation) of read(m) on a map of
    keys 0-9 in chunks of at most 4 slots, with a put of 7 at each of its
    first rounds boundaries."""
    m = KiwiMap(max_items=4, rng=lambda: 1.0)  # only a full chunk rebalances
    m.register_thread()
    for k in range(10):
        m.put(k, k)
    chunks = len(m.chunks())
    worker = ParkedThread(m)
    values = iter(range(100, 100 + rounds))
    try:
        result, boundaries = count_boundaries(
            lambda: read(m),
            lambda: worker.run(lambda: m.put(7, next(values))),
            rounds,
            ("kiwi.core", "kiwi.rebalance"),
        )
    finally:
        worker.stop()
    return result, boundaries, chunks


def test_get_takes_the_same_steps_under_a_put_adversary():
    """get is wait-free: 1000 puts, more than its boundaries, change none
    of its steps. A get that walked retired chunks forward took one more
    hop per rebalance the puts caused."""
    value, undisturbed, _ = read_under_puts(lambda m: m.get(7), 0)
    assert value == 7 and undisturbed < 1000
    value, boundaries, _ = read_under_puts(lambda m: m.get(7), 1000)
    assert boundaries == undisturbed
    assert 100 <= value < 1100


def test_scan_steps_stay_within_one_more_chunk_under_a_put_adversary():
    """scan reads each chunk its range meets once. The puts bring no new
    key, so they split 7's chunk once at most: compaction keeps the
    version the scan still needs beside each newer one, and 7 moves to a
    chunk of its own. So the scan, with a put at every one of its
    boundaries, takes at most the steps of one more chunk than it met
    undisturbed."""
    items, undisturbed, chunks = read_under_puts(lambda m: m.scan(0, 9), 0)
    assert items == [(k, k) for k in range(10)] and chunks == 5
    items, boundaries, _ = read_under_puts(lambda m: m.scan(0, 9), 2000)
    assert boundaries <= undisturbed * (chunks + 1) / chunks
    assert boundaries < 2000  # every boundary had its put
    # Puts at the boundaries before the scan takes its version precede it.
    assert [k for k, _ in items] == list(range(10))
    assert all(value == k for k, value in items if k != 7)
