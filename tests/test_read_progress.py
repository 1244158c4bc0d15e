"""Reads take a bounded number of steps however many puts land meanwhile.
A parked thread runs a put at each of a read's first rounds opcode
boundaries (in kiwi.core, kiwi.chunk and kiwi.rebalance frames), and
the read's boundary count is compared with its undisturbed count. A put of key 7
fills 7's chunk every second time and retires it, so a read that
followed retired chunks forward would take more steps with each put. A
put of a new, greater key between 8 and 9 splits the last chunk, ahead
of a scan of 0-9, so a scan that looked each next chunk up afresh would
take more steps with each put."""

from itertools import count

from kiwi import KiwiMap

from interleave import ParkedThread, count_boundaries


def put_seven(m, j):
    m.put(7, 100 + j)


def new_key(j):
    """The j-th key a splitting adversary puts: increasing, in (8, 9)."""
    return 9 - 1 / (j + 2)


def put_new_key(m, j):
    m.put(new_key(j), j)


def read_under_puts(read, rounds, put=put_seven):
    """(result, boundaries, chunks at invocation) of read(m) on a map of
    keys 0-9 in chunks of at most 4 slots, with put(m, j) run at its j-th
    boundary for each of its first rounds boundaries."""
    m = KiwiMap(max_items=4, rng=lambda: 1.0)  # only a full chunk rebalances
    m.register_thread()
    for k in range(10):
        m.put(k, k)
    chunks = len(m.chunks())
    worker = ParkedThread(m)
    puts = count()
    try:
        result, boundaries = count_boundaries(
            lambda: read(m),
            lambda: worker.run(lambda: put(m, next(puts))),
            rounds,
            ("kiwi.core", "kiwi.chunk", "kiwi.rebalance"),
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


def test_scan_steps_are_fixed_when_it_starts_under_a_splitting_adversary():
    """scan reads the chunks of one index snapshot, taken after its
    version, so splits ahead of it add no step: with a put of a new key
    at every one of its boundaries it still ends, in fewer boundaries
    than the puts on offer, so no number of puts could lengthen it. A
    scan that looked each next chunk up afresh met every split chunk,
    and about 130 boundaries per put. The puts before the scan's version
    are the ones it returns: a prefix of the adversary's keys, beside
    every original key."""
    items, undisturbed, chunks = read_under_puts(lambda m: m.scan(0, 9), 0, put_new_key)
    assert items == [(k, k) for k in range(10)] and chunks == 5
    rounds = 10_000
    items, boundaries, _ = read_under_puts(lambda m: m.scan(0, 9), rounds, put_new_key)
    assert undisturbed < boundaries < rounds  # every boundary had its put
    keys = [k for k, _ in items]
    assert set(range(10)) <= set(keys) and keys == sorted(keys)
    extra = [k for k in keys if k not in range(10)]
    assert 0 < len(extra) and extra == [new_key(j) for j in range(len(extra))]
    assert all(value == k for k, value in items if k in range(10))
