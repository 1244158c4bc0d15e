from functools import partial

from kiwi.atomics import AtomicInt, cas, full_fence, store_fence
from kiwi.core import KEY_MIN, Chunk, KiwiMap

from interleave import run_threads


def test_atomic_int_fetch_add_returns_prior():
    counter = AtomicInt(5)
    assert counter.fetch_add(1) == 5
    assert counter.fetch_add(3) == 6
    assert counter.get() == 9


def test_cas_on_a_chunk_link_is_identity_based():
    owner = KiwiMap()
    a, b = owner._index[1][0], Chunk(4, 2)
    assert not cas(owner, "_index", ((KEY_MIN,), (Chunk(4, 2),)), ((KEY_MIN,), (b,)))
    assert owner._index[1][0] is a
    assert cas(owner, "_index", ((KEY_MIN,), (a,)), ((KEY_MIN,), (b,)))
    assert owner._index[1][0] is b


def test_fetch_add_under_contention():
    counter = AtomicInt(0)
    seen = [set() for _ in range(4)]

    def hammer(i):
        for _ in range(2000):
            seen[i].add(counter.fetch_add(1))

    run_threads(*[partial(hammer, i) for i in range(4)], timeout=30.0)
    all_seen = set().union(*seen)
    assert counter.get() == 8000
    assert all_seen == set(range(8000))  # every ticket handed out exactly once


def test_fences_are_callable():
    store_fence()
    full_fence()
