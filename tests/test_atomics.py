import threading

from kiwi.atomics import AtomicInt, AtomicRef, full_fence, store_fence


def test_atomic_int_fetch_add_returns_prior():
    counter = AtomicInt(5)
    assert counter.fetch_add(1) == 5
    assert counter.fetch_add(3) == 6
    assert counter.get() == 9


def test_atomic_int_cas():
    word = AtomicInt(1)
    assert word.compare_and_set(1, 2)
    assert not word.compare_and_set(1, 3)
    assert word.get() == 2


def test_atomic_ref_cas_is_identity_based():
    a, b = object(), object()
    ref = AtomicRef(a)
    assert not ref.compare_and_set(object(), b)
    assert ref.compare_and_set(a, b)
    assert ref.get() is b


def test_fetch_add_under_contention():
    counter = AtomicInt(0)
    seen = [set() for _ in range(4)]

    def hammer(i):
        for _ in range(2000):
            seen[i].add(counter.fetch_add(1))

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    all_seen = set().union(*seen)
    assert counter.get() == 8000
    assert all_seen == set(range(8000))  # every ticket handed out exactly once


def test_fences_are_callable():
    store_fence()
    full_fence()
