"""The thread harness fails a test with what its worker raised, or names
the workers still running at the deadline, and a gated or parked thread
hands its exception to the test's thread at once."""

import threading
import time

import pytest

from kiwi import KiwiMap

from interleave import ParkedThread, PutGate, join_threads, run_threads, run_with_interference, start_thread


class Boom(Exception):
    pass


def boom():
    raise Boom


def test_join_raises_the_first_exception_a_worker_raised():
    first = start_thread(boom)

    def later():
        first.join(5.0)
        raise ValueError

    with pytest.raises(Boom):
        join_threads(start_thread(later), first, timeout=5.0)


def test_a_blocked_worker_fails_by_the_deadline_and_is_named():
    never = threading.Event()

    def blocked():
        never.wait(10.0)

    started = time.monotonic()
    with pytest.raises(AssertionError, match=r"still alive after 0\.2 s: blocked$"):
        run_threads(lambda: None, blocked, timeout=0.2)
    assert time.monotonic() - started < 2.0
    never.set()


def test_put_gate_finish_raises_what_fn_raised():
    m = KiwiMap(max_threads=2)

    def put_then_raise():
        m.register_thread()
        m.put(1, 1)
        boom()

    gate = PutGate("cas_version", put_then_raise)
    gate.wait_arrived()
    with pytest.raises(Boom):
        gate.finish()


def test_parked_thread_run_raises_what_its_job_raised_at_once():
    m = KiwiMap(max_threads=3)
    m.register_thread()
    worker = ParkedThread(m)
    started = time.monotonic()
    with pytest.raises(Boom):
        worker.run(boom)
    with pytest.raises(Boom):  # sent from a trace callback inside the get
        run_with_interference(lambda: m.get(1), lambda: worker.run(boom), 0, {"kiwi.core"})
    assert time.monotonic() - started < 2.0
    worker.run(lambda: m.put(2, 20))  # still serving
    worker.stop()
    assert m.items() == [(2, 20)]
