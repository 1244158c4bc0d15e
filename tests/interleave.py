"""Interleavings forced from outside the map through sys.settrace, and
the thread harness of kiwi.workers, through which every test thread
starts: a gate that parks a thread at one of the fuzzer's pause sites, a
thread that runs jobs on demand, and a runner that lands such jobs at
every opcode boundary of a call in turn. The maps carry no hook for any."""

from __future__ import annotations

import functools
import queue
import sys
import threading

from kiwi.fuzz import pause_tracer
from kiwi.workers import _capture, fast_switching, join_threads, run_threads, start_thread  # noqa: F401


def pause_sites_met(fn, state=None):
    """The (caller, site) pairs the fuzzer's tracer meets, in order, while
    fn runs on this thread; with state given, (caller, site, state())
    triples, state being called at each pause."""
    met = []

    def note(caller, site):
        met.append((caller, site) if state is None else (caller, site, state()))

    previous = sys.gettrace()
    sys.settrace(pause_tracer(note))
    try:
        fn()
    finally:
        sys.settrace(previous)
    return met


class PutGate:
    """Runs fn on a new thread named after it and parks that thread at its
    first call of site made from put (a pause site: see
    kiwi.fuzz.PAUSE_SITES) until release(), then at its next call of each
    site of then in turn until the next release(). Later calls pass
    through."""

    def __init__(self, site: str, fn, then: tuple[str, ...] = ()) -> None:
        self.site = site
        self._then = list(then)
        self._arrived = False
        self._woken = threading.Event()  # set on arrival, or when fn ends
        self._released = threading.Event()

        @functools.wraps(fn)
        def parked():
            sys.settrace(pause_tracer(self._pause))
            try:
                fn()
            finally:
                self._woken.set()

        self.thread = start_thread(parked)

    def _pause(self, caller, site) -> None:
        if caller == "put" and site == self.site and not self._arrived:
            self._arrived = True
            released = self._released
            self._woken.set()
            assert released.wait(10.0), f"gate at {site} never released"

    def wait_arrived(self, timeout: float = 5.0) -> None:
        assert self._woken.wait(timeout), f"{self.thread.name} never reached {self.site}"
        if not self._arrived:  # fn ended first: raise what it raised, else say so
            join_threads(self.thread, timeout=timeout)
            raise AssertionError(f"{self.thread.name} returned before reaching {self.site}")

    def release(self) -> None:
        released = self._released
        if self._then:  # arm the gate at the next site before the thread moves on
            self.site = self._then.pop(0)
            self._arrived = False
            self._woken.clear()
            self._released = threading.Event()
        released.set()

    def finish(self, timeout: float = 5.0) -> None:
        """Release the thread and wait for fn to return; raise what it raised."""
        self.release()
        join_threads(self.thread, timeout=timeout)


class ParkedThread:
    """A thread registered on m that runs each job it is sent to
    completion while the sender waits: no sleeps, no races. What a job
    raises, run() raises on the sender's thread."""

    def __init__(self, m) -> None:
        self._jobs, self._done = queue.Queue(), queue.Queue()

        def parked():
            self._done.put(_capture(m.register_thread))
            for job in iter(self._jobs.get, None):
                self._done.put(_capture(job))

        self._thread = start_thread(parked)
        self._wait()  # registered: slots go out in start order

    def _wait(self) -> None:
        error = self._done.get(timeout=5.0)
        if error is not None:
            raise error

    def run(self, job) -> None:
        self._jobs.put(job)
        self._wait()

    def stop(self) -> None:
        self._jobs.put(None)
        join_threads(self._thread, timeout=5.0)


def run_with_interference(call, interfere, k, modules, skip=()):
    """Call call() with interfere() run at its k-th opcode boundary inside
    frames of the named modules. Returns (result, whether k was reached).

    No boundary is counted inside a call of a function named in skip, nor
    in anything it calls. Name there each function that holds a stripe
    the interference may want: Chunk.alloc holds its chunk's, and a
    freeze landing inside it would wait on the traced thread forever."""
    reached = False

    def at_boundary(seen):
        nonlocal reached
        if seen == k:
            reached = True
            interfere()

    return trace_boundaries(call, at_boundary, modules, skip)[0], reached


def count_boundaries(call, interfere, rounds, modules, skip=()):
    """Call call() with interfere() run at each of its first rounds opcode
    boundaries, counted as run_with_interference counts them. Returns
    (result, the number of boundaries the call passed)."""

    def at_boundary(seen):
        if seen < rounds:
            interfere()

    return trace_boundaries(call, at_boundary, modules, skip)


def trace_boundaries(call, at_boundary, modules, skip):
    """Call call() with at_boundary(n) run at its n-th opcode boundary,
    for each n, counted as run_with_interference describes. Returns
    (result, the number of boundaries)."""
    seen = 0
    skipping = 0  # depth of skipped calls on the stack

    def local(frame, event, arg):
        nonlocal seen
        if event == "opcode":
            at_boundary(seen)  # the trace function itself is not traced
            seen += 1
        return local

    def leave_skipped(frame, event, arg):
        nonlocal skipping
        if event == "return":  # also when the call raises
            skipping -= 1
        return leave_skipped

    def on_call(frame, event, arg):
        nonlocal skipping
        if frame.f_code.co_name in skip:
            skipping += 1
            return leave_skipped
        if not skipping and frame.f_globals.get("__name__") in modules:
            frame.f_trace_opcodes = True
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, seen
