"""Interleavings forced from outside the map, through sys.settrace: a gate
that parks a thread at one of the fuzzer's pause sites, a thread that runs
jobs on demand, and a runner that lands such jobs at every opcode boundary
of a call in turn. The maps carry no hook for any of them."""

from __future__ import annotations

import queue
import sys
import threading

from kiwi.fuzz import pause_tracer


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
    """Runs fn on a new thread named name and parks that thread at its
    first call of site made from put (a pause site: see
    kiwi.fuzz.PAUSE_SITES) until release(). Later calls pass through."""

    def __init__(self, site: str, fn, name: str = "parked") -> None:
        self.site = site
        self._arrived = threading.Event()
        self._released = threading.Event()
        self.thread = threading.Thread(target=self._run, args=(fn,), name=name, daemon=True)
        self.thread.start()

    def _run(self, fn) -> None:
        def pause(caller, site):
            if caller == "put" and site == self.site and not self._arrived.is_set():
                self._arrived.set()
                assert self._released.wait(10.0), f"gate at {self.site} never released"

        sys.settrace(pause_tracer(pause))
        fn()

    def wait_arrived(self, timeout: float = 5.0) -> None:
        assert self._arrived.wait(timeout), f"{self.thread.name} never reached {self.site}"

    def release(self) -> None:
        self._released.set()

    def finish(self, timeout: float = 5.0) -> None:
        """Release the thread and wait for fn to return."""
        self.release()
        self.thread.join(timeout)
        assert not self.thread.is_alive(), f"{self.thread.name} still running"


class ParkedThread:
    """A thread registered on m that runs each job it is sent to
    completion while the sender waits: no sleeps, no races. A job that
    raises ends the thread, and the sender's wait then times out."""

    def __init__(self, m) -> None:
        self._jobs, self._done = queue.Queue(), queue.Queue()
        self._thread = threading.Thread(target=self._serve, args=(m,), daemon=True)
        self._thread.start()
        self._done.get(timeout=5.0)  # registered: slots go out in start order

    def _serve(self, m) -> None:
        m.register_thread()
        self._done.put(None)
        for job in iter(self._jobs.get, None):
            job()
            self._done.put(None)

    def run(self, job) -> None:
        self._jobs.put(job)
        self._done.get(timeout=5.0)

    def stop(self) -> None:
        self._jobs.put(None)
        self._thread.join(5.0)


def run_with_interference(call, interfere, k, modules):
    """Call call() with interfere() run at its k-th opcode boundary inside
    frames of the named modules. Returns (result, whether k was reached)."""
    seen = 0
    reached = False

    def local(frame, event, arg):
        nonlocal seen, reached
        if event == "opcode":
            if seen == k:
                reached = True
                interfere()  # the trace function itself is not traced
            seen += 1
        return local

    def on_call(frame, event, arg):
        if frame.f_globals.get("__name__") in modules:
            frame.f_trace_opcodes = True
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, reached
