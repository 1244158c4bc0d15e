"""The one place kiwi and its tests start threads: daemon workers, joined
by one deadline that raises a worker's exception or names the stuck."""

import contextlib
import sys
import threading
import time

MARGIN_S = 60.0  # what a bound allows beyond a recipe's sleeps or window


def _capture(fn):
    """Call fn(); return what it raised, or None."""
    try:
        fn()
    except BaseException as exc:
        return exc
    return None


def start_thread(target) -> threading.Thread:
    """Start target() on a daemon thread named after it, or after its
    function and arguments for a partial: worker-1 for partial(worker, 1).
    join_threads raises what target raised."""

    def run():
        error = _capture(target)
        if error is not None:
            thread.failure = (time.monotonic(), error)

    name = "-".join([getattr(target, "func", target).__name__, *map(str, getattr(target, "args", ()))])
    thread = threading.Thread(target=run, name=name, daemon=True)
    thread.failure = None
    thread.start()
    return thread


def join_threads(*threads: threading.Thread, timeout: float) -> None:
    """Wait for threads from start_thread until timeout seconds from now.
    Raise the earliest exception any of them raised; else raise
    TimeoutError naming every thread still alive. Python cannot stop a
    thread, so a stuck worker that spins rather than blocks keeps running
    as a daemon after the TimeoutError and shares the GIL with whatever
    runs next: 19 map-free tests took 7.3 s after one such failure,
    against 2.7 s alone (CPython 3.11.7, 2 cores)."""
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    failures = [thread.failure for thread in threads if thread.failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    alive = [thread.name for thread in threads if thread.is_alive()]
    if alive:
        raise TimeoutError(f"still alive after {timeout:g} s: {', '.join(alive)}")


def run_threads(*targets, timeout: float) -> None:
    """Run each target on its own thread and join them all by one deadline."""
    join_threads(*[start_thread(target) for target in targets], timeout=timeout)


@contextlib.contextmanager
def fast_switching(interval: float):
    """Switch threads every interval seconds, so their steps interleave finely."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(interval)
    try:
        yield
    finally:
        sys.setswitchinterval(old)
