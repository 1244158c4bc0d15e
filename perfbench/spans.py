"""Span tracing of kiwi's public functions, from outside the package.

A Tracer replaces a function with a timing wrapper at every place a
caller can look it up: a method on its class, and a module-level function
in every loaded `kiwi` module that binds the same object (so a function
that `rebalance` imported by name is wrapped there as well as at home).
`restore()` puts the originals back.

Each wrapper records a span: the calling thread's CPU time
(`time.thread_time_ns`) from entry to exit. CPU time, not wall time,
because both client threads share one interpreter lock: a wall-clock span
would absorb whole 5 ms switch intervals spent waiting for the lock. A
span's self time is its duration minus the durations of the spans it
directly contains. Tracing inflates both by about the same constant,
`empty_span_us()`: a span's duration once, and its parent's self time
once more for the wrapper's entry and exit around it. Per-thread tables
are merged when the run ends, so the hot path takes no lock.
"""

from __future__ import annotations

import sys
import threading
import time
import types
from typing import Any, Callable, Optional

CALLS, TOTAL_NS, SELF_NS = 0, 1, 2
# A hook sees the span's row, the call's arguments and its result, and may
# add counts at row[3:] (see Tracer.wrapper).
Hook = Callable[[list, tuple, Any], None]


class MissingSpanError(RuntimeError):
    """A span the workload must exercise recorded no calls."""


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.thread_time_ns) -> None:
        self._clock = clock
        self._tls = threading.local()
        self._tables: list[dict[str, list]] = []
        self._tables_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._widths: dict[str, int] = {}

    def _thread_state(self) -> tuple[list, dict]:
        table: dict[str, list] = {}
        with self._tables_lock:
            self._tables.append(table)
        self._tls.stack = []
        self._tls.table = table
        return self._tls.stack, table

    def wrapper(self, name: str, fn: Callable, hook: Optional[Hook] = None, extra: int = 0) -> Callable:
        """A traced stand-in for fn, recording under name."""
        width = self._widths[name] = 3 + extra
        tls = self._tls
        clock = self._clock
        thread_state = self._thread_state

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                stack = tls.stack
                table = tls.table
            except AttributeError:
                stack, table = thread_state()
            stack.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                children = stack.pop()
                row = table.get(name)
                if row is None:
                    row = table[name] = [0] * width
                row[CALLS] += 1
                duration = clock() - start
                row[TOTAL_NS] += duration
                row[SELF_NS] += duration - children
                if stack:
                    stack[-1] += duration
            if hook is not None:
                hook(row, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_method(self, name: str, cls: type, attr: str, hook: Optional[Hook] = None, extra: int = 0) -> None:
        """Wrap cls.attr; instances find the wrapper through their class."""
        self._patch(cls, attr, self.wrapper(name, cls.__dict__[attr], hook, extra))

    def wrap_function(self, name: str, module: types.ModuleType, attr: str, hook: Optional[Hook] = None, extra: int = 0) -> None:
        """Wrap module.attr in every loaded module of its package that
        binds the same function object."""
        original = getattr(module, attr)
        wrapper = self.wrapper(name, original, hook, extra)
        package = module.__name__.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (mod_name != package and not mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def rows(self) -> dict[str, list]:
        """Merged per-span rows [calls, total_ns, self_ns, *counts]; a span
        that never ran reads all zeros."""
        merged = {name: [0] * width for name, width in self._widths.items()}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, row in table.items():
                into = merged[name]
                for i, value in enumerate(row):
                    into[i] += value
        return merged

    def require_calls(self, names: list[str]) -> None:
        rows = self.rows()
        missing = [name for name in names if rows[name][CALLS] == 0]
        if missing:
            raise MissingSpanError(
                "expected spans recorded zero calls: " + ", ".join(missing)
                + " (was the function renamed, or is it now looked up somewhere the tracer does not wrap?)"
            )


def empty_span_us(samples: int = 20_000) -> float:
    """Mean duration one span records around a function that does nothing:
    the clock-read cost every recorded span includes."""
    tracer = Tracer()
    noop = tracer.wrapper("noop", lambda: None)
    for _ in range(samples):
        noop()
    calls, total_ns, _ = tracer.rows()["noop"]
    return total_ns / calls / 1000.0
