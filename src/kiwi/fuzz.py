"""Fuzzed concurrent runs recorded as checkable histories.

record_run(config, target=None) records against the map it is handed,
by default a fresh KiwiMap built from the config; the coarse-lock
LockedSortedMap, linearizable by construction, calibrates the checker.

Few threads, few keys, short runs: collisions and overlap come from a
tiny key range plus random sleeps at the recorded map's pause sites. The
maps hold no hook for them: each worker thread installs a sys.settrace
function that sleeps when the map calls a site function (PAUSE_SITES).
On the concurrent map those calls mark the put lifecycle's sensitive
points (post-allocate, post-publish, pre-version-CAS, pre-list-CAS); on
the coarse-lock oracle, the slot check that opens put, get and scan.
Operation sequences are derived deterministically from the seed; only
the interleaving varies run to run. A history's metadata is its whole
FuzzConfig, so FuzzConfig(**history.meta) rebuilds the recipe.
"""

from __future__ import annotations

import functools
import math
import random
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from . import workers
from .core import TOMBSTONE, KiwiMap
from .history import GET, IS_EMPTY, PUT, SCAN, SIZE, History, OpRecord
from .reference import LockedSortedMap

# op-mix weights (put, delete, get, scan); a mix may also weigh SIZE and
# IS_EMPTY, as tests/helpers.with_size_ops does.
DEFAULT_MIX = {PUT: 4, "delete": 3, GET: 4, SCAN: 1}
MIX_KINDS = (PUT, "delete", GET, SCAN, SIZE, IS_EMPTY)

# Pause sites: a call of the named function from one of the listed callers.
# KiwiMap.put's four are its lifecycle's sensitive points, in order:
# post-allocate, post-publish, pre-version-CAS and pre-list-CAS. The locked
# oracle's slot check opens put, get and scan, before the lock.
_KIWI_PUT = (KiwiMap.put.__code__,)
PAUSE_SITES = {
    "on_put_published": _KIWI_PUT,
    "store_fence": _KIWI_PUT,
    "cas_version": _KIWI_PUT,
    "add_to_linked_list": _KIWI_PUT,
    "_require_slot": tuple(f.__code__ for f in (LockedSortedMap.put, LockedSortedMap.get, LockedSortedMap.scan)),
}


@dataclass
class FuzzConfig:
    """Recipe for one recorded run.

    delay_prob/delay_max_s apply independently at each pause site a
    thread reaches (PAUSE_SITES); a delay_prob of 0 installs no tracer.
    Short histories with two or three threads are the useful regime:
    longer ones are slow to check and hard to read when they fail.
    """

    threads: int = 2
    ops_per_thread: int = 20
    key_range: int = 8
    seed: int = 0
    mix: dict = field(default_factory=lambda: dict(DEFAULT_MIX))
    delay_prob: float = 0.4
    delay_max_s: float = 0.0008
    max_items: int = 4500
    bounds_enabled: bool = False
    scan_span: int = 4

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.key_range < 1:
            raise ValueError("key_range must be >= 1")
        if self.ops_per_thread < 0:
            raise ValueError("ops_per_thread must be >= 0")
        if self.scan_span < 1:
            raise ValueError("scan_span must be >= 1")
        if self.max_items < 2:
            raise ValueError("max_items must be >= 2")
        if not 0 <= self.delay_prob <= 1:  # NaN fails too
            raise ValueError("delay_prob must be within [0, 1]")
        if not (math.isfinite(self.delay_max_s) and self.delay_max_s >= 0):
            raise ValueError("delay_max_s must be finite and >= 0")
        unknown = set(self.mix) - set(MIX_KINDS)
        if unknown:
            raise ValueError(f"mix has unknown kinds {sorted(unknown)}; choose from {MIX_KINDS}")
        weights = self.mix.values()
        if not all(math.isfinite(w) and w >= 0 for w in weights) or not sum(weights) > 0:
            raise ValueError("mix weights must be finite, >= 0 and not all 0")
        if not self.bounds_enabled and (self.mix.get(SIZE) or self.mix.get(IS_EMPTY)):
            raise ValueError("size and is_empty ops in the mix need bounds_enabled")


def generate_ops(config: FuzzConfig, thread_id: int) -> list[tuple]:
    """Deterministic per-thread op sequence: (kind, args) tuples."""
    rng = random.Random((config.seed * 1_000_003) ^ thread_id)
    kinds = list(config.mix.keys())
    weights = [config.mix[k] for k in kinds]
    ops = []
    for _ in range(config.ops_per_thread):
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == PUT:
            ops.append((PUT, (rng.randrange(config.key_range), rng.randrange(100))))
        elif kind == "delete":
            ops.append((PUT, (rng.randrange(config.key_range), None)))
        elif kind == GET:
            ops.append((GET, (rng.randrange(config.key_range),)))
        elif kind == SCAN:
            lo = rng.randrange(config.key_range)
            ops.append((SCAN, (lo, lo + rng.randrange(config.scan_span))))
        elif kind == SIZE:
            ops.append((SIZE, ()))
        elif kind == IS_EMPTY:
            ops.append((IS_EMPTY, ()))
        else:
            raise ValueError(f"unknown mix kind {kind!r}")
    return ops


def _run_op(target: Any, kind: str, args: tuple) -> Any:
    if kind == PUT:
        key, value = args
        target.put(key, TOMBSTONE if value is None else value)
        return None
    if kind == GET:
        return target.get(*args)
    if kind == SCAN:
        return tuple(target.scan(*args))
    if kind == SIZE:
        return target.size()
    if kind == IS_EMPTY:
        return target.is_empty()
    raise ValueError(kind)


def pause_tracer(pause: Callable[[str, str], None]) -> Callable[[Any, str, Any], None]:
    """A sys.settrace function that calls pause(caller, site), by function
    name, at each pause site its thread reaches. It sees only call events,
    and returns None so that no frame is traced line by line."""

    def tracer(frame: Any, event: str, arg: Any) -> None:
        callers = PAUSE_SITES.get(frame.f_code.co_name)
        if callers is not None and frame.f_back.f_code in callers:
            pause(frame.f_back.f_code.co_name, frame.f_code.co_name)

    return tracer


def record_run(config: FuzzConfig, target: Any = None) -> History:
    """Run the fuzzed workload against target, or by default a fresh
    KiwiMap built from config with one spare thread slot (so the caller
    can register and drain it afterwards), and return the recorded
    history. target needs register_thread and the ops of config.mix.
    Timestamps are taken on the operating thread immediately around each
    call, so measurement error is tiny next to the injected delays. A
    worker still running after workers.MARGIN_S plus its worst-case sleeps
    (delay_max_s per pause site per op) fails the run with TimeoutError."""
    if target is None:
        target = KiwiMap(
            max_threads=config.threads + 1,
            max_items=config.max_items,
            bounds_enabled=config.bounds_enabled,
        )

    per_thread_ops = [generate_ops(config, tid) for tid in range(config.threads)]
    records: list[list[OpRecord]] = [[] for _ in range(config.threads)]
    barrier = threading.Barrier(config.threads)

    def worker(tid: int) -> None:
        delay_rng = random.Random((config.seed * 7_777_777) ^ (tid + 101))

        def pause(caller: str, site: str) -> None:
            if delay_rng.random() < config.delay_prob:
                time.sleep(delay_rng.uniform(0, config.delay_max_s))

        barrier.wait()  # before registering, which may fail: the others still start
        target.register_thread()
        if config.delay_prob > 0:
            sys.settrace(pause_tracer(pause))  # this thread only
        out = records[tid]
        for kind, args in per_thread_ops[tid]:
            invoke = time.monotonic_ns()
            result = _run_op(target, kind, args)
            response = time.monotonic_ns()
            out.append(OpRecord(tid, kind, args, result, invoke, response))

    timeout = workers.MARGIN_S + config.ops_per_thread * len(PAUSE_SITES) * config.delay_max_s
    with workers.fast_switching(1e-5):  # aggressive preemption for interleavings
        workers.run_threads(*[functools.partial(worker, tid) for tid in range(config.threads)], timeout=timeout)

    merged = [rec for per in records for rec in per]
    merged.sort(key=lambda r: r.invoke_ts)
    history = History(records=merged, meta=asdict(config))
    history.validate()
    return history
