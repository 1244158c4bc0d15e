"""Fuzzed concurrent runs recorded as checkable histories.

Few threads, few keys, short runs: collisions and overlap come from a
tiny key range plus random sleeps injected at the put lifecycle's
sensitive points (post-allocate, post-publish, pre-version-CAS,
pre-list-CAS). Operation sequences are derived deterministically from
the seed; only the interleaving varies run to run.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .core import TOMBSTONE, KiwiMap
from .history import GET, IS_EMPTY, PUT, SCAN, SIZE, History, OpRecord
from .reference import LockedSortedMap

# op-mix weights (put, delete, get, scan); a mix may also weigh SIZE and
# IS_EMPTY, as tests/helpers.with_size_ops does.
DEFAULT_MIX = {PUT: 4, "delete": 3, GET: 4, SCAN: 1}


@dataclass
class FuzzConfig:
    """Recipe for one recorded run.

    delay_prob/delay_max_s apply independently at each sensitive point.
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


def record_run(
    config: FuzzConfig,
    map_factory: Optional[Callable[[], Any]] = None,
) -> History:
    """Execute the fuzzed workload against a fresh map (concurrent map by
    default) and return the recorded history."""
    history, _ = record_run_with_map(config, map_factory)
    return history


def record_run_with_map(
    config: FuzzConfig,
    map_factory: Optional[Callable[[], Any]] = None,
) -> tuple[History, Any]:
    """record_run, but also hands back the map for post-run draining.
    Timestamps are taken on the operating thread immediately around each
    call, so measurement error is tiny next to the injected delays."""
    if map_factory is None:
        # one spare slot so the caller can register and drain afterwards
        target = KiwiMap(
            max_threads=config.threads + 1,
            max_items=config.max_items,
            bounds_enabled=config.bounds_enabled,
        )
    else:
        target = map_factory()

    delay_rngs = [random.Random((config.seed * 7_777_777) ^ (tid + 101)) for tid in range(config.threads)]
    tls = threading.local()

    def pause(point: str) -> None:
        rng = delay_rngs[tls.tid]
        if rng.random() < config.delay_prob:
            time.sleep(rng.uniform(0, config.delay_max_s))

    if isinstance(target, KiwiMap):
        target.set_pause_hook(pause)

    per_thread_ops = [generate_ops(config, tid) for tid in range(config.threads)]
    records: list[list[OpRecord]] = [[] for _ in range(config.threads)]
    barrier = threading.Barrier(config.threads)
    errors: list[BaseException] = []

    def worker(tid: int) -> None:
        tls.tid = tid
        try:
            target.register_thread()
            barrier.wait()
            out = records[tid]
            for kind, args in per_thread_ops[tid]:
                invoke = time.monotonic_ns()
                result = _run_op(target, kind, args)
                response = time.monotonic_ns()
                out.append(OpRecord(tid, kind, args, result, invoke, response))
        except BaseException as exc:  # surfaced to the caller
            errors.append(exc)
            barrier.abort()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # aggressive preemption for interleavings
    try:
        threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(config.threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old_interval)
        if isinstance(target, KiwiMap):
            target.set_pause_hook(None)
    if errors:
        raise errors[0]

    merged = [rec for per in records for rec in per]
    merged.sort(key=lambda r: r.invoke_ts)
    history = History(
        records=merged,
        meta={
            "seed": config.seed,
            "threads": config.threads,
            "ops_per_thread": config.ops_per_thread,
            "key_range": config.key_range,
            "mix": {str(k): v for k, v in config.mix.items()},
            "delay_prob": config.delay_prob,
            "delay_max_s": config.delay_max_s,
        },
    )
    history.validate()
    return history, target


def record_locked_oracle_run(config: FuzzConfig) -> History:
    """Same workload through the coarse-lock map: linearizable by
    construction, for checker soundness calibration. A small delay inside
    the critical section makes the recorded intervals actually overlap."""
    return record_run(
        config,
        map_factory=lambda: LockedSortedMap(
            max_threads=config.threads, op_delay_s=config.delay_max_s / 4
        ),
    )
