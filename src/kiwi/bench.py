"""Benchmark runner: workload suite, sizing rule, measurement protocol.

Each iteration builds a fresh map prefilled to half the key range and
hammers it for a fixed wall-clock window from seeded per-thread
operation streams; a start barrier and a deadline frame the window,
per-thread counters are summed after the stop. The warm-up is iteration
-1 of the same loop, its rates discarded, on at most 4096 keys for
warmup_seconds. With three or more iterations the most suspicious one
(furthest from the mean) is dropped before averaging. Both windows are
finite. Every scan, in ScanOnly32K and in HalfPutDeleteHalfScan, covers
SCAN_KEYS (32,768) consecutive keys. Threads count the OP_KINDS they
run; the CSV has one row per counted kind, with the CSV_COLUMNS.
Absolute numbers are machine-bound; the output exists for trend checks
and CSV tooling.
"""

from __future__ import annotations

import csv
import functools
import math
import random
import statistics
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from . import workers
from .core import TOMBSTONE, KiwiMap
from .reference import LockedSortedMap

GET_ONLY = "GetOnly"
PUT_DELETE_5050 = "PutDelete5050"
SCAN_ONLY_32K = "ScanOnly32K"
SCAN_KEYS = 32_768
HALF_PUT_DELETE_HALF_SCAN = "HalfPutDeleteHalfScan"
WORKLOADS = (GET_ONLY, PUT_DELETE_5050, SCAN_ONLY_32K, HALF_PUT_DELETE_HALF_SCAN)

IMPL_KIWI = "kiwi"
IMPL_LOCKED = "locked"
IMPLS = (IMPL_KIWI, IMPL_LOCKED)

OP_KINDS = ("put", "delete", "get", "scan")
CSV_COLUMNS = ("workload", "impl", "threads", "op_kind", "mean_ops_per_sec", "stddev", "iterations")


def steady_state_init_size(key_range: int, insert_pct: int, delete_pct: int) -> int:
    """Prefill that keeps the expected map size steady under a mix of
    insert_pct inserts and delete_pct deletes over key_range uniform
    keys: key_range * insert_pct / (insert_pct + delete_pct)."""
    if insert_pct + delete_pct <= 0:
        raise ValueError("insert_pct + delete_pct must be positive")
    return key_range * insert_pct // (insert_pct + delete_pct)


@dataclass
class WorkloadConfig:
    name: str
    threads: int
    key_range_max: int = 2_000_000
    warmup_seconds: float = 20.0
    run_seconds: float = 5.0
    iterations: int = 10
    seed: int = 0
    # fixed per-thread op count instead of a wall-clock window; makes
    # single-thread runs bit-reproducible
    ops_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in WORKLOADS:
            raise ValueError(f"unknown workload {self.name!r}; choose from {WORKLOADS}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.key_range_max < 1:
            raise ValueError("key_range_max must be >= 1")
        if not 0 < self.run_seconds < math.inf:  # NaN fails too
            raise ValueError("run_seconds must be finite and > 0")
        if not 0 <= self.warmup_seconds < math.inf:
            raise ValueError("warmup_seconds must be finite and >= 0")
        if self.ops_budget is not None and self.ops_budget < 1:
            raise ValueError("ops_budget must be >= 1 when given")

    @property
    def init_size(self) -> int:  # the steady state of a 50/50 put/delete mix
        return steady_state_init_size(self.key_range_max, 50, 50)


@dataclass
class MeasurementResult:
    workload: str
    impl: str
    threads: int
    # op_kind -> list of per-iteration throughputs (retained iterations)
    per_kind_raw: dict = field(default_factory=dict)

    def mean(self, kind: str) -> float:
        return statistics.fmean(self.per_kind_raw[kind])

    def stddev(self, kind: str) -> float:
        values = self.per_kind_raw[kind]
        return statistics.stdev(values) if len(values) > 1 else 0.0

    def rows(self) -> list[dict]:
        """One CSV_COLUMNS row per op kind, in kind order."""
        return [
            dict(zip(CSV_COLUMNS, (
                self.workload, self.impl, self.threads, kind,
                f"{self.mean(kind):.2f}", f"{self.stddev(kind):.2f}", len(self.per_kind_raw[kind]),
            )))
            for kind in sorted(self.per_kind_raw)
        ]


def most_suspicious(values: list[float]) -> Optional[int]:
    """The index of the value furthest from the mean; below three samples
    there is nothing to judge, so None."""
    if len(values) < 3:
        return None
    mean = statistics.fmean(values)
    return max(range(len(values)), key=lambda i: abs(values[i] - mean))


def make_map(impl: str, threads: int, bounds_enabled: bool = False) -> Any:
    if impl == IMPL_KIWI:
        return KiwiMap(max_threads=threads + 1, bounds_enabled=bounds_enabled)
    if impl == IMPL_LOCKED:
        return LockedSortedMap(max_threads=threads + 1, bounds_enabled=bounds_enabled)
    raise ValueError(f"unknown impl {impl!r}; choose from {IMPLS}")


def prefill(target: Any, cfg: WorkloadConfig, rng: random.Random) -> dict:
    """Insert init_size distinct uniform keys; returns the inserted dict."""
    target.register_thread()
    inserted: dict = {}
    while len(inserted) < cfg.init_size:
        key = rng.randrange(cfg.key_range_max)
        if key not in inserted:
            value = rng.randrange(1 << 30)
            inserted[key] = value
            target.put(key, value)
    return inserted


def _thread_role(cfg: WorkloadConfig, tid: int) -> str:
    if cfg.name == HALF_PUT_DELETE_HALF_SCAN:
        # half the threads mutate, half scan (odd counts favor mutators)
        return "scan" if tid >= (cfg.threads + 1) // 2 else "putdelete"
    if cfg.name == GET_ONLY:
        return "get"
    if cfg.name == PUT_DELETE_5050:
        return "putdelete"
    return "scan"


def _worker_loop(target: Any, cfg: WorkloadConfig, role: str, rng: random.Random, deadline: float, counts: dict) -> None:
    key_range = cfg.key_range_max
    budget = cfg.ops_budget
    n = 0
    check_every = 32
    while True:
        if budget is not None:
            if n >= budget:
                break
        elif n % check_every == 0 and time.monotonic() >= deadline:
            break
        if role == "get":
            target.get(rng.randrange(key_range))
            counts["get"] += 1
        elif role == "putdelete":
            key = rng.randrange(key_range)
            if rng.random() < 0.5:
                target.put(key, rng.randrange(1 << 30))
                counts["put"] += 1
            else:
                target.put(key, TOMBSTONE)
                counts["delete"] += 1
        else:
            lo = rng.randrange(key_range)
            target.scan(lo, lo + SCAN_KEYS - 1)
            counts["scan"] += 1
        n += 1


def run_iteration(cfg: WorkloadConfig, impl: str, iteration: int, bounds_debug: bool = False) -> dict:
    """One timed window on a fresh prefilled map: op-kind -> ops/second.
    With bounds_debug the size bounds are enabled and the quiescent
    bracket (lower <= true size <= upper) is asserted after the window.
    A worker still running after run_seconds plus workers.MARGIN_S fails
    it with TimeoutError, also under an ops_budget, which must fit."""
    target = make_map(impl, cfg.threads, bounds_enabled=bounds_debug)
    rng = random.Random(cfg.seed * 1009 + iteration)
    prefill(target, cfg, rng)

    barrier = threading.Barrier(cfg.threads)
    counts = [dict.fromkeys(OP_KINDS, 0) for _ in range(cfg.threads)]

    def worker(tid: int) -> None:
        worker_rng = random.Random(cfg.seed * 31337 + iteration * 97 + tid)
        role = _thread_role(cfg, tid)
        barrier.wait()  # before registering, which may fail: the others still start
        target.register_thread()
        deadline = time.monotonic() + cfg.run_seconds
        _worker_loop(target, cfg, role, worker_rng, deadline, counts[tid])

    threads = [workers.start_thread(functools.partial(worker, tid)) for tid in range(cfg.threads)]
    start = time.monotonic()
    workers.join_threads(*threads, timeout=cfg.run_seconds + workers.MARGIN_S)
    elapsed = max(time.monotonic() - start, 1e-9)

    if bounds_debug:
        lower = target.size_lower_bound()
        upper = target.size_upper_bound()
        true_size = len(target.items())
        if not lower <= true_size <= upper:
            raise AssertionError(
                f"size-bound bracket violated after iteration: {lower} <= {true_size} <= {upper}"
            )

    totals = {kind: sum(per[kind] for per in counts) for kind in OP_KINDS}
    return {kind: count / elapsed for kind, count in totals.items() if count}


def run_workload(cfg: WorkloadConfig, impl: str, bounds_debug: bool = False) -> MeasurementResult:
    if cfg.warmup_seconds > 0:
        small = min(cfg.key_range_max, 4096)
        warmup = replace(cfg, key_range_max=small, run_seconds=cfg.warmup_seconds, ops_budget=None)
        run_iteration(warmup, impl, -1)
    per_iteration: list[dict] = [
        run_iteration(cfg, impl, i, bounds_debug=bounds_debug) for i in range(cfg.iterations)
    ]
    totals = [sum(rates.values()) for rates in per_iteration]
    dropped = most_suspicious(totals)
    retained = [rates for i, rates in enumerate(per_iteration) if i != dropped]
    kinds = sorted({kind for rates in retained for kind in rates})
    return MeasurementResult(
        workload=cfg.name,
        impl=impl,
        threads=cfg.threads,
        per_kind_raw={kind: [rates.get(kind, 0.0) for rates in retained] for kind in kinds},
    )


def emit_results(results: list[MeasurementResult], path: str) -> None:
    """One CSV: header plus a row per (workload, impl, threads, op_kind),
    deterministically ordered."""
    rows = [row for result in results for row in result.rows()]
    rows.sort(key=lambda r: (r["workload"], r["impl"], r["threads"], r["op_kind"]))
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
