"""Set-up, timed windows and correctness checks of the three workloads.

Every workload is a closed loop: each client issues its next operation
only when the previous one returned. Each operation is timed on its own
thread with `perf_counter_ns`; its result is checked outside the timed
interval. A `Round` is one set-up plus any number of timed windows on it.
"""

from __future__ import annotations

import gc
import os
import random
import sys
import tempfile
import threading
import time
import types
from array import array
from typing import Any, Callable, Optional

import corpus
from kiwi import TOMBSTONE, KiwiMap, LockedSortedMap, checker, history, steady_state_init_size

KEY_RANGE = 200_000
INIT_KEYS = steady_state_init_size(KEY_RANGE, 50, 50)
MAX_ITEMS = 4500
SCAN_SPAN = 8192
CLIENTS = 2
VALUE_SHIFT = 20  # a value is key << VALUE_SHIFT | write sequence number

READ_MOSTLY = "read_mostly"
CHURN_SCAN = "churn_scan"
CHECK_CORPUS = "check_corpus"
WORKLOADS = (READ_MOSTLY, CHURN_SCAN, CHECK_CORPUS)

PARAMS = {
    READ_MOSTLY: {
        "clients": CLIENTS, "mix": "90% get, 5% value put, 5% tombstone put; writers own one key parity each",
        "key_range": KEY_RANGE, "prefill_keys": INIT_KEYS, "max_items": MAX_ITEMS, "bounds": False,
    },
    CHURN_SCAN: {
        "clients": CLIENTS, "mix": "1 mutator: 50/50 value/tombstone put; 1 scanner: scan(lo, lo+%d)" % SCAN_SPAN,
        "key_range": KEY_RANGE, "prefill_keys": INIT_KEYS, "max_items": MAX_ITEMS, "bounds": True,
    },
    CHECK_CORPUS: {
        "clients": 1, "histories": 2 * corpus.HISTORIES, "threads_per_history": list(corpus.THREADS),
        "ops_per_history": list(corpus.OPS), "keys": corpus.KEYS,
    },
}

# The operation kinds each workload times: (primary, secondary). On
# check_corpus they are checks of linearizable histories (the search finds
# a witness) and of corrupted ones (the search must fail everywhere).
KINDS = {
    READ_MOSTLY: ("get", "put"),
    CHURN_SCAN: ("put", "scan"),
    CHECK_CORPUS: ("accept", "reject"),
}

# Percentile each kind's gated tail latency is read at. Scans number only
# ~1000 a run. With two clients, 0.5-0.8% of puts are in flight when the
# GIL changes hands and wait out a 5 ms switch interval, so a put's p99
# sits on the edge of that mode.
TAIL = {"get": 99, "put": 95, "scan": 95, "accept": 99, "reject": 99}

SEGMENT_S = 0.25  # windows run as segments this long, a speed probe between each
PROBE_LOOKUPS = 4096
PROBE_REF_NS = 2_000_000  # normalized figures read as if each probe took this long


class SpeedProbe:
    """Times a batch of random lookups in a 200k-entry dict: pure Python,
    cache- and memory-bound like the map, and sharing no code with kiwi.

    A shared 2-vCPU KVM guest's speed drifted by up to ~1.8x over seconds
    as neighbouring load came and went. A map window's rate moved with this
    probe's time (correlation -0.8), so timings are scaled by
    PROBE_REF_NS / probe time taken next to them. Each call looks up the
    next 4096 of 262144 stored keys, so a probe rarely finds its keys
    still cached.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        size = 200_000
        self._table = {k * 7919: k for k in range(size)}  # ints only: untracked by gc
        self._keys = [rng.randrange(size) * 7919 for _ in range(64 * PROBE_LOOKUPS)]
        self._next = 0

    def __call__(self) -> int:
        """Nanoseconds one batch took (with no collection inside it)."""
        lo = self._next
        self._next = (lo + PROBE_LOOKUPS) % len(self._keys)
        keys, table = self._keys[lo : lo + PROBE_LOOKUPS], self._table
        collecting = gc.isenabled()
        gc.disable()
        total = 0
        start = time.perf_counter_ns()
        for key in keys:
            total += table[key]
        elapsed = time.perf_counter_ns() - start
        if collecting:
            gc.enable()
        return elapsed


def speed(probes: list[int]) -> float:
    """Scale for timings taken between these probes (< 1 on a slow host)."""
    return PROBE_REF_NS * len(probes) / sum(probes)


def encode(key: int, seq: int) -> int:
    return (key << VALUE_SHIFT) | (seq & ((1 << VALUE_SHIFT) - 1))


def encodes(key: Any, value: Any) -> bool:
    return type(value) is int and value >> VALUE_SHIFT == key


class Log:
    """What one client did in one segment: per-kind latencies (ns), keys
    returned by scans, failures, and its writes in program order."""

    def __init__(self, kinds: tuple[str, ...]) -> None:
        self.latencies = {kind: array("q") for kind in kinds}
        self.scan_keys = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.writes: list[tuple[int, Optional[int]]] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def deep_bytes(root: Any) -> int:
    """sys.getsizeof summed over every object reachable from root,
    not descending into code, classes or modules."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, opaque):
            continue
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


class Segment:
    """One stretch of a window: its clients' logs, its length, and the
    speed probes taken just before and just after it."""

    def __init__(self, window: int, seconds: float, logs: list[Log]) -> None:
        self.window = window
        self.seconds = seconds
        self.logs = logs
        self.elapsed = 0.0
        self.probes: list[int] = []

    @property
    def speed(self) -> float:
        return speed(self.probes)


class Round:
    """One set-up of a workload and the windows measured on it."""

    def __init__(self, workload: str, seed: int, root: str, probe: SpeedProbe) -> None:
        self.workload = workload
        self.seed = seed
        self.root = root
        self.probe = probe
        self.logs: list[Log] = []
        self.checks: dict[str, Any] = {}
        self.kinds = KINDS[workload]
        if workload == CHECK_CORPUS:
            self._setup_corpus()
        else:
            self._setup_map()
        self.cyclic_garbage = 0

    def _timed_steps(self, steps: list[Callable[[], None]]) -> None:
        """Run the set-up steps back to back with a speed probe between
        them; sets setup_s and its speed-scaled form."""
        raw = scaled = 0.0
        before = self.probe()
        for step in steps:
            start = time.perf_counter()
            step()
            elapsed = time.perf_counter() - start
            after = self.probe()
            raw += elapsed
            scaled += elapsed * speed([before, after])
            before = after
        self.setup_s, self.scaled_setup_s = raw, scaled

    # ---------------- set-up ----------------

    def _setup_map(self) -> None:
        keys = random.Random(f"prefill-{self.seed}").sample(range(KEY_RANGE), INIT_KEYS)
        self.map = KiwiMap(
            max_threads=CLIENTS + 1,
            max_items=MAX_ITEMS,
            bounds_enabled=self.workload == CHURN_SCAN,
            rng=random.Random(self.seed).random,
        )
        self.map.register_thread()
        put = self.map.put

        def prefill(part: list[int]) -> None:
            for key in part:
                put(key, encode(key, 0))

        step = INIT_KEYS // 10
        self._timed_steps([lambda lo=lo: prefill(keys[lo : lo + step]) for lo in range(0, INIT_KEYS, step)])
        self.prefill = sorted(keys)
        self.chunks_after_prefill = len(self.map.chunks())
        self.mem_bytes_per_item = deep_bytes(self.map) / INIT_KEYS

    def _setup_corpus(self) -> None:
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.root)
        built: list[tuple[history.History, bool]] = []
        loaded: list[tuple[history.History, bool]] = []

        def save_and_load(lo: int, hi: int) -> None:
            for i in range(lo, hi):
                path = os.path.join(self.tmp.name, f"{i}.jsonl")
                hist, label = built[i]
                history.save_history(hist, path)
                loaded.append((history.load_history(path), label))

        size, step = 2 * corpus.HISTORIES, corpus.HISTORIES // 5
        self._timed_steps(
            [lambda: built.extend(corpus.build(self.seed))]
            + [lambda lo=lo: save_and_load(lo, min(lo + step, size)) for lo in range(0, size, step)]
        )
        self.corpus = loaded
        records = sum(len(h.records) for h, _ in loaded)
        self.mem_bytes_per_item = deep_bytes([h for h, _ in loaded]) / records
        self.nodes_by_index: dict[int, int] = {}
        self.next_index = 0

    def close(self) -> None:
        if self.workload == CHECK_CORPUS:
            self.tmp.cleanup()

    # ---------------- timed windows ----------------

    def run(self, windows: list[float], between: Optional[Callable[[int], None]] = None) -> list[Segment]:
        """Run the clients through back-to-back timed windows of the given
        lengths, each cut into segments of about SEGMENT_S with a speed
        probe between segments. between(w), if given, runs while every
        client waits at the start of window w. Returns the segments."""
        if self.workload == CHECK_CORPUS:
            clients: list[Callable[[Log, random.Random, int], None]] = [self._checker]
        elif self.workload == READ_MOSTLY:
            clients = [self._read_mostly(parity) for parity in range(CLIENTS)]
        else:
            clients = [self._mutator, self._scanner]
        segments = []
        for w, seconds in enumerate(windows):
            count = max(1, round(seconds / SEGMENT_S))
            segments += [Segment(w, seconds / count, [Log(self.kinds) for _ in clients]) for _ in range(count)]
        step, started, deadline = [0], [0], [0]

        def start_segment() -> None:
            seg = segments[step[0]]
            if step[0] == 0:
                seg.probes.append(self.probe())
            if between is not None and (step[0] == 0 or segments[step[0] - 1].window != seg.window):
                between(seg.window)
            started[0] = time.perf_counter_ns()
            deadline[0] = started[0] + int(seg.seconds * 1e9)

        def end_segment() -> None:
            seg = segments[step[0]]
            seg.elapsed = (time.perf_counter_ns() - started[0]) / 1e9
            probe = self.probe()
            seg.probes.append(probe)
            if step[0] + 1 < len(segments):
                segments[step[0] + 1].probes.append(probe)
            step[0] += 1

        barrier = threading.Barrier(len(clients), action=start_segment)
        done = threading.Barrier(len(clients), action=end_segment)
        errors: list[BaseException] = []

        def client(i: int) -> None:
            try:
                if self.workload != CHECK_CORPUS:
                    self.map.register_thread()
                rng = random.Random(self.seed * 7919 + i)
                for seg in segments:
                    barrier.wait()
                    clients[i](seg.logs[i], rng, deadline[0])
                    done.wait()
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
                barrier.abort()
                done.abort()

        # On the map workloads the cyclic collector is off while clients
        # run. Each full collection traverses the whole prefilled map
        # (~200 ms at 100k keys, about once a second under churn), so that
        # pause, not the map, would set every tail and rate. Map operations
        # make no reference cycles; the collection after the windows counts
        # any they did make. The checker leaves cyclic garbage (its search
        # closures) on every call, so on check_corpus collecting it is part
        # of the work measured.
        gc.collect()
        if self.workload != CHECK_CORPUS:
            gc.disable()
        try:
            if len(clients) == 1:
                client(0)
            else:
                threads = [threading.Thread(target=client, args=(i,), daemon=True) for i in range(len(clients))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=sum(windows) + 120)
                    if t.is_alive():
                        raise RuntimeError(f"{self.workload} client did not finish its windows")
        finally:
            gc.enable()
        self.cyclic_garbage += gc.collect()
        if errors:
            raise errors[0]
        for seg in segments:
            self.logs += seg.logs
        return segments

    def _read_mostly(self, parity: int) -> Callable[[Log, random.Random, int], None]:
        def client(log: Log, rng: random.Random, deadline: int) -> None:
            get, put, clock = self.map.get, self.map.put, time.perf_counter_ns
            get_ns, put_ns, writes = log.latencies["get"], log.latencies["put"], log.writes
            half = KEY_RANGE // 2
            seq = 0
            now = clock()
            while now < deadline:
                log.attempted += 1
                roll = rng.random()
                if roll < 0.9:
                    key = rng.randrange(KEY_RANGE)
                    start = clock()
                    try:
                        value = get(key)
                    except Exception as exc:
                        log.fail(f"get({key}) raised {exc!r}")
                        now = clock()
                        continue
                    now = clock()
                    get_ns.append(now - start)
                    if value is not None and not encodes(key, value):
                        log.fail(f"get({key}) returned {value!r}")
                else:
                    key = 2 * rng.randrange(half) + parity
                    seq += 1
                    value = TOMBSTONE if roll >= 0.95 else encode(key, seq)
                    writes.append((key, None if value is TOMBSTONE else value))
                    start = clock()
                    try:
                        put(key, value)
                    except Exception as exc:
                        log.fail(f"put({key}) raised {exc!r}")
                        now = clock()
                        continue
                    now = clock()
                    put_ns.append(now - start)

        return client

    def _mutator(self, log: Log, rng: random.Random, deadline: int) -> None:
        put, clock = self.map.put, time.perf_counter_ns
        put_ns, writes = log.latencies["put"], log.writes
        seq = 0
        now = clock()
        while now < deadline:
            log.attempted += 1
            key = rng.randrange(KEY_RANGE)
            seq += 1
            value = TOMBSTONE if rng.random() < 0.5 else encode(key, seq)
            writes.append((key, None if value is TOMBSTONE else value))
            start = clock()
            try:
                put(key, value)
            except Exception as exc:
                log.fail(f"put({key}) raised {exc!r}")
                now = clock()
                continue
            now = clock()
            put_ns.append(now - start)

    def _scanner(self, log: Log, rng: random.Random, deadline: int) -> None:
        scan, clock = self.map.scan, time.perf_counter_ns
        scan_ns = log.latencies["scan"]
        now = clock()
        while now < deadline:
            log.attempted += 1
            lo = rng.randrange(KEY_RANGE - SCAN_SPAN)
            hi = lo + SCAN_SPAN
            start = clock()
            try:
                found = scan(lo, hi)
            except Exception as exc:
                log.fail(f"scan({lo}, {hi}) raised {exc!r}")
                now = clock()
                continue
            now = clock()
            scan_ns.append(now - start)
            log.scan_keys += len(found)
            prev = lo - 1
            for key, value in found:
                if not (prev < key <= hi and encodes(key, value)):
                    log.fail(f"scan({lo}, {hi}) returned ({key!r}, {value!r}) after key {prev!r}")
                    break
                prev = key

    def _checker(self, log: Log, rng: random.Random, deadline: int) -> None:
        latencies, clock = log.latencies, time.perf_counter_ns
        size = len(self.corpus)
        now = clock()
        while now < deadline:
            log.attempted += 1
            index = self.next_index % size
            self.next_index += 1
            hist, linearizable = self.corpus[index]
            start = clock()
            try:
                result = checker.check_linearizable(hist)
            except Exception as exc:
                log.fail(f"check of history {index} raised {exc!r}")
                now = clock()
                continue
            now = clock()
            latencies["accept" if linearizable else "reject"].append(now - start)
            self.nodes_by_index[index] = result.nodes_used
            expected = checker.LINEARIZABLE if linearizable else checker.NOT_LINEARIZABLE
            if result.status != expected:
                log.fail(f"history {index}: verdict {result.status}, label {expected}")

    # ---------------- quiescent checks ----------------

    def verify(self) -> tuple[int, int]:
        """Checks that need the clients stopped; (attempted, failed)."""
        if self.workload == CHECK_CORPUS:
            return 0, 0
        self.checks["cyclic_garbage"] = self.cyclic_garbage
        items = self.map.items()
        replay = LockedSortedMap(max_threads=1, bounds_enabled=False)
        replay.register_thread()
        for key in self.prefill:
            replay.put(key, encode(key, 0))
        for log in self.logs:
            for key, value in log.writes:
                replay.put(key, TOMBSTONE if value is None else value)
        expected = replay.items()
        attempted, failed = 1, 0
        if items != expected:
            failed = max(1, len(set(items) ^ set(expected)))
            self.checks["items_vs_replay"] = f"{failed} (key, value) pairs differ"
        if self.workload == CHURN_SCAN:
            attempted += 1
            lower, upper = self.map.size_lower_bound(), self.map.size_upper_bound()
            self.checks["bounds"] = [lower, len(items), upper]
            if not lower <= len(items) <= upper:
                failed += 1
        return attempted, failed
