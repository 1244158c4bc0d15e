"""Chunked multi-version concurrent sorted map.

Layout: a linked list of fixed-capacity chunks, each covering a key range
[min_key, range_end). A chunk holds an order array (versioned key slots
forming a sorted linked list with a presorted prefix for binary search),
a data array of immutable value cells, and a pending-puts array (PPA)
with one slot per registered thread. A map-wide global version counter
(incremented only by scans) defines snapshot boundaries; a pending-scans
array (PSA) tells rebalance which old versions in-flight scans still need.

Progress: put is lock-free (retries only through rebalance); get and scan
are wait-free: their loops are bounded by chunk capacity and chunk count.

Version word encoding, all transitions by CAS on the single word:
    0    NONE       allocated, not yet visible
    -v   Pending(v) version assigned (by owner or helper), not yet in list
    +v   Committed(v)
    FROZEN          sealed by rebalance before any version was assigned

dataIndex encoding: +slot for a value stored at data[slot]; -slot for a
tombstone (no data cell written). Magnitude equals the allocation slot,
so |dataIndex| orders same-(key, version) items by recency; overwrites
raise the magnitude monotonically.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Optional

from .atomics import AtomicInt, AtomicRef, cas, full_fence, store_fence, word_lock
from .bounds import BoundsCounters

VERSION_NONE = 0
END = -1  # end-of-list order index

# Pause points where a fuzz harness may inject delays (put lifecycle).
POST_ALLOCATE = "post-allocate"
POST_PUBLISH = "post-publish"
PRE_VERSION_CAS = "pre-version-cas"
PRE_LIST_CAS = "pre-list-cas"
PAUSE_POINTS = (POST_ALLOCATE, POST_PUBLISH, PRE_VERSION_CAS, PRE_LIST_CAS)


class _Tombstone:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TOMBSTONE"


TOMBSTONE = _Tombstone()


class _Frozen:
    __slots__ = ()

    def __repr__(self) -> str:
        return "FROZEN"


FROZEN = _Frozen()


class RegistrationError(RuntimeError):
    """Thread registry misuse: double registration, capacity, or no slot."""


class OrderEntry:
    """One versioned key slot. key is immutable; the other words CAS-only."""

    __slots__ = ("key", "version", "data_index", "next")

    def __init__(self, key: Any) -> None:
        self.key = key
        self.version: Any = VERSION_NONE
        self.data_index = 0  # set at allocation, before the entry is shared
        self.next = END

    def cas_version(self, expected: Any, new: Any) -> bool:
        return cas(self, "version", expected, new)

    def cas_data_index(self, expected: int, new: int) -> bool:
        return cas(self, "data_index", expected, new)

    def cas_next(self, expected: int, new: int) -> bool:
        return cas(self, "next", expected, new)

    def __repr__(self) -> str:
        return f"OrderEntry(key={self.key!r}, ver={self.version!r}, di={self.data_index}, next={self.next})"


def logical_version(word: Any) -> int:
    """Pending(-v) and Committed(+v) rank equally as version v."""
    return -word if word < 0 else word


@dataclass
class OverwriteResult:
    performed: bool
    old: int


def overwrite_data_index(entry: OrderEntry, new_data_index: int) -> OverwriteResult:
    """Raise entry.data_index to new_data_index while it is newer (larger
    magnitude). Reports whether THIS call's CAS succeeded and what it
    replaced; on a lost race nothing was changed by this call."""
    new_mag = abs(new_data_index)
    while True:
        old = entry.data_index
        if new_mag <= abs(old):
            return OverwriteResult(False, old)
        if entry.cas_data_index(old, new_data_index):
            return OverwriteResult(True, old)


_CHUNK_BIRTHS = AtomicInt(0)


class Chunk:
    """Fixed-capacity segment covering [min_key, range_end).

    Slot 0 of the order array is a permanent head sentinel, so allocation
    slots run 1..capacity and every insert CAS has a real predecessor.
    """

    __slots__ = (
        "min_key",
        "range_end",
        "capacity",
        "birth",
        "order",
        "data",
        "ppa",
        "sorted_prefix_len",
        "frozen",
        "replacement",
        "next",
        "list_size",
        "_alloc_counter",
        "_frozen_bound",
    )

    def __init__(self, min_key: Any, range_end: Any, capacity: int, max_threads: int) -> None:
        self.min_key = min_key
        self.range_end = range_end
        self.birth = _CHUNK_BIRTHS.fetch_add(1)
        self.capacity = capacity
        head = OrderEntry(None)
        self.order: list[Optional[OrderEntry]] = [head] + [None] * capacity
        self.data: list[Any] = [None] * (capacity + 1)
        self.ppa: list[Optional[int]] = [None] * max_threads
        self.sorted_prefix_len = 0
        self.frozen = False
        self.replacement: AtomicRef[Optional[tuple["Chunk", ...]]] = AtomicRef(None)
        self.next: AtomicRef[Optional["Chunk"]] = AtomicRef(None)
        self.list_size = AtomicInt(0)
        self._alloc_counter = 1
        self._frozen_bound: Optional[int] = None

    @property
    def head(self) -> OrderEntry:
        return self.order[0]  # type: ignore[return-value]

    def is_full(self) -> bool:
        return self._alloc_counter > self.capacity

    def alloc(self, entry: OrderEntry, is_tombstone: bool) -> Optional[int]:
        """Claim one order+data slot pair; None when full or frozen.

        The cell write happens under the chunk's word lock, as does the
        freeze cut-off, so the freeze pass always sees an initialized entry
        for every handed-out slot.
        """
        with word_lock(self):
            idx = self._alloc_counter
            if idx > self.capacity:
                return None
            self._alloc_counter = idx + 1
            entry.data_index = -idx if is_tombstone else idx
            self.order[idx] = entry
            return idx

    def freeze_allocation(self) -> int:
        """Stop future allocations; return the exclusive bound of slots
        actually handed out. Idempotent."""
        with word_lock(self):
            if self._frozen_bound is None:
                self._frozen_bound = min(self._alloc_counter, self.capacity + 1)
                self._alloc_counter = self.capacity + 1
            return self._frozen_bound

    def allocated_bound(self) -> int:
        """Exclusive bound of initialized slots (freeze-aware)."""
        if self._frozen_bound is not None:
            return self._frozen_bound
        return min(self._alloc_counter, self.capacity + 1)

    def order_key(self, idx: int) -> tuple:
        """Total order of list positions: (key asc, version desc); END is +∞."""
        if idx == END:
            return (_INF, 0)
        e = self.order[idx]
        return (e.key, -logical_version(e.version))

    def __repr__(self) -> str:
        return f"Chunk([{self.min_key!r}, {self.range_end!r}), n={self._alloc_counter - 1}, frozen={self.frozen})"


_INF = float("inf")
_NEG_INF = float("-inf")
_entry_key = attrgetter("key")


def find_insertion_location(chunk: Chunk, key: Any, version: int) -> tuple[int, int]:
    """Binary-search the sorted prefix, then walk next links to the first
    entry >= (key, version) in (key asc, version desc) order. Returns the
    straddling (prev, next) order indices; prev may be the head sentinel
    (0) and next may be END. An equal (key, version) entry is always
    returned as next: that is the overwrite signal."""
    order = chunk.order
    prev = _prefix_search_before(chunk, key)
    nxt = order[prev].next
    while nxt != END:
        e = order[nxt]
        if e.key > key or (e.key == key and logical_version(e.version) <= version):
            break
        prev = nxt
        nxt = e.next
    return prev, nxt


def _prefix_search_before(chunk: Chunk, key: Any) -> int:
    """Greatest sorted-prefix index whose key is strictly less than key,
    or the head sentinel. Strictness keeps same-key version ordering to
    the walk."""
    return bisect_left(chunk.order, key, 1, chunk.sorted_prefix_len + 1, key=_entry_key) - 1


class InsertOutcome:
    """What add_to_linked_list did; rebalance and tests inspect these."""

    INSERTED = "inserted"
    OVERWROTE = "overwrote"
    ALREADY_LINKED = "already-linked"

    __slots__ = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __repr__(self) -> str:
        return f"InsertOutcome({self.kind})"


class KiwiMap:
    """Concurrent sorted map of int keys to int values.

    Threads must call register_thread() once before operating; the slot
    indexes the per-chunk PPA and the map PSA. put(key, TOMBSTONE)
    discards a key; put raises ValueError for a None value or a NaN key,
    before it changes anything. get returns None for absent keys.
    scan(lo, hi) is an atomic snapshot of the inclusive key range, sorted
    ascending.
    """

    def __init__(
        self,
        max_threads: int = 8,
        max_items: int = 4500,
        rebalance_policy: "RebalancePolicy | None" = None,
        bounds_enabled: bool = False,
        rng: Callable[[], float] = random.random,
    ) -> None:
        if max_threads < 1:
            raise ValueError("max_threads must be >= 1")
        if max_items < 2:
            raise ValueError("max_items must be >= 2")
        self.max_threads = max_threads
        self.max_items = max_items
        self.policy = rebalance_policy if rebalance_policy is not None else RebalancePolicy()
        self.bounds = BoundsCounters(max_threads, bounds_enabled)
        self._rng = rng
        self._gv = AtomicInt(1)
        self._psa: list[Optional[int]] = [None] * max_threads
        first = Chunk(_NEG_INF, _INF, max_items, max_threads)
        self._first: AtomicRef[Chunk] = AtomicRef(first)
        self._index: AtomicRef[tuple[tuple, tuple]] = AtomicRef(((_NEG_INF,), (first,)))
        self._tls = threading.local()
        self._registered = 0
        self._reg_lock = threading.Lock()
        self._pause_hook: Optional[Callable[[str], None]] = None

    # ---------------- thread registry ----------------

    def register_thread(self) -> int:
        if getattr(self._tls, "slot", None) is not None:
            raise RegistrationError("thread already registered")
        with self._reg_lock:
            if self._registered >= self.max_threads:
                raise RegistrationError(
                    f"registration capacity exceeded ({self.max_threads} slots)"
                )
            slot = self._registered
            self._registered += 1
        self._tls.slot = slot
        return slot

    def _require_slot(self) -> int:
        slot = getattr(self._tls, "slot", None)
        if slot is None:
            raise RegistrationError("calling thread is not registered")
        return slot

    def set_pause_hook(self, hook: Optional[Callable[[str], None]]) -> None:
        """Install a callback invoked at put's sensitive lifecycle points."""
        self._pause_hook = hook

    def _pause(self, point: str) -> None:
        hook = self._pause_hook
        if hook is not None:
            hook(point)

    # ---------------- chunk location ----------------

    def _index_floor(self, key: Any) -> Chunk:
        keys, chunks = self._index.get()
        i = bisect_right(keys, key) - 1
        return chunks[i]

    def find_chunk(self, key: Any) -> Chunk:
        """Live-or-freshly-retired chunk covering key. The index is only an
        accelerator; correctness comes from the next-walk (retired chunks
        forward their next pointer into the replacement list)."""
        cur = self._index_floor(key)
        nxt = cur.next.get()
        while nxt is not None and nxt.min_key <= key:
            cur = nxt
            nxt = cur.next.get()
        return cur

    # ---------------- helping ----------------

    def help_pending_puts(self, chunk: Chunk, lo: Any, hi: Any, help_version: int) -> list[OrderEntry]:
        """Give every relevant unversioned pending put a version and return
        all relevant versioned PPA entries for the caller to merge. The
        caller must fence before invoking. Frozen entries are skipped."""
        items: list[OrderEntry] = []
        order = chunk.order
        for idx in chunk.ppa:
            if idx is None:
                continue
            entry = order[idx]
            if entry is None:
                continue
            key = entry.key
            if key < lo or key > hi:
                continue
            ver = entry.version
            if ver == VERSION_NONE:
                entry.cas_version(VERSION_NONE, -help_version)
                ver = entry.version
            if ver is FROZEN:
                continue
            items.append(entry)
        return items

    # ---------------- operations ----------------

    def put(self, key: Any, value: Any) -> None:
        if value is None or key != key:
            raise ValueError(f"put({key!r}, {value!r}): None values and NaN keys are not storable")
        slot = self._require_slot()
        is_tomb = value is TOMBSTONE
        bounds = self.bounds
        while True:
            chunk = self.find_chunk(key)
            entry = OrderEntry(key)
            idx = chunk.alloc(entry, is_tomb)
            if idx is None:
                self._rebalance_chunk(chunk)
                continue
            if not is_tomb:
                chunk.data[idx] = value
            self._pause(POST_ALLOCATE)
            bounds.on_put_published(slot, is_tomb)
            chunk.ppa[slot] = idx
            store_fence()
            self._pause(POST_PUBLISH)
            if chunk.frozen and entry.cas_version(VERSION_NONE, FROZEN):
                # Sealed it ourselves from NONE: provably unseen, safe undo.
                bounds.on_put_undone(slot, is_tomb)
                chunk.ppa[slot] = None
                self._rebalance_chunk(chunk)
                continue
            self._pause(PRE_VERSION_CAS)
            entry.cas_version(VERSION_NONE, -self._gv.get())
            ver = entry.version
            if ver is FROZEN:
                bounds.on_put_undone(slot, is_tomb)
                chunk.ppa[slot] = None
                self._rebalance_chunk(chunk)
                continue
            if ver < 0:
                self._pause(PRE_LIST_CAS)
                self.add_to_linked_list(chunk, idx, slot)
                entry.cas_version(ver, -ver)
            # ver > 0: a rebalancer already inserted and committed it.
            chunk.ppa[slot] = None
            if check_rebalance(chunk, self.policy, self._rng):
                self._rebalance_chunk(chunk)
            return

    def get(self, key: Any) -> Any:
        self._require_slot()
        chunk = self.find_chunk(key)
        full_fence()
        help_version = self._gv.get()
        candidates = self.help_pending_puts(chunk, key, key, help_version)
        # Versions sort descending, so the first entry with this key is the
        # newest; equal-version duplicates cannot exist.
        nxt = find_insertion_location(chunk, key, _INF)[1]
        if nxt != END and chunk.order[nxt].key == key:
            candidates.append(chunk.order[nxt])
        best_rank = None
        best_di = 0
        for entry in candidates:
            di = entry.data_index  # read once; rank and payload must agree
            rank = (logical_version(entry.version), abs(di))
            if best_rank is None or rank > best_rank:
                best_rank, best_di = rank, di
        if best_rank is None or best_di < 0:
            return None
        return chunk.data[best_di]

    def scan(self, min_key: Any, max_key: Any) -> list[tuple[Any, Any]]:
        slot = self._require_slot()
        if min_key > max_key:
            raise ValueError("scan requires min_key <= max_key")
        # Publish a conservative version BEFORE the increment so rebalance
        # compaction can never drop versions this scan still needs.
        self._psa[slot] = self._gv.get()
        scan_version = self._gv.fetch_add(1)
        self._psa[slot] = scan_version
        try:
            out: list[tuple[Any, Any]] = []
            cursor = min_key
            done = False
            while not done:  # bounded: cursor advances one chunk range per pass
                chunk = self.find_chunk(cursor)
                full_fence()
                help_version = self._gv.get()
                ppa_items = self.help_pending_puts(chunk, cursor, max_key, help_version)
                out.extend(copy_range(chunk, cursor, max_key, scan_version, ppa_items))
                done = chunk.range_end == _INF or chunk.range_end > max_key
                if not done:
                    cursor = chunk.range_end
            return out
        finally:
            self._psa[slot] = None

    def items(self) -> list[tuple[Any, Any]]:
        """Snapshot of the whole map (a scan over the full key range)."""
        return self.scan(_NEG_INF, _INF)

    # ---------------- size bounds ----------------

    def size_lower_bound(self) -> int:
        return self.bounds.size_lower_bound()

    def size_upper_bound(self) -> int:
        return self.bounds.size_upper_bound()

    def size(self) -> Optional[int]:
        """Known size as an int, or None when concurrent churn hides it."""
        return self.bounds.size()

    def is_empty(self) -> Optional[bool]:
        """True/False when decidable from the bounds, else None."""
        return self.bounds.is_empty()

    # ---------------- linked-list insertion ----------------

    def add_to_linked_list(self, chunk: Chunk, idx: int, slot: int) -> InsertOutcome:
        """Insert a Pending/Committed entry into the chunk's list, or raise
        the dataIndex of an existing equal-(key, version) entry. The thread
        whose CAS physically lands runs the size-bound accounting.

        The same order index may be inserted concurrently by its owner and
        by rebalance helpers. entry.next is therefore only moved TOWARD the
        insertion point (closest candidate wins): every candidate sorts at
        or after the entry, nodes are never removed, and prev.next values
        never repeat, so a successful prev.next CAS implies entry.next
        holds exactly the candidate that was linked.
        """
        order = chunk.order
        entry = order[idx]
        key = entry.key
        version = logical_version(entry.version)
        bounds = self.bounds
        while True:
            prev_idx, next_idx = find_insertion_location(chunk, key, version)
            prev = order[prev_idx]
            if next_idx == idx:
                return InsertOutcome(InsertOutcome.ALREADY_LINKED)
            nxt = order[next_idx] if next_idx != END else None
            if nxt is not None and nxt.key == key and logical_version(nxt.version) == version:
                result = overwrite_data_index(nxt, entry.data_index)
                if result.performed:
                    # An unchanged prev.next proves the overwritten entry
                    # was the key's newest, so its old data says whether
                    # the key was present.
                    absent = result.old < 0 if prev.next == next_idx else None
                    bounds.update_count_after_overwrite(
                        slot, entry.data_index < 0, prev.key == key, absent
                    )
                return InsertOutcome(InsertOutcome.OVERWROTE)
            next_di_seen = nxt.data_index if (nxt is not None and nxt.key == key) else None
            self._advance_entry_next(chunk, entry, next_idx)
            if entry.next != next_idx:
                continue  # a competing inserter is closer; re-find
            if prev.cas_next(next_idx, idx):
                chunk.list_size.fetch_add(1)
                # The CAS proves nothing was linked between prev and next:
                # a greater next key means the key was absent; an older
                # version of it whose dataIndex is unchanged since it was
                # read exposes the previous newest value.
                if next_di_seen is None:
                    absent = True
                elif nxt.data_index == next_di_seen:
                    absent = next_di_seen < 0
                else:
                    absent = None
                bounds.update_count_after_insert(
                    slot, entry.data_index < 0, prev.key == key, absent
                )
                return InsertOutcome(InsertOutcome.INSERTED)

    @staticmethod
    def _advance_entry_next(chunk: Chunk, entry: OrderEntry, candidate: int) -> None:
        cand_key = chunk.order_key(candidate)
        while True:
            cur = entry.next
            if cur != END and chunk.order_key(cur) <= cand_key:
                return
            if entry.cas_next(cur, candidate):
                return

    # ---------------- rebalance glue ----------------

    def _min_active_scan_version(self) -> float:
        versions = [v for v in self._psa if v is not None]
        return min(versions) if versions else _INF

    def _rebalance_chunk(self, chunk: Chunk) -> bool:
        if chunk.replacement.get() is None:
            freeze_chunk(chunk)
            help_frozen_chunk_puts(self, chunk)
            new_chunks = copy_compact(
                chunk,
                self._min_active_scan_version(),
                max_items=self.max_items,
                max_threads=self.max_threads,
                fill_factor=self.policy.fill_factor,
            )
            return replace_chunks(self, chunk, new_chunks)
        self._finish_replacement(chunk)
        return False

    def _find_pred(self, chunk: Chunk) -> Optional[Chunk]:
        """Live-list predecessor of chunk, or None if already unreachable."""
        cur = self._first.get()
        if cur is chunk:
            return None
        while cur is not None:
            nxt = cur.next.get()
            if nxt is chunk:
                return cur
            if nxt is None or nxt.min_key > chunk.min_key:
                return None
            cur = nxt
        return None

    def _finish_replacement(self, old: Chunk) -> None:
        """Publish a decided replacement: splice, forward, index. Idempotent
        and callable by any thread, so a stalled winner never blocks puts."""
        new_chunks = old.replacement.get()
        if new_chunks is None:
            return
        first = new_chunks[0]
        if self._first.get() is old:
            self._first.compare_and_set(old, first)
        while True:
            pred = self._find_pred(old)
            if pred is None:
                break
            if pred.next.compare_and_set(old, first):
                break
        # Forward retired chunk into the new list for in-flight readers.
        if old.next.get() is not first:
            old.next.set(first)
        self._index_replace(old, new_chunks)

    def _index_replace(self, old: Chunk, new_chunks: tuple[Chunk, ...]) -> None:
        while True:
            snapshot = self._index.get()
            keys, chunks = snapshot
            mapping = dict(zip(keys, chunks))
            if mapping.get(old.min_key) is old:
                del mapping[old.min_key]
            for nc in new_chunks:
                # Birth stamps keep a late helper from clobbering an index
                # entry that a newer replacement already installed.
                existing = mapping.get(nc.min_key)
                if existing is None or existing.birth < nc.birth:
                    mapping[nc.min_key] = nc
            ordered = sorted(mapping.items())
            new_snapshot = (tuple(k for k, _ in ordered), tuple(c for _, c in ordered))
            if new_snapshot == snapshot:
                return
            if self._index.compare_and_set(snapshot, new_snapshot):
                return

    def force_rebalance(self, key: Any) -> bool:
        """Deterministically rebalance the chunk covering key. Test hook."""
        chunk = self.find_chunk(key)
        return self._rebalance_chunk(chunk)

    # ---------------- introspection (quiescent diagnostics) ----------------

    def chunks(self) -> list[Chunk]:
        """Live chunk list (quiescent use: invariant checks, tests)."""
        out = []
        cur: Optional[Chunk] = self._first.get()
        while cur is not None:
            nxt = cur.next.get()
            # A retired chunk forwards into its replacement (nxt.min_key
            # below its range_end): walk through it, but do not list it.
            if nxt is None or nxt.min_key >= cur.range_end:
                out.append(cur)
            cur = nxt
        return out

    def global_version(self) -> int:
        return self._gv.get()


# rebalance imports this module's names at its top, so its own come last.
from .rebalance import (  # noqa: E402
    RebalancePolicy,
    check_rebalance,
    copy_compact,
    copy_range,
    freeze_chunk,
    help_frozen_chunk_puts,
    replace_chunks,
)
