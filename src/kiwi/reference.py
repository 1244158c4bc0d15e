"""Coarse-lock sorted map: the scaling baseline and the known-good oracle.

Same operation surface as the concurrent map (register_thread, put with
tombstones, get, scan, size bounds when enabled) with one global lock, so
every recorded history it produces is linearizable by construction.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, bisect_right, insort
from typing import Any, Optional

from .core import TOMBSTONE


class LockedSortedMap:
    """Single-lock ordered map with the benchmark/fuzz interface.

    op_delay_s > 0 stretches each operation inside the critical section;
    the fuzz harness uses it to force overlapping intervals in known-good
    recorded histories.
    """

    def __init__(
        self,
        max_threads: int = 8,
        bounds_enabled: bool = True,
        op_delay_s: float = 0.0,
    ) -> None:
        self.max_threads = max_threads
        self.bounds_enabled = bounds_enabled
        self.op_delay_s = op_delay_s
        self._lock = threading.Lock()
        self._data: dict[Any, Any] = {}
        self._keys: list[Any] = []
        self._registered = 0
        self._reg_lock = threading.Lock()

    def register_thread(self) -> int:
        with self._reg_lock:
            slot = self._registered
            self._registered += 1
            return slot

    def _dally(self) -> None:
        if self.op_delay_s:
            time.sleep(self.op_delay_s)

    def put(self, key: Any, value: Any) -> None:
        if value is None or key != key:
            raise ValueError(f"put({key!r}, {value!r}): None values and NaN keys are not storable")
        with self._lock:
            self._dally()
            if value is TOMBSTONE:
                if key in self._data:
                    del self._data[key]
                    self._keys.pop(bisect_left(self._keys, key))
            else:
                if key not in self._data:
                    insort(self._keys, key)
                self._data[key] = value

    def get(self, key: Any) -> Any:
        with self._lock:
            self._dally()
            return self._data.get(key)

    def scan(self, min_key: Any, max_key: Any) -> list[tuple[Any, Any]]:
        if min_key > max_key:
            raise ValueError("scan requires min_key <= max_key")
        with self._lock:
            self._dally()
            lo = bisect_left(self._keys, min_key)
            hi = bisect_right(self._keys, max_key)
            return [(k, self._data[k]) for k in self._keys[lo:hi]]

    def items(self) -> list[tuple[Any, Any]]:
        with self._lock:
            return [(k, self._data[k]) for k in self._keys]

    def size(self) -> Optional[int]:
        with self._lock:
            return len(self._data)

    def is_empty(self) -> Optional[bool]:
        with self._lock:
            return not self._data

    def size_lower_bound(self) -> int:
        with self._lock:
            return len(self._data)

    def size_upper_bound(self) -> int:
        with self._lock:
            return len(self._data)
