"""Linearizable size bounds from conservative sharded counters.

One sharded counter pair for the whole map. A tombstone put decrements
the lower bound before it publishes (readers consider published pending
puts, so the decrement must come first); a value put symmetrically
increments the upper bound before publishing. The thread whose CAS
physically lands the item in a chunk's list settles the uncertainty:
when the list state proves the put did or did not change the key count,
the counters are corrected; when it cannot be proven, the conservative
move stands and the bounds stay valid, just looser.

Each cell is written only by its owning thread; sums read all cells and
are not atomic snapshots: the exported guarantees hold at quiescent
points and through the composed size()/is_empty() protocols.
"""

from __future__ import annotations

from typing import Any, Optional


class BoundsDisabledError(RuntimeError):
    """Size bounds were not enabled at map construction."""


class BoundsCounters:
    """Sharded lower/upper key-count bounds plus the put-lifecycle hooks."""

    __slots__ = ("enabled", "_lower", "_upper", "debug_events")

    def __init__(self, max_threads: int, enabled: bool, debug: bool = False) -> None:
        self.enabled = enabled
        self._lower = [0] * max_threads
        self._upper = [0] * max_threads
        self.debug_events: Optional[list[tuple]] = [] if debug else None

    # ---------------- put lifecycle (owner thread only) ----------------

    def on_put_published(self, slot: int, is_tombstone: bool) -> None:
        """Conservative move, strictly before the PPA publish."""
        if not self.enabled:
            return
        if is_tombstone:
            self._lower[slot] -= 1  # assume the key gets removed
            self._note(slot, "remove-published")
        else:
            self._upper[slot] += 1  # assume a new key gets added
            self._note(slot, "insert-published")

    def on_put_undone(self, slot: int, is_tombstone: bool) -> None:
        """Undo the conservative move after a frozen-from-NONE retry: the
        sealing CAS proves no other thread ever saw the item."""
        if not self.enabled:
            return
        if is_tombstone:
            self._lower[slot] += 1
            self._note(slot, "remove-undone")
        else:
            self._upper[slot] -= 1
            self._note(slot, "insert-undone")

    # ---------------- settlement (thread that won the list CAS) ----------------

    def update_count_after_overwrite(
        self,
        slot: int,
        *,
        performed: bool,
        put_is_tombstone: bool,
        key: Any,
        prev_key: Any,
        prev_next_unchanged: bool,
        old_data_was_tombstone: bool,
    ) -> None:
        """Settle after raising an equal-(key, version) entry's dataIndex.

        prev_key == key proves a higher version of the key precedes the
        item in the list forever, so the put changed nothing. Otherwise a
        validated prev.next witness proves the overwritten entry was the
        key's newest, and its old data decides presence: tombstone meant
        absent (a tombstone put removed nothing; a value put certainly
        added), data meant present (a tombstone put certainly removed; a
        value put added nothing).
        """
        if not self.enabled or not performed:
            return
        if prev_key == key:
            if put_is_tombstone:
                self._lower[slot] += 1  # certainly not actually removed
                self._note(slot, "overwrite-shadowed-undo")
            else:
                self._upper[slot] -= 1  # certainly not actually added
                self._note(slot, "overwrite-shadowed-undo")
            return
        if not prev_next_unchanged:
            return  # can't distinguish; tolerate the loose bound
        if old_data_was_tombstone:
            self._lower[slot] += 1  # tombstone: removed nothing / value: certainly added
            self._note(slot, "overwrite-absent-settle")
        else:
            self._upper[slot] -= 1  # tombstone: certainly removed / value: added nothing
            self._note(slot, "overwrite-present-settle")

    def update_count_after_insert(
        self,
        slot: int,
        *,
        put_is_tombstone: bool,
        key: Any,
        prev_key: Any,
        next_key_greater: bool,
        next_data_unchanged: bool,
        next_data_was_tombstone: bool,
    ) -> None:
        """Settle after linking a new entry between prev and next.

        The successful CAS guarantees nothing was inserted between them,
        so: a greater next key proves the key was absent; an equal next
        key with a validated dataIndex witness exposes the previous
        newest value (tombstone = absent, data = present).
        """
        if not self.enabled:
            return
        if prev_key == key:
            if put_is_tombstone:
                self._lower[slot] += 1  # higher version precedes: removed nothing
            else:
                self._upper[slot] -= 1  # higher version precedes: added nothing
            self._note(slot, "insert-shadowed-undo")
            return
        if next_key_greater:
            previously_absent = True
        elif next_data_unchanged:
            previously_absent = next_data_was_tombstone
        else:
            return  # witness invalid; tolerate the loose bound
        if previously_absent:
            self._lower[slot] += 1  # tombstone: removed nothing / value: certainly added
            self._note(slot, "insert-absent-settle")
        else:
            self._upper[slot] -= 1  # tombstone: certainly removed / value: added nothing
            self._note(slot, "insert-present-settle")

    # ---------------- reads ----------------

    def size_lower_bound(self) -> int:
        self._require_enabled()
        return sum(self._lower)

    def size_upper_bound(self) -> int:
        self._require_enabled()
        return sum(self._upper)

    def is_empty(self) -> Optional[bool]:
        """False once the lower bound shows a key, True once the upper
        bound shows none; None when churn leaves it undecidable."""
        if self.size_lower_bound() >= 1:
            return False
        if self.size_upper_bound() <= 0:
            return True
        return None

    def size(self) -> Optional[int]:
        """Two-read composition: with unit-step size changes, a lower
        read that meets or passes an upper read pins the size at some
        instant between them. None when neither read pair closes."""
        lower1 = self.size_lower_bound()
        upper = self.size_upper_bound()
        if lower1 >= upper:
            return upper
        lower2 = self.size_lower_bound()
        if lower2 >= upper:
            return lower2
        return None

    def _require_enabled(self) -> None:
        if not self.enabled:
            raise BoundsDisabledError("size bounds are disabled for this map")

    def _note(self, slot: int, event: str) -> None:
        if self.debug_events is not None:
            self.debug_events.append((slot, event))
