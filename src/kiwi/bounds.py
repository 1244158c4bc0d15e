"""Linearizable size bounds from two conservative atomic counters.

One counter per bound for the whole map. A tombstone put decrements
the lower bound before it publishes (readers consider published pending
puts, so the decrement must come first); a value put symmetrically
increments the upper bound before publishing. The thread whose CAS
physically lands the item in a chunk's list settles the uncertainty:
when the list state proves the put did or did not change the key count,
the counters are corrected; when it cannot be proven, the conservative
move stands and the bounds stay valid, just looser.

Every move is one fetch_add and every bound read is one atomic read,
so each read is linearizable on its own and lower <= size <= upper
holds at every instant, not only at quiescence. size() and is_empty()
compose two or three such reads.
"""

from __future__ import annotations

from typing import Optional

from .atomics import AtomicInt


class BoundsDisabledError(RuntimeError):
    """Size bounds were not enabled at map construction."""


class BoundsCounters:
    """Lower/upper key-count bounds plus the put-lifecycle hooks."""

    __slots__ = ("enabled", "_lower", "_upper")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._lower = AtomicInt()
        self._upper = AtomicInt()

    # ---------------- put lifecycle (the putting thread) ----------------

    def on_put_published(self, is_tombstone: bool) -> None:
        """Conservative move, strictly before the PPA publish."""
        if not self.enabled:
            return
        if is_tombstone:
            self._lower.fetch_add(-1)  # assume the key gets removed
        else:
            self._upper.fetch_add(1)  # assume a new key gets added

    def on_put_undone(self, is_tombstone: bool) -> None:
        """Undo the conservative move after a frozen-from-NONE retry: the
        sealing CAS proves no other thread ever saw the item."""
        if not self.enabled:
            return
        if is_tombstone:
            self._lower.fetch_add(1)
        else:
            self._upper.fetch_add(-1)

    # ---------------- settlement (thread that won the list CAS) ----------------

    def update_count_after_insert(
        self, put_is_tombstone: bool, shadowed: bool, absent: Optional[bool]
    ) -> None:
        """Settle the conservative move once the list has spoken.

        shadowed: a higher version of the key precedes the item forever,
        so the put changed nothing and its own move is undone, which is
        the absent case for a tombstone and the present case for a value.
        absent: whether the key was absent
        just before the put, or None when the witness failed and the
        conservative move must stand. An absent key means a tombstone put
        removed nothing and a value put certainly added one, so the lower
        bound rises; a present key means a tombstone put certainly removed
        one and a value put added nothing, so the upper bound falls.
        """
        if not self.enabled:
            return
        if shadowed:
            absent = put_is_tombstone
        elif absent is None:
            return
        if absent:
            self._lower.fetch_add(1)
        else:
            self._upper.fetch_add(-1)

    # Same rule under the overwrite name, which perfbench traces as its own span.
    update_count_after_overwrite = update_count_after_insert

    # ---------------- reads ----------------

    def size_lower_bound(self) -> int:
        self._require_enabled()
        return self._lower.get()

    def size_upper_bound(self) -> int:
        self._require_enabled()
        return self._upper.get()

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
