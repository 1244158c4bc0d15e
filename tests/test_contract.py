"""The sequential contract as a property: KiwiMap, on chunks small
enough to rebalance within a few steps, against the coarse-lock
LockedSortedMap under random sequences of put, delete, get and scan, one
state machine per key type. After every step both maps hold the same
items and the size bounds are exact. Hypothesis shrinks a failing
sequence to a short one. The profile is derandomized, so every run tries
the same examples."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from kiwi import TOMBSTONE, KiwiMap, LockedSortedMap  # noqa: E402

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60, stateful_step_count=30)

KEYS = {
    "int": st.integers(-6, 6),
    "str": st.text(alphabet="abc", max_size=3),
}


def contract_machine(keys):
    class Contract(RuleBasedStateMachine):
        @initialize(max_items=st.integers(2, 8))
        def build(self, max_items):
            self.kiwi = KiwiMap(max_threads=1, max_items=max_items, bounds_enabled=True)
            self.locked = LockedSortedMap(max_threads=1)
            self.kiwi.register_thread()
            self.locked.register_thread()

        @rule(key=keys, value=st.integers(0, 9))
        def put(self, key, value):
            self.kiwi.put(key, value)
            self.locked.put(key, value)

        @rule(key=keys)
        def delete(self, key):
            self.kiwi.put(key, TOMBSTONE)
            self.locked.put(key, TOMBSTONE)

        @rule(key=keys)
        def get(self, key):
            assert self.kiwi.get(key) == self.locked.get(key)

        @rule(ends=st.lists(keys, min_size=2, max_size=2).map(sorted))
        def scan(self, ends):
            assert self.kiwi.scan(*ends) == self.locked.scan(*ends)

        @invariant()
        def same_items_and_exact_bounds(self):
            items = self.kiwi.items()
            assert items == self.locked.items()
            assert self.kiwi.size_lower_bound() == self.kiwi.size_upper_bound() == len(items)

    return Contract


@pytest.mark.parametrize("key_type", sorted(KEYS))
def test_kiwi_map_keeps_the_sequential_contract(key_type):
    run_state_machine_as_test(contract_machine(KEYS[key_type]), settings=PROFILE)
