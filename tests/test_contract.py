"""The sequential contract as a property: KiwiMap, on chunks small
enough to rebalance within a few steps, against the coarse-lock
LockedSortedMap under random sequences of put, delete, get and scan, one
state machine per key type: ints, strs, bytes, floats with the
infinities and both zeros, and bools mixed with the ints they equal.
Input either map refuses (strictly reversed scan bounds, a None value, a
None or (nan,) key, an unhashable key) raises the same exception class
from both, and re-registering the thread keeps both maps' contents.
After every step both maps hold the same items, the size bounds, size()
and is_empty() are exact and the map's structural invariants hold. Hypothesis shrinks a failing
sequence to a short one. The profile is derandomized, so every run tries
the same examples."""

import math

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

from kiwi import TOMBSTONE, KiwiMap, LockedSortedMap, RegistrationError  # noqa: E402

from helpers import assert_map_invariants  # noqa: E402

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=60, stateful_step_count=30)

KEYS = {
    "int": st.integers(-6, 6),
    "str": st.text(alphabet="abc", max_size=3),
    "bytes": st.binary(max_size=2),
    "float": st.one_of(st.sampled_from((-math.inf, -0.0, 0.0, math.inf)), st.floats(-4, 4, allow_nan=False)),
    "bool-and-int": st.one_of(st.booleans(), st.integers(-2, 3)),
}


def raised(call, *args):
    """The class of the exception call(*args) raises, or None."""
    try:
        call(*args)
    except Exception as exc:
        return type(exc)
    return None


def contract_machine(keys):
    class Contract(RuleBasedStateMachine):
        @initialize(max_items=st.integers(2, 8))
        def build(self, max_items):
            self.kiwi = KiwiMap(max_threads=1, max_items=max_items, bounds_enabled=True)
            self.locked = LockedSortedMap(max_threads=1, bounds_enabled=True)
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

        @rule(ends=st.lists(keys, min_size=2, max_size=2, unique=True).map(sorted))
        def reversed_scan(self, ends):
            lo, hi = ends
            assert raised(self.kiwi.scan, hi, lo) is raised(self.locked.scan, hi, lo) is ValueError

        @rule(key=keys, refused=st.sampled_from(("None value", "None key", "NaN key", "unhashable key")))
        def refused_put(self, key, refused):
            args = {
                "None value": (key, None),
                "None key": (None, 1),
                "NaN key": ((math.nan,), 1),
                "unhashable key": ([key], 1),
            }[refused]
            assert raised(self.kiwi.put, *args) is raised(self.locked.put, *args) is not None
            if refused == "unhashable key":
                assert raised(self.kiwi.get, [key]) is raised(self.locked.get, [key]) is not None

        @rule()
        def reregister(self):
            for target in (self.kiwi, self.locked):
                before = target.items()
                target.unregister_thread()
                target.register_thread()
                assert target.items() == before
                assert raised(target.register_thread) is RegistrationError

        @invariant()
        def same_items_and_exact_bounds(self):
            items = self.kiwi.items()
            assert items == self.locked.items()
            assert self.kiwi.size_lower_bound() == self.kiwi.size_upper_bound() == len(items)
            for target in (self.kiwi, self.locked):
                assert target.size() == len(items)
                assert target.is_empty() == (not items)
            assert_map_invariants(self.kiwi)

    return Contract


@pytest.mark.parametrize("key_type", sorted(KEYS))
def test_kiwi_map_keeps_the_sequential_contract(key_type):
    run_state_machine_as_test(contract_machine(KEYS[key_type]), settings=PROFILE)
