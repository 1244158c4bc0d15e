"""Behaviour digests: three seeded single-thread runs of a small-chunk map
hash to fixed constants, in two parts. The results digest covers every
get and scan result and the final items(): what a user can see, which
no change short of a bug may move. The shapes digest covers the chunk
shapes at checkpoints and at the end. A change meant to keep behaviour
(a faster compaction, a cheaper lock section) must leave both as they
are; a change meant to alter chunk shapes updates the shapes constants
and says why, and leaves the results constants alone."""

import hashlib
import random

import pytest

from kiwi import TOMBSTONE, KiwiMap
from kiwi.core import KEY_MAX

OPS = 30_000
KEY_SPACE = 3_000
CHECKPOINT = 2_000

RESULTS_DIGESTS = {
    1: "bfcd6e06e8e09e92e16b9f0a05fd922c145de1241f18e199e3c8cb06c50d977d",
    2: "5ef5494b4cfd7a108bf07ca4a148b3d4a579f9f070ce788c636437fb6e643ef3",
    3: "f047b5bd2edaf2f3282522048d536dd8150069699c24be05067c009f657f4d86",
}

# A delete of a key whose chunk holds no value of it allocates no slot,
# so these runs allocate fewer slots and split fewer chunks.
SHAPES_DIGESTS = {
    1: "d851157a519db7d7f9fda145a62d8eec62090e2be9c5fc4e1bf8f1471828762e",
    2: "480b271e6ab22f507fb32c0225796afe6332a9f79bad8bb831cf8d7ae0fc8f74",
    3: "9082d3acff291e10a055feb952cfceafd1185b09c51d0053379f81d183f520ea",
}


def chunk_shapes(kiwi):
    keys, chunks = kiwi._index
    return [
        (lo, hi, c.list_size.get(), c.sorted_prefix_len, c.allocated_bound())
        for c, lo, hi in zip(chunks, keys, keys[1:] + (KEY_MAX,))
    ]


def behaviour_digests(seed):
    """The (results, shapes) digests of one seeded run. max_items=64
    keeps chunks small, so a run compacts hundreds of times."""
    rng = random.Random(seed)
    kiwi = KiwiMap(max_threads=2, max_items=64, rng=random.Random(seed).random)
    kiwi.register_thread()
    results = hashlib.sha256()
    shapes = hashlib.sha256()
    try:
        for i in range(OPS):
            key = rng.randrange(KEY_SPACE)
            op = rng.random()
            if op < 0.5:
                kiwi.put(key, rng.randrange(1 << 20))
            elif op < 0.7:
                kiwi.put(key, TOMBSTONE)
            elif op < 0.9:
                results.update(repr(kiwi.get(key)).encode())
            else:
                results.update(repr(kiwi.scan(key, key + rng.randrange(200))).encode())
            if i % CHECKPOINT == 0:
                shapes.update(repr(chunk_shapes(kiwi)).encode())
        shapes.update(repr(chunk_shapes(kiwi)).encode())
        results.update(repr(kiwi.items()).encode())
    finally:
        kiwi.unregister_thread()
    return results.hexdigest(), shapes.hexdigest()


@pytest.fixture(scope="module")
def digests():
    return {seed: behaviour_digests(seed) for seed in sorted(RESULTS_DIGESTS)}


@pytest.mark.parametrize("seed", sorted(RESULTS_DIGESTS))
def test_behaviour_digest_is_unchanged(seed, digests):
    """The results digest: gets, scans and the final items()."""
    assert digests[seed][0] == RESULTS_DIGESTS[seed]


@pytest.mark.parametrize("seed", sorted(SHAPES_DIGESTS))
def test_chunk_shapes_digest_is_unchanged(seed, digests):
    assert digests[seed][1] == SHAPES_DIGESTS[seed]
