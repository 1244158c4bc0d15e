"""Behaviour digest: three seeded single-thread runs of a small-chunk map
hash to fixed constants. The hash covers the chunk shapes at checkpoints
and at the end, every get and scan result, and the final items(). A
change meant to keep behaviour (a faster compaction, a cheaper lock
section) must leave every digest as it is; a change meant to alter chunk
shapes or results must update the constants and say why."""

import hashlib
import random

import pytest

from kiwi import TOMBSTONE, KiwiMap

OPS = 30_000
KEY_SPACE = 3_000
CHECKPOINT = 2_000

DIGESTS = {
    1: "5e45436a4e85417658f712259f08cede780ec60665507448e59d59a58fb70add",
    2: "b4cdfc293007b20d76b3a415ea0f67134912928ae4ad931f6b2ae66b5814e7bc",
    3: "40e16984d8df126edbb4f5efbd5f1c856b9fba1030936e74893cfb9dd79723f1",
}


def chunk_shapes(kiwi):
    return [
        (c.min_key, c.range_end, c.list_size.get(), c.sorted_prefix_len, c.allocated_bound())
        for c in kiwi.chunks()
    ]


def behaviour_digest(seed):
    """max_items=64 keeps chunks small, so a run compacts hundreds of times."""
    rng = random.Random(seed)
    kiwi = KiwiMap(max_threads=2, max_items=64, rng=random.Random(seed).random)
    kiwi.register_thread()
    digest = hashlib.sha256()
    try:
        for i in range(OPS):
            key = rng.randrange(KEY_SPACE)
            op = rng.random()
            if op < 0.5:
                kiwi.put(key, rng.randrange(1 << 20))
            elif op < 0.7:
                kiwi.put(key, TOMBSTONE)
            elif op < 0.9:
                digest.update(repr(kiwi.get(key)).encode())
            else:
                digest.update(repr(kiwi.scan(key, key + rng.randrange(200))).encode())
            if i % CHECKPOINT == 0:
                digest.update(repr(chunk_shapes(kiwi)).encode())
        digest.update(repr(chunk_shapes(kiwi)).encode())
        digest.update(repr(kiwi.items()).encode())
    finally:
        kiwi.unregister_thread()
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_behaviour_digest_is_unchanged(seed):
    assert behaviour_digest(seed) == DIGESTS[seed]
