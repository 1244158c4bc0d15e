"""The sorted-prefix search that starts every get, put and scan, checked
against a linear oracle on hand-built and rebalanced chunks."""

import random

import pytest

from kiwi import KiwiMap, TOMBSTONE
from kiwi.chunk import _prefix_search_before

from helpers import force_rebalance, raw_chunk


def oracle(chunk, key):
    n = chunk.sorted_prefix_len
    return max([0] + [i for i in range(1, n + 1) if chunk.order[i].key < key])


def probes(keys):
    out = set(keys)
    for k in keys:
        out.update((k - 1, k + 1, k - 0.5, k + 0.5))
    if keys:
        out.update((min(keys) - 10, max(keys) + 10))
    return sorted(out) + [float("-inf"), float("inf")]


def listed_items(rng, n_keys):
    """(key asc, version desc) items with 1-3 versions per key."""
    keys = sorted(rng.sample(range(0, 4 * n_keys + 4, 2), n_keys))
    items = []
    for k in keys:
        versions = sorted(rng.sample(range(1, 10), rng.randint(1, 3)), reverse=True)
        for v in versions:
            items.append((k, v, TOMBSTONE if rng.random() < 0.2 else k * 10 + v))
    return keys, items


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_keys", [0, 1, 2, 7, 40])
def test_prefix_search_matches_oracle(seed, n_keys):
    rng = random.Random(seed)
    keys, items = listed_items(rng, n_keys)
    chunk, _ = raw_chunk(items)
    n = len(items)
    # Empty prefix, full prefix, and prefixes trimmed shorter than the list.
    for prefix_len in sorted({0, n, n // 2, max(n - 1, 0), min(1, n)}):
        chunk.sorted_prefix_len = prefix_len
        for k in probes(keys):
            assert _prefix_search_before(chunk, k) == oracle(chunk, k), (prefix_len, k)


def test_prefix_search_matches_oracle_after_rebalance():
    m = KiwiMap(max_threads=2, max_items=16)
    m.register_thread()
    rng = random.Random(7)
    keys = list(range(0, 200, 3))
    for _ in range(3):
        for k in rng.sample(keys, len(keys)):
            m.put(k, k)
    for k in keys:
        force_rebalance(m, k)
    chunks = m.chunks()
    assert any(c.sorted_prefix_len > 1 for c in chunks)
    for chunk in chunks:
        for k in probes(keys):
            assert _prefix_search_before(chunk, k) == oracle(chunk, k)
