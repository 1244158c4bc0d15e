"""Seeded corpus of labelled concurrent histories for `check_corpus`.

A linearizable history is built by construction: operations run one by
one against a dict model, each at its own linearization point (10 ticks
apart), and each interval is stretched around that point by up to
`SPREAD` ticks on either side, so intervals of different threads overlap
while every thread's own operations stay sequential. Its corrupted copy
changes one `get` result to a value no put ever writes, so no order of
the copy can linearize.
"""

from __future__ import annotations

import random

from kiwi.history import GET, PUT, SCAN, SIZE, History, OpRecord

HISTORIES = 600  # linearizable ones; each also gets a corrupted copy
THREADS = (3, 4)
OPS = (28, 36)  # inclusive range of operations per history
KEYS = 5
SPREAD = 40
NEVER_WRITTEN = -1  # put values are >= 0


def linearizable_history(rng: random.Random) -> History:
    threads = rng.choice(THREADS)
    n = rng.randint(*OPS)
    owner = [rng.randrange(threads) for _ in range(n)]
    point = [10 * (i + 1) for i in range(n)]
    next_point: list = [None] * n  # linearization point of the owner's next op
    upcoming: dict[int, int] = {}
    for i in range(n - 1, -1, -1):
        next_point[i] = upcoming.get(owner[i])
        upcoming[owner[i]] = point[i]

    model: dict[int, int] = {}
    last_response: dict[int, int] = {}
    records = []
    for i in range(n):
        roll = rng.random()
        key = rng.randrange(KEYS)
        if roll < 0.35:
            value = rng.randrange(1000)
            model[key] = value
            kind, args, result = PUT, (key, value), None
        elif roll < 0.5:
            model.pop(key, None)
            kind, args, result = PUT, (key, None), None
        elif roll < 0.9:
            kind, args, result = GET, (key,), model.get(key)
        elif roll < 0.97:
            hi = key + rng.randrange(3)
            kind, args = SCAN, (key, hi)
            result = tuple(sorted((k, v) for k, v in model.items() if key <= k <= hi))
        else:
            kind, args, result = SIZE, (), len(model)
        t = owner[i]
        invoke = max(last_response.get(t, 0), point[i] - rng.randint(1, SPREAD))
        response = point[i] + rng.randint(1, SPREAD)
        if next_point[i] is not None:
            response = min(response, next_point[i] - 1)
        last_response[t] = response
        records.append(OpRecord(t, kind, args, result, invoke, response))
    return History(records=records)


def corrupted_copy(history: History, rng: random.Random) -> History:
    records = list(history.records)
    i = rng.choice([j for j, rec in enumerate(records) if rec.kind == GET])
    rec = records[i]
    records[i] = OpRecord(rec.thread_id, rec.kind, rec.args, NEVER_WRITTEN, rec.invoke_ts, rec.response_ts)
    return History(records=records)


def build(seed: int) -> list[tuple[History, bool]]:
    """(history, is_linearizable) pairs in a seeded order."""
    rng = random.Random(seed)
    corpus: list[tuple[History, bool]] = []
    while len(corpus) < 2 * HISTORIES:
        history = linearizable_history(rng)
        if not history.has_overlap() or not any(rec.kind == GET for rec in history.records):
            continue
        index = len(corpus) // 2
        history.meta = {"seed": seed, "index": index, "linearizable": True}
        copy = corrupted_copy(history, rng)
        copy.meta = {"seed": seed, "index": index, "linearizable": False}
        corpus += [(history, True), (copy, False)]
    rng.shuffle(corpus)
    return corpus
