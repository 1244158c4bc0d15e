"""The checker's search: verdicts against brute force on small random
histories, the labelled benchmark corpus, histories longer than the
recursion limit, and no cyclic garbage left behind by a check."""

import gc
import os
import random
import sys

from kiwi import (
    LINEARIZABLE,
    NOT_LINEARIZABLE,
    History,
    OpRecord,
    check_linearizable,
    oracle_apply,
    save_history,
)
from kiwi.cli import main
from kiwi.history import GET, IS_EMPTY, PUT, SCAN, SIZE
from helpers import brute_force_linearizations, oracle_replay

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import corpus  # noqa: E402

NEVER_WRITTEN = -1  # sequential_puts writes only values >= 0


def replays(order):
    model = {}
    for op in order:
        ok, model = oracle_apply(model, op)
        if not ok:
            return False
    return True


def assert_valid_linearization(history, order):
    assert sorted(map(id, order)) == sorted(map(id, history.records))
    oracle_replay(order)  # raises if some recorded result does not hold
    last_invoke = {}
    for i, a in enumerate(order):
        assert a.invoke_ts > last_invoke.get(a.thread_id, -1), "thread order broken"
        last_invoke[a.thread_id] = a.invoke_ts
        for b in order[i + 1:]:
            assert not b.response_ts < a.invoke_ts, "real-time order broken"


# ---------------- differential test against brute force ----------------


def random_small_history(rng):
    """At most 7 ops on 1-3 threads and 1-3 keys, all five op kinds, with
    results drawn at random (so often wrong) and small timestamps (so
    invocation times often tie across threads)."""
    threads = rng.randint(1, 3)
    keys = rng.randint(1, 3)
    values = (None, 1, 2)
    clocks = [rng.randrange(3) for _ in range(threads)]
    records = []
    for _ in range(rng.randint(1, 7)):
        thread = rng.randrange(threads)
        invoke = clocks[thread] + rng.randrange(3)
        response = invoke + 1 + rng.randrange(4)
        clocks[thread] = response + rng.randrange(2)
        key = rng.randrange(keys)
        roll = rng.random()
        if roll < 0.4:
            kind, args, result = PUT, (key, rng.choice(values)), None
        elif roll < 0.7:
            kind, args, result = GET, (key,), rng.choice(values)
        elif roll < 0.85:
            hi = key + rng.randrange(2)
            pairs = [(k, rng.choice(values[1:])) for k in range(key, hi + 1) if rng.random() < 0.5]
            kind, args, result = SCAN, (key, hi), tuple(pairs)
        elif roll < 0.93:
            kind, args, result = SIZE, (), rng.choice((None, 0, 1, 2))
        else:
            kind, args, result = IS_EMPTY, (), rng.choice((None, True, False))
        records.append(OpRecord(thread, kind, args, result, invoke, response))
    rng.shuffle(records)
    return History(records=records)


def test_verdicts_match_brute_force_on_small_histories():
    rng = random.Random(8)
    verdicts = {LINEARIZABLE: 0, NOT_LINEARIZABLE: 0}
    ties = 0
    for _ in range(2500):
        history = random_small_history(rng)
        invokes = [r.invoke_ts for r in history.records]
        ties += len(set(invokes)) < len(invokes)
        expected = any(replays(order) for order in brute_force_linearizations(history))
        result = check_linearizable(history)
        assert result.status == (LINEARIZABLE if expected else NOT_LINEARIZABLE), history.records
        verdicts[result.status] += 1
        if result.ok:
            assert_valid_linearization(history, result.linearization)
        else:
            oracle_replay(result.witness)  # the witness is a serializable prefix
    assert min(verdicts.values()) > 400, verdicts
    assert ties > 400


# ---------------- the labelled benchmark corpus ----------------


# Nodes the search spends on corpus.build(1); a search that tries heads in
# another order, or prunes differently, moves it.
CORPUS_1_NODES = 58_337


def test_corpus_verdicts_match_labels_and_nodes_repeat():
    nodes = []
    for _ in range(2):
        run = []
        for history, linearizable in corpus.build(1):
            result = check_linearizable(history)
            assert result.status == (LINEARIZABLE if linearizable else NOT_LINEARIZABLE), history.meta
            run.append(result.nodes_used)
        nodes.append(run)
    assert nodes[0] == nodes[1]
    assert sum(nodes[0]) == CORPUS_1_NODES


# ---------------- long histories ----------------


def sequential_puts(n):
    """One thread, n back-to-back puts over 7 keys."""
    return History(records=[OpRecord(0, PUT, (i % 7, i), None, 10 * i, 10 * i + 5) for i in range(n)])


def with_unwritten_last_read(history):
    """A copy whose last op is a get of a value no put ever wrote."""
    *records, last = history.records
    return History(records=records + [OpRecord(0, GET, last.args[:1], NEVER_WRITTEN, last.invoke_ts, last.response_ts)])


def test_history_longer_than_the_recursion_limit_is_decided():
    history = sequential_puts(1500)
    assert len(history.records) > sys.getrecursionlimit()
    result = check_linearizable(history)
    assert result.status == LINEARIZABLE
    assert result.linearization == history.records

    result = check_linearizable(with_unwritten_last_read(history))
    assert result.status == NOT_LINEARIZABLE
    assert result.witness


def test_cli_checks_a_long_history(tmp_path, capsys):
    good = str(tmp_path / "good.jsonl")
    bad = str(tmp_path / "bad.jsonl")
    history = sequential_puts(1500)
    save_history(history, good)
    save_history(with_unwritten_last_read(history), bad)
    assert main(["check", "--in", good]) == 0
    assert main(["check", "--in", bad]) == 1
    assert "NOT LINEARIZABLE" in capsys.readouterr().out


# ---------------- garbage ----------------


def test_check_leaves_no_cyclic_garbage():
    built = corpus.build(1)
    good = next(h for h, linearizable in built if linearizable)
    corrupted = next(h for h, linearizable in built if not linearizable)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for history in (good, corrupted):
            check_linearizable(history)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
