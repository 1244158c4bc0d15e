"""Checker validity: the sequential oracle, acceptance of known-good
histories, rejection of a curated non-linearizable corpus (including
histories shaped like the visibility bugs the fuzzing originally caught),
and the put-only final-state reduction against brute force."""

import random

import pytest

from kiwi import (
    EXHAUSTED,
    LINEARIZABLE,
    NOT_LINEARIZABLE,
    History,
    OpRecord,
    check_linearizable,
    oracle_apply,
    validate_put_only_final_state,
)
from helpers import brute_force_linearizations, oracle_replay


def rec(thread, kind, args, result, invoke, response):
    return OpRecord(thread, kind, tuple(args), result, invoke, response)


def hist(*records):
    return History(records=list(records), meta={})


# ---------------- oracle ----------------

def test_oracle_put_into_empty():
    ok, state = oracle_apply({}, rec(0, "put", (1, 7), None, 0, 1))
    assert ok and state == {1: 7}


def test_oracle_tombstone_removes():
    ok, state = oracle_apply({1: 7}, rec(0, "put", (1, None), None, 0, 1))
    assert ok and state == {}


def test_oracle_get_checks_result():
    ok, _ = oracle_apply({1: 7}, rec(0, "get", (1,), 7, 0, 1))
    assert ok
    ok, _ = oracle_apply({1: 7}, rec(0, "get", (1,), 8, 0, 1))
    assert not ok


def test_oracle_scan_is_sorted_range_restriction():
    model = {1: 10, 3: 30, 7: 70}
    ok, _ = oracle_apply(model, rec(0, "scan", (0, 3), ((1, 10), (3, 30)), 0, 1))
    assert ok
    ok, _ = oracle_apply(model, rec(0, "scan", (0, 3), ((1, 10),), 0, 1))
    assert not ok


def test_oracle_size_and_is_empty():
    ok, _ = oracle_apply({1: 1, 2: 2}, rec(0, "size", (), 2, 0, 1))
    assert ok
    ok, _ = oracle_apply({1: 1}, rec(0, "size", (), 0, 0, 1))
    assert not ok
    ok, _ = oracle_apply({}, rec(0, "is_empty", (), True, 0, 1))
    assert ok
    ok, _ = oracle_apply({1: 1}, rec(0, "is_empty", (), True, 0, 1))
    assert not ok
    # undecided answers assert nothing
    ok, _ = oracle_apply({1: 1}, rec(0, "size", (), None, 0, 1))
    assert ok


def test_oracle_refuses_what_it_cannot_apply():
    with pytest.raises(ValueError, match="unknown op kind"):
        oracle_apply({}, rec(0, "frobnicate", (), None, 0, 1))
    with pytest.raises(ValueError, match="does not serialize"):
        oracle_replay([rec(0, "put", (1, 10), None, 0, 1), rec(0, "get", (1,), 11, 2, 3)])


def test_oracle_replay_reaches_final_state():
    final = oracle_replay(
        [
            rec(0, "put", (1, 10), None, 0, 1),
            rec(0, "put", (2, 20), None, 2, 3),
            rec(0, "put", (1, None), None, 4, 5),
        ]
    )
    assert final == {2: 20}


# ---------------- acceptance ----------------

def test_sequential_consistent_history_accepted():
    result = check_linearizable(
        hist(
            rec(0, "put", (1, 5), None, 0, 10),
            rec(0, "get", (1,), 5, 20, 30),
            rec(0, "scan", (0, 9), ((1, 5),), 40, 50),
        )
    )
    assert result.status == LINEARIZABLE
    assert [r.kind for r in result.linearization] == ["put", "get", "scan"]


def test_overlapping_put_get_both_orders_accepted():
    # get overlaps the put; absent and present are both legal
    for observed in (None, 5):
        result = check_linearizable(
            hist(
                rec(0, "put", (1, 5), None, 0, 100),
                rec(1, "get", (1,), observed, 10, 90),
            )
        )
        assert result.status == LINEARIZABLE, observed


def test_decision_ignores_record_order():
    records = [
        rec(0, "put", (1, 5), None, 0, 10),
        rec(1, "get", (1,), 5, 20, 30),
        rec(0, "put", (1, 6), None, 40, 50),
        rec(1, "get", (1,), 6, 60, 70),
    ]
    rng = random.Random(3)
    for _ in range(6):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert check_linearizable(History(records=shuffled)).status == LINEARIZABLE


# ---------------- rejection corpus ----------------

def bad_histories():
    """Hand-built non-linearizable histories. Timestamps are integers;
    only their order matters."""
    corpus = {}
    # stale read after a completed write
    corpus["stale-read-after-write"] = hist(
        rec(0, "put", (1, 5), None, 0, 10),
        rec(1, "get", (1,), None, 20, 30),
    )
    # stale dataIndex: a completed same-key overwrite must win reads
    corpus["stale-overwritten-value"] = hist(
        rec(0, "put", (1, 5), None, 0, 10),
        rec(0, "put", (1, 6), None, 20, 30),
        rec(1, "get", (1,), 5, 40, 50),
    )
    # a pending put observed by a finished scan must stay observed
    corpus["unsee-pending-put-seen-by-scan"] = hist(
        rec(0, "put", (1, 5), None, 0, 1000),
        rec(1, "scan", (0, 10), ((1, 5),), 100, 200),
        rec(1, "get", (1,), None, 300, 400),
    )
    # dropped tombstone: delete completes, later data from an older
    # pending put resurfaces
    corpus["dropped-tombstone-resurrects-data"] = hist(
        rec(0, "put", (1, 7), None, 0, 500),
        rec(1, "put", (1, None), None, 100, 200),
        rec(1, "get", (1,), 7, 250, 300),
        rec(1, "get", (1,), None, 600, 700),
    )
    # scan missing a completed earlier write
    corpus["scan-lost-update"] = hist(
        rec(0, "put", (1, 5), None, 0, 10),
        rec(0, "put", (2, 6), None, 20, 30),
        rec(1, "scan", (0, 10), ((2, 6),), 40, 50),
    )
    # visibility flip-flop: once read, a pending put cannot unhappen
    corpus["get-flip-flop"] = hist(
        rec(0, "put", (1, 9), None, 0, 1000),
        rec(1, "get", (1,), 9, 100, 200),
        rec(1, "get", (1,), None, 300, 400),
    )
    # size contradicting two completed inserts
    corpus["size-undercount"] = hist(
        rec(0, "put", (1, 1), None, 0, 10),
        rec(0, "put", (2, 2), None, 20, 30),
        rec(1, "size", (), 1, 40, 50),
    )
    # is_empty claiming empty after a completed insert
    corpus["is-empty-after-insert"] = hist(
        rec(0, "put", (1, 1), None, 0, 10),
        rec(1, "is_empty", (), True, 20, 30),
    )
    return corpus


def test_bad_corpus_is_rejected():
    for name, history in bad_histories().items():
        result = check_linearizable(history)
        assert result.status == NOT_LINEARIZABLE, f"{name} was accepted"
        assert len(result.witness) < len(history.records)


def test_two_writers_two_contradicting_reads_rejected():
    """Both reads pick a different winner of the same overlapping put
    pair with no write in between; brute force over the 2-op put orders
    confirms no serialization exists."""
    history = hist(
        rec(0, "put", (1, 100), None, 0, 50),
        rec(1, "put", (1, 200), None, 10, 60),
        rec(0, "get", (1,), 100, 70, 80),
        rec(1, "get", (1,), 200, 90, 95),
    )
    assert check_linearizable(history).status == NOT_LINEARIZABLE
    accepted = []
    for order in brute_force_linearizations(history):
        model = {}
        ok = True
        for op in order:
            ok, model = oracle_apply(model, op)
            if not ok:
                break
        if ok:
            accepted.append(order)
    assert accepted == []


def test_budget_monotonicity_and_exhaustion():
    history = hist(
        rec(0, "put", (1, 5), None, 0, 10),
        rec(1, "get", (1,), 5, 20, 30),
        rec(0, "put", (2, 7), None, 25, 40),
        rec(1, "scan", (0, 9), ((1, 5), (2, 7)), 50, 60),
    )
    baseline = check_linearizable(history)
    assert baseline.status == LINEARIZABLE
    needed = baseline.nodes_used
    assert check_linearizable(history, node_budget=needed).status == LINEARIZABLE
    for budget in (needed + 1, needed * 10):
        again = check_linearizable(history, node_budget=budget)
        assert again.status == LINEARIZABLE
        assert again.nodes_used == needed
    starved = check_linearizable(history, node_budget=1)
    assert starved.status == EXHAUSTED
    # The history opens with a put, so a zero budget runs out on a put node.
    assert check_linearizable(history, node_budget=0).status == EXHAUSTED


def test_malformed_history_raises():
    history = hist(rec(0, "get", (1,), None, 10, 5))
    with pytest.raises(ValueError):
        check_linearizable(history)


# ---------------- put-only reduction ----------------

def random_put_only_history(rng):
    records = []
    clock = 0
    for thread in range(2):
        clock = rng.randrange(5)
        for _ in range(rng.randrange(1, 4)):
            invoke = clock + rng.randrange(0, 4)
            response = invoke + 1 + rng.randrange(0, 6)
            key = rng.randrange(2)
            value = None if rng.random() < 0.4 else rng.randrange(3)
            records.append(rec(thread, "put", (key, value), None, invoke, response))
            clock = response + rng.randrange(0, 3)
    return History(records=records, meta={})


def brute_force_final_states(history):
    states = set()
    for order in brute_force_linearizations(history):
        model = {}
        for op in order:
            _, model = oracle_apply(model, op)
        states.add(frozenset(model.items()))
    return states


def test_put_only_validator_matches_brute_force():
    rng = random.Random(42)
    checked_states = 0
    for _ in range(300):
        history = random_put_only_history(rng)
        reachable = brute_force_final_states(history)
        keys = {r.args[0] for r in history.records}
        values = {r.args[1] for r in history.records if r.args[1] is not None}
        # probe every candidate final state over the touched keys/values
        candidates = [frozenset()] + [
            frozenset(s) for s in reachable
        ] + [
            frozenset({(k, v)}) for k in keys for v in values
        ]
        for candidate in set(candidates):
            expected = candidate in reachable
            got = validate_put_only_final_state(history, list(candidate))
            assert got == expected, (history.records, sorted(candidate), expected)
            checked_states += 1
    assert checked_states > 1000


def test_put_only_validator_rejects_foreign_key():
    history = hist(rec(0, "put", (1, 5), None, 0, 10))
    assert not validate_put_only_final_state(history, [(2, 5)])
    assert validate_put_only_final_state(history, [(1, 5)])
    assert not validate_put_only_final_state(history, [])  # nothing deleted it


def test_put_only_validator_requires_put_only():
    history = hist(rec(0, "get", (1,), None, 0, 10))
    with pytest.raises(ValueError):
        validate_put_only_final_state(history, [])
