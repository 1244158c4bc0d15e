"""Linearizability checking against a sequential ordered-map oracle.

check_linearizable runs the classic backtracking search: repeatedly pick
an operation that is minimal (no remaining operation's response precedes
its invocation), apply it to the oracle, and recurse; a history is
linearizable iff some order consumes every record. Candidate order is
invocation time, which finds witnesses quickly on mostly-sequential
histories. A visited-state memo prunes re-explored frontiers and a node
budget makes worst-case exponential searches terminate deterministically.

For put-only histories (no results to contradict), linearizability of a
drained final state reduces to a per-key rule checked directly by
validate_put_only_final_state: full search on long stress histories is
intractable and unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .history import GET, IS_EMPTY, PUT, SCAN, SIZE, History, OpRecord

LINEARIZABLE = "linearizable"
NOT_LINEARIZABLE = "not-linearizable"
EXHAUSTED = "exhausted"


def oracle_apply(model: dict, op: OpRecord) -> tuple[bool, dict]:
    """Pure sequential-specification step: does op's recorded result hold
    in this model state, and what state follows? Puts always apply (a
    None value is a tombstone and removes the key)."""
    kind = op.kind
    if kind == PUT:
        key, value = op.args
        nxt = dict(model)
        if value is None:
            nxt.pop(key, None)
        else:
            nxt[key] = value
        return True, nxt
    if kind == GET:
        (key,) = op.args
        return model.get(key) == op.result, model
    if kind == SCAN:
        lo, hi = op.args
        expected = tuple(sorted((k, v) for k, v in model.items() if lo <= k <= hi))
        return tuple(op.result) == expected, model
    if kind == SIZE:
        return op.result is None or op.result == len(model), model
    if kind == IS_EMPTY:
        return op.result is None or op.result == (len(model) == 0), model
    raise ValueError(f"unknown op kind {kind!r}")


def oracle_replay(records: list[OpRecord]) -> dict:
    """Final model state after applying records in order; raises on a
    result mismatch (replay is for checker-accepted orders)."""
    model: dict = {}
    for rec in records:
        ok, model = oracle_apply(model, rec)
        if not ok:
            raise ValueError(f"record does not serialize at replay: {rec}")
    return model


@dataclass
class CheckResult:
    status: str
    nodes_used: int
    linearization: Optional[list[OpRecord]] = None
    witness: list[OpRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == LINEARIZABLE


def check_linearizable(history: History, node_budget: int = 500_000) -> CheckResult:
    """Decide a recorded history. Only timestamps order operations, so
    file record order never affects the outcome."""
    history.validate()
    queues: dict[int, list[OpRecord]] = {}
    for rec in sorted(history.records, key=lambda r: r.invoke_ts):
        queues.setdefault(rec.thread_id, []).append(rec)
    threads = sorted(queues)
    positions = {t: 0 for t in threads}
    total = len(history.records)

    chosen: list[OpRecord] = []
    best_prefix: list[OpRecord] = []
    model: dict = {}
    nodes = 0
    seen: set = set()

    def frontier_key() -> tuple:
        return (tuple(positions[t] for t in threads), frozenset(model.items()))

    def dfs() -> Optional[bool]:
        """True = linearized, False = dead end, None = budget exhausted."""
        nonlocal nodes, model, best_prefix
        if len(chosen) == total:
            return True
        key = frontier_key()
        if key in seen:
            return False
        seen.add(key)
        heads = [queues[t][positions[t]] for t in threads if positions[t] < len(queues[t])]
        min_response = min(h.response_ts for h in heads)
        for head in sorted(heads, key=lambda r: r.invoke_ts):
            if head.invoke_ts > min_response:
                continue  # some remaining op precedes it in real time
            nodes += 1
            if nodes > node_budget:
                return None
            ok, next_model = oracle_apply(model, head)
            if not ok:
                continue
            saved = model
            model = next_model
            positions[head.thread_id] += 1
            chosen.append(head)
            if len(chosen) > len(best_prefix):
                best_prefix = list(chosen)
            result = dfs()
            if result is not False:
                return result
            chosen.pop()
            positions[head.thread_id] -= 1
            model = saved
        return False

    outcome = dfs()
    if outcome is True:
        return CheckResult(LINEARIZABLE, nodes, linearization=list(chosen))
    if outcome is None:
        return CheckResult(EXHAUSTED, nodes, witness=list(best_prefix))
    return CheckResult(NOT_LINEARIZABLE, nodes, witness=list(best_prefix))


# ---------------- put-only histories ----------------


def validate_put_only_final_state(history: History, final_items: list[tuple[Any, Any]]) -> bool:
    """Is final_items the oracle replay of some linearization of this
    put-only history?

    Per key: a drained value must come from a put of that value that can
    be ordered last among the key's puts: no same-key put may follow it
    in real time (invoked strictly after its response) or in its own
    thread's program order; an absent key needs a tombstone put with the
    same property, or no puts at all. Cycles mixing real-time, program
    order, and same-key-last constraints always collapse to a per-key
    violation, so the per-key rule is also globally sufficient
    (cross-checked by brute force in the test suite).
    """
    history.validate()
    by_key: dict[Any, list[OpRecord]] = {}
    for rec in history.records:
        if rec.kind != PUT:
            raise ValueError("validator accepts put-only histories")
        by_key.setdefault(rec.args[0], []).append(rec)

    final = dict(final_items)
    if set(final) - set(by_key):
        return False  # a key no put ever wrote

    for key, puts in by_key.items():
        value = final.get(key)
        candidates = [
            p
            for p in puts
            if (p.args[1] is None and value is None) or (value is not None and p.args[1] == value)
        ]
        # p can be linearized last among its key's puts iff none follows it
        # in real time or in p's own thread's program order.
        def can_be_last(p: OpRecord) -> bool:
            for q in puts:
                if q is p:
                    continue
                if p.response_ts < q.invoke_ts:
                    return False
                if q.thread_id == p.thread_id and p.invoke_ts < q.invoke_ts:
                    return False
            return True

        if not any(can_be_last(p) for p in candidates):
            return False
    return True
