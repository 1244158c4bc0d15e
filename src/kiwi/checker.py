"""Linearizability checking against a sequential ordered-map oracle.

check_linearizable runs the Wing & Gong search with a memo of visited
states (Lowe, "Testing for linearizability", CCPE 2017). A state is how
many operations of each thread are linearized, plus the oracle model they
leave. Its candidates are its minimal heads: each thread's next operation
that no remaining operation precedes in real time (no remaining response
comes before its invocation). A history is linearizable iff some order
of candidates consumes every record.

- Reads first. The non-mutating heads (get, scan, size, is_empty) are
  tried first, in invocation order. The first that holds in the model is
  linearized at once, and the search does not branch on its siblings.
  This keeps the verdict. The read leaves the model as it is, and being
  minimal and its thread's head, it may precede every remaining
  operation. So any order that completes the history from this state can
  be rewritten to take the read first, and every other operation still
  sees the same models.
- Otherwise the search branches on the minimal puts, in invocation
  order. A read that does not hold here cannot be linearized here, so
  only puts are branches. Puts never take the shortcut: a put changes
  the model, so committing one could rule out the order a witness needs.
- Heads with equal invocation times are tried in thread-id order, so
  nodes_used is deterministic.
- The memo key is exact: (*positions, frozenset(model.items())), rebuilt
  only after a put. A hash-only key could collide and turn a linearizable
  history into a false NOT_LINEARIZABLE. A state met again is a dead end:
  positions only grow, so its search already finished and failed.
- A node is one oracle_apply call (the search calls it through this
  module's global). node_budget caps the nodes, so worst-case exponential
  searches end deterministically with EXHAUSTED.
- The search is iterative: an explicit stack holds one frame per state on
  the path that branches on its puts. History length is not bounded by
  the recursion limit, and a check leaves no reference cycles behind.

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

_INF = float("inf")


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
    # One lane per thread, in thread-id order, each in invocation order,
    # with its invoke and response times; the +inf sentinel that ends each
    # time list stands for a finished lane.
    lanes: list[list[OpRecord]] = []
    invokes: list[list[float]] = []
    responses: list[list[float]] = []
    thread_id = None
    for rec in history.validate():
        if rec.thread_id != thread_id:
            thread_id = rec.thread_id
            lane, lane_invokes, lane_responses = [], [], []
            lanes.append(lane)
            invokes.append(lane_invokes)
            responses.append(lane_responses)
        lane.append(rec)
        lane_invokes.append(rec.invoke_ts)
        lane_responses.append(rec.response_ts)
    for lane_invokes, lane_responses in zip(invokes, responses):
        lane_invokes.append(_INF)
        lane_responses.append(_INF)
    lane_ids = range(len(lanes))
    total = len(history.records)

    positions = [0] * len(lanes)
    chosen: list[OpRecord] = []
    best_prefix: list[OpRecord] = []
    model: dict = {}
    model_key: frozenset = frozenset()
    seen: set = set()
    # One frame per state on the path that branches on its puts: (lanes of
    # the minimal puts left to try, last one first; its model; len(chosen);
    # positions).
    stack: list[tuple] = []
    nodes = 0
    status = EXHAUSTED
    while True:
        if len(chosen) == total:
            return CheckResult(LINEARIZABLE, nodes, linearization=chosen)
        key = (*positions, model_key)
        if key not in seen:
            seen.add(key)
            min_response = _INF
            for i in lane_ids:
                response = responses[i][positions[i]]
                if response < min_response:
                    min_response = response
            heads = []
            for i in lane_ids:
                invoke = invokes[i][positions[i]]
                if invoke <= min_response:
                    heads.append((invoke, i))
            heads.sort()
            puts = []
            read_lane = None
            for _, lane in heads:
                head = lanes[lane][positions[lane]]
                if head.kind == PUT:
                    puts.append(lane)
                    continue
                nodes += 1
                if nodes > node_budget:
                    break
                if oracle_apply(model, head)[0]:
                    read_lane = lane
                    break
            if nodes > node_budget:
                break
            if read_lane is not None:
                chosen.append(lanes[read_lane][positions[read_lane]])
                positions[read_lane] += 1
                continue
            if puts:
                puts.reverse()
                stack.append((puts, model, len(chosen), tuple(positions)))
        # Apply the next untried put of the deepest frame, backtracking past
        # frames that have none left.
        while stack and not stack[-1][0]:
            stack.pop()
        if not stack:
            status = NOT_LINEARIZABLE
            break
        nodes += 1
        if nodes > node_budget:
            break
        untried, model, depth, parent_positions = stack[-1]
        lane = untried.pop()
        if len(chosen) > len(best_prefix):
            best_prefix = chosen[:]
        del chosen[depth:]
        positions = list(parent_positions)
        head = lanes[lane][positions[lane]]
        model = oracle_apply(model, head)[1]
        model_key = frozenset(model.items())
        chosen.append(head)
        positions[lane] += 1
    if len(chosen) > len(best_prefix):
        best_prefix = chosen
    return CheckResult(status, nodes, witness=list(best_prefix))


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
