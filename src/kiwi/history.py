"""Timestamped operation histories: record, validate, save, load.

A history is a list of per-thread sequential operation records with
monotonic invoke/response timestamps. The file format is one JSON object
per line, prefixed by one metadata line, so failures are greppable and
diffs are reviewable.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Any

PUT = "put"
GET = "get"
SCAN = "scan"
SIZE = "size"
IS_EMPTY = "is_empty"
KINDS = (PUT, GET, SCAN, SIZE, IS_EMPTY)
_KIND_CONSTANTS = {kind: kind for kind in KINDS}
_ARGS_LEN = {PUT: 2, GET: 1, SCAN: 2, SIZE: 0, IS_EMPTY: 0}
_BY_THREAD_THEN_INVOKE = operator.attrgetter("thread_id", "invoke_ts")
_NESTED = (list, dict)  # JSON arrays and objects: never a key or a value


class HistoryFormatError(ValueError):
    """Raised on malformed history files; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class OpRecord:
    """One invocation: thread, kind, args, observed result, and interval.

    Tombstone put args and absent get results are both encoded as None
    (payloads are ints, so None is unambiguous). Scan results are tuples
    of (key, value) pairs.
    """

    thread_id: int
    kind: str
    args: tuple
    result: Any
    invoke_ts: int
    response_ts: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "thread": self.thread_id,
                "kind": self.kind,
                "args": list(self.args),
                "result": _result_to_json(self.kind, self.result),
                "invoke": self.invoke_ts,
                "response": self.response_ts,
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(line: str, line_no: int) -> "OpRecord":
        """Parse one record line. Anything but the shape to_json writes
        raises HistoryFormatError naming line_no, a key or value that is a
        JSON array or object included. The kind becomes its module
        constant, so loaded records share the five kind strings."""
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise HistoryFormatError(line_no, f"invalid JSON: {exc.msg}") from exc
        if type(obj) is not dict:
            raise HistoryFormatError(line_no, "a record must be a JSON object")
        try:
            thread, name, args = obj["thread"], obj["kind"], obj["args"]
            result, invoke, response = obj["result"], obj["invoke"], obj["response"]
        except KeyError as exc:
            raise HistoryFormatError(line_no, f"missing field {exc.args[0]!r}") from exc
        kind = _KIND_CONSTANTS.get(name) if type(name) is str else None
        if kind is None:
            raise HistoryFormatError(line_no, f"unknown op kind {name!r}")
        if type(thread) is not int or type(invoke) is not int or type(response) is not int:
            raise HistoryFormatError(line_no, "thread, invoke and response must be integers")
        if type(args) is not list or len(args) != _ARGS_LEN[kind]:
            raise HistoryFormatError(line_no, f"{kind} args must be a list of {_ARGS_LEN[kind]}, not {args!r}")
        for arg in args:
            if type(arg) in _NESTED:
                raise HistoryFormatError(line_no, f"{kind} keys and values must be scalars, not {args!r}")
        if kind == SCAN:
            if type(result) is not list:
                raise HistoryFormatError(line_no, f"a scan result must be a list of [key, value] pairs: {result!r}")
            for pair in result:
                if type(pair) is not list or len(pair) != 2 or type(pair[0]) in _NESTED or type(pair[1]) in _NESTED:
                    raise HistoryFormatError(line_no, f"a scan result must be a list of scalar [key, value] pairs: {result!r}")
            result = tuple(map(tuple, result))
        elif kind == GET and type(result) in _NESTED:
            raise HistoryFormatError(line_no, f"a get result must be a scalar value, not {result!r}")
        return OpRecord(thread, kind, tuple(args), result, invoke, response)


def _result_to_json(kind: str, result: Any) -> Any:
    if kind == SCAN:
        return [list(pair) for pair in result]
    return result


@dataclass
class History:
    """Recorded run: records plus the recipe that produced them."""

    records: list[OpRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def validate(self) -> list[OpRecord]:
        """Well-formedness: each record has a known kind and a positive
        interval, then per-thread records are sequential (no self-overlap;
        the lowest overlapping thread is named). Returns the records
        sorted by (thread, invoke), the order the self-overlap pass walks."""
        for i, rec in enumerate(self.records):
            if rec.kind not in KINDS:
                raise ValueError(f"record {i}: unknown op kind {rec.kind!r}")
            if rec.invoke_ts >= rec.response_ts:
                raise ValueError(f"record {i}: invoke_ts must precede response_ts")
        ordered = sorted(self.records, key=_BY_THREAD_THEN_INVOKE)
        thread_id = response_ts = None
        for rec in ordered:
            if rec.thread_id == thread_id and rec.invoke_ts < response_ts:
                raise ValueError(f"thread {thread_id} overlaps its own operations")
            thread_id = rec.thread_id
            response_ts = rec.response_ts
        return ordered

    def has_overlap(self) -> bool:
        """True when some pair of records from different threads overlaps."""
        max_response: dict[int, int] = {}
        for rec in sorted(self.records, key=lambda r: r.invoke_ts):
            for thread_id, response in max_response.items():
                if thread_id != rec.thread_id and rec.invoke_ts < response:
                    return True
            cur = max_response.get(rec.thread_id, 0)
            max_response[rec.thread_id] = max(cur, rec.response_ts)
        return False


def save_history(history: History, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": history.meta}, separators=(",", ":")) + "\n")
        for rec in history.records:
            fh.write(rec.to_json() + "\n")


def load_history(path: str) -> History:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise HistoryFormatError(1, "missing metadata line")
    try:
        header = json.loads(lines[0])
        meta = header["meta"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise HistoryFormatError(1, "metadata line is not a {'meta': ...} object") from exc
    if type(meta) is not dict:
        raise HistoryFormatError(1, f"meta must be a JSON object, not {meta!r}")
    records = [
        OpRecord.from_json(line, line_no)
        for line_no, line in enumerate(lines[1:], start=2)
        if line.strip()
    ]
    return History(records=records, meta=meta)
