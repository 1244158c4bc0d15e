"""History recording format: round-trips, validation, error reporting."""

import pytest

from kiwi import History, HistoryFormatError, OpRecord, check_linearizable, load_history, save_history
from kiwi.cli import main
from kiwi.history import KINDS, SCAN


def rec(thread, kind, args, result, invoke, response):
    return OpRecord(thread, kind, tuple(args), result, invoke, response)


def test_empty_history_round_trips(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    save_history(History(records=[], meta={"seed": 1}), path)
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 1  # metadata only
    loaded = load_history(path)
    assert loaded.records == []
    assert loaded.meta == {"seed": 1}


def test_three_record_history_is_four_lines(tmp_path):
    history = History(
        records=[
            rec(0, "put", (1, 10), None, 0, 5),
            rec(0, "get", (1,), 10, 6, 9),
            rec(1, "scan", (0, 5), ((1, 10),), 2, 8),
        ],
        meta={"seed": 3},
    )
    path = str(tmp_path / "h.jsonl")
    save_history(history, path)
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 4
    loaded = load_history(path)
    assert loaded.records == history.records
    assert loaded.meta == history.meta


def test_tombstone_and_absent_encode_as_null(tmp_path):
    history = History(
        records=[
            rec(0, "put", (1, None), None, 0, 5),  # tombstone put
            rec(0, "get", (1,), None, 6, 9),  # absent read
        ],
        meta={},
    )
    path = str(tmp_path / "h.jsonl")
    save_history(history, path)
    assert load_history(path).records == history.records


GOOD_LINE = '{"thread":0,"kind":"get","args":[1],"result":null,"invoke":1,"response":2}'
# Record bodies that parse as JSON (or not) but are not records.
CORRUPT_LINES = {
    "not-json": "{this is not json",
    "list": "[1,2]",
    "args-not-list": '{"thread":0,"kind":"get","args":5,"result":null,"invoke":1,"response":2}',
    "scan-result-not-pairs": '{"thread":0,"kind":"scan","args":[0,5],"result":[1,2],"invoke":1,"response":2}',
    "invoke-not-int": '{"thread":0,"kind":"get","args":[1],"result":null,"invoke":"x","response":2}',
    "kind-unhashable": '{"thread":0,"kind":["get"],"args":[1],"result":null,"invoke":1,"response":2}',
    "no-response": '{"thread":0,"kind":"get","args":[1],"result":null,"invoke":1}',
    "put-one-arg": '{"thread":0,"kind":"put","args":[1],"result":null,"invoke":1,"response":2}',
    "get-two-args": '{"thread":0,"kind":"get","args":[1,2],"result":null,"invoke":1,"response":2}',
    "scan-one-arg": '{"thread":0,"kind":"scan","args":[1],"result":[],"invoke":1,"response":2}',
    "size-one-arg": '{"thread":0,"kind":"size","args":[1],"result":0,"invoke":1,"response":2}',
}


def write_lines(path, *records):
    with open(path, "w") as fh:
        fh.write('{"meta":{}}\n')
        for line in records:
            fh.write(line + "\n")


def test_corrupt_line_error_names_the_line(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    for name, body in CORRUPT_LINES.items():
        write_lines(path, GOOD_LINE, body)
        with pytest.raises(HistoryFormatError) as excinfo:
            load_history(path)
        assert excinfo.value.line_no == 3, name
        assert "line 3" in str(excinfo.value), name


def test_check_exits_2_on_a_corrupt_line(tmp_path, capsys):
    """Exit code 1 means "not linearizable"; a malformed file is a usage error."""
    path = str(tmp_path / "bad.jsonl")
    for name, body in CORRUPT_LINES.items():
        write_lines(path, body)
        assert main(["check", "--in", path]) == 2, name
        assert "line 2" in capsys.readouterr().err, name


def test_loaded_kinds_are_the_module_constants(tmp_path):
    path = str(tmp_path / "h.jsonl")
    args = {"put": (1, 2), "get": (1,), "scan": (0, 5)}
    records = [
        rec(0, kind, args.get(kind, ()), () if kind == SCAN else None, 2 * i, 2 * i + 1)
        for i, kind in enumerate(KINDS)
    ]
    save_history(History(records=records), path)
    loaded = load_history(path).records
    assert [r.kind for r in loaded] == list(KINDS)
    assert all(r.kind is kind for r, kind in zip(loaded, KINDS))


def test_unknown_kind_rejected(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"meta":{}}\n')
        fh.write('{"thread":0,"kind":"frobnicate","args":[],"result":null,"invoke":1,"response":2}\n')
    with pytest.raises(HistoryFormatError) as excinfo:
        load_history(path)
    assert excinfo.value.line_no == 2


def test_missing_metadata_rejected(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    # a record first, an empty file, or a meta that is not an object
    for body in ('{"thread":0}\n', "", '{"meta":5}\n', '{"meta":[1]}\n'):
        with open(path, "w") as fh:
            fh.write(body)
        with pytest.raises(HistoryFormatError) as excinfo:
            load_history(path)
        assert excinfo.value.line_no == 1


def test_validate_rejects_backwards_interval():
    history = History(records=[rec(0, "get", (1,), None, 10, 10)])
    with pytest.raises(ValueError):
        history.validate()


def test_validate_rejects_self_overlap():
    history = History(
        records=[
            rec(0, "get", (1,), None, 0, 10),
            rec(0, "get", (1,), None, 5, 15),
        ]
    )
    with pytest.raises(ValueError):
        history.validate()


def test_validate_accepts_records_listed_out_of_time_order():
    """Validation and checking order records by time, not by file order."""
    in_order = [
        rec(0, "put", (1, 10), None, 0, 5),
        rec(0, "get", (1,), 20, 6, 9),
        rec(0, "put", (1, None), None, 12, 14),
        rec(1, "put", (1, 20), None, 2, 7),
        rec(1, "get", (1,), None, 15, 18),
    ]
    shuffled = [in_order[i] for i in (2, 4, 1, 3, 0)]
    History(records=shuffled).validate()
    expected = check_linearizable(History(records=in_order))
    result = check_linearizable(History(records=shuffled))
    assert expected.ok
    assert (result.status, result.nodes_used, result.linearization) == (
        expected.status, expected.nodes_used, expected.linearization,
    )


def test_validate_rejects_self_overlap_split_by_another_thread():
    history = History(
        records=[
            rec(0, "get", (1,), None, 0, 10),
            rec(1, "get", (1,), None, 1, 3),
            rec(0, "get", (1,), None, 5, 15),
        ]
    )
    with pytest.raises(ValueError, match="thread 0 overlaps its own operations"):
        history.validate()


def test_overlap_detection():
    no_overlap = History(
        records=[
            rec(0, "get", (1,), None, 0, 10),
            rec(1, "get", (1,), None, 20, 30),
        ]
    )
    assert not no_overlap.has_overlap()
    overlap = History(
        records=[
            rec(0, "get", (1,), None, 0, 10),
            rec(1, "get", (1,), None, 5, 30),
        ]
    )
    assert overlap.has_overlap()


def test_single_thread_history_never_overlaps():
    history = History(
        records=[rec(0, "get", (1,), None, i * 10, i * 10 + 5) for i in range(10)]
    )
    history.validate()
    assert not history.has_overlap()
