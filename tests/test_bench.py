"""Benchmark machinery: the sizing rule, the drop-outlier protocol, CSV
emission, desk-scale smoke runs, the deadline that fails a stuck worker,
and the CLI surface."""

import csv
import math
import random
import subprocess
import sys
import threading
import time

import pytest

from kiwi import (
    FuzzConfig,
    LockedSortedMap,
    MeasurementResult,
    RegistrationError,
    WorkloadConfig,
    emit_results,
    load_history,
    run_workload,
    steady_state_init_size,
)
from kiwi import bench, workers
from kiwi.bench import _worker_loop, make_map, most_suspicious, prefill, run_iteration
from kiwi.cli import build_parser, main

from helpers import total_mean
from interleave import run_threads


def smoke_cfg(name, threads=1, **kw):
    defaults = dict(
        key_range_max=2048,
        warmup_seconds=0.0,
        run_seconds=0.15,
        iterations=2,
        seed=42,
    )
    defaults.update(kw)
    return WorkloadConfig(name=name, threads=threads, **defaults)


# ---------------- sizing rule ----------------

def test_steady_state_reference_configuration():
    assert steady_state_init_size(2_000_000, 50, 50) == 1_000_000


def test_steady_state_insert_only_saturates_range():
    assert steady_state_init_size(1000, 100, 0) == 1000


def test_steady_state_rounds_down():
    assert steady_state_init_size(999, 1, 2) == 333


def test_steady_state_guards_division():
    with pytest.raises(ValueError):
        steady_state_init_size(1000, 0, 0)


def test_workload_config_derives_init_size():
    cfg = smoke_cfg("PutDelete5050")
    assert cfg.init_size == 1024  # half the key range


def test_workload_config_validation():
    """A config that cannot mean a run is refused when built. A NaN
    window would never end: the worker loop's deadline test against NaN
    is always false, and an infinite one overflows the join timeout."""
    nan_window = dict(key_range_max=64, warmup_seconds=0, run_seconds=float("nan"), iterations=1)
    for name, threads, kw in [
        ("NoSuchWorkload", 1, {}),
        ("GetOnly", 0, {}),
        ("GetOnly", 1, nan_window),
        ("GetOnly", 1, dict(run_seconds=0)),
        ("GetOnly", 1, dict(run_seconds=-1)),
        ("GetOnly", 1, dict(warmup_seconds=-5)),
        ("GetOnly", 1, dict(warmup_seconds=float("nan"))),
        ("GetOnly", 1, dict(run_seconds=float("inf"))),
        ("GetOnly", 1, dict(warmup_seconds=float("inf"))),
        ("GetOnly", 1, dict(key_range_max=0)),
        ("GetOnly", 1, dict(iterations=0)),
    ]:
        with pytest.raises(ValueError):
            WorkloadConfig(name=name, threads=threads, **kw)
    # A budget below one op would measure nothing: no rows, a bare CSV header.
    for budget in (0, -3):
        with pytest.raises(ValueError, match="ops_budget"):
            WorkloadConfig(name="GetOnly", threads=1, ops_budget=budget)


# ---------------- measurement protocol ----------------

def test_most_suspicious_finds_the_outlier():
    values = [100.0, 98.0, 12.0, 99.0, 101.0]  # one artificially slowed run
    assert most_suspicious(values) == 2


def test_most_suspicious_judges_no_small_sample():
    assert most_suspicious([5.0, 6.0]) is None


def test_measurement_result_stats():
    result = MeasurementResult(
        workload="GetOnly", impl="kiwi", threads=1,
        per_kind_raw={"get": [100.0, 110.0, 90.0]},
    )
    assert result.mean("get") == pytest.approx(100.0)
    assert result.stddev("get") == pytest.approx(10.0)
    assert total_mean(result) == pytest.approx(100.0)


# ---------------- CSV ----------------

def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_emit_single_result_two_lines(tmp_path):
    result = MeasurementResult(
        workload="GetOnly", impl="kiwi", threads=1, per_kind_raw={"get": [50.0]}
    )
    path = str(tmp_path / "out.csv")
    emit_results([result], path)
    rows = read_csv(path)
    assert rows[0] == [
        "workload", "impl", "threads", "op_kind", "mean_ops_per_sec", "stddev", "iterations",
    ]
    assert len(rows) == 2
    assert rows[1][:4] == ["GetOnly", "kiwi", "1", "get"]


def test_emit_orders_rows_deterministically(tmp_path):
    results = [
        MeasurementResult(workload="GetOnly", impl="kiwi", threads=4, per_kind_raw={"get": [1.0]}),
        MeasurementResult(workload="GetOnly", impl="kiwi", threads=1, per_kind_raw={"get": [1.0]}),
    ]
    path = str(tmp_path / "out.csv")
    emit_results(results, path)
    rows = read_csv(path)
    assert [r[2] for r in rows[1:]] == ["1", "4"]


def test_emit_empty_results_header_only(tmp_path):
    path = str(tmp_path / "out.csv")
    emit_results([], path)
    assert len(read_csv(path)) == 1


def test_emit_bad_path_raises_with_path():
    with pytest.raises(OSError) as excinfo:
        emit_results([], "/nonexistent-dir-zzz/out.csv")
    assert "/nonexistent-dir-zzz/out.csv" in str(excinfo.value)


# ---------------- smoke runs ----------------

def test_get_only_closed_world():
    """Against a prefill-only map every get returns the prefilled value
    or absent-consistent None."""
    cfg = smoke_cfg("GetOnly")
    target = make_map("kiwi", 1)
    inserted = prefill(target, cfg, random.Random(cfg.seed))
    rng = random.Random(7)
    for _ in range(3000):
        key = rng.randrange(cfg.key_range_max)
        assert target.get(key) == inserted.get(key)


def test_get_only_throughput_positive():
    result = run_workload(smoke_cfg("GetOnly"), "kiwi")
    assert result.mean("get") > 0


def test_put_delete_smoke_size_band():
    cfg = smoke_cfg("PutDelete5050", run_seconds=0.3)
    result = run_workload(cfg, "kiwi", bounds_debug=True)
    assert set(result.per_kind_raw) == {"put", "delete"}
    target = make_map("kiwi", 1)
    prefill(target, cfg, random.Random(cfg.seed))
    drained = len(target.items())
    assert cfg.init_size / 2 <= drained <= cfg.key_range_max


def test_scan_only_smoke():
    result = run_workload(smoke_cfg("ScanOnly32K"), "kiwi")
    assert result.mean("scan") > 0


def test_every_scan_covers_the_32k_keys_the_workload_names():
    """A scan thread's every scan is the inclusive range [lo, lo +
    32,767], whatever the key range."""
    calls = []

    class RecordingScans(LockedSortedMap):
        def scan(self, min_key, max_key):
            calls.append(max_key - min_key + 1)
            return super().scan(min_key, max_key)

    target = RecordingScans(max_threads=1)
    target.register_thread()
    counts = dict.fromkeys(bench.OP_KINDS, 0)
    _worker_loop(target, smoke_cfg("ScanOnly32K", ops_budget=5), "scan", random.Random(1), math.inf, counts)
    assert counts["scan"] == 5
    assert calls == [bench.SCAN_KEYS] * 5 and bench.SCAN_KEYS == 32_768


def test_half_put_delete_half_scan_roles():
    cfg = smoke_cfg("HalfPutDeleteHalfScan", threads=2, run_seconds=0.3)
    result = run_workload(cfg, "kiwi")
    assert {"put", "delete", "scan"} <= set(result.per_kind_raw)


def test_locked_reference_runs_all_workloads():
    for name in ("GetOnly", "PutDelete5050"):
        result = run_workload(smoke_cfg(name), "locked")
        assert total_mean(result) > 0


def test_warmup_is_iteration_minus_one_of_the_measured_workload(monkeypatch):
    """The warm-up runs the workload's own loop on at most 4096 keys for
    warmup_seconds, timed even when the measured runs have an op budget."""
    calls = []

    def spy(cfg, impl, iteration, bounds_debug=False):
        calls.append((cfg, iteration))
        return real(cfg, impl, iteration, bounds_debug=bounds_debug)

    real = bench.run_iteration
    monkeypatch.setattr(bench, "run_iteration", spy)
    cfg = smoke_cfg("HalfPutDeleteHalfScan", threads=2, key_range_max=8192,
                    warmup_seconds=0.05, iterations=2, ops_budget=50)
    run_workload(cfg, "kiwi")
    assert [iteration for _, iteration in calls] == [-1, 0, 1]
    warmup, _ = calls[0]
    assert warmup.key_range_max == 4096
    assert warmup.ops_budget is None
    assert warmup.run_seconds == 0.05
    assert (warmup.name, warmup.threads) == (cfg.name, cfg.threads)
    assert all(measured is cfg for measured, _ in calls[1:])


def test_worker_failing_before_the_start_line_raises(monkeypatch):
    """A map one registration slot short: the worker that cannot register,
    just past the start barrier, fails run_iteration with its error, not a
    hang."""
    monkeypatch.setattr(
        bench, "make_map", lambda impl, threads, bounds_enabled=False: LockedSortedMap(max_threads=threads)
    )

    def attempt():
        run_iteration(smoke_cfg("GetOnly", threads=2), "locked", 0)

    with pytest.raises(RegistrationError):
        run_threads(attempt, timeout=10.0)


def test_a_stuck_worker_fails_run_iteration_at_its_bound_by_name(monkeypatch):
    """A GetOnly worker whose gets never return: run_iteration fails at
    run_seconds plus the margin with TimeoutError naming it, not a hang."""
    monkeypatch.setattr(workers, "MARGIN_S", 0.3)
    release = threading.Event()

    class StuckGets(LockedSortedMap):
        def get(self, key):
            if threading.current_thread().name == "worker-1":
                release.wait()
            return super().get(key)

    monkeypatch.setattr(
        bench, "make_map", lambda impl, threads, bounds_enabled=False: StuckGets(max_threads=threads + 1)
    )
    cfg = smoke_cfg("GetOnly", threads=2, run_seconds=0.1)
    try:
        started = time.monotonic()
        with pytest.raises(TimeoutError, match=r"still alive after 0\.4 s: worker-1$"):
            run_threads(lambda: run_iteration(cfg, "locked", 0), timeout=10.0)
        assert time.monotonic() - started < 1.4
    finally:
        release.set()


def test_run_iteration_bounds_debug_asserts_bracket():
    cfg = smoke_cfg("PutDelete5050")
    rates = run_iteration(cfg, "kiwi", 0, bounds_debug=True)
    assert rates


def test_make_map_rejects_unknown_impl():
    with pytest.raises(ValueError):
        make_map("quantum", 1)


def test_single_thread_run_is_reproducible():
    """Same seed, one thread, fixed op budget: identical op counts and
    identical final map content."""

    def run_once():
        cfg = smoke_cfg("PutDelete5050", ops_budget=2000)
        target = make_map("kiwi", 1)
        prefill(target, cfg, random.Random(cfg.seed))
        counts = dict.fromkeys(bench.OP_KINDS, 0)
        rng = random.Random(cfg.seed * 31337)
        _worker_loop(target, cfg, "putdelete", rng, deadline=float("inf"), counts=counts)
        return counts, target.items()

    first_counts, first_items = run_once()
    second_counts, second_items = run_once()
    assert first_counts == second_counts
    assert first_items == second_items
    assert first_counts["put"] + first_counts["delete"] == 2000


# ---------------- CLI ----------------

def test_cli_bench_writes_csv(tmp_path):
    out = str(tmp_path / "r.csv")
    code = main([
        "bench", "--workload", "GetOnly", "--impl", "kiwi", "--threads", "1",
        "--key-range", "512", "--seconds", "0.1", "--warmup-seconds", "0",
        "--iterations", "1", "--seed", "1", "--out", out,
    ])
    assert code == 0
    rows = read_csv(out)
    assert rows[1][0] == "GetOnly"


def test_cli_fuzz_check_roundtrip(tmp_path):
    out = str(tmp_path / "h.jsonl")
    assert main(["fuzz", "--threads", "2", "--ops", "40", "--seed", "4", "--out", out, "--check"]) == 0
    assert len(load_history(out).records) == 40
    assert main(["check", "--in", out]) == 0


def test_cli_check_rejects_bad_history(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"meta":{}}\n')
        fh.write('{"thread":0,"kind":"put","args":[1,5],"result":null,"invoke":0,"response":10}\n')
        fh.write('{"thread":1,"kind":"get","args":[1],"result":null,"invoke":20,"response":30}\n')
    assert main(["check", "--in", path]) == 1


def test_cli_check_out_of_budget_is_undecided(tmp_path, capsys):
    path = str(tmp_path / "h.jsonl")
    with open(path, "w") as fh:
        fh.write('{"meta":{}}\n')
        fh.write('{"thread":0,"kind":"put","args":[1,5],"result":null,"invoke":0,"response":10}\n')
        fh.write('{"thread":1,"kind":"get","args":[1],"result":5,"invoke":20,"response":30}\n')
    assert main(["check", "--in", path, "--budget", "1"]) == 1
    assert "UNDECIDED" in capsys.readouterr().out


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--workload", "NoSuch", "--impl", "kiwi", "--out", "x.csv"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


_SMALL_RUNS = {
    "bench": ["bench", "--workload", "GetOnly", "--impl", "kiwi", "--key-range", "64",
              "--seconds", "0.05", "--warmup-seconds", "0", "--iterations", "1"],
    "fuzz": ["fuzz", "--ops", "4"],
}


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "--seconds", "0"],
        ["bench", "--seconds", "-1"],
        ["bench", "--seconds", "nan"],
        ["bench", "--seconds", "inf"],
        ["bench", "--warmup-seconds", "-5"],
        ["bench", "--warmup-seconds", "inf"],
        ["bench", "--key-range", "0"],
        ["bench", "--threads", "0"],
        ["fuzz", "--ops", "0"],
        ["fuzz", "--ops", "1"],
        ["fuzz", "--ops", "41"],
        ["fuzz", "--threads", "0"],
        ["check", "--budget", "0"],
        ["check", "--budget", "-1"],
    ],
    ids=" ".join,
)
def test_cli_refuses_out_of_range_numbers_as_usage_errors(tmp_path, capsys, args):
    """A count or a window that cannot mean a run is a usage error: exit
    2, naming the flag, before anything runs, so no CSV or history is
    written and no verdict is printed. Each command line is otherwise a
    small valid run; the fuzz one has two threads, so its --ops must be
    even."""
    out = tmp_path / "out"
    history = tmp_path / "h.jsonl"
    history.write_text('{"meta":{}}\n{"thread":0,"kind":"get","args":[1],"result":null,"invoke":0,"response":1}\n')
    command, flag, value = args
    argv = {
        "bench": [*_SMALL_RUNS["bench"], "--out", str(out)],
        "fuzz": [*_SMALL_RUNS["fuzz"], "--out", str(out)],
        "check": ["check", "--in", str(history)],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, flag, value])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, value, field",
    [
        ("bench", "--threads", "0", "threads"),
        ("bench", "--key-range", "0", "key_range_max"),
        ("bench", "--seconds", "0", "run_seconds"),
        ("bench", "--seconds", "nan", "run_seconds"),
        ("bench", "--seconds", "inf", "run_seconds"),
        ("bench", "--warmup-seconds", "-5", "warmup_seconds"),
        ("bench", "--warmup-seconds", "nan", "warmup_seconds"),
        ("bench", "--warmup-seconds", "inf", "warmup_seconds"),
        ("bench", "--iterations", "0", "iterations"),
        ("fuzz", "--threads", "0", "threads"),
        ("fuzz", "--key-range", "0", "key_range"),
    ],
    ids=str,
)
def test_cli_range_refusals_match_the_config_refusals(tmp_path, capsys, command, flag, value, field):
    """main checks ranges itself, to name the flag in its usage error; each
    such refusal is the config's refusal of the same value, so the two
    lists cannot drift apart unseen."""
    argv = [*_SMALL_RUNS[command], "--out", str(tmp_path / "out"), flag, value]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err
    parsed = getattr(build_parser().parse_args(argv), flag[2:].replace("-", "_"))
    recipe = {"bench": dict(name="GetOnly", threads=1), "fuzz": {}}[command]
    recipe[field] = parsed
    config = WorkloadConfig if command == "bench" else FuzzConfig
    with pytest.raises(ValueError, match=field):
        config(**recipe)


def test_cli_entrypoint_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "kiwi", "check", "--in", "/nonexistent.jsonl"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # missing input is a usage error
    assert "error:" in proc.stderr
