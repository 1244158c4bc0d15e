"""Module-structure audits: core and rebalance import each other once, at
module level, so no function pays for an import statement on each call,
and each module still imports first in a fresh interpreter. A budget test
pins the map's construction knobs, a chunk's slots, the size bounds'
parameters and slots, the list insert's, compaction's and the bench map
factory's parameters, the atomic counter's and the thread registry's
methods, the fuzz recipe's and the bench config's fields and the package
exports, so adding one has to edit it openly. The tests start threads
only through tests/interleave.py, whose harness fails a test with what
its worker raised."""

import ast
import dataclasses
import inspect
import pathlib
import subprocess
import sys

import pytest

import kiwi
from kiwi import atomics, bench, core, rebalance


@pytest.mark.parametrize("module", [core, rebalance], ids=lambda m: m.__name__)
def test_no_function_imports(module):
    tree = ast.parse(inspect.getsource(module))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imports = [node for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not imports, f"{module.__name__}.{fn.name} imports inside the function"


def test_only_the_harness_constructs_threads():
    constructing = set()
    for path in pathlib.Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "Thread" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                constructing.add(path.name)
    assert constructing == {"interleave.py"}


@pytest.mark.parametrize("name", ["kiwi.core", "kiwi.rebalance"])
def test_module_imports_in_a_fresh_interpreter(name):
    proc = subprocess.run([sys.executable, "-c", f"import {name}"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_knob_and_export_budget():
    assert list(inspect.signature(kiwi.KiwiMap.__init__).parameters) == [
        "self", "max_threads", "max_items", "bounds_enabled", "rng",
    ]
    # The index alone records chunk bounds: a chunk holds only its contents.
    assert core.Chunk.__slots__ == (
        "capacity", "order", "keys", "data", "bits", "ppa", "sorted_prefix_len", "frozen", "list_size",
    )
    assert list(inspect.signature(core.Chunk.__init__).parameters) == ["self", "capacity", "max_threads"]
    # One atomic counter per bound, so no hook or list insert takes a thread slot.
    assert list(inspect.signature(kiwi.BoundsCounters.__init__).parameters) == ["self", "enabled"]
    assert kiwi.BoundsCounters.__slots__ == ("enabled", "_lower", "_upper")
    counters = kiwi.BoundsCounters(True)
    assert type(counters._lower) is type(counters._upper) is atomics.AtomicInt
    assert list(inspect.signature(kiwi.KiwiMap.add_to_linked_list).parameters) == ["self", "chunk", "idx"]
    # help_pending_puts fences and reads the global version itself.
    assert list(inspect.signature(kiwi.KiwiMap.help_pending_puts).parameters) == ["self", "chunk", "lo", "hi"]
    # Compaction reads the output's size from its input chunk.
    assert list(inspect.signature(rebalance.copy_compact).parameters) == ["chunk", "min_active_scan"]
    assert list(inspect.signature(bench.make_map).parameters) == ["impl", "threads", "bounds_enabled"]
    public = {name for name in vars(atomics.AtomicInt) if not name.startswith("_")}
    assert public == {"get", "fetch_add"}
    # Thread slots only: the fuzzer pauses a map from outside, by sys.settrace.
    assert {name for name in vars(core.ThreadRegistry) if not name.startswith("_")} == {
        "register_thread", "unregister_thread",
    }
    assert [field.name for field in dataclasses.fields(kiwi.FuzzConfig)] == [
        "threads", "ops_per_thread", "key_range", "seed", "mix",
        "delay_prob", "delay_max_s", "max_items", "bounds_enabled", "scan_span",
    ]
    # init_size is derived from the key range, not a knob.
    assert [field.name for field in dataclasses.fields(kiwi.WorkloadConfig)] == [
        "name", "threads", "key_range_max", "scan_span", "warmup_seconds",
        "run_seconds", "iterations", "seed", "ops_budget",
    ]
    assert kiwi.__all__ == [
        "BoundsCounters", "BoundsDisabledError", "CheckResult", "EXHAUSTED",
        "FuzzConfig", "History", "HistoryFormatError", "IMPLS", "KiwiMap",
        "LINEARIZABLE", "LockedSortedMap", "MeasurementResult", "NOT_LINEARIZABLE", "OpRecord",
        "RegistrationError", "TOMBSTONE", "WORKLOADS", "WorkloadConfig",
        "check_linearizable", "emit_results", "generate_ops",
        "load_history", "oracle_apply", "oracle_replay",
        "record_locked_oracle_run", "record_run", "run_workload", "save_history",
        "steady_state_init_size", "validate_put_only_final_state",
    ]
