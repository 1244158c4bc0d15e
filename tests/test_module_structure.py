"""Module-structure audits: the package's modules import one another at
their tops only, and with no cycle (the map's layers stack as atomics <-
chunk <- rebalance <- core), so no function pays for an import statement
on each call, and each module still imports first in a fresh
interpreter. Readers reach a chunk's PPA only through help_pending_puts,
which fences first. Chunk.alloc alone builds a put's entry, under the
stripe freezing takes. A budget test pins the map's construction knobs, a chunk's
slots, the size bounds' parameters and slots, the list insert's,
compaction's and the bench map factory's parameters, the atomic
counter's and the thread registry's methods, the fuzz recipe's and the
bench config's fields, each CLI subcommand's options and the package
exports, so adding one has to edit it openly. The fuzzer calls the method each history kind names, so every
kind is a method of both maps. The package and its tests start threads
only through kiwi.workers, whose harness fails its caller with what a
worker raised, or at a deadline with the workers still running."""

import argparse
import ast
import dataclasses
import graphlib
import inspect
import pathlib
import subprocess
import sys
import textwrap

import pytest

import kiwi
from kiwi import atomics, bench, bounds, chunk, cli, core, fuzz, history, rebalance


@pytest.mark.parametrize("module", [chunk, core, rebalance], ids=lambda m: m.__name__)
def test_no_function_imports(module):
    tree = ast.parse(inspect.getsource(module))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            imports = [node for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
            assert not imports, f"{module.__name__}.{fn.name} imports inside the function"


def package_modules(node):
    """The short names of the package modules an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        return [node.module] if node.module else [alias.name for alias in node.names]
    names = [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
    return [name.split(".")[1] for name in names if name.startswith("kiwi.")]


def test_layering():
    """chunk builds on atomics alone and rebalance on chunk, never on the
    map above it; every module imports before its first definition, and
    the package's import graph has no cycle."""
    graph = {}
    for path in pathlib.Path(kiwi.__file__).parent.glob("*.py"):
        body = [node for node in ast.parse(path.read_text()).body if not isinstance(node, ast.Expr)]
        imports = [node for node in body if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert body[: len(imports)] == imports, f"{path.name} imports after its first definition"
        graph[path.stem] = {name for node in imports for name in package_modules(node)}
    assert graph["chunk"] <= {"atomics"}, graph["chunk"]
    assert "core" not in graph["rebalance"]
    tuple(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def function_tree(fn):
    return ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]


def test_readers_reach_the_ppa_only_through_help_pending_puts_fence_first():
    """get, scan and copy_range read no PPA cell: a reader's one pass over
    it is help_pending_puts, whose first statement (after its docstring)
    is the fence, so no reader meets a PPA cell or the global version
    unfenced."""
    for fn in (core.KiwiMap.get, core.KiwiMap.scan, rebalance.copy_range):
        reads = [node for node in ast.walk(function_tree(fn)) if isinstance(node, ast.Attribute) and node.attr == "ppa"]
        assert not reads, f"{fn.__qualname__} reads .ppa on line {reads[0].lineno}"
    body = function_tree(core.KiwiMap.help_pending_puts).body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    first = body[0]
    assert (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Call)
        and isinstance(first.value.func, ast.Name)
        and first.value.func.id == "full_fence"
    ), f"help_pending_puts starts with {ast.unparse(first)!r}, not full_fence()"


def test_alloc_alone_writes_a_slot_under_the_stripe_freezing_takes():
    """Chunk.alloc builds a put's entry, so KiwiMap.put constructs none.
    alloc and freeze_chunk each take word_lock of the chunk, the one
    lookup of a stripe that kiwi.chunk may use: it imports no underscore
    name from kiwi.atomics, so no copy of the stripe hash can drift."""
    tree = ast.parse(inspect.getsource(chunk))
    private = [
        alias.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.module == "atomics"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not private, f"kiwi.chunk imports {private} from kiwi.atomics"
    for fn, owner in ((core.Chunk.alloc, "self"), (rebalance.freeze_chunk, "chunk")):
        nodes = list(ast.walk(function_tree(fn)))
        tables = [ast.unparse(n) for n in nodes if isinstance(n, ast.Subscript) and "LOCK" in ast.unparse(n.value)]
        assert not tables, f"{fn.__qualname__} indexes a stripe table: {tables}"
        calls = [ast.unparse(n) for n in nodes if isinstance(n, ast.Call) and ast.unparse(n.func) == "word_lock"]
        assert calls == [f"word_lock({owner})"], f"{fn.__qualname__} takes {calls}"
    built = [
        node.lineno for node in ast.walk(function_tree(core.KiwiMap.put))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "OrderEntry"
    ]
    assert not built, f"KiwiMap.put constructs an OrderEntry on line {built[0]}"


def test_only_the_harness_constructs_threads():
    constructing = set()
    for package in (pathlib.Path(kiwi.__file__).parent, pathlib.Path(__file__).parent):
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and "Thread" in (
                    getattr(node.func, "attr", None), getattr(node.func, "id", None)
                ):
                    constructing.add(f"{package.name}/{path.name}")
    assert constructing == {"kiwi/workers.py"}


def test_every_history_kind_names_a_method_of_both_maps():
    """The fuzzer runs an op as getattr(target, kind)(*args): every history
    kind is a method of both maps, the mix kinds are those plus "delete",
    and _run_op tells apart only put (a None value is a tombstone) and
    scan (its list is recorded as a tuple)."""
    for cls in (kiwi.KiwiMap, kiwi.LockedSortedMap):
        for kind in history.KINDS:
            assert callable(getattr(cls, kind, None)), f"{cls.__name__} has no method {kind}"
    assert sorted(fuzz.MIX_KINDS) == sorted(("delete", *history.KINDS))
    compared = set()
    for node in ast.walk(function_tree(fuzz._run_op)):
        if isinstance(node, ast.Compare):
            sides = {ast.unparse(side) for side in (node.left, *node.comparators)}
            if "kind" in sides:
                compared |= sides - {"kind"}
    assert compared == {"PUT", "SCAN"}


@pytest.mark.parametrize("name", ["kiwi.chunk", "kiwi.core", "kiwi.rebalance"])
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
    assert list(inspect.signature(bounds.BoundsCounters.__init__).parameters) == ["self", "enabled"]
    assert bounds.BoundsCounters.__slots__ == ("enabled", "_lower", "_upper")
    counters = bounds.BoundsCounters(True)
    assert type(counters._lower) is type(counters._upper) is atomics.AtomicInt
    assert list(inspect.signature(kiwi.KiwiMap.add_to_linked_list).parameters) == ["self", "chunk", "idx"]
    # help_pending_puts fences and reads the global version itself, and
    # ranks the pending puts at or below the reader's version.
    assert list(inspect.signature(kiwi.KiwiMap.help_pending_puts).parameters) == [
        "self", "chunk", "lo", "hi", "version",
    ]
    # Compaction reads the output's size from its input chunk.
    assert list(inspect.signature(rebalance.copy_compact).parameters) == ["chunk", "min_active_scan"]
    # Every reader hands copy_range its pending-put ranking.
    copy_range = inspect.signature(rebalance.copy_range).parameters
    assert list(copy_range) == ["chunk", "lo", "hi", "scan_version", "ppa_best"]
    assert all(p.default is inspect.Parameter.empty for p in copy_range.values())
    # One recorder: it records against the map it is handed.
    assert list(inspect.signature(fuzz.record_run).parameters) == ["config", "target"]
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
        "name", "threads", "key_range_max", "run_seconds", "iterations", "seed", "ops_budget",
    ]
    commands = next(
        action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)
    ).choices
    assert {
        name: [option for action in parser._actions for option in action.option_strings]
        for name, parser in commands.items()
    } == {
        "bench": [
            "-h", "--help", "--workload", "--impl", "--threads", "--key-range", "--seconds",
            "--iterations", "--seed", "--debug-bounds", "--out",
        ],
        "fuzz": ["-h", "--help", "--threads", "--ops", "--key-range", "--seed", "--out", "--check", "--budget"],
        "check": ["-h", "--help", "--in", "--budget"],
    }
    assert kiwi.__all__ == [
        "BoundsDisabledError", "CheckResult", "EXHAUSTED",
        "FuzzConfig", "History", "HistoryFormatError", "IMPLS", "KiwiMap",
        "LINEARIZABLE", "LockedSortedMap", "MeasurementResult", "NOT_LINEARIZABLE", "OpRecord",
        "RegistrationError", "TOMBSTONE", "WORKLOADS", "WorkloadConfig",
        "check_linearizable", "emit_results", "generate_ops",
        "load_history", "oracle_apply", "record_run", "run_workload", "save_history",
        "steady_state_init_size", "validate_put_only_final_state",
    ]
