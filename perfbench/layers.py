"""The traced run's layer boundaries: which kiwi functions are wrapped,
which must run on each workload, and the per-layer metrics read from
their spans. README.md maps each metric to the end-to-end metric and
workload it should move."""

from __future__ import annotations

from kiwi import atomics, bounds, checker, core, history, rebalance
from spans import CALLS, SELF_NS, TOTAL_NS, Tracer
from workloads import CHECK_CORPUS, CHURN_SCAN, READ_MOSTLY

_OUTCOMES = (core.InsertOutcome.INSERTED, core.InsertOutcome.OVERWROTE, core.InsertOutcome.ALREADY_LINKED)


def _count_returned(row: list, args: tuple, result: list) -> None:
    row[3] += len(result)


def _count_none(row: list, args: tuple, result: object) -> None:
    if result is None:
        row[3] += 1


def _count_false(row: list, args: tuple, result: bool) -> None:
    if not result:
        row[3] += 1


def _count_true(row: list, args: tuple, result: bool) -> None:
    if result:
        row[3] += 1


def _count_outcome(row: list, args: tuple, result: core.InsertOutcome) -> None:
    row[3 + _OUTCOMES.index(result.kind)] += 1


def _count_compaction(row: list, args: tuple, result: list) -> None:
    """Entries in the frozen list; entries, distinct keys and chunks out."""
    row[3] += args[0].list_size.get()
    row[6] += len(result)
    for chunk in result:
        entries = chunk.order[1 : chunk.allocated_bound()]
        row[4] += len(entries)
        row[5] += len({entry.key for entry in entries})


def _count_nodes(row: list, args: tuple, result: checker.CheckResult) -> None:
    row[3] += result.nodes_used


def install(tracer: Tracer) -> None:
    method, function = tracer.wrap_method, tracer.wrap_function
    KiwiMap = core.KiwiMap
    method("core.find_chunk", KiwiMap, "find_chunk")
    method("core.get", KiwiMap, "get")
    method("core.put", KiwiMap, "put")
    method("core.scan", KiwiMap, "scan")
    method("core.help_pending_puts", KiwiMap, "help_pending_puts", _count_returned, 1)
    function("core.find_insertion_location", core, "find_insertion_location")
    method("core.add_to_linked_list", KiwiMap, "add_to_linked_list", _count_outcome, 3)
    method("core.Chunk.alloc", core.Chunk, "alloc", _count_none, 1)
    for cas in ("cas_version", "cas_next", "cas_data_index"):
        method(f"core.OrderEntry.{cas}", core.OrderEntry, cas, _count_false, 1)
    function("atomics.full_fence", atomics, "full_fence")
    function("atomics.store_fence", atomics, "store_fence")
    function("rebalance.check_rebalance", rebalance, "check_rebalance", _count_true, 1)
    function("rebalance.freeze_chunk", rebalance, "freeze_chunk")
    function("rebalance.help_frozen_chunk_puts", rebalance, "help_frozen_chunk_puts")
    function("rebalance.copy_compact", rebalance, "copy_compact", _count_compaction, 4)
    function("rebalance.copy_range", rebalance, "copy_range", _count_returned, 1)
    for hook in ("on_put_published", "update_count_after_insert", "update_count_after_overwrite"):
        method(f"bounds.{hook}", bounds.BoundsCounters, hook)
    function("checker.check_linearizable", checker, "check_linearizable", _count_nodes, 1)
    function("checker.oracle_apply", checker, "oracle_apply")
    method("history.History.validate", history.History, "validate")
    function("history.save_history", history, "save_history")
    function("history.load_history", history, "load_history")


_PUT_PATH = [
    "core.put", "core.find_chunk", "core.Chunk.alloc", "atomics.store_fence",
    "core.OrderEntry.cas_version", "core.add_to_linked_list", "core.find_insertion_location",
    "core.OrderEntry.cas_next", "rebalance.check_rebalance", "bounds.on_put_published",
]

# Spans each workload must exercise; zero calls on one fails the run.
EXPECTED = {
    READ_MOSTLY: _PUT_PATH + ["core.get", "core.help_pending_puts", "atomics.full_fence"],
    CHURN_SCAN: _PUT_PATH + [
        "core.scan", "core.help_pending_puts", "atomics.full_fence", "rebalance.copy_range",
        "rebalance.freeze_chunk", "rebalance.help_frozen_chunk_puts", "rebalance.copy_compact",
        "bounds.update_count_after_insert",
    ],
    CHECK_CORPUS: [
        "checker.check_linearizable", "checker.oracle_apply", "history.History.validate",
        "history.save_history", "history.load_history",
    ],
}


# Operation kinds whose traced and untraced rates give the tracing overhead.
OVERHEAD_KINDS = ("get", "put", "scan", "accept", "reject")


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(rows: dict[str, list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics read from merged span rows."""
    out: dict[str, tuple[float, str]] = {}

    def calls(span: str) -> int:
        out[f"{span}.calls"] = (rows[span][CALLS], "count")
        return rows[span][CALLS]

    def mean_us(span: str, stat: str = "us") -> None:
        row = rows[span]
        ns = row[SELF_NS] if stat == "self_us" else row[TOTAL_NS]
        out[f"{span}.{stat}"] = (_per(ns, row[CALLS]) / 1000.0, "us")

    def count(span: str, stat: str, index: int) -> int:
        out[f"{span}.{stat}"] = (rows[span][index], "count")
        return rows[span][index]

    for span in ("core.find_chunk", "core.find_insertion_location", "atomics.full_fence",
                 "atomics.store_fence", "rebalance.help_frozen_chunk_puts",
                 "bounds.on_put_published", "bounds.update_count_after_insert",
                 "bounds.update_count_after_overwrite", "history.History.validate",
                 "history.save_history", "history.load_history"):
        calls(span)
        mean_us(span)
    for span in ("core.get", "core.put", "core.scan", "checker.oracle_apply"):
        calls(span)
        mean_us(span, "self_us")

    calls("core.help_pending_puts")
    mean_us("core.help_pending_puts")
    count("core.help_pending_puts", "returned", 3)

    calls("core.add_to_linked_list")
    mean_us("core.add_to_linked_list", "self_us")
    for i, outcome in enumerate(("inserted", "overwrote", "already_linked")):
        count("core.add_to_linked_list", outcome, 3 + i)

    calls("core.Chunk.alloc")
    count("core.Chunk.alloc", "full", 3)
    for cas in ("cas_version", "cas_next", "cas_data_index"):
        calls(f"core.OrderEntry.{cas}")
        count(f"core.OrderEntry.{cas}", "failed", 3)

    calls("rebalance.check_rebalance")
    count("rebalance.check_rebalance", "true", 3)
    calls("rebalance.freeze_chunk")

    span = "rebalance.copy_compact"
    calls(span)
    mean_us(span)
    row = rows[span]
    count(span, "chunks_out", 6)
    out[f"{span}.us_per_entry"] = (_per(row[TOTAL_NS], row[3]) / 1000.0, "us")
    out[f"{span}.versions_per_key"] = (_per(row[4], row[5]), "versions/key")

    span = "rebalance.copy_range"
    calls(span)
    mean_us(span)
    keys = count(span, "keys_out", 3)
    out[f"{span}.us_per_key"] = (_per(rows[span][TOTAL_NS], keys) / 1000.0, "us")

    span = "checker.check_linearizable"
    calls(span)
    mean_us(span)
    out[f"{span}.us_per_node"] = (_per(rows[span][TOTAL_NS], rows[span][3]) / 1000.0, "us")
    return out
