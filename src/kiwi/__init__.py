"""Chunked multi-version concurrent sorted map with linearizable size
bounds, a linearizability fuzzing harness, and a benchmark CLI."""

from .bench import (
    IMPLS,
    WORKLOADS,
    MeasurementResult,
    WorkloadConfig,
    emit_results,
    run_workload,
    steady_state_init_size,
)
from .bounds import BoundsDisabledError
from .checker import (
    EXHAUSTED,
    LINEARIZABLE,
    NOT_LINEARIZABLE,
    CheckResult,
    check_linearizable,
    oracle_apply,
    validate_put_only_final_state,
)
from .core import TOMBSTONE, KiwiMap, RegistrationError
from .fuzz import FuzzConfig, generate_ops, record_run
from .history import History, HistoryFormatError, OpRecord, load_history, save_history
from .reference import LockedSortedMap

__version__ = "0.1.0"

__all__ = [
    "BoundsDisabledError",
    "CheckResult",
    "EXHAUSTED",
    "FuzzConfig",
    "History",
    "HistoryFormatError",
    "IMPLS",
    "KiwiMap",
    "LINEARIZABLE",
    "LockedSortedMap",
    "MeasurementResult",
    "NOT_LINEARIZABLE",
    "OpRecord",
    "RegistrationError",
    "TOMBSTONE",
    "WORKLOADS",
    "WorkloadConfig",
    "check_linearizable",
    "emit_results",
    "generate_ops",
    "load_history",
    "oracle_apply",
    "record_run",
    "run_workload",
    "save_history",
    "steady_state_init_size",
    "validate_put_only_final_state",
]
