"""Command-line interface: benchmark runs, fuzzed histories, checking.

Exit codes: 0 success, 1 a checked history is not linearizable, 2 usage
errors (argparse's convention), unusable files and stuck workers.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .bench import IMPLS, WORKLOADS, MeasurementResult, WorkloadConfig, emit_results, run_workload
from .checker import EXHAUSTED, NOT_LINEARIZABLE, check_linearizable
from .fuzz import FuzzConfig, record_run
from .history import load_history, save_history


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kiwi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a benchmark workload and emit CSV")
    bench.add_argument("--workload", required=True, choices=WORKLOADS)
    bench.add_argument("--impl", required=True, choices=IMPLS)
    bench.add_argument("--threads", type=int, default=1)
    bench.add_argument("--key-range", type=int, default=2_000_000)
    bench.add_argument("--seconds", type=float, default=5.0, help="measured window per iteration")
    bench.add_argument("--warmup-seconds", type=float, default=20.0)
    bench.add_argument("--iterations", type=int, default=10)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--debug-bounds", action="store_true",
                       help="enable size bounds and assert the quiescent bracket per iteration")
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.set_defaults(run=cmd_bench)

    fuzz = sub.add_parser("fuzz", help="record one fuzzed concurrent history")
    fuzz.add_argument("--threads", type=int, default=2)
    fuzz.add_argument("--ops", type=int, default=40,
                      help="total operations across threads, a multiple of --threads")
    fuzz.add_argument("--key-range", type=int, default=8)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--out", required=True, help="history output path (JSON lines)")
    fuzz.add_argument("--check", action="store_true", help="check the recorded history")
    fuzz.add_argument("--budget", type=int, default=500_000)
    fuzz.set_defaults(run=cmd_fuzz)

    check = sub.add_parser("check", help="check a saved history for linearizability")
    check.add_argument("--in", dest="input", required=True, help="history path")
    check.add_argument("--budget", type=int, default=500_000)
    check.set_defaults(run=cmd_check)

    return parser


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = WorkloadConfig(
        name=args.workload,
        threads=args.threads,
        key_range_max=args.key_range,
        warmup_seconds=args.warmup_seconds,
        run_seconds=args.seconds,
        iterations=args.iterations,
        seed=args.seed,
    )
    result = run_workload(cfg, args.impl, bounds_debug=args.debug_bounds)
    emit_results([result], args.out)
    _print_result(result)
    print(f"wrote {args.out}")
    return 0


def _print_result(result: MeasurementResult) -> None:
    for row in result.rows():
        print(
            f"{row['workload']} impl={row['impl']} threads={row['threads']} "
            f"{row['op_kind']}: {row['mean_ops_per_sec']} ops/s "
            f"(stddev {row['stddev']}, n={row['iterations']})"
        )


def cmd_fuzz(args: argparse.Namespace) -> int:
    config = FuzzConfig(
        threads=args.threads,
        ops_per_thread=args.ops // args.threads,
        key_range=args.key_range,
        seed=args.seed,
    )
    history = record_run(config)
    save_history(history, args.out)
    print(f"recorded {len(history.records)} operations across {args.threads} threads -> {args.out}")
    if args.check:
        return _report_check(history, args.budget)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    history = load_history(args.input)
    return _report_check(history, args.budget)


def _report_check(history, budget: int) -> int:
    result = check_linearizable(history, node_budget=budget)
    if result.status == NOT_LINEARIZABLE:
        print(f"NOT LINEARIZABLE ({result.nodes_used} nodes searched)")
        print("longest serializable prefix:")
        for rec in result.witness:
            print(f"  {rec.to_json()}")
        return 1
    if result.status == EXHAUSTED:
        print(f"UNDECIDED: node budget {budget} exhausted")
        return 1
    print(f"linearizable ({result.nodes_used} nodes searched)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("threads", "key_range", "iterations", "ops", "budget"):
        if not getattr(args, name, 1) > 0:  # NaN fails too
            parser.error(f"--{name.replace('_', '-')} must be above 0")
    if not 0 < getattr(args, "seconds", 1) < math.inf:
        parser.error("--seconds must be finite and above 0")
    if not 0 <= getattr(args, "warmup_seconds", 0) < math.inf:
        parser.error("--warmup-seconds must be finite and at least 0")
    if args.command == "fuzz" and args.ops % args.threads:
        parser.error("--ops must be a multiple of --threads")
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
