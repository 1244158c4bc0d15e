"""kiwi-map benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 15 --trace 0

Workloads: read_mostly, churn_scan, check_corpus (see README.md).

--trace 0 runs ROUNDS rounds, each a fresh set-up plus a timed window of
seconds / ROUNDS, and reports the end-to-end metrics. --trace 1 runs one
set-up, an untraced window and then a traced window of seconds / 2 each,
and reports the per-layer metrics and the tracing overhead. Timings are
scaled to a nominal host speed by probes run between 0.25 s segments of
each window (README.md, "Speed scaling").

The second-to-last line of standard output is a report: the run's stamp
(git SHA or source digest, interpreter, GIL state, nproc, seed, workload
parameters) and every metric under its operation-kind name. The last
line is the result: {"correct", "attempted", "failed", "metrics"}.
Exits non-zero, printing no result, if the kiwi sources are missing or a
run cannot complete.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ROUNDS = 3


def import_kiwi() -> None:
    """Import kiwi from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "kiwi", "__init__.py")):
        raise SystemExit(f"perfbench: no kiwi sources at {SRC}")
    sys.path.insert(0, SRC)
    import kiwi

    if os.path.dirname(os.path.dirname(os.path.abspath(kiwi.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported kiwi from {kiwi.__file__}, not from {SRC}")


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "kiwi")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def stamp(args: argparse.Namespace, params: dict) -> dict:
    gil = sys._is_gil_enabled() if hasattr(sys, "_is_gil_enabled") else True
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "gil_enabled": gil,
        "nproc": nproc,
        "switch_interval_s": sys.getswitchinterval(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": 1 if args.trace else ROUNDS,
        "params": params,
    }


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(args: argparse.Namespace, workloads: Any, probe: Any) -> tuple[dict, dict, int, int]:
    """End-to-end run: (gated metrics, report metrics, attempted, failed)."""
    kinds = workloads.KINDS[args.workload]
    setup_s, raw_setup_s, mem, checks, speeds = [], [], [], [], []
    scaled: dict[str, list[float]] = {kind: [] for kind in kinds}  # latencies, us
    scaled_seconds = 0.0
    scan_keys = attempted = failed = 0
    errors: list[str] = []
    for r in range(ROUNDS):
        rnd = workloads.Round(args.workload, args.seed * ROUNDS + r, ROOT, probe)
        try:
            segments = rnd.run([args.seconds / ROUNDS])
            extra_attempted, extra_failed = rnd.verify()
        finally:
            rnd.close()
        raw_setup_s.append(rnd.setup_s)
        setup_s.append(rnd.scaled_setup_s)
        mem.append(rnd.mem_bytes_per_item)
        checks.append(rnd.checks)
        attempted += extra_attempted
        failed += extra_failed
        for seg in segments:
            factor = seg.speed / 1e3
            speeds.append(seg.speed)
            scaled_seconds += seg.elapsed * seg.speed
            for log in seg.logs:
                for kind in kinds:
                    scaled[kind] += [ns * factor for ns in log.latencies[kind]]
                scan_keys += log.scan_keys
                attempted += log.attempted
                failed += log.failed
                errors += log.errors
        del rnd, segments
        gc.collect()

    for kind, samples in scaled.items():
        if not samples:
            raise RuntimeError(f"no {kind} completed: {errors[:5]}")
        samples.sort()
    ops_s = {kind: len(v) / scaled_seconds for kind, v in scaled.items()}
    p50 = {kind: percentile(v, 0.50) for kind, v in scaled.items()}
    tail = {kind: percentile(v, workloads.TAIL[kind] / 100) for kind, v in scaled.items()}
    gated = {
        "setup_s": (statistics.median(setup_s), "s"),
        "mem_bytes_per_item": (statistics.median(mem), "B"),
    }
    for role, kind in zip(("primary", "secondary"), kinds):
        gated |= {
            f"{role}_ops_s": (ops_s[kind], "1/s"),
            f"{role}_tail_us": (tail[kind], "us"),
        }
    report: dict[str, Any] = {"setup_s": (statistics.median(setup_s), "s")}
    if args.workload == workloads.CHECK_CORPUS:
        check_us = sorted(scaled["accept"] + scaled["reject"])
        report |= {
            "mem_bytes_per_record": (statistics.median(mem), "B"),
            "check_histories_s": (len(check_us) / scaled_seconds, "1/s"),
            "check_p50_ms": (percentile(check_us, 0.50) / 1e3, "ms"),
            "check_p99_ms": (percentile(check_us, 0.99) / 1e3, "ms"),
        }
    else:
        report["mem_bytes_per_key"] = (statistics.median(mem), "B")
        if args.workload == workloads.READ_MOSTLY:
            report |= {
                "get_ops_s": (ops_s["get"], "1/s"),
                "get_p50_us": (p50["get"], "us"),
                "get_p99_us": (tail["get"], "us"),
            }
        report |= {
            "put_ops_s": (ops_s["put"], "1/s"),
            "put_p50_us": (p50["put"], "us"),
            "put_p95_us": (tail["put"], "us"),
            "put_p99_us": (percentile(scaled["put"], 0.99), "us"),
        }
        if args.workload == workloads.CHURN_SCAN:
            report |= {
                "scan_keys_s": (scan_keys / scaled_seconds, "1/s"),
                "scan_p50_ms": (p50["scan"] / 1e3, "ms"),
                "scan_p95_ms": (tail["scan"] / 1e3, "ms"),
            }
    report["failed_ops"] = (failed / attempted, "share")
    report["latency_us"] = ({
        kind: {"samples": len(v)} | {f"p{q}": percentile(v, q / 100) for q in (50, 90, 95, 99)}
        for kind, v in scaled.items()
    }, "us")
    report["speed"] = ({"median": statistics.median(speeds), "min": min(speeds), "max": max(speeds)}, "")
    report["raw_setups_s"] = (raw_setup_s, "s")
    report["quiescent_checks"] = (checks, "")
    report["errors"] = (errors[:5], "")
    return gated, report, attempted, failed


def scaled_rate(segments: list, kind: str) -> float:
    """Operations of one kind per speed-scaled second over the segments."""
    done = sum(len(log.latencies[kind]) for seg in segments for log in seg.logs)
    return done / sum(seg.elapsed * seg.speed for seg in segments)


def traced(args: argparse.Namespace, workloads: Any, probe: Any) -> tuple[dict, dict, int, int]:
    """Traced run: (per-layer metrics, report extras, attempted, failed)."""
    import layers
    import spans

    empty_span_us = spans.empty_span_us()
    tracer = spans.Tracer()
    if args.workload == workloads.CHECK_CORPUS:
        # save_history and load_history do their work in this set-up
        layers.install(tracer)
    try:
        rnd = workloads.Round(args.workload, args.seed * ROUNDS, ROOT, probe)
    finally:
        tracer.restore()
    try:
        try:
            segments = rnd.run(
                [args.seconds / 2, args.seconds / 2],
                between=lambda w: layers.install(tracer) if w == 1 else None,
            )
        finally:
            tracer.restore()
        tracer.require_calls(layers.EXPECTED[args.workload])
        attempted, failed = rnd.verify()
    finally:
        rnd.close()
    metrics = layers.span_metrics(tracer.rows())

    is_map = args.workload != workloads.CHECK_CORPUS
    slack = 0
    if args.workload == workloads.CHURN_SCAN:
        slack = rnd.map.size_upper_bound() - rnd.map.size_lower_bound()
    metrics["bounds.slack"] = (slack, "count")
    metrics["core.chunks.after_prefill"] = (rnd.chunks_after_prefill if is_map else 0, "count")
    nodes = 0
    if not is_map:
        if len(rnd.nodes_by_index) != len(rnd.corpus):
            raise RuntimeError(
                f"traced run checked {len(rnd.nodes_by_index)} of {len(rnd.corpus)} histories; "
                "the corpus node total needs every one"
            )
        nodes = sum(rnd.nodes_by_index.values())
    metrics["checker.check_linearizable.nodes"] = (nodes, "count")
    metrics["trace.empty_span_us"] = (empty_span_us, "us")
    windows = {"untraced": [s for s in segments if s.window == 0], "traced": [s for s in segments if s.window == 1]}
    for kind in layers.OVERHEAD_KINDS:
        for label, window in windows.items():
            value = scaled_rate(window, kind) if kind in rnd.kinds else 0.0
            metrics[f"trace.{kind}_ops_s.{label}"] = (value, "1/s")
    logs = rnd.logs
    attempted += sum(log.attempted for log in logs)
    failed += sum(log.failed for log in logs)
    report = {
        "failed_ops": (failed / attempted, "share"),
        "quiescent_checks": (rnd.checks, ""),
        "errors": ([e for log in logs for e in log.errors][:5], ""),
    }
    return metrics, report, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_kiwi()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run_stamp = stamp(args, workloads.PARAMS[args.workload])
    # Under the GIL one client runs at a time. Handing the GIL to a thread
    # on the other vCPU waits for that vCPU to wake, which on a VM swings
    # with host load, so both clients share one CPU.
    if hasattr(os, "sched_setaffinity"):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        run_stamp["pinned_cpu"] = cpu
    probe = workloads.SpeedProbe()
    metrics, report, attempted, failed = (traced if args.trace else measure)(args, workloads, probe)
    report_line = {
        "stamp": run_stamp,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in report.items()},
    }
    print(json.dumps({"report": report_line}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
