"""Paired before/after runs of the benchmark, written as one BENCH file.

    python3 tools/pairs.py --parent DIR --change DIR --out BENCH_<n>.json

DIR is a checkout (a git clone or an exported tree) holding perfbench/
and src/. For every workload that the change checkout's BENCHMARK.json
declares, each of PAIRS (10) pairs runs that file's command in both
checkouts, each with its own perfbench/ and sources:

    <command> --workload W --seed S --seconds <run_seconds> --trace 0

Both sides of pair i (from 0) share seed i + 1, and the side that runs
first alternates: the parent in even pairs, the change in odd ones. The
pairs run one after another, each over every workload, so slow drift of
the host spreads over both sides.

The file holds each side's stamps and, per workload and end-to-end
metric, every run (null where the run failed), each side's median,
quartiles and IQR/median, the per-pair change/parent ratios, the pairs
in which both runs completed, the pairs the change won in the metric's
better direction (ties count for neither), and a verdict against the
metric's bound, the first of these that holds:

    no_runs       a side has no completed run
    unresolved    the parent's IQR/median exceeds the bound: the spread
                  of its own runs is too wide to tell the change apart,
                  unless every run of the change beats every run of the
                  parent and no run failed
    worse         the change's median is worse than the parent's by more
                  than the bound
    better        the change won at least nine tenths of all pairs run,
                  its median beats the parent's by more than the
                  parent's IQR, and no larger share of its operations
                  failed than of the parent's
    within_bound  none of these

Per workload and side it also holds the runs failed and attempted, and
the benchmark's own count of failed and attempted operations.
Exits 1 if any run failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Any, Optional

SIDES = ("parent", "change")
PAIRS = 10
RUN_TIMEOUT_S = 900
# Stamp fields that differ from run to run of one checkout.
PER_RUN_STAMP = ("workload", "seed", "params", "pinned_cpu")


def summarize(values: list[Optional[float]]) -> dict[str, Any]:
    """Median, quartiles and IQR/median of the completed runs (None
    entries are failed runs). IQR/median is inf when the median is 0 and
    the runs differ."""
    done = sorted(v for v in values if v is not None)
    if not done:
        return {"runs": values, "median": None, "q1": None, "q3": None, "iqr_over_median": None}
    if len(done) == 1:
        q1 = med = q3 = done[0]
    else:
        q1, med, q3 = statistics.quantiles(done, n=4, method="inclusive")
    iqr = q3 - q1
    return {"runs": values, "median": med, "q1": q1, "q3": q3, "iqr_over_median": relative(iqr, med)}


def relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.inf


def compare(
    parent: list[Optional[float]], change: list[Optional[float]], better: str, bound: float, fails_more: bool
) -> dict[str, Any]:
    """The statistics of one metric's paired runs, and its verdict.
    parent[i] and change[i] are pair i's runs (None where a run failed);
    fails_more says that a larger share of the change's operations
    failed than of the parent's."""
    sign = 1 if better == "higher" else -1
    p, c = summarize(parent), summarize(change)
    pairs = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
    ratios = [b / a for a, b in pairs if a]
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    out = {
        "parent": p,
        "change": c,
        "ratio": {"median": statistics.median(ratios), "min": min(ratios), "max": max(ratios)} if ratios else None,
        "wins": wins,
        "pairs_completed": len(pairs),
    }
    if p["median"] is None or c["median"] is None:
        verdict = "no_runs"
    elif p["iqr_over_median"] > bound and not (
        len(pairs) == len(parent) and min(sign * b for b in change) > max(sign * a for a in parent)
    ):
        verdict = "unresolved"
    elif relative(sign * (p["median"] - c["median"]), p["median"]) > bound:
        verdict = "worse"
    elif wins >= 0.9 * len(parent) and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"] and not fails_more:
        verdict = "better"
    else:
        verdict = "within_bound"
    out["verdict"] = verdict
    return out


def run_side(checkout: str, command: list[str], workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One benchmark run in checkout: {"stamp", "result"}, or {"error"}."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return {"error": str(exc)}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"error": f"exit {proc.returncode}: {tail}"}
    try:
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    except (ValueError, KeyError) as exc:
        return {"error": f"unreadable output: {exc}"}
    return {"stamp": report["stamp"], "result": result}


def run_pairs(dirs: dict[str, str], bench: dict, pairs: int = PAIRS) -> dict[str, Any]:
    """Run the pairs and build the BENCH record."""
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    runs: dict[str, dict[str, list]] = {w: {side: [] for side in SIDES} for w in workloads}
    seeds = list(range(1, pairs + 1))
    order = [SIDES if i % 2 == 0 else SIDES[::-1] for i in range(pairs)]
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for side in order[i]:
                run = run_side(dirs[side], bench["command"], workload, seed, seconds)
                runs[workload][side].append(run)
                status = run.get("error", "ok")
                print(f"pair {i + 1}/{pairs} seed {seed} {workload} {side}: {status}", file=sys.stderr, flush=True)

    stamps: dict[str, list] = {side: [] for side in SIDES}
    out_workloads = {}
    for workload in workloads:
        sides = {}
        for side in SIDES:
            done = [r for r in runs[workload][side] if "result" in r]
            for r in done:
                stamp = {k: v for k, v in r["stamp"].items() if k not in PER_RUN_STAMP}
                if stamp not in stamps[side]:
                    stamps[side].append(stamp)
            sides[side] = {
                "runs_attempted": pairs,
                "runs_failed": pairs - len(done),
                "ops_attempted": sum(r["result"]["attempted"] for r in done),
                "ops_failed": sum(r["result"]["failed"] for r in done),
                "errors": [r["error"] for r in runs[workload][side] if "error" in r],
            }
        share = {side: relative(sides[side]["ops_failed"], sides[side]["ops_attempted"]) for side in SIDES}
        metrics = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["result"]["metrics"][name]["value"] if "result" in r else None for r in runs[workload][side]]
                for side in SIDES
            }
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **compare(
                    values["parent"], values["change"], metric["better"], metric["bound"], share["change"] > share["parent"]
                ),
            }
        out_workloads[workload] = {"sides": sides, "metrics": metrics}
    return {
        "command": bench["command"],
        "seconds": seconds,
        "trace": 0,
        "pairs": pairs,
        "seeds": seeds,
        "first": [o[0] for o in order],
        "stamps": stamps,
        "workloads": out_workloads,
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, path in dirs.items():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            parser.error(f"--{side} {path}: no perfbench/run.py")
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    record = run_pairs(dirs, bench)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    failed = sum(s["runs_failed"] for w in record["workloads"].values() for s in w["sides"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
