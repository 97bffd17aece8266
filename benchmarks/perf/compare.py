#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/perf/compare.py BEFORE.json AFTER.json

Each file holds the runs ``run.py --out FILE`` appended (typically ten
seeds per workload).  One row per (workload, end-to-end metric): both
medians, AFTER's change relative to BEFORE, the bound from
``BENCHMARK.json`` and a verdict:

* ``ok`` — AFTER's median is not worse than BEFORE's by more than the
  bound, or every AFTER run reads better than every BEFORE run;
* ``unresolved`` — one side's own spread (interquartile distance over
  median) exceeds the bound, so a change of that size cannot be told
  from noise;
* ``worse`` — AFTER's median is worse by more than the bound.

``setup_s`` is judged on its medians alone and is never ``unresolved``.
This matches the benchmark contract, which exempts set-up from the
spread rule and gives it the largest bound instead.  On ``learn_cold``
set-up is a 0.3 s interpreter start, whose speed drifts with the
machine's over minutes.

It also flags a rise in the share of failed operations, and, on seeds
both files ran, a change of spec precision or recall at τ = 0.6 by
more than 0.02 (absolute; quality is deterministic per seed, so this
gate needs no spread).  Exit status 1 on any ``worse``,
``unresolved`` or flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import load_benchmark, spread  # noqa: E402

#: the ROADMAP's quality gate for changes to the model
QUALITY_TOLERANCE = 0.02
QUALITY = ("spec_precision", "spec_recall")
MEDIAN_ONLY = {"setup_s"}


def load_runs(path: Path) -> Dict[str, List[Dict]]:
    by_workload: Dict[str, List[Dict]] = {}
    for run in json.loads(path.read_text())["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def verdict(before: List[float], after: List[float], bound: float,
            lower_is_better: bool, median_only: bool = False) -> str:
    sign = 1.0 if lower_is_better else -1.0
    worse_by = sign * (median(after) - median(before)) / median(before)
    if lower_is_better:
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if all_better:
        return "ok"
    if not median_only and max(spread(before), spread(after)) > bound:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def error_ratio(runs: List[Dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(before: Dict[str, List[Dict]], after: Dict[str, List[Dict]],
            bench: Dict) -> List[str]:
    """Print the comparison table; returns the problems found."""
    problems: List[str] = []
    print(f"{'workload':<14} {'metric':<16} {'before':>12} {'after':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in before or workload not in after:
            problems.append(f"{workload}: missing from one side")
            continue
        a_runs, b_runs = before[workload], after[workload]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            result = verdict(a, b, bound, metric["better"] == "lower",
                             median_only=name in MEDIAN_ONLY)
            change = (median(b) - median(a)) / median(a)
            print(f"{workload:<14} {name:<16} {median(a):>12.4f} "
                  f"{median(b):>12.4f} {change:>+8.1%} {bound:>6.0%}  "
                  f"{result}")
            if result != "ok":
                problems.append(f"{workload} {name}: {result}")
        ea, eb = error_ratio(a_runs), error_ratio(b_runs)
        if eb > ea:
            problems.append(f"{workload}: error ratio rose from {ea:.4f} "
                            f"to {eb:.4f}")
        seeds = {r["seed"]: r for r in a_runs}
        for run in b_runs:
            old = seeds.get(run["seed"])
            if old is None:
                continue
            for name in QUALITY:
                delta = (run["recorded"][name]["value"]
                         - old["recorded"][name]["value"])
                if abs(delta) > QUALITY_TOLERANCE:
                    problems.append(f"{workload} seed {run['seed']} {name}: "
                                    f"{delta:+.4f}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    problems = compare(load_runs(args.before), load_runs(args.after),
                       load_benchmark())
    for problem in problems:
        print(f"FLAG {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
