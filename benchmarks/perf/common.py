"""Paths, the metric catalogue and the statistics shared by ``run.py``
and ``compare.py``."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, Sequence

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def load_benchmark() -> Dict:
    return json.loads(BENCHMARK_JSON.read_text())


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, the rule ``/statz`` uses."""
    data = sorted(values)
    rank = max(0, min(len(data) - 1, round(p / 100.0 * (len(data) - 1))))
    return data[rank]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2
    values), quartiles as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf
