"""``repro.serve`` — the long-running spec-query service.

The mining side of the repo learns aliasing specifications offline;
this package serves them: a fault-tolerant asyncio daemon
(:mod:`.server`) answering ``alias`` / ``spec`` / ``taint`` queries
for submitted snippets, an analysis-subprocess pool (:mod:`.pool`)
reusing the mining supervisor's worker loop and its one job contract,
admission control and circuit breaking (:mod:`.admission`), the shared
one-shot query path (:mod:`.query`), and a load harness with
slow-loris and malformed clients (:mod:`.loadgen`).  Analysis workers
fail only through the process's one fault plan (``USPEC_FAULTS``),
which every query payload carries.
"""

from repro.serve.admission import AdmissionQueue, CircuitBreaker, ServeStats
from repro.serve.pool import AnalysisPool, PoolClosed
from repro.serve.query import (QueryFailed, QueryPayload, SnippetAnalysis,
                               analyze_with_ladder, parse_snippet, run_query)
from repro.serve.server import ServeConfig, SpecServer, serve

__all__ = [
    "AdmissionQueue",
    "AnalysisPool",
    "CircuitBreaker",
    "PoolClosed",
    "QueryFailed",
    "QueryPayload",
    "ServeConfig",
    "ServeStats",
    "SnippetAnalysis",
    "SpecServer",
    "analyze_with_ladder",
    "parse_snippet",
    "run_query",
    "serve",
]
