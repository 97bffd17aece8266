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

from repro._lazy import lazy_exports

_LAZY = {
    "AdmissionQueue": "repro.serve.admission",
    "AnalysisPool": "repro.serve.pool",
    "CircuitBreaker": "repro.serve.admission",
    "PoolClosed": "repro.serve.pool",
    "QueryFailed": "repro.serve.query",
    "QueryPayload": "repro.serve.query",
    "ServeConfig": "repro.serve.server",
    "ServeStats": "repro.serve.admission",
    "SnippetAnalysis": "repro.serve.query",
    "SpecServer": "repro.serve.server",
    "analyze_with_ladder": "repro.serve.query",
    "parse_snippet": "repro.serve.query",
    "run_query": "repro.serve.query",
    "serve": "repro.serve.server",
}

__all__ = list(_LAZY)
__getattr__ = lazy_exports(__name__, _LAZY)
