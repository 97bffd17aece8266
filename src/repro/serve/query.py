"""One-shot snippet analysis: the query path shared by ``uspec serve``
and ``uspec analyze``.

Corpus mining analyses programs it *chose*; a query endpoint analyses
whatever a client submits, so the same containment the mining engine
grew — a :class:`~repro.runtime.budget.Budget` threaded into the
Andersen solver and history builder, plus the PR 1 precision-
degradation ladder — applies per request here:

* :func:`analyze_with_ladder` runs one program down the ladder under
  one *overall* wall-clock deadline: each tier gets the time remaining,
  so a pathological snippet degrades to cheaper tiers instead of
  spending the full deadline three times over;
* a program that fails every tier raises :class:`QueryFailed`, which
  carries the complete tier-attempt trail (the quarantine manifest's
  :class:`~repro.runtime.manifest.TierAttempt` records) so the daemon
  can reply with *why* — and distinguish a deadline blow-up from a
  genuinely broken snippet;
* :func:`run_query` is the module-level runner executed inside an
  analysis-pool subprocess (the same ``(payload, attempt)`` contract as
  the mining supervisor's workers), returning a plain JSON-able dict.
  It fires worker faults (``kill|hang|corrupt:<match>[:n]``) only from
  the plan its payload carries, matched on the snippet text.

Reply caching reuses the :mod:`repro.mining.cache` key scheme: a query
fingerprint (analysis knobs + specs digest, *excluding* the per-request
budget) composed with a snippet content fingerprint via
:func:`repro.mining.cache.compose_key`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.clients.taint import TaintConfig, find_taint_flows
from repro.events import RET
from repro.events.graph import build_event_graph
from repro.events.history import HistoryBuilder, HistoryOptions
from repro.frontend.minijava import parse_minijava
from repro.frontend.pyfront import parse_python
from repro.ir.program import Program
from repro.mining.cache import compose_key
from repro.pointsto.analysis import PointsToOptions, analyze
from repro.runtime.budget import Budget, Clock
from repro.runtime.errors import BUDGET_EXCEEDED, classify_error
from repro.runtime.faults import CorruptResult, FaultPlan
from repro.runtime.ladder import DEFAULT_LADDER, LadderTier
from repro.runtime.manifest import TierAttempt
from repro.specs.patterns import RetArg, SpecSet
from repro.specs.serialize import specs_from_json

#: bumped on any change that invalidates cached replies
QUERY_SCHEMA = 1

#: query kinds the daemon serves
KIND_ALIAS = "alias"
KIND_SPEC = "spec"
KIND_TAINT = "taint"
QUERY_KINDS = (KIND_ALIAS, KIND_SPEC, KIND_TAINT)

LANGUAGES = ("python", "java")


class QueryFailed(RuntimeError):
    """A snippet failed every rung of the degradation ladder.

    ``attempts`` is the full tier trail; :attr:`deadline_exceeded`
    is True when the *final* failure was the wall clock running out —
    the daemon maps that to a deadline-exceeded reply rather than an
    analysis error.  Picklable (crosses the analysis-pool pipe).
    """

    def __init__(self, attempts: List[TierAttempt]) -> None:
        self.attempts = list(attempts)
        last = self.attempts[-1] if self.attempts else None
        detail = (f"{last.tier}: {last.error}" if last is not None
                  else "no tiers attempted")
        super().__init__(
            f"analysis failed on all {len(self.attempts)} tier(s) "
            f"(last: {detail})"
        )

    @property
    def deadline_exceeded(self) -> bool:
        if not self.attempts:
            return False
        last = self.attempts[-1]
        return (last.error_kind == BUDGET_EXCEEDED
                and "wall_clock" in (last.error or ""))

    @property
    def budget_exhausted(self) -> bool:
        """True when every failing tier ran out of some budget."""
        return bool(self.attempts) and all(
            a.error_kind == BUDGET_EXCEEDED for a in self.attempts
        )

    def attempts_dicts(self) -> List[Dict]:
        return [a.to_dict() for a in self.attempts]

    def __reduce__(self):
        return (type(self), (self.attempts,))


@dataclass
class SnippetAnalysis:
    """One snippet's analysis after (possibly degraded) ladder descent."""

    program: Program
    result: object  # PointsToResult
    graph: object  # EventGraph
    tier: str
    attempts: List[TierAttempt] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return len(self.attempts) > 1


def parse_snippet(code: str, language: str = "python",
                  source: str = "<snippet>") -> Program:
    """Parse client-submitted source text (raises on malformed input)."""
    if language not in LANGUAGES:
        raise ValueError(f"unknown language {language!r} "
                         f"(expected one of {', '.join(LANGUAGES)})")
    if language == "java":
        return parse_minijava(code, source=source)
    return parse_python(code, source=source)


def analyze_with_ladder(
    program: Program,
    *,
    specs: Optional[SpecSet] = None,
    options: Optional[PointsToOptions] = None,
    history: Optional[HistoryOptions] = None,
    budget: Optional[Budget] = None,
    ladder: Tuple[LadderTier, ...] = DEFAULT_LADDER,
    strict: bool = False,
    clock: Optional[Clock] = None,
) -> SnippetAnalysis:
    """Analyse one program, degrading down the ladder under one deadline.

    Unlike the corpus executor — where the budget deadline is per tier
    — the deadline here is an *end-to-end* allowance: tier N+1 only
    gets what tier N left over.  That is the contract a serve request
    needs (the client is waiting on the whole reply, not on one tier),
    and what ``uspec analyze --budget-seconds`` means for one file.

    ``strict=True`` disables containment: the first tier's first error
    propagates (the ``uspec analyze --strict`` behaviour).
    """
    clock = clock or time.monotonic
    budget = budget or Budget()
    options = options or PointsToOptions()
    history = history or HistoryOptions()
    started = clock()
    deadline = budget.deadline_seconds
    attempts: List[TierAttempt] = []
    for tier in (ladder[:1] if strict else ladder):
        tier_budget = budget
        if deadline is not None:
            left = deadline - (clock() - started)
            if left <= 0:
                attempts.append(TierAttempt(
                    tier=tier.name, error_kind=BUDGET_EXCEEDED,
                    error="wall_clock_seconds budget exhausted before "
                          "this tier could start",
                ))
                break
            tier_budget = budget.with_deadline(left)
        try:
            opts = replace(tier.apply(options), budget=tier_budget)
            hist_opts = replace(history, budget=tier_budget)
            result = analyze(program, specs=specs, options=opts)
            histories = HistoryBuilder(program, result, hist_opts).build()
            graph = build_event_graph(histories)
        except Exception as err:
            if strict:
                raise
            attempts.append(TierAttempt(
                tier=tier.name,
                error_kind=classify_error(err),
                error=f"{type(err).__name__}: {err}",
            ))
            continue
        attempts.append(TierAttempt(tier=tier.name))
        return SnippetAnalysis(
            program=program, result=result, graph=graph,
            tier=tier.name, attempts=attempts,
        )
    raise QueryFailed(attempts)


# ----------------------------------------------------------------------
# the three query kinds


def alias_pairs(result, limit: int = 20) -> List[Tuple[str, str]]:
    """Cross-method return-value may-alias pairs, program order: at
    most ``limit`` (none if it is not positive), each as ``(earlier
    site's method, later site's method)``."""
    pairs: List[Tuple[str, str]] = []
    for i, s1 in enumerate(result.api_sites):
        if s1.instr.dst is None:
            continue
        for s2 in result.api_sites[:i]:
            if len(pairs) >= limit:
                return pairs
            if s2.instr.dst is None or s1.method_id == s2.method_id:
                continue
            if result.events_may_alias(s1, RET, s2, RET):
                pairs.append((s2.method_id, s1.method_id))
    return pairs


def _site_methods(result) -> List[str]:
    seen: List[str] = []
    for site in result.api_sites:
        if site.method_id not in seen:
            seen.append(site.method_id)
    return seen


def _alias_reply(sa: SnippetAnalysis, params: Dict) -> Dict:
    limit = int(params.get("limit") or 20)
    return {
        "pairs": [list(p) for p in alias_pairs(sa.result, limit)],
        "n_sites": len(sa.result.api_sites),
        "n_events": len(sa.graph.events),
        "n_edges": sa.graph.edge_count,
    }


def _spec_reply(sa: SnippetAnalysis, specs: Optional[SpecSet],
                scores: Dict) -> Dict:
    """Learned specifications relevant to the snippet's API calls."""
    methods = _site_methods(sa.result)
    matched: List[Dict] = []
    if specs is not None:
        present = set(methods)
        for spec in sorted(specs, key=str):
            if isinstance(spec, RetArg):
                hit = spec.target in present or spec.source in present
            else:
                hit = spec.method in present
            if hit:
                entry: Dict = {"spec": str(spec)}
                score = scores.get(spec)
                if score is not None:
                    entry["score"] = round(float(score), 6)
                matched.append(entry)
    return {"methods": methods, "specs": matched}


def _taint_reply(sa: SnippetAnalysis, params: Dict) -> Dict:
    config = TaintConfig.of(
        [str(s) for s in params.get("sources") or ()],
        [str(s) for s in params.get("sinks") or ()],
        [str(s) for s in params.get("sanitizers") or ()],
    )
    flows = find_taint_flows(sa.program, config, result=sa.result)
    return {
        "flows": [
            {
                "source": flow.source_site.method_id,
                "sink": flow.sink_site.method_id,
                "arg": flow.sink_arg,
            }
            for flow in flows
        ],
    }


# ----------------------------------------------------------------------
# fingerprints and reply-cache keys (the store's record-key scheme)


def snippet_fingerprint(language: str, code: str) -> str:
    """Content digest of one submitted snippet."""
    payload = f"{language}\0{code}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def query_fingerprint(
    specs_digest: str,
    options: Optional[PointsToOptions] = None,
    history: Optional[HistoryOptions] = None,
    ladder: Tuple[LadderTier, ...] = DEFAULT_LADDER,
) -> str:
    """Digest of every knob that shapes a reply, *except* the budget.

    Mirrors :func:`repro.mining.cache.pipeline_fingerprint`, with two
    deliberate differences: the specs digest is included (an alias
    answer depends on the loaded specifications, and a SIGHUP reload
    must miss the old entries), and the budget is excluded (a request's
    deadline is leftover wall clock, not part of the answer — a reply
    computed under a generous deadline is equally valid for a tight
    one).
    """
    options = options or PointsToOptions()
    history = history or HistoryOptions()
    payload = "\n".join([
        f"schema={QUERY_SCHEMA}",
        f"pointsto={replace(options, budget=None)!r}",
        f"history={replace(history, budget=None)!r}",
        f"ladder={tuple(t.name for t in ladder)!r}",
        f"specs={specs_digest}",
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reply_cache_key(query_fp: str, language: str, code: str,
                    kind: str, params: str) -> str:
    """The reply-cache key of one (snippet, query) pair."""
    snippet_fp = snippet_fingerprint(language, code)
    return compose_key(query_fp, f"{snippet_fp}\0{kind}\0{params}")


def canonical_params(params: Optional[Dict]) -> str:
    """Deterministic JSON of a query's parameters (cache-key input)."""
    return json.dumps(params or {}, sort_keys=True,
                      separators=(",", ":"))


# ----------------------------------------------------------------------
# the pool runner


@dataclass(frozen=True)
class QueryPayload:
    """One request as shipped to an analysis-pool subprocess.

    Self-contained and picklable: the specs ride along as JSON text
    (keyed by digest, so a worker parses each specs version once), the
    budget carries the request's remaining deadline, and ``faults`` the
    fault plan armed in the daemon.
    """

    kind: str
    language: str
    code: str
    params: str = "{}"  # canonical JSON (see canonical_params)
    specs_json: Optional[str] = None
    specs_digest: str = ""
    budget: Budget = Budget()
    faults: FaultPlan = field(default_factory=FaultPlan)


#: per-process parsed-specs cache: digest → (SpecSet, scores)
_SPECS_CACHE: Dict[str, Tuple[SpecSet, Dict]] = {}


def _specs_for(payload: QueryPayload) -> Tuple[Optional[SpecSet], Dict]:
    if not payload.specs_json:
        return None, {}
    cached = _SPECS_CACHE.get(payload.specs_digest)
    if cached is None:
        cached = specs_from_json(payload.specs_json)
        _SPECS_CACHE.clear()  # one live specs version per worker
        _SPECS_CACHE[payload.specs_digest] = cached
    return cached


def warm_up(payload: QueryPayload, attempt: int = 0) -> None:
    """The analysis pool's first job in every worker: unpickling this
    runner imports the query path, and the call parses the payload's
    specs, so neither cost lands on a request."""
    _specs_for(payload)


def run_query(payload: QueryPayload, attempt: int = 0) -> object:
    """Execute one query; the analysis pool's module-level runner.

    Parse errors and :class:`QueryFailed` propagate as typed
    exceptions — the pool ships them back intact and the daemon maps
    them to invalid-snippet / analysis-failed / deadline-exceeded
    replies.  A successful return is a plain JSON-able dict.  A worker
    fault of the payload's plan whose match is in the snippet fires
    first, on ``attempt`` (0, then 1 on the daemon's crash retry); a
    ``corrupt`` one returns its text, which :func:`valid_reply` rejects.
    """
    try:
        payload.faults.fire_worker(payload.code, attempt)
    except CorruptResult as corrupt:
        return str(corrupt)
    if payload.kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {payload.kind!r}")
    specs, scores = _specs_for(payload)
    program = parse_snippet(payload.code, payload.language)
    params = json.loads(payload.params or "{}")
    sa = analyze_with_ladder(program, specs=specs,
                             budget=payload.budget)
    reply: Dict = {
        "kind": payload.kind,
        "tier": sa.tier,
        "degraded": sa.degraded,
    }
    if sa.degraded:
        reply["attempts"] = [a.to_dict() for a in sa.attempts]
    if payload.kind == KIND_ALIAS:
        reply.update(_alias_reply(sa, params))
    elif payload.kind == KIND_SPEC:
        reply.update(_spec_reply(sa, specs, scores))
    else:
        reply.update(_taint_reply(sa, params))
    return reply


def valid_reply(message: object) -> bool:
    """Shape check the pool applies to worker results (corrupt guard)."""
    return isinstance(message, dict) and message.get("kind") in QUERY_KINDS
