"""Fault-isolating, resource-budgeted corpus execution.

:class:`CorpusExecutor` wraps every per-program stage of corpus
analysis (points-to solve → history building → event graph) in a
harness that:

* threads a :class:`~repro.runtime.budget.Budget` into the solver and
  history builder so no single program can consume unbounded work;
* on budget exhaustion or any analysis error, retries the program one
  rung down the :data:`~repro.runtime.ladder.DEFAULT_LADDER`
  (context-sensitive → context-insensitive → field-insensitive);
* quarantines programs that fail every tier into a structured
  :class:`~repro.runtime.manifest.QuarantineManifest` with an error
  taxonomy and the complete tier-attempt trail;
* consults a :class:`~repro.runtime.faults.FaultPlan` at each stage so
  all of the above is deterministically testable.

``strict=True`` disables containment: the first error of the first
tier propagates, which is what you want in CI over a curated corpus.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.events.graph import build_event_graph
from repro.events.history import HistoryBuilder, HistoryOptions
from repro.ir.program import Program
from repro.model.dataset import GraphBundle
from repro.pointsto.analysis import PointsToOptions, analyze
from repro.runtime.budget import Budget, Clock
from repro.runtime.checkpoint import program_key
from repro.runtime.errors import classify_error
from repro.runtime.faults import FaultPlan
from repro.runtime.ladder import DEFAULT_LADDER, LadderTier, TIER_QUARANTINE
from repro.runtime.manifest import (
    QuarantineEntry,
    QuarantineManifest,
    TierAttempt,
)


@dataclass(frozen=True)
class RuntimeConfig:
    """Failure-discipline policy of one corpus run.

    The default policy is containment without budgets: analysis errors
    degrade down the ladder and quarantine instead of raising, but no
    resource limits apply.  Set ``budget`` to bound per-program work,
    ``strict=True`` to fail fast instead, and ``faults`` to inject
    failures for testing.
    """

    budget: Budget = Budget()
    ladder: Tuple[LadderTier, ...] = DEFAULT_LADDER
    strict: bool = False
    faults: Optional[FaultPlan] = None


#: per-program completion callback: (outcome, bundle, quarantine entry)
ProgramSink = Callable[
    ["ProgramOutcome", Optional[GraphBundle], Optional[QuarantineEntry]], None
]


@dataclass
class ProgramOutcome:
    """What happened to one corpus program."""

    key: str
    source: Optional[str]
    attempts: List[TierAttempt] = field(default_factory=list)
    tier: str = TIER_QUARANTINE  # tier that succeeded, or "quarantine"
    seconds: float = 0.0
    cached: bool = False  # satisfied from the durable store, not recomputed

    @property
    def succeeded(self) -> bool:
        return self.tier != TIER_QUARANTINE

    @property
    def degraded(self) -> bool:
        return self.succeeded and len(self.attempts) > 1


@dataclass
class CorpusRunReport:
    """Everything a corpus run produced, successes and failures alike."""

    bundles: List[GraphBundle] = field(default_factory=list)
    outcomes: List[ProgramOutcome] = field(default_factory=list)
    manifest: QuarantineManifest = field(default_factory=QuarantineManifest)

    @property
    def n_ok(self) -> int:
        # outcome-based when outcomes exist: mining never keeps the
        # analysed bundles, so ``bundles`` may legitimately be empty
        # for a successful run
        if self.outcomes:
            return sum(1 for o in self.outcomes if o.succeeded)
        return len(self.bundles)

    @property
    def n_quarantined(self) -> int:
        return len(self.manifest)

    @property
    def n_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def n_degraded(self) -> int:
        return sum(1 for o in self.outcomes if o.degraded)

    def __repr__(self) -> str:
        return (
            f"<CorpusRunReport {self.n_ok} ok "
            f"({self.n_degraded} degraded), "
            f"{self.n_quarantined} quarantined>"
        )


class CorpusExecutor:
    """Runs corpus analysis under a :class:`RuntimeConfig` policy.

    ``clock`` is injectable for deterministic timings in tests; it must
    be monotone.
    """

    def __init__(
        self,
        pointsto: Optional[PointsToOptions] = None,
        history: Optional[HistoryOptions] = None,
        runtime: Optional[RuntimeConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.pointsto = pointsto or PointsToOptions()
        self.history = history or HistoryOptions()
        self.runtime = runtime or RuntimeConfig()
        self.clock: Clock = clock or time.monotonic
        self._faults = self.runtime.faults or FaultPlan()

    # ------------------------------------------------------------------

    def run(
        self,
        programs: Sequence[Program],
        keys: Optional[Sequence[str]] = None,
        sink: Optional[ProgramSink] = None,
        before: Optional[Callable[[str], None]] = None,
    ) -> CorpusRunReport:
        """Analyse ``programs``; optionally under explicit ``keys``.

        ``keys`` lets a caller that owns only a *slice* of a corpus (a
        mining shard worker) keep globally consistent program
        identities: fault plans and merged quarantine manifests then
        name the same program the same way regardless of which worker
        processed it.

        ``sink(outcome, bundle, entry)`` is invoked after *each* program
        settles (exactly one of ``bundle``/``entry`` is non-None for a
        success/quarantine).  The mining engine uses it to fold each
        program into its shard result and, in-process, to journal it to
        the store at once, so a run killed mid-shard keeps everything
        completed before the kill.

        ``before(key)`` fires just before a program is computed and runs
        outside the per-program containment: exceptions it raises — and
        process-level chaos it performs — abort the whole call.  The
        mining supervisor uses it to inject worker kills/hangs at a
        chosen program.
        """
        if keys is not None and len(keys) != len(programs):
            raise ValueError(
                f"{len(keys)} keys for {len(programs)} programs"
            )
        report = CorpusRunReport()
        for index, program in enumerate(programs):
            key = keys[index] if keys is not None else program_key(program, index)
            if before is not None:
                before(key)
            outcome, bundle = self._run_program(program, key)
            report.outcomes.append(outcome)
            entry: Optional[QuarantineEntry] = None
            if bundle is not None:
                report.bundles.append(bundle)
            else:
                entry = self._quarantine_entry(program, outcome)
                report.manifest.add(entry)
            if sink is not None:
                sink(outcome, bundle, entry)
        return report

    # ------------------------------------------------------------------

    def _run_program(
        self, program: Program, key: str
    ) -> Tuple[ProgramOutcome, Optional[GraphBundle]]:
        outcome = ProgramOutcome(key=key, source=program.source)
        started = self.clock()
        budget = self.runtime.budget
        # strict mode fails fast: first tier only, errors propagate
        ladder = self.runtime.ladder[:1] if self.runtime.strict \
            else self.runtime.ladder
        result: Optional[GraphBundle] = None
        for tier in ladder:
            tier_started = self.clock()
            try:
                bundle = self._analyze_tier(program, key, tier, budget)
            except Exception as err:
                if self.runtime.strict:
                    raise
                outcome.attempts.append(TierAttempt(
                    tier=tier.name,
                    error_kind=classify_error(err),
                    error=f"{type(err).__name__}: {err}",
                    seconds=self.clock() - tier_started,
                ))
                continue
            outcome.attempts.append(TierAttempt(
                tier=tier.name, seconds=self.clock() - tier_started,
            ))
            outcome.tier = tier.name
            result = bundle
            break
        outcome.seconds = self.clock() - started
        return outcome, result

    def _analyze_tier(
        self, program: Program, key: str, tier: LadderTier, budget: Budget
    ) -> GraphBundle:
        opts = replace(tier.apply(self.pointsto), budget=budget)
        hist_opts = replace(self.history, budget=budget)
        self._faults.fire(key, "pointsto", tier.name)
        result = analyze(program, options=opts)
        self._faults.fire(key, "history", tier.name)
        histories = HistoryBuilder(program, result, hist_opts).build()
        self._faults.fire(key, "graph", tier.name)
        return GraphBundle.of(program, build_event_graph(histories))

    def _quarantine_entry(
        self, program: Program, outcome: ProgramOutcome
    ) -> QuarantineEntry:
        last = outcome.attempts[-1] if outcome.attempts else TierAttempt(
            tier=TIER_QUARANTINE, error_kind="SolverCrash", error="no attempts"
        )
        return QuarantineEntry(
            program=outcome.key,
            source=program.source,
            error_kind=last.error_kind or "SolverCrash",
            error=last.error or "",
            attempts=list(outcome.attempts),
            seconds=outcome.seconds,
        )
