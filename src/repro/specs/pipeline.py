"""The end-to-end USpec learning pipeline (paper Fig. 1).

Stages, each usable independently:

1. :meth:`USpecPipeline.analyze_corpus` — run the API-unaware points-to
   analysis on every corpus program and build event graphs (§3);
2. :meth:`USpecPipeline.train_model` — train the probabilistic edge
   model ϕ on those graphs (§4);
3. :meth:`USpecPipeline.extract_candidates` — Alg. 1: enumerate and
   score candidate specifications (§5.1–5.2);
4. :meth:`USpecPipeline.select` — τ-threshold selection plus the
   RetSame consistency extension (§5.3–5.4).

:meth:`USpecPipeline.learn` chains all four and returns a
:class:`LearnedSpecs` bundle ready to feed the augmented points-to
analysis of §6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.events.graph import build_event_graph
from repro.events.history import HistoryBuilder, HistoryOptions
from repro.ir.program import Program
from repro.model.dataset import (
    GraphBundle,
    bundle_seed,
    encode_bundle_samples,
    stream_key,
)
from repro.model.features import FeatureConfig, FeatureHasher
from repro.model.logistic import SufficientStats, TrainConfig
from repro.model.model import EventPairModel
from repro.pointsto.analysis import PointsToOptions, analyze
from repro.runtime.executor import (
    CorpusExecutor,
    CorpusRunReport,
    RuntimeConfig,
)
from repro.runtime.faults import armed
from repro.specs.candidates import CandidateExtraction, extract_candidates
from repro.specs.patterns import Spec, SpecSet
from repro.specs.scoring import Scorer, average_top_k, score_candidates
from repro.specs.selection import extend_with_retsame, select_specs

if TYPE_CHECKING:  # avoid the repro.mining → pipeline import cycle
    from repro.mining.partial import MiningReport


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the learning pipeline, with the paper's defaults."""

    pointsto: PointsToOptions = PointsToOptions()
    history: HistoryOptions = HistoryOptions()
    feature: FeatureConfig = FeatureConfig()
    train: TrainConfig = TrainConfig()
    #: failure discipline of corpus analysis (budgets, ladder, faults)
    runtime: RuntimeConfig = RuntimeConfig()
    #: Alg. 1 receiver-distance bound (§7.1)
    max_receiver_distance: int = 10
    #: k of the average-top-k score (§5.2)
    score_k: int = 10
    #: selection threshold τ (§7.2 uses 0.6 for the main experiments)
    tau: float = 0.6
    #: apply the §5.4 consistency extension
    extend: bool = True
    #: also enumerate the RetRecv extension pattern (fluent APIs)
    enable_retrecv: bool = False
    max_positives_per_graph: int = 64
    #: negatives per positive; slightly below parity lifts the score
    #: calibration of rare-context candidates without hurting precision
    negative_ratio: float = 0.65
    seed: int = 13


@dataclass
class LearnedSpecs:
    """Everything the pipeline learned, for inspection and reuse."""

    specs: SpecSet
    scores: Dict[Spec, float]
    extraction: CandidateExtraction
    model: EventPairModel
    config: PipelineConfig
    #: corpus execution report (quarantines, ladder tiers, timings)
    run: Optional[CorpusRunReport] = None
    #: sharded-mining report (cache hits, per-shard wall-clock); set
    #: when learning went through :class:`repro.mining.MiningEngine`
    mining: Optional["MiningReport"] = None

    def top(self, n: int = 20) -> List[Spec]:
        """The ``n`` selected specifications with the highest scores."""
        selected = [s for s in self.specs if s in self.scores]
        return sorted(selected, key=lambda s: -self.scores[s])[:n]

    def reselect(self, tau: float) -> SpecSet:
        """Re-apply selection at a different threshold (cheap)."""
        chosen = select_specs(self.scores, tau)
        return extend_with_retsame(chosen) if self.config.extend else chosen


class USpecPipeline:
    """Coordinates the full unsupervised learning flow of Fig. 1."""

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()

    # ------------------------------------------------------------------
    # stage 1: corpus analysis (§3)

    def analyze_program(self, program: Program) -> GraphBundle:
        result = analyze(program, options=self.config.pointsto)
        histories = HistoryBuilder(program, result, self.config.history).build()
        return GraphBundle.of(program, build_event_graph(histories))

    def run_corpus(self, programs: Sequence[Program]) -> CorpusRunReport:
        """Analyse a corpus under the configured failure discipline.

        Per-program failures degrade down the precision ladder and end
        up quarantined in ``report.manifest`` rather than raising (see
        :mod:`repro.runtime`); with ``runtime.strict=True`` the first
        failure propagates instead.  The stage faults of the armed
        fault plan fire here.
        """
        executor = CorpusExecutor(
            self.config.pointsto, self.config.history, self.config.runtime,
            faults=armed(),
        )
        return executor.run(programs)

    def analyze_corpus(self, programs: Sequence[Program]) -> List[GraphBundle]:
        return self.run_corpus(programs).bundles

    # ------------------------------------------------------------------
    # stage 2: probabilistic model (§4), split into map/reduce halves so
    # the sharded mining engine can run the map on workers

    def collect_stats(self, bundles: Sequence[GraphBundle]) -> SufficientStats:
        """Map stage: per-program hashed training samples, keyed by
        :func:`~repro.model.dataset.stream_key` for the merge order.

        Each program's samples depend only on that program and the
        corpus seed, never on corpus order — the precondition for
        order-independent merging.  Each bundle keeps the feature table
        built here for :meth:`extract_candidates`.
        """
        stats = SufficientStats()
        hasher = FeatureHasher(self.config.feature)
        for index, bundle in enumerate(bundles):
            stats.add(stream_key(bundle.program.source, index),
                      encode_bundle_samples(
                          bundle.features(hasher),
                          self.config.max_positives_per_graph,
                          self.config.negative_ratio,
                          bundle_seed(self.config.seed,
                                      bundle.program.source, index),
                      ))
        return stats

    def train_from_stats(self, stats: SufficientStats) -> EventPairModel:
        """Reduce stage: seeded SGD over the canonical merged stream."""
        model = EventPairModel(self.config.feature, self.config.train)
        model.fit_encoded(stats.stream(self.config.seed))
        return model

    def train_model(self, bundles: Sequence[GraphBundle]) -> EventPairModel:
        return self.train_from_stats(self.collect_stats(bundles))

    # ------------------------------------------------------------------
    # stage 3: candidates and scores (§5.1–5.2)

    def extract_candidates(self, bundles: Sequence[GraphBundle],
                           model: EventPairModel) -> CandidateExtraction:
        return extract_candidates(
            bundles, model, self.config.feature,
            self.config.max_receiver_distance,
            enable_retrecv=self.config.enable_retrecv,
        )

    def score(self, extraction: CandidateExtraction,
              scorer: Optional[Scorer] = None) -> Dict[Spec, float]:
        scorer = scorer or partial(average_top_k, k=self.config.score_k)
        return score_candidates(extraction, scorer)

    # ------------------------------------------------------------------
    # stage 4: selection (§5.3–5.4)

    def select(self, scores: Dict[Spec, float],
               tau: Optional[float] = None) -> SpecSet:
        chosen = select_specs(scores, self.config.tau if tau is None else tau)
        if self.config.extend:
            chosen = extend_with_retsame(chosen)
        return chosen

    # ------------------------------------------------------------------

    def learn(self, programs: Sequence[Program]) -> LearnedSpecs:
        """Run the whole pipeline on a corpus of programs.

        Individual pathological programs (budget blow-ups, solver
        crashes) are quarantined, not fatal: the returned bundle's
        ``run.manifest`` names them and the specs come from the
        programs that survived.
        """
        run = self.run_corpus(programs)
        model = self.train_model(run.bundles)
        extraction = self.extract_candidates(run.bundles, model)
        scores = self.score(extraction)
        specs = self.select(scores)
        return LearnedSpecs(specs, scores, extraction, model, self.config,
                            run=run)
