"""The closed-loop refinement engine.

Each **generation** runs the active-learning round-trip:

1. rank ambiguous candidates (:mod:`repro.active.uncertainty`);
2. synthesize validated discriminating programs for the most urgent
   ones within the per-generation budget
   (:mod:`repro.active.synthesis`);
3. re-mine the extended corpus through the store-backed
   :class:`repro.mining.MiningEngine` — the statistics of every
   already-seen program fold in from the
   :class:`repro.store.StatsStore` journal without re-analysis, and
   the new specs land in the store as one more journaled generation;
4. measure: which candidates left the uncertainty band (and in which
   direction), precision/recall/F1 against the registry's ground
   truth, and drift vs the previous generation.

The loop stops when the band is empty, the generation budget is
exhausted, or ``patience`` consecutive generations neither resolved a
candidate nor lifted F1.

**Crash consistency.** After each generation completes, its full
record — targeted candidates, synthesized program texts, resolution
and metrics — is written durably to
``<store-dir>/refine/gen-NNNN.json``.  A killed run restarts by
loading those records: the corpus is rebuilt from the recorded texts
(nothing is re-synthesized), one store-backed mining pass restores the
learned state from the store, and the loop continues with the next
generation.  State files carry a digest of the configuration; resuming
with a different corpus or seed is refused rather than silently
blended.

**Determinism.** Synthesis streams are derived per
``(seed, generation, spec, path, round)``, mining is byte-identical
for any ``--jobs``, and the serialized :class:`RefinementReport`
carries no wall-clock — so a fixed seed makes repeated runs
byte-identical, which CI asserts.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.active.synthesis import DirectedSynthesizer, SynthesisResult
from repro.active.uncertainty import (
    DEFAULT_BAND,
    DEFAULT_DISAGREEMENT,
    AmbiguousCandidate,
    find_ambiguous,
)
from repro.corpus.apis import ApiRegistry
from repro.corpus.generator import GeneratedFile
from repro.ir.program import Program
from repro.mining.engine import MiningConfig, MiningEngine
from repro.runtime.checkpoint import atomic_write_text
from repro.specs.patterns import Spec, SpecSet
from repro.specs.pipeline import LearnedSpecs, PipelineConfig
from repro.specs.serialize import spec_from_dict, spec_to_dict

STATE_VERSION = 1
STATE_DIR_NAME = "refine"


@dataclass(frozen=True)
class RefineConfig:
    """Knobs of one refinement run."""

    tau: float = 0.6
    #: half-width of the uncertainty band around τ
    band: float = DEFAULT_BAND
    disagreement_threshold: float = DEFAULT_DISAGREEMENT
    #: refinement generations after the baseline
    max_generations: int = 4
    #: max synthesized programs admitted per generation
    synth_budget: int = 24
    #: alias/non-alias pairs per candidate per generation
    per_candidate: int = 3
    #: stop after this many consecutive generations with no resolved
    #: candidate and no F1 lift
    patience: int = 2
    seed: int = 7

    def to_dict(self) -> Dict[str, object]:
        return {
            "tau": self.tau,
            "band": self.band,
            "disagreement_threshold": self.disagreement_threshold,
            "max_generations": self.max_generations,
            "synth_budget": self.synth_budget,
            "per_candidate": self.per_candidate,
            "patience": self.patience,
            "seed": self.seed,
        }


@dataclass
class Metrics:
    """Selection quality against the registry's ground truth."""

    precision: float
    recall: float
    f1: float
    n_selected: int
    n_true_selected: int
    n_true_total: int

    @classmethod
    def of(cls, specs: SpecSet, registry: ApiRegistry) -> "Metrics":
        truth = registry.all_true_specs()
        selected = list(specs)
        true_selected = sum(1 for s in selected if s in truth)
        precision = true_selected / len(selected) if selected else 0.0
        recall = true_selected / len(truth) if truth else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        return cls(precision, recall, f1, len(selected), true_selected,
                   len(truth))

    def to_dict(self) -> Dict[str, object]:
        return {
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "n_selected": self.n_selected,
            "n_true_selected": self.n_true_selected,
            "n_true_total": self.n_true_total,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Metrics":
        return cls(
            float(data["precision"]), float(data["recall"]),
            float(data["f1"]), int(data["n_selected"]),
            int(data["n_true_selected"]), int(data["n_true_total"]),
        )


@dataclass
class Resolution:
    """One candidate's exit from the uncertainty band."""

    spec: Spec
    before: float
    #: None: the candidate vanished from the extraction entirely
    after: Optional[float]
    #: "promoted" (crossed above τ+band) or "demoted" (below τ−band)
    direction: str
    #: did it land on the ground-truth side?
    correct: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": spec_to_dict(self.spec),
            "before": round(self.before, 6),
            "after": None if self.after is None else round(self.after, 6),
            "direction": self.direction,
            "correct": self.correct,
        }


@dataclass
class GenerationRecord:
    """Everything one refinement generation did (serializable)."""

    generation: int
    targeted: List[Dict[str, object]]
    programs: List[Dict[str, str]]
    n_rejected: int
    rejected: List[Tuple[str, str]]
    skipped: List[Tuple[str, str]]
    resolved: List[Resolution]
    n_unresolved: int
    band_after: int
    metrics: Metrics
    drift: Optional[Dict[str, object]] = None
    store_generation: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "generation": self.generation,
            "targeted": self.targeted,
            "programs": self.programs,
            "n_synthesized": len(self.programs),
            "n_rejected": self.n_rejected,
            "rejected": [list(r) for r in self.rejected],
            "skipped": [list(s) for s in self.skipped],
            "resolved": [r.to_dict() for r in self.resolved],
            "n_resolved": len(self.resolved),
            "n_unresolved": self.n_unresolved,
            "band_after": self.band_after,
            "metrics": self.metrics.to_dict(),
            "drift": self.drift,
            "store_generation": self.store_generation,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "GenerationRecord":
        resolved = [
            Resolution(
                spec=spec_from_dict(r["spec"]),
                before=float(r["before"]),
                after=None if r["after"] is None else float(r["after"]),
                direction=str(r["direction"]),
                correct=bool(r["correct"]),
            )
            for r in data.get("resolved", [])
        ]
        return cls(
            generation=int(data["generation"]),
            targeted=list(data.get("targeted", [])),
            programs=list(data.get("programs", [])),
            n_rejected=int(data.get("n_rejected", 0)),
            rejected=[tuple(r) for r in data.get("rejected", [])],
            skipped=[tuple(s) for s in data.get("skipped", [])],
            resolved=resolved,
            n_unresolved=int(data.get("n_unresolved", 0)),
            band_after=int(data.get("band_after", 0)),
            metrics=Metrics.from_dict(data["metrics"]),
            drift=data.get("drift"),
            store_generation=data.get("store_generation"),
        )


@dataclass
class RefinementReport:
    """Machine-readable outcome of a refinement run.

    :meth:`to_json` is canonical and wall-clock-free: two runs with the
    same seed and corpus serialize byte-identically.  Wall-clock lives
    in :attr:`seconds_per_generation`, which benchmarks read directly.
    """

    config: RefineConfig
    baseline: GenerationRecord
    generations: List[GenerationRecord]
    stop_reason: str
    #: generations whose state was loaded rather than recomputed
    resumed_generations: List[int] = field(default_factory=list)
    #: wall-clock per generation number (not serialized)
    seconds_per_generation: Dict[int, float] = field(default_factory=dict)

    @property
    def n_resolved(self) -> int:
        return sum(len(g.resolved) for g in self.generations)

    @property
    def n_synthesized(self) -> int:
        return sum(len(g.programs) for g in self.generations)

    @property
    def final_metrics(self) -> Metrics:
        return (self.generations[-1].metrics if self.generations
                else self.baseline.metrics)

    def lift(self) -> Dict[str, float]:
        base, final = self.baseline.metrics, self.final_metrics
        return {
            "precision": round(final.precision - base.precision, 6),
            "recall": round(final.recall - base.recall, 6),
            "f1": round(final.f1 - base.f1, 6),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": "uspec-refinement",
            "version": STATE_VERSION,
            "config": self.config.to_dict(),
            "baseline": self.baseline.to_dict(),
            "generations": [g.to_dict() for g in self.generations],
            "stop_reason": self.stop_reason,
            "resumed_generations": self.resumed_generations,
            "totals": {
                "n_generations": len(self.generations),
                "n_resolved": self.n_resolved,
                "n_synthesized": self.n_synthesized,
                "lift": self.lift(),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# ======================================================================


class RefineStateError(RuntimeError):
    """Existing refine state is unusable for this configuration."""


class RefinementEngine:
    """Drives synthesize → mine → retrain → measure generations."""

    def __init__(
        self,
        registry: ApiRegistry,
        pipeline: PipelineConfig,
        mining: MiningConfig,
        refine: RefineConfig,
        *,
        log: Callable[[str], None] = lambda line: None,
    ) -> None:
        if not mining.store_dir:
            raise ValueError("refinement requires a statistics store "
                             "(mining.store_dir)")
        self.registry = registry
        self.pipeline = pipeline
        # the store makes generations incremental: every already-seen
        # program folds in from the journal
        self.mining = mining
        self.refine = refine
        self.log = log
        self.synthesizer = DirectedSynthesizer(
            registry, seed=refine.seed,
            pointsto=pipeline.pointsto, history=pipeline.history,
        )
        self.state_dir = Path(mining.store_dir) / STATE_DIR_NAME

    # ------------------------------------------------------------------
    # state files

    def _digest(self, base: Sequence[GeneratedFile]) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(self.refine.to_dict(), sort_keys=True).encode())
        h.update(self.registry.language.encode())
        for f in base:
            h.update(f.name.encode())
            h.update(f.text.encode())
        return h.hexdigest()[:16]

    def _state_path(self, generation: int) -> Path:
        return self.state_dir / f"gen-{generation:04d}.json"

    def _write_state(self, record: GenerationRecord, digest: str) -> None:
        self.state_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": STATE_VERSION,
            "digest": digest,
            "record": record.to_dict(),
        }
        atomic_write_text(
            self._state_path(record.generation),
            json.dumps(payload, indent=2, sort_keys=True),
            durable=True,
        )

    def _load_state(self, digest: str) -> List[GenerationRecord]:
        """Completed generations, in order, stopping at the first gap."""
        records: List[GenerationRecord] = []
        for generation in range(self.refine.max_generations + 1):
            path = self._state_path(generation)
            if not path.exists():
                break
            try:
                payload = json.loads(path.read_text())
            except (OSError, ValueError) as err:
                raise RefineStateError(
                    f"unreadable refine state {path}: {err}"
                ) from None
            if payload.get("version") != STATE_VERSION:
                raise RefineStateError(
                    f"{path}: unsupported state version "
                    f"{payload.get('version')!r}"
                )
            if payload.get("digest") != digest:
                raise RefineStateError(
                    f"{path} was written by a different configuration "
                    f"or corpus (digest {payload.get('digest')!r}, "
                    f"expected {digest!r}); use a fresh --store-dir"
                )
            records.append(GenerationRecord.from_dict(payload["record"]))
        return records

    # ------------------------------------------------------------------

    def _parse(self, files: Sequence[GeneratedFile]) -> List[Program]:
        from repro.frontend.minijava import parse_minijava
        from repro.frontend.pyfront import parse_python

        sigs = self.registry.signatures()
        out: List[Program] = []
        for f in files:
            if f.language == "java":
                out.append(parse_minijava(f.text, sigs, f.name))
            else:
                out.append(parse_python(f.text, sigs, f.name))
        return out

    def _mine(self, files: Sequence[GeneratedFile]) -> LearnedSpecs:
        engine = MiningEngine(self.pipeline, self.mining)
        return engine.learn(self._parse(files))

    def _ambiguous(self, learned: LearnedSpecs) -> List[AmbiguousCandidate]:
        return find_ambiguous(
            learned.scores, learned.extraction,
            tau=self.refine.tau, band=self.refine.band,
            disagreement_threshold=self.refine.disagreement_threshold,
            support_k=self.pipeline.score_k,
        )

    def _select_targets(
        self, ambiguous: Sequence[AmbiguousCandidate]
    ) -> List[AmbiguousCandidate]:
        """Most-uncertain candidates whose programs fit the budget."""
        per_target = 2 * self.refine.per_candidate
        targets: List[AmbiguousCandidate] = []
        planned = 0
        for candidate in ambiguous:
            if targets and planned + per_target > self.refine.synth_budget:
                break
            targets.append(candidate)
            planned += per_target
        return targets

    def _measure_resolution(
        self,
        previous_band: Sequence[AmbiguousCandidate],
        scores: Dict[Spec, float],
    ) -> Tuple[List[Resolution], int]:
        """Which previously-in-band candidates left the band, and how."""
        tau, band = self.refine.tau, self.refine.band
        resolved: List[Resolution] = []
        unresolved = 0
        for candidate in previous_band:
            if not candidate.in_band:
                continue
            after = scores.get(candidate.spec)
            if after is not None and abs(after - tau) <= band:
                unresolved += 1
                continue
            direction = "promoted" if after is not None and after > tau \
                else "demoted"
            truth = self.registry.is_true_spec(candidate.spec)
            correct = (direction == "promoted") == truth
            resolved.append(Resolution(
                spec=candidate.spec, before=candidate.score,
                after=after, direction=direction, correct=correct,
            ))
        return resolved, unresolved

    # ------------------------------------------------------------------

    def run(self, base: Sequence[GeneratedFile]) -> RefinementReport:
        """The full refinement loop over a base corpus."""
        config = self.refine
        digest = self._digest(base)
        records = self._load_state(digest)
        resumed = [r.generation for r in records]
        corpus: List[GeneratedFile] = list(base)
        for record in records[1:]:
            corpus.extend(
                GeneratedFile(p["name"], p["text"], p["language"])
                for p in record.programs
            )
        if resumed:
            self.log(f"resuming from refine state: generation(s) "
                     f"{', '.join(map(str, resumed))} loaded from "
                     f"{self.state_dir} (0 programs re-synthesized)")

        # baseline (or state recovery): mine the corpus as recorded.
        # Every stored program folds in from the journal, so recovery
        # re-runs training, not analysis.
        t0 = time.monotonic()
        learned = self._mine(corpus)
        ambiguous = self._ambiguous(learned)
        timings: Dict[int, float] = {}
        if not records:
            baseline = GenerationRecord(
                generation=0,
                targeted=[c.to_dict() for c in ambiguous],
                programs=[], n_rejected=0, rejected=[], skipped=[],
                resolved=[], n_unresolved=sum(
                    1 for c in ambiguous if c.in_band
                ),
                band_after=sum(1 for c in ambiguous if c.in_band),
                metrics=Metrics.of(learned.specs, self.registry),
                drift=None,
                store_generation=(learned.mining.store_generation
                                  if learned.mining else None),
            )
            self._write_state(baseline, digest)
            records = [baseline]
        timings[records[-1].generation] = time.monotonic() - t0
        current = records[-1]
        self.log(
            f"generation {current.generation}: {len(learned.scores)} "
            f"candidates scored, "
            f"{sum(1 for c in ambiguous if c.in_band)} in the "
            f"τ±{config.band:g} band, "
            f"P={current.metrics.precision:.3f} "
            f"R={current.metrics.recall:.3f}"
        )

        stop_reason = "budget-exhausted"
        stale = 0
        best_f1 = max(r.metrics.f1 for r in records)
        generation = records[-1].generation
        while generation < config.max_generations:
            if not any(c.in_band for c in ambiguous):
                stop_reason = "band-empty"
                break
            if stale >= config.patience:
                stop_reason = "no-lift"
                break
            generation += 1
            t0 = time.monotonic()
            targets = self._select_targets(ambiguous)
            synthesis = SynthesisResult()
            for target in targets:
                synthesis.merge(self.synthesizer.synthesize(
                    target, generation=generation,
                    rounds=config.per_candidate,
                ))
            admitted = synthesis.programs[:config.synth_budget]
            self.log(
                f"generation {generation}: targeting {len(targets)} "
                f"candidate(s), admitted {len(admitted)} discriminating "
                f"program(s) ({len(synthesis.rejected)} rejected, "
                f"{len(synthesis.skipped)} skipped)"
            )
            corpus = corpus + list(admitted)
            learned = self._mine(corpus)
            resolved, unresolved = self._measure_resolution(
                ambiguous, learned.scores
            )
            ambiguous = self._ambiguous(learned)
            metrics = Metrics.of(learned.specs, self.registry)
            record = GenerationRecord(
                generation=generation,
                targeted=[t.to_dict() for t in targets],
                programs=[
                    {"name": p.name, "text": p.text, "language": p.language}
                    for p in admitted
                ],
                n_rejected=len(synthesis.rejected),
                rejected=synthesis.rejected,
                skipped=synthesis.skipped,
                resolved=resolved,
                n_unresolved=unresolved,
                band_after=sum(1 for c in ambiguous if c.in_band),
                metrics=metrics,
                drift=learned.mining.drift if learned.mining else None,
                store_generation=(learned.mining.store_generation
                                  if learned.mining else None),
            )
            self._write_state(record, digest)
            records.append(record)
            timings[generation] = time.monotonic() - t0
            self.log(
                f"generation {generation}: resolved {len(resolved)} "
                f"({sum(1 for r in resolved if r.correct)} correctly), "
                f"{unresolved} still in band, band now "
                f"{record.band_after}, P={metrics.precision:.3f} "
                f"R={metrics.recall:.3f} F1={metrics.f1:.3f}"
            )
            if resolved or metrics.f1 > best_f1:
                stale = 0
            else:
                stale += 1
            best_f1 = max(best_f1, metrics.f1)
        else:
            stop_reason = "budget-exhausted"
        if generation >= config.max_generations \
                and stop_reason == "budget-exhausted" \
                and not any(c.in_band for c in ambiguous):
            stop_reason = "band-empty"

        return RefinementReport(
            config=config,
            baseline=records[0],
            generations=records[1:],
            stop_reason=stop_reason,
            resumed_generations=resumed,
            seconds_per_generation=timings,
        )
