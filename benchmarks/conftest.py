"""Shared setup for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation (§7).  The expensive artefacts — the synthetic corpora and
the full learning runs for both languages — are built once per session
here.  Every benchmark writes its regenerated table to
``results/<experiment>.txt`` (and prints it), so a full
``pytest benchmarks/ --benchmark-only`` run leaves the complete set of
reproduced tables on disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import pytest

from repro.corpus import (
    ApiRegistry,
    CorpusConfig,
    CorpusGenerator,
    GeneratedFile,
    java_registry,
    python_registry,
)
from repro.ir.program import Program
from repro.model.dataset import GraphBundle
from repro.specs import LearnedSpecs, USpecPipeline
from repro.specs.candidates import CandidateExtraction

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def pytest_addoption(parser):
    """Opt-in performance floors.

    By default the benchmarks only assert machine-independent
    guarantees (determinism, cache behaviour) and *record* the speed
    numbers.  ``--assert-floors`` turns the recorded ratios into
    gates, with each minimum configurable for the machine at hand.
    """
    group = parser.getgroup(
        "floors", "opt-in performance floor assertions")
    group.addoption(
        "--assert-floors", action="store_true", default=False,
        help="fail benchmarks whose ratios miss the configured floors")
    group.addoption(
        "--floor-warm-cache-speedup", type=float, default=1.3,
        metavar="RATIO",
        help="minimum cold/warm wall-clock ratio (default: 1.3)")
    group.addoption(
        "--floor-parallel-speedup", type=float, default=0.9,
        metavar="RATIO",
        help="minimum sequential/jobs4 wall-clock ratio, gated on "
             "every host — below 1.0 it bounds dispatch overhead "
             "rather than demanding parallel hardware (default: 0.9)")
    group.addoption(
        "--floor-refine-resolved", type=float, default=1.0,
        metavar="N",
        help="minimum near-τ candidates resolved per refinement "
             "generation (default: 1.0)")


@dataclass
class Floors:
    """The ``--assert-floors`` switch plus its configured minimums."""

    enabled: bool
    warm_cache_speedup: float
    parallel_speedup: float
    refine_resolved_per_generation: float


@pytest.fixture
def floors(request) -> Floors:
    opt = request.config.getoption
    return Floors(
        enabled=opt("--assert-floors"),
        warm_cache_speedup=opt("--floor-warm-cache-speedup"),
        parallel_speedup=opt("--floor-parallel-speedup"),
        refine_resolved_per_generation=opt("--floor-refine-resolved"),
    )

#: Corpus sizes: large enough for stable statistics, small enough for a
#: laptop run (override with REPRO_BENCH_FILES).
N_TRAIN_FILES = int(os.environ.get("REPRO_BENCH_FILES", "250"))
N_HELDOUT_FILES = int(os.environ.get("REPRO_BENCH_HELDOUT", "120"))


@dataclass
class LanguageSetup:
    """Everything the benchmarks need for one language."""

    registry: ApiRegistry
    train_files: List[GeneratedFile]
    train_programs: List[Program]
    heldout_files: List[GeneratedFile]
    heldout_programs: List[Program]
    pipeline: USpecPipeline
    bundles: List[GraphBundle]
    learned: LearnedSpecs

    @property
    def extraction(self) -> CandidateExtraction:
        return self.learned.extraction


def _build(registry: ApiRegistry, seed: int) -> LanguageSetup:
    generator = CorpusGenerator(registry, CorpusConfig(
        n_files=N_TRAIN_FILES, seed=seed,
    ))
    train_files = generator.generate()
    train_programs = generator.parse(train_files)
    heldout_gen = CorpusGenerator(registry, CorpusConfig(
        n_files=N_HELDOUT_FILES, seed=seed + 1000,
    ))
    heldout_files = heldout_gen.generate()
    heldout_programs = heldout_gen.parse(heldout_files)

    pipeline = USpecPipeline()
    bundles = pipeline.analyze_corpus(train_programs)
    model = pipeline.train_model(bundles)
    extraction = pipeline.extract_candidates(bundles, model)
    scores = pipeline.score(extraction)
    specs = pipeline.select(scores)
    learned = LearnedSpecs(specs, scores, extraction, model, pipeline.config)
    return LanguageSetup(
        registry, train_files, train_programs, heldout_files,
        heldout_programs, pipeline, bundles, learned,
    )


@pytest.fixture(scope="session")
def java_setup() -> LanguageSetup:
    return _build(java_registry(), seed=101)


@pytest.fixture(scope="session")
def python_setup() -> LanguageSetup:
    return _build(python_registry(), seed=404)


def emit(name: str, text: str) -> None:
    """Persist one regenerated table/figure and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
