"""Record keys of the durable store.

Every persisted per-program result lives in the
:class:`~repro.store.stats.StatsStore` journal, keyed by

* a **pipeline fingerprint** — every configuration knob that shapes a
  stored record: the analysis knobs (points-to options, history
  options, degradation ladder, budget) and the knobs that turn an event
  graph into samples and match records (feature options, the
  per-graph positive cap, the negative ratio, the sampling seed, the
  receiver distance and RetRecv matching).  Changing any of them opens
  a different store.  Knobs applied after the records (τ, ``score_k``,
  ``extend``, training) and strictness deliberately stay out, and so
  does the armed fault plan (it is not configuration), so a store
  built by a faulty or killed run is reusable by the resumed one;
* a **program fingerprint** — the source path plus the printed IR of
  the program, so editing a file changes its key and only that file is
  re-analysed.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.ir.printer import format_program
from repro.ir.program import Program

#: bumped whenever the shape of a stored record changes; part of the
#: pipeline fingerprint, so every older record becomes a miss
#: (4: quarantine verdicts live in the store journal)
CACHE_SCHEMA = 4


def pipeline_fingerprint(config) -> str:
    """Digest of every pipeline knob that shapes stored records.

    ``config`` is a :class:`~repro.specs.pipeline.PipelineConfig` (typed
    loosely to keep this module import-light).  Ladder tiers contribute
    their *names* — their transforms are functions whose reprs embed
    memory addresses and are pure functions of the name.
    """
    runtime = config.runtime
    payload = "\n".join([
        f"schema={CACHE_SCHEMA}",
        f"pointsto={config.pointsto!r}",
        f"history={config.history!r}",
        f"ladder={tuple(t.name for t in runtime.ladder)!r}",
        f"budget={runtime.budget!r}",
        f"feature={config.feature!r}",
        f"max_positives_per_graph={config.max_positives_per_graph!r}",
        f"negative_ratio={config.negative_ratio!r}",
        f"seed={config.seed!r}",
        f"max_receiver_distance={config.max_receiver_distance!r}",
        f"enable_retrecv={config.enable_retrecv!r}",
    ])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def program_fingerprint(program: Program) -> str:
    """Digest of one program's identity and content (printed IR)."""
    payload = f"{program.source or '<anonymous>'}\n{format_program(program)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compose_key(fingerprint: str, program_fp: str) -> str:
    """One record key from a pipeline fingerprint and a content digest.

    Shared with the serve daemon's reply cache
    (:mod:`repro.serve.query`), which keys per-snippet analysis results
    the same way.
    """
    combined = f"{fingerprint}\0{program_fp}"
    return hashlib.sha256(combined.encode("utf-8")).hexdigest()[:32]


class AnalysisCache:
    """An event-graph bundle cache that never holds a bundle.

    Event graphs are not persisted: the store journal holds everything
    a run needs from a program.  This shell remains only because
    ``benchmarks/perf/child.py`` reads it; it touches no disk.
    """

    def __init__(self, directory, fingerprint: str) -> None:
        self.fingerprint = fingerprint

    def key_of(self, program_fp: str) -> str:
        return compose_key(self.fingerprint, program_fp)

    def has_bundle(self, program_fp: str) -> bool:
        return False

    def load_bundle_by_key(self, cache_key: str) -> Optional[object]:
        return None
