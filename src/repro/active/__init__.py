"""Closed-loop active learning: uncertainty-directed corpus synthesis.

The one-shot miner leaves candidate specifications near the selection
threshold τ ambiguous forever.  This package closes the loop, after
Bastani et al., *Active Learning of Points-To Specifications*:

* :mod:`uncertainty` ranks candidates by how much one more
  discriminating program would help (score in the τ-band, or the model
  and the observed event-pair statistics disagreeing);
* :mod:`synthesis` directs :mod:`repro.corpus.generator` to emit a
  validated aliasing-path / non-aliasing-path program pair per
  candidate;
* :mod:`refine` runs synthesize → mine (incrementally, through the
  journaled :class:`repro.store.StatsStore`) → retrain → measure
  generations with a stopping rule, crash-consistent resume, and a
  deterministic machine-readable :class:`~repro.active.refine.RefinementReport`.

Exposed on the CLI as ``uspec refine``.
"""

from repro.active.refine import (
    GenerationRecord,
    Metrics,
    RefineConfig,
    RefineStateError,
    RefinementEngine,
    RefinementReport,
    Resolution,
)
from repro.active.synthesis import DirectedSynthesizer, SynthesisResult
from repro.active.uncertainty import AmbiguousCandidate, find_ambiguous

__all__ = [
    "AmbiguousCandidate",
    "DirectedSynthesizer",
    "GenerationRecord",
    "Metrics",
    "RefineConfig",
    "RefineStateError",
    "RefinementEngine",
    "RefinementReport",
    "Resolution",
    "SynthesisResult",
    "find_ambiguous",
]
