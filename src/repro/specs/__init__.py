"""Learning API aliasing specifications (paper §5).

The subpackage contains the hypothesis class (:mod:`patterns`), the
matching machinery over event graphs (:mod:`matching`), candidate
extraction per Alg. 1 (:mod:`candidates`), scoring functions
(:mod:`scoring`), threshold selection and the consistency extension
(:mod:`selection`) and the end-to-end learning pipeline
(:mod:`pipeline`).

Only :mod:`patterns` is imported eagerly — the points-to package needs
it and must not drag in the full learning stack.
"""

from repro._lazy import lazy_exports
from repro.specs.patterns import RetArg, RetRecv, RetSame, Spec, SpecSet, api_class_of

__all__ = [
    "CandidateExtraction",
    "LearnedSpecs",
    "PatternMatch",
    "PipelineConfig",
    "RetArg",
    "RetRecv",
    "RetSame",
    "Spec",
    "SpecSet",
    "USpecPipeline",
    "api_class_of",
    "average_top_k",
    "extend_with_retsame",
    "extract_candidates",
    "find_matches",
    "find_retrecv_matches",
    "induced_edges",
    "match_count_score",
    "max_score",
    "percentile_score",
    "score_candidates",
    "select_specs",
    "specs_from_json",
    "specs_to_json",
]

_LAZY = {
    "PatternMatch": "repro.specs.matching",
    "find_matches": "repro.specs.matching",
    "find_retrecv_matches": "repro.specs.matching",
    "induced_edges": "repro.specs.matching",
    "CandidateExtraction": "repro.specs.candidates",
    "extract_candidates": "repro.specs.candidates",
    "average_top_k": "repro.specs.scoring",
    "match_count_score": "repro.specs.scoring",
    "max_score": "repro.specs.scoring",
    "percentile_score": "repro.specs.scoring",
    "score_candidates": "repro.specs.scoring",
    "extend_with_retsame": "repro.specs.selection",
    "select_specs": "repro.specs.selection",
    "LearnedSpecs": "repro.specs.pipeline",
    "specs_to_json": "repro.specs.serialize",
    "specs_from_json": "repro.specs.serialize",
    "PipelineConfig": "repro.specs.pipeline",
    "USpecPipeline": "repro.specs.pipeline",
}

__getattr__ = lazy_exports(__name__, _LAZY)
