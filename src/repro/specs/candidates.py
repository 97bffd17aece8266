"""Candidate specification extraction — Alg. 1 of the paper.

For every event graph, the set ``A_G`` of call-site pairs with an
identical receiver is enumerated (bounded by history distance ≤ 10,
§7.1); every pattern match instantiates a candidate specification,
whose single induced edge is scored by the probabilistic model ϕ.  The
result maps every candidate ``S`` to its list of edge confidences
``Γ_S`` plus bookkeeping (match counts, covering files).

Alg. 1 builds ``ftr(e1, e2)`` for every match without the model; ϕ only
touches the finished feature.  The algorithm is therefore split in
two: :func:`match_records` turns one analysed program into its
single-edge matches with hashed features (no model needed, so it runs
wherever the program was analysed), and :func:`score_records` applies
ϕ to those records.  :func:`extract_candidates` is their composition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Sequence, Tuple

from repro.model.dataset import GraphBundle
from repro.model.features import FeatureConfig, encode_feature, extract_feature
from repro.model.model import EventPairModel, PositionKey
from repro.specs.matching import find_matches, find_retrecv_matches, induced_edges
from repro.specs.patterns import Spec

#: one single-edge match of Alg. 1, ready for ϕ: the candidate it
#: instantiates, the position key and hashed indices of its
#: ``ftr(e1, e2)``, and the source file of the matched program
MatchRecord = Tuple[Spec, PositionKey, Tuple[int, ...], Optional[str]]


@dataclass
class CandidateStats:
    """Per-candidate evidence collected by Alg. 1."""

    confidences: List[float] = field(default_factory=list)
    matches: int = 0
    files: Set[str] = field(default_factory=set)

    def add(self, confidence: Optional[float], source: Optional[str]) -> None:
        self.matches += 1
        if confidence is not None:
            self.confidences.append(confidence)
        if source:
            self.files.add(source)


@dataclass
class CandidateExtraction:
    """The output of Alg. 1: ``Γ_S`` for every candidate ``S``."""

    stats: Dict[Spec, CandidateStats] = field(default_factory=dict)

    def gamma(self, spec: Spec) -> List[float]:
        entry = self.stats.get(spec)
        return list(entry.confidences) if entry else []

    def candidates(self) -> List[Spec]:
        return sorted(self.stats, key=str)

    def __len__(self) -> int:
        return len(self.stats)

    def merge(self, other: "CandidateExtraction") -> None:
        for spec, stats in other.stats.items():
            mine = self.stats.setdefault(spec, CandidateStats())
            mine.confidences.extend(stats.confidences)
            mine.matches += stats.matches
            mine.files |= stats.files


def _match_record(bundle: GraphBundle, match,
                  feature_config: FeatureConfig) -> Optional[MatchRecord]:
    graph = bundle.graph
    edges = induced_edges(match, graph)
    if len(edges) != 1:
        # Alg. 1 ignores matches inducing zero or several edges
        return None
    ((e1, e2),) = edges
    feature = extract_feature(graph, e1, e2, bundle.guard_index,
                              feature_config)
    return (match.spec, feature.position_key,
            encode_feature(feature, feature_config), bundle.program.source)


def match_records(
    bundle: GraphBundle,
    feature_config: FeatureConfig = FeatureConfig(),
    max_receiver_distance: int = 10,
    enable_retrecv: bool = False,
) -> List[MatchRecord]:
    """The model-free half of Alg. 1 over one analysed program.

    With ``enable_retrecv`` the single-site RetRecv extension pattern
    is enumerated alongside the paper's two pair patterns.
    """
    graph = bundle.graph
    matches = [
        match
        for pair in graph.receiver_pairs(max_receiver_distance)
        for match in find_matches(graph, pair)
    ]
    if enable_retrecv:
        matches.extend(find_retrecv_matches(graph))
    records = (_match_record(bundle, m, feature_config) for m in matches)
    return [record for record in records if record is not None]


def score_records(records: Iterable[MatchRecord],
                  model: EventPairModel) -> CandidateExtraction:
    """Apply ϕ to every match record: ``Γ_S`` for every candidate."""
    extraction = CandidateExtraction()
    for spec, position_key, indices, source in records:
        stats = extraction.stats.setdefault(spec, CandidateStats())
        stats.add(model.predict_encoded(position_key, indices), source)
    return extraction


def extract_candidates(
    bundles: Sequence[GraphBundle],
    model: EventPairModel,
    feature_config: FeatureConfig = FeatureConfig(),
    max_receiver_distance: int = 10,
    enable_retrecv: bool = False,
) -> CandidateExtraction:
    """Run Alg. 1 over analysed corpus files."""
    return score_records(
        (record for bundle in bundles
         for record in match_records(bundle, feature_config,
                                     max_receiver_distance, enable_retrecv)),
        model,
    )
