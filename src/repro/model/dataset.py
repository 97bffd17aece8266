"""Training data extraction (paper §4.2).

Positive samples are the edges of the event graphs; their features are
computed with ``hide_pair=True`` so no path in either context reveals
the other event (otherwise the model would merely learn the transitive
closure).  Negative samples are event pairs of the same graph that are
*not* connected in either direction, subsampled to roughly the number
of positives.

Sampling randomness is *per program*: each bundle draws from its own
RNG seeded by a stable mix of the corpus seed and the program's source
name, so the samples of one program do not depend on corpus order,
sharding, or which worker analysed it.  The final shuffle of the
combined stream is a single seeded permutation.  This is what lets the
sharded mining engine (:mod:`repro.mining`) reproduce the sequential
pipeline byte-for-byte from any number of workers.

:func:`sample_pairs` draws a program's pairs as event ids of its
:class:`~repro.model.features.FeatureTable`; :func:`encode_bundle_samples`
encodes them through the table, and :func:`collect_bundle_samples`
renders the same draws as string :class:`LabeledSample` features (the
reference the table is tested against).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.events.events import Event
from repro.events.graph import EventGraph
from repro.ir.program import Program
from repro.model.features import (
    EncodedSample,
    FeatureConfig,
    FeatureHasher,
    FeatureTable,
    GuardIndex,
    PairFeature,
    extract_feature,
)


@dataclass
class GraphBundle:
    """One corpus file, fully analysed: program + event graph + guards."""

    program: Program
    graph: EventGraph
    guard_index: GuardIndex
    _table: Optional[FeatureTable] = field(default=None, repr=False,
                                           compare=False)

    @classmethod
    def of(cls, program: Program, graph: EventGraph) -> "GraphBundle":
        return cls(program, graph, GuardIndex(program))

    def features(self, hasher: FeatureHasher) -> FeatureTable:
        """This program's feature table, built once per feature config
        (training samples and Alg. 1 records share it)."""
        table = self._table
        if table is None or table.config != hasher.config:
            table = FeatureTable(self.graph, self.guard_index, hasher)
            self._table = table
        return table


@dataclass(frozen=True)
class LabeledSample:
    """A training sample ``(ftr(e1, e2), label)``."""

    feature: PairFeature
    label: int
    source: Optional[str] = None


#: one drawn sample: the event ids of ``(e1, e2)`` and the label;
#: positives (label 1) hide the pair from its contexts
Draw = Tuple[int, int, int]


def _potentially_aliasing(graph: EventGraph, e1: Event, e2: Event) -> bool:
    """True when the two events' objects might alias under *some*
    candidate specification: both objects come from same-method API
    calls on a shared receiver with arguments not provably different.

    Repeated ``get("k")`` results are distinct abstract objects in the
    API-unaware graph, yet they are exactly what RetSame candidates
    assert to alias — using them as negatives would (randomly, through
    sampling) poison the very specifications we want to learn.  Such
    unknown-status pairs are excluded from negative sampling.
    """
    for a1 in graph.alloc(e1):
        s1 = a1.site
        if not s1.is_api_call:
            continue
        for a2 in graph.alloc(e2):
            s2 = a2.site
            if a1 == a2 or not s2.is_api_call:
                continue
            if s1.method_id != s2.method_id:
                continue
            r1, r2 = Event(s1, 0), Event(s2, 0)
            if not (graph.alloc(r1) & graph.alloc(r2)):
                continue
            args_differ = False
            for i in range(1, min(s1.nargs, s2.nargs) + 1):
                v1 = graph.val(Event(s1, i))
                v2 = graph.val(Event(s2, i))
                if v1 and v2 and not (v1 & v2):
                    args_differ = True
                    break
            if not args_differ:
                return True
    return False


def _negative_pairs(table: FeatureTable,
                    positions: Sequence[Tuple[object, object]],
                    count: int, rng: random.Random,
                    stratified_fraction: float = 0.25) -> List[Draw]:
    """Non-edges of one graph, position-stratified.

    A fraction of the negatives copies the position pair of a random
    positive edge, so each per-position model ψ_(x1,x2) sees negatives
    it actually has to discriminate; the rest are uniform.

    Pairs whose objects *might* alias under some candidate
    specification (same-method, same-receiver, not-provably-different
    arguments — see :func:`_potentially_aliasing`) are never used as
    negatives: their status is exactly what the model is later asked
    to judge.
    """
    events = table.events
    if len(events) < 2:
        return []
    ids = range(len(events))
    by_pos: dict = {}
    for i, e in enumerate(events):
        by_pos.setdefault(e.pos, []).append(i)
    draws: List[Draw] = []
    attempts = 0
    max_attempts = count * 20
    while len(draws) < count and attempts < max_attempts:
        attempts += 1
        if positions and rng.random() < stratified_fraction:
            p1, p2 = rng.choice(positions)
            pool1, pool2 = by_pos.get(p1, ()), by_pos.get(p2, ())
            if not pool1 or not pool2:
                continue
            i, j = rng.choice(pool1), rng.choice(pool2)
        else:
            i, j = rng.sample(ids, 2)
        if i == j:
            continue
        if table.has_edge(i, j) or table.has_edge(j, i):
            continue
        if _potentially_aliasing(table.graph, events[i], events[j]):
            continue
        draws.append((i, j, 0))
    return draws


def sample_pairs(
    table: FeatureTable,
    max_positives_per_graph: int = 64,
    negative_ratio: float = 1.0,
    seed: int = 13,
    stratified_fraction: float = 0.25,
) -> List[Draw]:
    """The sampled pairs of one program: positives, then negatives.

    ``seed`` is the already-mixed per-bundle seed from
    :func:`bundle_seed`; the draw is fully local to the bundle.
    """
    rng = random.Random(seed)
    edges = table.edges()
    if len(edges) > max_positives_per_graph:
        edges = rng.sample(edges, max_positives_per_graph)
    events = table.events
    positions = [(events[i].pos, events[j].pos) for i, j in edges]
    n_negatives = int(round(len(edges) * negative_ratio))
    return ([(i, j, 1) for i, j in edges]
            + _negative_pairs(table, positions, n_negatives, rng,
                              stratified_fraction))


def bundle_seed(seed: int, source: Optional[str], index: int = 0) -> int:
    """Stable per-program sampling seed.

    Mixes the corpus seed with the program's source name (or its corpus
    position for anonymous programs), so a program draws the same
    samples no matter where in the corpus — or on which mining worker —
    it appears.
    """
    identity = source if source is not None else f"#{index}"
    return zlib.crc32(f"{seed}:{identity}".encode("utf-8"))


def stream_key(source: Optional[str], index: int) -> Tuple[str, int]:
    """A program's place in the canonical training stream.

    By source name, then by corpus position (which alone orders
    anonymous programs).  The reference pipeline and the mining engine
    both key their :class:`~repro.model.logistic.SufficientStats`
    blocks by it, so they train on one stream whatever the corpus
    order.
    """
    return (source or "", index)


def encode_bundle_samples(
    table: FeatureTable,
    max_positives_per_graph: int = 64,
    negative_ratio: float = 1.0,
    seed: int = 13,
    stratified_fraction: float = 0.25,
) -> List[EncodedSample]:
    """The hashed samples of one analysed program (map-stage unit)."""
    return [EncodedSample(*table.encode(i, j, hide_pair=label == 1), label)
            for i, j, label in sample_pairs(
                table, max_positives_per_graph, negative_ratio, seed,
                stratified_fraction)]


def collect_bundle_samples(
    bundle: GraphBundle,
    config: FeatureConfig = FeatureConfig(),
    max_positives_per_graph: int = 64,
    negative_ratio: float = 1.0,
    seed: int = 13,
    stratified_fraction: float = 0.25,
) -> List[LabeledSample]:
    """The labelled samples of one analysed program, as string features.

    The draws of :func:`sample_pairs`, rendered by
    :func:`~repro.model.features.extract_feature`:
    ``encode_sample`` of these equals :func:`encode_bundle_samples`.
    """
    table = bundle.features(FeatureHasher(config))
    events = table.events
    return [
        LabeledSample(
            extract_feature(bundle.graph, events[i], events[j],
                            bundle.guard_index, config,
                            hide_pair=label == 1),
            label, bundle.program.source)
        for i, j, label in sample_pairs(
            table, max_positives_per_graph, negative_ratio, seed,
            stratified_fraction)
    ]


def collect_training_samples(
    bundles: Sequence[GraphBundle],
    config: FeatureConfig = FeatureConfig(),
    max_positives_per_graph: int = 64,
    negative_ratio: float = 1.0,
    seed: int = 13,
    stratified_fraction: float = 0.25,
) -> List[LabeledSample]:
    """Extract a balanced labelled data set from analysed corpus files."""
    samples: List[LabeledSample] = []
    for index, bundle in enumerate(bundles):
        samples.extend(collect_bundle_samples(
            bundle, config, max_positives_per_graph, negative_ratio,
            bundle_seed(seed, bundle.program.source, index),
            stratified_fraction,
        ))
    random.Random(seed).shuffle(samples)
    return samples
