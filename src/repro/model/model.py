"""The event-pair model ϕ (paper §4.1).

``ϕ(ftr(e1, e2)) = ψ_(x1, x2)(c1, c2, d)`` — one logistic regression
per argument-position pair, plus a shared fallback model used for
position pairs unseen at training time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.model.dataset import LabeledSample
from repro.model.features import (
    EncodedSample,
    FeatureConfig,
    PairFeature,
    encode_feature,
    encode_sample,
)
from repro.model.logistic import (
    LogisticRegression,
    SparseExample,
    TrainConfig,
    as_index_array,
)

PositionKey = Tuple[str, str]


def member_configs(
    train_config: TrainConfig, n_members: int
) -> List[TrainConfig]:
    """The per-member SGD configs of one ensemble (seed-offset bagging)."""
    return [replace(train_config, seed=train_config.seed + 101 * i)
            for i in range(max(1, n_members))]


def train_members(
    dim: int,
    configs: Sequence[TrainConfig],
    examples: Sequence[SparseExample],
) -> List[LogisticRegression]:
    """Train one ensemble's members over one example sequence.

    Module-level so the parallel training reduce can ship it to worker
    processes/daemons: each per-position-key ensemble (and the shared
    fallback) depends only on its own example sequence — in canonical
    stream order — and the member configs, so training ensembles in
    parallel is float-for-float identical to the sequential loop in
    :meth:`EventPairModel.fit_encoded`.
    """
    members: List[LogisticRegression] = []
    for config in configs:
        model = LogisticRegression(dim, config)
        model.fit(list(examples))
        members.append(model)
    return members


class EventPairModel:
    """ϕ: probability that two events are connected by an edge.

    A small bagging-style ensemble: ``n_members`` logistic regressions
    are trained per position key with different SGD shuffling seeds and
    their probabilities averaged.  SGD order noise is the dominant
    variance source at our (laptop-scale) corpus sizes; averaging it
    out makes the learned specification set stable across runs.
    """

    def __init__(self, feature_config: FeatureConfig = FeatureConfig(),
                 train_config: TrainConfig = TrainConfig(),
                 n_members: int = 3) -> None:
        self.feature_config = feature_config
        self.train_config = train_config
        self.n_members = max(1, n_members)
        self._models: Dict[PositionKey, List[LogisticRegression]] = {}
        self._fallback: List[LogisticRegression] = []
        self.n_samples = 0

    def _member_configs(self) -> List[TrainConfig]:
        return member_configs(self.train_config, self.n_members)

    @classmethod
    def from_trained(
        cls,
        feature_config: FeatureConfig,
        train_config: TrainConfig,
        models: Dict[PositionKey, List[LogisticRegression]],
        fallback: List[LogisticRegression],
        n_samples: int,
        n_members: int = 3,
    ) -> "EventPairModel":
        """Assemble a model from externally trained ensembles.

        The parallel training reduce trains each position key's members
        (and the fallback) via :func:`train_members` on workers and
        reassembles here; given the same per-key example sequences this
        is float-identical to :meth:`fit_encoded`.
        """
        model = cls(feature_config, train_config, n_members)
        model._models = dict(models)
        model._fallback = list(fallback)
        model.n_samples = n_samples
        return model

    # ------------------------------------------------------------------

    def fit(self, samples: Sequence[LabeledSample]) -> None:
        """Train the per-position ensembles (and the shared fallback)."""
        self.fit_encoded([
            encode_sample(s.feature, s.label, self.feature_config)
            for s in samples
        ])

    def fit_encoded(self, samples: Sequence[EncodedSample]) -> None:
        """Train from already-hashed samples (the map/reduce path).

        The sharded mining engine hashes samples on the workers and
        merges them into one deterministic stream; training from that
        stream here is float-for-float identical to :meth:`fit` on the
        corresponding :class:`LabeledSample` sequence.
        """
        grouped: Dict[PositionKey, List[SparseExample]] = defaultdict(list)
        all_examples: List[SparseExample] = []
        for sample in samples:
            # One index-array conversion per unique sample, shared by the
            # per-key ensemble and the fallback across every epoch/member
            # (previously re-converted on each of the ~36 SGD visits).
            example = (as_index_array(sample.indices), sample.label)
            grouped[sample.position_key].append(example)
            all_examples.append(example)
        configs = self._member_configs()
        dim = self.feature_config.dim
        for key, examples in grouped.items():
            self._models[key] = train_members(dim, configs, examples)
        self._fallback = train_members(dim, configs, all_examples)
        self.n_samples = len(samples)

    # ------------------------------------------------------------------

    def predict(self, feature: PairFeature) -> float:
        """ϕ(ftr(e1, e2)) — edge probability in [0, 1]."""
        return self.predict_encoded(
            feature.position_key,
            encode_feature(feature, self.feature_config),
        )

    def predict_encoded(self, position_key: PositionKey,
                        indices: Sequence[int]) -> float:
        """ϕ of an already-hashed feature (see :func:`encode_feature`)."""
        members = self._models.get(position_key)
        if not members or members[0].n_trained == 0:
            members = self._fallback
        if not members:
            return 0.5
        return sum(m.predict_proba(indices) for m in members) / len(members)

    @property
    def position_keys(self) -> List[PositionKey]:
        return sorted(self._models)

    def __repr__(self) -> str:
        return (f"<EventPairModel {len(self._models)} position keys × "
                f"{self.n_members} members, {self.n_samples} samples>")
