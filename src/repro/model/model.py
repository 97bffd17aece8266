"""The event-pair model ϕ (paper §4.1).

``ϕ(ftr(e1, e2)) = ψ_(x1, x2)(c1, c2, d)`` — one logistic regression
per argument-position pair, plus a shared fallback model used for
position pairs unseen at training time.

Each position key, and the fallback, is a bagging-style ensemble of
:data:`N_MEMBERS` logistic regressions that differ only in their SGD
shuffle seed; ϕ averages their probabilities.  SGD order noise is the
dominant variance source at our (laptop-scale) corpus sizes, and
averaging it out keeps the learned specification set stable across
runs.

**Training.**  :meth:`EventPairModel.fit_encoded` compiles the stream
once and trains every position key's members in one
:func:`~repro.model.logistic.run_lanes` pass, packed onto lanes by
:func:`~repro.model.logistic.pack_lanes`, so the loop is about as long
as the largest key's model.  The fallback trains over the whole stream
from the same compiled examples, the first time a prediction asks for
a key without an ensemble of its own; many runs never do.  Each model
still sees exactly its own examples in stream order, reshuffled every
epoch by ``random.Random(seed + 101·m)``, and takes the Adagrad steps
it would take if trained alone.

**State.**  One weight matrix over the hashed indices seen in training
(``columns``): rows ``0 … N_MEMBERS-1`` are the fallback's members
(zero until it is trained), and each position key owns the next
``N_MEMBERS`` rows.  An index absent from training maps to column 0,
which is zero in every row — the weight it would have in a dense hashed
weight vector.  Because prediction may train the fallback, a model
belongs to one thread.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.dataset import LabeledSample
from repro.model.features import (
    EncodedSample,
    FeatureConfig,
    PairFeature,
    encode_feature,
    encode_sample,
)
from repro.model.logistic import (
    CompiledExamples,
    LaneModel,
    TrainConfig,
    as_index_array,
    compile_examples,
    pack_lanes,
    run_lanes,
    sigmoid,
)

PositionKey = Tuple[str, str]

#: ensemble members per position key and for the fallback
N_MEMBERS = 3


class EventPairModel:
    """ϕ: probability that two events are connected by an edge."""

    def __init__(self, feature_config: FeatureConfig = FeatureConfig(),
                 train_config: TrainConfig = TrainConfig()) -> None:
        self.feature_config = feature_config
        self.train_config = train_config
        #: hashed index of each weight column, sorted; ``columns[0]``
        #: is a -1 sentinel naming the all-zero column
        self.columns = np.array([-1], dtype=np.int64)
        #: one row per ensemble member: the fallback's, then each key's
        self.weights = np.zeros((N_MEMBERS, 1))
        #: first weight row of each position key's ensemble
        self._rows: Dict[PositionKey, int] = {}
        #: the training examples, kept until the fallback trains on them
        self._examples: Optional[CompiledExamples] = None
        self.n_samples = 0

    def _seed(self, member: int) -> int:
        return self.train_config.seed + 101 * member

    # ------------------------------------------------------------------

    def fit(self, samples: Sequence[LabeledSample]) -> None:
        """Train the per-position ensembles (the fallback on first use)."""
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
        by_key: Dict[PositionKey, List[int]] = {}
        for i, sample in enumerate(samples):
            by_key.setdefault(sample.position_key, []).append(i)
        self._rows = {key: (k + 1) * N_MEMBERS
                      for k, key in enumerate(by_key)}
        self._examples = compile_examples(
            [(s.indices, s.label) for s in samples])
        self.columns = self._examples.columns
        self.weights = np.zeros(
            ((len(by_key) + 1) * N_MEMBERS, len(self.columns)))
        models: List[LaneModel] = [
            (k * N_MEMBERS + m, ids, self._seed(m))
            for k, ids in enumerate(by_key.values())
            for m in range(N_MEMBERS)
        ]
        run_lanes(self._examples, pack_lanes(models),
                  self.weights[N_MEMBERS:], self.train_config)
        self.n_samples = len(samples)

    def _train_fallback(self) -> None:
        """Train the fallback's members over the whole stream, once."""
        stream = np.arange(self.n_samples)
        run_lanes(self._examples,
                  [[(m, stream, self._seed(m))] for m in range(N_MEMBERS)],
                  self.weights[:N_MEMBERS], self.train_config)
        self._examples = None

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
        idx = as_index_array(indices)
        pos = np.searchsorted(self.columns, idx, side="right") - 1
        cols = np.where(self.columns[pos] == idx, pos, 0)
        row = self._rows.get(position_key)
        if row is None:
            if self._examples is not None:
                self._train_fallback()
            row = 0
        # take() yields C-ordered rows, whose sums are the same floats
        # as each member's 1-D weights[idx].sum()
        decisions = self.weights[row:row + N_MEMBERS].take(
            cols, axis=1).sum(axis=1)
        return sum(sigmoid(z) for z in decisions.tolist()) / N_MEMBERS

    @property
    def position_keys(self) -> List[PositionKey]:
        return sorted(self._rows)

    def __repr__(self) -> str:
        return (f"<EventPairModel {len(self._rows)} position keys × "
                f"{N_MEMBERS} members, {self.n_samples} samples>")
