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
(one :class:`~repro.model.features.SampleBlock`) once, numbering each
position key's columns within the key, one key at a time, and
trains every position key's members in one
:func:`~repro.model.logistic.run_lanes` pass, packed onto lanes by
:func:`~repro.model.logistic.pack_lanes`, so the loop is about as long
as the largest key's model.  The fallback trains over the whole stream
from the same compiled examples, the first time a prediction asks for
a key without an ensemble of its own; many runs never do.  Each model
still sees exactly its own examples in stream order, reshuffled every
epoch by ``random.Random(seed + 101·m)``, and takes the Adagrad steps
it would take if trained alone.

**State.**  One flat weight vector of *blocks*.  Block ``b`` covers the
hashed indices ``columns[bases[b]:bases[b + 1]]``: a ``-1`` sentinel
naming the zero column, then the indices its samples use, sorted.  It
holds its ``N_MEMBERS`` members' weights one after the other, one cell
per column, from ``N_MEMBERS · bases[b]`` on.  Each position key owns
one block over its own samples' indices; the fallback's block covers
every index seen and is appended when the fallback trains.  An index
absent from a block maps to its column 0, which stays zero — the
weight it would have in a dense hashed weight vector.  Because
prediction may train the fallback, a model belongs to one thread.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.model.dataset import LabeledSample
from repro.model.features import (
    EncodedSample,
    FeatureConfig,
    PairFeature,
    SampleBlock,
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


def _view(packed: array) -> np.ndarray:
    """A zero-copy numpy view of one of a sample block's arrays."""
    return np.frombuffer(packed, dtype=packed.typecode)


class EventPairModel:
    """ϕ: probability that two events are connected by an edge."""

    def __init__(self, feature_config: FeatureConfig = FeatureConfig(),
                 train_config: TrainConfig = TrainConfig()) -> None:
        self.feature_config = feature_config
        self.train_config = train_config
        #: hashed index of each column, block by block; each block
        #: starts with a -1 sentinel naming its all-zero column
        self.columns = np.array([-1], dtype=np.int64)
        #: the blocks' bounds in ``columns``: block b is
        #: ``columns[bases[b]:bases[b + 1]]``
        self.bases = np.array([0, 1], dtype=np.int64)
        #: every block's members, one cell per column (see the module
        #: docstring); untrained, the one block is a zero fallback
        self.weights = np.zeros(N_MEMBERS)
        #: the block of each position key's ensemble
        self._blocks: Dict[PositionKey, int] = {}
        #: the fallback's block, once it exists
        self._fallback: Optional[int] = 0
        #: the training examples, kept until the fallback trains on them
        self._examples: Optional[CompiledExamples] = None
        self.n_samples = 0

    def _seed(self, member: int) -> int:
        return self.train_config.seed + 101 * member

    # ------------------------------------------------------------------

    def fit(self, samples: Sequence[LabeledSample]) -> None:
        """Train the per-position ensembles (the fallback on first use)."""
        self.fit_encoded(
            encode_sample(s.feature, s.label, self.feature_config)
            for s in samples
        )

    def fit_encoded(self, samples: Union[SampleBlock,
                                         Iterable[EncodedSample]]) -> None:
        """Train from already-hashed samples (the map/reduce path): a
        :class:`~repro.model.features.SampleBlock`, or samples to pack.

        The sharded mining engine hashes samples on the workers and
        merges them into one deterministic stream; training from that
        stream here is float-for-float identical to :meth:`fit` on the
        corresponding :class:`LabeledSample` sequence.  Position keys
        number their blocks in the order they first appear in the
        stream, which is the order of the stream block's key table.
        """
        stream = SampleBlock.of(samples)
        self._blocks = dict(stream.keys)
        groups = _view(stream.key_ids)
        self._examples = compile_examples(
            _view(stream.lengths), _view(stream.indices),
            _view(stream.labels), groups)
        self.bases = self._examples.bases[:len(self._blocks) + 1]
        self.columns = self._examples.columns[:self.bases[-1]]
        self.weights = np.zeros(N_MEMBERS * int(self.bases[-1]))
        self._fallback = None
        by_key = [np.flatnonzero(groups == b)
                  for b in range(len(self._blocks))]
        models: List[LaneModel] = [
            (self._offset(b, m), ids, self._seed(m))
            for b, ids in enumerate(by_key)
            for m in range(N_MEMBERS)
        ]
        run_lanes(self._examples, pack_lanes(models), self.weights,
                  self.train_config)
        self.n_samples = len(stream)

    def _offset(self, block: int, member: int) -> int:
        """The ``run_lanes`` offset of ``member`` of ``block``: its
        weight of ``columns[j]`` is ``weights[offset + j]``."""
        base = int(self.bases[block])
        return (N_MEMBERS - 1) * base \
            + member * (int(self.bases[block + 1]) - base)

    def _train_fallback(self) -> int:
        """Train the fallback's members over the whole stream, once,
        into a block appended over every column; returns the block."""
        examples = self._examples.merged()
        width = len(examples.columns)
        block = np.zeros(N_MEMBERS * width)
        stream = np.arange(self.n_samples)
        run_lanes(examples,
                  [[(m * width, stream, self._seed(m))]
                   for m in range(N_MEMBERS)],
                  block, self.train_config)
        self.columns = np.concatenate([self.columns, examples.columns])
        self.bases = np.append(self.bases, self.bases[-1] + width)
        self.weights = np.concatenate([self.weights, block])
        self._examples = None
        self._fallback = len(self.bases) - 2
        return self._fallback

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
        block = self._blocks.get(position_key)
        if block is None:
            block = self._fallback
            if block is None:
                block = self._train_fallback()
        lo, hi = int(self.bases[block]), int(self.bases[block + 1])
        columns = self.columns[lo:hi]
        idx = as_index_array(indices)
        pos = np.searchsorted(columns, idx, side="right") - 1
        cols = np.where(columns[pos] == idx, pos, 0)
        # take() yields C-ordered rows, whose sums are the same floats
        # as each member's 1-D weights[idx].sum()
        members = self.weights[N_MEMBERS * lo:N_MEMBERS * hi].reshape(
            N_MEMBERS, hi - lo)
        decisions = members.take(cols, axis=1).sum(axis=1)
        return sum(sigmoid(z) for z in decisions.tolist()) / N_MEMBERS

    @property
    def position_keys(self) -> List[PositionKey]:
        return sorted(self._blocks)

    def __repr__(self) -> str:
        return (f"<EventPairModel {len(self._blocks)} position keys × "
                f"{N_MEMBERS} members, {self.n_samples} samples>")
