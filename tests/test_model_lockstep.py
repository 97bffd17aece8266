"""The lockstep trainer against a per-sample Adagrad reference.

:class:`ReferenceModel` trains every ensemble member alone, one
``partial_fit``-style Adagrad step per example over a dense weight
vector, in the order the lockstep lanes must reproduce: the stream
split by position key, reshuffled per epoch by ``Random(seed + 101·m)``.
If lane order or update arithmetic drifts, predictions stop agreeing.
"""

import random

import numpy as np
import pytest

from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    java_registry,
    python_registry,
)
from repro.model.features import EncodedSample
from repro.model.logistic import TrainConfig, sigmoid
from repro.model.model import N_MEMBERS, EventPairModel
from repro.specs.candidates import match_records
from repro.specs.pipeline import USpecPipeline
from repro.specs.serialize import specs_to_json


class ReferenceModel:
    """ϕ trained one model and one sample at a time.

    Hashed indices are relabelled to ``0..n-1`` (unseen ones to a
    zero slot ``n``) so each dense vector stays small; relabelling
    changes no arithmetic.
    """

    def __init__(self, samples, train=TrainConfig()):
        seen = sorted({i for s in samples for i in s.indices})
        self.slot = {index: k for k, index in enumerate(seen)}
        self.dim = len(seen) + 1
        by_key = {}
        for s in samples:
            by_key.setdefault(s.position_key, []).append(s)
        self.models = {key: self._ensemble(group, train)
                       for key, group in by_key.items()}
        self.fallback = self._ensemble(samples, train)

    def _columns(self, indices):
        return np.array([self.slot.get(i, self.dim - 1) for i in indices],
                        dtype=np.int64)

    def _ensemble(self, samples, train):
        members = []
        for m in range(N_MEMBERS):
            w = np.zeros(self.dim)
            grad_sq = np.full(self.dim, 1e-8)
            rng = random.Random(train.seed + 101 * m)
            order = list(range(len(samples)))
            for _ in range(train.epochs):
                rng.shuffle(order)
                for i in order:
                    idx = self._columns(samples[i].indices)
                    g = sigmoid(float(w[idx].sum())) - samples[i].label
                    grad_sq[idx] += g * g
                    lr = train.learning_rate / np.sqrt(grad_sq[idx])
                    w[idx] -= lr * (g + train.l2 * w[idx])
            members.append(w)
        return members

    def predict_encoded(self, position_key, indices):
        idx = self._columns(indices)
        members = self.models.get(position_key, self.fallback)
        return sum(sigmoid(float(w[idx].sum())) for w in members) \
            / len(members)


@pytest.mark.parametrize("registry", [java_registry, python_registry],
                         ids=["java", "python"])
def test_lockstep_matches_per_sample_reference(registry, monkeypatch):
    programs = CorpusGenerator(
        registry(), CorpusConfig(n_files=10, seed=3)).programs()
    pipeline = USpecPipeline()
    learned = pipeline.learn(programs)
    bundles = learned.run.bundles
    stream = pipeline.collect_stats(bundles).stream(pipeline.config.seed)
    reference = ReferenceModel(stream, pipeline.config.train)

    records = [(key, indices) for bundle in bundles
               for _, key, indices, _ in match_records(bundle)]
    assert records
    # the stream's own samples reach every position key's ensemble
    probes = records + [(s.position_key, s.indices) for s in stream]
    for key, indices in probes:
        assert learned.model.predict_encoded(key, indices) == \
            pytest.approx(reference.predict_encoded(key, indices), abs=1e-9)

    monkeypatch.setattr(
        USpecPipeline, "train_from_stats",
        lambda self, stats: ReferenceModel(
            stats.stream(self.config.seed), self.config.train),
    )
    expected = USpecPipeline().learn(programs)
    assert specs_to_json(learned.specs, learned.scores) == \
        specs_to_json(expected.specs, expected.scores)


def _toy_stream():
    rng = random.Random(5)
    samples = []
    for _ in range(60):
        label = rng.randint(0, 1)
        key = rng.choice([("0", "ret"), ("1", "2")])
        samples.append(EncodedSample(
            key, tuple(sorted({0, 10 + label, rng.randrange(20, 30)})),
            label))
    return samples


def test_empty_stream_predicts_half():
    model = EventPairModel()
    model.fit_encoded([])
    assert model.n_samples == 0
    assert model.predict_encoded(("0", "ret"), (0, 11)) == 0.5


def test_unseen_position_key_uses_the_fallback():
    stream = _toy_stream()
    model = EventPairModel()
    model.fit_encoded(stream)
    reference = ReferenceModel(stream)
    unseen = ("arg5+", "arg5+")
    assert unseen not in model.position_keys
    p = model.predict_encoded(unseen, (0, 11))
    assert p == pytest.approx(reference.predict_encoded(unseen, (0, 11)),
                              abs=1e-12)
    assert p != model.predict_encoded(("0", "ret"), (0, 11))


def test_unseen_index_contributes_zero():
    model = EventPairModel()
    model.fit_encoded(_toy_stream())
    assert 999 not in model.columns
    assert model.predict_encoded(("0", "ret"), (0, 11, 999)) == \
        model.predict_encoded(("0", "ret"), (0, 11))
