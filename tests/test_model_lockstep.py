"""The lockstep trainer against a per-sample Adagrad reference.

:class:`ReferenceModel` trains every ensemble member alone, one
``partial_fit``-style Adagrad step per example over a dense weight
vector, in the order the lockstep lanes must reproduce: the stream
split by position key, reshuffled per epoch by ``Random(seed + 101·m)``.
If lane order or update arithmetic drifts, predictions stop agreeing.
The fallback trains on first use, so these tests also pin when it
trains and that packing schedules every position-key model once.
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
from repro.model import model as model_module
from repro.model.features import EncodedSample
from repro.model.logistic import TrainConfig, run_lanes, sigmoid
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


def _skewed_stream():
    """One key holds most samples; the singleton keys' lanes idle."""
    rng = random.Random(11)
    samples = []
    for _ in range(90):
        label = rng.randint(0, 1)
        samples.append(EncodedSample(
            ("0", "ret"),
            tuple(sorted({0, 10 + label, rng.randrange(20, 40)})), label))
    for j in range(5):
        samples.insert(rng.randrange(len(samples)), EncodedSample(
            (str(j + 1), "ret"), (0, 10 + j % 2, 40 + j), j % 2))
    return samples


def _sized_stream(sizes):
    """``sizes[k]`` samples of key ``k``, interleaved."""
    rng = random.Random(len(sizes))
    keys = [(str(k), "ret") for k, n in enumerate(sizes) for _ in range(n)]
    rng.shuffle(keys)
    return [EncodedSample(key, (0, 10 + i % 2), i % 2)
            for i, key in enumerate(keys)]


def _fit_recording_lanes(stream, monkeypatch):
    """Fit ϕ and return it with the lanes its key models ran on."""
    runs = []

    def recording(examples, lanes, weights, config):
        runs.append(lanes)
        run_lanes(examples, lanes, weights, config)

    monkeypatch.setattr(model_module, "run_lanes", recording)
    model = EventPairModel()
    model.fit_encoded(stream)
    assert len(runs) == 1
    return model, runs[0]


UNSEEN = ("arg5+", "arg5+")


def test_skewed_stream_matches_reference(monkeypatch):
    stream = _skewed_stream()
    model, lanes = _fit_recording_lanes(stream, monkeypatch)
    loads = {sum(len(ids) for _, ids, _ in lane) for lane in lanes}
    assert len(loads) > 1, "every lane is equally long; none idles"
    reference = ReferenceModel(stream)
    probes = [(s.position_key, s.indices) for s in stream] \
        + [(UNSEEN, (0, 11, 25)), (("0", "ret"), (0, 999))]
    for key, indices in probes:
        assert model.predict_encoded(key, indices) == \
            pytest.approx(reference.predict_encoded(key, indices), abs=1e-9)


def test_fallback_trains_on_first_unseen_key():
    stream = _toy_stream()
    model = EventPairModel()
    model.fit_encoded(stream)
    for s in stream:
        model.predict_encoded(s.position_key, s.indices)
    assert not model.weights[:N_MEMBERS].any()
    reference = ReferenceModel(stream)
    for indices in [(0, 11), (0, 10, 25), (0, 11)]:
        assert model.predict_encoded(UNSEEN, indices) == pytest.approx(
            reference.predict_encoded(UNSEEN, indices), abs=1e-9)
    assert model.weights[:N_MEMBERS].any()


def test_refit_discards_the_trained_fallback():
    first, second = _toy_stream(), _skewed_stream()
    expected = ReferenceModel(second).predict_encoded(UNSEEN, (0, 11))
    assert ReferenceModel(first).predict_encoded(UNSEEN, (0, 11)) != \
        pytest.approx(expected, abs=1e-6)
    model = EventPairModel()
    model.fit_encoded(first)
    model.predict_encoded(UNSEEN, (0, 11))
    model.fit_encoded(second)
    assert not model.weights[:N_MEMBERS].any()
    assert model.predict_encoded(UNSEEN, (0, 11)) == \
        pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("stream", [
    _toy_stream(), _skewed_stream(), _sized_stream([7]),
    _sized_stream([20, 1]), _sized_stream([5, 5, 5, 5]),
    _sized_stream([13, 8, 8, 3, 2, 1, 1]),
], ids=["toy", "skewed", "one-key", "dominant", "even", "mixed"])
def test_every_key_model_is_scheduled_once(stream, monkeypatch):
    _, lanes = _fit_recording_lanes(stream, monkeypatch)
    config = TrainConfig()
    by_key = {}
    for i, sample in enumerate(stream):
        by_key.setdefault(sample.position_key, []).append(i)
    scheduled = [model for lane in lanes for model in lane]
    rows = sorted(row for row, _, _ in scheduled)
    assert rows == list(range(N_MEMBERS * len(by_key)))
    assert sorted((list(ids), seed) for _, ids, seed in scheduled) == \
        sorted((ids, config.seed + 101 * m)
               for ids in by_key.values() for m in range(N_MEMBERS))
    longest = config.epochs * max(
        sum(len(ids) for _, ids, _ in lane) for lane in lanes)
    if len(by_key) > 1:
        assert longest < config.epochs * len(stream)
    else:
        assert longest == config.epochs * len(stream)


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
