"""The lockstep trainer against a per-sample Adagrad reference.

:class:`ReferenceModel` trains every ensemble member alone, one
``partial_fit``-style Adagrad step per example over a dense weight
vector, in the order the lockstep lanes must reproduce: the stream
split by position key, reshuffled per epoch by ``Random(seed + 101·m)``.
If lane order or update arithmetic drifts, predictions stop agreeing.
The fallback trains on first use, so these tests also pin when it
trains and that packing schedules every position-key model once.
Each key's ensemble keeps weights over its own samples' indices only,
so a key's probabilities must equal, bit for bit, those of a model
fitted on that key's samples alone, and weight storage must follow
the keys' own column counts.  The lanes' steps are built as training
reaches them, so training memory must not grow with the epoch count.
"""

import random
import tracemalloc

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

UNSEEN = ("arg5+", "arg5+")


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


@pytest.fixture(scope="module", params=[java_registry, python_registry],
                ids=["java", "python"])
def corpus_run(request):
    """A 10-file corpus learned by the pipeline, with its training
    stream and its probes: every Alg. 1 record, then every sample of
    the stream, so each position key's ensemble is asked."""
    programs = CorpusGenerator(
        request.param(), CorpusConfig(n_files=10, seed=3)).programs()
    pipeline = USpecPipeline()
    learned = pipeline.learn(programs)
    bundles = learned.run.bundles
    stream = list(
        pipeline.collect_stats(bundles).stream(pipeline.config.seed))
    records = [(key, indices) for bundle in bundles
               for _, key, indices, _ in match_records(bundle)]
    assert records
    probes = records + [(s.position_key, s.indices) for s in stream]
    return programs, learned, stream, probes


def test_lockstep_matches_per_sample_reference(corpus_run, monkeypatch):
    programs, learned, stream, probes = corpus_run
    reference = ReferenceModel(stream, USpecPipeline().config.train)
    for key, indices in probes:
        assert learned.model.predict_encoded(key, indices) == \
            pytest.approx(reference.predict_encoded(key, indices), abs=1e-9)

    monkeypatch.setattr(
        USpecPipeline, "train_from_stats",
        lambda self, stats: ReferenceModel(
            list(stats.stream(self.config.seed)), self.config.train),
    )
    expected = USpecPipeline().learn(programs)
    assert specs_to_json(learned.specs, learned.scores) == \
        specs_to_json(expected.specs, expected.scores)


def test_each_key_predicts_as_if_trained_alone(corpus_run):
    _, learned, stream, probes = corpus_run
    train = USpecPipeline().config.train
    alone = {}
    for key in {s.position_key for s in stream}:
        alone[key] = EventPairModel(train_config=train)
        alone[key].fit_encoded(
            [s for s in stream if s.position_key == key])
    for key, indices in probes:
        assert learned.model.predict_encoded(key, indices) == \
            alone[key].predict_encoded(key, indices)
    # the fallback is one model over the whole stream under one key
    whole = EventPairModel(train_config=train)
    whole.fit_encoded([EncodedSample(("0", "ret"), s.indices, s.label)
                       for s in stream])
    for _, indices in probes:
        assert learned.model.predict_encoded(UNSEEN, indices) == \
            whole.predict_encoded(("0", "ret"), indices)


def _key_cells(stream):
    """3·Σₖ(|colsₖ| + 1): each key's members over the indices its own
    samples use, plus the zero column."""
    columns = {}
    for s in stream:
        columns.setdefault(s.position_key, set()).update(s.indices)
    return N_MEMBERS * sum(len(c) + 1 for c in columns.values())


def _fallback_cells(stream):
    return N_MEMBERS * (len({i for s in stream for i in s.indices}) + 1)


def test_weight_storage_follows_each_keys_own_columns(corpus_run):
    _, _, stream, probes = corpus_run
    model = EventPairModel()
    model.fit_encoded(stream)
    n_keys = len(model.position_keys)
    assert n_keys > 1
    keyed = _key_cells(stream)
    # not keys × every column seen
    assert keyed < n_keys * _fallback_cells(stream) / 2
    assert model.weights.size == keyed
    for key, indices in probes:
        model.predict_encoded(key, indices)
    assert model.weights.size == keyed
    model.predict_encoded(UNSEEN, stream[0].indices)
    assert model.weights.size == keyed + _fallback_cells(stream)


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
    # no fallback block yet
    assert model.weights.size == _key_cells(stream)
    reference = ReferenceModel(stream)
    for indices in [(0, 11), (0, 10, 25), (0, 11)]:
        assert model.predict_encoded(UNSEEN, indices) == pytest.approx(
            reference.predict_encoded(UNSEEN, indices), abs=1e-9)
    fallback = model.weights[_key_cells(stream):]
    assert fallback.size == _fallback_cells(stream)
    assert fallback.any()


def test_refit_discards_the_trained_fallback():
    first, second = _toy_stream(), _skewed_stream()
    expected = ReferenceModel(second).predict_encoded(UNSEEN, (0, 11))
    assert ReferenceModel(first).predict_encoded(UNSEEN, (0, 11)) != \
        pytest.approx(expected, abs=1e-6)
    model = EventPairModel()
    model.fit_encoded(first)
    model.predict_encoded(UNSEEN, (0, 11))
    model.fit_encoded(second)
    # the refit keeps no fallback block
    assert model.weights.size == _key_cells(second)
    assert model.predict_encoded(UNSEEN, (0, 11)) == \
        pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("stream", [
    _toy_stream(), _skewed_stream(), _sized_stream([7]),
    _sized_stream([20, 1]), _sized_stream([5, 5, 5, 5]),
    _sized_stream([13, 8, 8, 3, 2, 1, 1]),
], ids=["toy", "skewed", "one-key", "dominant", "even", "mixed"])
def test_every_key_model_is_scheduled_once(stream, monkeypatch):
    model, lanes = _fit_recording_lanes(stream, monkeypatch)
    config = TrainConfig()
    by_key = {}
    for i, sample in enumerate(stream):
        by_key.setdefault(sample.position_key, []).append(i)
    scheduled = [m for lane in lanes for m in lane]
    # a model's weight of columns[j] is cell offset + j, for the j of
    # its key's block: the models' cells tile the weight vector
    cells = []
    for offset, ids, _ in scheduled:
        (key,) = {stream[i].position_key for i in ids}
        block = model._blocks[key]
        cells.append((offset + model.bases[block],
                      offset + model.bases[block + 1]))
    cells.sort()
    assert cells[0][0] == 0 and cells[-1][1] == model.weights.size
    assert all(a[1] == b[0] for a, b in zip(cells, cells[1:]))
    assert sorted((list(ids), seed) for _, ids, seed in scheduled) == \
        sorted((ids, config.seed + 101 * m)
               for ids in by_key.values() for m in range(N_MEMBERS))
    longest = config.epochs * max(
        sum(len(ids) for _, ids, _ in lane) for lane in lanes)
    if len(by_key) > 1:
        assert longest < config.epochs * len(stream)
    else:
        assert longest == config.epochs * len(stream)


def _fit_peak(stream, epochs):
    """``fit_encoded``'s tracemalloc peak, in bytes."""
    tracemalloc.start()
    try:
        EventPairModel(train_config=TrainConfig(epochs=epochs)) \
            .fit_encoded(stream)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fit_peak_does_not_grow_with_epochs():
    """``run_lanes`` builds each chunk's steps as the loop reaches
    them, so a lane holds one model's epoch at a time.  Schedules
    built whole (the lanes' schedules and the step matrices they fill:
    four int64 cells per model step, 2.3 MB at 8 epochs on this stream
    of short examples) nearly tripled the peak."""
    rng = random.Random(5)
    stream = [EncodedSample((str(i % 4), "ret"),
                            (0, 10 + rng.randrange(6)), rng.randrange(2))
              for i in range(3000)]
    assert _fit_peak(stream, 8) <= 1.1 * _fit_peak(stream, 1)


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
