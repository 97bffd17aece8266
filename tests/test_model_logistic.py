"""Tests for the from-scratch sparse logistic regression.

Each test trains ϕ on a single position key, so it exercises one
ensemble trained by the lockstep Adagrad loop.
"""

import math
import random

import numpy as np

from repro.model.features import EncodedSample
from repro.model.logistic import (
    TrainConfig,
    compile_examples,
    run_lanes,
    sigmoid,
)
from repro.model.model import EventPairModel

KEY = ("0", "ret")


def _fit(examples, config=TrainConfig()):
    model = EventPairModel(train_config=config)
    model.fit_encoded([EncodedSample(KEY, tuple(indices), label)
                       for indices, label in examples])
    return model


def _mean_log_loss(model, examples):
    total = 0.0
    for indices, label in examples:
        p = model.predict_encoded(KEY, indices)
        total -= label * math.log(p) + (1 - label) * math.log(1 - p)
    return total / len(examples)


def test_untrained_predicts_half():
    assert EventPairModel().predict_encoded(KEY, (1, 2, 3)) == 0.5


def test_learns_linearly_separable_data():
    # feature 1 present → positive; feature 2 present → negative
    model = _fit([((0, 1), 1), ((0, 2), 0)] * 50, TrainConfig(epochs=12))
    assert model.predict_encoded(KEY, (0, 1)) > 0.9
    assert model.predict_encoded(KEY, (0, 2)) < 0.1


def test_loss_decreases_over_epochs():
    rng = random.Random(3)
    examples = []
    for _ in range(200):
        label = rng.randint(0, 1)
        base = 10 if label else 20
        noise = rng.randrange(30, 40)
        examples.append(((base, noise), label))
    first = _fit(examples, TrainConfig(epochs=1))
    last = _fit(examples, TrainConfig(epochs=8))
    assert _mean_log_loss(last, examples) < _mean_log_loss(first, examples)


def test_training_is_deterministic():
    examples = [((0, 1), 1), ((0, 2), 0)] * 20
    m1, m2 = _fit(examples), _fit(examples)
    assert m1.predict_encoded(KEY, (0, 1)) == m2.predict_encoded(KEY, (0, 1))


def test_colliding_features_share_weight():
    # a hashed index is one weight cell, whatever token produced it
    model = _fit([((3,), 1)] * 30)
    assert model.predict_encoded(KEY, (3,)) > 0.9


def test_l2_shrinks_weights():
    examples = [((1,), 1), ((2,), 0)] * 30
    big_l2 = _fit(examples, TrainConfig(epochs=10, l2=0.5))
    no_l2 = _fit(examples, TrainConfig(epochs=10, l2=0.0))
    assert abs(big_l2.predict_encoded(KEY, (1,)) - 0.5) \
        < abs(no_l2.predict_encoded(KEY, (1,)) - 0.5)


def test_single_step_is_one_adagrad_update():
    config = TrainConfig(epochs=1)
    # one example, [5], labelled 1, in group 0
    examples = compile_examples([1], [5], [1], [0])
    weights = np.zeros((1, len(examples.columns)))
    run_lanes(examples, [[(0, [0], config.seed)]], weights, config)
    # p = 0.5, so g = -0.5 and the accumulator becomes 1e-8 + 0.25
    g = sigmoid(0.0) - 1
    expected = -config.learning_rate / math.sqrt(1e-8 + g * g) * g
    assert examples.columns.tolist() == [-1, 5]
    assert weights.tolist() == [[0.0, expected]]


def test_empty_indices_decision_zero():
    model = _fit([((0, 1), 1), ((0, 2), 0)] * 5)
    assert model.predict_encoded(KEY, ()) == 0.5
