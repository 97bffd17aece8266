"""The probabilistic event-graph model ϕ (paper §4).

* :mod:`features` — the feature ``ftr(e1, e2) = (x1, x2, ctx(e1),
  ctx(e2), γ)`` with γ capturing argument types and guarding
  control-flow conditions, plus the hashing-trick encoder;
* :mod:`logistic` — from-scratch sparse logistic regressions trained
  with Adagrad SGD, many models in one lockstep loop (the stand-in for
  Vowpal Wabbit);
* :mod:`dataset` — positive samples from event-graph edges (with the
  §4.2 path-removal rule so the model cannot simply learn the
  transitive closure) and subsampled negatives;
* :mod:`model` — the ensemble ϕ: one logistic regression per argument
  position pair ``(x1, x2)``, with a shared fallback.
"""

from repro.model.features import (
    EncodedSample,
    FeatureConfig,
    GuardIndex,
    PairFeature,
    encode_feature,
    encode_sample,
    extract_feature,
)
from repro.model.logistic import SufficientStats, TrainConfig
from repro.model.dataset import (
    GraphBundle,
    LabeledSample,
    bundle_seed,
    collect_bundle_samples,
    collect_training_samples,
)
from repro.model.model import EventPairModel

__all__ = [
    "EncodedSample",
    "EventPairModel",
    "FeatureConfig",
    "GraphBundle",
    "GuardIndex",
    "LabeledSample",
    "PairFeature",
    "SufficientStats",
    "TrainConfig",
    "bundle_seed",
    "collect_bundle_samples",
    "collect_training_samples",
    "encode_feature",
    "encode_sample",
    "extract_feature",
]
