"""Sparse logistic regression trained with Adagrad SGD.

A minimal, dependency-light stand-in for the Vowpal Wabbit models the
paper uses (§7.1).  Features are sparse binary index tuples (from the
hashing trick in :mod:`repro.model.features`); the model keeps a dense
weight vector of the hashed dimension.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.model.features import EncodedSample

SparseExample = Tuple[Tuple[int, ...], int]  # (active indices, label 0/1)


def as_index_array(indices: Sequence[int]) -> np.ndarray:
    """The int64 index array of one sparse example (idempotent)."""
    if isinstance(indices, np.ndarray):
        return indices
    return np.fromiter(indices, dtype=np.int64, count=len(indices))


@dataclass
class SufficientStats:
    """Mergeable sufficient statistics of the event-pair training set.

    The sharded mining engine cannot thread one RNG through the whole
    corpus — shards finish in arbitrary order on arbitrary workers — so
    each worker instead accumulates the *hashed samples of each
    program* under the program's stable key.  ``merge`` is the monoid
    operation (keys are disjoint across shards by construction;
    duplicate keys concatenate defensively), and :meth:`stream`
    linearises the accumulated blocks into the canonical training
    order: program keys sorted, then one seeded global shuffle.  The
    resulting SGD stream is byte-identical regardless of worker count,
    shard count or completion order.
    """

    blocks: Dict[str, List[EncodedSample]] = field(default_factory=dict)

    def add(self, program_key: str, samples: Sequence[EncodedSample]) -> None:
        self.blocks.setdefault(program_key, []).extend(samples)

    def merge(self, other: "SufficientStats") -> "SufficientStats":
        for key, samples in other.blocks.items():
            self.blocks.setdefault(key, []).extend(samples)
        return self

    @property
    def n_samples(self) -> int:
        return sum(len(v) for v in self.blocks.values())

    def stream(self, seed: int) -> List[EncodedSample]:
        """The canonical, deterministically shuffled training stream."""
        ordered: List[EncodedSample] = []
        for key in sorted(self.blocks):
            ordered.extend(self.blocks[key])
        random.Random(seed).shuffle(ordered)
        return ordered

    def __len__(self) -> int:
        return self.n_samples

    # ------------------------------------------------------------------
    # pickling: shard partials carry these across the worker result
    # pipes.  Pickling tens of thousands of EncodedSample objects pays
    # a per-object opcode tax on both ends; instead each program block
    # is packed into a handful of flat numpy buffers (interned position
    # keys, labels, per-sample index counts, concatenated indices) and
    # the samples are rebuilt — field-identical — on unpickle.

    def __getstate__(self) -> Dict:
        packed = {}
        for key, samples in self.blocks.items():
            uniq: Dict[Tuple[str, str], int] = {}
            kid = np.empty(len(samples), dtype=np.int32)
            labels = np.empty(len(samples), dtype=np.int8)
            counts = np.empty(len(samples), dtype=np.int64)
            for i, s in enumerate(samples):
                kid[i] = uniq.setdefault(s.position_key, len(uniq))
                labels[i] = s.label
                counts[i] = len(s.indices)
            flat = np.empty(int(counts.sum()), dtype=np.int64)
            pos = 0
            for s in samples:
                n = len(s.indices)
                flat[pos:pos + n] = as_index_array(s.indices)
                pos += n
            packed[key] = (list(uniq), kid, labels, counts, flat)
        return {"packed": packed}

    def __setstate__(self, state: Dict) -> None:
        if "blocks" in state:  # legacy object-list pickles
            self.blocks = state["blocks"]
            return
        self.blocks = {}
        for key, (uniq, kid, labels, counts, flat) in \
                state["packed"].items():
            splits = np.split(flat, np.cumsum(counts[:-1])) \
                if len(counts) else []
            self.blocks[key] = [
                EncodedSample(uniq[k], tuple(part.tolist()), label)
                for k, label, part in zip(
                    kid.tolist(), labels.tolist(), splits)
            ]

    def __repr__(self) -> str:
        return (f"<SufficientStats {self.n_samples} samples / "
                f"{len(self.blocks)} programs>")


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyper-parameters."""

    epochs: int = 6
    learning_rate: float = 0.5
    l2: float = 1e-6
    seed: int = 7


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


class LogisticRegression:
    """Binary logistic regression over hashed sparse features."""

    def __init__(self, dim: int, config: TrainConfig = TrainConfig()) -> None:
        self.dim = dim
        self.config = config
        self.weights = np.zeros(dim, dtype=np.float64)
        self._grad_sq = np.full(dim, 1e-8, dtype=np.float64)
        self.n_trained = 0

    # ------------------------------------------------------------------

    def decision(self, indices: Sequence[int]) -> float:
        return float(self.weights[list(indices)].sum()) if indices else 0.0

    def predict_proba(self, indices: Sequence[int]) -> float:
        return _sigmoid(self.decision(indices))

    def predict(self, indices: Sequence[int]) -> int:
        return 1 if self.predict_proba(indices) >= 0.5 else 0

    # ------------------------------------------------------------------

    def partial_fit(self, indices: Sequence[int], label: int) -> float:
        """One Adagrad step; returns the example's log-loss before update."""
        if isinstance(indices, np.ndarray):
            idx = indices
        else:
            idx = np.fromiter(indices, dtype=np.int64)
        p = _sigmoid(float(self.weights[idx].sum()))
        gradient = p - label  # dLoss/dz for each active binary feature
        self._grad_sq[idx] += gradient * gradient
        lr = self.config.learning_rate / np.sqrt(self._grad_sq[idx])
        self.weights[idx] -= lr * (gradient + self.config.l2 * self.weights[idx])
        self.n_trained += 1
        eps = 1e-12
        return -(label * math.log(p + eps) + (1 - label) * math.log(1 - p + eps))

    def fit(self, examples: Sequence[SparseExample]) -> List[float]:
        """Multi-epoch SGD over a shuffled copy; returns per-epoch mean loss."""
        rng = random.Random(self.config.seed)
        order = list(range(len(examples)))
        # Hash indices → int64 arrays once, not once per epoch × member:
        # the Adagrad step's arithmetic sees identical values either way.
        prepared = [as_index_array(indices) for indices, _ in examples]
        losses: List[float] = []
        for _ in range(self.config.epochs):
            rng.shuffle(order)
            total = 0.0
            for i in order:
                total += self.partial_fit(prepared[i], examples[i][1])
            losses.append(total / max(1, len(examples)))
        return losses

    # ------------------------------------------------------------------
    # pickling: the dense weight/accumulator vectors are almost entirely
    # zeros (hashed-feature models touch only observed indices), so the
    # pickle stores sparse (index, value) pairs.  This is what makes
    # shipping trained ensembles back from training workers cheap —
    # kilobytes instead of 2 × dim × 8 bytes per member.

    def __getstate__(self) -> Dict:
        # Sparse state is kept as flat numpy arrays: pickling an array is
        # one buffer copy, where a list-of-python-numbers form would pay
        # tolist() plus a per-element opcode on both ends of every pickle.
        nz = np.nonzero(self.weights)[0]
        wv = self.weights[nz]
        gz = np.nonzero(self._grad_sq != 1e-8)[0]
        gv = self._grad_sq[gz]
        # hashed dimensions fit comfortably in 32-bit indices; the cast
        # is lossless and halves the index payload of every pickle
        if self.dim <= np.iinfo(np.int32).max:
            nz = nz.astype(np.int32)
            gz = gz.astype(np.int32)
        return {
            "dim": self.dim,
            "config": self.config,
            "n_trained": self.n_trained,
            "w_idx": nz,
            "w_val": wv,
            "g_idx": gz,
            "g_val": gv,
        }

    def __setstate__(self, state: Dict) -> None:
        self.dim = state["dim"]
        self.config = state["config"]
        self.n_trained = state["n_trained"]
        self.weights = np.zeros(self.dim, dtype=np.float64)
        self.weights[state["w_idx"]] = state["w_val"]
        self._grad_sq = np.full(self.dim, 1e-8, dtype=np.float64)
        self._grad_sq[state["g_idx"]] = state["g_val"]

    def __repr__(self) -> str:
        nnz = int(np.count_nonzero(self.weights))
        return f"<LogisticRegression dim={self.dim} nnz={nnz} trained={self.n_trained}>"
