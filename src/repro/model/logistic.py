"""Sparse logistic regression trained with Adagrad SGD, many models at once.

A minimal, dependency-light stand-in for the Vowpal Wabbit models the
paper uses (§7.1).  Features are sparse binary index tuples (from the
hashing trick in :mod:`repro.model.features`).

:func:`train_lanes` trains a set of independent models in one loop.
Each model sees its examples in its own seeded per-epoch shuffle and
takes one Adagrad step per example, as a per-sample trainer would; the
loop only interleaves the models.  Models are grouped into equally
long *lanes* that run their models back to back, and one iteration
advances every lane by one step with a fixed handful of numpy calls,
so the Python iteration count is one lane's step count rather than the
sum over all models.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.model.features import EncodedSample

#: one model of a lane: (weight-matrix row, ids of its examples in
#: stream order, shuffle seed)
LaneModel = Tuple[int, Sequence[int], int]

#: steps whose gather indices are built in one batch, so index memory
#: stays flat however long the lanes are
CHUNK_STEPS = 256


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


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _lane_schedule(
    lane: Sequence[LaneModel], epochs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """(row, example id) of every step of one lane, in step order.

    Each model reshuffles its example positions once per epoch with a
    ``random.Random(seed)`` of its own.
    """
    rows: List[np.ndarray] = [np.empty(0, np.int64)]
    ids: List[np.ndarray] = [np.empty(0, np.int64)]
    for row, examples, seed in lane:
        examples = np.asarray(examples, dtype=np.int64)
        rng = random.Random(seed)
        order = list(range(len(examples)))
        for _ in range(epochs):
            rng.shuffle(order)
            ids.append(examples[order])
        rows.append(np.full(epochs * len(examples), row, dtype=np.int64))
    return np.concatenate(rows), np.concatenate(ids)


def train_lanes(
    examples: Sequence[Tuple[Sequence[int], int]],
    lanes: Sequence[Sequence[LaneModel]],
    n_rows: int,
    config: TrainConfig = TrainConfig(),
) -> Tuple[np.ndarray, np.ndarray]:
    """Train ``n_rows`` logistic regressions over shared ``examples``.

    ``examples`` are ``(sorted unique hashed indices, label)``; each
    lane lists the models it trains back to back, and every lane must
    take the same number of steps.  Returns ``(columns, weights)``:
    ``columns`` holds every hashed index seen in training, sorted,
    behind a ``-1`` sentinel at position 0, and ``weights[row, j]`` is
    model ``row``'s weight of index ``columns[j]``.  Column 0 stays
    zero, so an index absent from training can map to it.

    Every step is the per-sample Adagrad update of each lane's model:
    the decision sums the gathered weights behind the zero column (the
    same float sum as ``weights[idx].sum()`` over a dense vector), and
    the update is elementwise, so vectorizing across lanes changes no
    operation of any single model.
    """
    lengths = np.fromiter((len(ix) for ix, _ in examples), np.int64,
                          count=len(examples))
    hashed = np.fromiter(
        itertools.chain.from_iterable(ix for ix, _ in examples),
        np.int64, count=int(lengths.sum()),
    )
    seen, inverse = np.unique(hashed, return_inverse=True)
    columns = np.concatenate([np.array([-1], np.int64), seen])
    width = len(columns)
    weights = np.zeros((n_rows, width))
    # every example's columns behind the zero column: [0, c1, c2, ...]
    firsts = np.cumsum(lengths) - lengths
    example_cols = np.insert(inverse.ravel() + 1, firsts, 0)
    starts = firsts + np.arange(len(examples))
    labels = np.fromiter((label for _, label in examples), np.int64,
                         count=len(examples))

    schedules = [_lane_schedule(lane, config.epochs) for lane in lanes]
    if not schedules or not len(schedules[0][0]):
        return columns, weights
    n_lanes = len(schedules)
    step_rows = np.stack([rows for rows, _ in schedules], axis=1)
    step_ids = np.stack([ids for _, ids in schedules], axis=1)

    grad_sq = np.full((n_rows, width), 1e-8)
    w_flat = weights.reshape(-1)
    g_flat = grad_sq.reshape(-1)
    lr, l2 = config.learning_rate, config.l2
    for t0 in range(0, len(step_rows), CHUNK_STEPS):
        # the chunk's (step, lane) pairs, step-major, and their
        # elements: one flat weight index per gathered column
        pair_row = step_rows[t0:t0 + CHUNK_STEPS].ravel()
        pair_id = step_ids[t0:t0 + CHUNK_STEPS].ravel()
        counts = lengths[pair_id] + 1
        pair_end = np.cumsum(counts)
        pair_start = pair_end - counts
        source = np.arange(int(pair_end[-1])) \
            + np.repeat(starts[pair_id] - pair_start, counts)
        elem_flat = example_cols[source] \
            + np.repeat(pair_row * width, counts)
        # each element's gradient slot: its lane's, or for the zero
        # column a trailing zero gradient, so that column never moves
        elem_slot = np.repeat(
            np.tile(np.arange(n_lanes), len(counts) // n_lanes), counts)
        elem_slot[pair_start] = n_lanes
        bounds = [0] + pair_end[n_lanes - 1::n_lanes].tolist()
        segments = (pair_start.reshape(-1, n_lanes)
                    - np.array(bounds[:-1])[:, None])
        ys = labels[pair_id].reshape(-1, n_lanes).tolist()
        for t, y in enumerate(ys):
            a, b = bounds[t], bounds[t + 1]
            flat = elem_flat[a:b]
            w = w_flat.take(flat)
            z = np.add.reduceat(w, segments[t])
            g = [sigmoid(v) - label for v, label in zip(z.tolist(), y)]
            g.append(0.0)
            grad = np.array(g)[elem_slot[a:b]]
            gs = g_flat.take(flat) + grad * grad
            g_flat[flat] = gs
            w_flat[flat] = w - lr / np.sqrt(gs) * (grad + l2 * w)
    return columns, weights
