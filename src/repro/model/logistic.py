"""Sparse logistic regression trained with Adagrad SGD, many models at once.

A minimal, dependency-light stand-in for the Vowpal Wabbit models the
paper uses (§7.1).  Features are sparse binary index tuples (from the
hashing trick in :mod:`repro.model.features`).

Training is two steps.  :func:`compile_examples` turns the examples
into flat arrays over the columns they use, once; :func:`run_lanes`
then trains any set of independent models over them into given weight
rows.  Each model sees its examples in its own seeded per-epoch shuffle
and takes one Adagrad step per example, as a per-sample trainer would;
the loop only interleaves the models.  Models are grouped into *lanes*
that run their models back to back, and one iteration advances every
lane by one step with a fixed handful of numpy calls, so the Python
iteration count is the longest lane's step count rather than the sum
over all models.  :func:`pack_lanes` balances models of unequal size
over lanes, and a lane that finishes early idles until the longest is
done.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

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
    program* under the program's
    :func:`~repro.model.dataset.stream_key`.  ``merge`` is the monoid
    operation (keys are disjoint across shards by construction;
    duplicate keys concatenate defensively), and :meth:`stream`
    linearises the accumulated blocks into the canonical training
    order: keys sorted, then one seeded global shuffle.  The resulting
    SGD stream is byte-identical regardless of worker count, shard
    count, completion order or corpus order.
    """

    blocks: Dict[Hashable, List[EncodedSample]] = field(default_factory=dict)

    def add(self, key: Hashable, samples: Sequence[EncodedSample]) -> None:
        self.blocks.setdefault(key, []).extend(samples)

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


def pack_lanes(models: Sequence[LaneModel]) -> List[List[LaneModel]]:
    """Spread models, each with at least one example, over lanes so
    that the longest lane stays short.

    There are ``⌈total examples / longest model's examples⌉`` lanes,
    the fewest that could all finish with the longest model; models go
    longest first onto the least-loaded lane (ties to the lowest lane,
    equal models in input order).  Packing changes no model, only the
    loop length.
    """
    if not models:
        return []
    sizes = [len(examples) for _, examples, _ in models]
    n_lanes = -(-sum(sizes) // max(sizes))
    lanes: List[List[LaneModel]] = [[] for _ in range(n_lanes)]
    loads = [(0, j) for j in range(n_lanes)]
    for k in sorted(range(len(models)), key=lambda k: -sizes[k]):
        load, j = heapq.heappop(loads)
        lanes[j].append(models[k])
        heapq.heappush(loads, (load + sizes[k], j))
    return lanes


@dataclass(frozen=True)
class CompiledExamples:
    """Training examples as flat arrays, compiled once for any lane run.

    ``columns`` holds every hashed index seen, sorted, behind a ``-1``
    sentinel at position 0.  Example ``i`` is ``cols[starts[i]:
    starts[i] + lengths[i] + 1]``: the zero column 0, then the
    positions in ``columns`` of its indices.  The last example, id
    :attr:`idle`, is empty, so its only element is the zero column.
    """

    columns: np.ndarray
    lengths: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    labels: np.ndarray

    @property
    def idle(self) -> int:
        """The empty example a finished lane steps on."""
        return len(self.labels) - 1


def compile_examples(
    examples: Sequence[Tuple[Sequence[int], int]],
) -> CompiledExamples:
    """Compact ``(sorted unique hashed indices, label)`` examples onto
    the columns they use, and append the idle example."""
    n = len(examples)
    lengths = np.zeros(n + 1, np.int64)
    lengths[:n] = np.fromiter((len(ix) for ix, _ in examples), np.int64,
                              count=n)
    hashed = np.fromiter(
        itertools.chain.from_iterable(ix for ix, _ in examples),
        np.int64, count=int(lengths.sum()),
    )
    seen, inverse = np.unique(hashed, return_inverse=True)
    labels = np.zeros(n + 1, np.int64)
    labels[:n] = np.fromiter((label for _, label in examples), np.int64,
                             count=n)
    firsts = np.cumsum(lengths) - lengths
    return CompiledExamples(
        columns=np.concatenate([np.array([-1], np.int64), seen]),
        lengths=lengths,
        cols=np.insert(inverse.ravel() + 1, firsts, 0),
        starts=firsts + np.arange(n + 1),
        labels=labels,
    )


def run_lanes(
    examples: CompiledExamples,
    lanes: Sequence[Sequence[LaneModel]],
    weights: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> None:
    """Train the lanes' models into rows of ``weights``, in place.

    ``weights`` is a C-contiguous ``(rows, len(examples.columns))``
    matrix of untrained (zero) rows, and each lane lists the models it
    trains back to back.  Lanes may differ in length: a finished lane
    steps on the idle example, whose zero column takes the zero
    gradient, until the longest lane is done.  Column 0 stays zero in
    every row, so an index absent from training can map to it.

    Every step is the per-sample Adagrad update of each lane's model:
    the decision sums the gathered weights behind the zero column (the
    same float sum as ``weights[idx].sum()`` over a dense vector), and
    the update is elementwise, so vectorizing across lanes changes no
    operation of any single model.
    """
    schedules = [_lane_schedule(lane, config.epochs) for lane in lanes]
    n_steps = max((len(ids) for _, ids in schedules), default=0)
    if not n_steps:
        return
    n_lanes = len(schedules)
    # idle steps gather row 0's zero column, possibly in several lanes
    # at once; every write leaves that cell as it was
    step_rows = np.zeros((n_steps, n_lanes), np.int64)
    step_ids = np.full((n_steps, n_lanes), examples.idle, np.int64)
    for j, (rows, ids) in enumerate(schedules):
        step_rows[:len(rows), j] = rows
        step_ids[:len(ids), j] = ids

    width = weights.shape[1]
    grad_sq = np.full(weights.shape, 1e-8)
    w_flat = weights.reshape(-1)
    g_flat = grad_sq.reshape(-1)
    lr, l2 = config.learning_rate, config.l2
    for t0 in range(0, n_steps, CHUNK_STEPS):
        # the chunk's (step, lane) pairs, step-major, and their
        # elements: one flat weight index per gathered column
        pair_row = step_rows[t0:t0 + CHUNK_STEPS].ravel()
        pair_id = step_ids[t0:t0 + CHUNK_STEPS].ravel()
        counts = examples.lengths[pair_id] + 1
        pair_end = np.cumsum(counts)
        pair_start = pair_end - counts
        source = np.arange(int(pair_end[-1])) \
            + np.repeat(examples.starts[pair_id] - pair_start, counts)
        elem_flat = examples.cols[source] \
            + np.repeat(pair_row * width, counts)
        # each element's gradient slot: its lane's, or for the zero
        # column a trailing zero gradient, so that column never moves
        elem_slot = np.repeat(
            np.tile(np.arange(n_lanes), len(counts) // n_lanes), counts)
        elem_slot[pair_start] = n_lanes
        bounds = [0] + pair_end[n_lanes - 1::n_lanes].tolist()
        segments = (pair_start.reshape(-1, n_lanes)
                    - np.array(bounds[:-1])[:, None])
        ys = examples.labels[pair_id].reshape(-1, n_lanes).tolist()
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
