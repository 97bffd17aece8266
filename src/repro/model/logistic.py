"""Sparse logistic regression trained with Adagrad SGD, many models at once.

A minimal, dependency-light stand-in for the Vowpal Wabbit models the
paper uses (§7.1).  Features are sparse binary index tuples (from the
hashing trick in :mod:`repro.model.features`).

Training is two steps.  :func:`compile_examples` turns the examples
into flat arrays, once, over a block of columns per group of examples
(for ϕ, per position key) that holds only the indices the group uses;
:func:`run_lanes` then trains any set of independent models over them
into given blocks of one flat weight vector.  Each model sees its
examples in its own seeded per-epoch shuffle and takes one Adagrad
step per example, as a per-sample trainer would; the loop only
interleaves the models.  Models are grouped into *lanes* that run
their models back to back, and one iteration advances every lane by
one step with a fixed handful of numpy calls, so the Python iteration
count is the longest lane's step count rather than the sum over all
models.  :func:`pack_lanes` balances models of unequal size over
lanes, and a lane that finishes early idles until the longest is
done.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.features import EncodedSample

#: one model of a lane: (offset of its weight block, ids of its
#: examples in stream order, shuffle seed)
LaneModel = Tuple[int, Sequence[int], int]

#: steps built, and gathered, in one batch: each lane's schedule is
#: built a chunk at a time as the loop reaches it
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


def _lane_epochs(
    lane: Sequence[LaneModel], epochs: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """(block offset, example ids) of each epoch of each model of one
    lane, in step order.

    Each model reshuffles its example positions once per epoch with a
    ``random.Random(seed)`` of its own.
    """
    for offset, examples, seed in lane:
        examples = np.asarray(examples, dtype=np.int64)
        rng = random.Random(seed)
        order = list(range(len(examples)))
        for _ in range(epochs):
            rng.shuffle(order)
            yield offset, examples[order]


class _LaneSteps:
    """One lane's steps, built an epoch at a time as training reaches
    them, so a lane never holds more than one model's epoch."""

    def __init__(self, lane: Sequence[LaneModel], epochs: int) -> None:
        self.n_steps = epochs * sum(len(ids) for _, ids, _ in lane)
        self._epochs = _lane_epochs(lane, epochs)
        self._offset, self._ids = 0, np.empty(0, np.int64)

    def fill(self, offsets: np.ndarray, ids: np.ndarray) -> None:
        """Write the lane's next steps into ``offsets`` and ``ids``,
        leaving the cells past its last step as they are."""
        done = 0
        while done < len(ids):
            if not len(self._ids):
                epoch = next(self._epochs, None)
                if epoch is None:
                    return
                self._offset, self._ids = epoch
            n = min(len(ids) - done, len(self._ids))
            offsets[done:done + n] = self._offset
            ids[done:done + n] = self._ids[:n]
            self._ids = self._ids[n:]
            done += n


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

    Every example belongs to one *group*, and each group numbers only
    the hashed indices its own examples use.  Group ``g``'s columns are
    ``columns[bases[g]:bases[g + 1]]``: a ``-1`` sentinel naming its
    zero column, then its indices, sorted.  Example ``i`` is
    ``cols[starts[i]:starts[i] + lengths[i] + 1]``: its group's zero
    column, then the positions in ``columns`` of its indices, all in
    its group's block.  The last example, id :attr:`idle`, is empty and
    in group 0, so its only element is column 0.
    """

    columns: np.ndarray
    bases: np.ndarray
    lengths: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    labels: np.ndarray

    @property
    def idle(self) -> int:
        """The empty example a finished lane steps on."""
        return len(self.labels) - 1

    def merged(self) -> "CompiledExamples":
        """The same examples as one group over every column seen: the
        arrays :func:`compile_examples` makes without groups."""
        columns, cols = np.unique(self.columns[self.cols],
                                  return_inverse=True)
        return replace(self, columns=columns,
                       bases=np.array([0, len(columns)], np.int64),
                       cols=cols.ravel().astype(np.int32))


def compile_examples(
    examples: Sequence[Tuple[Sequence[int], int]],
    groups: Optional[Sequence[int]] = None,
) -> CompiledExamples:
    """Compact ``(sorted unique hashed indices, label)`` examples onto
    the columns each group uses, and append the idle example.

    ``groups`` numbers each example's group ``0 … G-1`` (default: one
    group).  Columns keep their index order within a group, so an
    example's elements come in the same order under any grouping.
    Column positions, lengths and labels are stored narrow (int32 and
    int8): these arrays stay alive as long as the examples do.
    """
    n = len(examples)
    lengths = np.zeros(n + 1, np.int64)
    lengths[:n] = np.fromiter((len(ix) for ix, _ in examples), np.int64,
                              count=n)
    hashed = np.fromiter(
        itertools.chain.from_iterable(ix for ix, _ in examples),
        np.int64, count=int(lengths.sum()),
    )
    of_example = np.zeros(n + 1, np.int64)
    if groups is not None:
        of_example[:n] = np.fromiter(groups, np.int64, count=n)
    n_groups = int(of_example.max()) + 1
    # one (group, index) pair per element; the element-sized arrays go
    # as soon as they are used, since compiling sets the memory peak
    span = int(hashed.max()) + 1 if len(hashed) else 1
    pairs = np.repeat(of_example * span, lengths)
    pairs += hashed
    del hashed
    seen, inverse = np.unique(pairs, return_inverse=True)
    del pairs
    group = seen // span
    bases = np.zeros(n_groups + 1, np.int64)
    np.cumsum(np.bincount(group, minlength=n_groups) + 1, out=bases[1:])
    # distinct pairs sort group by group, so pair j of group g is
    # column j + g + 1, behind g + 1 zero columns
    position = group + np.arange(1, len(seen) + 1)
    columns = np.full(int(bases[-1]), -1, np.int64)
    columns[position] = seen % span
    labels = np.zeros(n + 1, np.int8)
    labels[:n] = np.fromiter((label for _, label in examples), np.int8,
                             count=n)
    firsts = np.cumsum(lengths) - lengths
    return CompiledExamples(
        columns=columns,
        bases=bases,
        lengths=lengths.astype(np.int32),
        cols=np.insert(position[inverse.ravel()], firsts,
                       bases[of_example]).astype(np.int32),
        starts=(firsts + np.arange(n + 1)).astype(np.int32),
        labels=labels,
    )


def run_lanes(
    examples: CompiledExamples,
    lanes: Sequence[Sequence[LaneModel]],
    weights: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> None:
    """Train the lanes' models into blocks of ``weights``, in place.

    ``weights`` is a C-contiguous array of untrained (zero) cells, read
    flat, and each lane lists the models it trains back to back.  A
    model's examples all come from one group, and its weight of
    ``columns[c]``, for each ``c`` of that group's block, is cell
    ``offset + c``: the model owns one block of cells.  Cell 0 must be
    where a model keeps column 0.  Lanes may differ in length: a
    finished lane steps on the idle example, whose zero column takes
    the zero gradient, until the longest lane is done.  Every zero
    column stays zero, so an index absent from a model's training can
    map to it.

    Every step is the per-sample Adagrad update of each lane's model:
    the decision sums the gathered weights behind the zero column (the
    same float sum as ``weights[idx].sum()`` over a dense vector), and
    the update is elementwise, so vectorizing across lanes changes no
    operation of any single model.  The Adagrad accumulator has the
    layout of ``weights``.
    """
    steps = [_LaneSteps(lane, config.epochs) for lane in lanes]
    n_steps = max((lane.n_steps for lane in steps), default=0)
    if not n_steps:
        return
    n_lanes = len(steps)
    step_offsets = np.empty((CHUNK_STEPS, n_lanes), np.int64)
    step_ids = np.empty((CHUNK_STEPS, n_lanes), np.int64)

    grad_sq = np.full(weights.shape, 1e-8)
    w_flat = weights.reshape(-1)
    g_flat = grad_sq.reshape(-1)
    lr, l2 = config.learning_rate, config.l2
    for t0 in range(0, n_steps, CHUNK_STEPS):
        # the chunk's (step, lane) pairs, step-major: idle steps gather
        # cell 0, a zero column, possibly in several lanes at once, and
        # every write leaves that cell as it was
        size = min(CHUNK_STEPS, n_steps - t0)
        step_offsets[:size] = 0
        step_ids[:size] = examples.idle
        for j, lane in enumerate(steps):
            lane.fill(step_offsets[:size, j], step_ids[:size, j])
        # and their elements: one flat weight index per gathered column
        pair_offset = step_offsets[:size].ravel()
        pair_id = step_ids[:size].ravel()
        counts = examples.lengths[pair_id] + 1
        pair_end = np.cumsum(counts)
        pair_start = pair_end - counts
        source = np.arange(int(pair_end[-1])) \
            + np.repeat(examples.starts[pair_id] - pair_start, counts)
        elem_flat = examples.cols[source] \
            + np.repeat(pair_offset, counts)
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
