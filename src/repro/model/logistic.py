"""Sparse logistic regression trained with Adagrad SGD, many models at once.

A minimal, dependency-light stand-in for the Vowpal Wabbit models the
paper uses (§7.1).  Features are sparse binary hashed indices (from
the hashing trick in :mod:`repro.model.features`), and examples
arrive packed: the flat arrays of a
:class:`~repro.model.features.SampleBlock`.

Training is two steps.  :func:`compile_examples` turns the examples
into flat arrays, once, over a block of columns per group of examples
(for ϕ, per position key) that holds only the indices the group uses,
numbering one group at a time; :func:`run_lanes` then trains any set
of independent models over them into given blocks of one flat weight
vector.  Each model sees its examples in its own seeded per-epoch
shuffle and takes one Adagrad step per example, as a per-sample
trainer would; the loop only interleaves the models.  Models are
grouped into *lanes* that run their models back to back, and one
iteration advances every lane by one step with a fixed handful of
numpy calls, so the Python iteration count is the longest lane's step
count rather than the sum over all models.  :func:`pack_lanes`
balances models of unequal size over lanes, and a lane that finishes
early idles until the longest is done.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field, replace
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.model.features import EncodedSample, SampleBlock

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
    """Sufficient statistics of the event-pair training set.

    The sharded mining engine cannot thread one RNG through the whole
    corpus — programs settle in arbitrary order on arbitrary workers —
    so it holds the *hashed samples of each program* instead, one
    :class:`~repro.model.features.SampleBlock` under the program's
    :func:`~repro.model.dataset.stream_key`, added in whatever order
    programs arrive (a duplicate key concatenates).  :meth:`stream`
    linearises the blocks into the canonical training order: keys
    sorted, then one seeded global shuffle.  The resulting SGD stream
    is byte-identical regardless of worker count, shard count,
    completion order or corpus order.  Blocks pickle as raw arrays, so
    each program's samples cross the worker pipe as they are.
    """

    blocks: Dict[Hashable, SampleBlock] = field(default_factory=dict)

    def add(self, key: Hashable,
            samples: Union[SampleBlock, Iterable[EncodedSample]]) -> None:
        """Hold ``samples`` under ``key``: a block as it is, anything
        else packed (a journal record written as ``EncodedSample``
        tuples loads this way)."""
        block = SampleBlock.of(samples)
        held = self.blocks.get(key)
        self.blocks[key] = block if held is None \
            else SampleBlock.concat([held, block])

    @property
    def n_samples(self) -> int:
        return sum(len(v) for v in self.blocks.values())

    def stream(self, seed: int) -> SampleBlock:
        """The canonical, deterministically shuffled training stream.

        ``shuffle`` draws its permutation from the length alone, so
        shuffling sample positions orders the samples as shuffling
        the samples themselves would."""
        ordered = SampleBlock.concat(
            [self.blocks[key] for key in sorted(self.blocks)])
        order = list(range(len(ordered)))
        random.Random(seed).shuffle(order)
        return ordered.permuted(order)

    def __len__(self) -> int:
        return self.n_samples

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
    lengths: Sequence[int],
    indices: Sequence[int],
    labels: Sequence[int],
    groups: Sequence[int],
) -> CompiledExamples:
    """Compact a stream's examples onto the columns each group uses,
    and append the idle example.

    Example ``i`` is the next ``lengths[i]`` of the flat ``indices``
    (sorted, unique hashed indices), labelled ``labels[i]``, in group
    ``groups[i]`` of ``0 … G-1``.  Each group numbers its columns with
    one ``np.unique`` over its own elements, so compiling holds the
    largest group's elements at a time, never every element's.
    Columns keep their index order within a group, so an example's
    elements come in the same order under any grouping.  Column
    positions, lengths and labels are stored narrow (int32 and int8):
    these arrays stay alive as long as the examples do.
    """
    n = len(lengths)
    sizes = np.zeros(n + 1, np.int64)
    sizes[:n] = lengths
    of_example = np.zeros(n + 1, np.int64)
    of_example[:n] = groups
    flat = np.asarray(indices)
    n_groups = int(of_example.max()) + 1
    firsts = np.cumsum(sizes) - sizes
    starts = firsts + np.arange(n + 1)
    # example i is its group's zero column at starts[i], then element
    # e of the stream, for each e of its own, at e + i + 1
    cols = np.empty(int(starts[-1]) + 1, np.int32)
    bases = np.zeros(n_groups + 1, np.int64)
    distinct = []
    for g in range(n_groups):
        members = np.flatnonzero(of_example[:n] == g)
        counts = sizes[members]
        ends = np.cumsum(counts)
        at = np.repeat(firsts[members] - (ends - counts), counts)
        at += np.arange(len(at))
        seen, inverse = np.unique(flat[at], return_inverse=True)
        at += np.repeat(members + 1, counts)
        # the group's j-th index is column j + 1 of its block
        inverse += bases[g] + 1
        cols[at] = inverse
        bases[g + 1] = bases[g] + len(seen) + 1
        distinct.append(seen)
    cols[starts] = bases[of_example]
    columns = np.full(int(bases[-1]), -1, np.int64)
    for g, seen in enumerate(distinct):
        columns[bases[g] + 1:bases[g + 1]] = seen
    compiled_labels = np.zeros(n + 1, np.int8)
    compiled_labels[:n] = labels
    return CompiledExamples(
        columns=columns,
        bases=bases,
        lengths=sizes.astype(np.int32),
        cols=cols,
        starts=starts.astype(np.int32),
        labels=compiled_labels,
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
