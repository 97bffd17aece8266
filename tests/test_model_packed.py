"""Packed samples against the object reference they replace.

Samples travel from hashing to training packed, one
:class:`~repro.model.features.SampleBlock` per program and one for
the stream, and training compiles its columns one position key at a
time.  The references here are the forms they replaced:
:func:`reference_compile` is the all-elements compile (one
``np.unique`` over every (group, index) pair of the stream), and
:func:`reference_stream` a list of
:class:`~repro.model.features.EncodedSample` objects shuffled whole.
Both must give exactly what the packed forms give.  The memory tests
pin why the packed forms exist: the statistics hold a few bytes per
index, and training's transient peak no longer holds every element's
compile at once.
"""

import bisect
import dataclasses
import itertools
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.model.features import EncodedSample, FeatureConfig, SampleBlock
from repro.model.logistic import (
    CompiledExamples,
    SufficientStats,
    compile_examples,
)
from repro.model.model import EventPairModel
from repro.specs.pipeline import USpecPipeline


def reference_compile(examples, groups):
    """``compile_examples`` over ``(indices, label)`` tuples, numbering
    every group's columns with one ``np.unique`` over all elements."""
    n = len(examples)
    lengths = np.zeros(n + 1, np.int64)
    lengths[:n] = [len(ix) for ix, _ in examples]
    hashed = np.fromiter(itertools.chain.from_iterable(
        ix for ix, _ in examples), np.int64, count=int(lengths.sum()))
    of_example = np.zeros(n + 1, np.int64)
    of_example[:n] = groups
    n_groups = int(of_example.max()) + 1
    span = int(hashed.max()) + 1 if len(hashed) else 1
    pairs = np.repeat(of_example * span, lengths) + hashed
    seen, inverse = np.unique(pairs, return_inverse=True)
    group = seen // span
    bases = np.zeros(n_groups + 1, np.int64)
    np.cumsum(np.bincount(group, minlength=n_groups) + 1, out=bases[1:])
    position = group + np.arange(1, len(seen) + 1)
    columns = np.full(int(bases[-1]), -1, np.int64)
    columns[position] = seen % span
    labels = np.zeros(n + 1, np.int8)
    labels[:n] = [label for _, label in examples]
    firsts = np.cumsum(lengths) - lengths
    return CompiledExamples(
        columns=columns, bases=bases, lengths=lengths.astype(np.int32),
        cols=np.insert(position[inverse.ravel()], firsts,
                       bases[of_example]).astype(np.int32),
        starts=(firsts + np.arange(n + 1)).astype(np.int32), labels=labels)


def reference_stream(programs, seed):
    """The training stream as a list: each program's samples in key
    order, then one seeded shuffle of the samples themselves."""
    ordered = [s for key in sorted(programs) for s in programs[key]]
    random.Random(seed).shuffle(ordered)
    return ordered


def _view(packed):
    return np.frombuffer(packed, dtype=packed.typecode)


def _compile_block(block):
    """``compile_examples`` as ``fit_encoded`` calls it on a stream."""
    return compile_examples(_view(block.lengths), _view(block.indices),
                            _view(block.labels), _view(block.key_ids))


def _assert_same_arrays(got, want):
    for f in dataclasses.fields(CompiledExamples):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        assert np.array_equal(a, b), f.name


# ----------------------------------------------------------------------
# the per-key compile


@st.composite
def streams(draw):
    dim = draw(st.sampled_from([FeatureConfig().dim,
                                FeatureConfig(dim=1 << 10).dim]))
    n_keys = draw(st.integers(1, 4))
    index = st.one_of(st.sampled_from([0, dim - 1]),
                      st.integers(0, dim - 1))
    sample = st.builds(
        lambda key, ix, label: EncodedSample((str(key), "ret"),
                                             tuple(sorted(ix)), label),
        st.integers(0, n_keys - 1), st.frozensets(index, max_size=8),
        st.integers(0, 1))
    return draw(st.lists(sample, max_size=30))


_DIM = FeatureConfig(dim=1 << 10).dim


@settings(max_examples=150, deadline=None)
@given(streams())
@example([])
@example([EncodedSample(("0", "ret"), (), 1)])
@example([EncodedSample(("0", "ret"), (0, 7, _DIM - 1), 1),
          EncodedSample(("1", "2"), (_DIM - 1,), 0),
          EncodedSample(("0", "ret"), (), 0),
          EncodedSample(("0", "ret"), (0, 7), 0),
          EncodedSample(("ret", "ret"), (0, 3), 1)])
def test_per_key_compile_equals_the_all_elements_compile(stream):
    block = SampleBlock.pack(stream)
    assert list(block) == stream
    _assert_same_arrays(
        _compile_block(block),
        reference_compile([(s.indices, s.label) for s in stream],
                          list(block.key_ids)))


def test_compile_numbers_each_group_on_its_own():
    block = SampleBlock.pack([EncodedSample(("0", "ret"), (4, 9), 1),
                              EncodedSample(("1", "2"), (9, 30), 0),
                              EncodedSample(("0", "ret"), (2,), 0)])
    compiled = _compile_block(block)
    assert compiled.columns.tolist() == [-1, 2, 4, 9, -1, 9, 30]
    assert compiled.bases.tolist() == [0, 4, 7]
    # each example: its group's zero column, then its own columns
    assert compiled.cols.tolist() == [0, 2, 3, 4, 5, 6, 0, 1, 0]
    assert compiled.starts.tolist() == [0, 3, 6, 8]
    assert compiled.labels.tolist() == [1, 0, 0, 0]


# ----------------------------------------------------------------------
# blocks and the stream


def _program_samples():
    """Each program's hashed samples of a 10-file Java corpus, by
    stream key: real key tables, each in its own first-appearance
    order."""
    programs = CorpusGenerator(
        java_registry(), CorpusConfig(n_files=10, seed=3)).programs()
    pipeline = USpecPipeline()
    stats = pipeline.collect_stats(pipeline.analyze_corpus(programs))
    return {key: list(block) for key, block in stats.blocks.items()}


def test_stream_iterates_to_the_list_based_stream():
    programs = _program_samples()
    keys = sorted(programs)
    assert len(keys) == 10 and all(programs.values())
    expected = reference_stream(programs, 13)
    # keys added in two arrival orders give one stream
    for order in (keys[::2] + keys[1::2], keys[1::2] + keys[::2]):
        stats = SufficientStats()
        for key in order:
            stats.add(key, programs[key])
        stream = stats.stream(13)
        assert list(stream) == expected
        # a stream's key table is in first-appearance order
        assert list(stream.keys) == list(dict.fromkeys(
            s.position_key for s in expected))


def test_block_round_trips():
    samples = [EncodedSample(("1", "2"), (5, 9), 1),
               EncodedSample(("0", "ret"), (), 0),
               EncodedSample(("1", "2"), ((1 << 18) - 1,), 0)]
    block = SampleBlock.pack(samples)
    assert len(block) == 3 and list(block) == samples
    assert SampleBlock.of(block) is block
    copy = pickle.loads(pickle.dumps(block, pickle.HIGHEST_PROTOCOL))
    assert list(copy) == samples
    assert list(SampleBlock.concat([block, SampleBlock(), copy])) == \
        samples + samples
    assert list(block.permuted([2, 0, 1])) == \
        [samples[2], samples[0], samples[1]]
    # duplicate stream keys concatenate, leaving the held block as it was
    stats = SufficientStats()
    stats.add("k", block)
    stats.add("k", samples[:1])
    assert list(stats.blocks["k"]) == samples + samples[:1]
    assert list(block) == samples


def test_an_index_past_int32_raises():
    with pytest.raises(OverflowError):
        SampleBlock().append(("0", "ret"), (1 << 31,), 1)


# ----------------------------------------------------------------------
# memory

#: percent of the samples under each position key; the largest key
#: holds 34–38% of the benchmark's streams
SHARES = (38, 22, 14, 10, 7, 5, 4)


def _synthetic_samples(n=3000, width=30):
    """``n`` samples of ``width`` distinct large indices each, drawn
    from a 64-index vocabulary, over position keys in :data:`SHARES`."""
    rng = random.Random(5)
    vocabulary = rng.sample(range(1 << 18), 64)
    bounds = list(itertools.accumulate(SHARES))
    return [EncodedSample((str(bisect.bisect_right(bounds, i % 100)), "ret"),
                          tuple(sorted(rng.sample(vocabulary, width))),
                          rng.randrange(2))
            for i in range(n)]


def test_stats_hold_a_few_bytes_per_index():
    """Statistics that crossed a pipe hold about 5 bytes per index
    (4 for the index, the rest per sample and per program).  Rebuilt
    as ``EncodedSample`` tuples they held 45: an int object and a
    pointer per index."""
    samples = _synthetic_samples()
    stats = SufficientStats()
    for p in range(50):
        stats.add(f"{p:06d}", samples[60 * p:60 * (p + 1)])
    blob = pickle.dumps(stats, pickle.HIGHEST_PROTOCOL)
    tracemalloc.start()
    try:
        restored = pickle.loads(blob)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    n_elements = sum(len(s.indices) for s in samples)
    assert restored.n_samples == len(samples)
    assert held <= 8 * n_elements


def test_fit_peak_is_bounded_per_index():
    """``fit_encoded`` compiles one position key at a time, so its
    peak sits in ``run_lanes`` at about 38 bytes per index of this
    stream.  The all-elements compile peaked at 53 before training
    began."""
    block = SampleBlock.pack(_synthetic_samples())
    tracemalloc.start()
    try:
        EventPairModel().fit_encoded(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 46 * len(block.indices)
