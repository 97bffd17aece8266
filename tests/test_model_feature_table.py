"""The integer featurizer against the string reference (paper §4.1–4.2).

:class:`~repro.model.features.FeatureTable` encodes event-id pairs
straight to hashed indices.  The string path —
:func:`~repro.model.features.extract_feature` renders the token sets,
:func:`~repro.model.features.encode_feature` CRCs every namespaced
token — is the reference: over the same draws, every encoded sample and
every Alg. 1 match record must be equal element by element, under the
default feature config and under configs that change every branch of
the encoder (including a 2^10-dimensional space, where indices
collide).
"""

import pytest

from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    java_registry,
    python_registry,
)
from repro.model import features as features_module
from repro.model.dataset import (
    bundle_seed,
    collect_bundle_samples,
    encode_bundle_samples,
)
from repro.model.features import (
    FeatureConfig,
    FeatureHasher,
    FeatureTable,
    encode_feature,
    encode_sample,
    extract_feature,
)
from repro.specs.candidates import match_records
from repro.specs.matching import (
    find_matches,
    find_retrecv_matches,
    induced_edges,
)
from repro.specs.pipeline import PipelineConfig, USpecPipeline

_BUNDLES = {}


def _bundles(language, seed, n_files):
    key = (language, seed, n_files)
    if key not in _BUNDLES:
        registry = java_registry() if language == "java" \
            else python_registry()
        programs = CorpusGenerator(
            registry, CorpusConfig(n_files=n_files, seed=seed)).programs()
        _BUNDLES[key] = USpecPipeline().analyze_corpus(programs)
    return _BUNDLES[key]


def _reference_records(bundle, config, max_receiver_distance=10,
                       enable_retrecv=False):
    """Alg. 1's match records through the string featurizer."""
    graph = bundle.graph
    matches = [match for pair in graph.receiver_pairs(max_receiver_distance)
               for match in find_matches(graph, pair)]
    if enable_retrecv:
        matches.extend(find_retrecv_matches(graph))
    records = []
    for match in matches:
        edges = induced_edges(match, graph)
        if len(edges) != 1:
            continue
        ((e1, e2),) = edges
        feature = extract_feature(graph, e1, e2, bundle.guard_index, config)
        records.append((match.spec, feature.position_key,
                        encode_feature(feature, config),
                        bundle.program.source))
    return records


def _assert_table_equals_reference(bundles, config, enable_retrecv=False):
    pipeline = PipelineConfig()
    hasher = FeatureHasher(config)
    n_samples = n_records = 0
    for index, bundle in enumerate(bundles):
        seed = bundle_seed(pipeline.seed, bundle.program.source, index)
        # a fresh table, not the one the string path leaves on the bundle
        table = FeatureTable(bundle.graph, bundle.guard_index, hasher)
        got = encode_bundle_samples(
            table, pipeline.max_positives_per_graph,
            pipeline.negative_ratio, seed)
        want = [encode_sample(s.feature, s.label, config)
                for s in collect_bundle_samples(
                    bundle, config, pipeline.max_positives_per_graph,
                    pipeline.negative_ratio, seed)]
        assert got == want, bundle.program.source
        bundle._table = table
        got_records = match_records(bundle, config, 10, enable_retrecv)
        assert got_records == _reference_records(
            bundle, config, 10, enable_retrecv), bundle.program.source
        n_samples += len(got)
        n_records += len(got_records)
    assert n_samples > 0 and n_records > 0


@pytest.mark.parametrize("seed", [1, 2, 3, 9])
@pytest.mark.parametrize("language", ["java", "python"])
def test_table_equals_string_reference(language, seed):
    _assert_table_equals_reference(_bundles(language, seed, 40),
                                   FeatureConfig(), enable_retrecv=True)


@pytest.mark.parametrize("config", [
    FeatureConfig(context_k=1),
    FeatureConfig(context_k=3),
    FeatureConfig(name_tokens=False),
    FeatureConfig(pair_features=False),
    FeatureConfig(max_paths=1),
    FeatureConfig(dim=1 << 10),
], ids=["k1", "k3", "no-names", "no-pairs", "max-paths-1", "dim-2^10"])
@pytest.mark.parametrize("language", ["java", "python"])
def test_table_equals_string_reference_under_other_configs(language, config):
    _assert_table_equals_reference(_bundles(language, 2, 12), config)


def test_hasher_at_its_memo_bound_returns_the_same_indices(monkeypatch):
    bundles = _bundles("java", 1, 12)
    config = FeatureConfig()

    def encode_all():
        hasher = FeatureHasher(config)
        return [encode_bundle_samples(
                    FeatureTable(b.graph, b.guard_index, hasher),
                    seed=bundle_seed(13, b.program.source, i))
                for i, b in enumerate(bundles)], hasher

    unbounded, _ = encode_all()
    monkeypatch.setattr(features_module, "MEMO_LIMIT", 3)
    bounded, hasher = encode_all()
    assert bounded == unbounded
    # the memos were cleared on the way, never grown past the bound
    assert 0 < len(hasher._paths) <= 3
    assert 0 < len(hasher._indices) <= 3
    assert 0 < len(hasher._gammas) <= 3


def test_table_numbers_events_and_edges_in_graph_order():
    for bundle in _bundles("python", 3, 12):
        graph = bundle.graph
        table = FeatureTable(graph, bundle.guard_index,
                             FeatureHasher(FeatureConfig()))
        assert table.events == sorted(graph.events, key=lambda e: e.sort_key)
        assert [(table.events[i], table.events[j])
                for i, j in table.edges()] == list(graph.edges())
        for e1 in table.events:
            for e2 in table.events:
                assert table.has_edge(table.index[e1], table.index[e2]) \
                    == graph.has_edge(e1, e2)


def test_conjunction_index_is_the_crc_of_the_rendered_token():
    hasher = FeatureHasher(FeatureConfig(dim=1 << 18))
    _, _, prefix, _ = hasher.path("java.util.Map.get:ret")
    _, _, _, suffix = hasher.path("getName~0:0")
    assert features_module.zlib.crc32(suffix, prefix) % (1 << 18) == \
        features_module._hash_token(
            "x:java.util.Map.get:ret|getName~0:0", 1 << 18)
