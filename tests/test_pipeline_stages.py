"""Stage-level tests for the pipeline and the table renderers."""

import pickle

import pytest

from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    java_registry,
    python_registry,
)
from repro.eval.tables import format_table, tab3_rows, specs_by_package
from repro.model.features import extract_feature
from repro.model.model import EventPairModel
from repro.specs import PipelineConfig, RetArg, RetSame, SpecSet, USpecPipeline
from repro.specs.candidates import (
    CandidateExtraction,
    CandidateStats,
    match_records,
    score_records,
)
from repro.specs.matching import (
    find_matches,
    find_retrecv_matches,
    induced_edges,
)


@pytest.fixture(scope="module")
def small_setup():
    registry = java_registry()
    programs = CorpusGenerator(registry,
                               CorpusConfig(n_files=40, seed=31)).programs()
    pipeline = USpecPipeline()
    bundles = pipeline.analyze_corpus(programs)
    return registry, pipeline, bundles


def test_analyze_corpus_produces_bundles(small_setup):
    _, _, bundles = small_setup
    assert len(bundles) == 40
    assert all(b.graph.events for b in bundles if b.graph.edge_count)


def test_train_model_covers_position_keys(small_setup):
    _, pipeline, bundles = small_setup
    model = pipeline.train_model(bundles)
    assert isinstance(model, EventPairModel)
    assert ("ret", "0") in model.position_keys


def test_extract_then_score_then_select(small_setup):
    registry, pipeline, bundles = small_setup
    model = pipeline.train_model(bundles)
    extraction = pipeline.extract_candidates(bundles, model)
    assert len(extraction) > 0
    scores = pipeline.score(extraction)
    assert set(scores) == set(extraction.candidates())
    selected = pipeline.select(scores, tau=0.0)
    # at tau 0 everything scored is selected (plus extensions)
    assert all(s in selected for s in scores)
    none_selected = pipeline.select(scores, tau=1.1)
    assert len(none_selected) == 0


def test_custom_scorer_passthrough(small_setup):
    _, pipeline, bundles = small_setup
    model = pipeline.train_model(bundles)
    extraction = pipeline.extract_candidates(bundles, model)
    ones = pipeline.score(extraction, scorer=lambda confs, m: 1.0)
    assert all(v == 1.0 for v in ones.values())


def _per_match_reference(bundles, model, config):
    """Alg. 1 as written: ϕ applied to each single-edge match's
    structured feature, one match at a time."""
    reference = CandidateExtraction()
    for bundle in bundles:
        graph = bundle.graph
        matches = [
            match
            for pair in graph.receiver_pairs(config.max_receiver_distance)
            for match in find_matches(graph, pair)
        ]
        if config.enable_retrecv:
            matches.extend(find_retrecv_matches(graph))
        for match in matches:
            edges = induced_edges(match, graph)
            if len(edges) != 1:
                continue
            ((e1, e2),) = edges
            feature = extract_feature(graph, e1, e2, bundle.guard_index,
                                      config.feature)
            reference.stats.setdefault(match.spec, CandidateStats()).add(
                model.predict(feature), bundle.program.source)
    return reference


@pytest.mark.parametrize("retrecv", [False, True])
@pytest.mark.parametrize("language", ["java", "python"])
def test_score_records_of_match_records_equals_extract_candidates(
        language, retrecv):
    registry = java_registry() if language == "java" else python_registry()
    programs = CorpusGenerator(
        registry, CorpusConfig(n_files=12, seed=5)).programs()
    config = PipelineConfig(enable_retrecv=retrecv)
    pipeline = USpecPipeline(config)
    bundles = pipeline.analyze_corpus(programs)
    model = pipeline.train_model(bundles)
    records = [
        record for bundle in bundles
        for record in match_records(bundle, config.feature,
                                    config.max_receiver_distance, retrecv)
    ]
    # records cross process boundaries and disks pickled
    one_pass = score_records(pickle.loads(pickle.dumps(records)), model)
    reference = _per_match_reference(bundles, model, config)
    assert len(reference) > 0
    for extraction in (one_pass, pipeline.extract_candidates(bundles, model)):
        assert set(extraction.stats) == set(reference.stats)
        for spec, want in reference.stats.items():
            got = extraction.stats[spec]
            assert got.matches == want.matches
            assert got.files == want.files
            assert got.confidences == want.confidences  # float-equal


def test_pipeline_config_disable_extension():
    pipeline = USpecPipeline(PipelineConfig(extend=False))
    scores = {RetArg("A.get", "A.put", 2): 0.9}
    selected = pipeline.select(scores)
    assert RetSame("A.get") not in selected


# ----------------------------------------------------------------------
# table renderers


def _extraction_with(spec, matches=3, confs=(0.9, 0.8)):
    e = CandidateExtraction()
    e.stats[spec] = CandidateStats(confidences=list(confs), matches=matches,
                                   files={"f.java"})
    return e


def test_tab3_rows_marks_incorrect():
    registry = java_registry()
    good = RetArg("java.util.HashMap.get", "java.util.HashMap.put", 2)
    bad = RetSame("java.util.Iterator.next")
    extraction = _extraction_with(good)
    extraction.merge(_extraction_with(bad))
    rows = tab3_rows({good: 0.9, bad: 0.8}, extraction, registry)
    flags = {row[1]: row[4] for row in rows}
    assert flags[str(good)] == ""
    assert flags[str(bad)] == "incorrect"


def test_tab3_rows_sorted_by_score():
    registry = java_registry()
    a = RetSame("A.x")
    b = RetSame("B.y")
    extraction = _extraction_with(a)
    extraction.merge(_extraction_with(b))
    rows = tab3_rows({a: 0.3, b: 0.9}, extraction, registry)
    assert rows[0][1] == str(b)


def test_specs_by_package_counts_classes():
    registry = java_registry()
    specs = SpecSet([
        RetArg("java.util.HashMap.get", "java.util.HashMap.put", 2),
        RetSame("java.util.HashMap.get"),
        RetArg("java.util.TreeMap.get", "java.util.TreeMap.put", 2),
    ])
    rows = specs_by_package(specs, registry)
    assert rows[0] == ["java.util", 3, 2]


def test_format_table_title_and_empty():
    text = format_table(["a"], [], title="T")
    assert text.splitlines()[0] == "T"
    assert len(text.splitlines()) == 3  # title + header + separator
