"""The active-learning loop: uncertainty extraction, directed
synthesis of discriminating programs, and the crash-consistent
refinement engine behind ``uspec refine``."""

import json

import pytest

from repro.active import (
    AmbiguousCandidate,
    DirectedSynthesizer,
    Metrics,
    RefineConfig,
    RefinementEngine,
    find_ambiguous,
)
from repro.active.refine import RefineStateError
from repro.active.synthesis import spec_slug
from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    derive_rng,
    java_registry,
    python_registry,
)
from repro.corpus.generator import _JavaGen, _PythonGen
from repro.mining import MiningConfig
from repro.specs.candidates import CandidateExtraction, CandidateStats
from repro.specs.patterns import RetArg, RetSame, SpecSet
from repro.specs.pipeline import PipelineConfig
from repro.runtime import FaultPlan, SimulatedCrash, arm

#: the toy corpus every refinement test runs on (matches CI's
#: refine-smoke job); seed 7 / 40 files puts 4 candidates in the band
TOY = dict(n_files=40, seed=7)


@pytest.fixture(scope="module")
def toy_base():
    registry = java_registry()
    generator = CorpusGenerator(registry, CorpusConfig(**TOY))
    return registry, generator.generate()


def make_engine(registry, store_dir, **overrides):
    refine = RefineConfig(**{
        "max_generations": 2, "seed": TOY["seed"], **overrides,
    })
    return RefinementEngine(
        registry, PipelineConfig(),
        MiningConfig(store_dir=str(store_dir)), refine,
    )


# ----------------------------------------------------------------------
# uncertainty extraction


def extraction_of(stats):
    extraction = CandidateExtraction()
    for spec, confidences in stats.items():
        entry = CandidateStats()
        for c in confidences:
            entry.add(c, "f.java")
        extraction.stats[spec] = entry
    return extraction


def test_find_ambiguous_flags_band_and_disagreement():
    near = RetSame("A.load")          # in the band
    sure = RetSame("B.load")          # high score, plenty of matches
    thin = RetSame("C.load")          # high score on a single match
    scores = {near: 0.55, sure: 0.97, thin: 0.99}
    extraction = extraction_of({
        near: [0.55] * 3, sure: [0.97] * 12, thin: [0.99],
    })
    found = find_ambiguous(scores, extraction, tau=0.6, band=0.15)
    by_spec = {c.spec: c for c in found}
    assert near in by_spec and by_spec[near].reason == "band"
    assert thin in by_spec and by_spec[thin].reason == "disagreement"
    assert sure not in by_spec
    # band candidates outrank disagreement-only ones
    assert found[0].spec == near
    assert found[0].uncertainty > 0


def test_find_ambiguous_is_deterministic_and_limited():
    specs = {RetSame(f"C{i}.get"): 0.6 for i in range(6)}
    extraction = extraction_of({s: [0.6] * 2 for s in specs})
    first = find_ambiguous(specs, extraction, tau=0.6, band=0.1)
    again = find_ambiguous(dict(reversed(list(specs.items()))),
                           extraction, tau=0.6, band=0.1)
    assert [str(c.spec) for c in first] == [str(c.spec) for c in again]
    assert len(find_ambiguous(specs, extraction, tau=0.6, band=0.1,
                              limit=2)) == 2
    with pytest.raises(ValueError):
        find_ambiguous(specs, extraction, tau=0.6, band=0.0)


# ----------------------------------------------------------------------
# seed threading in the generator


def test_derive_rng_streams_are_independent_and_stable():
    a1 = [derive_rng(7, "a").random() for _ in range(3)]
    # draining another stream in between must not perturb stream "a"
    derive_rng(7, "b").random()
    a2 = [derive_rng(7, "a").random() for _ in range(3)]
    assert a1 == a2
    assert derive_rng(7, "a").random() != derive_rng(7, "b").random()
    assert derive_rng(7, "a").random() != derive_rng(8, "a").random()


def test_generate_one_is_order_independent():
    generator = CorpusGenerator(java_registry(), CorpusConfig(**TOY))
    in_order = [generator.generate_one(i) for i in range(4)]
    reversed_order = [generator.generate_one(i) for i in (3, 2, 1, 0)]
    assert [f.text for f in in_order] \
        == [f.text for f in reversed(reversed_order)]
    # a fresh generator produces identical bytes for the same index
    again = CorpusGenerator(java_registry(), CorpusConfig(**TOY))
    assert again.generate_one(2).text == in_order[2].text


def test_load_repeat_emits_store_then_two_loads():
    registry = java_registry()
    cls = next(c for c in registry.classes
               if c.fqn == "java.util.HashMap")
    gen = _JavaGen(registry, CorpusConfig(seed=3), derive_rng(3, "t"))
    gen.load_repeat(cls, same_key=True)
    text = gen.writer.text()
    assert text.count(".get(") == 2 and ".put(" in text

    pyreg = python_registry()
    pycls = next(c for c in pyreg.classes if c.fqn == "Dict")
    pygen = _PythonGen(pyreg, CorpusConfig(seed=3), derive_rng(3, "t"))
    pygen.load_repeat(pycls, same_key=False)
    pytext = pygen.writer.text()
    # subscript container: one store plus two loads
    assert pytext.count("[") >= 3


# ----------------------------------------------------------------------
# directed synthesis


def sans_store_counters(record):
    """A generation record minus the store's monotone generation
    counters — a crashed attempt consumes store generations, so those
    are the one field resume cannot (and need not) replay exactly."""
    data = {k: v for k, v in record.to_dict().items()
            if k != "store_generation"}
    if data.get("drift"):
        data["drift"] = {k: v for k, v in data["drift"].items()
                         if k not in ("generation", "previous")}
    return data


def candidate_for(spec, score=0.55):
    return AmbiguousCandidate(
        spec=spec, score=score, matches=2, n_confidences=2,
        distance=abs(score - 0.6), disagreement=0.0,
        uncertainty=0.9, reason="band",
    )


def test_synthesizer_emits_validated_pairs_deterministically():
    registry = java_registry()
    synth = DirectedSynthesizer(registry, seed=7)
    spec = RetArg("java.util.HashMap.get", "java.util.HashMap.put", 2)
    result = synth.synthesize(candidate_for(spec), generation=1, rounds=2)
    assert len(result.programs) == 4 and not result.skipped
    names = [p.name for p in result.programs]
    slug = spec_slug(spec)
    assert all(slug in name for name in names)
    assert sum("_alias" in n for n in names) == 2
    assert sum("_non" in n for n in names) == 2
    for program in result.programs:
        assert ".get(" in program.text and ".put(" in program.text
    # byte-identical on re-synthesis
    again = synth.synthesize(candidate_for(spec), generation=1, rounds=2)
    assert [p.text for p in again.programs] \
        == [p.text for p in result.programs]
    # a different generation draws a different stream
    other = synth.synthesize(candidate_for(spec), generation=2, rounds=2)
    assert [p.text for p in other.programs] \
        != [p.text for p in result.programs]


def test_synthesizer_handles_python_and_unknown_classes():
    registry = python_registry()
    synth = DirectedSynthesizer(registry, seed=7)
    true_retarg = next(
        s for s in registry.all_true_specs()
        if isinstance(s, RetArg) and s.target.startswith("Dict.")
    )
    result = synth.synthesize(candidate_for(true_retarg), generation=1,
                              rounds=1)
    assert len(result.programs) == 2
    assert all(p.language == "python" for p in result.programs)

    missing = synth.synthesize(
        candidate_for(RetSame("com.example.Nope.get")), generation=1
    )
    assert not missing.programs
    assert missing.skipped and "no registry class" in missing.skipped[0][1]


# ----------------------------------------------------------------------
# the refinement engine


def test_refinement_requires_a_store():
    with pytest.raises(ValueError):
        RefinementEngine(java_registry(), PipelineConfig(),
                         MiningConfig(), RefineConfig())


def test_refinement_resolves_band_candidates_on_toy_corpus(
        tmp_path, toy_base):
    registry, base = toy_base
    report = make_engine(registry, tmp_path / "store").run(base)
    # the acceptance contract: ≥1 ambiguous candidate resolved within
    # 2 generations, precision/recall no worse than the unrefined run
    assert report.n_resolved >= 1
    assert len(report.generations) <= 2
    lift = report.lift()
    assert lift["precision"] >= 0 and lift["recall"] >= 0
    assert report.stop_reason in (
        "band-empty", "budget-exhausted", "no-lift"
    )
    assert report.n_synthesized > 0
    # resolutions carry direction + ground-truth verdict
    resolutions = [r for g in report.generations for r in g.resolved]
    assert all(r.direction in ("promoted", "demoted") for r in resolutions)
    assert any(r.correct for r in resolutions)


def test_refinement_report_is_byte_identical_across_runs(
        tmp_path, toy_base):
    registry, base = toy_base
    first = make_engine(registry, tmp_path / "a").run(base)
    second = make_engine(registry, tmp_path / "b").run(base)
    assert first.to_json() == second.to_json()
    # and the canonical report carries no wall-clock
    assert "seconds" not in first.to_json()
    assert first.seconds_per_generation  # timings live off to the side


def test_refinement_resume_does_not_resynthesize(
        tmp_path, toy_base, monkeypatch):
    registry, base = toy_base
    store = tmp_path / "store"
    first = make_engine(registry, store).run(base)
    assert first.resumed_generations == []

    # a second run over the same store must load every completed
    # generation; synthesizing anything would be a bug
    def forbidden(self, *args, **kwargs):
        raise AssertionError("resume must not re-synthesize")

    monkeypatch.setattr(DirectedSynthesizer, "synthesize", forbidden)
    resumed = make_engine(registry, store).run(base)
    assert resumed.resumed_generations \
        == [0] + [g.generation for g in first.generations]
    assert [g.to_dict() for g in resumed.generations] \
        == [g.to_dict() for g in first.generations]


def test_refinement_crash_between_generations_resumes(
        tmp_path, toy_base, monkeypatch):
    registry, base = toy_base
    store = tmp_path / "store"
    clean = make_engine(registry, tmp_path / "clean").run(base)

    # die right after generation 1's state became durable — the
    # "SIGKILL between generations" point
    with arm(FaultPlan.parse("post-rename:gen-0001.json")):
        with pytest.raises(SimulatedCrash):
            make_engine(registry, store).run(base)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("resume must not re-synthesize gen 1")

    monkeypatch.setattr(DirectedSynthesizer, "synthesize", forbidden)
    resumed = make_engine(registry, store).run(base)
    assert 1 in resumed.resumed_generations
    # the outcome matches the uninterrupted run exactly
    assert [g.to_dict() for g in resumed.generations] \
        == [g.to_dict() for g in clean.generations]
    assert resumed.stop_reason == clean.stop_reason


def test_refinement_crash_before_state_write_recomputes(
        tmp_path, toy_base):
    registry, base = toy_base
    store = tmp_path / "store"
    clean = make_engine(registry, tmp_path / "clean").run(base)

    # die before the rename: generation 1's state is lost, so the
    # rerun re-synthesizes it — deterministically, to the same bytes
    with arm(FaultPlan.parse("pre-rename:gen-0001.json")):
        with pytest.raises(SimulatedCrash):
            make_engine(registry, store).run(base)

    rerun = make_engine(registry, store).run(base)
    assert rerun.resumed_generations == [0]
    # identical outcome; only the store's monotone generation counters
    # remember that a crashed attempt happened
    assert [sans_store_counters(g) for g in rerun.generations] \
        == [sans_store_counters(g) for g in clean.generations]


def test_refinement_state_digest_rejects_other_config(
        tmp_path, toy_base):
    registry, base = toy_base
    store = tmp_path / "store"
    make_engine(registry, store).run(base)
    with pytest.raises(RefineStateError):
        make_engine(registry, store, band=0.2).run(base)


# ----------------------------------------------------------------------
# metrics and report shape


def test_metrics_against_ground_truth():
    registry = java_registry()
    truth = sorted(registry.all_true_specs(), key=str)[:4]
    selected = SpecSet(truth[:2] + [RetSame("com.example.Fake.get")])
    metrics = Metrics.of(selected, registry)
    assert metrics.n_selected == 3 and metrics.n_true_selected == 2
    assert metrics.precision == pytest.approx(2 / 3)
    assert metrics.recall == pytest.approx(
        2 / len(registry.all_true_specs()))
    assert 0 < metrics.f1 < 1
    assert Metrics.from_dict(metrics.to_dict()).f1 \
        == pytest.approx(metrics.f1, abs=1e-6)


def test_report_json_is_machine_readable(tmp_path, toy_base):
    registry, base = toy_base
    report = make_engine(registry, tmp_path / "store").run(base)
    data = json.loads(report.to_json())
    assert data["format"] == "uspec-refinement"
    assert data["totals"]["n_resolved"] == report.n_resolved
    assert data["totals"]["lift"] == report.lift()
    for record in data["generations"]:
        assert {"generation", "targeted", "programs", "resolved",
                "metrics", "band_after"} <= set(record)


# ----------------------------------------------------------------------
# the CLI surface: `uspec refine` and `uspec learn --drift-out`


def test_cli_refine_writes_report(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.json"
    code = main([
        "refine", "--language", "java", "--files", "40", "--seed", "7",
        "--store-dir", str(tmp_path / "store"),
        "--max-generations", "2", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["format"] == "uspec-refinement"
    assert data["totals"]["n_resolved"] >= 1
    assert "resolved" in capsys.readouterr().out


def test_cli_learn_drift_out(tmp_path):
    from repro.cli import main

    drift = tmp_path / "drift.json"
    args = ["learn", "--files", "6", "--seed", "7",
            "--store-dir", str(tmp_path / "store"),
            "--out", str(tmp_path / "specs.json"),
            "--drift-out", str(drift)]
    assert main(args) == 0
    first = json.loads(drift.read_text())
    assert first["format"] == "uspec-drift"
    assert first["store_generation"] == 1
    assert first["drift"]["n_unchanged"] == 0  # nothing to differ from

    # an identical append run drifts nothing
    assert main(args + ["--append"]) == 0
    second = json.loads(drift.read_text())
    assert second["store_generation"] == 2
    assert second["drift"]["gained"] == [] and second["drift"]["lost"] == []
    assert second["drift"]["n_unchanged"] > 0


def test_cli_drift_out_requires_store(tmp_path, capsys):
    from repro.cli import main

    code = main(["learn", "--files", "4",
                 "--drift-out", str(tmp_path / "drift.json")])
    assert code == 2
    assert "--store-dir" in capsys.readouterr().err
