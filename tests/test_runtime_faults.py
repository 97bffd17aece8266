"""The repro.runtime harness: budgets, fault injection, the degradation
ladder, quarantine manifests, and resume through the durable store."""

import json

import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.events.history import HistoryBuilder, HistoryOptions
from repro.ir import ProgramBuilder
from repro.mining import MiningConfig, MiningEngine
from repro.pointsto import analyze
from repro.pointsto.analysis import PointsToOptions
from repro.runtime import (
    BUDGET_EXCEEDED,
    Budget,
    BudgetExceeded,
    CorpusExecutor,
    FaultPlan,
    FaultSpec,
    LOWERING_FAILURE,
    PARSE_FAILURE,
    QuarantineManifest,
    READ_FAILURE,
    RuntimeConfig,
    SOLVER_CRASH,
    TIER_CONTEXT_INSENSITIVE,
    TIER_CONTEXT_SENSITIVE,
    TIER_FIELD_INSENSITIVE,
    classify_error,
)
from repro.specs import USpecPipeline
from repro.specs.pipeline import PipelineConfig
from repro.specs.serialize import specs_to_json


class FakeClock:
    """Deterministic monotone clock: each reading advances by `step`."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def small_program(name="prog", n_calls=2):
    pb = ProgramBuilder(source=f"{name}.java")
    fb = pb.function("main")
    api = fb.alloc("Api")
    for _ in range(n_calls):
        fb.call("Api.use", receiver=api, returns=False)
    pb.add(fb.finish())
    return pb.finish()


def pathological_program(chain=3000):
    """A long assignment chain that blows small solver budgets."""
    pb = ProgramBuilder(source="pathological.java")
    fb = pb.function("main")
    v = fb.alloc("Api")
    for _ in range(chain):
        w = fb.fresh()
        fb.assign(w, v)
        v = w
    fb.call("Api.use", receiver=v, returns=False)
    pb.add(fb.finish())
    return pb.finish()


# ----------------------------------------------------------------------
# budgets inside the solver and history builder


def test_solver_iteration_budget_raises():
    budget = Budget(max_solver_iterations=10)
    with pytest.raises(BudgetExceeded) as exc:
        analyze(pathological_program(200),
                options=PointsToOptions(budget=budget))
    assert exc.value.resource == "solver_iterations"
    assert exc.value.kind == BUDGET_EXCEEDED


def test_solver_constraint_budget_raises():
    with pytest.raises(BudgetExceeded) as exc:
        analyze(pathological_program(200),
                options=PointsToOptions(budget=Budget(max_constraints=20)))
    assert exc.value.resource == "constraints"


def test_history_event_budget_raises():
    program = small_program(n_calls=40)
    result = analyze(program)
    options = HistoryOptions(budget=Budget(max_history_events=5))
    with pytest.raises(BudgetExceeded) as exc:
        HistoryBuilder(program, result, options).build()
    assert exc.value.resource == "history_events"


def test_deadline_budget_uses_injected_clock():
    budget = Budget(deadline_seconds=0.5)
    meter = budget.meter("pointsto", clock=FakeClock(step=1.0))
    with pytest.raises(BudgetExceeded) as exc:
        meter.check_deadline()
    assert exc.value.resource == "wall_clock_seconds"


def test_unbounded_budget_changes_nothing():
    program = small_program()
    plain = analyze(program)
    budgeted = analyze(program, options=PointsToOptions(budget=Budget()))
    assert len(plain.api_sites) == len(budgeted.api_sites)


# ----------------------------------------------------------------------
# error taxonomy


def test_classify_error_taxonomy():
    assert classify_error(SyntaxError("bad")) == PARSE_FAILURE
    assert classify_error(OSError("disk")) == READ_FAILURE
    assert classify_error(RecursionError("deep"), stage="parse") == PARSE_FAILURE
    assert classify_error(TypeError("boom"), stage="lower") == LOWERING_FAILURE
    assert classify_error(KeyError("x")) == SOLVER_CRASH
    assert classify_error(BudgetExceeded("r", 2, 1)) == BUDGET_EXCEEDED


def test_fault_spec_rejects_unknown_label():
    with pytest.raises(ValueError):
        FaultSpec(program="p", error="NotALabel")


# ----------------------------------------------------------------------
# fault injection through the executor, one per taxonomy class


@pytest.mark.parametrize("label", [
    PARSE_FAILURE, LOWERING_FAILURE, SOLVER_CRASH, BUDGET_EXCEEDED,
    READ_FAILURE,
])
def test_injected_fault_quarantines_with_taxonomy_label(label):
    plan = FaultPlan([FaultSpec(program="prog", error=label)])
    executor = CorpusExecutor(runtime=RuntimeConfig(faults=plan))
    report = executor.run([small_program()])
    assert report.n_ok == 0 and report.n_quarantined == 1
    entry = report.manifest.entries[0]
    assert entry.error_kind == label
    # every ladder tier was attempted before quarantining
    assert [a.tier for a in entry.attempts] == [
        TIER_CONTEXT_SENSITIVE, TIER_CONTEXT_INSENSITIVE,
        TIER_FIELD_INSENSITIVE,
    ]
    assert all(a.error_kind == label for a in entry.attempts)


@pytest.mark.parametrize("stage", ["pointsto", "history", "graph"])
def test_fault_injection_reaches_every_stage(stage):
    plan = FaultPlan([FaultSpec(program="prog", error=SOLVER_CRASH,
                                stage=stage)])
    executor = CorpusExecutor(runtime=RuntimeConfig(faults=plan))
    report = executor.run([small_program()])
    assert report.n_quarantined == 1
    assert f"stage: {stage}" in report.manifest.entries[0].error


def test_fault_plan_only_hits_matching_programs():
    plan = FaultPlan([FaultSpec(program="bad", error=SOLVER_CRASH)])
    executor = CorpusExecutor(runtime=RuntimeConfig(faults=plan))
    report = executor.run([small_program("good"), small_program("bad")])
    assert report.n_ok == 1 and report.n_quarantined == 1
    assert "bad" in report.manifest.entries[0].program


# ----------------------------------------------------------------------
# the degradation ladder


def test_ladder_recovers_one_tier_down():
    plan = FaultPlan([FaultSpec(
        program="prog", error=SOLVER_CRASH,
        tiers=frozenset([TIER_CONTEXT_SENSITIVE]),
    )])
    executor = CorpusExecutor(runtime=RuntimeConfig(faults=plan))
    report = executor.run([small_program()])
    assert report.n_ok == 1 and report.n_quarantined == 0
    outcome = report.outcomes[0]
    assert outcome.tier == TIER_CONTEXT_INSENSITIVE
    assert outcome.degraded
    assert [a.succeeded for a in outcome.attempts] == [False, True]


def test_ladder_recovers_at_field_insensitive_tier():
    plan = FaultPlan([FaultSpec(
        program="prog", error=BUDGET_EXCEEDED,
        tiers=frozenset([TIER_CONTEXT_SENSITIVE, TIER_CONTEXT_INSENSITIVE]),
    )])
    executor = CorpusExecutor(runtime=RuntimeConfig(faults=plan))
    report = executor.run([small_program()])
    assert report.outcomes[0].tier == TIER_FIELD_INSENSITIVE


def test_field_insensitive_tier_merges_fields():
    pb = ProgramBuilder(source="fields.java")
    fb = pb.function("main")
    obj = fb.alloc("Holder")
    a = fb.alloc("A")
    fb.field_store(obj, "x", a)
    got = fb.field_load(obj, "y")
    fb.call("Api.use", receiver=got, returns=False)
    pb.add(fb.finish())
    program = pb.finish()
    precise = analyze(program)
    coarse = analyze(program, options=PointsToOptions(
        field_sensitive=False, context_k=0))
    fn, ctx = "main", ()
    assert not precise.var_pts(fn, ctx, got)  # distinct fields: no flow
    assert coarse.var_pts(fn, ctx, got)  # merged "*" cell: flows


def test_strict_mode_propagates_first_error():
    plan = FaultPlan([FaultSpec(program="prog", error=SOLVER_CRASH)])
    executor = CorpusExecutor(
        runtime=RuntimeConfig(faults=plan, strict=True))
    with pytest.raises(Exception, match="injected fault"):
        executor.run([small_program()])


def test_strict_mode_propagates_budget_exhaustion():
    executor = CorpusExecutor(runtime=RuntimeConfig(
        budget=Budget(max_solver_iterations=10), strict=True))
    with pytest.raises(BudgetExceeded):
        executor.run([pathological_program(200)])


# ----------------------------------------------------------------------
# quarantine manifest determinism and round-tripping


def run_with_fake_clock():
    plan = FaultPlan([
        FaultSpec(program="bad1", error=SOLVER_CRASH),
        FaultSpec(program="bad2", error=BUDGET_EXCEEDED),
    ])
    executor = CorpusExecutor(
        runtime=RuntimeConfig(faults=plan), clock=FakeClock())
    report = executor.run([
        small_program("bad2"), small_program("good"), small_program("bad1"),
    ])
    return report


def test_manifest_is_deterministic():
    first = run_with_fake_clock().manifest.to_json()
    second = run_with_fake_clock().manifest.to_json()
    assert first == second
    data = json.loads(first)
    assert data["n_quarantined"] == 2
    # entries sorted by program key regardless of corpus order
    programs = [e["program"] for e in data["entries"]]
    assert programs == sorted(programs)


def test_manifest_json_round_trip():
    manifest = run_with_fake_clock().manifest
    restored = QuarantineManifest.from_json(manifest.to_json())
    assert len(restored) == len(manifest)
    assert restored.by_kind() == manifest.by_kind()
    originals = {e.program: e for e in manifest.entries}
    for entry in restored.entries:
        original = originals[entry.program]
        assert entry.error_kind == original.error_kind
        assert [a.tier for a in entry.attempts] == \
            [a.tier for a in original.attempts]


def test_manifest_rejects_unknown_schema():
    with pytest.raises(ValueError):
        QuarantineManifest.from_json('{"schema_version": 99, "entries": []}')


# ----------------------------------------------------------------------
# resume through the durable store


def corpus_with_one_bad():
    return [small_program("a"), small_program("b"), pathological_program()]


def store_learn(corpus, store_dir, runtime):
    return MiningEngine(
        PipelineConfig(runtime=runtime),
        MiningConfig(store_dir=str(store_dir)),
    ).learn(corpus)


def test_checkpoint_resume_round_trip(tmp_path):
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=500))
    corpus = corpus_with_one_bad()
    first = store_learn(corpus, tmp_path / "store", runtime)
    assert first.run.n_ok == 2 and first.run.n_quarantined == 1
    assert first.mining.n_from_store == 0

    second = store_learn(corpus, tmp_path / "store", runtime)
    assert second.mining.n_from_store == len(corpus)  # nothing recomputed
    assert second.mining.n_analyzed == 0
    assert second.run.n_ok == 2 and second.run.n_quarantined == 1
    # quarantine details survive the round trip
    entry = second.run.manifest.entries[0]
    assert entry.error_kind == BUDGET_EXCEEDED
    assert len(entry.attempts) == 3
    assert second.run.manifest.to_json() == first.run.manifest.to_json()
    # restored statistics are fully usable downstream
    assert specs_to_json(second.specs, second.scores) \
        == specs_to_json(first.specs, first.scores)


def test_checkpoint_resume_skips_recomputation(tmp_path):
    """Stored programs must be loaded, not re-analysed: a fault plan
    that would crash everything leaves stored results intact."""
    corpus = [small_program("a"), small_program("b")]
    store_learn(corpus, tmp_path / "store", RuntimeConfig())

    poisoned = RuntimeConfig(
        faults=FaultPlan([FaultSpec(program="", error=SOLVER_CRASH)]),
    )
    learned = store_learn(corpus, tmp_path / "store", poisoned)
    assert learned.run.n_ok == 2  # all served from the store
    assert learned.mining.n_from_store == 2


def test_checkpoint_partial_run_resumes_remainder(tmp_path):
    """A run killed midway (simulated by running a prefix) resumes from
    the last completed program."""
    corpus = corpus_with_one_bad()
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=500))
    store_learn(corpus[:1], tmp_path / "store", runtime)  # "killed"

    learned = store_learn(corpus, tmp_path / "store", runtime)
    assert learned.mining.n_from_store == 1
    assert learned.mining.n_analyzed == 2
    assert learned.run.n_ok == 2 and learned.run.n_quarantined == 1


def test_checkpoint_survives_corrupt_index(tmp_path):
    corpus = [small_program("a")]
    store_learn(corpus, tmp_path / "store", RuntimeConfig())
    (journal,) = (tmp_path / "store").glob("*/journal.uspj")
    journal.write_text("{ not a journal")
    learned = store_learn(corpus, tmp_path / "store", RuntimeConfig())
    assert learned.run.n_ok == 1
    assert learned.mining.n_from_store == 0  # recomputed
    assert learned.mining.store_recovery["n_quarantined"] == 1


# ----------------------------------------------------------------------
# pipeline + CLI integration


def test_pipeline_learn_surfaces_run_report():
    config = PipelineConfig(runtime=RuntimeConfig(
        budget=Budget(max_solver_iterations=500)))
    programs = CorpusGenerator(
        java_registry(), CorpusConfig(n_files=6, seed=7)).programs()
    learned = USpecPipeline(config).learn(programs + [pathological_program()])
    assert learned.run is not None
    assert learned.run.n_ok == 6
    assert learned.run.n_quarantined == 1


def test_cli_strict_budget_exhaustion_exits_3(capsys):
    code = main(["learn", "--files", "3", "--seed", "7",
                 "--budget-iterations", "1", "--strict"])
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_cli_everything_quarantined_exits_4(tmp_path, capsys):
    manifest_path = tmp_path / "quarantine.json"
    code = main(["learn", "--files", "3", "--seed", "7",
                 "--budget-iterations", "1",
                 "--quarantine-out", str(manifest_path)])
    assert code == 4
    assert "every corpus program was quarantined" in capsys.readouterr().err
    data = json.loads(manifest_path.read_text())
    assert data["n_quarantined"] == 3
    assert set(data["by_kind"]) == {BUDGET_EXCEEDED}


def test_cli_clean_run_with_quarantine_manifest(tmp_path):
    manifest_path = tmp_path / "quarantine.json"
    out = tmp_path / "specs.json"
    code = main(["learn", "--files", "6", "--seed", "7",
                 "--budget-iterations", "5000",
                 "--quarantine-out", str(manifest_path),
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert json.loads(manifest_path.read_text())["n_quarantined"] == 0


def test_cli_checkpoint_dir_resumes(tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    args = ["learn", "--files", "4", "--seed", "7",
            "--checkpoint-dir", str(ckpt),
            "--out", str(tmp_path / "specs.json")]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    # --checkpoint-dir is another name for --store-dir
    assert "analyzed 0, from store 4" in capsys.readouterr().out
