"""One lookup, four ways in: a warm re-run, a resume after a strict
abort, a run after edits and a warm re-run after a worker kill poisoned
a program all take exactly the programs with a store record from the
journal, analyse the rest, and reproduce ``USpecPipeline.learn`` on
the surviving programs byte for byte — in-process and with a worker
pool."""

import pytest

from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.ir import ProgramBuilder
from repro.mining import MiningConfig, MiningEngine, SupervisionConfig
from repro.mining.cache import pipeline_fingerprint, program_fingerprint
from repro.runtime import (
    Budget,
    FaultPlan,
    QuarantineManifest,
    RuntimeConfig,
    WORKER_CRASH,
    arm,
)
from repro.specs.pipeline import PipelineConfig, USpecPipeline
from repro.specs.serialize import specs_to_json
from repro.store.stats import StatsStore

#: small enough for the corpus, too small for the pathological program
BUDGET = Budget(max_solver_iterations=500)

#: the program a worker kill poisons (it sorts after the pathological
#: one, so dropping it leaves every other corpus key unchanged)
TOXIC = "corpus_00009.java"


def java_corpus(n, seed):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def pathological_program():
    """A long assignment chain that blows the budget at every tier."""
    pb = ProgramBuilder(source="pathological.java")
    fb = pb.function("main")
    v = fb.alloc("Api")
    for _ in range(3000):
        w = fb.fresh()
        fb.assign(w, v)
        v = w
    fb.call("Api.use", receiver=v, returns=False)
    pb.add(fb.finish())
    return pb.finish()


def base_corpus():
    programs = java_corpus(12, seed=7)
    return programs[:6] + [pathological_program()] + programs[6:]


def edited_corpus(base):
    """Two programs edited in place (same source, new body), one added.

    The addition sorts after every other source, as the next generated
    file does: the engine orders training samples by corpus key and
    ``USpecPipeline.learn`` by source, so the two agree only on
    source-ordered corpora (what ``mine_directory`` produces).
    """
    edited = list(base)
    fresh = java_corpus(12, seed=99)
    for i in (2, 9):
        fresh[i].source = base[i].source
        edited[i] = fresh[i]
    fresh[11].source = "corpus_00012.java"
    return edited + [fresh[11]]


def learn(programs, store_dir, jobs, runtime=None, append=False,
          faults=""):
    config = PipelineConfig(runtime=runtime or RuntimeConfig(budget=BUDGET))
    supervision = SupervisionConfig()
    if faults:
        supervision = SupervisionConfig(max_retries=0, backoff_base=0.01)
    mining = MiningConfig(jobs=jobs, store_dir=str(store_dir),
                          append=append, supervision=supervision)
    with arm(FaultPlan.parse(faults)):
        return MiningEngine(config, mining).learn(programs)


def n_without_record(programs, store_dir):
    fingerprint = pipeline_fingerprint(
        PipelineConfig(runtime=RuntimeConfig(budget=BUDGET)))
    with StatsStore(store_dir, fingerprint) as store:
        return sum(1 for p in programs
                   if store.get(program_fingerprint(p)) is None)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("mode", ["warm", "abort", "append", "poison"])
def test_one_lookup_matches_the_reference_pipeline(tmp_path, mode, jobs):
    store = tmp_path / "store"
    programs = base_corpus()
    # the kill is toxic forever: only the store keeps it from firing
    faults = f"kill:{TOXIC}" if mode == "poison" else ""
    if mode == "abort":
        # the strict run dies at the pathological program; everything
        # settled before the abort is already journaled
        strict = RuntimeConfig(budget=BUDGET, strict=True)
        with pytest.raises(Exception, match="injected fault"):
            learn(programs, store, jobs, runtime=strict,
                  faults="pointsto:pathological")
    else:
        learn(programs, store, jobs, faults=faults)
    if mode == "append":
        programs = edited_corpus(programs)

    missing = n_without_record(programs, store)
    expected_missing = {"warm": 0, "append": 3, "poison": 0}.get(mode)
    if expected_missing is not None:
        assert missing == expected_missing
    else:
        assert missing >= 1  # the program the strict run died at

    final = learn(programs, store, jobs, append=(mode == "append"),
                  faults=faults)
    survivors = [p for p in programs if not faults or p.source != TOXIC]
    reference = USpecPipeline(
        PipelineConfig(runtime=RuntimeConfig(budget=BUDGET))).learn(survivors)

    assert final.mining.n_analyzed == missing
    assert final.mining.n_analyzed + final.mining.n_from_store \
        == len(programs)
    assert specs_to_json(final.specs, final.scores) \
        == specs_to_json(reference.specs, reference.scores)
    entries = final.run.manifest.entries
    kept = QuarantineManifest(
        [e for e in entries if e.error_kind != WORKER_CRASH])
    assert kept.to_json(timings=False) \
        == reference.run.manifest.to_json(timings=False)
    assert [e.source for e in reference.run.manifest.entries] \
        == ["pathological.java"]
    poisoned = [e.source for e in entries if e.error_kind == WORKER_CRASH]
    assert poisoned == ([TOXIC] if faults else [])
    if faults:
        # the stored verdict won before dispatch: nothing was killed
        assert final.mining.ledger.n_worker_crashes == 0
