"""The sharded parallel mining engine: determinism across worker
counts, the durable store as incremental cache, mergeable partials, and
resume under sharding."""

import json
import pickle
from dataclasses import replace

import pytest

from repro.cli import main
from repro.corpus import (
    CorpusConfig,
    CorpusGenerator,
    java_registry,
    mine_directory,
    save_corpus,
)
from repro.ir import ProgramBuilder
from repro.mining import (
    MiningConfig,
    MiningEngine,
    ShardPartial,
    ShardPlan,
    shard_of,
)
from repro.mining.cache import pipeline_fingerprint, program_fingerprint
from repro.mining.partial import ShardMetrics
from repro.model.features import FeatureConfig
from repro.model.logistic import SufficientStats
from repro.runtime import (
    Budget,
    BudgetExceeded,
    FaultPlan,
    RuntimeConfig,
    arm,
)
from repro.runtime.executor import ProgramOutcome
from repro.specs.pipeline import PipelineConfig
from repro.specs.serialize import specs_to_json
from repro.store.stats import StatsStore


def java_corpus(n=10, seed=7):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def pathological_program(chain=3000, name="pathological.java"):
    pb = ProgramBuilder(source=name)
    fb = pb.function("main")
    v = fb.alloc("Api")
    for _ in range(chain):
        w = fb.fresh()
        fb.assign(w, v)
        v = w
    fb.call("Api.use", receiver=v, returns=False)
    pb.add(fb.finish())
    return pb.finish()


def learn(programs, *, jobs=1, shards=None, store_dir=None, runtime=None):
    config = PipelineConfig(runtime=runtime or RuntimeConfig())
    mining = MiningConfig(
        jobs=jobs, shards=shards,
        store_dir=str(store_dir) if store_dir else None,
    )
    return MiningEngine(config, mining).learn(programs)


def stored_keys(store_dir, units):
    """Keys of the ``(key, program)`` units with a record in the store
    built under the default pipeline configuration."""
    store = StatsStore(store_dir, pipeline_fingerprint(PipelineConfig()))
    try:
        return {key for key, program in units
                if store.get(program_fingerprint(program)) is not None}
    finally:
        store.close()


# ----------------------------------------------------------------------
# sharding


def test_shard_of_is_deterministic_and_in_range():
    for n in (1, 2, 7, 64):
        for name in ("a.java", "b.py", "dir/c.java", ""):
            first = shard_of(name, n)
            assert first == shard_of(name, n)  # pure function of inputs
            assert 0 <= first < n
    # different shard counts re-hash rather than truncate
    assert shard_of("a.java", 1) == 0
    with pytest.raises(ValueError):
        shard_of("a.java", 0)


def test_shard_plan_partitions_corpus_in_order():
    identities = [f"corpus_{i:05d}.java" for i in range(40)]
    plan = ShardPlan.of(identities, 5)
    seen = []
    for shard_id in range(5):
        members = plan.members(shard_id)
        assert members == sorted(members)  # corpus order preserved
        seen.extend(members)
    assert sorted(seen) == list(range(40))  # exact partition
    # assignment ignores list order: identity → shard is stable
    assert plan.assignments[3] == ShardPlan.of(identities[::-1], 5) \
        .assignments[len(identities) - 1 - 3]


def test_mine_directory_shards_partition_the_tree(tmp_path):
    files = CorpusGenerator(
        java_registry(), CorpusConfig(n_files=12, seed=7)).generate()
    save_corpus(files, tmp_path)
    sigs = java_registry().signatures()
    full = {p.source for p in mine_directory(tmp_path, sigs).programs}
    assert len(full) == 12
    shards = [
        {p.source for p in
         mine_directory(tmp_path, sigs, n_shards=3, shard_index=i).programs}
        for i in range(3)
    ]
    assert set().union(*shards) == full
    assert sum(len(s) for s in shards) == len(full)  # disjoint
    with pytest.raises(ValueError):
        mine_directory(tmp_path, sigs, n_shards=3, shard_index=3)


# ----------------------------------------------------------------------
# mergeable partials


def make_partial(shard_id, key, n_samples=0):
    partial = ShardPartial.empty(shard_id)
    partial.outcomes.append(ProgramOutcome(key=key, source=key, tier="t"))
    partial.records[key] = ()
    partial.analyzed_keys.append(key)
    partial.stats.add(key, [])
    return partial


def canonical_view(partial):
    partial.canonicalize()
    return (
        [m.shard_id for m in partial.metrics],
        [o.key for o in partial.outcomes],
        [e.program for e in partial.manifest.entries],
        sorted(partial.records),
        partial.analyzed_keys,
        sorted(partial.stats.blocks),
    )


def test_shard_partial_merge_is_associative_and_order_insensitive():
    def fresh():
        return [make_partial(0, "000001:a"), make_partial(1, "000000:b"),
                make_partial(2, "000002:c")]

    a, b, c = fresh()
    left = a.merge(b).merge(c)
    a2, b2, c2 = fresh()
    right = a2.merge(b2.merge(c2))
    assert canonical_view(left) == canonical_view(right)

    a3, b3, c3 = fresh()
    reordered = c3.merge(a3).merge(b3)
    assert canonical_view(reordered) == canonical_view(left)


def test_shard_partial_empty_is_identity():
    partial = make_partial(0, "000000:a")
    merged = ShardPartial().merge(partial).merge(ShardPartial())
    assert canonical_view(merged) == canonical_view(make_partial(0, "000000:a"))


def test_sufficient_stats_stream_is_merge_order_independent():
    from repro.model.features import EncodedSample

    def sample(tag):
        return EncodedSample(("ret", "ret"), (hash(tag) % 100,), 1)

    a = SufficientStats()
    a.add("000000:x", [sample("x")])
    b = SufficientStats()
    b.add("000001:y", [sample("y"), sample("z")])
    ab = SufficientStats().merge(a).merge(b)
    ba = SufficientStats().merge(b).merge(a)
    assert ab.stream(seed=13) == ba.stream(seed=13)
    assert ab.n_samples == 3


# ----------------------------------------------------------------------
# cross-process pickling


def test_budget_exceeded_pickles_across_process_boundary():
    err = BudgetExceeded("solver_iterations", 100, 50, stage="pointsto")
    restored = pickle.loads(pickle.dumps(err))
    assert isinstance(restored, BudgetExceeded)
    assert restored.resource == "solver_iterations"
    assert (restored.used, restored.limit) == (100, 50)
    assert restored.stage == "pointsto"
    assert str(restored) == str(err)


def test_model_pickle_is_sparse_and_prediction_preserving():
    from repro.model.features import extract_feature
    from repro.specs.pipeline import USpecPipeline

    programs = java_corpus(6)
    learned = learn(programs)
    payload = pickle.dumps(learned.model)
    # a dense pickle of 2^18-dim float64 weight+grad arrays would be
    # megabytes per member; sparse state must stay far below that
    assert len(payload) < 2_000_000
    restored = pickle.loads(payload)
    bundle = USpecPipeline().run_corpus(programs).bundles[0]
    graph = bundle.graph
    events = sorted(graph.events, key=repr)[:6]
    guard = bundle.guard_index
    for e1 in events:
        for e2 in events:
            if e1 is e2:
                continue
            feature = extract_feature(graph, e1, e2, guard)
            assert restored.predict(feature) == \
                pytest.approx(learned.model.predict(feature), abs=1e-12)


# ----------------------------------------------------------------------
# determinism: worker count must never change the result


def test_parallel_mining_is_byte_identical_to_sequential():
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=500))
    programs = java_corpus(12) + [pathological_program()]

    seq = learn(programs, jobs=1, runtime=runtime)
    par = learn(programs, jobs=2, runtime=runtime)

    assert len(seq.specs) > 0
    assert specs_to_json(seq.specs, seq.scores) == \
        specs_to_json(par.specs, par.scores)
    assert seq.run.manifest.to_json(timings=False) == \
        par.run.manifest.to_json(timings=False)
    assert seq.run.n_quarantined == par.run.n_quarantined == 1
    assert par.mining.jobs == 2 and par.mining.n_shards > 1


def test_shard_count_does_not_change_the_result():
    programs = java_corpus(10)
    one = learn(programs, jobs=1, shards=1)
    many = learn(programs, jobs=1, shards=7)
    assert specs_to_json(one.specs, one.scores) == \
        specs_to_json(many.specs, many.scores)


# ----------------------------------------------------------------------
# the durable store as incremental cache


def test_warm_cache_reanalyzes_nothing(tmp_path):
    programs = java_corpus(8)
    cold = learn(programs, store_dir=tmp_path / "store")
    assert cold.mining.n_analyzed == 8 and cold.mining.n_from_store == 0

    warm = learn(programs, store_dir=tmp_path / "store")
    assert warm.mining.n_analyzed == 0
    assert warm.mining.n_from_store == 8
    assert warm.mining.cache_hit_rate == 1.0
    assert specs_to_json(warm.specs, warm.scores) == \
        specs_to_json(cold.specs, cold.scores)


def test_editing_k_files_reanalyzes_exactly_k(tmp_path):
    programs = java_corpus(10)
    learn(programs, store_dir=tmp_path / "store")

    edited = list(programs)
    replacements = CorpusGenerator(
        java_registry(), CorpusConfig(n_files=10, seed=99)).programs()
    for i in (2, 7):  # "edit" two files: same path, new content
        replacements[i].source = programs[i].source
        edited[i] = replacements[i]

    rerun = learn(edited, store_dir=tmp_path / "store", jobs=2)
    assert rerun.mining.n_analyzed == 2
    assert rerun.mining.n_from_store == 8


def test_cache_ignores_parallelism_but_respects_analysis_config(tmp_path):
    programs = java_corpus(6)
    learn(programs, store_dir=tmp_path / "store", jobs=2)
    # same analysis config, different parallelism: all hits
    warm = learn(programs, store_dir=tmp_path / "store", jobs=1, shards=3)
    assert warm.mining.n_from_store == 6
    # changed analysis budget: full invalidation
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=10_000))
    cold = learn(programs, store_dir=tmp_path / "store", runtime=runtime)
    assert cold.mining.n_from_store == 0 and cold.mining.n_analyzed == 6


#: one changed value per knob that shapes stored samples or match records
RECORD_KNOBS = {
    "feature": FeatureConfig(context_k=1),
    "max_positives_per_graph": 4,
    "negative_ratio": 1.0,
    "seed": 99,
    "max_receiver_distance": 1,
    "enable_retrecv": True,
}


@pytest.mark.parametrize("knob", sorted(RECORD_KNOBS))
def test_record_shaping_knobs_key_the_store(tmp_path, knob):
    """A store built under the defaults must not answer a run whose
    records would differ: that run re-analyses everything and writes
    the specs a fresh run writes."""
    programs = java_corpus(10)
    MiningEngine(PipelineConfig(), MiningConfig(
        store_dir=str(tmp_path / "store"))).learn(programs)

    changed = replace(PipelineConfig(), **{knob: RECORD_KNOBS[knob]})
    warm = MiningEngine(changed, MiningConfig(
        store_dir=str(tmp_path / "store"))).learn(programs)
    fresh = MiningEngine(changed).learn(programs)
    assert warm.mining.n_analyzed == len(programs)
    assert specs_to_json(warm.specs, warm.scores) == \
        specs_to_json(fresh.specs, fresh.scores)


def test_tau_does_not_key_the_store(tmp_path):
    programs = java_corpus(10)
    MiningEngine(PipelineConfig(), MiningConfig(
        store_dir=str(tmp_path / "store"))).learn(programs)
    changed = PipelineConfig(tau=0.4, score_k=3, extend=False)
    warm = MiningEngine(changed, MiningConfig(
        store_dir=str(tmp_path / "store"))).learn(programs)
    fresh = MiningEngine(changed).learn(programs)
    assert warm.mining.n_analyzed == 0
    assert specs_to_json(warm.specs, warm.scores) == \
        specs_to_json(fresh.specs, fresh.scores)


def test_cached_quarantine_verdicts_are_reused(tmp_path):
    runtime = RuntimeConfig(budget=Budget(max_solver_iterations=500))
    programs = java_corpus(5) + [pathological_program()]
    cold = learn(programs, store_dir=tmp_path / "store", runtime=runtime)
    assert cold.run.n_quarantined == 1

    warm = learn(programs, store_dir=tmp_path / "store", runtime=runtime)
    assert warm.mining.n_analyzed == 0  # the blow-up was not re-attempted
    assert warm.run.n_quarantined == 1
    assert warm.run.manifest.to_json(timings=False) == \
        cold.run.manifest.to_json(timings=False)


# ----------------------------------------------------------------------
# kill/resume × sharding


def test_killed_parallel_run_resumes_without_double_analysis(tmp_path):
    """A worker-side injected fault aborts a strict parallel run; the
    re-run completes from the store with no program analysed twice."""
    programs = java_corpus(10)
    victim = programs[-1].source
    with arm(FaultPlan.parse(f"pointsto:{victim}")), \
            pytest.raises(Exception, match="injected fault"):
        learn(programs, jobs=2, shards=4, store_dir=tmp_path / "store",
              runtime=RuntimeConfig(strict=True))

    # task replies settled before the abort were journaled
    survived = len(stored_keys(
        tmp_path / "store", [(p.source, p) for p in programs]))
    assert 0 < survived < 10  # partial progress persisted, kill was real

    rerun = learn(programs, jobs=2, shards=4, store_dir=tmp_path / "store")
    report = rerun.mining
    assert report.n_from_store == survived
    assert report.n_analyzed == 10 - survived  # only the missing ones
    cached_keys = {o.key for o in rerun.run.outcomes if o.cached}
    assert cached_keys.isdisjoint(report.analyzed_keys)
    assert len(cached_keys) + len(report.analyzed_keys) == 10
    # the merged run report is complete: every program accounted for
    assert rerun.run.n_ok == 10 and rerun.run.n_quarantined == 0


def test_pool_worker_journals_each_program_before_its_reply(tmp_path):
    """A pool worker sends each program to the parent as it settles, so
    a strict abort at a task's last program keeps all the others: the
    rerun analyses exactly the program that was in flight."""
    programs = java_corpus(6)
    victim = programs[-1].source
    # one shard: a single task carries all six programs, victim last
    with arm(FaultPlan.parse(f"pointsto:{victim}")), \
            pytest.raises(Exception, match="injected fault"):
        learn(programs, jobs=2, shards=1, store_dir=tmp_path / "store",
              runtime=RuntimeConfig(strict=True))

    rerun = learn(programs, jobs=2, shards=1, store_dir=tmp_path / "store")
    assert rerun.mining.n_from_store == 5
    assert rerun.mining.analyzed_keys == [f"000005:{victim}"]
    clean = learn(programs)
    assert specs_to_json(rerun.specs, rerun.scores) == \
        specs_to_json(clean.specs, clean.scores)


def test_checkpoint_resume_under_sharding(tmp_path):
    """Resume composes with sharding: pool workers send each program to
    the parent as it settles, and a killed run's journaled programs are
    taken from the store whatever the shard and job count of the rerun."""
    programs = java_corpus(8)
    victim = programs[-1].source
    with arm(FaultPlan.parse(f"pointsto:{victim}")), \
            pytest.raises(Exception, match="injected fault"):
        learn(programs, jobs=2, shards=3, store_dir=tmp_path / "store",
              runtime=RuntimeConfig(strict=True))

    keys = [(f"{i:06d}:{p.source}", p) for i, p in enumerate(programs)]
    checkpointed = stored_keys(tmp_path / "store", keys)
    assert 0 < len(checkpointed) < 8

    rerun = learn(programs, jobs=2, shards=5, store_dir=tmp_path / "store")
    report = rerun.mining
    assert report.n_from_store == len(checkpointed)
    assert checkpointed.isdisjoint(report.analyzed_keys)
    assert report.n_from_store + report.n_analyzed == 8
    assert rerun.run.n_ok == 8


# ----------------------------------------------------------------------
# CLI


def test_cli_jobs_byte_identical_outputs(tmp_path):
    def run(jobs, tag):
        specs = tmp_path / f"specs-{tag}.json"
        manifest = tmp_path / f"quarantine-{tag}.json"
        code = main([
            "learn", "--files", "10", "--seed", "7",
            "--budget-iterations", "5000",
            "--jobs", str(jobs),
            "--out", str(specs), "--quarantine-out", str(manifest),
        ])
        assert code == 0
        return specs.read_bytes(), manifest.read_bytes()

    specs1, manifest1 = run(1, "j1")
    specs4, manifest4 = run(4, "j4")
    assert specs1 == specs4
    assert manifest1 == manifest4
    assert len(json.loads(specs1)["specs"]) > 0


def test_cli_parallel_strict_budget_exits_3(capsys):
    code = main(["learn", "--files", "4", "--seed", "7", "--jobs", "2",
                 "--budget-iterations", "1", "--strict"])
    assert code == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_cli_parallel_everything_quarantined_exits_4(capsys):
    code = main(["learn", "--files", "4", "--seed", "7", "--jobs", "2",
                 "--budget-iterations", "1"])
    assert code == 4
    assert "every corpus program was quarantined" in capsys.readouterr().err


def test_cli_cache_dir_warm_run_reports_hits(tmp_path, capsys):
    args = ["learn", "--files", "5", "--seed", "7",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "specs.json")]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "analyzed 0, from store 5 (100%)" in out


def test_cli_jobs_prints_mining_metrics(tmp_path, capsys):
    code = main(["learn", "--files", "6", "--seed", "7", "--jobs", "2",
                 "--out", str(tmp_path / "specs.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "programs/s" in out
    assert "shard wall-clock" in out
