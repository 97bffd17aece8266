"""The sharded parallel mining engine: determinism across worker
counts, the durable store as incremental cache, and resume under
sharding."""

import functools
import json
import pickle
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.ir import ProgramBuilder
from repro.mining import MiningConfig, MiningEngine
from repro.mining.cache import pipeline_fingerprint, program_fingerprint
from repro.mining.engine import _analyze_shard, _Journal, _poisoned
from repro.mining.partial import ProgramFold
from repro.model.features import FeatureConfig, SampleBlock
from repro.model.logistic import SufficientStats
from repro.runtime import (
    WORKER_CRASH,
    Budget,
    BudgetExceeded,
    FaultPlan,
    RuntimeConfig,
    arm,
)
from repro.runtime.checkpoint import program_key
from repro.specs.candidates import score_records
from repro.specs.pipeline import PipelineConfig, USpecPipeline
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
# sufficient statistics


def test_sufficient_stats_stream_is_merge_order_independent():
    from repro.model.features import EncodedSample

    def sample(tag):
        return EncodedSample(("ret", "ret"), (hash(tag) % 100,), 1)

    blocks = [("000000:x", [sample("x")]),
              ("000001:y", [sample("y"), sample("z")])]
    ab, ba = SufficientStats(), SufficientStats()
    for key, samples in blocks:
        ab.add(key, samples)
    for key, samples in reversed(blocks):
        ba.add(key, samples)
    assert list(ab.stream(seed=13)) == list(ba.stream(seed=13))
    assert ab.n_samples == 3


# ----------------------------------------------------------------------
# one fold: every settled program, once, in any arrival order


@functools.lru_cache(maxsize=None)
def _settled_run():
    """The settled programs of a real 10-file ``--jobs 1`` run (one of
    them quarantined by a stage fault), each also as a store hit and as
    a poisoned program; and each key's (corpus index, shard id) over 3
    round-robin shards."""
    config = PipelineConfig()
    programs = java_corpus(10)
    units = [(i, program_key(p, i), p) for i, p in enumerate(programs)]
    executor = []
    _analyze_shard(config, units, lambda *item: executor.append(item),
                   faults=FaultPlan.parse("pointsto:corpus_00004"))
    with tempfile.TemporaryDirectory() as store_dir:
        store = StatsStore(store_dir, pipeline_fingerprint(config))
        try:
            journal = _Journal(store, units)
            for _, record in executor:
                journal.put(record)
            held = [journal.held(unit) for unit in units]
        finally:
            store.close()
    poisoned = [_poisoned(unit, WORKER_CRASH, "died") for unit in units]
    places = {key: (index, index % 3) for index, key, _ in units}
    return {"executor": executor, "store": held,
            "poisoned": poisoned}, places


def _fold(items, places):
    journaled = []
    fold = ProgramFold(places, journal=journaled.append)
    for item in items:
        fold.fold(*item)
    return fold, journaled


def _canonical(fold, model):
    return (
        fold.outcomes,
        fold.manifest.to_json(),
        list(fold.stats.stream(13)),
        list(fold.records()),
        score_records(fold.records(), model),
        fold.analyzed_keys,
        [m.to_dict() for m in fold.shards],
    )


@functools.lru_cache(maxsize=None)
def _fold_model():
    sources, places = _settled_run()
    fold, _ = _fold(sources["executor"], places)
    return USpecPipeline().train_from_stats(fold.stats)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_one_fold_any_arrival_order(data):
    """Folding a run's settled programs in any order, with copies that
    arrive after the first, gives the in-order fold's canonical views
    and journals each program once: the first copy of a key wins.

    A later copy may be equal to the first or a verdict of another
    kind; either way the fold keeps the first."""
    sources, places = _settled_run()
    n = len(places)
    kinds = data.draw(st.lists(st.sampled_from(sorted(sources)),
                               min_size=n, max_size=n))
    items = [sources[kind][i] for i, kind in enumerate(kinds)]
    arrivals = data.draw(st.permutations(items))
    for _ in range(data.draw(st.integers(0, 6))):
        first = data.draw(st.integers(0, len(arrivals) - 1))
        later = data.draw(st.integers(first + 1, len(arrivals)))
        index = places[arrivals[first][0].key][0]
        copy = sources[data.draw(st.sampled_from(sorted(sources)))][index]
        # a re-sent copy is equal, not the same object
        arrivals.insert(later, pickle.loads(pickle.dumps(copy)))

    model = _fold_model()
    reference, reference_journal = _fold(items, places)
    fold, journaled = _fold(arrivals, places)
    assert _canonical(fold, model) == _canonical(reference, model)
    assert sorted(r.key for r in journaled) \
        == sorted(r.key for r in reference_journal) \
        == sorted(o.key for o, _ in items if not o.cached)
    assert fold.analyzed_keys == sorted(
        o.key for o, _ in items if kinds[places[o.key][0]] == "executor")


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
    assert seq.run.manifest.to_json() == par.run.manifest.to_json()
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
    assert warm.run.manifest.to_json() == cold.run.manifest.to_json()


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


def _program_records(store_dir):
    store = StatsStore(store_dir, pipeline_fingerprint(PipelineConfig()))
    try:
        return list(store.programs.values())
    finally:
        store.close()


def _rewrite_samples_as_tuples(store_dir):
    """Journal every program record again the way runs wrote it before
    sample blocks: its samples a tuple of ``EncodedSample`` objects."""
    store = StatsStore(store_dir, pipeline_fingerprint(PipelineConfig()))
    try:
        for record in list(store.programs.values()):
            store.put_program(replace(record, samples=tuple(record.samples)))
    finally:
        store.close()


def _assert_warm_run_reports_hits(tmp_path, capsys, *, tuples):
    """A warm rerun analyses nothing and writes the cold run's specs
    byte for byte, over records holding sample blocks or, with
    ``tuples``, as older runs journaled them: tuples of
    ``EncodedSample`` objects."""
    store_dir = tmp_path / "store"
    out_path = tmp_path / "specs.json"
    args = ["learn", "--files", "5", "--seed", "7",
            "--store-dir", str(store_dir), "--out", str(out_path)]
    assert main(args) == 0
    cold = out_path.read_bytes()
    if tuples:
        _rewrite_samples_as_tuples(store_dir)
    held = {type(record.samples) for record in _program_records(store_dir)}
    assert held == {tuple if tuples else SampleBlock}
    capsys.readouterr()
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "analyzed 0, from store 5 (100%)" in out
    assert out_path.read_bytes() == cold


def test_cli_store_dir_warm_run_reports_hits(tmp_path, capsys):
    _assert_warm_run_reports_hits(tmp_path, capsys, tuples=False)


def test_cli_store_dir_warm_run_reads_tuple_records(tmp_path, capsys):
    _assert_warm_run_reports_hits(tmp_path, capsys, tuples=True)


def test_cli_jobs_prints_mining_metrics(tmp_path, capsys):
    code = main(["learn", "--files", "6", "--seed", "7", "--jobs", "2",
                 "--out", str(tmp_path / "specs.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "programs/s" in out
    assert "shard wall-clock" in out
