"""Fault-tolerant shard supervision: worker faults (kill / hang /
corrupt), retry with backoff, poison-shard bisection, the failure
ledger, store-backed warm runs, and spawn-context dispatch."""

import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.ir import ProgramBuilder
from repro.mining import MiningConfig, MiningEngine, ShardPlan
from repro.mining.supervisor import (
    DeadlineTracker,
    SupervisionConfig,
    TaskScheduler,
)
from repro.runtime import (
    FaultPlan,
    RuntimeConfig,
    WORKER_CRASH,
    WORKER_TIMEOUT,
    WorkerCrash,
    WorkerTimeout,
    arm,
)
from repro.specs.pipeline import PipelineConfig
from repro.specs.serialize import specs_to_json


def java_corpus(n=8, seed=7):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def toxic_program(name):
    """A tiny valid program; a worker fault kills the worker before it
    matters."""
    pb = ProgramBuilder(source=name)
    fb = pb.function("main")
    v = fb.alloc("Api")
    fb.call("Api.use", receiver=v, returns=False)
    pb.add(fb.finish())
    return pb.finish()


def learn(programs, *, jobs=1, shards=None, store_dir=None,
          mp_context=None, strict=False,
          faults="", max_retries=2, shard_deadline=None):
    config = PipelineConfig(runtime=RuntimeConfig(strict=strict))
    supervision = SupervisionConfig(
        max_retries=max_retries,
        shard_deadline=shard_deadline,
        backoff_base=0.01,  # keep test wall-clock down
    )
    mining = MiningConfig(
        jobs=jobs, shards=shards,
        store_dir=str(store_dir) if store_dir else None,
        mp_context=mp_context,
        supervision=supervision,
    )
    with arm(FaultPlan.parse(faults)):
        return MiningEngine(config, mining).learn(programs)


def specs_text(learned):
    return specs_to_json(learned.specs, learned.scores)


# ----------------------------------------------------------------------
# worker faults


def test_transient_kill_is_retried_and_specs_match_clean():
    programs = java_corpus()
    clean = learn(programs)
    faults = "kill:corpus_00003:1"
    learned = learn(programs, jobs=2, faults=faults)
    assert specs_text(learned) == specs_text(clean)
    ledger = learned.mining.ledger
    assert ledger.n_worker_crashes == 1
    assert ledger.n_retries == 1
    assert ledger.n_poisoned == 0
    assert learned.mining.n_quarantined == 0
    assert learned.mining.supervised


def test_toxic_kill_is_bisected_and_quarantined():
    programs = java_corpus()
    clean = learn(programs)
    faults = "kill:corpus_00003"
    learned = learn(programs, jobs=2, faults=faults)
    ledger = learned.mining.ledger
    assert ledger.n_poisoned == 1
    assert ledger.n_bisections >= 1
    manifest = learned.run.manifest
    assert [e.program for e in manifest.entries] \
        == ["000003:corpus_00003.java"]
    assert manifest.entries[0].error_kind == WORKER_CRASH
    # a poisoned task's record carries the taxonomy label
    poisoned = [t for t in ledger.tasks if t.poisoned]
    assert [t.poisoned for t in poisoned] == [WORKER_CRASH]
    # the surviving programs still learn something, and the clean run
    # proves the corpus was healthy before injection
    assert learned.specs and clean.specs
    assert learned.mining.n_quarantined == 1


def test_hang_is_reclaimed_by_deadline_and_quarantined():
    programs = java_corpus(n=2)
    faults = "hang:corpus_00001"
    learned = learn(programs, shards=1, faults=faults, max_retries=0,
                    shard_deadline=1.0)
    ledger = learned.mining.ledger
    assert ledger.n_worker_timeouts >= 2  # whole shard, then singleton
    assert ledger.n_poisoned == 1
    manifest = learned.run.manifest
    assert manifest.entries[0].error_kind == WORKER_TIMEOUT
    assert "corpus_00001" in manifest.entries[0].program


def test_transient_corrupt_result_is_retried():
    programs = java_corpus()
    clean = learn(programs)
    faults = "corrupt:corpus_00002:1"
    learned = learn(programs, jobs=2, faults=faults)
    assert specs_text(learned) == specs_text(clean)
    ledger = learned.mining.ledger
    assert ledger.n_corrupt_results == 1
    assert ledger.n_poisoned == 0


# ----------------------------------------------------------------------
# bisection


def test_bisection_converges_in_logarithmic_attempts():
    n = 8
    programs = java_corpus(n=n)
    faults = "kill:corpus_00005"
    learned = learn(programs, shards=1, faults=faults, max_retries=0)
    analyze = [t for t in learned.mining.ledger.tasks
               if t.phase == "analyze"]
    depth = int(math.log2(n))
    # root + two children per bisection level; only the toxic half
    # fails at each level
    assert sum(len(t.attempts) for t in analyze) <= 2 * depth + 1
    assert sum(1 for t in analyze if t.bisected) == depth
    assert sum(1 for t in analyze if t.poisoned) == 1
    assert learned.mining.n_quarantined == 1


def test_bisection_lineage_is_recorded_in_ledger():
    programs = java_corpus(n=4)
    faults = "kill:corpus_00000"
    learned = learn(programs, shards=1, faults=faults, max_retries=0)
    payload = learned.mining.ledger.to_dict()
    ids = {t["task_id"] for t in payload["tasks"]}
    assert any("." in task_id for task_id in ids)  # e.g. "0.0"
    assert payload["n_bisections"] >= 1
    assert payload["n_poisoned"] == 1


# ----------------------------------------------------------------------
# strict mode and exit codes


def test_strict_toxic_kill_raises_worker_crash():
    programs = java_corpus(n=4)
    faults = "kill:corpus_00001"
    with pytest.raises(WorkerCrash):
        learn(programs, jobs=2, faults=faults, strict=True, max_retries=1)


def test_cli_chaos_everything_poisoned_exits_4(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setenv("USPEC_FAULTS", "kill:corpus_")
    code = main([
        "learn", "--files", "3", "--jobs", "2", "--max-retries", "0",
        "--out", str(tmp_path / "specs.json"),
    ])
    assert code == 4
    assert "every corpus program was quarantined" in capsys.readouterr().err


def test_cli_strict_chaos_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("USPEC_FAULTS", "kill:corpus_00001")
    code = main([
        "learn", "--files", "3", "--jobs", "2", "--max-retries", "0",
        "--strict", "--out", str(tmp_path / "specs.json"),
    ])
    assert code == 2
    assert "attempt" in capsys.readouterr().err


def test_cli_transient_chaos_matches_clean_run(tmp_path, monkeypatch):
    clean, faulty = tmp_path / "clean.json", tmp_path / "faulty.json"
    assert main(["learn", "--files", "6", "--out", str(clean)]) == 0
    monkeypatch.setenv("USPEC_FAULTS", "kill:corpus_00002:1")
    assert main([
        "learn", "--files", "6", "--jobs", "2", "--out", str(faulty),
    ]) == 0
    assert clean.read_bytes() == faulty.read_bytes()


@pytest.mark.parametrize("flags", [
    ["--shard-deadline", "0"], ["--shard-deadline", "-1"],
    ["--shard-deadline", "nan"], ["--max-retries", "-1"],
    ["--lease", "0"], ["--lease", "-1"], ["--lease", "nan"],
    ["--jobs", "0"], ["--jobs", "-2"], ["--shards", "0"],
    ["--shards", "-1"], ["--budget-seconds", "-1"],
    ["--budget-seconds", "0"], ["--budget-iterations", "-5"],
    ["--budget-iterations", "0"], ["--budget-constraints", "0"],
    ["--budget-events", "-1"],
])
def test_cli_rejects_out_of_range_supervision_flags(tmp_path, flags):
    with pytest.raises(SystemExit) as exit_info:
        main(["learn", "--files", "4", *flags,
              "--out", str(tmp_path / "specs.json")])
    assert exit_info.value.code == 2
    assert not (tmp_path / "specs.json").exists()


def test_cli_analyze_rejects_a_negative_budget(tmp_path, capsys):
    snippet = tmp_path / "snippet.py"
    snippet.write_text("d = dict()\nx = d.get('a')\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", str(snippet), "--budget-seconds", "-1"])
    assert exit_info.value.code == 2
    assert "--budget-seconds" in capsys.readouterr().err


# ----------------------------------------------------------------------
# poisoned verdicts are stored


def test_poisoned_program_is_never_reattempted_warm(tmp_path):
    programs = java_corpus()
    faults = "kill:corpus_00003"
    cold = learn(programs, jobs=2, faults=faults, store_dir=tmp_path,
                 max_retries=0)
    assert cold.mining.ledger.n_poisoned == 1
    # warm re-run with the same fault: the stored worker-crash verdict
    # wins before the program is dispatched, so the fault never fires
    warm = learn(programs, jobs=2, faults=faults, store_dir=tmp_path,
                 max_retries=0)
    assert warm.mining.ledger.n_worker_crashes == 0
    assert warm.mining.ledger.n_poisoned == 0
    assert warm.mining.n_quarantined == 1
    assert specs_text(warm) == specs_text(cold)
    assert [e.error_kind for e in warm.run.manifest.entries] == [WORKER_CRASH]


def test_strict_abort_keeps_what_the_other_worker_finished(tmp_path):
    """A strict abort in one worker loses only what that worker had in
    flight: every program the other worker finished meanwhile, and each
    program the aborted task settled before the hang, is journaled."""
    programs = java_corpus(12)
    faults = "hang:corpus_00005"
    with pytest.raises(WorkerTimeout):
        learn(programs, jobs=2, faults=faults, strict=True, max_retries=0,
              shard_deadline=1.5, store_dir=tmp_path)

    rerun = learn(programs, jobs=2, store_dir=tmp_path)
    # worker-fault runs send one shard per task: the hang's own task
    # lost the hung program and those after it, and nothing else
    keys = [f"{i:06d}:{p.source}" for i, p in enumerate(programs)]
    plan = ShardPlan.of([p.source for p in programs], rerun.mining.n_shards)
    hung = next(i for i, key in enumerate(keys) if "corpus_00005" in key)
    task = next(m for m in map(plan.members, plan.non_empty())
                if hung in m)
    in_flight = [keys[i] for i in task[task.index(hung):]]
    assert rerun.mining.analyzed_keys == sorted(in_flight)
    assert rerun.mining.n_from_store == 12 - len(in_flight)
    assert specs_text(rerun) == specs_text(learn(programs))


# ----------------------------------------------------------------------
# the persistent pool


def _echo_pid(payload, attempt):
    return ("pid", os.getpid())


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork")
def test_worker_pool_persists_across_phases():
    ctx = multiprocessing.get_context("fork")
    supervisor = TaskScheduler(
        SupervisionConfig(backoff_base=0.01), ctx=ctx, jobs=2)
    kwargs = dict(
        runner=_echo_pid,
        splitter=lambda payload: None,
        poisoner=lambda payload, kind, error: ("pid", -1),
        validator=lambda result: (
            isinstance(result, tuple) and result[0] == "pid"),
    )
    try:
        tasks = [(0, "shard-0"), (1, "shard-1")]
        first = supervisor.run_phase("analyze", tasks, **kwargs)
        second = supervisor.run_phase("train", tasks, **kwargs)
        pids_first = {pid for _, pid in first}
        pids_second = {pid for _, pid in second}
        assert len(pids_first) == 2  # both workers served a task
        # the same processes crossed the phase barrier — no respawn
        assert pids_first == pids_second
        processes = [w.process for w in supervisor._workers]
        assert all(p.is_alive() for p in processes)
    finally:
        supervisor.close()
    assert supervisor._workers == []
    assert all(not p.is_alive() for p in processes)


def _tagged(payload, attempt):
    kind, tag = payload
    if kind == "fail":
        raise ValueError(tag)
    if kind == "slow":
        time.sleep(1.0)
    return ("tag", tag)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork")
def test_strict_abort_leaves_no_stale_frame_for_the_next_phase():
    """A strict error ends phase 1 while the other worker is mid-frame;
    phase 2 on the same scheduler returns exactly its own results."""
    scheduler = TaskScheduler(
        SupervisionConfig(backoff_base=0.01), strict=True,
        ctx=multiprocessing.get_context("fork"), jobs=2)
    kwargs = dict(
        runner=_tagged,
        splitter=lambda payload: None,
        poisoner=lambda payload, kind, error: ("tag", None),
        validator=lambda result: (
            isinstance(result, tuple) and result[0] == "tag"),
    )
    try:
        with pytest.raises(ValueError, match="boom"):
            scheduler.run_phase(
                "analyze", [(0, ("slow", "stale")), (1, ("fail", "boom"))],
                **kwargs)
        second = scheduler.run_phase(
            "analyze", [(0, ("quick", "a")), (1, ("quick", "b"))], **kwargs)
    finally:
        scheduler.close()
    assert sorted(tag for _, tag in second) == ["a", "b"]


_KILLED_PARENT = """
import multiprocessing, os, sys
from repro.mining.supervisor import TaskScheduler
supervisor = TaskScheduler(ctx=multiprocessing.get_context("fork"), jobs=2)
supervisor._ensure_workers()
with open(sys.argv[1], "w") as fh:
    fh.write(" ".join(str(w.process.pid) for w in supervisor._workers))
os._exit(137)  # a crash: no close(), no shutdown sentinel
"""


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir("/proc"),
    reason="needs fork and /proc")
def test_pool_workers_exit_when_the_parent_is_killed(tmp_path):
    """Each forked worker closes its copies of the parent's pipe ends,
    so a parent killed outright reads as EOF and no worker outlives it."""
    pid_file = tmp_path / "pids"
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_PARENT, str(pid_file)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60,
    )
    assert proc.returncode == 137
    pids = [int(pid) for pid in pid_file.read_text().split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 10.0
    try:
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# spawn start method


def test_spawn_context_matches_sequential():
    programs = java_corpus(n=4)
    clean = learn(programs)
    spawned = learn(programs, jobs=2, shards=2, mp_context="spawn")
    assert specs_text(spawned) == specs_text(clean)
    assert spawned.mining.ledger.clean


# ----------------------------------------------------------------------
# report plumbing


def test_report_carries_supervision_ledger():
    programs = java_corpus(n=4)
    faults = "kill:corpus_00002:1"
    learned = learn(programs, jobs=2, faults=faults)
    payload = learned.mining.to_dict()
    assert payload["supervised"] is True
    supervision = payload["supervision"]
    assert supervision["n_worker_crashes"] == 1
    assert supervision["n_retries"] == 1
    # troubled tasks keep their attempt trail; clean ones are counters
    assert all(t["attempts"] for t in supervision["tasks"])
    assert json.dumps(payload)  # report stays JSON-serializable


def test_sequential_report_has_no_ledger():
    learned = learn(java_corpus(n=2))
    assert learned.mining.supervised is False
    assert learned.mining.to_dict()["supervision"] is None


# ----------------------------------------------------------------------
# dispatch batching (the coalescing floor) and its instrumentation


def test_small_shards_coalesce_into_few_round_trips():
    programs = java_corpus(n=16)
    learned = learn(programs, jobs=2, shards=8)
    dispatch = learned.mining.dispatch
    assert dispatch is not None
    # 8 analyze tasks (the only phase), but the coalescing floor packs
    # each worker's fair share of the corpus into one frame: at most
    # jobs round trips, not one per shard task
    assert dispatch["n_tasks_dispatched"] == 8
    assert dispatch["n_round_trips"] <= 2
    assert dispatch["n_batches"] >= 2
    assert dispatch["n_tasks_batched"] > dispatch["n_batches"]
    # only the first reply of each healthy frame is shape-revalidated
    assert dispatch["n_validations_skipped"] > 0
    # pipe traffic and serialisation time are observable
    assert dispatch["bytes_sent"] > 0 and dispatch["bytes_received"] > 0
    assert learned.mining.to_dict()["dispatch"] == dispatch


def test_batched_specs_byte_identical_to_sequential():
    programs = java_corpus(n=12)
    sequential = learn(programs)
    batched = learn(programs, jobs=4)
    assert specs_text(batched) == specs_text(sequential)
    assert batched.mining.ledger.clean
    assert batched.mining.dispatch["n_batches"] >= 1


def test_chaos_disables_coalescing():
    programs = java_corpus(n=8)
    faults = "kill:corpus_00003:1"
    learned = learn(programs, jobs=2, faults=faults)
    dispatch = learned.mining.dispatch
    # a worker fault targets single tasks; every frame stays singleton
    # so the fault tests' exact attempt counts keep meaning something
    assert dispatch["n_batches"] == 0
    assert dispatch["n_validations_skipped"] == 0


# ----------------------------------------------------------------------
# store hit-rate reporting


def test_real_cache_dir_still_reports_hit_rate(tmp_path):
    programs = java_corpus(n=4)
    cold = learn(programs, jobs=2, store_dir=tmp_path)
    assert cold.mining.cache_hit_rate == 0.0
    warm = learn(programs, jobs=2, store_dir=tmp_path)
    assert warm.mining.cache_hit_rate == 1.0
    assert specs_text(warm) == specs_text(cold)


# ----------------------------------------------------------------------
# the warm path: pre-encoded samples from the store journal


def test_warm_run_absorbs_samples_from_sidecar(tmp_path):
    programs = java_corpus(n=6)
    cold = learn(programs, store_dir=tmp_path)
    assert cold.mining.n_from_store == 0
    warm = learn(programs, store_dir=tmp_path)
    assert warm.mining.n_analyzed == 0
    assert warm.mining.n_from_store == len(programs)
    # statistics came from the journal records: nothing was analysed,
    # re-sampled or re-encoded
    assert warm.mining.n_from_store == len(programs)
    assert specs_text(warm) == specs_text(cold)


def test_sidecar_warm_specs_match_for_parallel_jobs(tmp_path):
    programs = java_corpus(n=8)
    cold = learn(programs, store_dir=tmp_path)
    warm = learn(programs, jobs=4, store_dir=tmp_path)
    assert warm.mining.n_from_store == len(programs)
    assert specs_text(warm) == specs_text(cold)


# ----------------------------------------------------------------------
# acceptance: worker faults on a 100-program corpus


@pytest.mark.slow
def test_acceptance_chaos_quarantines_only_toxins_byte_identical():
    survivors = java_corpus(n=100, seed=11)
    toxic = [toxic_program("toxic_kill.java"),
             toxic_program("toxic_hang.java")]
    corpus = survivors + toxic  # appended: survivor indices unchanged
    faults = "kill:toxic_kill;hang:toxic_hang"
    clean = learn(survivors)
    learned = learn(corpus, jobs=2, shards=32, faults=faults,
                    max_retries=0, shard_deadline=3.0)
    # quarantines exactly the injected toxins, with worker-* labels
    kinds = {e.program: e.error_kind for e in learned.run.manifest.entries}
    assert kinds == {
        "000100:toxic_kill.java": WORKER_CRASH,
        "000101:toxic_hang.java": WORKER_TIMEOUT,
    }
    # byte-identical specs on the surviving programs
    assert specs_text(learned) == specs_text(clean)
    ledger = learned.mining.ledger
    assert ledger.n_poisoned == 2
    assert ledger.n_worker_crashes >= 1
    assert ledger.n_worker_timeouts >= 1


# ----------------------------------------------------------------------
# adaptive deadlines


def test_deadline_tracker_warmup_returns_fixed():
    tracker = DeadlineTracker(SupervisionConfig(
        shard_deadline=5.0, adaptive_deadline=True,
        deadline_min_samples=3))
    assert tracker.effective(10) == 5.0
    tracker.observe(0.2, 2)
    tracker.observe(0.3, 3)
    assert tracker.effective(10) == 5.0  # still below min samples


def test_deadline_tracker_scales_p95_by_slack_and_size():
    tracker = DeadlineTracker(SupervisionConfig(
        adaptive_deadline=True, deadline_slack=4.0,
        deadline_min_samples=3))
    for seconds in (0.1, 0.2, 0.3):  # one program each
        tracker.observe(seconds, 1)
    # p95 of [0.1, 0.2, 0.3] lands on the 0.2 sample (index 1 of 2)
    assert tracker.effective(1) == pytest.approx(0.2 * 4.0)
    assert tracker.effective(5) == pytest.approx(0.2 * 4.0 * 5)


def test_deadline_tracker_fixed_flag_is_a_floor():
    tracker = DeadlineTracker(SupervisionConfig(
        shard_deadline=60.0, adaptive_deadline=True,
        deadline_slack=2.0, deadline_min_samples=1))
    tracker.observe(0.01, 1)
    assert tracker.effective(1) == 60.0  # estimate far below the floor


def test_deadline_tracker_disabled_is_inert():
    tracker = DeadlineTracker(SupervisionConfig(
        shard_deadline=7.0, adaptive_deadline=False))
    tracker.observe(100.0, 1)
    assert tracker.samples == []
    assert tracker.effective(50) == 7.0
