"""repro.dist: the wire, the loopback coordinator/worker cluster,
byte-identity with local mining, worker death, lease expiry, hung
workers reclaimed at their deadline, stale frames, stalled and
unregistered peers, worker faults, and the distributed CLI."""

import base64
import contextlib
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import threading
import time
from multiprocessing.connection import Client, Listener

import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator, java_registry
from repro.dist import (
    Coordinator,
    DistConfig,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    resolve_runner,
    run_worker,
    runner_ref,
)
from repro.dist.protocol import pack_payload, unpack_payload
from repro.mining import MiningConfig, MiningEngine
from repro.mining.engine import (
    AnalyzeTask,
    _supervised_analyze,
    _valid_reply,
)
from repro.mining.supervisor import (
    SupervisionConfig,
    _run_job,
    interim_channel,
)
from repro.runtime import (
    Budget,
    BudgetExceeded,
    FaultPlan,
    QuarantineEntry,
    RuntimeConfig,
    SOLVER_CRASH,
    WORKER_CRASH,
    arm,
)
from repro.specs.pipeline import PipelineConfig, USpecPipeline
from repro.specs.serialize import specs_to_json


def java_corpus(n=12, seed=7):
    return CorpusGenerator(
        java_registry(), CorpusConfig(n_files=n, seed=seed)).programs()


def learn(programs, *, coordinator=None, jobs=1, shards=None,
          store_dir=None, strict=False, faults="", max_retries=2,
          shard_deadline=None, budget=None):
    config = PipelineConfig(runtime=RuntimeConfig(
        strict=strict, budget=budget or Budget(),
    ))
    supervision = SupervisionConfig(
        max_retries=max_retries, shard_deadline=shard_deadline)
    mining = MiningConfig(
        jobs=jobs, shards=shards,
        store_dir=str(store_dir) if store_dir else None,
        supervision=supervision,
    )
    with arm(FaultPlan.parse(faults)):
        return MiningEngine(config, mining, coordinator).learn(programs)


def specs_text(learned):
    return specs_to_json(learned.specs, learned.scores)


def manifest_text(learned):
    return learned.run.manifest.to_json()


@contextlib.contextmanager
def cluster(n=3, *, processes=False, lease=10.0, start_workers=True,
            **dist_kw):
    """A loopback coordinator plus n workers (threads or processes)."""
    dist_kw.setdefault("no_worker_timeout", 60.0)
    coordinator = Coordinator(DistConfig(
        min_workers=n if start_workers else 0,
        lease_seconds=lease, **dist_kw,
    ))
    host, port = coordinator.bind()
    workers = []
    if start_workers:
        for i in range(n):
            kwargs = {"name": f"w{i}", "connect_retries": 60}
            if processes:
                worker = multiprocessing.get_context("fork").Process(
                    target=run_worker, args=(host, port), kwargs=kwargs,
                    daemon=True,
                )
            else:
                worker = threading.Thread(
                    target=run_worker, args=(host, port), kwargs=kwargs,
                    daemon=True,
                )
            worker.start()
            workers.append(worker)
    try:
        yield coordinator, workers, (host, port)
    finally:
        coordinator.close()
        for worker in workers:
            worker.join(timeout=10)
            if processes and worker.is_alive():
                worker.kill()


def _register(address, name):
    """A hand-written peer: connect and register with the coordinator."""
    conn = Client(address)
    conn.send(("hello", name, PROTOCOL_VERSION))
    assert conn.recv()[0] == "welcome"
    return conn


def _is_task(message):
    """Tasks are the only 3-tuples a coordinator sends a worker."""
    return isinstance(message, tuple) and len(message) == 3


# ----------------------------------------------------------------------
# protocol


def test_payload_roundtrip_preserves_types():
    err = BudgetExceeded("solver_iterations", 100, 50, stage="pointsto")
    restored = unpack_payload(pack_payload(err))
    assert isinstance(restored, BudgetExceeded)


def test_payload_compression_markers_roundtrip():
    small = {"kind": "control"}
    text = pack_payload(small)
    assert base64.b64decode(text)[:1] == b"\x00"  # below threshold
    assert unpack_payload(text) == small
    big = {"blob": "spec " * 4096}
    text = pack_payload(big)
    body = base64.b64decode(text)
    assert body[:1] == b"\x01"
    assert len(body) < len(pickle.dumps(big))  # actually compressed
    assert unpack_payload(text) == big
    forced = pack_payload(big, compress=False)
    assert base64.b64decode(forced)[:1] == b"\x00"
    assert unpack_payload(forced) == big


def test_unpack_payload_rejects_garbage():
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"").decode("ascii"))
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"\x07junk").decode("ascii"))
    with pytest.raises(ProtocolError):
        unpack_payload(base64.b64encode(b"\x01not-zlib").decode("ascii"))


def test_runner_ref_roundtrip_and_namespace_restriction():
    ref = runner_ref(_supervised_analyze)
    assert ref.startswith("repro.")
    assert resolve_runner(ref) is _supervised_analyze
    with pytest.raises(ProtocolError):
        resolve_runner("os:system")
    with pytest.raises(ProtocolError):
        resolve_runner("subprocess:run")
    with pytest.raises(ProtocolError):
        runner_ref(contextlib.contextmanager)


# ----------------------------------------------------------------------
# loopback cluster byte-identity


def test_loopback_cluster_matches_jobs_3(tmp_path):
    programs = java_corpus()
    local = learn(programs, jobs=3)
    with cluster(3) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator, jobs=3,
                     store_dir=tmp_path / "store")
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert dist.mining.distributed
    assert dist.mining.supervised
    assert dist.mining.cluster["n_workers_seen"] == 3
    assert dist.mining.cluster["n_workers_lost"] == 0
    # every non-empty shard was dispatched (empty shards never are)
    assert dist.mining.cluster["n_tasks_dispatched"] \
        >= len(dist.mining.shards)
    # every worker should have been credited with at least one result
    assert len(dist.mining.cluster["by_worker"]) == 3


def test_loopback_run_reports_dispatch_and_only_analyze_tasks():
    programs = java_corpus(n=6)
    with cluster(2) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator)
    dispatch = dist.mining.dispatch
    # one task per frame: every dispatched task is one round trip
    assert dispatch["n_round_trips"] > 0
    assert dispatch["n_round_trips"] \
        == dist.mining.cluster["n_tasks_dispatched"]
    assert dispatch["bytes_sent"] > 0 and dispatch["bytes_received"] > 0
    assert dispatch["seconds_serialize"] > 0
    # the model never leaves the coordinator: every task is an analyze
    assert {t.phase for t in dist.mining.ledger.tasks} == {"analyze"}
    assert dist.mining.model_broadcast_bytes == 0


# ----------------------------------------------------------------------
# worker failure


def test_worker_sigkilled_mid_run_does_not_change_results():
    programs = java_corpus(n=20)
    local = learn(programs, jobs=3)
    with cluster(3, processes=True, lease=3.0) as (coordinator, workers, _):
        killer = threading.Timer(
            0.4, lambda: os.kill(workers[0].pid, signal.SIGKILL))
        killer.start()
        try:
            dist = learn(programs, coordinator=coordinator, jobs=3,
                         shards=8)
        finally:
            killer.cancel()
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert dist.mining.cluster["n_workers_seen"] == 3


def test_transient_chaos_kill_on_worker_is_retried():
    programs = java_corpus()
    clean = learn(programs)
    # a kill exits the whole worker daemon (os._exit), so workers must
    # be processes; the coordinator sees EOF and re-dispatches
    with cluster(3, processes=True) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator, jobs=3,
                     faults="kill:corpus_00003:1")
    assert specs_text(dist) == specs_text(clean)
    ledger = dist.mining.ledger
    assert ledger.n_worker_crashes >= 1
    assert ledger.n_poisoned == 0
    assert dist.mining.n_quarantined == 0
    assert dist.mining.cluster["n_workers_lost"] >= 1


def test_transient_chaos_corrupt_on_worker_is_retried():
    programs = java_corpus()
    clean = learn(programs)
    # corrupt replies with garbage (no exit), so thread workers are safe
    with cluster(2) as (coordinator, _, _):
        dist = learn(programs, coordinator=coordinator,
                     faults="corrupt:corpus_00002:1")
    assert specs_text(dist) == specs_text(clean)
    assert dist.mining.ledger.n_corrupt_results >= 1
    assert dist.mining.ledger.n_poisoned == 0


#: one corrupt reply (first attempt only) and one stage fault (every tier)
ONE_PLAN = "corrupt:corpus_00002:1;pointsto:corpus_00004"


@pytest.fixture(scope="module")
def one_plan_references():
    """The plan's reference run on the corpus in source order and with
    its first file moved to the end."""
    programs = java_corpus(n=8)
    references = []
    for corpus in (programs, programs[1:] + programs[:1]):
        with arm(FaultPlan.parse("pointsto:corpus_00004")):
            references.append((corpus, USpecPipeline().learn(corpus)))
    return references


@pytest.mark.parametrize("topology", [
    "jobs1", "jobs2", "dist-threads", "dist-processes",
])
def test_one_plan_across_every_worker_topology(one_plan_references,
                                               topology):
    """Every worker fires faults from the plan its task carried: pool
    processes, dist processes and dist threads of a process that armed
    the plan itself all reproduce the reference pipeline, whatever the
    corpus order."""
    for programs, reference in one_plan_references:
        if topology.startswith("jobs"):
            learned = learn(programs, jobs=int(topology[-1]),
                            faults=ONE_PLAN)
        else:
            processes = topology == "dist-processes"
            with cluster(2, processes=processes) as (coordinator, _, _):
                learned = learn(programs, coordinator=coordinator,
                                faults=ONE_PLAN)
        assert specs_text(learned) == specs_text(reference)
        assert manifest_text(learned) == manifest_text(reference)
        (entry,) = learned.run.manifest.entries
        index = [p.source for p in programs].index("corpus_00004.java")
        assert entry.program == f"{index:06d}:corpus_00004.java"
        assert entry.error_kind == SOLVER_CRASH
        assert len(entry.attempts) == 3
        ledger = learned.mining.ledger
        assert ledger.n_corrupt_results == 1
        assert ledger.n_poisoned == 0


def test_lease_expiry_redispatches_and_drops_silent_worker():
    programs = java_corpus()
    local = learn(programs, jobs=2)
    got_task = threading.Event()

    def silent_worker(host, port):
        """Registers, takes one task, then never heartbeats again."""
        conn = _register((host, port), "silent")
        try:
            while True:
                if _is_task(conn.recv()):
                    got_task.set()  # go silent holding the lease
        except (EOFError, OSError):
            return  # coordinator dropped us: the expected end
        finally:
            conn.close()

    coordinator = Coordinator(DistConfig(
        min_workers=1, lease_seconds=0.75, no_worker_timeout=60.0,
    ))
    host, port = coordinator.bind()
    silent = threading.Thread(target=silent_worker, args=(host, port),
                              daemon=True)
    silent.start()
    coordinator.wait_for_workers(1, timeout=30.0)
    real = threading.Thread(
        target=run_worker, args=(host, port),
        kwargs={"name": "real", "connect_retries": 60}, daemon=True,
    )
    real.start()
    try:
        dist = learn(java_corpus(), coordinator=coordinator, shards=6)
    finally:
        coordinator.close()
    silent.join(timeout=10)
    real.join(timeout=10)
    assert got_task.is_set()
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert coordinator.stats.n_lease_expiries >= 1
    assert dist.mining.ledger.n_worker_timeouts >= 1


def test_stale_frame_cannot_answer_the_next_phase():
    """A frame still in flight when its phase ends stays on its worker:
    after a strict abort, the held frame's late reply and interims are
    dropped, never credited to a task or the journal of the next
    phase."""
    programs = java_corpus(n=6)
    tight = PipelineConfig(runtime=RuntimeConfig(
        strict=True, budget=Budget(max_solver_iterations=1)))

    def tasks(pairs, config=PipelineConfig()):
        return [(sid, AnalyzeTask(
            config, sid, ((i, f"{i:06d}:{programs[i].source}", programs[i]),),
        )) for sid, i in pairs]

    release = threading.Event()

    def holder(address):
        """Holds its first task, heartbeating, until released or sent
        another; then answers its tasks in arrival order, interims
        first, as run_worker does."""
        conn = _register(address, "holder")
        lock = threading.Lock()

        def send(message):
            with lock:
                conn.send(message)

        held = []
        try:
            while True:
                if conn.poll(0.05):
                    message = conn.recv()
                    if message is None:
                        return
                    if _is_task(message):
                        held.append(message)
                if held and (release.is_set() or len(held) > 1):
                    ref, payload, attempt = held.pop(0)
                    with interim_channel(
                            lambda item: send(("interim", item))):
                        send(_run_job(resolve_runner(ref), payload, attempt))
                elif held:
                    send(("heartbeat",))
        except (EOFError, OSError):
            return
        finally:
            conn.close()

    coordinator = Coordinator(DistConfig(
        min_workers=2, lease_seconds=10.0, no_worker_timeout=60.0,
    ), strict=True)
    address = coordinator.bind()
    peer = threading.Thread(target=holder, args=(address,), daemon=True)
    peer.start()
    coordinator.wait_for_workers(1, timeout=30.0)  # the holder is first
    real = threading.Thread(
        target=run_worker, args=address,
        kwargs={"name": "real", "connect_retries": 60}, daemon=True,
    )
    real.start()
    phase = dict(runner=_supervised_analyze,
                 remaining=lambda payload: payload,
                 poisoner=lambda payload, label, error: None,
                 validator=_valid_reply)
    interims = []

    def collect(payload, item):
        interims.append(item)
        return True
    try:
        coordinator.wait_for_workers(2, timeout=30.0)
        # the holder takes shard 0; shard 1 blows its budget on the
        # real worker, and the strict raise ends the phase
        with pytest.raises(BudgetExceeded):
            coordinator.run_phase(
                "analyze", tasks([(0, 0)]) + tasks([(1, 1)], tight),
                **phase)
        release.set()  # the holder answers while phase 2 runs
        second = coordinator.run_phase(
            "analyze", tasks([(10, 4), (11, 5)]),
            on_interim=collect, **phase)
    finally:
        coordinator.close()
    peer.join(timeout=10)
    real.join(timeout=10)
    assert sorted(shard_id for shard_id, _ in second) == [10, 11]
    assert sorted(outcome.key for outcome, _ in interims) == [
        f"{i:06d}:{programs[i].source}" for i in (4, 5)]


@pytest.mark.parametrize("n_workers", [2, 3])
def test_hung_worker_is_reclaimed_by_its_deadline(n_workers):
    """A remote worker that hangs while heartbeating keeps its lease;
    the shard deadline drops it and the retry lands elsewhere.  No
    second copy of the hung attempt runs, so the counts hold for any
    number of idle workers."""
    programs = java_corpus(n=20)
    local = learn(programs, jobs=2)
    with cluster(n_workers, processes=True) as (coordinator, workers, _):
        try:
            dist = learn(programs, coordinator=coordinator, jobs=n_workers,
                         faults="hang:corpus_00005:1", shard_deadline=2.0)
        finally:
            # a hung worker never exits: do not wait out the join
            for worker in workers:
                os.kill(worker.pid, signal.SIGKILL)
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert dist.mining.ledger.n_worker_timeouts == 1
    assert dist.mining.cluster["n_workers_lost"] == 1


def test_strict_typed_error_propagates_from_worker():
    programs = java_corpus(n=4)
    tight = Budget(max_solver_iterations=1)
    with cluster(2) as (coordinator, _, _):
        with pytest.raises(BudgetExceeded):
            learn(programs, coordinator=coordinator, strict=True,
                  budget=tight)


def test_dist_worker_journals_each_program_before_its_result(tmp_path):
    """A dist worker streams each settled program to the coordinator in
    an ``interim`` frame, so a strict abort at a task's last program
    keeps the others: the rerun analyses only the one in flight."""
    programs = java_corpus(n=6)
    victim = programs[-1].source
    with cluster(1) as (coordinator, _, _):
        with pytest.raises(Exception, match="injected fault"):
            learn(programs, coordinator=coordinator, shards=1, strict=True,
                  store_dir=tmp_path / "store",
                  faults=f"pointsto:{victim}")

    rerun = learn(programs, shards=1, store_dir=tmp_path / "store")
    assert rerun.mining.n_from_store == 5
    assert rerun.mining.analyzed_keys == [f"000005:{victim}"]
    assert specs_text(rerun) == specs_text(learn(programs))


def test_no_worker_timeout_aborts_instead_of_hanging():
    from repro.runtime import WorkerCrash

    coordinator = Coordinator(DistConfig(
        min_workers=0, no_worker_timeout=0.5,
    ))
    coordinator.bind()
    try:
        with pytest.raises(WorkerCrash):
            learn(java_corpus(n=3), coordinator=coordinator)
    finally:
        coordinator.close()


def test_version_mismatch_is_rejected():
    coordinator = Coordinator(DistConfig(min_workers=0))
    host, port = coordinator.bind()
    conn = Client((host, port))
    try:
        conn.send(("hello", "old", PROTOCOL_VERSION + 1))
        pump = threading.Thread(
            target=lambda: [coordinator._pump(0.1) for _ in range(20)],
            daemon=True,
        )
        pump.start()
        reply = conn.recv()
        pump.join(timeout=10)
        assert reply[0] == "error" and "protocol version" in reply[1]
        assert coordinator.n_workers == 0
    finally:
        conn.close()
        coordinator.close()


# ----------------------------------------------------------------------
# malformed frames mid-session


def _evil_worker(host, port, garbage, got_task):
    """Registers, takes one task, then wrecks the wire with garbage."""
    conn = _register((host, port), "evil")
    try:
        while not _is_task(conn.recv()):
            pass
        got_task.set()
        os.write(conn.fileno(), garbage)
        # truncated variant: hang up mid-frame too
    except (EOFError, OSError):
        return  # coordinator dropped us: the expected end
    finally:
        conn.close()


def _learn_against_evil_worker(garbage):
    """Run a distributed learn with one garbage-spewing worker."""
    programs = java_corpus()
    local = learn(programs, jobs=2)
    got_task = threading.Event()
    coordinator = Coordinator(DistConfig(
        min_workers=1, lease_seconds=5.0, no_worker_timeout=60.0,
    ))
    host, port = coordinator.bind()
    evil = threading.Thread(target=_evil_worker,
                            args=(host, port, garbage, got_task),
                            daemon=True)
    evil.start()
    coordinator.wait_for_workers(1, timeout=30.0)
    real = threading.Thread(
        target=run_worker, args=(host, port),
        kwargs={"name": "real", "connect_retries": 60}, daemon=True,
    )
    real.start()
    try:
        dist = learn(programs, coordinator=coordinator, shards=6)
    finally:
        coordinator.close()
    evil.join(timeout=10)
    real.join(timeout=10)
    assert got_task.is_set()
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert coordinator.stats.n_workers_lost >= 1
    assert dist.mining.ledger.n_poisoned == 0
    assert dist.mining.n_quarantined == 0
    return dist


def test_malformed_frame_mid_session_drops_worker_not_run():
    # an oversized length announcement: the coordinator must drop the
    # connection, reclaim the lease, and redispatch without poisoning
    # the shard
    _learn_against_evil_worker(
        struct.pack("!i", MAX_FRAME_BYTES + 1) + b"garbage")


def test_undecodable_frame_mid_session_drops_worker_not_run():
    # a plausible length prefix followed by bytes that are no pickle
    body = b"\xff\xfe not a pickle at all"
    _learn_against_evil_worker(struct.pack("!i", len(body)) + body)


def test_truncated_frame_then_eof_reclaims_lease():
    # announce 500 bytes, deliver 10, hang up: EOF mid-frame is a
    # worker loss, not a crash of the coordinator
    _learn_against_evil_worker(struct.pack("!i", 500) + b"0123456789")


# ----------------------------------------------------------------------
# stalled and unregistered peers


def test_stalled_peer_is_dropped_and_live_leases_survive(monkeypatch):
    """A peer that stalls mid-frame holds the loop for the I/O timeout
    at most, and only it is dropped: the real worker's reply or
    heartbeats, queued behind it, are read before its lease lapses by
    the clock."""
    import repro.dist.coordinator as coordinator_module

    monkeypatch.setattr(coordinator_module, "_IO_TIMEOUT", 1.0)
    programs = java_corpus()
    local = learn(programs, jobs=2)
    stalled, release = threading.Event(), threading.Event()

    def stalled_peer(host, port):
        """Registers, takes one task, writes part of a reply frame and
        stays connected."""
        conn = _register((host, port), "stalled")
        try:
            while not _is_task(conn.recv()):
                pass
            os.write(conn.fileno(), struct.pack("!i", 500) + b"partial")
            stalled.set()
            release.wait(60)
        except (EOFError, OSError):
            pass
        finally:
            conn.close()

    # both hold a task when the stall starts: the real worker's reply
    # or heartbeats then queue behind it while its lease lapses
    coordinator = Coordinator(DistConfig(
        min_workers=2, lease_seconds=0.75, no_worker_timeout=5.0,
    ))
    host, port = coordinator.bind()
    peer = threading.Thread(target=stalled_peer, args=(host, port),
                            daemon=True)
    real = threading.Thread(
        target=run_worker, args=(host, port),
        kwargs={"name": "real", "connect_retries": 60}, daemon=True,
    )
    peer.start()
    real.start()
    try:
        dist = learn(programs, coordinator=coordinator, shards=6)
    finally:
        release.set()
        coordinator.close()
    peer.join(timeout=10)
    real.join(timeout=10)
    assert stalled.is_set()
    assert specs_text(dist) == specs_text(local)
    assert manifest_text(dist) == manifest_text(local)
    assert coordinator.stats.n_workers_lost == 1
    assert coordinator.stats.n_lease_expiries == 0
    assert dist.mining.ledger.n_poisoned == 0
    assert dist.mining.n_quarantined == 0


def test_unregistered_peer_cannot_write_the_journal(tmp_path):
    """A peer that never says hello is dropped at its first message, so
    a forged interim never reaches the store."""
    programs = java_corpus()
    victim = f"000011:{programs[11].source}"
    forged = (victim, QuarantineEntry(
        program=victim, source=programs[11].source,
        error_kind=WORKER_CRASH, error="forged verdict",
    ), (), (), 0, 0)
    dropped = threading.Event()

    def intruder(address):
        conn = Client(address)
        try:
            while True:
                conn.send(("interim", forged))
                time.sleep(0.01)
        except OSError:
            dropped.set()
        finally:
            conn.close()

    store = tmp_path / "store"
    with cluster(2) as (coordinator, _, address):
        threading.Thread(target=intruder, args=(address,),
                         daemon=True).start()
        learn(programs, coordinator=coordinator, store_dir=store)
        assert dropped.wait(30)
        assert coordinator.stats.n_workers_lost == 0
    warm = learn(programs, store_dir=store)
    assert warm.mining.n_from_store == len(programs)
    assert warm.mining.n_quarantined == 0
    assert specs_text(warm) == specs_text(learn(programs))


# ----------------------------------------------------------------------
# worker graceful stop (SIGTERM drain)


@contextlib.contextmanager
def _stub_coordinator():
    """A Listener playing the coordinator's side by hand."""
    with Listener(("127.0.0.1", 0)) as listener:
        yield listener, listener.address


def _handshake(conn):
    hello = conn.recv()
    assert hello[0] == "hello" and hello[2] == PROTOCOL_VERSION
    conn.send(("welcome", 5.0))


def _double(payload, attempt):
    return payload * 2


def test_worker_stop_finishes_inflight_task_acks_and_deregisters(
        monkeypatch):
    import repro.dist.worker as worker_module

    started, release = threading.Event(), threading.Event()

    def slow_runner(payload, attempt):
        started.set()
        assert release.wait(30)
        return payload * 2

    monkeypatch.setattr(worker_module, "resolve_runner",
                        lambda ref: slow_runner)
    with _stub_coordinator() as (listener, (host, port)):
        stop = threading.Event()
        outcome = {}
        worker = threading.Thread(target=lambda: outcome.update(
            n=run_worker(host, port, name="graceful", stop=stop)),
            daemon=True)
        worker.start()
        with listener.accept() as conn:
            _handshake(conn)
            conn.send(("repro.fake:runner", 21, 0))
            assert started.wait(30)
            stop.set()  # SIGTERM lands mid-task
            release.set()  # ... then the task finishes
            frames = []
            while frames[-1:] != [("goodbye",)]:
                message = conn.recv()  # EOFError: hung up before goodbye
                if message != ("heartbeat",):
                    frames.append(message)
            # in-flight result acked first, then the deregistration
            assert frames == [("ok", 42), ("goodbye",)]
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert outcome["n"] == 1


def test_worker_stop_while_idle_sends_goodbye_and_returns():
    with _stub_coordinator() as (listener, (host, port)):
        stop = threading.Event()
        outcome = {}
        worker = threading.Thread(target=lambda: outcome.update(
            n=run_worker(host, port, name="idle", stop=stop)),
            daemon=True)
        worker.start()
        with listener.accept() as conn:
            _handshake(conn)
            stop.set()
            assert conn.recv() == ("goodbye",)
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert outcome["n"] == 0


def test_worker_stop_racing_the_welcome_still_says_goodbye(monkeypatch):
    """A stop request that lands before the worker reads the welcome
    already waiting for it still deregisters with ``goodbye``."""
    import repro.dist.worker as worker_module

    welcomed = threading.Event()
    recv = worker_module._recv

    def late_recv(conn, stop):
        assert welcomed.wait(30)  # the welcome waits; stop is set
        return recv(conn, stop)

    monkeypatch.setattr(worker_module, "_recv", late_recv)
    with _stub_coordinator() as (listener, (host, port)):
        stop = threading.Event()
        worker = threading.Thread(
            target=run_worker, args=(host, port),
            kwargs={"name": "late", "stop": stop}, daemon=True)
        worker.start()
        with listener.accept() as conn:
            _handshake(conn)
            stop.set()
            welcomed.set()
            assert conn.recv() == ("goodbye",)
        worker.join(timeout=30)
        assert not worker.is_alive()


def test_recv_or_stop_treats_idle_timeout_as_waiting(monkeypatch):
    """An idle worker waits through many stop-poll periods of silence,
    then answers the task that finally arrives."""
    import repro.dist.worker as worker_module

    monkeypatch.setattr(worker_module, "resolve_runner",
                        lambda ref: _double)
    with _stub_coordinator() as (listener, (host, port)):
        outcome = {}
        worker = threading.Thread(target=lambda: outcome.update(
            n=run_worker(host, port, name="patient", max_tasks=1)),
            daemon=True)
        worker.start()
        with listener.accept() as conn:
            _handshake(conn)
            time.sleep(4 * worker_module._STOP_POLL)
            assert not conn.poll()  # silence both ways
            conn.send(("repro.fake:runner", 21, 0))
            assert conn.recv() == ("ok", 42)
            assert conn.recv() == ("goodbye",)
        worker.join(timeout=30)
        assert outcome["n"] == 1


# ----------------------------------------------------------------------
# worker reconnect


def _serve_sessions(listener, sessions, hellos):
    """Accept ``sessions`` worker sessions; welcome each and record its
    hello, then drop all but the last, which is shut down cleanly."""
    for index in range(sessions):
        with listener.accept() as conn:
            hellos.append(conn.recv())
            conn.send(("welcome", 5.0))
            if index + 1 < sessions:
                continue  # drop: leaving the block closes the connection
            conn.send(None)
            assert conn.recv() == ("goodbye",)


def _run_against_sessions(sessions, **worker_kw):
    hellos = []
    with _stub_coordinator() as (listener, (host, port)):
        server = threading.Thread(
            target=_serve_sessions, args=(listener, sessions, hellos),
            daemon=True)
        server.start()
        try:
            done = run_worker(host, port, name="rw", sleep=lambda s: None,
                              **worker_kw)
        finally:
            server.join(timeout=10)
    return done, hellos


def test_worker_reconnects_after_coordinator_hangup():
    done, hellos = _run_against_sessions(
        2, reconnect=True, retry_delay=0.0)
    assert done == 0
    assert len(hellos) == 2  # one registration per session


def test_worker_without_reconnect_stops_on_hangup():
    done, hellos = _run_against_sessions(1)
    assert done == 0
    assert len(hellos) == 1


def test_worker_reconnect_budget_is_finite():
    port = _free_port()  # nothing listens: every connect fails
    with pytest.raises(ConnectionError):
        run_worker("127.0.0.1", port, reconnect=True, connect_retries=1,
                   retry_delay=0.0, reconnect_rounds=2,
                   sleep=lambda s: None)


def _reject_registration(listener):
    with listener.accept() as conn:
        assert conn.recv()[0] == "hello"
        conn.send(("error", "version mismatch"))


def test_worker_reconnect_does_not_mask_protocol_errors():
    with _stub_coordinator() as (listener, (host, port)):
        server = threading.Thread(target=_reject_registration,
                                  args=(listener,), daemon=True)
        server.start()
        try:
            with pytest.raises(ProtocolError, match="version mismatch"):
                run_worker(host, port, reconnect=True,
                           sleep=lambda s: None)
        finally:
            server.join(timeout=10)


@pytest.mark.parametrize("flags", [
    ["--retry-delay", "-1"], ["--retry-delay", "nan"],
    ["--retry-delay", "inf"], ["--jitter", "3"], ["--jitter", "-0.1"],
    ["--jitter", "nan"], ["--max-tasks", "0"], ["--max-tasks", "-2"],
])
def test_cli_worker_rejects_out_of_range_flags(flags, capsys):
    # nothing listens on the port: a flag accepted at parse time would
    # return from a refused connection instead of exiting
    with pytest.raises(SystemExit) as exit_info:
        main(["worker", "--connect", f"127.0.0.1:{_free_port()}",
              "--connect-retries", "1", *flags])
    assert exit_info.value.code == 2
    assert flags[0] in capsys.readouterr().err


def test_cli_worker_refused_registration_exits_2(capsys):
    with _stub_coordinator() as (listener, (host, port)):
        server = threading.Thread(target=_reject_registration,
                                  args=(listener,), daemon=True)
        server.start()
        # off the main thread, so the CLI leaves pytest's signal
        # handlers alone
        outcome = {}
        cli = threading.Thread(target=lambda: outcome.update(code=main([
            "worker", "--connect", f"{host}:{port}", "--quiet",
        ])), daemon=True)
        cli.start()
        cli.join(timeout=30)
        server.join(timeout=10)
    assert not cli.is_alive()
    assert outcome["code"] == 2
    err = capsys.readouterr().err
    assert "error: registration rejected: version mismatch" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# reconnect backoff jitter


def _collect_backoff_delays(seed, jitter=0.5):
    delays = []
    port = _free_port()  # nothing listening: every connect fails fast
    with pytest.raises(ConnectionError):
        run_worker("127.0.0.1", port, connect_retries=1,
                   retry_delay=0.5, reconnect=True, reconnect_rounds=4,
                   reconnect_max_delay=3.0, jitter=jitter,
                   jitter_seed=seed, sleep=delays.append)
    return delays


def test_backoff_jitter_deterministic_per_seed_and_bounded():
    first = _collect_backoff_delays(seed=42)
    again = _collect_backoff_delays(seed=42)
    other = _collect_backoff_delays(seed=43)
    assert first == again  # reproducible schedule under one seed
    assert first != other  # ... but distinct across the fleet
    bases = [0.5, 1.0, 2.0, 3.0]  # doubling, capped at max_delay
    assert len(first) == len(bases)
    for delay, base in zip(first, bases):
        assert base * 0.5 <= delay <= base
    # jitter actually moved the schedule off the bare doubling curve
    assert first != bases


def test_backoff_without_jitter_is_the_bare_doubling_curve():
    delays = _collect_backoff_delays(seed=1, jitter=0.0)
    assert delays == [0.5, 1.0, 2.0, 3.0]


# ----------------------------------------------------------------------
# CLI


def _free_port() -> int:
    with contextlib.closing(socket.socket()) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_cli_distributed_learn_matches_local(tmp_path):
    local_path = tmp_path / "local.json"
    dist_path = tmp_path / "dist.json"
    assert main(["learn", "--files", "8", "--jobs", "2",
                 "--out", str(local_path)]) == 0

    port = _free_port()
    outcome = {}
    coordinator_thread = threading.Thread(target=lambda: outcome.update(
        code=main(["coordinator", "--files", "8", "--jobs", "2",
                   "--bind", f"127.0.0.1:{port}", "--min-workers", "2",
                   "--out", str(dist_path)])
    ), daemon=True)
    workers = [
        threading.Thread(target=main, args=([
            "worker", "--connect", f"127.0.0.1:{port}", "--quiet",
            "--name", f"cli-w{i}", "--connect-retries", "60",
        ],), daemon=True)
        for i in range(2)
    ]
    coordinator_thread.start()
    for worker in workers:
        worker.start()
    coordinator_thread.join(timeout=300)
    assert not coordinator_thread.is_alive()
    assert outcome["code"] == 0
    for worker in workers:
        worker.join(timeout=30)
    assert dist_path.read_text() == local_path.read_text()
